"""Helpers shared by the test modules, and the suite's hypothesis profile."""

import importlib.util
import sys
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from svcl.flux import FluxSpec
from svcl.spectral import SpectralField

# every property draws the same examples on every run and keeps no database;
# a site sets only its max_examples
settings.register_profile("svcl", deadline=None, derandomize=True, database=None)
settings.load_profile("svcl")
# hypothesis caches each test module's constants in its home directory,
# by default .hypothesis in the working directory: here a temporary one
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

# a flux of each kind the step kernels take: the quadratic, none, and a cubic
FLUXES = {"burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
          "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}


def load(path):
    """The module in the file at path, outside the package (bench/, tools/)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spy(monkeypatch, owner, name, hook=None):
    """Wrap owner.name, and each svcl module's binding of the same object,
    in a spy that records every call's positional arguments; a call returns
    what the original returns, or hook(result, calls, *args, **kwargs) when
    a hook is given.  Returns the list of calls."""
    original, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        out = original(*args, **kwargs)
        return out if hook is None else hook(out, calls, *args, **kwargs)

    holders = [mod for key, mod in list(sys.modules.items())
               if key.partition(".")[0] == "svcl" and getattr(mod, name, None) is original]
    for holder in {id(h): h for h in [owner, *holders]}.values():
        monkeypatch.setattr(holder, name, wrapper)
    return calls


def random_field(basis, seed, decay=1.5, amp=1.0):
    """Smooth random field with coefficients amp * N(0, 1) / mp^decay."""
    c = amp * np.random.default_rng(seed).standard_normal(basis.m_max) / basis.pair_index**decay
    return SpectralField(c, basis)


# signed zeros, subnormals, infinities and nans of both signs
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308, np.inf, -np.inf, np.nan,
         -np.nan)


def with_edges(data, a):
    """a with up to three entries replaced by EDGES values; most draws keep
    most rows finite, so a layout slip still shows after the transforms."""
    flat = a.reshape(-1)
    for i, v in data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                             st.sampled_from(EDGES)), max_size=3)):
        flat[i] = v
    return a


def kept_blocks(n_steps, rows, step0=0):
    """The (first step, length) of each block a run's step loop hands its
    reducer, in order, for a run of n_steps from step step0 with blocks of
    `rows` kept states: a fresh start's state alone, then every block
    full from the step after step0 but the last."""
    end = step0 + n_steps
    return [(0, 1)] * (step0 == 0) + [(first, min(rows, end + 1 - first))
                                      for first in range(step0 + 1, end + 1, rows)]
