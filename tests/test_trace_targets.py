"""The benchmark tracer's contract: every name in bench/spans.py's TARGETS
resolves in svcl, so renaming or deleting a traced layer fails here, the
step path still goes through the traced kernels, and its ufunc calls take
array operands only."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from svcl import observables, spectral
from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, Stepper, run_coupled, run_single
from svcl.noise import NoisePath, NoiseSpec
from svcl.spectral import ModeBasis, mode_field

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for name, modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {modname}.{attr} does not exist"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {modname}.{attr} is not callable"


def _count_kernel_calls(monkeypatch):
    """Wrap each kernel under every svcl module name that holds it, as the
    tracer does, and return the call counts they keep."""
    counts = {}
    for modname, attr in (("svcl.spectral", "synthesize"), ("svcl.spectral", "analyze"),
                          ("svcl.flux", "flux_value")):
        original = getattr(importlib.import_module(modname), attr)

        def counted(*args, _fn=original, _key=attr, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        counts[attr] = 0
        for name, mod in list(sys.modules.items()):
            if (name == "svcl" or name.startswith("svcl.")) and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts


@pytest.mark.parametrize("scheme,per_advance", [("exp_euler", 1), ("exp_midpoint_flux", 2)])
def test_step_path_calls_the_traced_kernels(monkeypatch, scheme, per_advance):
    # a step path that reaches a kernel some other way than through the
    # wrapped names would drop the benchmark's per-layer counts to zero
    # without failing a run
    counts = _count_kernel_calls(monkeypatch)
    basis = ModeBasis(16)
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), basis)
    c, xi = mode_field(basis, 1).coeffs, np.zeros(16)
    for shape in ((16,), (2, 16)):
        for _ in range(3):  # the first call on a shape builds its workspace
            counts.update(dict.fromkeys(counts, 0))
            stepper.advance(np.broadcast_to(c, shape).copy(), xi)
            assert counts == dict.fromkeys(counts, per_advance), shape


FLUXES = {"burgers": FluxSpec("burgers"), "zero": FluxSpec("zero"),
          "cubic": FluxSpec("polynomial", coefficients=[0.0, 0.5, -0.2, 1.0 / 3.0])}


@pytest.mark.parametrize("flux", sorted(FLUXES))
@pytest.mark.parametrize("scheme", ["exp_euler", "exp_midpoint_flux"])
def test_step_ufuncs_take_array_operands_and_positional_outputs(monkeypatch, scheme, flux):
    # a Python number given to a ufunc is converted to an array on every
    # call, which at m = 16 costs about as much as the arithmetic: every
    # operand of a step's multiply, add and transform is an ndarray (0-d
    # allowed), and every output is passed positionally.  The wrappers sit
    # where the kernels look the ufuncs up: np.multiply and np.add when a
    # kernel is built or called, and spectral._pocketfft, whose rfft a
    # Workspace binds when it is made; Horner's rule for the polynomial
    # flux looks them up on each call
    calls = []

    def watched(fn, name):
        def call(*args, **kwargs):
            calls.append(name)
            bad = [type(a).__name__ for a in args if not isinstance(a, np.ndarray)]
            assert not bad and not kwargs, f"{name}: operands {bad}, keywords {sorted(kwargs)}"
            return fn(*args, **kwargs)
        return call

    for name in ("multiply", "add"):
        monkeypatch.setattr(np, name, watched(getattr(np, name), name))
    fft = spectral._pocketfft
    monkeypatch.setattr(spectral, "_pocketfft", SimpleNamespace(**{
        name: watched(getattr(fft, name), name) for name in ("irfft", "rfft_n_even", "rfft_n_odd")}))
    basis = ModeBasis(16)
    model = ModelSpec(0.1, FLUXES[flux], NoiseSpec(c=0.5, q=3.0))
    stepper = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), basis)
    c = mode_field(basis, 1).coeffs
    for shape in ((16,), (2, 16)):
        block = np.broadcast_to(c, shape).copy()
        calls.clear()
        stepper.advance(block, np.full(shape, 1e-3), np.empty(shape))
        assert {"multiply", "add"} <= set(calls), shape
        assert (flux != "zero") == ({"irfft", "rfft_n_even"} <= set(calls)), shape


@pytest.mark.parametrize("stop", [None, 0.05])
def test_coupled_series_synthesizes_once_per_block(monkeypatch, kept_blocks, stop):
    # a zero flux makes no transform in the step, so every synthesize call
    # is the coupled series': exactly one per block of kept pairs, which
    # also finds the stop, not one per step
    counts = _count_kernel_calls(monkeypatch)
    basis = ModeBasis(16)
    model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(16)))
    cfg = SolverConfig(dt=1e-3)
    res = run_coupled(model, cfg, mode_field(basis, 1, 1.0), mode_field(basis, 1, -1.0),
                      seed=0, n_steps=2000, record_every=2000, stop_l1_below=stop)
    steps = res.state_a.step
    assert (steps < 2000) == (stop is not None)
    rows = observables._RECORD_BLOCK_POINTS // (2 * observables.DEFAULT_FINE_FACTOR * 16)
    assert counts["synthesize"] == len(kept_blocks(steps, rows))


@pytest.mark.parametrize("coupled", [False, True])
def test_one_noise_draw_per_step(monkeypatch, coupled):
    # the tracer wraps NoisePath.ou_increment on the class; a step path that
    # drew its noise some other way would drop noise.ou_increment from the
    # benchmark's per-layer counts without failing a run.  The driver draws
    # a block of steps per call: the rows drawn cover every step once, in
    # order
    drawn = []
    original = NoisePath.ou_increment

    def counted(self, nu, dt, out=None):
        assert dt == cfg.dt
        first = self.draw_index
        out = original(self, nu, dt, out)
        drawn.extend(range(first, self.draw_index))
        return out

    monkeypatch.setattr(NoisePath, "ou_increment", counted)
    basis = ModeBasis(16)
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    cfg = SolverConfig(dt=1e-3)
    u0 = mode_field(basis, 1, 1.0)
    if coupled:
        res = run_coupled(model, cfg, u0, mode_field(basis, 1, -1.0), seed=1, n_steps=300,
                          record_every=7)
        steps = res.state_a.step
    else:
        steps = run_single(model, cfg, u0, seed=1, n_steps=300, record_every=7).state.step
    assert steps == 300 and drawn == list(range(300))


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("every", [1, 100])
def test_record_rows_once_per_kept_block(monkeypatch, kept_blocks, coupled, every):
    # the driver keeps every step, so the record cadence is applied in
    # record_rows alone: one call per block of kept steps, whatever the
    # cadence, and one row per recorded step
    calls = []
    original = observables.Reducer.record_rows

    def counted(self, bufs, radius, rec_every, first, times, states, l1=None):
        calls.append((first, len(times)))
        return original(self, bufs, radius, rec_every, first, times, states, l1)

    monkeypatch.setattr(observables.Reducer, "record_rows", counted)
    basis, n_steps = ModeBasis(16), 1000
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    u0 = mode_field(basis, 1, 1.0)
    if coupled:
        res = run_coupled(model, SolverConfig(dt=1e-3), u0, mode_field(basis, 1, -1.0), seed=1,
                          n_steps=n_steps, record_every=every)
        records = res.records_a
    else:
        records = run_single(model, SolverConfig(dt=1e-3), u0, seed=1, n_steps=n_steps,
                             record_every=every).records
    rows = observables._RECORD_BLOCK_POINTS // ((1 + coupled) * observables.DEFAULT_FINE_FACTOR
                                                * 16)
    assert calls == kept_blocks(n_steps, rows)
    assert len(records) == n_steps // every + 1


@pytest.mark.parametrize("guard", [None, 1e6])
@pytest.mark.parametrize("coupled", [False, True])
def test_blow_up_test_once_per_kept_block(monkeypatch, kept_blocks, coupled, guard):
    # a step only advances: the step loop tests each kept block of steps
    # for blow-up after stepping it, by one dot of the block's new rows
    # with itself, guarded or not, and with a guard by one H1 mass of the
    # block next to the one record_rows takes, not by a check per step; a
    # fresh start's state, reduced alone, is not tested
    dots, masses = [], []
    dot, h1_sq = np.dot, observables.Reducer.h1_sq

    def counted_dot(a, b, *args):
        dots.append(a.size)
        return dot(a, b, *args)

    def counted_h1_sq(self, c):
        masses.append(len(c))
        return h1_sq(self, c)

    monkeypatch.setattr(np, "dot", counted_dot)
    monkeypatch.setattr(observables.Reducer, "h1_sq", counted_h1_sq)
    basis, n_steps = ModeBasis(16), 1000
    model = ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
    cfg = SolverConfig(dt=1e-3, guard_radius=guard)
    u0 = mode_field(basis, 1, 1.0)
    if coupled:
        res = run_coupled(model, cfg, u0, mode_field(basis, 1, -1.0), seed=1, n_steps=n_steps)
        steps = res.state_a.step
    else:
        res = run_single(model, cfg, u0, seed=1, n_steps=n_steps)
        steps = res.state.step
    assert res.trip is None and steps == n_steps
    rows = observables._RECORD_BLOCK_POINTS // ((1 + coupled) * observables.DEFAULT_FINE_FACTOR
                                                * 16)
    _, *steps = kept_blocks(n_steps, rows)  # the first is the start
    assert dots == [k * (1 + coupled) * 16 for _, k in steps]
    assert len(masses) == 1 + len(steps) * (1 + (guard is not None))
