"""The benchmark tracer's contract: every name in bench/spans.py's TARGETS
resolves in svcl, so renaming or deleting a traced layer fails here, the
step path still goes through the traced kernels, and its ufunc calls take
array operands only."""

import importlib
from pathlib import Path

import numpy as np
import pytest
from conftest import FLUXES, kept_blocks, load, spy

from svcl import flux, observables, spectral
from svcl.flux import FluxSpec
from svcl.integrator import ModelSpec, SolverConfig, Stepper, run_coupled, run_single
from svcl.noise import NoisePath, NoiseSpec
from svcl.spectral import ModeBasis, mode_field

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
BASIS, MODEL = ModeBasis(16), ModelSpec(0.1, FluxSpec("burgers"), NoiseSpec(c=0.5, q=3.0))
E1, NEG_E1 = mode_field(BASIS, 1, 1.0), mode_field(BASIS, 1, -1.0)


def run(coupled, cfg, n_steps, model=MODEL, **kw):
    """run_coupled from (e1, -e1) or run_single from e1, seed 1: (result,
    steps taken, the first state's records)."""
    if coupled:
        res = run_coupled(model, cfg, E1, NEG_E1, seed=1, n_steps=n_steps, **kw)
        return res, res.state_a.step, res.records_a
    res = run_single(model, cfg, E1, seed=1, n_steps=n_steps, **kw)
    return res, res.state.step, res.records


def block_rows(coupled):
    """The kept block's rows of a state, or of a pair, at m = 16."""
    return observables._RECORD_BLOCK_POINTS // ((1 + coupled) * observables.DEFAULT_FINE_FACTOR
                                                * 16)


def test_every_traced_name_resolves():
    targets = load(SPANS).TARGETS
    assert targets
    for name, modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {modname}.{attr} does not exist"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {modname}.{attr} is not callable"


def _count_kernel_calls(monkeypatch):
    """Spy on each kernel under every svcl module name that holds it, as the
    tracer wraps it, and return the calls they keep."""
    return {name: spy(monkeypatch, mod, name)
            for mod, name in ((spectral, "synthesize"), (spectral, "analyze"),
                              (flux, "flux_value"))}


@pytest.mark.parametrize("scheme,per_advance", [("exp_euler", 1), ("exp_midpoint_flux", 2)])
def test_step_path_calls_the_traced_kernels(monkeypatch, scheme, per_advance):
    # a step path that reaches a kernel some other way than through the
    # wrapped names would drop the benchmark's per-layer counts to zero
    # without failing a run
    calls = _count_kernel_calls(monkeypatch)
    stepper, c = Stepper(MODEL, SolverConfig(dt=1e-3, scheme=scheme), BASIS), E1.coeffs
    for shape in ((16,), (2, 16)):
        for _ in range(3):  # the first call on a shape builds its workspace
            for kernel in calls.values():
                kernel.clear()
            stepper.advance(np.broadcast_to(c, shape).copy(), np.zeros(16))
            assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, per_advance)


@pytest.mark.parametrize("flux_kind", sorted(FLUXES))
@pytest.mark.parametrize("scheme", ["exp_euler", "exp_midpoint_flux"])
def test_step_ufuncs_take_array_operands_and_positional_outputs(monkeypatch, scheme, flux_kind):
    # a Python number given to a ufunc is converted to an array on every
    # call, which at m = 16 costs about as much as the arithmetic: every
    # operand of a step's multiply, add and transform is an ndarray (0-d
    # allowed), and every output is passed positionally.  The spies sit
    # where the kernels look the ufuncs up: np.multiply and np.add when a
    # kernel is built or called, and spectral._pocketfft, whose rfft a
    # Workspace binds when it is made; Horner's rule for the polynomial
    # flux looks them up on each call
    def array_operands(out, _, *args, **kwargs):
        bad = [type(a).__name__ for a in args if not isinstance(a, np.ndarray)]
        assert not bad and not kwargs, f"operands {bad}, keywords {sorted(kwargs)}"
        return out

    names = {"multiply": np, "add": np, "irfft": spectral._pocketfft,
             "rfft_n_even": spectral._pocketfft, "rfft_n_odd": spectral._pocketfft}
    calls = {name: spy(monkeypatch, owner, name, array_operands) for name, owner in names.items()}
    model = ModelSpec(0.1, FLUXES[flux_kind], NoiseSpec(c=0.5, q=3.0))
    stepper, c = Stepper(model, SolverConfig(dt=1e-3, scheme=scheme), BASIS), E1.coeffs
    for shape in ((16,), (2, 16)):
        block = np.broadcast_to(c, shape).copy()
        for kernel in calls.values():
            kernel.clear()
        stepper.advance(block, np.full(shape, 1e-3), np.empty(shape))
        called = {name for name, kernel in calls.items() if kernel}
        assert {"multiply", "add"} <= called, shape
        assert (flux_kind != "zero") == ({"irfft", "rfft_n_even"} <= called), shape


@pytest.mark.parametrize("stop", [None, 0.05])
def test_coupled_series_synthesizes_once_per_block(monkeypatch, stop):
    # a zero flux makes no transform in the step, so every synthesize call
    # is the coupled series': exactly one per block of kept pairs, which
    # also finds the stop, not one per step
    calls = _count_kernel_calls(monkeypatch)
    model = ModelSpec(0.1, FluxSpec("zero"), NoiseSpec(sigma=np.zeros(16)))
    _, steps, _ = run(True, SolverConfig(dt=1e-3), 2000, model, record_every=2000,
                      stop_l1_below=stop)
    assert (steps < 2000) == (stop is not None)
    assert len(calls["synthesize"]) == len(kept_blocks(steps, block_rows(True)))


@pytest.mark.parametrize("coupled", [False, True])
def test_one_noise_draw_per_step(monkeypatch, coupled):
    # the tracer wraps NoisePath.ou_increment on the class; a step path that
    # drew its noise some other way would drop noise.ou_increment from the
    # benchmark's per-layer counts without failing a run.  The driver draws
    # a block of steps per call: the rows drawn cover every step once, in
    # order
    drawn = []

    def rows_drawn(block, _, path, nu, dt, out=None):
        assert dt == cfg.dt
        drawn.extend(range(path.draw_index - block.size // 16, path.draw_index))
        return block

    spy(monkeypatch, NoisePath, "ou_increment", rows_drawn)
    cfg = SolverConfig(dt=1e-3)
    _, steps, _ = run(coupled, cfg, 300, record_every=7)
    assert steps == 300 and drawn == list(range(300))


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("every", [1, 100])
def test_record_rows_once_per_kept_block(monkeypatch, coupled, every):
    # the driver keeps every step, so the record cadence is applied in
    # record_rows alone: one call per block of kept steps, whatever the
    # cadence, and one row per recorded step
    calls = spy(monkeypatch, observables.Reducer, "record_rows")
    _, _, records = run(coupled, SolverConfig(dt=1e-3), 1000, record_every=every)
    assert [(c[4], len(c[5])) for c in calls] == kept_blocks(1000, block_rows(coupled))
    assert len(records) == 1000 // every + 1


@pytest.mark.parametrize("guard", [None, 1e6])
@pytest.mark.parametrize("coupled", [False, True])
def test_blow_up_test_once_per_kept_block(monkeypatch, coupled, guard):
    # a step only advances: the step loop tests each kept block of steps
    # for blow-up after stepping it, by one dot of the block's new rows
    # with itself, guarded or not, and with a guard by one H1 mass of the
    # block next to the one record_rows takes, not by a check per step; a
    # fresh start's state, reduced alone, is not tested
    dots = spy(monkeypatch, np, "dot")
    masses = spy(monkeypatch, observables.Reducer, "h1_sq")
    res, steps, _ = run(coupled, SolverConfig(dt=1e-3, guard_radius=guard), 1000)
    assert res.trip is None and steps == 1000
    _, *steps = kept_blocks(1000, block_rows(coupled))  # the first is the start
    assert [a.size for a, *_ in dots] == [k * (1 + coupled) * 16 for _, k in steps]
    assert len(masses) == 1 + len(steps) * (1 + (guard is not None))
