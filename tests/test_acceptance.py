"""Desk-scale acceptance battery: one test per numbered criterion.

Criteria 1-8 are the full size of the checks in `svcl.checks`, whose rows
hold each criterion's parameters, tolerance and wall-clock budget; one
runner runs them, so `pytest -v tests/test_acceptance.py` reads as one
pass/fail line per criterion.  Criterion 9 is the command line's artifact
contract.  Run with -s to see the measured numbers even on success.
Statistical margins were chosen so the checks pass with headroom under the
frozen seeds, not tuned to scrape by.
"""

import math
import time
from dataclasses import replace

import pytest

from svcl import checks
from svcl.checks import CHECKS, Check, Runner, Shared, _balance_run
from svcl.cli import entry, EXIT_OK
from svcl.config import InitialSpec, RunConfig


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def runner():
    """One runner, so criteria 4 and 7 read one 10^6-step Burgers run."""
    return Runner("full")


def _criterion(name):
    """The test of the check `name` at its full size."""
    check = next(c for c in CHECKS if c.name == name)

    def test(runner):
        criterion, budget, _ = check.full
        ok, _, seconds, detail = runner.run(check)
        digits = 2 if budget < 10 else 1 if budget < 100 else 0
        _report(criterion, check.claim, ok,
                f"{detail}, {seconds:.{digits}f} s (budget {budget:g} s)")

    test.check = check
    return test


test_criterion_1_linear_heat_decay_is_exact = _criterion("heat_decay")
test_criterion_2_ou_mode_variance_matches_theory = _criterion("ou_variance")
test_criterion_3_l1_distance_contracts_every_step = _criterion("l1_contraction")
test_criterion_4_stationary_energy_balance_holds = _criterion("stationary_balance")
test_criterion_5_coupled_runs_confluence_and_averages_agree = _criterion("confluence")
test_criterion_6_picard_and_stepper_gap_is_first_order = _criterion("mild_vs_stepper")
test_criterion_7_moment_averages_stable_under_horizon_doubling = _criterion("moment_stability")
test_criterion_8_dissipation_entry_time_beats_drift_bound = _criterion("entry_time")


def test_criterion_9_rerun_and_resume_are_bitwise_identical(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text(RunConfig(nu=0.08, noise_c=0.3, modes=16, horizon=0.3, seed=11,
                             snapshot_every=100, observables=(2, 4),
                             initial=InitialSpec("mode"), out_dir=str(out)).echo())
    assert entry(["run", "--config", str(ini)]) == EXIT_OK
    csv_path = out / "observables.csv"
    first_csv = csv_path.read_bytes()
    first_final = (out / "final.snap").read_bytes()
    first_snaps = {p.name: p.read_bytes() for p in out.glob("snap_*.snap")}

    assert entry(["run", "--config", str(ini)]) == EXIT_OK
    rerun_identical = (csv_path.read_bytes() == first_csv
                       and (out / "final.snap").read_bytes() == first_final)

    # interrupt after step 100: drop the later rows and snapshots
    lines = first_csv.decode().splitlines(keepends=True)
    n_comment = sum(1 for ln in lines if ln.startswith("#"))
    head = n_comment + 1  # comment block plus the header row
    csv_path.write_text("".join(lines[: head + 101]))
    (out / "final.snap").unlink()
    for name in ("snap_000000200.snap", "snap_000000300.snap"):
        (out / name).unlink()

    assert entry(["resume", "--config", str(ini),
                  "--resume", str(out / "snap_000000100.snap")]) == EXIT_OK
    resume_identical = (
        csv_path.read_bytes() == first_csv
        and (out / "final.snap").read_bytes() == first_final
        and all((out / n).read_bytes() == b for n, b in first_snaps.items())
    )
    elapsed = time.perf_counter() - t0
    ok = rerun_identical and resume_identical and elapsed < 60.0
    _report(9, "rerun and snapshot resume reproduce artifacts byte for byte", ok,
            f"rerun identical: {rerun_identical}, resumed identical: {resume_identical}, "
            f"{elapsed:.1f} s (budget 60 s)")


# --- the check registry -------------------------------------------------------


def test_check_names_are_unique_and_validate_runs_the_desk_rows_in_order():
    assert len({c.name for c in CHECKS}) == len(CHECKS)
    assert [c.name for c in CHECKS if c.desk is not None] == [
        "heat_decay", "ou_variance", "l1_contraction", "energy_balance"]


def test_every_full_row_is_a_criterion_test_here():
    """Each row with a full size is the test test_criterion_N_... of this
    module, N its criterion number, and no test runs a row twice."""
    tests = [(name, f.check) for name, f in globals().items() if hasattr(f, "check")]
    full = [c for c in CHECKS if c.full is not None]
    assert sorted(c.name for _, c in tests) == sorted(c.name for c in full)
    assert all(name.startswith(f"test_criterion_{c.full.criterion}_") for name, c in tests)
    assert sorted(c.full.criterion for c in full) == list(range(1, len(full) + 1))


def test_contraction_check_passes_at_distance_zero():
    """A pair that starts (or meets) at L1 distance 0 reads 0, with no 0/0
    (the suite turns a RuntimeWarning into an error)."""
    check = next(c for c in CHECKS if c.name == "l1_contraction")
    same = check._replace(desk={**check.desk, "v0": check.desk["u0"]})
    ok, numbers, _, _ = Runner("desk").run(same)
    assert ok and numbers["worst"] == 0.0


def test_a_shared_run_is_built_once_and_counted_in_each_readers_seconds():
    """Criteria 4 and 7 read one Shared 10^6-step Burgers run, so the
    module's runner builds it once.  Here two cheap rows read one Shared
    run: one build, dropped after the last reader, whose build time both
    readers' seconds include."""
    full = {c.name: c.full.params for c in CHECKS if c.full is not None}
    assert (full["stationary_balance"]["balance_run"] == full["moment_stability"]["balance_run"]
            == Shared(_balance_run))

    def build(seconds):
        time.sleep(seconds)
        return seconds

    run = Shared(build, (0.05,))
    rows = [Check(f"reader_{i}", "", lambda run: (run == 0.05, {}), "", desk=dict(run=run))
            for i in range(2)]
    runner = Runner("desk", rows)
    results = [runner.run(row) for row in rows]
    assert runner.builds == {run: 1} and not runner._runs
    assert all(ok and seconds >= 0.05 for ok, _, seconds, _ in results)


def test_mild_vs_stepper_fails_on_an_unconverged_fixed_point(monkeypatch):
    """A fixed point that did not converge has no gap over the horizon: the
    check fails with nan gaps and does not compare a non-converged iterate."""
    real = checks.picard_solve
    monkeypatch.setattr(checks, "picard_solve",
                        lambda *args: replace(real(*args), converged=False))
    check = next(c for c in CHECKS if c.name == "mild_vs_stepper")
    ok, numbers = check.measure(**check.full.params)
    assert not ok and not numbers["converged"] and not numbers["tripped"]
    assert math.isnan(numbers["gap_coarse"]) and math.isnan(numbers["gap_fine"])
    assert math.isnan(numbers["ratio"])
