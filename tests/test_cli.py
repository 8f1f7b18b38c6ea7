"""End-to-end command line behavior: artifacts, determinism, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcl import checks, cli
from svcl.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    entry,
)
from svcl.config import parse_config, parse_config_text
from svcl.ergodic import confluence_experiment
from svcl.integrator import read_snapshot
from svcl.observables import FLOAT_FMT, read_csv_columns

BASE = """
[model]
nu = 0.08
flux = burgers

[noise]
c = 0.3
q = 3

[solver]
modes = 8
dt = 0.001

[experiment]
kind = single
horizon = 0.12
seed = 5
snapshot_every = 30
observables = 2

[initial]
kind = mode
mode = 1
amplitude = 1.0
"""


@pytest.fixture()
def ini(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(BASE + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    return p


def _lines(path):
    return path.read_bytes().split(b"\n")


class TestRun:
    def test_artifacts_and_exit_zero(self, ini, tmp_path, capsys):
        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        out = tmp_path / "out"
        csv = out / "observables.csv"
        assert csv.exists() and (out / "final.snap").exists()
        assert (out / "snap_000000030.snap").exists()
        assert (out / "snap_000000120.snap").exists()
        lines = _lines(csv)
        assert lines[0].startswith(b"# config: [model]")
        n_comment = sum(1 for ln in lines if ln.startswith(b"#"))
        assert lines[n_comment].startswith(b"t,l2_sq,h1_sq,h2_sq,lp2_p")
        assert len([ln for ln in lines[n_comment + 1:] if ln]) == 121
        summary = json.loads((out / "summary.json").read_text())
        cfg = parse_config(ini)
        assert summary["run_id"] == cfg.run_id()
        assert summary["results"]["steps"] == 120
        assert summary["results"]["trip"] is None
        assert "timestamp_utc" in summary["metadata"]
        assert "run " in capsys.readouterr().out

    def test_summary_config_echo_round_trips(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        from svcl.config import parse_config_text
        assert parse_config_text(summary["config"]) == parse_config(ini)

    def test_floats_use_17_significant_digits(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        raw = (tmp_path / "out" / "summary.json").read_text()
        final_time = json.loads(raw)["results"]["final_time"]
        assert f'"final_time": {FLOAT_FMT % final_time}' in raw

    def test_same_config_and_seed_is_bitwise_identical(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        first = (tmp_path / "out" / "observables.csv").read_bytes()
        snap = (tmp_path / "out" / "final.snap").read_bytes()
        entry(["run", "--config", str(ini)])
        assert (tmp_path / "out" / "observables.csv").read_bytes() == first
        assert (tmp_path / "out" / "final.snap").read_bytes() == snap

    def test_seed_changes_the_rows(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        first = (tmp_path / "out" / "observables.csv").read_bytes()
        entry(["run", "--config", str(ini), "--seed", "6"])
        assert (tmp_path / "out" / "observables.csv").read_bytes() != first

    def test_flag_overrides_shorten_run(self, ini, tmp_path):
        entry(["run", "--config", str(ini), "--horizon", "0.05"])
        cols = read_csv_columns(tmp_path / "out" / "observables.csv")
        assert len(cols["t"]) == 51

    def test_final_snapshot_matches_config(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        with open(tmp_path / "out" / "final.snap", "rb") as fp:
            snap = read_snapshot(fp)
        assert snap.m_max == 8 and snap.seed == 5 and snap.step == 120
        assert snap.nu == 0.08 and snap.scheme == "exp_euler"
        assert np.all(np.isfinite(snap.coeffs))

    def test_final_squares_past_the_float_range_stay_silent(self, tmp_path, capsys):
        # a finite final state whose squares overflow: the summary's norms
        # are inf, written as null, with no RuntimeWarning on the way (the
        # suite turns one into an error)
        p = tmp_path / "big.ini"
        p.write_text(f"""
[model]
nu = 0.1
flux = zero

[noise]
c = 0.5
q = 3

[solver]
modes = 8
dt = 0.01

[experiment]
kind = single
horizon = 0.3
seed = 1

[initial]
kind = mode
mode = 1
amplitude = 1e200

[output]
dir = {tmp_path / 'out'}
""")
        assert entry(["run", "--config", str(p)]) == EXIT_OK
        results = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]
        assert results["steps"] == 30 and results["trip"] is None
        assert results["final_l2_sq"] is None and results["final_h1_sq"] is None
        assert "Warning" not in capsys.readouterr().err

    def test_nested_out_dir_is_created(self, ini, tmp_path):
        deep = tmp_path / "a" / "b" / "c"
        assert entry(["run", "--config", str(ini), "--out", str(deep)]) == EXIT_OK
        assert (deep / "summary.json").exists()


class TestExitCodes:
    def test_config_violations_exit_2_and_list_everything(self, ini, capsys):
        code = entry(["run", "--config", str(ini), "--nu", "-1", "--dt", "0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nu > 0" in err and "dt > 0" in err

    def test_divergent_noise_profile_exits_2(self, ini, capsys):
        code = entry(["run", "--config", str(ini), "--noise-profile", "1,2.0"])
        assert code == EXIT_CONFIG
        assert "must exceed 2.5" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nbogus = 1\n")
        assert entry(["run", "--config", str(p)]) == EXIT_CONFIG
        assert "unknown key: model.bogus" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = entry(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_CONFIG

    def test_guard_trip_exits_3_with_trip_in_summary(self, tmp_path, capsys):
        p = tmp_path / "hot.ini"
        # amplitude 3 on mode 1 puts h1_sq = 9 * 4 pi^2 above the guard
        text = (BASE.replace("amplitude = 1.0", "amplitude = 3.0")
                .replace("dt = 0.001", "dt = 0.001\nguard = 200"))
        p.write_text(text + f"\n[output]\ndir = {tmp_path / 'g'}\n")
        assert entry(["run", "--config", str(p)]) == EXIT_BLOWUP
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        trip = summary["results"]["trip"]
        assert trip["reason"] == "guard" and trip["t"] == pytest.approx(0.001)
        assert trip["h1_sq"] > 200
        cols = read_csv_columns(tmp_path / "g" / "observables.csv")
        assert len(cols["t"]) == 1  # partial rows survive the trip

    def test_huge_horizon_trip_exits_3(self, tmp_path, capsys):
        # 10^16 steps is a valid step count; nothing is sized by it, so the
        # run starts and the guard stops it at step 1
        p = tmp_path / "hot.ini"
        text = (BASE.replace("amplitude = 1.0", "amplitude = 3.0")
                .replace("dt = 0.001", "dt = 0.001\nguard = 200"))
        p.write_text(text + f"\n[output]\ndir = {tmp_path / 'g'}\n")
        assert entry(["run", "--config", str(p), "--horizon", "1e13"]) == EXIT_BLOWUP
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        assert summary["results"]["trip"]["reason"] == "guard"
        assert summary["results"]["steps"] == 0

    @pytest.mark.parametrize("flags,violation", [
        (["--modes", "3"], "solver.modes: need an even number"),
        (["--horizon", "1e300", "--dt", "1e-320"],
         "experiment.horizon: horizon / dt is not a finite step count"),
        (["--horizon", "1e300"], "horizon / dt = 1e+303 steps is not below 2^64"),
        (["--nu", "inf"], "model.nu: must be finite (got inf)"),
    ])
    def test_unrunnable_grid_exits_2_and_lists_it(self, ini, capsys, flags, violation):
        assert entry(["run", "--config", str(ini), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and violation in err

    @pytest.mark.parametrize("coeffs,violation", [
        ("0,0,nan", "must be finite (got 0,0,nan)"),
        ("0,0,abc", "expected a number list, got '0,0,abc'"),
    ])
    def test_unreadable_flux_coefficients_are_listed_once(self, ini, capsys, coeffs, violation):
        # coefficients that were given but fail to read are not also missing
        assert entry(["run", "--config", str(ini), "--flux", f"polynomial:{coeffs}"]) == EXIT_CONFIG
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "flux_coefficients" in ln]
        assert len(lines) == 1 and violation in lines[0]

    def test_flux_flag_over_a_polynomial_file_drops_its_coefficients(self, tmp_path):
        # the file's flux_coefficients belong to its flux; --flux burgers
        # replaces both, so the run goes ahead under Burgers
        ini = tmp_path / "poly.ini"
        ini.write_text(BASE.replace("flux = burgers", "flux = polynomial\n"
                                    "flux_coefficients = 0, 0, 0.5")
                       + f"\n[output]\ndir = {tmp_path / 'out'}\n")
        assert entry(["run", "--config", str(ini), "--flux", "burgers"]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "flux = burgers" in summary["config"]
        assert "flux_coefficients" not in summary["config"]

    def test_unknown_flux_kind_exits_2_naming_the_kinds(self, ini, capsys):
        assert entry(["run", "--config", str(ini), "--flux", "callback"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("model.flux: unknown kind 'callback', "
                "choose from ('burgers', 'polynomial', 'zero')") in err

    def test_huge_flux_coefficients_trip_without_warning(self, ini):
        # 1e308 v^2 overflows on the first steps: the run trips and exits 3,
        # and no RuntimeWarning reaches stderr on the way, from config to
        # trip; a fresh interpreter prints warnings under Python's defaults
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "svcl.cli", "run", "--config", str(ini),
             "--flux", "polynomial:0,0,1e308", "--horizon", "0.01"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_BLOWUP
        assert "blowup trip (flux_overflow)" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr, proc.stderr

    def test_resume_flag_is_refused_outside_resume(self, ini, tmp_path, capsys):
        # only `resume` reads --resume: elsewhere argparse refuses it before
        # anything runs, so the artifacts on disk stay as they are
        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for command in ("run", "couple", "ergodic", "validate"):
            with pytest.raises(SystemExit) as exc:
                entry([command, "--config", str(ini), "--resume", str(out / "final.snap")])
            assert exc.value.code == 2
            assert "--resume" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_experiment_flag_is_refused_where_the_subcommand_fixes_the_kind(
            self, ini, tmp_path, capsys):
        # couple, ergodic and validate each fix the experiment kind: argparse
        # refuses --experiment there instead of running the fixed kind anyway
        for command in ("couple", "ergodic", "validate"):
            with pytest.raises(SystemExit) as exc:
                entry([command, "--config", str(ini), "--experiment", "single"])
            assert exc.value.code == 2
            assert "--experiment" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_snapshot_exits_4(self, ini, tmp_path, capsys):
        code = entry(["resume", "--config", str(ini),
                      "--resume", str(tmp_path / "nope.snap")])
        assert code == EXIT_IO


class TestEntry:
    def test_parser_is_built_once_and_keeps_no_argv(self, ini, tmp_path):
        # the cached parser serves every call; a call's flags must not
        # leak into the next one, which omits them
        assert entry(["run", "--config", str(ini), "--seed", "6"]) == EXIT_OK
        seeded = (tmp_path / "out" / "observables.csv").read_bytes()
        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert parse_config_text(summary["config"]).seed == 5
        assert (tmp_path / "out" / "observables.csv").read_bytes() != seeded
        assert cli._build_parser() is cli._build_parser()

    def test_parse_error_does_not_affect_the_next_call(self, ini, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["run", "--config", str(ini), "--bogus", "1"])
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            entry(["run", "--seed"])
        assert entry(["run", "--config", str(ini), "--horizon", "0.05"]) == EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "observables.csv")
        assert len(cols["t"]) == 51


class TestCouple:
    def make_config(self, tmp_path, epsilons="0.5,0.2", horizon="2"):
        p = tmp_path / "couple.ini"
        p.write_text(f"""
[model]
nu = 0.05
flux = burgers
[noise]
c = 0
q = 3
[solver]
modes = 8
dt = 0.001
[experiment]
kind = coupled
horizon = {horizon}
seed = 2
epsilons = {epsilons}
[initial]
kind = mode
mode = 1
amplitude = 1.0
[initial_b]
kind = mode
mode = 1
amplitude = -1.0
[output]
dir = {tmp_path / 'cp'}
""")
        return p

    def test_coupled_artifacts_and_passage_table(self, tmp_path):
        assert entry(["couple", "--config", self.make_config(tmp_path).as_posix()]) == EXIT_OK
        out = tmp_path / "cp"
        a = read_csv_columns(out / "observables_a.csv")
        b = read_csv_columns(out / "observables_b.csv")
        assert np.all(np.isfinite(a["l1_dist"]))
        assert np.array_equal(a["l1_dist"], b["l1_dist"])
        assert (out / "final_a.snap").exists() and (out / "final_b.snap").exists()
        res = json.loads((out / "summary.json").read_text())["results"]
        p5 = res["first_passage"][FLOAT_FMT % 0.5]
        p2 = res["first_passage"][FLOAT_FMT % 0.2]
        assert 0 < p5 < p2 < 2.0
        assert res["monotone"] and res["reached_target"]
        assert res["final_l1"] < 0.2

    def test_huge_horizon_trip_exits_3(self, tmp_path):
        # 10^16 pair-steps is a valid step count; the series grow as the
        # run goes, so it starts and the guard stops it at step 1
        cfgp = self.make_config(tmp_path, horizon="1e13")
        cfgp.write_text(cfgp.read_text().replace("dt = 0.001", "dt = 0.001\nguard = 1.0"))
        assert entry(["couple", "--config", str(cfgp)]) == EXIT_BLOWUP
        res = json.loads((tmp_path / "cp" / "summary.json").read_text())["results"]
        assert res["trip"]["reason"] == "guard" and res["steps"] == 0

    def test_unreached_epsilon_serializes_as_null(self, tmp_path):
        cfgp = self.make_config(tmp_path, epsilons="1e-9", horizon="0.05")
        assert entry(["couple", "--config", str(cfgp)]) == EXIT_OK
        res = json.loads((tmp_path / "cp" / "summary.json").read_text())["results"]
        assert res["first_passage"][FLOAT_FMT % 1e-9] is None
        assert not res["reached_target"]

    def test_passage_table_matches_confluence_experiment(self, tmp_path):
        cfgp = self.make_config(tmp_path, epsilons="0.5,0.2,1e-9", horizon="1")
        cfgp.write_text(cfgp.read_text().replace("c = 0\n", "c = 0.2\n"))
        assert entry(["couple", "--config", str(cfgp)]) == EXIT_OK
        res = json.loads((tmp_path / "cp" / "summary.json").read_text())["results"]
        cfg = parse_config(cfgp)
        basis = cfg.basis()
        rep = confluence_experiment(cfg.initial.build(basis), cfg.initial_b.build(basis),
                                    cfg.model(), cfg.solver(), cfg.seed, cfg.epsilons,
                                    cfg.horizon)
        assert res["first_passage"] == {
            FLOAT_FMT % e: (None if np.isnan(v) else v)
            for e, v in rep.first_passage.items()}
        assert res["first_passage"][FLOAT_FMT % 0.2] is not None
        assert res["monotone"] == rep.monotone
        assert res["reached_target"] == rep.reached_target
        assert res["initial_l1"] == rep.l1_series[0]
        assert res["final_l1"] == rep.l1_series[-1]


class TestErgodic:
    def make_config(self, tmp_path, horizon="12"):
        p = tmp_path / "ergodic.ini"
        p.write_text(f"""
[model]
nu = 0.2
flux = zero
[noise]
c = 0.5
q = 3
[solver]
modes = 8
dt = 0.002
[experiment]
kind = ergodic
horizon = {horizon}
seed = 1
observables = 2
epsilons = 100
[output]
dir = {tmp_path / 'erg'}
""")
        return p

    def test_estimates_tightness_and_assumption_note(self, tmp_path):
        assert entry(["ergodic", "--config", str(self.make_config(tmp_path))]) == EXIT_OK
        doc = json.loads((tmp_path / "erg" / "summary.json").read_text())
        res = doc["results"]
        for name in ("l2_sq", "h1_sq", "lp2_p"):
            est = res["estimates"][name]
            assert np.isfinite(est["value"]) and est["stderr"] >= 0
            assert est["batches"] == 16
        bal = res["stationary_balance"]
        assert bal["relative_gap"] < 0.2
        row = res["tightness"][0]
        assert row["fraction"] <= row["bound"] or row["bound"] > 1
        assert row["satisfied"]
        assert any("invariant measure" in a for a in doc["metadata"]["assumptions"])

    def test_horizon_shorter_than_burn_in_exits_2(self, tmp_path, capsys):
        cfgp = self.make_config(tmp_path, horizon="0.2")
        assert entry(["ergodic", "--config", str(cfgp)]) == EXIT_CONFIG
        assert "ergodic analysis impossible" in capsys.readouterr().err


class TestTiming:
    """run, resume, couple and ergodic time their driver call into
    metadata.timing, outside the reproducible results body."""

    @staticmethod
    def check(out):
        doc = json.loads((out / "summary.json").read_text())
        timing = doc["metadata"]["timing"]
        assert list(timing) == ["wall_s", "steps", "steps_per_s"]
        assert timing["wall_s"] > 0
        assert timing["steps_per_s"] == timing["steps"] / timing["wall_s"]
        assert "timing" not in doc["results"]
        return timing["steps"], doc["results"]

    def test_run_and_resume(self, ini, tmp_path):
        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        assert self.check(tmp_path / "out")[0] == 120
        snap = tmp_path / "out" / "snap_000000090.snap"
        assert entry(["resume", "--config", str(ini), "--resume", str(snap)]) == EXIT_OK
        assert self.check(tmp_path / "out")[0] == 30  # the steps this call made

    def test_couple(self, tmp_path):
        cfgp = TestCouple().make_config(tmp_path, horizon="0.05")
        assert entry(["couple", "--config", str(cfgp)]) == EXIT_OK
        steps, results = self.check(tmp_path / "cp")
        assert steps == results["steps"] == 50

    def test_ergodic(self, tmp_path):
        assert entry(["ergodic", "--config", str(TestErgodic().make_config(tmp_path))]) == EXIT_OK
        steps, results = self.check(tmp_path / "erg")
        assert steps == results["steps"] > 0


class TestValidate:
    def test_all_checks_pass(self, tmp_path, capsys, monkeypatch):
        measured, run = {}, checks.Runner.run
        monkeypatch.setattr(checks.Runner, "run", lambda runner, check: measured.setdefault(
            check.name, run(runner, check)))
        code = entry(["validate", "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        names = ("heat_decay", "ou_variance", "l1_contraction", "energy_balance")
        doc = json.loads((tmp_path / "v" / "summary.json").read_text())
        seconds = doc["metadata"]["check_seconds"]
        assert list(seconds) == list(names)
        assert all(isinstance(s, float) and s >= 0 for s in seconds.values())
        # each check's PASS line ends with its wall time, the summary's
        lines = re.findall(r"^PASS (\w+): .* \[(\d+\.\d\d) s\]$", out, re.M)
        assert lines == [(name, f"{seconds[name]:.2f}") for name in names]
        assert "FAIL" not in out
        assert list(doc["results"]) == ["kind", "checks", "failures"]
        assert doc["results"]["failures"] == 0
        assert [c["name"] for c in doc["results"]["checks"]] == list(names)
        assert all(set(c) == {"name", "passed", "detail", "numbers"}
                   for c in doc["results"]["checks"])
        # each finite measured value round-trips through the summary's 17
        # digits, and a non-finite one is null
        for row in doc["results"]["checks"]:
            _, numbers, _, _ = measured[row["name"]]
            assert list(row["numbers"]) == list(numbers)
            for k, v in numbers.items():
                assert row["numbers"][k] == (float(v) if np.isfinite(v) else None)
        # an integral float reads back as a float, not an int
        trace = doc["results"]["checks"][3]["numbers"]["trace"]
        assert type(trace) is float and trace == 1.0


class TestResume:
    def interrupt(self, tmp_path, keep_rows, snap_step):
        """Cut the artifacts back to the state right after snap_step."""
        out = tmp_path / "out"
        csv = out / "observables.csv"
        lines = csv.read_bytes().split(b"\n")
        head = sum(1 for ln in lines if ln.startswith(b"#")) + 1  # echo + header
        csv.write_bytes(b"\n".join(lines[: head + keep_rows]) + b"\n")
        (out / "final.snap").unlink()
        for p in out.glob("snap_*.snap"):
            if int(p.stem.split("_")[1]) > snap_step:
                p.unlink()
        return out / f"snap_{snap_step:09d}.snap"

    def test_resume_is_bitwise_identical(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        full_csv = (out / "observables.csv").read_bytes()
        full_snap = (out / "final.snap").read_bytes()
        snap = self.interrupt(tmp_path, keep_rows=61, snap_step=60)
        code = entry(["resume", "--config", str(ini), "--resume", str(snap)])
        assert code == EXIT_OK
        assert (out / "observables.csv").read_bytes() == full_csv
        assert (out / "final.snap").read_bytes() == full_snap
        assert (out / "snap_000000090.snap").exists()

    def test_summary_norms_are_those_of_the_final_snapshot(self, ini, tmp_path):
        # after a run and after a resume, the summary's final_l2_sq and
        # final_h1_sq are the norms of final.snap's coefficients, bit for bit
        out, lam = tmp_path / "out", parse_config(ini).basis().eigenvalues

        def check():
            results = json.loads((out / "summary.json").read_text())["results"]
            with open(out / "final.snap", "rb") as fp:
                c = read_snapshot(fp).coeffs
            assert results["final_l2_sq"] == float(np.dot(c, c))
            assert results["final_h1_sq"] == float(np.dot(-lam, c * c))

        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        check()
        snap = self.interrupt(tmp_path, keep_rows=61, snap_step=60)
        assert entry(["resume", "--config", str(ini), "--resume", str(snap)]) == EXIT_OK
        check()

    def test_failed_rewrite_keeps_the_old_artifacts(self, ini, tmp_path, monkeypatch):
        # the resumed run dies while moving its new CSV into place: the CSV
        # and snapshots a next resume needs must be the ones on disk before
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        snap = self.interrupt(tmp_path, keep_rows=61, snap_step=60)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "observables.csv":
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        code = entry(["resume", "--config", str(ini), "--resume", str(snap)])
        assert code == EXIT_IO
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert not [name for name in after if name.endswith(".part")]
        for name, data in before.items():
            assert after[name] == data, name

    def test_resume_discards_rows_past_the_snapshot(self, ini, tmp_path):
        # crash after the snapshot: stale rows beyond it must be replaced
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        full_csv = (out / "observables.csv").read_bytes()
        snap = self.interrupt(tmp_path, keep_rows=97, snap_step=90)
        assert entry(["resume", "--config", str(ini), "--resume", str(snap)]) == EXIT_OK
        assert (out / "observables.csv").read_bytes() == full_csv

    def test_resume_extends_a_finished_run(self, ini, tmp_path):
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        code = entry(["resume", "--config", str(ini), "--horizon", "0.18",
                      "--resume", str(out / "final.snap")])
        assert code == EXIT_OK
        cols = read_csv_columns(out / "observables.csv")
        assert len(cols["t"]) == 181
        assert cols["t"][-1] == pytest.approx(0.18)
        # the echo names the config that produced every row, the new horizon
        lines = (out / "observables.csv").read_text().splitlines()
        echo = [ln[2:] for ln in lines if ln.startswith("#")]
        echo[0] = echo[0].removeprefix("config: ")
        assert parse_config_text("\n".join(echo)).horizon == 0.18

    def test_resume_history_is_the_tail_of_a_full_read(self, ini, tmp_path, monkeypatch):
        # window 64 over 91 kept rows: only rows 27..90 are parsed, and they
        # must be the bits a read of the whole file gives
        entry(["run", "--config", str(ini)])
        snap = self.interrupt(tmp_path, keep_rows=97, snap_step=90)
        full = read_csv_columns(tmp_path / "out" / "observables.csv")
        seen = []
        real = cli._cmd_single

        def spy(cfg, snap=None, rows=(), history=None):
            seen.append(history)
            return real(cfg, snap, rows, history)

        monkeypatch.setattr(cli, "_cmd_single", spy)
        assert entry(["resume", "--config", str(ini), "--resume", str(snap)]) == EXIT_OK
        (history,) = seen
        for got, name in zip(history, ("t", "l2_sq", "h1_sq")):
            assert got.tobytes() == full[name][27:91].tobytes(), name

    def _corrupt_resume(self, ini, tmp_path, capsys, edit):
        """Cut the run at step 90, apply edit to the CSV's lines and resume:
        the resume must exit 4 with one line on stderr and leave every
        artifact as it was."""
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        snap = self.interrupt(tmp_path, keep_rows=91, snap_step=90)
        csv = out / "observables.csv"
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(edit(lines)))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code = entry(["resume", "--config", str(ini), "--resume", str(snap)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("cannot resume: ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        return err

    @staticmethod
    def _cut_row(lines, i):
        head = sum(1 for ln in lines if ln.startswith("#")) + 1
        lines[head + i] = lines[head + i][:25] + "\n"
        return lines

    def test_corrupt_row_in_the_residual_tail_exits_4(self, ini, tmp_path, capsys):
        # row 80 of 91 kept rows is parsed for the residual window
        err = self._corrupt_resume(ini, tmp_path, capsys, lambda ls: self._cut_row(ls, 80))
        assert "fields" in err

    def test_corrupt_row_before_the_residual_tail_exits_4(self, ini, tmp_path, capsys):
        # row 5 is not parsed, but would be copied into the new file
        err = self._corrupt_resume(ini, tmp_path, capsys, lambda ls: self._cut_row(ls, 5))
        assert "fields" in err

    def test_non_numeric_field_in_the_residual_tail_exits_4(self, ini, tmp_path, capsys):
        def edit(lines):
            lines[-1] = "x" + lines[-1][1:]
            return lines

        err = self._corrupt_resume(ini, tmp_path, capsys, edit)
        assert "could not convert" in err

    def test_last_kept_row_without_newline_exits_4(self, ini, tmp_path, capsys):
        def edit(lines):
            lines[-1] = lines[-1].rstrip("\n")
            return lines

        err = self._corrupt_resume(ini, tmp_path, capsys, edit)
        assert "whole row" in err

    def test_corrupt_header_exits_4(self, ini, tmp_path, capsys):
        def edit(lines):
            head = sum(1 for ln in lines if ln.startswith("#"))
            lines[head] = lines[head].replace("l2_sq", "l3_sq")
            return lines

        err = self._corrupt_resume(ini, tmp_path, capsys, edit)
        assert "header" in err

    def test_mismatched_seed_exits_2(self, ini, tmp_path, capsys):
        entry(["run", "--config", str(ini)])
        snap = tmp_path / "out" / "final.snap"
        code = entry(["resume", "--config", str(ini), "--seed", "9",
                      "--resume", str(snap)])
        assert code == EXIT_CONFIG
        assert "mismatch on seed" in capsys.readouterr().err

    def test_mismatched_dt_exits_2(self, ini, tmp_path, capsys):
        entry(["run", "--config", str(ini)])
        snap = tmp_path / "out" / "final.snap"
        code = entry(["resume", "--config", str(ini), "--dt", "0.0005",
                      "--horizon", "0.18", "--resume", str(snap)])
        assert code == EXIT_CONFIG
        assert "mismatch on dt" in capsys.readouterr().err

    def test_resume_requires_single_kind(self, ini, tmp_path, capsys):
        entry(["run", "--config", str(ini)])
        snap = tmp_path / "out" / "final.snap"
        code = entry(["resume", "--config", str(ini), "--experiment", "coupled",
                      "--resume", str(snap)])
        assert code == EXIT_CONFIG
        assert "single-run" in capsys.readouterr().err

    def test_truncated_snapshot_exits_4(self, ini, tmp_path, capsys):
        entry(["run", "--config", str(ini)])
        raw = (tmp_path / "out" / "final.snap").read_bytes()
        assert len(raw) == 48 + 8 * 8  # header + m_max float64 coefficients
        cut = tmp_path / "cut.snap"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            code = entry(["resume", "--config", str(ini), "--resume", str(cut)])
            assert code == EXIT_IO, f"snapshot cut at byte {n}"
        assert "truncated" in capsys.readouterr().err

    def test_snapshot_with_bytes_past_its_coefficients_exits_4(self, ini, tmp_path, capsys):
        # a valid m=8 snapshot with bytes appended is not read as its first
        # 8 coefficients: resume reports it unusable and touches no artifact
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        raw = (out / "final.snap").read_bytes()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        long = tmp_path / "long.snap"
        for extra in (b"\x00", bytes(24)):
            long.write_bytes(raw + extra)
            assert entry(["resume", "--config", str(ini), "--resume", str(long)]) == EXIT_IO
            assert "unusable snapshot" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_snapshot_of_a_mode_count_no_basis_holds_exits_4(self, ini, tmp_path, capsys):
        # a valid m=8 snapshot whose header m_max (bytes 8..12) is patched
        # to 7, and then to 0, and cut to that many coefficients: unusable,
        # not a config mismatch on modes, and no artifact moves
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        raw = (out / "final.snap").read_bytes()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = tmp_path / "bad.snap"
        for m_max in (7, 0):
            bad.write_bytes(raw[:8] + m_max.to_bytes(4, "little") + raw[12 : 48 + 8 * m_max])
            assert entry(["resume", "--config", str(ini), "--resume", str(bad)]) == EXIT_IO
            assert "unusable snapshot" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_snapshot_claiming_more_modes_than_it_holds_exits_4(self, ini, tmp_path, capsys):
        # the header's m_max (bytes 8..12) says 2^32 - 1 coefficients, 32 GiB,
        # while the file holds 8: a truncated snapshot, not a MemoryError
        entry(["run", "--config", str(ini)])
        raw = bytearray((tmp_path / "out" / "final.snap").read_bytes())
        raw[8:12] = (2**32 - 1).to_bytes(4, "little")
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(raw))
        assert entry(["resume", "--config", str(ini), "--resume", str(bad)]) == EXIT_IO
        assert "truncated" in capsys.readouterr().err

    # generated runs: any truncation, flux, scheme, seed, length, cadence and
    # residual window
    RUNS = dict(modes=st.sampled_from([2, 4, 8, 16]),
                flux=st.sampled_from(["burgers", "zero",
                                      "polynomial\nflux_coefficients = 0,1,0,-0.25"]),
                scheme=st.sampled_from(["exp_euler", "exp_midpoint_flux"]),
                seed=st.integers(0, 2**64 - 1), steps=st.integers(2, 40),
                record_every=st.integers(1, 3), snapshot_every=st.integers(1, 12),
                residual_window=st.integers(2, 64))

    @staticmethod
    def _generated_run(tmp, modes, flux, scheme, seed, steps, record_every, snapshot_every,
                       residual_window):
        """Write the config of a generated run into tmp, run it and return
        (output directory, config path)."""
        out, ini = Path(tmp) / "out", Path(tmp) / "run.ini"
        ini.write_text(f"[model]\nflux = {flux}\n[solver]\nmodes = {modes}\n"
                       f"scheme = {scheme}\ndt = 0.001\n[experiment]\n"
                       f"horizon = {steps * 0.001!r}\nseed = {seed}\n"
                       f"record_every = {record_every}\nsnapshot_every = {snapshot_every}\n"
                       f"residual_window = {residual_window}\n"
                       f"[initial]\nkind = random\n[output]\ndir = {out}\n")
        assert entry(["run", "--config", str(ini)]) == EXIT_OK
        return out, ini

    @staticmethod
    def _artifacts(out):
        """Every file in out by name, summary.json with its metadata block
        (the timestamp and the driver's timing, which vary between runs)
        masked."""
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        if "summary.json" in files:
            files["summary.json"] = re.sub(rb'"metadata": \{.*?\n  \}', b'"metadata": {}',
                                           files["summary.json"], flags=re.S)
        return files

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), **RUNS)
    def test_snapshot_cut_at_any_byte_exits_4_and_keeps_the_artifacts(self, data, **run):
        # every proper prefix of any snapshot a run writes is refused with
        # exit 4 before the resume touches an artifact
        with tempfile.TemporaryDirectory() as tmp:
            out, ini = self._generated_run(tmp, **run)
            snap = data.draw(st.sampled_from(sorted(p.name for p in out.glob("*.snap"))))
            raw = (out / snap).read_bytes()
            cut = Path(tmp) / "cut.snap"
            cut.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert entry(["resume", "--config", str(ini), "--resume", str(cut)]) == EXIT_IO
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), **RUNS)
    def test_resume_from_any_snapshot_equals_the_uninterrupted_run(self, data, **run):
        # cut the artifacts back to any snapshot the run wrote, final.snap
        # included, with the CSV holding the rows through its step and
        # maybe stale rows past it: the resume rewrites every artifact byte
        # for byte, and the summary's results differ only by the step
        # resumed from
        with tempfile.TemporaryDirectory() as tmp:
            out, ini = self._generated_run(tmp, **run)
            full = self._artifacts(out)
            results = json.loads(full.pop("summary.json"))["results"]
            snap = data.draw(st.sampled_from(sorted(p.name for p in out.glob("*.snap"))))
            with open(out / snap, "rb") as fp:
                step = read_snapshot(fp).step
            csv = full["observables.csv"].split(b"\n")
            head = sum(1 for ln in csv if ln.startswith(b"#")) + 1  # echo + header
            rows = data.draw(st.integers(step // run["record_every"] + 1, len(csv) - 1 - head))
            (out / "observables.csv").write_bytes(b"\n".join(csv[: head + rows]) + b"\n")
            for p in out.glob("*.snap"):
                if p.name != snap and (p.name == "final.snap" or int(p.stem[5:]) > step):
                    p.unlink()
            assert entry(["resume", "--config", str(ini), "--resume", str(out / snap)]) == EXIT_OK
            after = self._artifacts(out)
            resumed = json.loads(after.pop("summary.json"))["results"]
            assert after == full
            assert resumed.pop("resumed_from_step") == step
            assert resumed == results

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), more=st.integers(1, 30), **RUNS)
    def test_failed_replace_leaves_each_artifact_whole(self, data, more, **run):
        # a resume that extends the horizon by `more` steps dies in its k-th
        # os.replace, whichever artifact that moves into place: exit 4, no
        # temporary file left, and each artifact holds its complete bytes
        # from before the resume or those a resume that succeeds writes
        with tempfile.TemporaryDirectory() as tmp:
            out, ini = self._generated_run(tmp, **run)
            resume = ["resume", "--config", str(ini), "--horizon",
                      repr((run["steps"] + more) * 0.001), "--resume", str(out / "final.snap")]
            old = Path(tmp) / "old"
            shutil.copytree(out, old)
            real_replace, calls, k = os.replace, [], 0

            def replace(src, dst):  # the k-th call fails; none while k is 0
                calls.append(dst)
                if len(calls) == k:
                    raise OSError("disk full")
                real_replace(src, dst)

            with mock.patch.object(os, "replace", replace):
                # the artifacts a resume that succeeds writes, then the old ones back
                assert entry(resume) == EXIT_OK
                new = self._artifacts(out)
                shutil.rmtree(out)
                shutil.copytree(old, out)
                before = self._artifacts(out)
                k = data.draw(st.integers(1, len(calls)))
                calls.clear()
                assert entry(resume) == EXIT_IO
            assert len(calls) == k
            after = self._artifacts(out)
            assert not [name for name in after if name.endswith(".part")]
            for name in before.keys() | new.keys():
                assert after.get(name) in (before.get(name), new.get(name)), name

    def test_resume_requires_the_flag(self, ini, capsys):
        assert entry(["resume", "--config", str(ini)]) == EXIT_CONFIG

    def test_foreign_csv_is_rejected(self, ini, tmp_path, capsys):
        # the CSV on disk was written at a different record cadence, so its
        # rows cannot be aligned with the resumed stream: must refuse
        entry(["run", "--config", str(ini)])
        out = tmp_path / "out"
        snap = (out / "final.snap").read_bytes()
        other = tmp_path / "other.ini"
        other.write_text(BASE.replace("observables = 2",
                                      "observables = 2\nrecord_every = 2")
                         + f"\n[output]\ndir = {out}\n")
        entry(["run", "--config", str(other)])
        (out / "final.snap").write_bytes(snap)
        code = entry(["resume", "--config", str(ini), "--horizon", "0.18",
                      "--resume", str(out / "final.snap")])
        assert code == EXIT_CONFIG
        assert "different config" in capsys.readouterr().err
