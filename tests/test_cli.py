"""End-to-end command line behavior: artifacts, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

from svcl import cli
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
        assert res["initial_l1"] == rep.initial_distance
        assert res["final_l1"] == rep.final_distance


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


class TestValidate:
    def test_all_checks_pass(self, tmp_path, capsys):
        code = entry(["validate", "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("heat_decay", "ou_variance", "l1_contraction",
                     "energy_balance"):
            assert f"PASS {name}" in out
        assert "FAIL" not in out
        doc = json.loads((tmp_path / "v" / "summary.json").read_text())
        assert doc["results"]["failures"] == 0
        assert len(doc["results"]["checks"]) == 4


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
