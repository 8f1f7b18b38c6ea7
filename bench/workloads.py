"""The benchmark's four workloads, their inputs and their correctness checks.

A workload is a sequence of units.  Each unit draws its inputs (noise seeds,
INI text) from one 64-bit unit seed, calls into svcl, checks the outputs and
returns a digest of them.  Unit 0 of every run uses the default seed, so its
digest can be compared with the recorded one in golden.json: a change that
alters any output bit makes that unit fail.

Why these four:

* stationary_m16 -- the shape of acceptance criteria 4 and 7, the suite's
  biggest cost: m=16, per-row observables with Lp orders (2, 4, 6).  Python
  call overhead bounds it; chunked observables would move it.
* coupled_m16 -- criterion 5's same-noise pair: two advances per noise draw
  and an L1 distance every step.  An ensemble stepper or a lighter
  flux_value would move it.
* wide_m256 -- bound by arithmetic: transforms on a 386-point padded grid
  dominate and observables are under 1%, so an observables-only change must
  show no movement here.
* cli_resume_m32 -- the only path through config, cli, CSV write and read
  back, and snapshot I/O: run, cut the CSV back to a mid-run snapshot,
  resume, and compare the artifacts byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svcl import cli, config, ergodic, flux, integrator, noise, observables, spectral

DEFAULT_SEED = 0

# Run lengths.  FULL is what the benchmark measures; TINY runs every code
# path in well under a second per unit, for the smoke test.
FULL = {
    "stationary_steps": 10_000,
    # |2 nu <h1_sq> - trace| / trace over the second half of 10^4 steps
    # spreads with a standard deviation of about 0.09 across seeds (largest
    # of 40 seeds: 0.23), so 0.5 fails only a broken balance, not bad luck
    "balance_tol": 0.5,
    "coupled_target": 1e-3,
    "wide_steps": 10_000,
    "cli_horizon": 2.0,
    "cli_snapshot_every": 500,
}
TINY = {
    "stationary_steps": 400,
    "balance_tol": 1.0,
    "coupled_target": 0.5,
    "wide_steps": 200,
    "cli_horizon": 0.1,
    "cli_snapshot_every": 25,
}


def unit_seed(workload_seed: int, k: int) -> int:
    """Unsigned 64-bit seed of unit k; unit 0 always uses the default seed."""
    base = DEFAULT_SEED if k == 0 else workload_seed
    hi, lo = np.random.SeedSequence([base, k]).generate_state(2, np.uint32)
    return (int(hi) << 32) | int(lo)


@dataclass
class UnitResult:
    steps: int  # trajectory-steps; a coupled pair-step counts as 2
    digest: str
    problems: list[str] = field(default_factory=list)  # failed checks
    trips: int = 0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()[:32]


def _records_digest(buf, coeffs) -> str:
    return _digest(*(buf.column(n) for n in buf.column_names()), coeffs)


class Stationary:
    name = "stationary_m16"
    lp_orders = (2, 4, 6)

    def __init__(self, size):
        self.n_steps = size["stationary_steps"]
        self.tol = size["balance_tol"]

    def specs(self, workdir):
        self.basis = spectral.ModeBasis(16)
        self.model = integrator.ModelSpec(0.1, flux.FluxSpec("burgers"),
                                          noise.NoiseSpec(c=0.5, q=3.0))
        self.cfg = integrator.SolverConfig(dt=5e-3)
        self.trace_l2 = noise.trace_h2(self.model.noise, self.basis).l2
        self.pad_points = flux.dealias_points(self.model.flux, self.basis)

    def prepare(self, seed, workdir):
        return seed

    def run(self, seed) -> UnitResult:
        u0 = spectral.SpectralField(self.basis.zeros(), self.basis)
        res = integrator.run_single(self.model, self.cfg, u0, seed=seed,
                                    n_steps=self.n_steps, record_every=1,
                                    lp_orders=self.lp_orders)
        est = ergodic.ergodic_average(res, "h1_sq", burn_in=res.state.t / 2)
        gap = abs(2.0 * self.model.nu * est.value - self.trace_l2) / self.trace_l2
        problems = []
        if res.trip is not None:
            problems.append(f"trip: {res.trip.reason} at t = {res.trip.t}")
        if not gap <= self.tol:
            problems.append(f"balance gap {gap:.4g} > {self.tol}")
        return UnitResult(
            steps=res.state.step,
            digest=_digest(_records_digest(res.records, res.state.u.coeffs).encode(),
                           np.array([est.value, est.stderr])),
            problems=problems, trips=int(res.trip is not None))


class Coupled:
    name = "coupled_m16"

    def __init__(self, size):
        self.target_frac = size["coupled_target"]

    def specs(self, workdir):
        self.basis = spectral.ModeBasis(16)
        self.model = integrator.ModelSpec(0.05, flux.FluxSpec("burgers"),
                                          noise.NoiseSpec(c=0.2, q=3.0))
        self.cfg = integrator.SolverConfig(dt=1e-3)
        self.u0 = spectral.mode_field(self.basis, 1, 1.0)
        self.v0 = spectral.mode_field(self.basis, 1, -1.0)
        self.target = self.target_frac * observables.l1_distance(self.u0, self.v0)
        self.pad_points = flux.dealias_points(self.model.flux, self.basis)

    def prepare(self, seed, workdir):
        return seed

    def run(self, seed) -> UnitResult:
        rep = ergodic.confluence_experiment(self.u0, self.v0, self.model, self.cfg,
                                            seed=seed, epsilons=[self.target],
                                            horizon=10.0)
        l1 = rep.l1_series
        problems = []
        if not l1[-1] < self.target:
            problems.append(f"target {self.target:.4g} not reached (l1 {l1[-1]:.4g})")
        rise = np.diff(l1) - 1e-8 * l1[:-1]
        if not np.all(rise <= 0.0):
            problems.append(f"l1 rose by {float(np.max(rise)):.3g} beyond 1e-8 relative")
        trips = int(math.isfinite(rep.trip_time))
        if trips:
            problems.append(f"trip at t = {rep.trip_time}")
        return UnitResult(steps=2 * (len(l1) - 1), digest=_digest(rep.times, l1),
                          problems=problems, trips=trips)


class Wide:
    name = "wide_m256"

    def __init__(self, size):
        self.n_steps = size["wide_steps"]

    def specs(self, workdir):
        self.basis = spectral.ModeBasis(256)
        self.model = integrator.ModelSpec(0.01, flux.FluxSpec("burgers"),
                                          noise.NoiseSpec(c=0.5, q=3.0))
        self.cfg = integrator.SolverConfig(dt=1e-4)
        self.u0 = spectral.mode_field(self.basis, 1, 1.0)
        self.pad_points = flux.dealias_points(self.model.flux, self.basis)

    def prepare(self, seed, workdir):
        return seed

    def run(self, seed) -> UnitResult:
        res = integrator.run_single(self.model, self.cfg, self.u0, seed=seed,
                                    n_steps=self.n_steps, record_every=100)
        problems = []
        if res.trip is not None:
            problems.append(f"trip: {res.trip.reason} at t = {res.trip.t}")
        cols = [res.records.column(n) for n in ("t", "l2_sq", "h1_sq", "h2_sq")]
        if not all(np.all(np.isfinite(c)) for c in cols + [res.state.u.coeffs]):
            problems.append("non-finite values in records or final state")
        return UnitResult(steps=res.state.step,
                          digest=_records_digest(res.records, res.state.u.coeffs),
                          problems=problems, trips=int(res.trip is not None))


_CLI_INI = """\
[model]
nu = 0.08
flux = burgers

[noise]
c = 0.3
q = 3.0

[solver]
modes = 32
dt = 0.001

[experiment]
kind = single
horizon = {horizon}
seed = {seed}
record_every = 1
snapshot_every = {snapshot_every}
observables = 2,4

[output]
dir = {out}
"""


class CliResume:
    name = "cli_resume_m32"

    def __init__(self, size):
        self.horizon = size["cli_horizon"]
        self.snapshot_every = size["cli_snapshot_every"]

    def ini_text(self, seed, out) -> str:
        return _CLI_INI.format(horizon=self.horizon, seed=seed,
                               snapshot_every=self.snapshot_every, out=out)

    def specs(self, workdir):
        """Write one INI file and parse it, as the CLI does on every call."""
        ini = Path(workdir) / "setup.ini"
        ini.write_text(self.ini_text(DEFAULT_SEED, "setup_out"))
        cfg = config.parse_config(str(ini))
        self.n_total = cfg.n_steps()
        # resume from the snapshot nearest the middle of the run
        self.mid = (self.n_total // 2) // self.snapshot_every * self.snapshot_every
        if self.mid <= 0:
            raise ValueError("cli workload needs a snapshot before the end of the run")
        self.pad_points = flux.dealias_points(cfg.flux(), cfg.basis())

    def prepare(self, seed, workdir):
        """Write the unit's INI file.  The output directory in it is relative
        to workdir, which must be the current directory while the unit runs:
        the CSV echoes the config, so an absolute path would change its bytes
        from one checkout to the next."""
        name = f"unit_{seed:016x}"
        unit_dir = Path(workdir) / name
        if unit_dir.exists():
            shutil.rmtree(unit_dir)
        unit_dir.mkdir(parents=True)
        ini = unit_dir / "run.ini"
        ini.write_text(self.ini_text(seed, f"{name}/out"))
        return ini

    def run(self, ini: Path) -> UnitResult:
        out = ini.parent / "out"
        problems = []
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.entry(["run", "--config", str(ini)])
        if code != 0:
            return UnitResult(steps=self.n_total, digest="", trips=int(code == 3),
                              problems=[f"run exited with code {code}"])
        csv = out / "observables.csv"
        first = _artifacts(out)
        # interrupt after the mid snapshot: drop later rows and snapshots
        lines = first["observables.csv"].decode().splitlines(keepends=True)
        head = sum(1 for ln in lines if ln.startswith("#")) + 1
        csv.write_text("".join(lines[: head + self.mid + 1]))
        (out / "final.snap").unlink()
        for p in out.glob("snap_*.snap"):
            if int(p.stem[5:]) > self.mid:
                p.unlink()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.entry(["resume", "--config", str(ini), "--resume",
                              str(out / f"snap_{self.mid:09d}.snap")])
        steps = self.n_total + (self.n_total - self.mid)
        if code != 0:
            return UnitResult(steps=steps, digest="", trips=int(code == 3),
                              problems=[f"resume exited with code {code}"])
        resumed = _artifacts(out)
        if resumed != first:
            differ = sorted(k for k in first.keys() | resumed.keys()
                            if first.get(k) != resumed.get(k))
            problems.append("resumed artifacts differ: " + ", ".join(differ))
        summary = json.loads((out / "summary.json").read_text())
        results = json.dumps(summary["results"], sort_keys=True).encode()
        return UnitResult(steps=steps,
                          digest=_digest(*(resumed[k] for k in sorted(resumed)), results),
                          problems=problems)


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every artifact that must be reproducible: CSV and snapshots."""
    names = ["observables.csv", "final.snap"]
    names += sorted(p.name for p in out.glob("snap_*.snap"))
    return {n: (out / n).read_bytes() for n in names}


WORKLOADS = {w.name: w for w in (Stationary, Coupled, Wide, CliResume)}
