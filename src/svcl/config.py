"""Run configuration: file and flag parsing, validation, echo serialization.

A run is specified by a small INI file with sections [model], [noise],
[solver], [experiment], [initial], [initial_b], [output], plus optional
command-line overrides that take precedence over the file. Validation
collects every violation instead of stopping at the first one, unknown
keys and sections are errors, and the echoed form of a config parses
back to an identical RunConfig, so each artifact carries its own
provenance. All floats are emitted with 17 significant digits.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .ergodic import MIN_BATCHES, default_burn_in
from .flux import FLUX_KINDS, FluxSpec
from .integrator import SCHEMES, ModelSpec, SolverConfig
from .noise import NoiseSpec
from .observables import FLOAT_FMT
from .spectral import ModeBasis, SpectralField, mode_field

EXPERIMENT_KINDS = ("single", "coupled", "ergodic", "validate")
INITIAL_KINDS = ("zero", "mode", "random")
# each residual sums its window afresh (to keep its bits), at about 1.8 ns
# per row and window element: 4096 costs about 7 us per record row
RESIDUAL_WINDOW_MAX = 4096

_KNOWN_KEYS = {
    "model": ("nu", "flux", "flux_coefficients"),
    "noise": ("sigma", "c", "q"),
    "solver": ("modes", "dt", "scheme", "guard"),
    "experiment": ("kind", "horizon", "seed", "record_every", "residual_window",
                   "snapshot_every", "observables", "epsilons", "burn_in",
                   "batches"),
    "initial": ("kind", "mode", "amplitude", "seed"),
    "initial_b": ("kind", "mode", "amplitude", "seed"),
    "output": ("dir",),
}


class ConfigError(ValueError):
    """Invalid configuration; carries the complete list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join("  - " + v for v in self.violations)
        super().__init__("invalid configuration:\n" + lines)


def _fmt(x) -> str:
    return FLOAT_FMT % x


def _fmt_list(xs) -> str:
    return ",".join(FLOAT_FMT % x for x in xs)


@dataclass
class InitialSpec:
    """Initial condition factory: zero field, a single basis mode, or a
    seeded random smooth field with pair-squared spectral decay."""

    kind: str = "zero"
    mode: int = 1
    amplitude: float = 1.0
    seed: int = 0

    def build(self, basis: ModeBasis) -> SpectralField:
        if self.kind == "zero":
            return SpectralField(basis.zeros(), basis)
        if self.kind == "mode":
            return mode_field(basis, self.mode, self.amplitude)
        rng = np.random.default_rng(self.seed)
        coeffs = rng.standard_normal(basis.m_max) / (1.0 + basis.pair_index) ** 2
        return SpectralField(self.amplitude * coeffs, basis)


@dataclass
class RunConfig:
    """Fully validated description of one experiment.

    Scalars and tuples only, so equality is structural and the INI echo
    round-trips. Model, solver, and basis objects are built on demand.
    """

    nu: float = 0.1
    flux_kind: str = "burgers"
    flux_coefficients: tuple = ()
    noise_c: float | None = 0.5
    noise_q: float | None = 3.0
    noise_sigma: tuple = ()
    modes: int = 32
    dt: float = 1e-3
    scheme: str = "exp_euler"
    guard: float | None = None
    experiment: str = "single"
    horizon: float = 1.0
    seed: int = 0
    record_every: int = 1
    residual_window: int = 64
    snapshot_every: int = 0
    observables: tuple = ()
    epsilons: tuple = (1e-3,)
    burn_in: float | None = None  # None means 10 relaxation times of mode 1
    batches: int = 16
    initial: InitialSpec = field(default_factory=InitialSpec)
    initial_b: InitialSpec = field(default_factory=InitialSpec)
    out_dir: str = "out"

    # --- builders ---------------------------------------------------------

    def basis(self) -> ModeBasis:
        return ModeBasis(self.modes)

    def flux(self) -> FluxSpec:
        if self.flux_kind == "polynomial":
            return FluxSpec("polynomial", coefficients=np.asarray(self.flux_coefficients))
        return FluxSpec(self.flux_kind)

    def noise(self) -> NoiseSpec:
        if self.noise_sigma:
            return NoiseSpec(sigma=np.asarray(self.noise_sigma))
        return NoiseSpec(c=self.noise_c, q=self.noise_q)

    def model(self) -> ModelSpec:
        return ModelSpec(self.nu, self.flux(), self.noise())

    def solver(self) -> SolverConfig:
        return SolverConfig(dt=self.dt, scheme=self.scheme, guard_radius=self.guard)

    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def effective_burn_in(self) -> float:
        return default_burn_in(self.nu) if self.burn_in is None else self.burn_in

    # --- serialization ------------------------------------------------------

    def echo(self) -> str:
        """Canonical INI text; parse_config_text(echo()) == self."""
        lines = ["[model]", f"nu = {_fmt(self.nu)}", f"flux = {self.flux_kind}"]
        if self.flux_kind == "polynomial":
            lines.append(f"flux_coefficients = {_fmt_list(self.flux_coefficients)}")
        lines += ["", "[noise]"]
        if self.noise_sigma:
            lines.append(f"sigma = {_fmt_list(self.noise_sigma)}")
        else:
            lines += [f"c = {_fmt(self.noise_c)}", f"q = {_fmt(self.noise_q)}"]
        lines += ["", "[solver]", f"modes = {self.modes}", f"dt = {_fmt(self.dt)}",
                  f"scheme = {self.scheme}"]
        if self.guard is not None:
            lines.append(f"guard = {_fmt(self.guard)}")
        lines += ["", "[experiment]", f"kind = {self.experiment}",
                  f"horizon = {_fmt(self.horizon)}", f"seed = {self.seed}",
                  f"record_every = {self.record_every}",
                  f"residual_window = {self.residual_window}",
                  f"snapshot_every = {self.snapshot_every}"]
        if self.observables:
            lines.append("observables = " + ",".join(str(p) for p in self.observables))
        lines.append(f"epsilons = {_fmt_list(self.epsilons)}")
        burn = "auto" if self.burn_in is None else _fmt(self.burn_in)
        lines += [f"burn_in = {burn}", f"batches = {self.batches}"]
        for name, ini in (("initial", self.initial), ("initial_b", self.initial_b)):
            lines += ["", f"[{name}]", f"kind = {ini.kind}", f"mode = {ini.mode}",
                      f"amplitude = {_fmt(ini.amplitude)}", f"seed = {ini.seed}"]
        lines += ["", "[output]", f"dir = {self.out_dir}", ""]
        return "\n".join(lines)

    def run_id(self) -> str:
        """Content hash of the canonical echo, git-style short form."""
        return hashlib.sha1(self.echo().encode()).hexdigest()[:12]


# --- parsing ---------------------------------------------------------------


def _parse_floats(raw: str):
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_ints(raw: str):
    return tuple(int(tok, 10) for tok in raw.split(",") if tok.strip())


class _Reader:
    """Typed access to the section/key table; records violations instead
    of raising, so every problem in a config surfaces at once."""

    def __init__(self, table):
        self.table = table
        self.violations = []

    def has(self, sec, key):
        return key in self.table.get(sec, {})

    def _raw(self, sec, key):
        return self.table.get(sec, {}).get(key)

    def _typed(self, sec, key, default, convert, kind):
        raw = self._raw(sec, key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError as e:
            self.violations.append(f"{sec}.{key}: expected {kind}, got {raw!r} ({e})")
            return default

    def _finite(self, sec, key, default, convert, kind):
        # float() reads nan and +-inf, which no key can hold
        value = self._typed(sec, key, default, convert, kind)
        if value is None or np.isfinite(value).all():
            return value
        self.violations.append(f"{sec}.{key}: must be finite (got {self._raw(sec, key)})")
        return default

    def float(self, sec, key, default):
        return self._finite(sec, key, default, float, "a number")

    def int(self, sec, key, default):
        # base-10 only: float round-trip would corrupt large 64-bit seeds
        return self._typed(sec, key, default, lambda raw: int(raw, 10), "an integer")

    def str(self, sec, key, default):
        return self._typed(sec, key, default, str, "a string")

    def floats(self, sec, key, default):
        return self._finite(sec, key, default, _parse_floats, "a number list")

    def ints(self, sec, key, default):
        return self._typed(sec, key, default, _parse_ints, "an integer list")

    def require(self, ok: bool, message: str):
        if not ok:
            self.violations.append(message)
        return ok


def _read_table(text: str):
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError([f"unparseable config: {e}"]) from e
    return {sec: dict(cp[sec]) for sec in cp.sections()}


def _apply_overrides(table, overrides):
    """Flag values take precedence over the file; all arrive as strings."""
    dest = {"nu": ("model", "nu"), "dt": ("solver", "dt"),
            "modes": ("solver", "modes"), "seed": ("experiment", "seed"),
            "horizon": ("experiment", "horizon"), "out": ("output", "dir"),
            "experiment": ("experiment", "kind")}
    for name, value in overrides.items():
        if value is None:
            continue
        value = str(value)
        if name == "flux":
            kind, _, coeffs = value.partition(":")
            table.setdefault("model", {})["flux"] = kind
            if coeffs:
                table["model"]["flux_coefficients"] = coeffs
        elif name == "noise_profile":
            if value == "zero":
                c, q = "0", "3"
            else:
                c, _, q = value.partition(",")
            sec = table.setdefault("noise", {})
            sec.pop("sigma", None)
            sec["c"], sec["q"] = c, q
        elif name in dest:
            sec, key = dest[name]
            table.setdefault(sec, {})[key] = value
        else:
            raise ValueError(f"unknown override {name!r}")
    return table


def parse_config_text(text: str, overrides=None) -> RunConfig:
    """Build a RunConfig from INI text plus overrides, or raise ConfigError
    listing every violation."""
    table = _apply_overrides(_read_table(text), overrides or {})
    r = _Reader(table)

    for sec in table:
        if sec not in _KNOWN_KEYS:
            r.violations.append(f"unknown section: [{sec}]")
            continue
        for key in table[sec]:
            if key not in _KNOWN_KEYS[sec]:
                r.violations.append(f"unknown key: {sec}.{key}")

    nu = r.float("model", "nu", 0.1)
    r.require(nu > 0, f"model.nu: nu > 0 is violated (got {nu})")

    flux_kind = r.str("model", "flux", "burgers")
    flux_coeffs = r.floats("model", "flux_coefficients", None)
    # an unreadable list is listed already: asking for coefficients would list it twice
    unread = flux_coeffs is None and r.has("model", "flux_coefficients")
    flux_coeffs = flux_coeffs or ()
    if r.require(flux_kind in FLUX_KINDS,
                 f"model.flux: unknown kind {flux_kind!r}, "
                 f"choose from {FLUX_KINDS}"):
        if flux_kind == "polynomial":
            r.require(unread or len(flux_coeffs) > 0,
                      "model.flux_coefficients: polynomial flux requires coefficients")
        else:
            r.require(not flux_coeffs,
                      "model.flux_coefficients: only the polynomial flux takes coefficients")

    modes = r.int("solver", "modes", 32)
    r.require(modes >= 2 and modes % 2 == 0,
              f"solver.modes: need an even number of at least 2 retained modes "
              f"(got {modes})")

    sigma = r.floats("noise", "sigma", ())
    has_profile = r.has("noise", "c") or r.has("noise", "q")
    noise_c = r.float("noise", "c", 0.5)
    noise_q = r.float("noise", "q", 3.0)
    if r.has("noise", "sigma") and has_profile:
        r.violations.append("noise: give either sigma or the (c, q) profile, not both")
    elif r.has("noise", "sigma"):
        noise_c = noise_q = None
        try:
            NoiseSpec(sigma=np.asarray(sigma))
        except ValueError as e:
            r.violations.append(f"noise.sigma: {e}")
        r.require(len(sigma) == modes,
                  f"noise.sigma: needs one amplitude per retained mode "
                  f"({len(sigma)} given, modes = {modes})")
    else:
        sigma = ()
        try:
            NoiseSpec(c=noise_c, q=noise_q)
        except ValueError as e:
            r.violations.append(f"noise: {e}")

    dt = r.float("solver", "dt", 1e-3)
    r.require(dt > 0, f"solver.dt: dt > 0 is violated (got {dt})")
    scheme = r.str("solver", "scheme", "exp_euler")
    r.require(scheme in SCHEMES,
              f"solver.scheme: unknown scheme {scheme!r}, choose from {SCHEMES}")
    guard = r.float("solver", "guard", None)
    if guard is not None:
        r.require(guard > 0, f"solver.guard: guard radius must be positive (got {guard})")

    kind = r.str("experiment", "kind", "single")
    r.require(kind in EXPERIMENT_KINDS,
              f"experiment.kind: unknown kind {kind!r}, choose from {EXPERIMENT_KINDS}")
    horizon = r.float("experiment", "horizon", 1.0)
    r.require(horizon > 0, f"experiment.horizon: horizon > 0 is violated (got {horizon})")
    if horizon > 0 and dt > 0 and r.require(
            np.isfinite(horizon / dt),
            f"experiment.horizon: horizon / dt is not a finite step count "
            f"(horizon = {horizon}, dt = {dt})"):
        n_steps = int(round(horizon / dt))
        r.require(n_steps >= 1, f"experiment.horizon: below one step of dt = {dt}")
        r.require(n_steps < 2**64,
                  f"experiment.horizon: horizon / dt = {horizon / dt:.6g} steps is not "
                  f"below 2^64, the step range of a snapshot")
    seed = r.int("experiment", "seed", 0)
    r.require(0 <= seed < 2**64,
              f"experiment.seed: must be an unsigned 64-bit integer (got {seed})")
    record_every = r.int("experiment", "record_every", 1)
    r.require(record_every >= 1, "experiment.record_every: must be >= 1")
    residual_window = r.int("experiment", "residual_window", 64)
    r.require(2 <= residual_window <= RESIDUAL_WINDOW_MAX,
              f"experiment.residual_window: must lie in [2, {RESIDUAL_WINDOW_MAX}] "
              f"(got {residual_window})")
    snapshot_every = r.int("experiment", "snapshot_every", 0)
    r.require(snapshot_every >= 0, "experiment.snapshot_every: must be >= 0")
    observables = r.ints("experiment", "observables", ())
    r.require(all(p >= 1 for p in observables),
              "experiment.observables: Lp orders must be >= 1")
    epsilons = r.floats("experiment", "epsilons", (1e-3,))
    r.require(len(epsilons) > 0 and all(e > 0 for e in epsilons),
              "experiment.epsilons: need a non-empty list of positive thresholds")
    burn_raw = r.str("experiment", "burn_in", "auto")
    burn_in = None
    if burn_raw != "auto":
        burn_in = r.float("experiment", "burn_in", None)
        if burn_in is not None:
            r.require(burn_in >= 0, "experiment.burn_in: must be >= 0 or auto")
    batches = r.int("experiment", "batches", 16)
    r.require(batches >= MIN_BATCHES,
              f"experiment.batches: need at least {MIN_BATCHES} for the error bar")

    initials = []
    for sec in ("initial", "initial_b"):
        ikind = r.str(sec, "kind", "zero")
        imode = r.int(sec, "mode", 1)
        iamp = r.float(sec, "amplitude", 1.0)
        iseed = r.int(sec, "seed", 0)
        r.require(ikind in INITIAL_KINDS,
                  f"{sec}.kind: unknown kind {ikind!r}, choose from {INITIAL_KINDS}")
        r.require(1 <= imode <= modes,
                  f"{sec}.mode: mode index must lie in [1, modes] (got {imode})")
        r.require(0 <= iseed < 2**64,
                  f"{sec}.seed: must be an unsigned 64-bit integer (got {iseed})")
        initials.append(InitialSpec(ikind, imode, iamp, iseed))

    out_dir = r.str("output", "dir", "out")
    r.require(bool(out_dir), "output.dir: must be non-empty")

    if r.violations:
        raise ConfigError(r.violations)
    return RunConfig(
        nu=nu, flux_kind=flux_kind, flux_coefficients=flux_coeffs,
        noise_c=noise_c, noise_q=noise_q, noise_sigma=sigma,
        modes=modes, dt=dt, scheme=scheme, guard=guard,
        experiment=kind, horizon=horizon, seed=seed,
        record_every=record_every, residual_window=residual_window,
        snapshot_every=snapshot_every, observables=observables,
        epsilons=epsilons, burn_in=burn_in, batches=batches,
        initial=initials[0], initial_b=initials[1], out_dir=out_dir,
    )


def parse_config(path=None, overrides=None) -> RunConfig:
    """Parse an INI file (or pure flags when path is None) into a RunConfig."""
    if path is None:
        return parse_config_text("", overrides)
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as e:
        raise ConfigError([f"cannot read config file {path}: {e}"]) from e
    return parse_config_text(text, overrides)
