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
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .ergodic import DEFAULT_BATCHES, MIN_BATCHES, default_burn_in
from .flux import FLUX_KINDS, FluxSpec
from .integrator import SCHEMES, ModelSpec, SolverConfig
from .noise import NoiseSpec
from .observables import FLOAT_FMT
from .spectral import ModeBasis, SpectralField, mode_field

EXPERIMENT_KINDS = ("single", "coupled", "ergodic", "validate")
INITIAL_KINDS = ("zero", "mode", "random")
# the sections that each fill the InitialSpec field of their name
INITIAL_SECTIONS = ("initial", "initial_b")
# each residual sums its window afresh (to keep its bits), at about 1.8 ns
# per row and window element: 4096 costs about 7 us per record row
RESIDUAL_WINDOW_MAX = 4096


class ConfigError(ValueError):
    """Invalid configuration; carries the complete list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join("  - " + v for v in self.violations)
        super().__init__("invalid configuration:\n" + lines)


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
    batches: int = DEFAULT_BATCHES
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
        """Canonical INI text; parse_config_text(echo()) == self. A key whose
        value is unset (None, or an empty list) is left out."""
        lines, section = [], None
        for row in SCHEMA:
            if row.section != section:
                section, owner = row.section, _owner(self, row.section)
                lines += ["", f"[{section}]"]
            text = row.kind.show(getattr(owner, row.attr))
            if text:
                lines.append(f"{row.key} = {text}")
        return "\n".join(lines[1:]) + "\n"

    def run_id(self) -> str:
        """Content hash of the canonical echo, git-style short form."""
        return hashlib.sha1(self.echo().encode()).hexdigest()[:12]


# --- the schema ------------------------------------------------------------
# One row per INI key. The unknown-key check, reading and checking each key,
# RunConfig(**values), echo() and the command-line flags all walk these tables.


def _list(parse):
    return lambda raw: tuple(parse(tok) for tok in raw.split(",") if tok.strip())


class _Kind(NamedTuple):
    """How a key's text is read and echoed: `finite` is None for a kind that
    cannot hold nan or inf, and `show` gives "" for an unset value."""

    parse: Callable
    expected: str
    finite: Callable | None
    show: Callable


_FLOAT = _Kind(float, "a number", math.isfinite, lambda x: "" if x is None else FLOAT_FMT % x)
_FLOATS = _Kind(_list(float), "a number list", lambda xs: all(map(math.isfinite, xs)),
                lambda xs: ",".join(FLOAT_FMT % x for x in xs))
# base-10 only: float round-trip would corrupt large 64-bit seeds
_INT = _Kind(lambda raw: int(raw, 10), "an integer", None, str)
_INTS = _Kind(_list(_INT.parse), "an integer list", None, lambda xs: ",".join(map(str, xs)))
_STR = _Kind(str, "a string", None, str)
# a number, or auto for None
_AUTO = _Kind(lambda raw: None if raw == "auto" else float(raw), "a number",
              lambda x: x is None or math.isfinite(x),
              lambda x: "auto" if x is None else FLOAT_FMT % x)


class _Key(NamedTuple):
    """One INI key: its kind, the check its value alone must pass with the
    violation message as a str.format template of the value, and the
    RunConfig field it fills (an InitialSpec field in INITIAL_SECTIONS),
    given where its name is not the key."""

    section: str
    key: str
    kind: _Kind
    check: Callable | None = None
    message: str = ""
    attr: str | None = None


def _one_of(choices, noun="kind"):
    return (lambda v: v in choices), f"unknown {noun} {{!r}}, choose from {choices}"


_U64 = (lambda n: 0 <= n < 2**64), "must be an unsigned 64-bit integer (got {})"

# in echo order; the defaults are those of the RunConfig and InitialSpec fields
SCHEMA = tuple(row._replace(attr=row.attr or row.key) for row in (
    _Key("model", "nu", _FLOAT, lambda v: v > 0, "nu > 0 is violated (got {})"),
    _Key("model", "flux", _STR, *_one_of(FLUX_KINDS), attr="flux_kind"),
    _Key("model", "flux_coefficients", _FLOATS),
    _Key("noise", "sigma", _FLOATS, attr="noise_sigma"),
    _Key("noise", "c", _FLOAT, attr="noise_c"),
    _Key("noise", "q", _FLOAT, attr="noise_q"),
    _Key("solver", "modes", _INT, lambda v: v >= 2 and v % 2 == 0,
         "need an even number of at least 2 retained modes (got {})"),
    _Key("solver", "dt", _FLOAT, lambda v: v > 0, "dt > 0 is violated (got {})"),
    _Key("solver", "scheme", _STR, *_one_of(SCHEMES, "scheme")),
    _Key("solver", "guard", _FLOAT, lambda v: v is None or v > 0,
         "guard radius must be positive (got {})"),
    _Key("experiment", "kind", _STR, *_one_of(EXPERIMENT_KINDS), attr="experiment"),
    _Key("experiment", "horizon", _FLOAT, lambda v: v > 0, "horizon > 0 is violated (got {})"),
    _Key("experiment", "seed", _INT, *_U64),
    _Key("experiment", "record_every", _INT, lambda v: v >= 1, "must be >= 1"),
    _Key("experiment", "residual_window", _INT, lambda v: 2 <= v <= RESIDUAL_WINDOW_MAX,
         f"must lie in [2, {RESIDUAL_WINDOW_MAX}] (got {{}})"),
    _Key("experiment", "snapshot_every", _INT, lambda v: v >= 0, "must be >= 0"),
    _Key("experiment", "observables", _INTS, lambda v: all(p >= 1 for p in v),
         "Lp orders must be >= 1"),
    _Key("experiment", "epsilons", _FLOATS, lambda v: len(v) > 0 and all(e > 0 for e in v),
         "need a non-empty list of positive thresholds"),
    _Key("experiment", "burn_in", _AUTO, lambda v: v is None or v >= 0, "must be >= 0 or auto"),
    _Key("experiment", "batches", _INT, lambda v: v >= MIN_BATCHES,
         f"need at least {MIN_BATCHES} for the error bar"),
    *(row for sec in INITIAL_SECTIONS for row in (
        _Key(sec, "kind", _STR, *_one_of(INITIAL_KINDS)),
        _Key(sec, "mode", _INT),  # checked against modes after the loop
        _Key(sec, "amplitude", _FLOAT),
        _Key(sec, "seed", _INT, *_U64))),
    _Key("output", "dir", _STR, bool, "must be non-empty", attr="out_dir"),
))
_SECTIONS = {row.section for row in SCHEMA}
_KEYS = {(row.section, row.key) for row in SCHEMA}
_DEFAULTS = RunConfig()


def _owner(cfg, section):
    """The object whose fields a section's keys are: cfg or its InitialSpec."""
    return getattr(cfg, section) if section in INITIAL_SECTIONS else cfg


def _set_flux(keys, value):
    keys.pop("flux_coefficients", None)
    keys["flux"], _, coeffs = value.partition(":")
    if coeffs:
        keys["flux_coefficients"] = coeffs


def _set_noise_profile(keys, value):
    keys.pop("sigma", None)
    keys["c"], _, keys["q"] = ("0,3" if value == "zero" else value).partition(",")


# dest -> (section, the key the flag overrides or a function that sets the
# section's keys from the flag's value, help), in the order the help lists them
FLAGS = {
    "seed": ("experiment", "seed", "unsigned 64-bit noise seed"),
    "horizon": ("experiment", "horizon", "total simulated time"),
    "dt": ("solver", "dt", "time step"),
    "modes": ("solver", "modes", "number of retained spectral coefficients"),
    "nu": ("model", "nu", "viscosity (> 0)"),
    "flux": ("model", _set_flux, "burgers | zero | polynomial:a0,a1,..."),
    "noise_profile": ("noise", _set_noise_profile, "C,Q spectral amplitude profile, or zero"),
    "out": ("output", "dir", "output directory"),
    "experiment": ("experiment", "kind", "experiment kind (single|coupled|ergodic|validate)"),
}


# --- parsing ---------------------------------------------------------------


class _Reader:
    """Typed access to the section/key table; records violations instead
    of raising, so every problem in a config surfaces at once."""

    def __init__(self, table):
        self.table = table
        self.violations = []
        self.unread = set()  # (section, key) of given values that failed to read

    def read(self, sec, key, default, kind):
        raw = self.table.get(sec, {}).get(key)
        if raw is None:
            return default
        try:
            value = kind.parse(raw)
        except ValueError as e:
            self.violations.append(f"{sec}.{key}: expected {kind.expected}, got {raw!r} ({e})")
        else:
            # float() reads nan and +-inf, which no key can hold
            if kind.finite is None or kind.finite(value):
                return value
            self.violations.append(f"{sec}.{key}: must be finite (got {raw})")
        self.unread.add((sec, key))
        return default

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
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in FLAGS:
            raise ValueError(f"unknown override {name!r}")
        section, key, _ = FLAGS[name]
        keys = table.setdefault(section, {})
        if callable(key):
            key(keys, str(value))
        else:
            keys[key] = str(value)
    return table


def parse_config_text(text: str, overrides=None) -> RunConfig:
    """Build a RunConfig from INI text plus overrides, or raise ConfigError
    listing every violation."""
    table = _apply_overrides(_read_table(text), overrides or {})
    r = _Reader(table)

    for sec, keys in table.items():
        if sec not in _SECTIONS:
            r.violations.append(f"unknown section: [{sec}]")
            continue
        r.violations += [f"unknown key: {sec}.{key}" for key in keys if (sec, key) not in _KEYS]

    values, initials = {}, {sec: {} for sec in INITIAL_SECTIONS}
    for row in SCHEMA:
        sec = row.section
        value = r.read(sec, row.key, getattr(_owner(_DEFAULTS, sec), row.attr), row.kind)
        if row.check is not None and not row.check(value):
            r.violations.append(f"{sec}.{row.key}: " + row.message.format(value))
        initials.get(sec, values)[row.attr] = value

    # the checks that span keys
    flux_kind, flux_coeffs = values["flux_kind"], values["flux_coefficients"]
    if flux_kind == "polynomial":
        # an unreadable list is listed already: asking for coefficients would list it twice
        r.require(("model", "flux_coefficients") in r.unread or len(flux_coeffs) > 0,
                  "model.flux_coefficients: polynomial flux requires coefficients")
    elif flux_kind in FLUX_KINDS:
        r.require(not flux_coeffs,
                  "model.flux_coefficients: only the polynomial flux takes coefficients")

    modes, sigma, noise = values["modes"], values["noise_sigma"], table.get("noise", {})
    if "sigma" in noise and ("c" in noise or "q" in noise):
        r.violations.append("noise: give either sigma or the (c, q) profile, not both")
    elif "sigma" in noise:
        values["noise_c"] = values["noise_q"] = None
        try:
            NoiseSpec(sigma=np.asarray(sigma))
        except ValueError as e:
            r.violations.append(f"noise.sigma: {e}")
        r.require(len(sigma) == modes,
                  f"noise.sigma: needs one amplitude per retained mode "
                  f"({len(sigma)} given, modes = {modes})")
    else:
        try:
            NoiseSpec(c=values["noise_c"], q=values["noise_q"])
        except ValueError as e:
            r.violations.append(f"noise: {e}")

    horizon, dt = values["horizon"], values["dt"]
    if horizon > 0 and dt > 0 and r.require(
            np.isfinite(horizon / dt),
            f"experiment.horizon: horizon / dt is not a finite step count "
            f"(horizon = {horizon}, dt = {dt})"):
        n_steps = int(round(horizon / dt))
        r.require(n_steps >= 1, f"experiment.horizon: below one step of dt = {dt}")
        r.require(n_steps < 2**64,
                  f"experiment.horizon: horizon / dt = {horizon / dt:.6g} steps is not "
                  f"below 2^64, the step range of a snapshot")

    for sec, spec in initials.items():
        r.require(1 <= spec["mode"] <= modes,
                  f"{sec}.mode: mode index must lie in [1, modes] (got {spec['mode']})")
        values[sec] = InitialSpec(**spec)

    if r.violations:
        raise ConfigError(r.violations)
    return RunConfig(**values)


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
