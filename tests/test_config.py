"""Config parsing, validation completeness, echo round-trip, overrides."""

import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcl.config import (
    EXPERIMENT_KINDS,
    FLAGS,
    INITIAL_KINDS,
    INITIAL_SECTIONS,
    RESIDUAL_WINDOW_MAX,
    ConfigError,
    InitialSpec,
    RunConfig,
    SCHEMA,
    parse_config,
    parse_config_text,
)
from svcl.ergodic import MIN_BATCHES
from svcl.flux import FLUX_KINDS
from svcl.integrator import SCHEMES, SolverConfig
from svcl.ergodic import default_burn_in
from svcl.spectral import ModeBasis, mode_field

MINIMAL = "[model]\nflux = burgers\n"

BROKEN = """
[model]
nu = -1
flux = quartic
[noise]
c = 1
q = 2.0
[solver]
dt = 0
scheme = rk4
[experiment]
kind = triple
seed = -5
batches = 4
[initial]
kind = wave
mode = 99
[typo_section]
x = 1
"""


class TestDefaults:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.nu == 0.1 and cfg.flux_kind == "burgers"
        assert cfg.modes == 32 and cfg.dt == 1e-3 and cfg.scheme == "exp_euler"
        assert cfg.experiment == "single" and cfg.horizon == 1.0
        assert cfg.seed == 0 and cfg.guard is None
        assert cfg.noise_c == 0.5 and cfg.noise_q == 3.0 and not cfg.noise_sigma
        assert cfg.epsilons == (1e-3,) and cfg.batches == 16
        assert cfg.initial.kind == "zero" and cfg.out_dir == "out"

    def test_empty_text_is_all_defaults(self):
        assert parse_config_text("") == RunConfig()

    def test_defaults_are_echoed(self):
        echo = parse_config_text(MINIMAL).echo()
        for needle in ("nu = 0.1", "modes = 32", "scheme = exp_euler",
                       "kind = single", "batches = 16", "dir = out"):
            assert needle in echo


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
U64 = st.integers(0, 2**64 - 1)


@st.composite
def run_configs(draw):
    """Valid RunConfigs: every key within its bounds, floats anywhere in
    their range, subnormals and signed zeros included."""
    modes = 2 * draw(st.integers(1, 32))
    flux_kind = draw(st.sampled_from(FLUX_KINDS))
    coeffs = (tuple(draw(st.lists(FINITE, min_size=1, max_size=5)))
              if flux_kind == "polynomial" else ())
    sigma, c, q = (), draw(NON_NEGATIVE), draw(st.floats(2.5, 1e300, exclude_min=True))
    if draw(st.booleans()):
        sigma = tuple(draw(st.lists(NON_NEGATIVE, min_size=modes, max_size=modes)))
        c = q = None
    dt = draw(st.floats(1e-12, 1e3))
    initials = [InitialSpec(draw(st.sampled_from(INITIAL_KINDS)), draw(st.integers(1, modes)),
                            draw(FINITE), draw(U64)) for _ in range(2)]
    return RunConfig(
        nu=draw(POSITIVE), flux_kind=flux_kind, flux_coefficients=coeffs,
        noise_c=c, noise_q=q, noise_sigma=sigma, modes=modes, dt=dt,
        scheme=draw(st.sampled_from(SCHEMES)), guard=draw(st.none() | POSITIVE),
        experiment=draw(st.sampled_from(EXPERIMENT_KINDS)),
        horizon=dt * draw(st.floats(1.0, 1e15)), seed=draw(U64),
        record_every=draw(st.integers(1, 10**6)),
        residual_window=draw(st.integers(2, RESIDUAL_WINDOW_MAX)),
        snapshot_every=draw(st.integers(0, 10**6)),
        observables=tuple(draw(st.lists(st.integers(1, 12), max_size=4))),
        epsilons=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=3))),
        burn_in=draw(st.none() | NON_NEGATIVE), batches=draw(st.integers(MIN_BATCHES, 10**4)),
        initial=initials[0], initial_b=initials[1],
        out_dir=draw(st.text("ab09_-./ ", min_size=1, max_size=12).filter(
            lambda d: d == d.strip())))


class TestEchoRoundTrip:
    @settings(max_examples=200)
    @given(cfg=run_configs())
    def test_parse_of_echo_is_the_identity(self, cfg):
        assert parse_config_text(cfg.echo()) == cfg

    CASES = [
        {},
        {"flux": "polynomial:0,0,0,0.33333333333333331", "nu": "0.25"},
        {"noise_profile": "0.4,2.6", "seed": "18446744073709551615"},
        {"dt": "0.00012207031249999999", "modes": "48", "horizon": "2.5"},
        {"experiment": "coupled", "out": "runs/a b/c"},
    ]

    @pytest.mark.parametrize("overrides", CASES)
    def test_parse_of_echo_reproduces_config(self, overrides):
        cfg = parse_config_text(MINIMAL, overrides)
        assert parse_config_text(cfg.echo()) == cfg

    def test_sigma_guard_burn_in_round_trip(self):
        text = """
[noise]
sigma = 1,0,0.125,0
[solver]
modes = 4
guard = 12.5
[experiment]
observables = 2,4,6
burn_in = 0.75
epsilons = 0.01,0.0001
[initial]
kind = random
amplitude = 2.5
seed = 9
[initial_b]
kind = mode
mode = 2
amplitude = -1.5
"""
        cfg = parse_config_text(text)
        assert cfg.noise_sigma == (1.0, 0.0, 0.125, 0.0)
        assert cfg.noise_c is None and cfg.noise_q is None
        assert cfg.guard == 12.5 and cfg.burn_in == 0.75
        assert cfg.observables == (2, 4, 6)
        assert parse_config_text(cfg.echo()) == cfg

    def test_run_id_is_stable_and_content_keyed(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL)
        c = parse_config_text(MINIMAL, {"seed": "1"})
        assert a.run_id() == b.run_id()
        assert len(a.run_id()) == 12
        assert int(a.run_id(), 16) >= 0
        assert a.run_id() != c.run_id()


class TestValidation:
    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(BROKEN)
        msgs = err.value.violations
        joined = "\n".join(msgs)
        assert len(msgs) >= 9
        for needle in ("nu > 0", "quartic", "must exceed 2.5", "dt > 0",
                       "rk4", "triple", "unsigned 64-bit", "batches",
                       "wave", "mode index", "typo_section"):
            assert needle in joined, needle

    def test_divergent_profile_names_the_invariant(self):
        with pytest.raises(ConfigError, match="exceed 2.5"):
            parse_config_text("[noise]\nc = 1\nq = 2.0\n")
        with pytest.raises(ConfigError, match="diverges"):
            parse_config_text("[noise]\nc = 1\nq = 2.5\n")

    def test_negative_nu_names_the_invariant(self):
        with pytest.raises(ConfigError, match="nu > 0"):
            parse_config_text("[model]\nnu = -1\n")

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key: model.bogus"):
            parse_config_text("[model]\nbogus = 3\n")

    def test_sigma_and_profile_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config_text("[noise]\nsigma = 1,0\nc = 0.5\nq = 3\n")

    def test_sigma_length_must_match_modes(self):
        with pytest.raises(ConfigError, match="per retained mode"):
            parse_config_text("[noise]\nsigma = 1,0,0\n[solver]\nmodes = 8\n")

    def test_polynomial_needs_coefficients(self):
        with pytest.raises(ConfigError, match="requires coefficients"):
            parse_config_text("[model]\nflux = polynomial\n")

    def test_unknown_flux_kind_lists_the_three_kinds(self):
        # a flux kind outside FLUX_KINDS, from the file or from --flux, is
        # one listed violation that names the kinds there are
        want = ("model.flux: unknown kind 'callback', "
                "choose from ('burgers', 'polynomial', 'zero')")
        for text, overrides in (("[model]\nflux = callback\n", {}),
                                (MINIMAL, {"flux": "callback"})):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(text, overrides)
            assert exc.value.violations == [want]

    def test_huge_flux_coefficients_parse_without_warning(self):
        # the suite turns a RuntimeWarning into an error: reading the
        # coefficients computes nothing with them
        cfg = parse_config_text(MINIMAL, {"flux": "polynomial:0,0,1e308"})
        assert cfg.flux_coefficients == (0.0, 0.0, 1e308)
        assert cfg.flux().degree == 2

    def test_coefficients_only_for_polynomial(self):
        with pytest.raises(ConfigError, match="polynomial flux takes"):
            parse_config_text("[model]\nflux = burgers\nflux_coefficients = 1\n")

    def test_seed_is_unsigned_64_bit(self):
        top = 2**64 - 1
        cfg = parse_config_text(f"[experiment]\nseed = {top}\n")
        assert cfg.seed == top  # exact, not via float
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config_text(f"[experiment]\nseed = {2**64}\n")

    def test_horizon_must_cover_a_step(self):
        with pytest.raises(ConfigError, match="below one step"):
            parse_config_text("[solver]\ndt = 1\n[experiment]\nhorizon = 0.4\n")

    def test_odd_modes_is_a_listed_violation(self):
        # the basis holds whole (sine, cosine) pairs: an odd count is listed
        # with every other violation rather than raised by ModeBasis
        for modes in (3, 7):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(f"[model]\nnu = -1\n[solver]\nmodes = {modes}\n")
            want = f"solver.modes: need an even number of at least 2 retained modes (got {modes})"
            assert len(exc.value.violations) == 2 and want in exc.value.violations
        assert parse_config_text("[solver]\nmodes = 2\n").basis().m_max == 2

    def test_non_finite_step_count_is_a_listed_violation(self):
        # horizon / dt past the float range has no step count to round
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[model]\nnu = -1\n[solver]\ndt = 1e-320\n"
                              "[experiment]\nhorizon = 1e300\n")
        assert len(exc.value.violations) == 2
        assert exc.value.violations[1].startswith(
            "experiment.horizon: horizon / dt is not a finite step count")

    def test_non_finite_numbers_are_listed_violations(self):
        # float() reads nan and +-inf; each number key refuses them as a
        # listed violation instead of running into a trip at t = 0
        for text, overrides, want in (
                ("", {"noise_profile": "nan,3"}, "noise.c: must be finite (got nan)"),
                ("", {"noise_profile": "0.5,nan"}, "noise.q: must be finite (got nan)"),
                ("", {"noise_profile": "inf,3"}, "noise.c: must be finite (got inf)"),
                ("", {"flux": "polynomial:0,0,nan"},
                 "model.flux_coefficients: must be finite (got 0,0,nan)"),
                ("[initial]\nkind = mode\namplitude = nan\n", {},
                 "initial.amplitude: must be finite (got nan)"),
                ("", {"nu": "inf"}, "model.nu: must be finite (got inf)"),
                ("[noise]\nsigma = 1,-inf\n[solver]\nmodes = 2\n", {},
                 "noise.sigma: must be finite (got 1,-inf)")):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(text, overrides)
            assert want in exc.value.violations
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[model]\nnu = -1\n[solver]\ndt = 0.001\n"
                              "[experiment]\nhorizon = inf\n")
        assert exc.value.violations == ["model.nu: nu > 0 is violated (got -1.0)",
                                         "experiment.horizon: must be finite (got inf)"]

    def test_step_count_past_64_bits_is_a_listed_violation(self):
        # a snapshot stores the step as an unsigned 64-bit integer
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[model]\nnu = -1\n[solver]\ndt = 0.001\n"
                              "[experiment]\nhorizon = 1.9e16\n")
        assert len(exc.value.violations) == 2
        assert exc.value.violations[1] == ("experiment.horizon: horizon / dt = 1.9e+19 steps "
                                           "is not below 2^64, the step range of a snapshot")
        cfg = parse_config_text("[solver]\ndt = 0.001\n[experiment]\nhorizon = 1.8e16\n")
        assert cfg.n_steps() == 18_000_000_000_000_000_000 < 2**64

    def test_residual_window_is_a_bounded_listed_violation(self):
        # each residual sums its window afresh, so the window bounds the
        # residual fill's cost per record row
        for window in (1, RESIDUAL_WINDOW_MAX + 1, 20_000):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(f"[model]\nnu = -1\n[experiment]\nresidual_window = {window}\n")
            assert exc.value.violations == [
                "model.nu: nu > 0 is violated (got -1.0)",
                f"experiment.residual_window: must lie in [2, 4096] (got {window})"]
        for window in (2, 16, 64, RESIDUAL_WINDOW_MAX):
            text = f"[experiment]\nresidual_window = {window}\n"
            assert parse_config_text(text).residual_window == window

    def test_unparseable_text_is_one_violation(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config_text("not an ini file at all [oops")


class TestOverrides:
    def test_flags_beat_file(self):
        cfg = parse_config_text("[model]\nnu = 0.1\n[solver]\ndt = 0.01\n",
                                {"nu": "0.3", "dt": "0.002"})
        assert cfg.nu == 0.3 and cfg.dt == 0.002

    def test_flux_override_with_coefficients(self):
        cfg = parse_config_text(MINIMAL, {"flux": "polynomial:0,0,0,0.5"})
        assert cfg.flux_kind == "polynomial"
        assert cfg.flux_coefficients == (0.0, 0.0, 0.0, 0.5)

    def test_flux_override_replaces_the_file_coefficients(self):
        # --flux names the whole flux, as --noise-profile names the whole
        # noise: a kind without coefficients drops those of the file
        text = "[model]\nflux = polynomial\nflux_coefficients = 0,0,1\n"
        cfg = parse_config_text(text, {"flux": "burgers"})
        assert cfg.flux_kind == "burgers" and cfg.flux_coefficients == ()
        cfg = parse_config_text(text, {"flux": "polynomial:0,0,0,0.5"})
        assert cfg.flux_coefficients == (0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ConfigError, match="polynomial flux requires coefficients"):
            parse_config_text(text, {"flux": "polynomial"})

    def test_noise_profile_override_replaces_sigma(self):
        text = "[noise]\nsigma = 1,0,0,0\n[solver]\nmodes = 4\n"
        cfg = parse_config_text(text, {"noise_profile": "0.7,2.8"})
        assert cfg.noise_c == 0.7 and cfg.noise_q == 2.8 and not cfg.noise_sigma

    def test_zero_noise_profile(self):
        cfg = parse_config_text(MINIMAL, {"noise_profile": "zero"})
        assert cfg.noise_c == 0.0
        assert np.all(cfg.noise().resolve(cfg.basis()) == 0.0)

    def test_none_values_are_ignored(self):
        assert parse_config_text(MINIMAL, {"nu": None}) == parse_config_text(MINIMAL)

    def test_unknown_override_is_a_programming_error(self):
        with pytest.raises(ValueError, match="unknown override"):
            parse_config_text(MINIMAL, {"colour": "red"})


class TestSchema:
    def test_every_field_has_exactly_one_row(self):
        top = Counter(row.attr for row in SCHEMA if row.section not in INITIAL_SECTIONS)
        assert top == Counter(f.name for f in fields(RunConfig) if f.name not in INITIAL_SECTIONS)
        for sec in INITIAL_SECTIONS:
            assert isinstance(getattr(RunConfig(), sec), InitialSpec)
            rows = Counter(row.attr for row in SCHEMA if row.section == sec)
            assert rows == Counter(f.name for f in fields(InitialSpec))

    def test_no_key_is_declared_twice(self):
        keys = [(row.section, row.key) for row in SCHEMA]
        assert len(keys) == len(set(keys))

    # a value for each flag that overrides one key, and for each flag that
    # sets several, a value and the INI keys it stands for
    FLAG_VALUES = {"seed": "7", "horizon": "2.5", "dt": "0.0005", "modes": "8", "nu": "0.3",
                   "out": "runs/x", "experiment": "coupled"}
    EXPANDED = {
        "flux": ("polynomial:0,0,1", "[model]\nflux = polynomial\nflux_coefficients = 0,0,1\n"),
        "noise_profile": ("zero", "[noise]\nc = 0\nq = 3\n"),
    }

    @pytest.mark.parametrize("name", list(FLAGS))
    def test_each_flag_equals_the_keys_it_overrides(self, name):
        section, key, _ = FLAGS[name]
        if callable(key):
            value, ini = self.EXPANDED[name]
        else:
            value = self.FLAG_VALUES[name]
            ini = f"[{section}]\n{key} = {value}\n"
        cfg = parse_config_text(MINIMAL, {name: value})
        assert cfg == parse_config_text(ini) != parse_config_text(MINIMAL)

    def test_readme_example_lists_every_key(self):
        # each key appears as `key =`, commented or not, under its section
        # header, so the README cannot drift from the schema
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Config file", 1)[1].split("```ini\n", 1)[1].split("```")[0]
        listed, section = [], None
        for line in example.splitlines():
            if m := re.match(r"#? *\[(\w+)\]", line):
                section = m.group(1)
            elif m := re.match(r"#? *(\w+) =", line):
                listed.append((section, m.group(1)))
        assert sorted(listed) == sorted((row.section, row.key) for row in SCHEMA)
        parse_config_text(example)  # the uncommented part is a valid config


class TestBuilders:
    def test_model_solver_basis_build(self):
        cfg = parse_config_text(MINIMAL, {"modes": "8", "nu": "0.2"})
        model, solver, basis = cfg.model(), cfg.solver(), cfg.basis()
        assert model.nu == 0.2 and model.flux.kind == "burgers"
        assert solver.dt == cfg.dt and basis.m_max == 8

    def test_every_solver_setting_is_a_solver_row_of_the_schema(self):
        """SolverConfig holds exactly dt, scheme and guard_radius, and
        solver() fills each from the field of a [solver] row, so no solver
        setting lives outside the config schema."""
        rows = {row.key: row.attr for row in SCHEMA if row.section == "solver"}
        source = {"dt": "dt", "scheme": "scheme", "guard_radius": "guard"}
        assert [f.name for f in fields(SolverConfig)] == list(source)
        values = {"dt": 0.0125, "scheme": "exp_midpoint_flux", "guard": 7.5}
        solver = RunConfig(**{rows[key]: v for key, v in values.items()}).solver()
        for name, key in source.items():
            assert getattr(solver, name) == values[key]
            assert getattr(solver, name) != getattr(RunConfig().solver(), name)

    def test_initial_kinds(self):
        basis = ModeBasis(8)
        assert not InitialSpec("zero").build(basis).coeffs.any()
        m = InitialSpec("mode", mode=2, amplitude=-1.5).build(basis)
        assert np.array_equal(m.coeffs, mode_field(basis, 2, -1.5).coeffs)
        r1 = InitialSpec("random", amplitude=2.0, seed=3).build(basis)
        r2 = InitialSpec("random", amplitude=2.0, seed=3).build(basis)
        r3 = InitialSpec("random", amplitude=2.0, seed=4).build(basis)
        assert np.array_equal(r1.coeffs, r2.coeffs)
        assert not np.array_equal(r1.coeffs, r3.coeffs)

    def test_step_count_rounds(self):
        cfg = parse_config_text(MINIMAL, {"horizon": "1", "dt": "0.0003"})
        assert cfg.n_steps() == 3333

    def test_burn_in_auto(self):
        cfg = parse_config_text(MINIMAL, {"nu": "0.2"})
        assert cfg.effective_burn_in() == default_burn_in(0.2)
        explicit = parse_config_text("[experiment]\nburn_in = 0.5\n")
        assert explicit.effective_burn_in() == 0.5


class TestConfigFile:
    def test_reads_from_disk(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[model]\nnu = 0.07\n")
        assert parse_config(p).nu == 0.07

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")
