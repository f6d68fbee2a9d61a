"""Tests for the online energy-aware DVFS governor and its plumbing."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.edp import run_edp
from repro.campaign.keys import RunKey, run_key_hash
from repro.campaign.spec import CampaignSpec, expand
from repro.config import CSCS_A100, MINIHPC, SUBSONIC_TURBULENCE
from repro.errors import ConfigurationError, MeasurementError
from repro.experiments.runner import run_scaled_experiment
from repro.hardware.dvfs import snap_to_supported
from repro.timeseries.rolling import RollingMean
from repro.tuning.governor import (
    DEFAULT_CAP_FRACTION,
    GOVERNOR_POLICIES,
    EnergyAwareGovernor,
    GovernorConfig,
    GovernorReport,
)

A100_SUPPORTED = CSCS_A100.node_spec.gpu.supported_freqs_hz

SIDE = 450.0


def make_governor(policy="min-edp", **overrides):
    defaults = dict(
        policy=policy,
        candidates_mhz=(1410.0, 1140.0, 960.0, 700.0),
        dwell_s=0.0,
        hysteresis=0.0,
        explore_visits=1,
    )
    if policy == "power-cap":
        defaults["power_cap_watts"] = 1000.0
    defaults.update(overrides)
    config = GovernorConfig(**defaults)
    return EnergyAwareGovernor(config, A100_SUPPORTED, nominal_mhz=1410.0)


def observe(gov, function, seconds, joules, rank=0):
    """Feed one synthetic region completion at the governor's clock."""
    gov.observe_region(rank, function, 0.0, seconds, {"gpu": joules})


def tick(t, watts):
    return SimpleNamespace(timestamp=t, watts=watts)


class TestRollingMean:
    def test_mean_over_window(self):
        rm = RollingMean(10.0)
        for t, v in ((0.0, 100.0), (5.0, 200.0), (9.0, 300.0)):
            rm.add(t, v)
        assert rm.mean == pytest.approx(200.0)

    def test_eviction(self):
        rm = RollingMean(5.0)
        rm.add(0.0, 1000.0)
        rm.add(10.0, 100.0)  # the first sample is out of the window
        assert rm.mean == pytest.approx(100.0)
        assert len(rm) == 1

    def test_empty_mean_is_zero(self):
        assert RollingMean(1.0).mean == 0.0

    def test_out_of_order_rejected(self):
        rm = RollingMean(5.0)
        rm.add(2.0, 1.0)
        with pytest.raises(MeasurementError):
            rm.add(1.0, 1.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, -0.001])
    def test_nonpositive_window_rejected(self, window):
        # A vacuous window is a configuration mistake, not a bad
        # measurement: it must raise the typed ConfigurationError.
        with pytest.raises(ConfigurationError, match="must be positive"):
            RollingMean(window)


class TestGovernorConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(policy="turbo")

    def test_power_cap_requires_budget(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(policy="power-cap")
        with pytest.raises(ConfigurationError):
            GovernorConfig(policy="power-cap", power_cap_watts=-5.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("candidates_mhz", ()),
            ("dwell_s", -0.1),
            ("hysteresis", 1.0),
            ("hysteresis", -0.1),
            ("explore_visits", 0),
            ("rolling_window_s", 0.0),
            ("cap_safety", 0.0),
            ("cap_safety", 1.5),
        ],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            GovernorConfig(policy="min-edp", **{field: value})

    def test_for_system_candidates_supported(self):
        for policy in GOVERNOR_POLICIES:
            config = GovernorConfig.for_system(policy, CSCS_A100)
            supported = {f / 1e6 for f in A100_SUPPORTED}
            assert set(config.candidates_mhz) <= supported
            assert config.candidates_mhz == tuple(
                sorted(config.candidates_mhz, reverse=True)
            )

    def test_for_system_default_cap(self):
        config = GovernorConfig.for_system("power-cap", CSCS_A100)
        expected = DEFAULT_CAP_FRACTION * CSCS_A100.node_spec.peak_watts
        assert config.power_cap_watts == pytest.approx(expected)


class TestSnapToSupported:
    def test_ties_snap_to_lower_frequency(self):
        # 1000 MHz is equidistant from 800 and 1200: the tie must break
        # toward the lower clock (the energy-conservative choice).
        supported = (8e8, 1.2e9)
        assert snap_to_supported(supported, 1e9) == 8e8

    def test_empty_supported_rejected(self):
        from repro.errors import DvfsError

        with pytest.raises(DvfsError):
            snap_to_supported((), 1e9)

    @settings(max_examples=60, deadline=None)
    @given(
        freqs=st.lists(
            st.sampled_from([7e8, 8e8, 9.6e8, 1.1e9, 1.2e9, 1.41e9]),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        target=st.floats(min_value=5e8, max_value=2e9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_order_independent_and_minimal(self, freqs, target, seed):
        import random

        shuffled = list(freqs)
        random.Random(seed).shuffle(shuffled)
        snapped = snap_to_supported(tuple(shuffled), target)
        # Independent of presentation order.
        assert snapped == snap_to_supported(tuple(freqs), target)
        assert snapped in freqs
        # Minimizes the distance; among equidistant clocks, the lowest.
        best = min(abs(f - target) for f in freqs)
        assert abs(snapped - target) == best
        assert snapped == min(f for f in freqs if abs(f - target) == best)


class TestExplorationAndDecisions:
    def test_first_sighting_keeps_running_clock(self):
        gov = make_governor()
        assert gov.frequency_for("Density") is None

    def test_exploration_is_deterministic(self):
        a, b = make_governor(seed=7), make_governor(seed=7)
        assert a._explore_order("Density") == b._explore_order("Density")
        assert a._explore_order("Density") != a._explore_order("ME")

    def test_seed_changes_exploration_order(self):
        a, b = make_governor(seed=0), make_governor(seed=1)
        functions = ["Density", "ME", "IAD", "FindNeighbors"]
        assert any(
            a._explore_order(fn) != b._explore_order(fn) for fn in functions
        )

    def test_explores_every_candidate_then_exploits(self):
        gov = make_governor()
        observe(gov, "F", 1.0, 100.0)  # first sighting at the default clock
        visited = set()
        for _ in range(len(gov.candidates)):
            freq = gov.frequency_for("F")
            if freq is None:
                break
            visited.add(freq)
            observe(gov, "F", 1.0, 50.0 + freq / 100.0)
        assert visited == set(gov.candidates) - {gov.default_mhz}

    def test_min_energy_picks_lowest_energy(self):
        gov = make_governor("min-energy")
        for freq, joules in zip(gov.candidates, (400.0, 300.0, 200.0, 250.0)):
            gov._clock_mhz = freq
            observe(gov, "F", 1.0, joules)
        assert gov.frequency_for("F") == 960.0

    def test_min_edp_picks_lowest_energy_time_product(self):
        gov = make_governor("min-edp")
        # 960 has the lowest energy but stretches; 1140 wins on EDP.
        points = {1410.0: (1.0, 400.0), 1140.0: (1.1, 310.0), 960.0: (1.8, 300.0), 700.0: (2.5, 320.0)}
        for freq, (seconds, joules) in points.items():
            gov._clock_mhz = freq
            observe(gov, "F", seconds, joules)
        assert gov.frequency_for("F") == 1140.0

    def test_score_ties_break_toward_lower_clock(self):
        gov = make_governor("min-energy")
        for freq in gov.candidates:
            gov._clock_mhz = freq
            observe(gov, "F", 1.0, 100.0)  # all candidates score equal
        # Running clock outside the candidate set: no hysteresis anchor,
        # so the tie among equal scores resolves to the lowest clock.
        gov._clock_mhz = 1275.0
        assert gov.frequency_for("F") == 700.0

    def test_equal_score_never_leaves_current_clock(self):
        gov = make_governor("min-energy")
        for freq in gov.candidates:
            gov._clock_mhz = freq
            observe(gov, "F", 1.0, 100.0)
        gov._clock_mhz = 1410.0
        # A switch must be *earned*: all-equal scores keep the clock even
        # with zero hysteresis.
        assert gov.frequency_for("F") is None

    def test_hysteresis_keeps_current_clock(self):
        gov = make_governor(hysteresis=0.10)
        for freq, joules in zip(gov.candidates, (100.0, 95.0, 99.0, 98.0)):
            gov._clock_mhz = freq
            observe(gov, "F", 1.0, joules)
        gov._clock_mhz = 1410.0
        # Best (1140, 95 J) is only 5 % better than the current 100 J:
        # below the 10 % hysteresis bar, so no switch.
        assert gov.frequency_for("F") is None

    def test_large_improvement_beats_hysteresis(self):
        gov = make_governor(hysteresis=0.10)
        for freq, joules in zip(gov.candidates, (100.0, 50.0, 99.0, 98.0)):
            gov._clock_mhz = freq
            observe(gov, "F", 1.0, joules)
        gov._clock_mhz = 1410.0
        assert gov.frequency_for("F") == 1140.0

    def test_sub_dwell_function_never_switches(self):
        gov = make_governor(dwell_s=0.5)
        observe(gov, "Tiny", 0.01, 1.0)
        for _ in range(3):
            assert gov.frequency_for("Tiny") is None

    def test_switch_function_is_never_governed(self):
        from repro.tuning import SWITCH_FUNCTION

        gov = make_governor()
        observe(gov, SWITCH_FUNCTION, 0.01, 5.0)
        assert gov.frequency_for(SWITCH_FUNCTION) is None
        assert gov.switch_joules == pytest.approx(5.0)
        assert SWITCH_FUNCTION not in gov._stats


class TestPowerCap:
    def make_capped(self, cap=1000.0, **overrides):
        return make_governor("power-cap", power_cap_watts=cap, **overrides)

    def feed_step_cycle(self, gov, times=2):
        """Mark ``times`` completed step cycles (marker sightings)."""
        for _ in range(times):
            observe(gov, "Density", 1.0, 10.0)

    def test_starts_at_slowest_candidate(self):
        gov = self.make_capped()
        assert gov.default_mhz == 700.0
        assert gov.frequency_for("F") == 700.0

    def test_rolling_mean_exactly_at_cap_is_compliant(self):
        gov = self.make_capped(cap=1000.0)
        gov.on_tick(0, tick(0.0, 1000.0))
        assert gov.cap_violation_ticks == 0
        assert gov.max_rolling_watts == pytest.approx(1000.0)

    def test_excess_over_cap_is_counted_and_clamped(self):
        gov = self.make_capped(cap=1000.0)
        gov._ceiling_index = 1
        gov.on_tick(0, tick(0.0, 1100.0))
        assert gov.cap_violation_ticks == 1
        assert gov._ceiling_index == 2  # clamped one step down

    def test_safety_margin_clamps_before_the_cap(self):
        gov = self.make_capped(cap=1000.0, cap_safety=0.9)
        gov._ceiling_index = 1
        gov.on_tick(0, tick(0.0, 950.0))  # over 0.9 * cap, under cap
        assert gov.cap_violation_ticks == 0
        assert gov._ceiling_index == 2

    def test_no_raise_before_a_full_step_cycle(self):
        gov = self.make_capped(cap=5000.0, rolling_window_s=1.0)
        for i in range(30):
            gov.on_tick(0, tick(float(i), 100.0))
        # Plenty of settle time, trivial projection — but no region has
        # completed a step cycle, so the ceiling must not move.
        assert gov.frequency_for("F") == 700.0

    def test_raises_after_settle_and_step_cycle(self):
        gov = self.make_capped(cap=5000.0, rolling_window_s=1.0)
        self.feed_step_cycle(gov)
        for i in range(5):
            gov.on_tick(0, tick(float(i), 100.0))
        assert gov.frequency_for("F") == 960.0

    def test_projection_blocks_unaffordable_raise(self):
        # Quadratic prior from 700 -> 960 scales 600 W to ~1128 W,
        # above 0.97 * 1000: the raise must be refused.
        gov = self.make_capped(cap=1000.0, rolling_window_s=1.0)
        self.feed_step_cycle(gov)
        for i in range(5):
            gov.on_tick(0, tick(float(i), 600.0))
        assert gov.frequency_for("F") == 700.0

    def test_secant_refinement_uses_observed_curve(self):
        # The quadratic prior alone would block 960 -> 1140 at 800 W
        # (800 * (1140/960)^2 = 1128 > 970).  With the 700 MHz point
        # observed at 750 W the doubled secant projects
        # 800 + 2 * (50/260) * 180 = 869 W: affordable.
        gov = self.make_capped(cap=1000.0, rolling_window_s=1.0)
        gov._peak_at_clock[700.0] = 750.0
        gov._ceiling_index = 2  # at 960
        self.feed_step_cycle(gov)
        for i in range(5):
            gov.on_tick(0, tick(float(i), 800.0))
        assert gov.frequency_for("F") == 1140.0

    def test_worst_node_governs_the_cap(self):
        gov = self.make_capped(cap=1000.0)
        gov.on_tick(0, tick(0.0, 500.0))
        gov.on_tick(1, tick(0.0, 1200.0))
        assert gov.cap_violation_ticks == 1
        assert gov.max_rolling_watts == pytest.approx(1200.0)


class TestGovernedRuns:
    @pytest.fixture(scope="class")
    def governed(self):
        return run_scaled_experiment(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            2,
            num_steps=12,
            particles_per_rank=SIDE**3,
            governor="min-edp",
            audit=True,
        )

    def test_report_populated(self, governed):
        report = governed.governor
        assert isinstance(report, GovernorReport)
        assert report.policy == "min-edp"
        assert report.decisions > 0
        assert report.switches > 0
        assert report.clock_table
        assert report.switch_joules > 0

    def test_switch_energy_isolated(self, governed):
        from repro.tuning import SWITCH_FUNCTION

        rec = governed.run.record(0, SWITCH_FUNCTION)
        assert rec.seconds > 0
        assert rec.joules["gpu"] > 0

    def test_audit_clean(self, governed):
        assert governed.audit is not None
        assert not governed.audit.findings

    def test_beats_nominal_static_edp(self, governed):
        static = run_scaled_experiment(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            2,
            num_steps=12,
            particles_per_rank=SIDE**3,
        )
        assert run_edp(governed.run) < run_edp(static.run)

    def test_ungoverned_runs_unperturbed(self):
        kwargs = dict(
            num_steps=4, particles_per_rank=200.0**3
        )
        a = run_scaled_experiment(MINIHPC, SUBSONIC_TURBULENCE, 2, **kwargs)
        b = run_scaled_experiment(MINIHPC, SUBSONIC_TURBULENCE, 2, **kwargs)
        assert a.governor is None
        assert a.run.to_json() == b.run.to_json()
        functions = {r.function for r in a.run.records}
        assert "dvfs-switch" not in functions

    def test_power_cap_compliance(self):
        config = GovernorConfig.for_system(
            "power-cap", MINIHPC, power_cap_watts=500.0
        )
        result = run_scaled_experiment(
            MINIHPC,
            SUBSONIC_TURBULENCE,
            2,
            num_steps=12,
            particles_per_rank=SIDE**3,
            governor=config,
        )
        report = result.governor
        assert report.power_cap_watts == pytest.approx(500.0)
        assert report.max_rolling_watts <= 500.0
        assert report.cap_violation_ticks == 0

    def test_config_object_and_policy_name_agree(self):
        by_name = run_scaled_experiment(
            MINIHPC, SUBSONIC_TURBULENCE, 2, num_steps=4,
            particles_per_rank=200.0**3, governor="min-edp",
        )
        by_config = run_scaled_experiment(
            MINIHPC, SUBSONIC_TURBULENCE, 2, num_steps=4,
            particles_per_rank=200.0**3,
            governor=GovernorConfig.for_system("min-edp", MINIHPC),
        )
        assert by_name.run.to_json() == by_config.run.to_json()


class TestCampaignIdentity:
    def base_key(self, governor=None):
        return RunKey(
            system="miniHPC",
            test_case="Subsonic Turbulence",
            num_cards=2,
            gpu_freq_mhz=None,
            num_steps=4,
            particles_per_rank=200.0**3,
            seed=0,
            governor=governor,
        )

    def test_governor_changes_cache_identity(self):
        assert run_key_hash(self.base_key()) != run_key_hash(
            self.base_key("min-edp")
        )

    def test_governor_in_label(self):
        assert self.base_key("min-edp").label.endswith("/min-edp")
        assert "min-edp" not in self.base_key().label

    def test_unknown_governor_rejected(self):
        with pytest.raises(ConfigurationError):
            self.base_key("overclock")

    def test_spec_expands_governor_to_every_key(self):
        spec = CampaignSpec(
            name="gov",
            systems=("miniHPC",),
            test_cases=("Subsonic Turbulence",),
            card_counts=(2, 4),
            governor="min-energy",
        )
        keys = expand(spec)
        assert len(keys) == 2
        assert all(key.governor == "min-energy" for key in keys)
