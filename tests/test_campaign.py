"""Campaign engine: spec expansion, content-addressed caching, parallelism.

The load-bearing properties:

* the cache key commits to every physics- and measurement-relevant
  configuration field (changing one invalidates the entry) but to no
  cosmetic execution setting (cache location, worker count);
* a ``workers=N`` sweep is bit-identical to the serial ``workers=1`` one;
* merges are order-independent and reproduce exactly what the serial
  experiment loops used to return;
* a fully-cached re-run executes zero simulation steps.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.breakdown import device_breakdown, function_breakdown
from repro.analysis.edp import normalized_edp_series, run_edp
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RunKey,
    campaign_summary,
    execute,
    execute_key,
    expand,
    merge_figure4,
    run_key_hash,
    sort_key,
)
from repro.campaign.executor import CampaignStats
from repro.config import (
    CampaignSettings,
    MINIHPC,
    SUBSONIC_TURBULENCE,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.breakdowns import figure2_breakdowns
from repro.experiments.frequency import (
    BASELINE_MHZ,
    figure4_series,
    figure4_spec,
    particles_of_side,
)
from repro.experiments.runner import run_scaled_experiment
from repro.experiments.scaling import weak_scaling_series
from repro.experiments.validation import figure1_series
from repro.instrumentation.records import RunMeasurements, TelemetryHealthRecord
from repro.instrumentation.reporting import campaign_health_summary
from tests.oracles.measurement import canonical_payload

STEPS = 4
SIDES = (100, 140)
FREQS = (1410.0, 1005.0)

def small_fig4_spec(**overrides) -> CampaignSpec:
    kwargs = dict(cube_sides=SIDES, freqs_mhz=FREQS, num_steps=STEPS)
    kwargs.update(overrides)
    return figure4_spec(**kwargs)


def a_key(**overrides) -> RunKey:
    kwargs = dict(
        system="miniHPC",
        test_case="Subsonic Turbulence",
        num_cards=2,
        gpu_freq_mhz=1410.0,
        num_steps=STEPS,
        particles_per_rank=particles_of_side(100),
        seed=0,
    )
    kwargs.update(overrides)
    return RunKey(**kwargs)


class TestSpecExpansion:
    def test_cartesian_product_size(self):
        spec = small_fig4_spec()
        assert spec.num_points == len(SIDES) * len(FREQS)
        assert len(expand(spec)) == spec.num_points

    def test_defaults_resolve_to_paper_values(self):
        spec = CampaignSpec(
            name="t",
            systems=("CSCS-A100",),
            test_cases=("Subsonic Turbulence",),
            card_counts=(8,),
        )
        (key,) = expand(spec)
        assert key.num_steps == SUBSONIC_TURBULENCE.num_steps
        assert key.particles_per_rank == SUBSONIC_TURBULENCE.particles_per_gpu
        assert key.gpu_freq_mhz is None

    def test_expansion_order_is_deterministic(self):
        spec = small_fig4_spec()
        assert expand(spec) == expand(spec)

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="t",
                systems=("NoSuchMachine",),
                test_cases=("Subsonic Turbulence",),
                card_counts=(8,),
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="t", systems=(), test_cases=("Subsonic Turbulence",),
                card_counts=(8,),
            )

    def test_duplicate_points_rejected(self):
        spec = small_fig4_spec(freqs_mhz=(1410.0, 1410.0))
        with pytest.raises(ConfigurationError):
            expand(spec)

    def test_sort_key_totally_orders_none_frequency(self):
        keys = [a_key(gpu_freq_mhz=f) for f in (1410.0, None, 1005.0)]
        ordered = sorted(keys, key=sort_key)
        assert ordered[0].gpu_freq_mhz is None
        assert ordered[1].gpu_freq_mhz == 1005.0


class TestRunKeyHash:
    """Satellite: cache invalidation semantics of the content address."""

    def test_stable_across_calls(self):
        assert run_key_hash(a_key()) == run_key_hash(a_key())

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"gpu_freq_mhz": 1005.0},
            {"gpu_freq_mhz": None},
            {"num_steps": STEPS + 1},
            {"particles_per_rank": particles_of_side(140)},
            {"num_cards": 4},
            {"system": "CSCS-A100"},
            {"test_case": "Evrard Collapse"},
        ],
    )
    def test_every_key_field_changes_the_hash(self, change):
        assert run_key_hash(a_key(**change)) != run_key_hash(a_key())

    def test_physics_config_content_changes_the_hash(self):
        """A GPU power-model coefficient edit must invalidate the cache."""
        base = MINIHPC
        gpu = base.node_spec.gpu
        hotter = dataclasses.replace(
            gpu,
            power_model=dataclasses.replace(
                gpu.power_model, compute_watts=gpu.power_model.compute_watts + 1.0
            ),
        )
        modified = dataclasses.replace(
            base, node_spec=dataclasses.replace(base.node_spec, gpu=hotter)
        )
        assert run_key_hash(a_key(), system=modified) != run_key_hash(a_key())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pmt_backend", "dummy"),
            ("has_memory_sensor", True),
            ("max_nodes", 7),
        ],
    )
    def test_measurement_config_fields_change_the_hash(self, field, value):
        modified = dataclasses.replace(MINIHPC, **{field: value})
        assert run_key_hash(a_key(), system=modified) != run_key_hash(a_key())

    def test_slurm_timing_changes_the_hash(self):
        """Setup-phase timing feeds the Figure 1 gap: not cosmetic."""
        timing = dataclasses.replace(MINIHPC.slurm_timing, launch_base_s=99.0)
        modified = dataclasses.replace(MINIHPC, slurm_timing=timing)
        assert run_key_hash(a_key(), system=modified) != run_key_hash(a_key())

    def test_test_case_content_changes_the_hash(self):
        modified = dataclasses.replace(SUBSONIC_TURBULENCE, has_driving=False)
        assert (
            run_key_hash(a_key(), test_case=modified) != run_key_hash(a_key())
        )

    def test_code_version_changes_the_hash(self, monkeypatch):
        import repro.campaign.keys as keys_mod

        before = run_key_hash(a_key())
        monkeypatch.setattr(keys_mod, "CODE_VERSION", "test-bump")
        assert run_key_hash(a_key()) != before

    def test_cosmetic_settings_never_enter_the_payload(self):
        """Output paths and worker counts must not perturb the address."""
        payload = json.dumps(canonical_payload(a_key()))
        for needle in ("workers", "cache_dir", "cache-dir", "output"):
            assert needle not in payload

    def test_store_location_is_not_part_of_the_address(self, tmp_path):
        a = ResultStore(tmp_path / "a").path_for(a_key())
        b = ResultStore(tmp_path / "somewhere" / "else").path_for(a_key())
        assert a.name == b.name


class TestResultStore:
    def test_roundtrip_is_exact(self, tmp_path):
        key = a_key()
        result = execute_key(key)
        store = ResultStore(tmp_path)
        store.put(key, result)
        loaded = store.get(key)
        assert loaded == result  # dataclass equality: bit-identical floats

    def test_missing_and_corrupt_entries_read_as_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        assert store.get(key) is None
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get(key) is None

    def test_entry_for_wrong_key_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key, other = a_key(), a_key(seed=1)
        store.put(key, execute_key(key))
        # Simulate a collision/tamper: other's address holds key's entry.
        other_path = store.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_text(store.path_for(key).read_text())
        assert store.get(other) is None

    def test_clean_by_keys_and_wholesale(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [a_key(seed=s) for s in (0, 1, 2)]
        for key in keys:
            store.put(key, execute_key(key))
        assert store.stats()["entries"] == 3
        assert store.clean(tuple(keys[:1])) == 1
        assert store.stats()["entries"] == 2
        assert store.clean() == 2
        assert store.stats() == {
            "entries": 0,
            "bytes": 0,
            "corrupt": 0,
            "stale": 0,
            "tmp_orphans": 0,
        }


class TestExecutor:
    def test_sharded_equals_serial_bit_for_bit(self, tmp_path):
        keys = expand(small_fig4_spec())
        serial, serial_stats = execute(keys, workers=1)
        sharded, sharded_stats = execute(
            keys, store=ResultStore(tmp_path), workers=4
        )
        assert serial == sharded  # full dataclass equality, every float
        assert serial_stats.misses == sharded_stats.misses == len(keys)

    def test_repeat_run_executes_zero_steps(self, tmp_path):
        keys = expand(small_fig4_spec())
        store = ResultStore(tmp_path)
        _, cold = execute(keys, store=store)
        assert cold.executed_steps == STEPS * len(keys)
        results, warm = execute(keys, store=store)
        assert warm.executed_steps == 0
        assert warm.hits == len(keys)
        assert len(results) == len(keys)

    def test_resume_runs_only_the_missing_points(self, tmp_path):
        keys = expand(small_fig4_spec())
        store = ResultStore(tmp_path)
        execute(keys[:2], store=store)  # "killed" after two points
        _, stats = execute(keys, store=store)
        assert stats.hits == 2
        assert stats.misses == len(keys) - 2

    def test_progress_reports_every_point(self, tmp_path):
        keys = expand(small_fig4_spec())
        seen = []
        execute(
            keys,
            store=ResultStore(tmp_path),
            progress=lambda stats, key: seen.append((stats.done, key)),
        )
        assert [done for done, _ in seen] == list(range(1, len(keys) + 1))
        assert {key for _, key in seen} == set(keys)

    def test_duplicate_keys_rejected(self):
        key = a_key()
        with pytest.raises(ConfigurationError):
            execute((key, key))

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            execute((a_key(),), workers=0)


class TestMerges:
    @pytest.fixture(scope="class")
    def results(self):
        results, _ = execute(expand(small_fig4_spec()))
        return results

    def test_merge_is_order_independent(self, results):
        forward = dict(sorted(results.items(), key=lambda i: sort_key(i[0])))
        backward = dict(
            sorted(results.items(), key=lambda i: sort_key(i[0]), reverse=True)
        )
        assert merge_figure4(forward, BASELINE_MHZ) == merge_figure4(
            backward, BASELINE_MHZ
        )

    def test_figure4_matches_the_preexisting_serial_loop(self, results):
        """The campaign path reproduces the old serial implementation."""
        expected = {}
        for side in SIDES:
            by_freq = {}
            for freq in FREQS:
                run = run_scaled_experiment(
                    MINIHPC,
                    SUBSONIC_TURBULENCE,
                    num_cards=MINIHPC.cards_per_node,
                    gpu_freq_mhz=freq,
                    num_steps=STEPS,
                    particles_per_rank=particles_of_side(side),
                    seed=0,
                ).run
                by_freq[freq] = run_edp(run)
            expected[side] = normalized_edp_series(by_freq, BASELINE_MHZ)
        assert merge_figure4(results, BASELINE_MHZ) == expected

    def test_figure4_series_sharded_equals_serial(self, tmp_path):
        serial = figure4_series(
            cube_sides=SIDES, freqs_mhz=FREQS, num_steps=STEPS
        )
        sharded = figure4_series(
            cube_sides=SIDES,
            freqs_mhz=FREQS,
            num_steps=STEPS,
            workers=4,
            store=ResultStore(tmp_path),
        )
        assert serial == sharded

    def test_weak_scaling_series_sharded_equals_serial(self, tmp_path):
        from repro.config import CSCS_A100

        serial = weak_scaling_series(CSCS_A100, (8, 16), num_steps=STEPS)
        sharded = weak_scaling_series(
            CSCS_A100,
            (8, 16),
            num_steps=STEPS,
            workers=2,
            store=ResultStore(tmp_path),
        )
        assert serial == sharded

    def test_figure1_series_cached_equals_serial(self, tmp_path):
        from repro.config import CSCS_A100

        store = ResultStore(tmp_path)
        serial = figure1_series(CSCS_A100, (8, 16), num_steps=STEPS)
        warm = figure1_series(
            CSCS_A100, (8, 16), num_steps=STEPS, store=store
        )
        cached = figure1_series(
            CSCS_A100, (8, 16), num_steps=STEPS, store=store
        )
        assert serial == warm == cached

    def test_figure2_breakdowns_cached_equal_direct_runs(self, tmp_path):
        serial = figure2_breakdowns(num_cards=8, num_steps=3)
        store = ResultStore(tmp_path)
        cold = figure2_breakdowns(num_cards=8, num_steps=3, store=store)
        warm = figure2_breakdowns(num_cards=8, num_steps=3, store=store)
        assert serial == cold == warm
        assert [cell.label for cell in serial] == [
            "LUMI-Turb",
            "LUMI-Evr",
            "CSCS-A100-Turb",
            "CSCS-A100-Evr",
        ]
        for cell in serial:
            run = run_scaled_experiment(cell.system, cell.test_case, 8, num_steps=3).run
            assert cell.devices == device_breakdown(run)
            assert cell.gpu_functions == function_breakdown(run, "gpu")
            assert cell.cpu_functions == function_breakdown(run, "cpu")

    def test_non_cubic_particle_count_rejected(self, results):
        key, result = next(iter(results.items()))
        bad = dataclasses.replace(key, particles_per_rank=12345.0)
        with pytest.raises(AnalysisError):
            merge_figure4({bad: result}, BASELINE_MHZ)


class TestSummary:
    def _run(self, degraded: bool) -> RunMeasurements:
        health = TelemetryHealthRecord(
            node_index=0,
            reads=10,
            retries=2,
            degraded_children=["gpu0"] if degraded else [],
            status="degraded" if degraded else "ok",
        )
        return RunMeasurements(
            system_name="miniHPC",
            test_case="Subsonic Turbulence",
            num_ranks=2,
            num_nodes=1,
            gcds_per_card=1,
            gpu_freq_mhz=1410.0,
            num_steps=4,
            particles_per_rank=1e6,
            app_start=0.0,
            app_end=1.0,
            telemetry_health=[health],
        )

    def test_clean_campaign_reports_ok(self):
        text = campaign_health_summary({"a": self._run(False)})
        assert "ok across 1 runs" in text
        assert "2 transient mitigations" in text

    def test_degraded_shard_is_named(self):
        text = campaign_health_summary(
            {"good": self._run(False), "bad": self._run(True)}
        )
        assert "1 of 2 runs DEGRADED" in text
        assert "bad: node 0: gpu0" in text
        assert "good" not in text.split("\n")[1]

    def test_campaign_summary_surfaces_health_and_stats(self, tmp_path):
        keys = expand(small_fig4_spec())
        results, stats = execute(keys, store=ResultStore(tmp_path))
        text = campaign_summary("fig4", stats, results)
        assert f"{len(keys)} points" in text
        assert f"Simulation steps executed: {stats.executed_steps}" in text
        assert "Telemetry QC: ok" in text

    def test_empty_campaign(self):
        assert "no runs" in campaign_health_summary({})
        text = campaign_summary("empty", CampaignStats(), {})
        assert "0 points" in text


class TestCampaignSettings:
    def test_defaults_are_serial(self):
        settings = CampaignSettings()
        assert settings.workers == 1
        assert settings.cache_dir

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSettings(workers=0)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "3")
        settings = CampaignSettings.from_env()
        assert settings.cache_dir == "/tmp/elsewhere"
        assert settings.workers == 3

    def test_bad_env_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            CampaignSettings.from_env()


class TestCampaignCli:
    ARGS = [
        "--sides", "100", "140", "--freqs", "1410", "1005", "--steps", "4",
    ]

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_run_status_clean_cycle(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert self._main(["campaign", "run", "fig4", *self.ARGS, *cache]) == 0
        out = capsys.readouterr().out
        assert "side^3" in out
        assert "4 points (0 cached, 4 executed" in out

        assert self._main(["campaign", "status", "fig4", *self.ARGS, *cache]) == 0
        assert "4 cached, 0 to run" in capsys.readouterr().out

        assert self._main(["campaign", "run", "fig4", *self.ARGS, *cache]) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 executed" in out
        assert "Simulation steps executed: 0" in out

        assert self._main(
            ["campaign", "clean", "fig4", *self.ARGS, *cache]
        ) == 0
        assert "removed 4" in capsys.readouterr().out

    def test_run_without_cache(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "fig4", *self.ARGS,
            "--no-cache", "--quiet",
            "--cache-dir", str(tmp_path / "unused"),
        ]
        assert self._main(argv) == 0
        assert not (tmp_path / "unused").exists()

    def test_get_system_error_is_reported(self, capsys):
        # Unknown sweep names are argparse errors, exercised elsewhere;
        # a campaign over a bad card count surfaces as a ReproError.
        rc = self._main(
            ["campaign", "run", "weak-scaling", "--cards", "3", "--quiet"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
