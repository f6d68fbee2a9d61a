"""What each metric means and what it should move.

``BENCHMARK.json`` at the repository root is the one list of workloads
and metrics, with their units; ``run.py`` reads it.  This file adds what
``BENCHMARK.json`` does not hold: the work item and latency-bearing
operation behind each workload's end-to-end metrics, the end-to-end
metric and workload each per-layer metric should move, and which
per-layer counts repeat exactly between two traced runs.

Every workload reports every end-to-end metric, each measured on that
workload.  The per-item cost and the median latency are defined on
each workload's own unit of work (see ``E2E_MEANING``); they and
``setup_s`` are scaled to a reference host speed
(``workloads.CALIB_REF_MS``).  A per-layer metric whose layer a workload
never calls reads 0 there: the traced run counted zero calls.
"""

from __future__ import annotations

#: What the work item and the latency-bearing operation are per workload.
E2E_MEANING = {
    "sph_turbulence": ("particle-step", "one solver step"),
    "sph_evrard": ("particle-step", "one solver step"),
    "campaign_sweep": ("cold campaign key", "one warm pass, per key"),
    "service_ingest_query": ("ingested sample", "one HTTP range query"),
}

_SPH = "sph_turbulence, sph_evrard"
_COLD = "us_per_item_norm @ campaign_sweep"
_WARM = "latency_p50_ms_norm @ campaign_sweep"
_INGEST = "us_per_item_norm @ service_ingest_query"

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "setup.import_s": "setup_s @ all",
    "setup.repeat_s": "setup_s @ all",
    "trace.overhead_ratio": "none (traced / untraced timed wall)",
    "host.calib_ms": "none (host speed; scales setup_s and the *_norm times)",
    "sph.find_neighbors_us_per_particle_step": f"us_per_item_norm @ {_SPH}",
    "sph.neighbor_builds_per_step": f"us_per_item_norm @ {_SPH}",
    "sph.mean_neighbors": f"us_per_item_norm @ {_SPH}",
    "sph.iad_us_per_particle_step": f"us_per_item_norm @ {_SPH}",
    "sph.momentum_energy_us_per_particle_step": f"us_per_item_norm @ {_SPH}",
    "sph.driving_us_per_particle_step": "us_per_item_norm @ sph_turbulence",
    "sph.gravity_us_per_particle_step":
        "us_per_item_norm @ sph_evrard (flat on sph_turbulence)",
    "sph.other_us_per_particle_step": f"us_per_item_norm @ {_SPH}",
    "sensors.sysfs_reads_per_key": _COLD,
    "sensors.sysfs_read_self_us": _COLD,
    "pmt.reads_per_key": _COLD,
    "pmt.read_self_us": _COLD,
    "instrumentation.region_ends_per_key": _COLD,
    "instrumentation.end_self_us": _COLD,
    "instrumentation.begin_self_us": _COLD,
    "mpi.run_phase_self_ms_per_key": _COLD,
    "hardware.clock_advance_self_us": _COLD,
    "tuning.governor_self_ms_per_key": _COLD,
    "campaign.execute_key_self_ms": _COLD,
    "campaign.put_ms": _COLD,
    "campaign.entry_kb": f"{_COLD}, {_WARM}",
    "campaign.store_ops_per_key": f"{_COLD}, {_WARM}",
    "campaign.lookup_ms": _WARM,
    "audit.campaign_result_ms": _WARM,
    "campaign.key_hash_us": _WARM,
    "service.encode_us_per_batch": "setup_s @ service_ingest_query",
    "service.publish_us_per_batch": _INGEST,
    "service.decode_us_per_frame": _INGEST,
    "service.frames_decoded": _INGEST,
    "service.parse_batch_us": _INGEST,
    "service.offer_us_per_batch": _INGEST,
    "service.drain_ns_per_sample": _INGEST,
    "service.bytes_per_sample": _INGEST,
    "timeseries.range_query_us": "latency_p50_ms_norm @ service_ingest_query",
}

#: Per-layer counts that follow the virtual clock, not the host, so they
#: repeat exactly between two traced runs of one seed; the report marks
#: them ``[exact]``.
DETERMINISTIC_COUNTS = (
    "sph.neighbor_builds_per_step",
    "sph.mean_neighbors",
    "sensors.sysfs_reads_per_key",
    "pmt.reads_per_key",
    "instrumentation.region_ends_per_key",
    "campaign.entry_kb",
    "campaign.store_ops_per_key",
    "service.frames_decoded",
    "service.bytes_per_sample",
)
