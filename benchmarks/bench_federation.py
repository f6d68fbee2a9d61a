"""Federated campaign queue: byte-identical drains and kill/steal recovery.

The acceptance properties of the lease-based federated work queue:

* a 4-worker federated drain of a 64-point campaign against one shared
  cache is **byte-identical** (cache file bytes, not just values) to the
  serial reference sweep;
* the union of the worker journals shows every key executed exactly
  once — zero lost, zero duplicated;
* SIGKILLing a lease holder mid-run loses nothing: its lease goes
  stale, a surviving worker steals it, and the campaign still finishes
  with every key archived exactly once;
* a warm federated drain executes zero simulation steps.

The result file records only deterministic quantities (point counts,
steps, per-frequency energies) so the determinism CI gate can diff it;
wall-clock timings and lease timing are asserted, not persisted.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from conftest import write_result

from repro.campaign import CampaignSpec, ResultStore, execute, expand
from repro.campaign.queue import (
    FederationConfig,
    Journal,
    LeaseQueue,
    WorkerProfile,
    drain,
)
from repro.campaign.keys import run_key_hash

FREQS_MHZ = (1410.0, 1230.0, 1095.0, 1005.0)
SMOKE_SEEDS = tuple(range(16))  # 4 freqs x 16 seeds = 64 points
FULL_SEEDS = tuple(range(32))  # 4 freqs x 32 seeds = 128 points
NUM_STEPS = 2
WORKERS = 4


def _spec(seeds, side: int) -> CampaignSpec:
    return CampaignSpec(
        name="federation-bench",
        systems=("miniHPC",),
        test_cases=("Subsonic Turbulence",),
        card_counts=(2,),
        freqs_mhz=FREQS_MHZ,
        num_steps=NUM_STEPS,
        particles_per_rank=(float(side**3),),
        seeds=seeds,
    )


def _config(**overrides) -> FederationConfig:
    kwargs = dict(
        lease_ttl_s=30.0, heartbeat_s=0.5, retry_backoff_s=0.0, poll_s=0.01
    )
    kwargs.update(overrides)
    return FederationConfig(**kwargs)


def _store_bytes(store: ResultStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in store.entries()}


def _blocker(root: str, digest: str, ready) -> None:
    """Claim one lease and hang without heartbeats (a worker to murder)."""
    queue = LeaseQueue(root, profile=WorkerProfile.local(token="victim"))
    lease = queue.try_acquire(digest)
    assert lease is not None
    ready.set()
    time.sleep(600)


def _mean_energy_by_freq(results) -> dict[float, float]:
    by_freq: dict[float, list[float]] = {}
    for key, result in results.items():
        by_freq.setdefault(key.gpu_freq_mhz, []).append(
            result.accounting.consumed_energy_joules
        )
    return {f: sum(v) / len(v) for f, v in sorted(by_freq.items())}


def _run_federation(results_dir, tmp_path, name, seeds, side):
    keys = expand(_spec(seeds, side))
    assert len(keys) >= 64

    # Serial reference sweep.
    serial_store = ResultStore(tmp_path / "serial")
    serial, serial_stats = execute(keys, store=serial_store)
    assert serial_stats.misses == len(keys)

    # 4-worker federated drain of the same spec into a fresh cache.
    fed_store = ResultStore(tmp_path / "federated")
    federated, fed_stats = execute(
        keys, store=fed_store, workers=WORKERS, federation=_config()
    )
    assert fed_stats.workers == WORKERS
    assert fed_stats.misses == len(keys)
    assert federated == serial, "federated sweep diverged from serial"
    assert _store_bytes(fed_store) == _store_bytes(serial_store), (
        "federated cache bytes differ from the serial reference"
    )

    # Journals: every key executed exactly once across all workers.
    digests = Journal.executed_digests(fed_store.root)
    assert len(digests) == len(keys), "lost runs"
    assert len(set(digests)) == len(keys), "duplicated runs"
    # How many workers got a share is scheduling-dependent (not
    # persisted: the result file must be deterministic) — but at least
    # one journal must exist and they must union to exactly the keys.
    journals = Journal.read_all(fed_store.root)
    assert sum(1 for lines in journals.values() if lines) >= 1

    # Warm federated drain: pure hits, zero steps, bytes untouched.
    before = _store_bytes(fed_store)
    warm, warm_stats = execute(
        keys, store=fed_store, workers=WORKERS, federation=_config()
    )
    assert warm_stats.hits == len(keys)
    assert warm_stats.executed_steps == 0
    assert warm == serial
    assert _store_bytes(fed_store) == before

    # Kill/steal: murder a lease holder, the drain must recover its key.
    kill_store = ResultStore(tmp_path / "killed")
    victim = keys[0]
    ctx = multiprocessing.get_context()
    ready = ctx.Event()
    blocker = ctx.Process(
        target=_blocker,
        args=(str(kill_store.root), run_key_hash(victim), ready),
    )
    blocker.start()
    assert ready.wait(timeout=60)
    os.kill(blocker.pid, signal.SIGKILL)
    blocker.join()
    time.sleep(0.6)  # let the abandoned lease cross its short TTL
    rescue_stats = drain(
        keys,
        kill_store,
        config=_config(lease_ttl_s=0.5, heartbeat_s=0.1),
        profile=WorkerProfile.local(token="rescuer"),
    )
    assert rescue_stats.steals >= 1, "the dead worker's lease was not stolen"
    assert rescue_stats.executed == len(keys), "kill/steal lost runs"
    kill_digests = Journal.executed_digests(kill_store.root)
    assert len(kill_digests) == len(set(kill_digests)) == len(keys)
    assert _store_bytes(kill_store) == _store_bytes(serial_store), (
        "recovery after SIGKILL diverged from the serial reference"
    )

    energies = _mean_energy_by_freq(serial)
    lines = [
        f"Federation {name}: {len(keys)} points "
        f"({len(FREQS_MHZ)} freqs x {len(seeds)} seeds, side {side}^3, "
        f"{NUM_STEPS} steps), {WORKERS} workers sharing one cache",
        f"serial == federated({WORKERS}) == post-SIGKILL recovery: "
        "byte-identical cache files",
        f"journals: {len(digests)} executed, 0 duplicated",
        f"kill/steal: 1 lease holder SIGKILLed, "
        f"{rescue_stats.steals} lease stolen, 0 runs lost",
        f"warm drain: {warm_stats.hits} hits, 0 steps executed",
        "",
        "Mean energy per run by frequency (J):",
    ]
    for freq, joules in energies.items():
        lines.append(f"  {freq:>6.0f} MHz  {joules:12.3f}")
    write_result(results_dir, name, "\n".join(lines))


def bench_smoke_federation(results_dir, tmp_path):
    """64-point federated drain (`make bench-smoke` / determinism gate)."""
    _run_federation(
        results_dir, tmp_path, "federation_smoke", SMOKE_SEEDS, side=30
    )


def bench_federation_full(results_dir, tmp_path):
    """128-point federated drain at a larger problem size (`make bench`)."""
    _run_federation(results_dir, tmp_path, "federation", FULL_SEEDS, side=40)
