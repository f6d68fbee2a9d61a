"""Federated campaign queue: leases, failures, recovery, equivalence.

The load-bearing properties:

* exactly one worker can hold a key's lease, no matter how many race;
* a SIGKILLed worker's lease goes stale and is stolen — its key is
  recovered with zero lost and zero duplicated executions;
* worker failures never abort a drain: they are archived as typed
  records, retried with deterministic backoff, and poisoned keys are
  quarantined rather than re-leased forever;
* a federated drain is byte-identical to the serial reference, asserted
  down to the cache file bytes (hypothesis-driven over specs).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RunKey,
    campaign_summary,
    execute,
    execute_key,
    expand,
    run_key_hash,
)
from repro.campaign.queue import (
    BACKOFF,
    POISONED,
    FailureLog,
    FederationConfig,
    Journal,
    LeaseQueue,
    WorkerProfile,
    drain,
    failure_backoff_s,
    gc_sweep,
)
from repro.cli import main
from repro.errors import CampaignExecutionError, ConfigurationError

STEPS = 2


def a_key(**overrides) -> RunKey:
    kwargs = dict(
        system="miniHPC",
        test_case="Subsonic Turbulence",
        num_cards=2,
        gpu_freq_mhz=1410.0,
        num_steps=STEPS,
        particles_per_rank=27_000,  # 30^3: a few ms per run
        seed=0,
    )
    kwargs.update(overrides)
    return RunKey(**kwargs)


def small_spec(seeds=(0, 1, 2, 3)) -> CampaignSpec:
    return CampaignSpec(
        name="fed-test",
        systems=("miniHPC",),
        test_cases=("Subsonic Turbulence",),
        card_counts=(2,),
        freqs_mhz=(1410.0,),
        num_steps=STEPS,
        particles_per_rank=(27_000,),
        seeds=tuple(seeds),
    )


def fast_config(**overrides) -> FederationConfig:
    kwargs = dict(
        lease_ttl_s=30.0,
        heartbeat_s=0.05,
        max_attempts=3,
        retry_backoff_s=0.0,
        poll_s=0.01,
    )
    kwargs.update(overrides)
    return FederationConfig(**kwargs)


def store_bytes(store: ResultStore) -> dict[str, bytes]:
    """Every cache entry's raw bytes, keyed by file name."""
    return {path.name: path.read_bytes() for path in store.entries()}


class TestLeaseQueue:
    def test_acquire_is_exclusive(self, tmp_path):
        q1 = LeaseQueue(tmp_path, profile=WorkerProfile.local(token="a"))
        q2 = LeaseQueue(tmp_path, profile=WorkerProfile.local(token="b"))
        lease = q1.try_acquire("d" * 64)
        assert lease is not None
        assert q2.try_acquire("d" * 64) is None
        lease.release()
        assert q2.try_acquire("d" * 64) is not None

    def test_lease_file_names_the_holder(self, tmp_path):
        profile = WorkerProfile.local(token="tok")
        queue = LeaseQueue(tmp_path, profile=profile)
        lease = queue.try_acquire("e" * 64)
        payload = json.loads(lease.path.read_text())
        assert payload["holder"] == profile.worker_id
        assert payload["token"] == "tok"
        lease.release()
        assert not lease.path.exists()

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        queue = LeaseQueue(tmp_path, config=fast_config())
        lease = queue.try_acquire("f" * 64)
        old = time.time() - 100.0
        os.utime(lease.path, (old, old))
        lease.start_heartbeat(0.02)
        deadline = time.time() + 5.0
        while lease.path.stat().st_mtime < old + 50 and time.time() < deadline:
            time.sleep(0.01)
        assert lease.path.stat().st_mtime > old + 50
        lease.release()

    def test_stale_lease_is_stolen_exactly_once(self, tmp_path):
        config = fast_config(lease_ttl_s=0.2, heartbeat_s=0.05)
        holder = LeaseQueue(
            tmp_path, profile=WorkerProfile.local(token="dead"), config=config
        )
        lease = holder.try_acquire("a" * 64)
        old = time.time() - 10.0
        os.utime(lease.path, (old, old))  # simulate a dead heartbeat
        thief = LeaseQueue(
            tmp_path, profile=WorkerProfile.local(token="thief"), config=config
        )
        stolen = thief.try_acquire("a" * 64)
        assert stolen is not None
        assert thief.stolen == 1
        # The original holder cannot release what was stolen from it.
        lease.release()
        assert stolen.path.is_file()
        stolen.release()

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        config = fast_config(lease_ttl_s=60.0)
        holder = LeaseQueue(tmp_path, config=config)
        lease = holder.try_acquire("b" * 64)
        thief = LeaseQueue(
            tmp_path, profile=WorkerProfile.local(token="t2"), config=config
        )
        assert thief.try_acquire("b" * 64) is None
        assert thief.stolen == 0
        lease.release()

    def test_sweep_reaps_only_stale(self, tmp_path):
        config = fast_config(lease_ttl_s=0.2)
        queue = LeaseQueue(tmp_path, config=config)
        stale = queue.try_acquire("c" * 64)
        fresh = queue.try_acquire("d" * 64)
        old = time.time() - 10.0
        os.utime(stale.path, (old, old))
        assert queue.sweep() == 1
        live, stale_count = queue.active()
        assert (live, stale_count) == (1, 0)
        fresh.release()

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            FederationConfig(lease_ttl_s=1.0, heartbeat_s=2.0)
        with pytest.raises(ConfigurationError):
            FederationConfig(max_attempts=0)


class TestStoreFederation:
    """Satellite: collision-proof temp names, orphan reaping."""

    def test_tmp_name_embeds_host_pid_token(self, tmp_path):
        store = ResultStore(tmp_path)
        tmp = store._tmp_path(tmp_path / "ab" / "deadbeef.json")
        import socket

        assert socket.gethostname() in tmp.name
        assert str(os.getpid()) in tmp.name
        # Distinct calls never collide (random token).
        assert tmp.name != store._tmp_path(tmp_path / "ab" / "deadbeef.json").name

    def test_orphans_counted_and_reaped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        store.put(key, execute_key(key))
        shard = store.path_for(key).parent
        orphan = shard / ".dead.json.tmp-otherhost-123-abcd"
        orphan.write_text("partial write of a killed worker")
        assert store.stats()["tmp_orphans"] == 1
        assert store.reap_tmp() == 1
        assert store.stats()["tmp_orphans"] == 0
        assert store.get(key) is not None  # real entries untouched

    def test_clean_reaps_orphans_too(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        store.put(key, execute_key(key))
        shard = store.path_for(key).parent
        (shard / ".dead.json.tmp-x-1-ff").write_text("junk")
        store.clean()
        assert store.tmp_orphans() == []

    def test_put_succeeds_while_orphan_present(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        (path.parent / f".{path.name}.tmp-ghost-1-00").write_text("junk")
        store.put(key, execute_key(key))
        assert store.get(key) is not None


class TestCorruptEntries:
    """Satellite: corrupt cache entries are counted, not silent misses."""

    def corrupt_one(self, store, key):
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")

    def test_lookup_distinguishes_corrupt_from_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        assert store.lookup(key) == (None, "miss")
        self.corrupt_one(store, key)
        result, status = store.lookup(key)
        assert (result, status) == (None, "corrupt")
        assert store.corrupt_seen == 1
        assert store.stats()["corrupt"] == 1

    def test_execute_counts_quarantines_and_reexecutes(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1)))
        execute(keys, store=store)
        self.corrupt_one(store, keys[0])
        results, stats = execute(keys, store=store)
        assert stats.corrupt == 1
        assert stats.hits == 1
        assert stats.misses == 1  # re-executed over the rot
        assert len(results) == 2
        quarantined = list((store.root / store.QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1
        assert store.get(keys[0]) is not None  # clean entry re-archived

    def test_summary_surfaces_cache_rot(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0,)))
        execute(keys, store=store)
        self.corrupt_one(store, keys[0])
        results, stats = execute(keys, store=store)
        text = campaign_summary("t", stats, results)
        assert "Cache health: 1 corrupt entry" in text
        clean_results, clean_stats = execute(keys, store=store)
        assert "Cache health" not in campaign_summary(
            "t", clean_stats, clean_results
        )

    def test_non_object_entry_reads_as_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2]")
        assert store.lookup(key) == (None, "corrupt")
        assert store.stats()["corrupt"] == 1

    #: Entries that parse as JSON of the right schema but do not decode.
    DAMAGES = {
        "run-without-records": lambda entry: entry["run"].pop("records"),
        "key-with-zero-cards": lambda entry: entry["key"].update(num_cards=0),
    }

    def damage_one(self, store, key, damage):
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        damage(entry)
        path.write_text(json.dumps(entry, sort_keys=True, indent=1))

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
    def test_undecodable_entry_reads_as_corrupt(self, tmp_path, damage):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1)))
        execute(keys, store=store)
        self.damage_one(store, keys[0], damage)
        assert store.lookup(keys[0]) == (None, "corrupt")
        assert store.corrupt_seen == 1
        assert store.stats()["corrupt"] == 1
        assert store.quarantine_corrupt() == 1
        assert store.stats()["corrupt"] == 0
        assert store.lookup(keys[0]) == (None, "miss")

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
    def test_execute_quarantines_undecodable_entry(self, tmp_path, damage):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1)))
        cold, _ = execute(keys, store=store)
        self.damage_one(store, keys[0], damage)
        results, stats = execute(keys, store=store)
        assert (stats.corrupt, stats.hits, stats.misses) == (1, 1, 1)
        assert results == cold
        quarantined = list((store.root / store.QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1
        assert store.lookup(keys[0]) == (cold[keys[0]], "hit")

    def test_gc_quarantines_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1)))
        execute(keys, store=store)
        self.corrupt_one(store, keys[1])
        counts = gc_sweep(store)
        assert counts["corrupt_quarantined"] == 1
        assert store.stats()["corrupt"] == 0
        assert store.get(keys[0]) is not None


def _fail_on_odd_seed(key: RunKey):
    if key.seed % 2 == 1:
        raise RuntimeError(f"injected failure for seed {key.seed}")
    return execute_key(key)


class TestFailureHandling:
    """Satellite: one broken point never aborts the sweep."""

    def test_serial_sweep_survives_failures(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "execute_key", _fail_on_odd_seed)
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1, 2, 3)))
        with pytest.raises(CampaignExecutionError) as excinfo:
            execute(keys, store=store)
        err = excinfo.value
        assert len(err.failures) == 2
        assert {f.key.seed for f in err.failures} == {1, 3}
        assert err.stats.failed == 2
        # Every healthy key completed and stayed archived.
        assert len(err.results) == 2
        assert store.get(keys[0]) is not None
        assert store.get(keys[2]) is not None
        # Records archived next to the results, typed.
        archived = FailureLog(tmp_path).all_failures()
        assert {f.error_type for f in archived} == {"RuntimeError"}

    def test_parallel_sweep_survives_failures(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "execute_key", _fail_on_odd_seed)
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1, 2, 3)))
        config = fast_config()
        with pytest.raises(CampaignExecutionError) as excinfo:
            execute(keys, store=store, workers=2, federation=config)
        err = excinfo.value
        assert {f.key.seed for f in err.failures} == {1, 3}
        assert len(err.results) == 2
        # Queue workers retry a failing key until it is poisoned.
        assert all(f.attempts == config.max_attempts for f in err.failures)
        assert all(f.poisoned for f in err.failures)

    def test_failures_without_store_still_raise(self, monkeypatch):
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "execute_key", _fail_on_odd_seed)
        keys = expand(small_spec(seeds=(0, 1)))
        with pytest.raises(CampaignExecutionError) as excinfo:
            execute(keys)
        assert len(excinfo.value.failures) == 1

    def test_attempts_accumulate_and_poison(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key(seed=1)
        config = fast_config(max_attempts=3)

        calls = {"n": 0}

        def boom(_key):
            calls["n"] += 1
            raise ValueError("always broken")

        # One drain retries in-place (no backoff) until the key poisons.
        stats = drain(
            (key,), store, config=config, execute_fn=boom, journal=False
        )
        assert calls["n"] == 3
        assert stats.failures == 3
        record = FailureLog(tmp_path, config=config).load(run_key_hash(key))
        assert record.attempts == 3
        assert record.poisoned
        assert stats.poisoned_seen == 1
        # A poisoned key resolves immediately: no further attempts.
        stats = drain(
            (key,), store, config=config, execute_fn=boom, journal=False
        )
        assert stats.failures == 0
        assert stats.poisoned_seen == 1
        log = FailureLog(tmp_path, config=config)
        assert log.blocked(run_key_hash(key)) == POISONED

    def test_retry_success_clears_the_record(self, tmp_path):
        store = ResultStore(tmp_path)
        key = a_key()
        config = fast_config(max_attempts=5)
        calls = {"n": 0}

        def flaky(k):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return execute_key(k)

        drain((key,), store, config=config, execute_fn=flaky, journal=False)
        log = FailureLog(tmp_path, config=config)
        assert log.load(run_key_hash(key)) is None  # cleared on success
        assert store.get(key) is not None

    def test_backoff_is_deterministic_and_blocks(self, tmp_path):
        digest = "ab" * 32
        assert failure_backoff_s(digest, 1, 0.5) == failure_backoff_s(
            digest, 1, 0.5
        )
        assert 0.25 <= failure_backoff_s(digest, 1, 0.5) < 0.75
        assert failure_backoff_s(digest, 1, 0.0) == 0.0
        config = fast_config(retry_backoff_s=60.0)
        log = FailureLog(tmp_path, config=config)
        log.record(a_key(), digest, ValueError("x"), "w")
        assert log.blocked(digest) == BACKOFF


def _stress_child(root: str, seeds, barrier, out):
    """Hammer one shared store from a separate process."""
    store = ResultStore(root)
    barrier.wait()
    written = 0
    for seed in seeds:
        key = a_key(seed=seed)
        store.put(key, execute_key(key))
        written += 1
        for other in seeds:
            store.get(a_key(seed=other))  # interleaved reads
    out.put(written)


class TestMultiProcessStore:
    def test_concurrent_writers_one_root(self, tmp_path):
        """4 processes write overlapping key sets: no torn/corrupt entries."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(4)
        out = ctx.Queue()
        seeds = list(range(6))
        procs = [
            # Overlapping slices: every key is written by >= 2 processes.
            ctx.Process(
                target=_stress_child,
                args=(str(tmp_path), seeds[i % 2 :], barrier, out),
            )
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        assert sum(out.get() for _ in procs) >= len(seeds)
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats["entries"] == len(seeds)
        assert stats["corrupt"] == 0
        assert stats["tmp_orphans"] == 0
        for seed in seeds:
            assert store.get(a_key(seed=seed)) is not None


def _drain_child(root: str, keys, config, token):
    profile = WorkerProfile.local(token=token)
    drain(keys, ResultStore(root), config=config, profile=profile)


def _crashing_child(keys, root, config, token):
    """A local queue worker that drains one key, then dies unrecorded."""
    profile = WorkerProfile.local(token=token)
    drain(keys[:1], ResultStore(root), config=config, profile=profile)
    os._exit(3)


def _blocker_child(root: str, digest: str, ready):
    """Acquire one lease, signal readiness, then hang without heartbeats.

    Stands in for a worker that was SIGKILLed mid-run: the lease exists,
    nothing refreshes it, and nothing was archived.
    """
    queue = LeaseQueue(root, profile=WorkerProfile.local(token="blocker"))
    lease = queue.try_acquire(digest)
    assert lease is not None
    ready.set()
    time.sleep(600)


class TestFederatedDrain:
    def test_federated_equals_serial_byte_for_byte(self, tmp_path):
        keys = expand(small_spec(seeds=(0, 1, 2, 3)))
        serial = ResultStore(tmp_path / "serial")
        serial_results, _ = execute(keys, store=serial)

        fed = ResultStore(tmp_path / "fed")
        fed_results, stats = execute(
            keys, store=fed, workers=2, federation=fast_config()
        )
        assert stats.workers == 2
        assert stats.misses == len(keys)
        assert fed_results == serial_results
        assert store_bytes(fed) == store_bytes(serial)
        # Zero duplicated executions, all journalled.
        digests = Journal.executed_digests(fed.root)
        assert len(digests) == len(keys)
        assert len(set(digests)) == len(keys)

    def test_warm_federated_drain_executes_nothing(self, tmp_path):
        keys = expand(small_spec(seeds=(0, 1)))
        store = ResultStore(tmp_path)
        execute(keys, store=store)
        before = store_bytes(store)
        results, stats = execute(
            keys, store=store, workers=3, federation=fast_config()
        )
        assert stats.hits == len(keys)
        assert stats.misses == 0
        assert stats.executed_steps == 0
        assert store_bytes(store) == before
        assert Journal.executed_digests(store.root) == []

    def test_external_workers_join_the_same_drain(self, tmp_path):
        """Plain drain() processes against one root split the work."""
        keys = expand(small_spec(seeds=(0, 1, 2, 3)))
        config = fast_config()
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(
                target=_drain_child,
                args=(str(tmp_path), keys, config, f"w{i}"),
            )
            for i in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        store = ResultStore(tmp_path)
        assert all(store.get(k) is not None for k in keys)
        digests = Journal.executed_digests(tmp_path)
        assert sorted(digests) == sorted(run_key_hash(k) for k in keys)

    def test_sigkilled_worker_is_stolen_zero_lost_zero_duplicated(
        self, tmp_path
    ):
        """The acceptance scenario: kill a lease holder mid-run.

        A blocker claims one key's lease and is SIGKILLed without ever
        archiving or heartbeating.  A drain with a short TTL must steal
        that lease, execute the key itself, and finish the campaign with
        every key archived exactly once.
        """
        keys = expand(small_spec(seeds=(0, 1, 2, 3)))
        victim = keys[0]
        digest = run_key_hash(victim)
        ctx = multiprocessing.get_context()
        ready = ctx.Event()
        blocker = ctx.Process(
            target=_blocker_child, args=(str(tmp_path), digest, ready)
        )
        blocker.start()
        assert ready.wait(timeout=30)
        os.kill(blocker.pid, signal.SIGKILL)
        blocker.join()

        config = fast_config(lease_ttl_s=0.5, heartbeat_s=0.1)
        lease_path = LeaseQueue(tmp_path).lease_path(digest)
        assert lease_path.is_file()  # the kill left the lease behind
        # Wait out the TTL so the abandoned lease reads as stale.
        time.sleep(0.6)
        stats = drain(
            keys,
            ResultStore(tmp_path),
            config=config,
            profile=WorkerProfile.local(token="rescuer"),
        )
        assert stats.steals == 1
        assert stats.executed == len(keys)  # zero lost
        store = ResultStore(tmp_path)
        assert all(store.get(k) is not None for k in keys)
        digests = Journal.executed_digests(tmp_path)
        assert len(digests) == len(set(digests)) == len(keys)  # no dupes
        assert not lease_path.exists()

    def test_parallel_drain_without_store_equals_serial(self):
        keys = expand(small_spec(seeds=(0, 1, 2)))
        results, stats = execute(keys, workers=2, federation=fast_config())
        assert stats.misses == len(keys)
        assert results == execute(keys)[0]

    def test_crashed_drain_keeps_collected_results(self, tmp_path, monkeypatch):
        """A worker dying without a failure record still hands back the
        results the parent already collected, with the stats."""
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "_federated_child", _crashing_child)
        keys = expand(small_spec(seeds=(0, 1, 2)))
        with pytest.raises(CampaignExecutionError) as excinfo:
            execute(
                keys, store=ResultStore(tmp_path), workers=2,
                federation=fast_config(),
            )
        err = excinfo.value
        assert "no failure record" in str(err)
        assert set(err.results) == {keys[0]}
        assert err.stats is not None
        assert err.stats.misses == 1

    @settings(max_examples=3, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_property_federated_equivalence(self, tmp_path_factory, seeds,
                                            workers):
        """Any spec, any worker count: federated ≡ serial, byte-for-byte."""
        tmp_path = tmp_path_factory.mktemp("prop")
        keys = expand(small_spec(seeds=tuple(seeds)))
        serial = ResultStore(tmp_path / "serial")
        execute(keys, store=serial)
        fed = ResultStore(tmp_path / "fed")
        execute(keys, store=fed, workers=workers, federation=fast_config())
        assert store_bytes(fed) == store_bytes(serial)


class TestGcSweep:
    def test_reaps_all_three_debris_kinds(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = expand(small_spec(seeds=(0, 1)))
        execute(keys, store=store)
        # Orphan temp file.
        shard = store.path_for(keys[0]).parent
        (shard / ".x.json.tmp-ghost-9-aa").write_text("junk")
        # Stale lease.
        config = fast_config(lease_ttl_s=0.2)
        lease = LeaseQueue(tmp_path, config=config).try_acquire("9" * 64)
        old = time.time() - 10.0
        os.utime(lease.path, (old, old))
        # Corrupt entry.
        store.path_for(keys[1]).write_text("rot")
        counts = gc_sweep(store, config=config)
        assert counts == {
            "tmp_reaped": 1,
            "leases_swept": 1,
            "corrupt_quarantined": 1,
            "stale_removed": 0,
        }
        assert store.get(keys[0]) is not None  # healthy entry survives


class TestCampaignSettings:
    """The lease settings' environment overrides (``FederationConfig``)."""

    def test_federation_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "9")
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "7")
        config = FederationConfig.from_env()
        assert config.lease_ttl_s == 9.0
        assert config.max_attempts == 7
        assert config.heartbeat_s < config.lease_ttl_s
        assert config.heartbeat_s == FederationConfig.heartbeat_s
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "0.3")
        assert FederationConfig.from_env().heartbeat_s == pytest.approx(0.1)
        monkeypatch.delenv("REPRO_LEASE_TTL_S")
        monkeypatch.delenv("REPRO_MAX_ATTEMPTS")
        assert FederationConfig.from_env() == FederationConfig()

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "soon")
        with pytest.raises(ConfigurationError):
            FederationConfig.from_env()
        monkeypatch.setenv("REPRO_LEASE_TTL_S", "0")
        with pytest.raises(ConfigurationError):
            FederationConfig.from_env()
        monkeypatch.delenv("REPRO_LEASE_TTL_S")
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "few")
        with pytest.raises(ConfigurationError):
            FederationConfig.from_env()
        with pytest.raises(ConfigurationError):
            FederationConfig(lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            FederationConfig(max_attempts=0)


class TestCli:
    CAMPAIGN = [
        "fig4", "--sides", "30", "--freqs", "1410", "--steps", "2",
    ]

    def test_work_drains_and_reports(self, tmp_path, capsys):
        code = main(
            ["campaign", "work", *self.CAMPAIGN, "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        assert "0 failures" in out

    # 100^3: large enough for a positive baseline EDP (30^3 is not).
    RUNNABLE = ["fig4", "--sides", "100", "--freqs", "1410", "--steps", "2"]

    def test_run_federated(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "run", *self.RUNNABLE, "--workers", "2",
                "--cache-dir", str(tmp_path), "--quiet",
            ]
        )
        assert code == 0
        assert "2 workers" in capsys.readouterr().out
        store = ResultStore(tmp_path)
        assert store.stats()["entries"] == 1

    def test_run_parallel_without_cache_leaves_no_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = main(
            [
                "campaign", "run", *self.RUNNABLE, "--workers", "2",
                "--no-cache", "--cache-dir", str(cache), "--quiet",
            ]
        )
        assert code == 0
        assert "2 workers" in capsys.readouterr().out
        assert not cache.exists()

    def test_status_reports_federation_state(self, tmp_path, capsys):
        main(["campaign", "work", *self.CAMPAIGN, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert (
            main(
                ["campaign", "status", *self.CAMPAIGN,
                 "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 corrupt" in out
        assert "0 live leases" in out
        assert "0 failure records" in out

    def test_gc_command(self, tmp_path, capsys):
        (tmp_path / "ab").mkdir(parents=True)
        (tmp_path / "ab" / ".x.json.tmp-ghost-1-aa").write_text("junk")
        assert main(["campaign", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 temp files reaped" in out

    def test_cache_dir_env_is_honored(self, tmp_path, capsys, monkeypatch):
        # REPRO_CACHE_DIR is how workers on different shells/hosts agree
        # on the shared root without repeating --cache-dir everywhere.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        assert main(["campaign", "work", *self.CAMPAIGN]) == 0
        capsys.readouterr()
        store = ResultStore(tmp_path / "shared")
        assert store.stats()["entries"] == 1
        assert main(["campaign", "status", *self.CAMPAIGN]) == 0
        assert f"cache: {tmp_path / 'shared'}" in capsys.readouterr().out
        # An explicit flag still beats the environment.
        assert main(
            ["campaign", "status", *self.CAMPAIGN,
             "--cache-dir", str(tmp_path / "other")]
        ) == 0
        assert "0 cached" in capsys.readouterr().out
