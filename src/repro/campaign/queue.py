"""Lease-based federated work queue over the shared result store.

Any number of worker processes on any number of hosts drain one expanded
campaign against one shared cache root with **no coordinator**: the only
shared state is the filesystem, and every coordination primitive is an
atomic filesystem operation.

Lease protocol
    One in-flight run is one claim file ``<root>/leases/<hash>.lease``
    created with ``O_CREAT | O_EXCL`` — exactly one worker can win the
    create, no matter how many race.  The file body names the holder
    (``host:pid:token``).  While the run executes, a heartbeat thread
    refreshes the lease's mtime; a lease whose mtime is older than the
    TTL belongs to a dead worker (SIGKILL stops heartbeats too) and may
    be *stolen*: the stealer atomically renames the stale lease to a
    private tombstone (only one rename can win), removes it, and
    re-acquires through the normal ``O_EXCL`` path.  A run is therefore
    executed by at most one live worker at a time, and a killed worker's
    key is recovered after at most one TTL.

Failure records
    A worker exception archives a typed :class:`RunFailure` at
    ``<root>/failures/<hash>.json`` instead of aborting the drain.
    Failed keys are retried up to ``max_attempts`` times with a
    blake2s-deterministic backoff (no host randomness); keys that
    exhaust their attempts are *poisoned* — quarantined from leasing
    forever rather than re-leased in a hot loop — and reported at the
    end.

Determinism
    Workers never influence results: every run is seeded from its
    :class:`~repro.campaign.keys.RunKey` alone and archived through the
    same serializer the serial path uses, so a federated drain is
    byte-identical to the serial reference no matter how many workers
    (or hosts, or steals) it took.  The federation benchmark and the
    hypothesis property test assert exactly this.

Wall-clock note: lease expiry is *host* time by design — it measures
worker liveness, not simulated physics — so this module is the one place
in the campaign engine allowed to read the host clock (waivered for the
accounting lint, which otherwise forbids wall-clock reads).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.campaign.keys import RunKey, run_key_hash
from repro.campaign.store import MISS, ResultStore
from repro.errors import ConfigurationError


def _wall_now() -> float:
    """Host time for lease expiry (never enters any measurement)."""
    return time.time()  # audit-lint: allow[wallclock] worker liveness clock


def _worker_token() -> str:
    """A random per-worker token (cosmetic: never enters results)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class FederationConfig:
    """Tuning knobs of the lease queue (cosmetic: never enter results)."""

    #: A lease whose mtime is older than this is considered abandoned.
    lease_ttl_s: float = 30.0
    #: Heartbeat period of the executing worker's mtime refresh.
    heartbeat_s: float = 2.0
    #: Attempts per key before it is poisoned (quarantined from leasing).
    max_attempts: int = 3
    #: Base backoff between retries of a failed key (scaled by attempt
    #: count and a blake2s-deterministic jitter).
    retry_backoff_s: float = 0.5
    #: Idle sleep between drain passes when every key is leased elsewhere.
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.lease_ttl_s <= 0:
            raise ConfigurationError("lease_ttl_s must be positive")
        if self.heartbeat_s <= 0 or self.heartbeat_s >= self.lease_ttl_s:
            raise ConfigurationError(
                "heartbeat_s must be positive and below lease_ttl_s "
                f"(got {self.heartbeat_s} vs ttl {self.lease_ttl_s})"
            )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if self.poll_s <= 0:
            raise ConfigurationError("poll_s must be positive")


@dataclass(frozen=True)
class WorkerProfile:
    """Identity and machine profile one drain worker advertises.

    ``systems`` is the placement preference: keys whose
    :attr:`~repro.campaign.keys.RunKey.system` appears there are scanned
    (and therefore leased) first, so a worker on A100-class hardware
    drains the A100 keys while an MI250X-profiled peer starts from the
    LUMI-G end of the matrix.  Preference never partitions: once its
    preferred keys are done a worker takes anything, so a campaign
    always drains even when profiles and keys disagree.
    """

    host: str
    pid: int
    token: str
    systems: tuple[str, ...] = ()

    @classmethod
    def local(
        cls, systems: tuple[str, ...] = (), token: str | None = None
    ) -> "WorkerProfile":
        return cls(
            host=socket.gethostname(),
            pid=os.getpid(),
            token=token if token is not None else _worker_token(),
            systems=tuple(systems),
        )

    @property
    def worker_id(self) -> str:
        return f"{self.host}:{self.pid}:{self.token}"


def placement_order(
    keys: tuple[RunKey, ...], profile: WorkerProfile | None
) -> tuple[RunKey, ...]:
    """Keys reordered for one worker: preferred systems first.

    A stable partition — spec order is preserved inside each group — so
    the scan order stays deterministic given the profile.
    """
    if profile is None or not profile.systems:
        return tuple(keys)
    wanted = set(profile.systems)
    preferred = [k for k in keys if k.system in wanted]
    rest = [k for k in keys if k.system not in wanted]
    return tuple(preferred + rest)


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------


class Lease:
    """One held claim file, with an optional heartbeat thread.

    A holder that stalls past the TTL and gets its lease stolen must not
    refresh or unlink the *stealer's* re-created claim at the same path,
    so both the heartbeat and :meth:`release` verify the claim file
    still names this worker as the holder and stand down otherwise
    (inodes are no discriminator: tmpfs reuses them immediately).
    """

    def __init__(self, path: Path, worker_id: str) -> None:
        self.path = path
        self.worker_id = worker_id
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _still_ours(self) -> bool:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return False  # gone or mid-steal: either way, not ours
        return payload.get("holder") == self.worker_id

    def start_heartbeat(self, interval_s: float) -> None:
        """Refresh the lease mtime every ``interval_s`` until released.

        The thread dies with the process: after a SIGKILL the mtime goes
        stale and the lease becomes stealable — exactly the recovery
        path the queue is built around.
        """

        def beat() -> None:
            while not self._stop.wait(interval_s):
                if not self._still_ours():
                    return  # released or stolen: stop
                try:
                    os.utime(self.path)
                except OSError:
                    return

        self._thread = threading.Thread(target=beat, daemon=True)
        self._thread.start()

    def release(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if not self._still_ours():
            return  # stolen and re-claimed: not ours to remove
        try:
            self.path.unlink()
        except OSError:
            pass  # already swept: nothing left to release


class LeaseQueue:
    """Atomic claim files under ``<root>/leases`` with steal-on-expiry."""

    LEASES_DIR = "leases"

    def __init__(
        self,
        root: str | Path,
        profile: WorkerProfile | None = None,
        config: FederationConfig | None = None,
    ) -> None:
        self.root = Path(root)
        self.profile = profile if profile is not None else WorkerProfile.local()
        self.config = config if config is not None else FederationConfig()
        self.leases = self.root / self.LEASES_DIR
        #: Stale leases this queue instance stole.
        self.stolen = 0

    def lease_path(self, digest: str) -> Path:
        return self.leases / f"{digest}.lease"

    def try_acquire(self, digest: str, steal: bool = True) -> Lease | None:
        """Claim ``digest``; ``None`` when another live worker holds it.

        A stale claim (mtime beyond the TTL — its holder stopped
        heartbeating) is stolen first when ``steal`` is set.
        """
        path = self.lease_path(digest)
        self.leases.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "holder": self.profile.worker_id,
                "host": self.profile.host,
                "pid": self.profile.pid,
                "token": self.profile.token,
            }
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if steal and self._is_stale(path):
                return self._steal(path, digest)
            return None
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        return Lease(path, self.profile.worker_id)

    def _is_stale(self, path: Path) -> bool:
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False  # vanished: the holder released it normally
        return _wall_now() - mtime > self.config.lease_ttl_s

    def _steal(self, path: Path, digest: str) -> Lease | None:
        """Recover an abandoned claim; at most one stealer can win.

        The stale lease is renamed to a per-worker tombstone first —
        rename is atomic, so of N simultaneous stealers exactly one
        succeeds and the rest see ``FileNotFoundError`` — then the
        winner re-acquires through the ordinary ``O_EXCL`` create.
        """
        tomb = self.leases / f"{digest}.stolen-{self.profile.token}"
        try:
            os.rename(path, tomb)
        except OSError:
            return None  # lost the steal race (or the holder came back)
        try:
            tomb.unlink()
        except OSError:
            pass
        self.stolen += 1
        return self.try_acquire(digest, steal=False)

    def sweep(self) -> int:
        """Unlink stale leases and stale tombstones; returns the count.

        Fresh leases (live workers) and fresh tombstones (a steal in
        flight) are left alone.
        """
        if not self.leases.is_dir():
            return 0
        swept = 0
        for path in sorted(self.leases.iterdir()):
            if self._is_stale(path):
                try:
                    path.unlink()
                    swept += 1
                except OSError:
                    continue
        return swept

    def active(self) -> tuple[int, int]:
        """(live, stale) lease counts right now."""
        if not self.leases.is_dir():
            return 0, 0
        live = stale = 0
        for path in sorted(self.leases.glob("*.lease")):
            if self._is_stale(path):
                stale += 1
            else:
                live += 1
        return live, stale


# ---------------------------------------------------------------------------
# Failure records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunFailure:
    """One key's archived execution failure."""

    digest: str
    key: RunKey
    error_type: str
    message: str
    attempts: int
    poisoned: bool
    worker: str

    @property
    def label(self) -> str:
        return self.key.label

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["schema"] = 1
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RunFailure":
        if payload.get("schema") != 1:
            raise ValueError(f"failure schema {payload.get('schema')!r}")
        return cls(
            digest=payload["digest"],
            key=RunKey(**payload["key"]),
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=int(payload["attempts"]),
            poisoned=bool(payload["poisoned"]),
            worker=payload["worker"],
        )


def failure_backoff_s(digest: str, attempts: int, base_s: float) -> float:
    """Deterministic backoff before re-leasing a failed key.

    Grows linearly with the attempt count, jittered into
    ``[0.5x, 1.5x)`` by a blake2s over ``(digest, attempts)`` — every
    worker on every host computes the *same* backoff for the same
    failure state, so there is no host randomness to desynchronize the
    record's retry schedule, yet distinct keys de-phase.
    """
    if base_s <= 0:
        return 0.0
    seed = hashlib.blake2s(f"{digest}:{attempts}".encode()).digest()
    jitter = int.from_bytes(seed[:4], "big") / 2**32  # [0, 1)
    return base_s * attempts * (0.5 + jitter)


#: ``FailureLog.blocked`` verdicts.
POISONED, BACKOFF = "poisoned", "backoff"


class FailureLog:
    """Typed per-key failure records under ``<root>/failures``."""

    FAILURES_DIR = "failures"

    def __init__(
        self, root: str | Path, config: FederationConfig | None = None
    ) -> None:
        self.root = Path(root)
        self.config = config if config is not None else FederationConfig()
        self.failures = self.root / self.FAILURES_DIR

    def path_for(self, digest: str) -> Path:
        return self.failures / f"{digest}.json"

    def load(self, digest: str) -> RunFailure | None:
        try:
            payload = json.loads(self.path_for(digest).read_text())
            return RunFailure.from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent or rotten record: treated as no failures

    def record(
        self, key: RunKey, digest: str, exc: BaseException, worker: str
    ) -> RunFailure:
        """Archive one more failed attempt; poisons on the last one."""
        previous = self.load(digest)
        attempts = (previous.attempts if previous is not None else 0) + 1
        failure = RunFailure(
            digest=digest,
            key=key,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            poisoned=attempts >= self.config.max_attempts,
            worker=worker,
        )
        self.failures.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        tmp = path.with_name(f".{path.name}.tmp-{worker.replace('/', '_')}")
        tmp.write_text(json.dumps(failure.to_payload(), sort_keys=True, indent=1))
        os.replace(tmp, path)
        return failure

    def clear(self, digest: str) -> None:
        """Drop the record (a retry succeeded)."""
        try:
            self.path_for(digest).unlink()
        except OSError:
            pass

    def blocked(self, digest: str) -> str | None:
        """Why ``digest`` must not be leased now, or ``None``.

        ``"poisoned"`` — attempts exhausted, quarantined from leasing;
        ``"backoff"`` — failed recently, the deterministic backoff since
        the record's mtime has not elapsed yet.
        """
        failure = self.load(digest)
        if failure is None:
            return None
        if failure.poisoned:
            return POISONED
        try:
            mtime = self.path_for(digest).stat().st_mtime
        except OSError:
            return None
        wait = failure_backoff_s(
            digest, failure.attempts, self.config.retry_backoff_s
        )
        if _wall_now() - mtime < wait:
            return BACKOFF
        return None

    def all_failures(self) -> tuple[RunFailure, ...]:
        if not self.failures.is_dir():
            return ()
        found = []
        for path in sorted(self.failures.glob("*.json")):
            try:
                found.append(RunFailure.from_payload(json.loads(path.read_text())))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return tuple(found)


# ---------------------------------------------------------------------------
# Journal (duplicate-execution accounting)
# ---------------------------------------------------------------------------


class Journal:
    """Append-only per-worker log of executed digests.

    Written *after* each successful archive, so the union of all
    journals proves zero-duplication: a digest appearing twice means two
    workers both ran the key to completion — the protocol violation the
    kill/steal tests assert never happens.
    """

    JOURNAL_DIR = "journal"

    def __init__(self, root: str | Path, worker_token: str) -> None:
        self.root = Path(root)
        self.path = self.root / self.JOURNAL_DIR / f"{worker_token}.log"

    def append(self, digest: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(digest + "\n")

    @classmethod
    def read_all(cls, root: str | Path) -> dict[str, list[str]]:
        """``{worker_token: [digest, ...]}`` across every journal."""
        journal_dir = Path(root) / cls.JOURNAL_DIR
        if not journal_dir.is_dir():
            return {}
        return {
            path.stem: path.read_text().split()
            for path in sorted(journal_dir.glob("*.log"))
        }

    @classmethod
    def executed_digests(cls, root: str | Path) -> list[str]:
        """Every journalled digest, across all workers (with repeats)."""
        digests: list[str] = []
        for lines in cls.read_all(root).values():
            digests.extend(lines)
        return digests


# ---------------------------------------------------------------------------
# The drain loop
# ---------------------------------------------------------------------------


@dataclass
class WorkerStats:
    """What one drain worker did."""

    worker: str
    executed: int = 0
    executed_steps: int = 0
    hits_observed: int = 0
    corrupt_seen: int = 0
    steals: int = 0
    failures: int = 0
    poisoned_seen: int = 0
    #: Digests this worker executed, in completion order.
    digests: list[str] = field(default_factory=list)


def drain(
    keys: tuple[RunKey, ...],
    store: ResultStore,
    config: FederationConfig | None = None,
    profile: WorkerProfile | None = None,
    execute_fn=None,
    journal: bool = True,
) -> WorkerStats:
    """Drain one campaign as one federated worker; returns what it did.

    Runs until every key is *resolved* — archived in the store (by
    anyone) or poisoned — leasing unclaimed keys, stealing stale leases,
    and recording failures along the way.  Any number of concurrent
    ``drain`` calls (processes, hosts) against the same root cooperate
    through the lease files alone.

    ``execute_fn`` defaults to the campaign executor's
    :func:`~repro.campaign.executor.execute_key`; tests inject failing
    or blocking substitutes through it.
    """
    if execute_fn is None:
        from repro.campaign.executor import execute_key

        execute_fn = execute_key
    config = config if config is not None else FederationConfig()
    profile = profile if profile is not None else WorkerProfile.local()
    queue = LeaseQueue(store.root, profile=profile, config=config)
    failure_log = FailureLog(store.root, config=config)
    log = Journal(store.root, profile.token) if journal else None

    stats = WorkerStats(worker=profile.worker_id)
    ordered = placement_order(keys, profile)
    digests = {key: run_key_hash(key) for key in ordered}
    unresolved = set(ordered)

    while unresolved:
        progressed = False
        for key in ordered:
            if key not in unresolved:
                continue
            digest = digests[key]
            cached, status = store.lookup(key)
            if cached is not None:
                unresolved.discard(key)
                stats.hits_observed += 1
                progressed = True
                continue
            if status != MISS:
                stats.corrupt_seen += 1  # will re-execute over the rot
            blocked = failure_log.blocked(digest)
            if blocked == POISONED:
                unresolved.discard(key)
                stats.poisoned_seen += 1
                progressed = True
                continue
            if blocked == BACKOFF:
                continue
            before = queue.stolen
            lease = queue.try_acquire(digest)
            if lease is None:
                continue
            stats.steals += queue.stolen - before
            try:
                if store.get(key) is not None:  # finished while we raced
                    unresolved.discard(key)
                    stats.hits_observed += 1
                    progressed = True
                    continue
                lease.start_heartbeat(config.heartbeat_s)
                try:
                    result = execute_fn(key)
                except Exception as exc:
                    failure = failure_log.record(
                        key, digest, exc, profile.worker_id
                    )
                    stats.failures += 1
                    if failure.poisoned:
                        unresolved.discard(key)
                        stats.poisoned_seen += 1
                    progressed = True
                    continue
                store.put(key, result)
                failure_log.clear(digest)
                if log is not None:
                    log.append(digest)
                stats.executed += 1
                stats.executed_steps += key.num_steps
                stats.digests.append(digest)
                unresolved.discard(key)
                progressed = True
            finally:
                lease.release()
        if unresolved and not progressed:
            time.sleep(config.poll_s)
    return stats


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------


def gc_sweep(
    store: ResultStore, config: FederationConfig | None = None
) -> dict[str, int]:
    """Reap the debris a federated campaign can leave behind.

    * orphaned ``.tmp-*`` files of killed writers;
    * stale leases and tombstones of dead workers;
    * corrupt entries, quarantined (moved, not deleted) with counts;
    * stale entries of an older cache schema, deleted.

    Complete entries, live leases, and failure records are never
    touched.  Returns the per-category counts.
    """
    config = config if config is not None else FederationConfig()
    queue = LeaseQueue(store.root, config=config)
    return {
        "tmp_reaped": store.reap_tmp(),
        "leases_swept": queue.sweep(),
        "corrupt_quarantined": store.quarantine_corrupt(),
        "stale_removed": store.remove_stale(),
    }


__all__ = [
    "BACKOFF",
    "POISONED",
    "FailureLog",
    "FederationConfig",
    "Journal",
    "Lease",
    "LeaseQueue",
    "RunFailure",
    "WorkerProfile",
    "WorkerStats",
    "drain",
    "failure_backoff_s",
    "gc_sweep",
    "placement_order",
]
