"""On-disk content-addressed store of campaign run results.

One completed run is one JSON file at ``<root>/<hh>/<hash>.json`` where
``hash = run_key_hash(key)`` — the address commits to the full run
identity *and* the content of the configurations it referenced, so a
physics- or measurement-relevant config edit reads as a cache miss while
cosmetic execution settings cannot perturb the address at all.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
a campaign killed mid-sweep leaves either complete entries or nothing:
re-running the same spec resumes from the completed subset.  The temp
name embeds hostname, pid, and a random token, so any number of workers
on any number of hosts can share one root (NFS included) without ever
clobbering each other's in-flight writes.

Corrupt or foreign files still read as misses, never as errors — but no
longer *silently*: :meth:`ResultStore.lookup` distinguishes a corrupt
entry from a plain miss, :meth:`ResultStore.stats` counts corrupt
entries and orphaned temp files, and :meth:`ResultStore.quarantine_corrupt`
moves rot aside so a decaying shared cache is visible instead of just
slow.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.campaign.keys import CACHE_SCHEMA_VERSION, RunKey, run_key_hash
from repro.instrumentation.records import RunMeasurements
from repro.slurm.job import JobAccounting


@dataclass(frozen=True)
class AccountingSummary:
    """The serializable subset of :class:`~repro.slurm.job.JobAccounting`.

    Everything ``sacct`` reports except the in-memory ``app_result``
    back-reference and the process-global ``job_id`` (normalized to 0 so
    serial and parallel executions serialize identically).
    """

    name: str
    num_nodes: int
    num_ranks: int
    submit_time: float
    start_time: float
    app_start_time: float
    app_end_time: float
    end_time: float
    consumed_energy_joules: float
    per_node_joules: tuple[float, ...]

    @classmethod
    def from_accounting(cls, acct: JobAccounting) -> "AccountingSummary":
        return cls(
            name=acct.name,
            num_nodes=acct.num_nodes,
            num_ranks=acct.num_ranks,
            submit_time=acct.submit_time,
            start_time=acct.start_time,
            app_start_time=acct.app_start_time,
            app_end_time=acct.app_end_time,
            end_time=acct.end_time,
            consumed_energy_joules=acct.consumed_energy_joules,
            per_node_joules=tuple(acct.per_node_joules),
        )

    def to_accounting(self, run: RunMeasurements | None = None) -> JobAccounting:
        """Rebuild a :class:`JobAccounting` view (``job_id`` is always 0)."""
        return JobAccounting(
            job_id=0,
            name=self.name,
            num_nodes=self.num_nodes,
            num_ranks=self.num_ranks,
            submit_time=self.submit_time,
            start_time=self.start_time,
            app_start_time=self.app_start_time,
            app_end_time=self.app_end_time,
            end_time=self.end_time,
            consumed_energy_joules=self.consumed_energy_joules,
            per_node_joules=list(self.per_node_joules),
            app_result=run,
        )


@dataclass(frozen=True)
class CampaignResult:
    """One run's archived outcome: measurements plus accounting."""

    key: RunKey
    run: RunMeasurements
    accounting: AccountingSummary


def _serialize(key: RunKey, result: CampaignResult, digest: str) -> str:
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "hash": digest,
        "key": asdict(key),
        "run": json.loads(result.run.to_json()),
        "accounting": asdict(result.accounting),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _deserialize(text: str) -> CampaignResult:
    payload = json.loads(text)
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        raise ValueError(f"cache schema {payload.get('schema')!r}")
    acct = payload["accounting"]
    acct["per_node_joules"] = tuple(acct["per_node_joules"])
    return CampaignResult(
        key=RunKey(**payload["key"]),
        run=RunMeasurements.from_json(json.dumps(payload["run"])),
        accounting=AccountingSummary(**acct),
    )


#: ``lookup`` status values: a complete entry, no entry at all, or a
#: file at the right address that does not deserialize to the key.
HIT, MISS, CORRUPT = "hit", "miss", "corrupt"


class ResultStore:
    """Content-addressed result cache rooted at one directory.

    Safe to share between any number of processes on any number of
    hosts: reads see either a complete entry or nothing (writes land via
    same-directory ``os.replace``), and temp names embed
    ``hostname-pid-token`` so concurrent writers can never collide.
    ``corrupt_seen`` counts the corrupt/foreign entries this instance
    ran into, so executors can report a rotting cache instead of
    silently re-executing through it.
    """

    #: Subdirectory corrupt entries are quarantined into.
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Corrupt/foreign entries seen by this instance's lookups.
        self.corrupt_seen = 0

    def path_for(self, key: RunKey) -> Path:
        digest = run_key_hash(key)
        return self.root / digest[:2] / f"{digest}.json"

    def contains(self, key: RunKey) -> bool:
        return self.path_for(key).is_file()

    def lookup(self, key: RunKey) -> tuple[CampaignResult | None, str]:
        """The cached result plus how the address resolved.

        Returns ``(result, "hit")``, ``(None, "miss")`` for an absent
        entry, or ``(None, "corrupt")`` when a file exists at the key's
        address but does not deserialize back to the key (rotten bytes,
        a foreign schema, or a tampered/colliding entry).  Corrupt reads
        bump :attr:`corrupt_seen`.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, MISS
        except OSError:
            return None, MISS  # transiently unreadable: retry as a miss
        try:
            result = _deserialize(text)
        except (ValueError, KeyError, TypeError):
            self.corrupt_seen += 1
            return None, CORRUPT
        if result.key != key:
            self.corrupt_seen += 1  # hash collision or tampered entry
            return None, CORRUPT
        return result, HIT

    def get(self, key: RunKey) -> CampaignResult | None:
        """The cached result of ``key``, or ``None`` on any kind of miss."""
        return self.lookup(key)[0]

    def put(self, key: RunKey, result: CampaignResult) -> Path:
        """Atomically archive one completed run."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = path.stem
        tmp = self._tmp_path(path)
        tmp.write_text(_serialize(key, result, digest))
        os.replace(tmp, path)
        return path

    @staticmethod
    def _tmp_path(path: Path) -> Path:
        """A collision-proof temp name next to ``path``.

        ``pid`` alone is not unique across hosts sharing the root over
        NFS; the hostname plus a random token makes simultaneous writers
        of the same entry land on distinct temp files.
        """
        token = os.urandom(4).hex()
        host = socket.gethostname()
        return path.with_name(f".{path.name}.tmp-{host}-{os.getpid()}-{token}")

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every complete cache entry under the root."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def tmp_orphans(self) -> list[Path]:
        """Leftover temp files from killed runs (never reaped by writes)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/.*.tmp-*"))

    def stats(self) -> dict[str, int]:
        """Entry/byte counts plus the cache-health counters.

        ``corrupt`` re-parses every entry, so the count reflects the
        store as it is on disk right now (not just what this process
        happened to read); ``tmp_orphans`` counts temp files abandoned
        by killed writers.
        """
        entries = self.entries()
        corrupt = 0
        for path in entries:
            try:
                _deserialize(path.read_text())
            except (OSError, ValueError, KeyError, TypeError):
                corrupt += 1
        return {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "corrupt": corrupt,
            "tmp_orphans": len(self.tmp_orphans()),
        }

    def reap_tmp(self) -> int:
        """Remove orphaned temp files; returns how many were reaped."""
        reaped = 0
        for tmp in self.tmp_orphans():
            try:
                tmp.unlink()
                reaped += 1
            except OSError:
                continue
        return reaped

    def quarantine_entry(self, key: RunKey) -> bool:
        """Move one key's (corrupt) entry into the quarantine directory.

        Used by the executor when a lookup reports rot: the bytes stay
        inspectable, the address reads as a plain miss, and the key is
        re-executed.  Returns whether anything was moved.
        """
        path = self.path_for(key)
        target = self.root / self.QUARANTINE_DIR / path.name
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, target)
            return True
        except OSError:
            return False

    def quarantine_corrupt(self) -> int:
        """Move corrupt entries into ``<root>/quarantine/``.

        The entries then read as plain misses (re-executed and
        re-archived by the next sweep) while the rotten bytes stay
        available for inspection.  Returns the number quarantined.
        """
        moved = 0
        for path in self.entries():
            try:
                _deserialize(path.read_text())
            except (OSError, ValueError, KeyError, TypeError):
                target = self.root / self.QUARANTINE_DIR / path.name
                target.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.replace(path, target)
                    moved += 1
                except OSError:
                    continue
        return moved

    def clean(self, keys: tuple[RunKey, ...] | None = None) -> int:
        """Remove entries (all of them, or just those of ``keys``).

        Returns the number of entries removed; empty shard directories
        are pruned, and orphaned temp files of killed runs are reaped
        alongside (they are not counted in the return value).
        """
        removed = 0
        targets = (
            self.entries()
            if keys is None
            else [self.path_for(k) for k in keys]
        )
        for path in targets:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        self.reap_tmp()
        for path in targets:
            parent = path.parent
            try:
                if parent != self.root and not any(parent.iterdir()):
                    parent.rmdir()
            except OSError:
                continue
        return removed
