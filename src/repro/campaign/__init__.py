"""Campaign engine with a content-addressed result cache.

The campaign layer turns the paper's headline experiments — frequency ×
test-case × system sweeps of independent instrumented runs — into one
shared execution substrate:

* :mod:`~repro.campaign.spec` — declarative :class:`CampaignSpec` axes,
  expanded to fully-resolved :class:`RunKey` points;
* :mod:`~repro.campaign.keys` — run identity and the content-addressed
  cache hash (config content + code version);
* :mod:`~repro.campaign.store` — atomic on-disk result cache, so
  re-running a campaign only executes misses and a killed sweep resumes;
* :mod:`~repro.campaign.executor` — serial execution, or ``workers=N``
  local workers draining the lease queue, with deterministic per-run
  seeding;
* :mod:`~repro.campaign.queue` — the coordinator-free lease queue:
  any number of workers on any hosts drain one spec against one shared
  store, with heartbeat leases, failure records, and cache GC;
* :mod:`~repro.campaign.merge` — order-independent merges back into the
  exact structures the serial experiment functions return;
* :mod:`~repro.campaign.report` — execution stats and per-run
  telemetry health.
"""

from repro.campaign.executor import (
    CampaignStats,
    ProgressFn,
    execute,
    execute_key,
)
from repro.campaign.keys import (
    CACHE_SCHEMA_VERSION,
    CODE_VERSION,
    RunKey,
    canonical_payload,
    run_key_hash,
    sort_key,
)
from repro.campaign.merge import (
    merge_figure1,
    merge_figure4,
    merge_figure5,
    merge_weak_scaling,
)
from repro.campaign.queue import (
    FailureLog,
    FederationConfig,
    Journal,
    LeaseQueue,
    RunFailure,
    WorkerProfile,
    WorkerStats,
    drain,
    gc_sweep,
    placement_order,
)
from repro.campaign.report import campaign_summary
from repro.campaign.spec import CampaignSpec, expand
from repro.campaign.store import (
    AccountingSummary,
    CampaignResult,
    ResultStore,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CODE_VERSION",
    "AccountingSummary",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStats",
    "FailureLog",
    "FederationConfig",
    "Journal",
    "LeaseQueue",
    "ProgressFn",
    "ResultStore",
    "RunFailure",
    "RunKey",
    "WorkerProfile",
    "WorkerStats",
    "campaign_summary",
    "canonical_payload",
    "drain",
    "execute",
    "execute_key",
    "expand",
    "gc_sweep",
    "merge_figure1",
    "merge_figure4",
    "merge_figure5",
    "merge_weak_scaling",
    "placement_order",
    "run_key_hash",
    "sort_key",
]
