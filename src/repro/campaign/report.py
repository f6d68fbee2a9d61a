"""Campaign summaries: execution stats plus per-run telemetry health.

The summary answers the two questions a sweep owner has after a run:
*how much did the cache save* (points, hits, misses, simulation steps
actually executed) and *can the numbers be trusted* (the telemetry-health
verdict of every run that had to substitute sensor values, aggregated
from the per-node records the resilient measurement layer keeps).
"""

from __future__ import annotations

from repro.campaign.executor import CampaignStats
from repro.campaign.keys import RunKey, sort_key
from repro.campaign.store import CampaignResult
from repro.instrumentation.reporting import campaign_health_summary


def campaign_summary(
    name: str,
    stats: CampaignStats,
    results: dict[RunKey, CampaignResult],
) -> str:
    """Render one campaign execution's summary block."""
    lines = [
        f"Campaign {name!r}: {stats.total} points "
        f"({stats.hits} cached, {stats.misses} executed, "
        f"{stats.workers} worker{'s' if stats.workers != 1 else ''})",
        f"Simulation steps executed: {stats.executed_steps}",
    ]
    if stats.failed:
        lines.append(f"Failed runs: {stats.failed} (see failure records)")
    runs = {
        key.label: result.run
        for key, result in sorted(results.items(), key=lambda i: sort_key(i[0]))
    }
    lines.append(campaign_health_summary(runs, corrupt=stats.corrupt))
    return "\n".join(lines)
