"""Campaign orchestration: durable spec + queue + workers + supervisor.

A campaign lifts a (workload × prefetcher × seed) grid to a *durable*
unit of work that survives worker crashes, hung leases, and supervisor
death — the fuzzbench-style split of the experiment service that the
ROADMAP's north star calls for.  It is the repository's one parallel
executor: ``repro campaign run`` drives a spec's grid, and
``Evaluation.run_cells`` runs every parallel or supervised grid as an
ephemeral campaign.

- :mod:`~repro.campaign.spec` — a YAML/JSON campaign spec that expands
  deterministically into cells keyed by the canonical
  :func:`~repro.harness.runner.cell_key`;
- :mod:`~repro.campaign.queue` — ``campaign.json`` + an append-only,
  fsynced, torn-tail-tolerant JSONL event log holding every cell's
  lease/retry/quarantine state;
- :mod:`~repro.campaign.worker` — leased worker processes that
  heartbeat while running and stream finished
  :class:`~repro.harness.runner.EvalRow` s back;
- :mod:`~repro.campaign.supervisor` — the reclaim/retry/quarantine
  loop writing the shared :class:`~repro.obs.RunLedger`, with SIGINT/
  SIGTERM flushing so an interrupted campaign resumes bit-identically.
"""

from .spec import CampaignCell, CampaignSpec, load_spec  # noqa: F401
from .queue import CellState, WorkQueue, retry_delay  # noqa: F401
from .supervisor import (  # noqa: F401
    Campaign,
    CampaignStats,
    CAMPAIGN_FILE,
    LEDGER_FILE,
    QUEUE_FILE,
    campaign_summary,
)

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignSpec",
    "CampaignStats",
    "CellState",
    "WorkQueue",
    "campaign_summary",
    "load_spec",
    "retry_delay",
    "CAMPAIGN_FILE",
    "LEDGER_FILE",
    "QUEUE_FILE",
]
