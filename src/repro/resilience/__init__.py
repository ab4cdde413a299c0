"""repro.resilience: fault injection, prefetcher guards, crash-safe writes.

The resilience layer makes the evaluation pipeline survive the failures
a long run actually hits — throwing prefetchers, NaN'd models, torn
files, and (through the campaign layer) crashing or hanging workers —
and makes every one of them *reproducible on demand* via seeded fault
injection:

- :mod:`~repro.resilience.faults` — deterministic :class:`FaultPlan`
  with named fault points, armed ambiently (``--inject-faults`` / tests);
- :mod:`~repro.resilience.guard` — :class:`GuardedPrefetcher`
  quarantining a misbehaving learner instead of aborting the replay;
- :mod:`~repro.resilience.atomic` — crash-safe artifact writes and
  durable appends.

Retries, backoff, cell timeouts and worker-crash recovery belong to
:mod:`repro.campaign`, which runs every parallel or supervised grid
(``Evaluation.run_cells``); the run ledger (:mod:`repro.obs.ledger`) is
what ``--resume`` restores finished cells from.
"""

from .atomic import append_line, atomic_write_json, atomic_write_text
from .faults import (ACTIVE, FAULT_POINTS, FaultPlan, FaultPoint, active,
                     arm, corrupt_trace, disarm, fires, injected)
from .guard import DEFAULT_QUARANTINE_AFTER, GuardedPrefetcher

__all__ = [
    "ACTIVE",
    "FAULT_POINTS",
    "DEFAULT_QUARANTINE_AFTER",
    "FaultPlan",
    "FaultPoint",
    "GuardedPrefetcher",
    "active",
    "append_line",
    "arm",
    "atomic_write_json",
    "atomic_write_text",
    "corrupt_trace",
    "disarm",
    "fires",
    "injected",
]
