"""Trace-driven cache/CPU simulator (the ChampSim-fork substitute).

Reproduces the ML-DPC methodology used by the paper: a prefetcher first
converts a load trace into a *prefetch file* (trigger instruction id +
address), then the simulator replays the trace, injecting each prefetch
into the LLC when its trigger dispatches, and reports IPC plus the
prefetch bookkeeping needed for accuracy/coverage.

Components:

- :mod:`repro.sim.cache` — set-associative caches with LRU and
  per-line prefetch tracking.
- :mod:`repro.sim.dram` — banked DRAM with queue-occupancy delays.
- :mod:`repro.sim.cpu` — an MLP-aware in-order-retire timing model
  (dispatch width, ROB runahead limit, MSHR cap).
- :mod:`repro.sim.simulator` — the trace replay driver.
- :mod:`repro.sim.multicore` — shared-LLC/DRAM co-run mode.
- :mod:`repro.sim.metrics` — result container and derived metrics.
"""

from .._lazy import lazy_exports
from .cache import CacheConfig, SetAssociativeCache
from .dram import DramConfig, DramModel
from .cpu import CoreConfig
from .metrics import SimResult, accuracy, coverage
from .simulator import HierarchyConfig, Simulator, simulate

# The co-run mode is imported on first use: single-core runs never need it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".multicore": ["MulticoreResult", "MulticoreSimulator",
                   "simulate_multicore"],
})

__all__ = [
    "CacheConfig",
    "SetAssociativeCache",
    "MulticoreResult",
    "MulticoreSimulator",
    "simulate_multicore",
    "DramConfig",
    "DramModel",
    "CoreConfig",
    "SimResult",
    "accuracy",
    "coverage",
    "HierarchyConfig",
    "Simulator",
    "simulate",
]
