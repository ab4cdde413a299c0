"""PATHFINDER reproduction — SNN/STDP real-time learning for data prefetching.

A full reimplementation of *PATHFINDER: Practical Real-Time Learning
for Data Prefetching* (ASPLOS 2024): the SNN/STDP prefetcher, every
baseline it is compared against, a trace-driven cache/CPU simulator,
calibrated synthetic workloads, a hardware cost model, and an
experiment harness that regenerates every table and figure in the
paper's evaluation.

Quickstart::

    from repro import PathfinderPrefetcher, make_trace, simulate
    from repro.prefetchers import generate_prefetches

    trace = make_trace("cc-5", n_accesses=10_000, seed=1)
    prefetcher = PathfinderPrefetcher()
    pfile = generate_prefetches(prefetcher, trace)   # a PrefetchFile
    result = simulate(trace, pfile, prefetcher_name="pathfinder")
    print(result.ipc, result.accuracy())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results.  Public names are imported on first use
(see :mod:`repro._lazy`), so ``import repro`` alone loads no numpy.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.config": ["PathfinderConfig"],
    ".core.pathfinder": ["PathfinderPrefetcher"],
    ".obs": ["Observability"],
    ".sim.metrics": ["SimResult"],
    ".sim.simulator": ["HierarchyConfig", "simulate"],
    ".traces.workloads": ["WORKLOAD_NAMES", "make_trace"],
    ".types": ["MemoryAccess", "PrefetchFile", "PrefetchRequest", "Trace"],
})

__all__ = [
    "Observability",
    "PathfinderConfig",
    "PathfinderPrefetcher",
    "SimResult",
    "simulate",
    "HierarchyConfig",
    "WORKLOAD_NAMES",
    "make_trace",
    "MemoryAccess",
    "PrefetchFile",
    "PrefetchRequest",
    "Trace",
    "__version__",
]
