"""Observability: metrics registry, structured tracing, profiling.

- :mod:`repro.obs.telemetry` — hierarchical Counter/Gauge/Histogram
  registry with labeled scopes, snapshot-able to a plain dict.
- :mod:`repro.obs.tracing` — structured span/event tracer with a JSONL
  file sink and a no-op :class:`~repro.obs.tracing.NullSink` default.
- :mod:`repro.obs.profiler` — phase timers plus optional tracemalloc
  peak-memory capture.
- :mod:`repro.obs.ledger` — append-only run-provenance ledger (manifest
  + per-cell records) with an ambient active-ledger/run-id context.

The three are bundled into an :class:`Observability` object that the
simulator, prefetchers, and harness accept.  The disabled bundle keeps
hot paths inert: event emission is guarded by a cached boolean, and
only always-cheap typed counters (e.g. the simulator's dropped-prefetch
count) stay live so their values remain available without opting in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .._lazy import lazy_exports
from .ledger import (
    RunLedger,
    active_ledger,
    current_run_id,
    finish_run,
    read_ledger,
    resume_run,
    set_active_ledger,
    start_run,
)
from .profiler import PhaseStats, Profiler
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    metric_key,
)
from .tracing import JsonlSink, MemorySink, NullSink, Tracer, read_events

if TYPE_CHECKING:
    from .timeseries import SeriesCollector

#: Default access-index window of a series (one sample per 2048
#: accesses).  Defined here so the CLI's parser can print it without
#: importing the time-series layer, which only ``--series`` runs and
#: the dashboard use.
DEFAULT_WINDOW = 2048

__getattr__, __dir__ = lazy_exports(globals(), {
    ".timeseries": ["DEFAULT_POINT_CAP", "SERIES_SCHEMA", "Series",
                    "SeriesCollector", "WindowRecorder", "adaptation_lag",
                    "detect_phases", "rate_points", "read_series"],
})


class Observability:
    """The registry + tracer + profiler bundle threaded through a run.

    Args:
        registry: Metrics store (fresh one by default).
        tracer: Event tracer (disabled :class:`NullSink` one by default).
        profiler: Phase timers (fresh one by default).
        series: Optional windowed time-series collector (``--series``);
            ``None`` — the default — keeps every per-window sampling
            hook inert.
        enabled: Master switch — :meth:`disabled` instances skip all
            optional instrumentation (histogram hooks, prefetcher
            telemetry, registry mirroring) so the un-observed path
            costs nothing beyond a few boolean checks.
    """

    __slots__ = ("registry", "tracer", "profiler", "series", "enabled")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 profiler: Optional[Profiler] = None,
                 series: Optional[SeriesCollector] = None,
                 enabled: bool = True):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.profiler = profiler if profiler is not None else Profiler()
        self.series = series
        self.enabled = enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """A private, inert bundle (per-consumer; never shared state)."""
        return cls(enabled=False)

    def snapshot(self) -> Dict[str, object]:
        """Metrics + profile as one JSON-serialisable dict."""
        return {
            "metrics": self.registry.snapshot(),
            "profile": self.profiler.report(),
        }

    def close(self) -> None:
        """Flush and close the tracer's sink."""
        self.tracer.close()


#: Ambient observability bundle installed by the CLI so code that
#: builds its own Evaluation objects (the experiment registry) still
#: records into the invocation's registry/tracer.  ``None`` means
#: un-observed; an explicit ``Evaluation(obs=...)`` always wins.
_DEFAULT_OBS: Optional[Observability] = None


def set_default_observability(obs: Optional[Observability]) -> None:
    """Install the ambient observability bundle (``None`` clears it)."""
    global _DEFAULT_OBS
    _DEFAULT_OBS = obs


def default_observability() -> Optional[Observability]:
    """The ambient bundle installed by the CLI, or ``None``."""
    return _DEFAULT_OBS


__all__ = [
    "Counter",
    "DEFAULT_POINT_CAP",
    "DEFAULT_WINDOW",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MetricsScope",
    "NullSink",
    "Observability",
    "PhaseStats",
    "Profiler",
    "RunLedger",
    "SERIES_SCHEMA",
    "Series",
    "SeriesCollector",
    "Tracer",
    "WindowRecorder",
    "active_ledger",
    "adaptation_lag",
    "current_run_id",
    "default_observability",
    "detect_phases",
    "finish_run",
    "metric_key",
    "rate_points",
    "read_events",
    "read_ledger",
    "read_series",
    "resume_run",
    "set_active_ledger",
    "set_default_observability",
    "start_run",
]
