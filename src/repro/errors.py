"""Exception hierarchy for the PATHFINDER reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
The resilience layer (``repro.resilience``) relies on the finer-grained
subclasses to decide what is retryable: a :class:`WorkerCrashError` or
:class:`FaultInjectionError` is transient by construction, while a
:class:`ConfigError` will fail identically on every retry.
"""

from __future__ import annotations

import math
from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


def require_finite(config: object, *names: str) -> None:
    """Raise :class:`ConfigError` naming the first of ``config``'s
    attributes ``names`` that is NaN or infinite (``None`` passes).
    Range checks alone let NaN through: every comparison with it is
    false."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite (got {value})")


class TraceError(ReproError):
    """A trace file or trace object is malformed."""


class TraceFormatError(TraceError):
    """A trace *file* failed to parse.

    Carries the offending file and line so a corrupted multi-gigabyte
    trace reports exactly where it went bad instead of a bare
    ``ValueError`` from ``int()``.
    """

    def __init__(self, message: str, path: Optional[str] = None,
                 lineno: Optional[int] = None):
        location = ""
        if path is not None:
            location = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
        super().__init__(f"{location}{message}")
        self.path = path
        self.lineno = lineno


class PrefetchFileError(ReproError):
    """Prefetch-file generation failed inside a prefetcher's ``process``.

    Raised by :func:`repro.prefetchers.base.generate_prefetches` when an
    unguarded prefetcher throws mid-trace (wrapping the original with
    access context), and by the ``prefetcher.access`` fault point.
    """


class WorkerCrashError(ReproError):
    """A parallel grid worker died or its cell could not be completed.

    When raised from :meth:`repro.harness.runner.Evaluation.run_cells`
    the exception carries ``partial_rows`` (completed sibling cells, in
    cell order, with ``None`` holes) and ``failures`` (cell index →
    error string) so one bad cell never discards finished work.
    """

    def __init__(self, message: str, partial_rows=None, failures=None):
        super().__init__(message)
        self.partial_rows = partial_rows if partial_rows is not None else []
        self.failures = dict(failures or {})


class FaultInjectionError(ReproError):
    """An armed fault point fired (deterministic chaos testing).

    Deliberately transient: retry policies treat it like any other
    per-cell failure, which is the point of injecting it.
    """


class SimulationError(ReproError):
    """The cache/CPU simulator was driven into an invalid state."""


class EngineFallbackWarning(UserWarning):
    """A replay ran on the reference loop instead of the compiled kernel.

    Emitted by :meth:`repro.sim.simulator.Simulator.run` when the batch
    kernel cannot serve the run — event tracing, a trace the kernel
    cannot replay exactly, pre-populated state, or no compiled kernel.  A warning, not an
    error: results are bit-identical across the two loops, only
    wall-clock changes — but silent downgrades made benchmark numbers
    lie, so the downgrade is visible and filterable.
    ``Simulator.engine_used`` reports what actually ran.
    """


class ModelError(ReproError):
    """A learning model (SNN / LSTM / RL) was misused or failed to build."""
