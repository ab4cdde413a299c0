"""Runtime guard that keeps a misbehaving prefetcher from killing a run.

:class:`GuardedPrefetcher` wraps any :class:`~repro.prefetchers.base.Prefetcher`
and catches exceptions its ``train``/``process`` raise, and chunk
results that are not rows.  A healthy
prefetcher passes through bit-identically (the parity suites assert
this); a prefetcher that keeps throwing is *quarantined* after
:data:`DEFAULT_QUARANTINE_AFTER` consecutive per-access failures — it
degrades to no-prefetch for the rest of the trace instead of aborting
the replay, with the degradation recorded in telemetry and surfaced in
the harness's ``EvalRow.extras``.

The ``prefetcher.access`` fault point fires here, upstream of the
catch, so chaos tests exercise exactly the guard path production
failures would take.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import FaultInjectionError
from ..prefetchers.base import Prefetcher, Rows, check_rows
from ..types import MemoryAccess, Trace
from . import faults

#: Consecutive per-access failures before the wrapped prefetcher is
#: quarantined for the remainder of the run.
DEFAULT_QUARANTINE_AFTER = 8


class GuardedPrefetcher(Prefetcher):
    """Transparent fault barrier around a prefetcher.

    Attributes:
        errors: Total exceptions swallowed (train + process).
        consecutive_errors: Current run of failing accesses; any
            successful access resets it.
        quarantined: Once ``True``, ``process`` short-circuits to no
            prefetches — the paper's "practical" deployment bar: a sick
            learner must cost coverage, never correctness.
        last_error: Message of the most recent swallowed exception.
    """

    def __init__(self, prefetcher: Prefetcher):
        self.inner = prefetcher
        self.errors = 0
        self.consecutive_errors = 0
        self.quarantined = False
        self.last_error: Optional[str] = None
        self._scalar_only = False

    @property
    def name(self) -> str:  # type: ignore[override]
        """The wrapped prefetcher's name (reports stay comparable)."""
        return self.inner.name

    # -- delegation ----------------------------------------------------------

    def publish_telemetry(self, obs) -> None:
        self.inner.publish_telemetry(obs)
        scope = obs.registry.scope(component="resilience",
                                   prefetcher=self.name)
        scope.counter("guard.errors").inc(self.errors)
        scope.counter("guard.quarantined").inc(int(self.quarantined))
        if self.errors:
            obs.tracer.emit(
                "guard.degraded", prefetcher=self.name, errors=self.errors,
                quarantined=self.quarantined, last_error=self.last_error)

    def series_arm(self) -> None:
        self.inner.series_arm()

    def series_sample(self, cumulative, gauges) -> None:
        self.inner.series_sample(cumulative, gauges)

    def train(self, trace: Trace) -> None:
        """Offline training; a failure quarantines the whole model."""
        try:
            self.inner.train(trace)
        except Exception as exc:  # noqa: BLE001 - the guard's entire job
            self._record_failure(exc)
            self.quarantined = True

    # -- guarded per-access path ---------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        if self.quarantined:
            return []
        try:
            if faults.ACTIVE is not None and \
                    faults.fires("prefetcher.access") is not None:
                raise FaultInjectionError(
                    f"injected prefetcher.access fault ({self.name})")
            addresses = self.inner.process(access)
        except Exception as exc:  # noqa: BLE001 - the guard's entire job
            self._record_failure(exc)
            self.consecutive_errors += 1
            if self.consecutive_errors >= DEFAULT_QUARANTINE_AFTER:
                self.quarantined = True
            return []
        self.consecutive_errors = 0
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Guarded chunk path.

        Healthy and fault-free, the chunk passes straight through to
        the wrapped prefetcher's batched implementation (the parity
        suites assert bit-identity with the scalar guard).  With a
        fault plan armed — or once any chunk has failed — the guard
        drops to the per-access base loop so fault points and the
        consecutive-failure quarantine counter keep their
        access-granular semantics.  A chunk-level exception, or a
        result that is not the chunk's :class:`Rows`
        (:func:`~repro.prefetchers.base.check_rows`), means the wrapped
        prefetcher's state can no longer be trusted to be aligned with
        the batch protocol, so the failing chunk degrades to no-prefetch
        and all later chunks take the scalar path.
        """
        if self.quarantined:
            return Rows.empty(len(addresses))
        if faults.ACTIVE is not None or self._scalar_only:
            return Prefetcher.process_batch(self, addresses, pcs, instr_ids)
        try:
            rows = check_rows(
                self.inner.process_batch(addresses, pcs, instr_ids),
                len(addresses))
        except Exception as exc:  # noqa: BLE001 - the guard's entire job
            self._record_failure(exc)
            self.consecutive_errors += 1
            if self.consecutive_errors >= DEFAULT_QUARANTINE_AFTER:
                self.quarantined = True
            self._scalar_only = True
            return Rows.empty(len(addresses))
        self.consecutive_errors = 0
        return rows

    def _record_failure(self, exc: Exception) -> None:
        self.errors += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
