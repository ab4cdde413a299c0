"""Deterministic, seeded fault injection for chaos testing the pipeline.

A :class:`FaultPlan` is a registry of armed *fault points* — named
places in the codebase that can be made to misbehave on demand:

======================  ====================================================
``trace.corrupt``       rewrite a deterministic sample of trace addresses
                        (param ``frac``, default 0.02)
``prefetcher.access``   raise :class:`~repro.errors.FaultInjectionError`
                        inside the guarded prefetcher's per-access path
                        (param ``rate``, default 1.0)
``snn.weight_nan``      poison one SNN weight column with NaN (params
                        ``after`` queries, default 50; ``count``, default 1)
``worker.crash``        ``os._exit`` inside a worker process as a cell
                        starts (params ``cells``, ``attempts`` — default
                        first attempt only)
``worker.hang``         sleep inside a worker's cell while it keeps
                        heartbeating, so only a cell timeout reclaims it
                        (params ``seconds``, default 30; ``cells``;
                        ``attempts``)
``campaign.lease_expire``  a campaign worker stops heartbeating and sleeps
                        past its lease TTL (params ``seconds`` — default
                        1.5x the TTL; ``cells``; ``attempts``)
``campaign.queue_torn_write``  truncate one campaign queue append
                        mid-record, possibly mid-UTF-8 (param ``count``,
                        default 1)
======================  ====================================================

Plans are deterministic: every point draws from its own
``random.Random`` seeded by ``(plan seed, point name)``, so the same
spec produces the same failures on every run — a fuzzing-style
requirement (cf. FuzzBench's measurer retries) that makes chaos tests
reproducible.  Plans pickle cleanly so workers can re-arm the parent's
plan for every cell, and the ``attempt`` threaded through :func:`fires`
lets a point misfire on the first attempt of a cell and stand down on
the retry.

Arming is ambient (module-level) so deep call sites — the SNN, the
prefetcher guard, campaign workers — need no plumbing: wrap the run in
:func:`injected` or call :func:`arm`/:func:`disarm`.  With no plan
armed every hook is a single ``is None`` check.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ConfigError

#: Every fault point this build knows, with a one-line description
#: (``repro experiment --inject-faults help`` prints this table).
FAULT_POINTS: Dict[str, str] = {
    "trace.corrupt": "rewrite a sample of trace addresses (frac=0.02)",
    "prefetcher.access": "raise inside the guarded prefetcher (rate=1.0)",
    "snn.weight_nan": "poison an SNN weight column with NaN (after=50)",
    "worker.crash": "kill a worker process (cells=all, attempts=1)",
    "worker.hang": "hang a worker's cell (seconds=30, attempts=1)",
    "campaign.lease_expire":
        "suppress a campaign worker's heartbeats and outlive its lease "
        "(attempts=1)",
    "campaign.queue_torn_write":
        "truncate a campaign queue append mid-record (count=1)",
}

#: Points whose default is to fire on the first attempt of a cell only,
#: so a bounded retry policy recovers deterministically.
_FIRST_ATTEMPT_ONLY = ("worker.crash", "worker.hang",
                       "campaign.lease_expire")

#: Points whose default is to fire a bounded number of times.
_COUNT_ONE_DEFAULT = ("snn.weight_nan", "campaign.queue_torn_write")


class FaultPoint:
    """One armed fault point with its parameters and firing state."""

    def __init__(self, name: str, seed: int = 0,
                 params: Optional[Dict[str, object]] = None):
        if name not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ConfigError(f"unknown fault point {name!r}; known: {known}")
        self.name = name
        self.params = dict(params or {})
        self.rate = float(self.params.get("rate", 1.0))
        self.after = int(self.params.get("after", 0))
        count = self.params.get("count")
        if count is None and name in _COUNT_ONE_DEFAULT:
            count = 1
        self.count: Optional[int] = None if count is None else int(count)
        attempts = self.params.get("attempts")
        if attempts is None and name in _FIRST_ATTEMPT_ONLY:
            attempts = 1
        self.attempts: Optional[int] = (None if attempts is None
                                        else int(attempts))
        cells = self.params.get("cells")
        self.cells: Optional[Tuple[int, ...]] = (
            None if cells is None else tuple(int(c) for c in cells))
        self.seconds = float(self.params.get("seconds", 30.0))
        self.frac = float(self.params.get("frac", 0.02))
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"{name}: rate must be in [0, 1]")
        if not 0.0 < self.frac <= 1.0:
            raise ConfigError(f"{name}: frac must be in (0, 1]")
        self._rng = random.Random(f"{seed}:{name}")
        self.calls = 0
        self.fired = 0

    def fires(self, attempt: int = 0, index: Optional[int] = None) -> bool:
        """Decide (deterministically) whether this opportunity fires."""
        if self.cells is not None and index is not None \
                and index not in self.cells:
            return False
        if self.attempts is not None and attempt >= self.attempts:
            return False
        self.calls += 1
        if self.calls <= self.after:
            return False
        if self.count is not None and self.fired >= self.count:
            return False
        if self.rate < 1.0 and self._rng.random() >= self.rate:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A seeded set of armed fault points (picklable)."""

    def __init__(self, points: Dict[str, Dict[str, object]] = None,
                 seed: int = 0):
        self.seed = seed
        self.points: Dict[str, FaultPoint] = {
            name: FaultPoint(name, seed=seed, params=params)
            for name, params in (points or {}).items()}

    def fires(self, point: str, attempt: int = 0,
              index: Optional[int] = None) -> Optional[FaultPoint]:
        """The armed point, if ``point`` fires at this opportunity."""
        armed = self.points.get(point)
        if armed is not None and armed.fires(attempt=attempt, index=index):
            return armed
        return None

    def spec(self) -> str:
        """A parseable spec string describing this plan."""
        return ";".join(
            p.name + ("" if not p.params else ":" + ",".join(
                f"{k}={'+'.join(map(str, v)) if isinstance(v, tuple) else v}"
                for k, v in sorted(p.params.items())))
            for p in self.points.values())

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse an ``--inject-faults`` spec.

        Grammar: ``point[:key=value[,key=value...]][;point...]``, e.g.
        ``"worker.crash:cells=0+3;prefetcher.access:rate=0.05"``.
        ``cells`` takes ``+``-separated indices; numeric values are
        parsed as int or float.
        """
        points: Dict[str, Dict[str, object]] = {}
        for clause in filter(None, (c.strip() for c in spec.split(";"))):
            name, _, rest = clause.partition(":")
            name = name.strip()
            params: Dict[str, object] = {}
            for pair in filter(None, (p.strip() for p in rest.split(","))):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ConfigError(
                        f"fault spec {clause!r}: expected key=value, "
                        f"got {pair!r}")
                key = key.strip()
                if key == "cells":
                    params[key] = tuple(int(c)
                                        for c in value.split("+") if c)
                else:
                    params[key] = _parse_number(value.strip(), clause)
            points[name] = params
        if not points:
            raise ConfigError("empty fault spec")
        return cls(points, seed=seed)


def _parse_number(value: str, clause: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    raise ConfigError(f"fault spec {clause!r}: non-numeric value {value!r}")


# -- ambient arming ----------------------------------------------------------

#: The process-wide armed plan; ``None`` keeps every hook inert.
ACTIVE: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (workers re-arm their pickled copy)."""
    global ACTIVE
    ACTIVE = plan


def disarm() -> None:
    """Return every fault hook to its inert state."""
    global ACTIVE
    ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The currently armed plan, if any."""
    return ACTIVE


@contextmanager
def injected(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for the duration of a block (``None`` is a no-op)."""
    global ACTIVE
    if plan is None:
        yield None
        return
    previous = ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        ACTIVE = previous


def fires(point: str, attempt: int = 0,
          index: Optional[int] = None) -> Optional[FaultPoint]:
    """Module-level :meth:`FaultPlan.fires` against the armed plan."""
    if ACTIVE is None:
        return None
    return ACTIVE.fires(point, attempt=attempt, index=index)


def corrupt_trace(trace):
    """Apply the ``trace.corrupt`` point to a trace, if armed.

    Rewrites a deterministic ``frac`` sample of the accesses' addresses
    to a far-away region (page bits scrambled, offset kept) — the kind
    of damage a torn trace file or a flaky collector produces.  The
    result is still a valid trace (ids untouched, addresses
    non-negative): downstream code must *survive* it, not reject it.
    Returns the input trace unchanged when the point is silent.
    """
    site = fires("trace.corrupt")
    if site is None:
        return trace
    from ..types import Trace

    rng = random.Random(f"{site._rng.random()}:trace.corrupt")
    n = len(trace)
    n_corrupt = max(1, int(n * site.frac))
    indices = rng.sample(range(n), min(n_corrupt, n))
    addresses = trace.addresses.copy()
    addresses[indices] = ((addresses[indices] ^ (0x5DEADBEEF << 12))
                          & ((1 << 48) - 1))
    return Trace(trace.name, trace.instr_ids, trace.pcs, addresses,
                 total_instructions=trace.instruction_count)
