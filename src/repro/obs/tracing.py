"""Structured event tracing with pluggable sinks.

A :class:`Tracer` turns ``emit("pf.issued", block=..., cycle=...)``
calls into flat dict records and hands them to its sink.  The default
sink is :class:`NullSink`, which marks the tracer disabled so hot
loops can guard instrumentation behind a single attribute read::

    if tracer.enabled:
        tracer.emit("pf.fill", block=block, cycle=cycle)

:class:`JsonlSink` streams records as JSON Lines — one event per line —
which ``repro report`` (and anything else) can re-read with
:func:`read_events`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List


def _coerce(value):
    """JSON fallback for numpy scalars and other number-likes."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class NullSink:
    """Swallows everything; marks the owning tracer disabled."""

    enabled = False

    def write(self, event: Dict[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Keeps events in a list (tests, in-process aggregation)."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one compact JSON object per event to a file.

    Events stream into a same-directory temp file that is renamed onto
    ``path`` on :meth:`close`, so the final path only ever holds a
    complete event log — a crash mid-run leaves the previous file (or
    nothing) rather than a truncated one.
    """

    enabled = True

    def __init__(self, path):
        self.path = path
        self._tmp = f"{path}.{os.getpid()}.tmp"
        self._fh = open(self._tmp, "w", encoding="utf-8")

    def write(self, event: Dict[str, object]) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":"),
                                  default=_coerce))
        self._fh.write("\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
            os.replace(self._tmp, self.path)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Emits structured events to a sink; a no-op when sink-less.

    Attributes:
        enabled: False iff the sink is a :class:`NullSink` — read this
            before building event payloads in hot loops.

    Bound context (:meth:`bind` / :meth:`context`) is merged into every
    emitted record — this is how run ids and grid cell keys end up on
    each event without threading them through every ``emit`` call site.
    """

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self._seq = 0
        self._bound: Dict[str, object] = {}

    def bind(self, **fields: object) -> None:
        """Permanently merge ``fields`` into every future record."""
        self._bound.update(fields)

    @contextmanager
    def context(self, **fields: object) -> Iterator[None]:
        """Bind ``fields`` for the duration of a block, then restore."""
        saved = dict(self._bound)
        self._bound.update(fields)
        try:
            yield
        finally:
            self._bound = saved

    def emit(self, event: str, **fields: object) -> None:
        """Record one event (dropped instantly when disabled).

        Every record carries two sequence numbers: ``seq``, assigned by
        the tracer that first built the record (stable per worker), and
        ``gseq``, the per-run monotonic number assigned by the tracer
        that writes the final sink.  Sorting a cross-worker event file
        by ``gseq`` is therefore always deterministic and total — see
        :meth:`ingest`.
        """
        if not self.enabled:
            return
        self._seq += 1
        record: Dict[str, object] = {"event": event, "seq": self._seq,
                                     "gseq": self._seq}
        if self._bound:
            record.update(self._bound)
        record.update(fields)
        self.sink.write(record)

    def ingest(self, events) -> None:
        """Write pre-built records (e.g. shipped back from a grid
        worker's :class:`MemorySink`) to the sink in the given order.

        Each record keeps its originating tracer's ``seq`` (per-cell
        ordering) but is stamped with a fresh ``gseq`` from *this*
        tracer's per-run counter: workers restart their counters from
        zero, so worker-local sequence numbers collide across cells and
        cannot order a merged stream — the parent-assigned ``gseq``
        can, and makes the merged file sortable deterministically."""
        if not self.enabled:
            return
        for record in events:
            self._seq += 1
            stamped = dict(record)
            stamped["gseq"] = self._seq
            self.sink.write(stamped)

    def close(self) -> None:
        """Flush and close the sink."""
        self.sink.close()


def read_events(path, tolerate_torn_tail: bool = True
                ) -> List[Dict[str, object]]:
    """Parse a JSONL event file back into a list of dicts.

    Blank lines are skipped.  A malformed *final* line is dropped (a
    torn tail from a crash mid-write, even one cut inside a UTF-8
    sequence — the same tolerance the run ledger applies); malformed
    lines anywhere else raise ``ValueError`` with the offending line
    number.  Pass ``tolerate_torn_tail=False`` to make a torn tail
    raise too.
    """
    from ..resilience.atomic import read_jsonl

    def malformed(lineno: int, exc: ValueError) -> ValueError:
        return ValueError(f"{path}:{lineno}: malformed event line: {exc}")

    return [event for _, event in read_jsonl(path, malformed,
                                             tolerate_torn_tail)]
