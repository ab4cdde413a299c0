"""In-memory spans and counters for the benchmark's traced run.

The recorder wraps functions from outside the program (see
``driver.install``): each wrapped call becomes one span with a name,
start, end, parent span and the id of the grid cell it belongs to.
Spans stay in memory and are written to ``spans.jsonl`` when the run
ends.  Self time is a span's duration minus the part of it that its
children cover; the time no top-level span covers is the residual.

Standard library only, so the bench can analyse spans without
importing the program.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Span = Dict[str, object]


class SpanRecorder:
    """Records spans and counts for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self._stack: List[int] = []
        self._cells = 0
        self._undo: List[Tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args: Sequence, kwargs: Dict,
             cell: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        A ``cell`` span opens a new cell id; any other span inherits
        its parent's.
        """
        parent = self._stack[-1] if self._stack else None
        if cell:
            self._cells += 1
            cell_id: Optional[int] = self._cells
        else:
            cell_id = (self.spans[parent]["cell"] if parent is not None
                       else None)
        record: Span = {"name": name, "start": 0.0, "end": 0.0,
                        "parent": parent, "cell": cell_id}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str,
             name: Union[str, Callable[..., str]], cell: bool = False) -> None:
        """Replace ``owner.attr`` with a spanned version.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, original, args, kwargs, cell=cell)

        self._patch(owner, attr, original, spanned)

    def tally(self, owner: object, attr: str,
              counters: Dict[str, Callable[..., int]]) -> None:
        """Count calls of ``owner.attr`` without a span.

        Each counter adds ``weight(*args, **kwargs)`` per call.
        """
        original = getattr(owner, attr)
        counts = self.counts
        for key in counters:
            counts.setdefault(key, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for key, weight in counters.items():
                counts[key] += weight(*args, **kwargs)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Union[str, Path]) -> None:
        """Write the spans, then one ``run`` record with wall and counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(record, kind="span")) + "\n")
            fh.write(json.dumps({"kind": "run", "start": self.start,
                                 "end": self.end,
                                 "counts": self.counts}) + "\n")


def read_spans(path: Union[str, Path]) -> Tuple[List[Span], Dict[str, object]]:
    """Parse ``spans.jsonl`` into ``(spans, run_record)``."""
    spans: List[Span] = []
    run: Dict[str, object] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.pop("kind") == "span":
            spans.append(record)
        else:
            run = record
    return spans, run


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [(span["end"] - span["start"])
            - _covered(children[i], span["start"], span["end"])
            for i, span in enumerate(spans)]


def residual(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no top-level span covers."""
    top = [(span["start"], span["end"]) for span in spans
           if span["parent"] is None]
    return (end - start) - _covered(top, start, end)
