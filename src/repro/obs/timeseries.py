"""Windowed time-series telemetry: the observability stack's time axis.

Whole-run aggregates (the metrics registry, the ledger) can say a run's
final accuracy but not how fast the learner adapted after a phase
change.  This module adds bounded-memory *windowed series*: values
keyed by fixed access-index windows, collected with one write-back per
window so hot loops stay hot, mergeable across workers like
:class:`~repro.obs.telemetry.MetricsRegistry`, and snapshotted to a
schema-versioned JSONL file.

Design rules
------------

- **Fixed windows.**  Every point is keyed by its window *start*
  (always a multiple of the series' window size); both replay loops
  sample at window boundaries, so point starts are ``0, W, 2W, ...``
  with the final partial window keyed like any other.
- **Two aggregations.**  ``"sum"`` series hold per-window deltas of
  cumulative counters (hit counts, issued prefetches); ``"last"``
  series hold point-in-time gauges (queue occupancy, weight norms).
  Rates are *computed downstream* as ratios of sum series — never
  stored — so decimation and merging stay exact.
- **Bounded memory via 2x decimation.**  When a series exceeds its
  point cap, its window doubles and adjacent points merge (sums add,
  lasts keep the later point).  Window alignment is preserved: a
  decimated point's start is still a multiple of the (new) window.
- **Deterministic merge.**  Collectors merge like metric registries;
  grid cells label their series with the cell key, so per-worker
  collections are disjoint and a parallel merge is bit-identical to a
  serial run.  Snapshots are key-sorted, so file contents are
  independent of insertion order.
- **Torn-tail-tolerant reader.**  Like every JSONL artifact in this
  repo, a crash mid-write may tear the final line; the reader drops it.
  Anything else malformed — wrong schema, misaligned points, unknown
  aggregation — raises :class:`~repro.errors.ConfigError` (CLI exit 2).

The phase-change detector (:func:`detect_phases`) and the
adaptation-lag metric (:func:`adaptation_lag`) turn the per-window
miss-rate and accuracy series into the temporal story the dashboard
tells: where the workload shifted, and how many windows each prefetcher
needed to recover.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from . import DEFAULT_WINDOW
from .telemetry import metric_key

#: Schema version stamped on every series record.
SERIES_SCHEMA = 1

#: Default per-series point cap; exceeding it triggers 2x decimation.
DEFAULT_POINT_CAP = 512

#: Supported aggregations (see module docstring).
AGGREGATIONS = ("sum", "last")


class Series:
    """One windowed series: ``{window_start: value}`` plus metadata."""

    __slots__ = ("name", "labels", "agg", "window", "point_cap", "points")

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None,
                 agg: str = "sum", window: int = DEFAULT_WINDOW,
                 point_cap: int = DEFAULT_POINT_CAP):
        if agg not in AGGREGATIONS:
            raise ConfigError(
                f"unknown series aggregation {agg!r}; "
                f"expected one of {AGGREGATIONS}")
        if window < 1:
            raise ConfigError("series window must be >= 1")
        if point_cap < 2:
            raise ConfigError("series point_cap must be >= 2")
        self.name = name
        self.labels = dict(labels or {})
        self.agg = agg
        self.window = int(window)
        self.point_cap = point_cap
        self.points: Dict[int, float] = {}

    @property
    def key(self) -> str:
        """Canonical ``name{label=value,...}`` identity."""
        return metric_key(self.name, self.labels)

    def record(self, start: int, value) -> None:
        """Record one window's value; ``start`` is the window start.

        Values recorded at finer granularity than the current window
        (after decimation) fold into the containing window under the
        series' aggregation, so recording stays correct mid-stream.
        """
        aligned = (int(start) // self.window) * self.window
        if self.agg == "sum":
            self.points[aligned] = self.points.get(aligned, 0) + value
        else:
            self.points[aligned] = value
        if len(self.points) > self.point_cap:
            self._decimate_once()

    def _decimate_once(self) -> None:
        """Double the window, merging adjacent points (2x decimation)."""
        new_window = self.window * 2
        merged: Dict[int, float] = {}
        if self.agg == "sum":
            for start, value in self.points.items():
                aligned = (start // new_window) * new_window
                merged[aligned] = merged.get(aligned, 0) + value
        else:
            for start in sorted(self.points):
                aligned = (start // new_window) * new_window
                merged[aligned] = self.points[start]  # later start wins
        self.window = new_window
        self.points = merged

    def merge(self, other: "Series") -> None:
        """Fold ``other`` into this series (same name/labels/agg).

        Windows are aligned first (the finer series decimates up to the
        coarser one's window), then points combine under the series'
        aggregation.  Grid merges only ever see disjoint point sets
        (cell labels keep workers apart); overlapping ``last`` points
        take ``other``'s value, matching gauge merge semantics.
        """
        if self.agg != other.agg:
            raise ConfigError(
                f"cannot merge series {self.key!r}: aggregation differs "
                f"({self.agg!r} vs {other.agg!r})")
        while self.window < other.window:
            self._decimate_once()
        other_points = other.points
        if other.window < self.window:
            shadow = Series(other.name, other.labels, agg=other.agg,
                            window=other.window, point_cap=other.point_cap)
            shadow.points = dict(other.points)
            while shadow.window < self.window:
                shadow._decimate_once()
            other_points = shadow.points
        if self.agg == "sum":
            for start, value in other_points.items():
                self.points[start] = self.points.get(start, 0) + value
        else:
            for start in sorted(other_points):
                self.points[start] = other_points[start]
        while len(self.points) > self.point_cap:
            self._decimate_once()

    def sorted_points(self) -> List[Tuple[int, float]]:
        """Points as a start-sorted list of ``(start, value)`` pairs."""
        return sorted(self.points.items())

    def snapshot(self) -> Dict[str, object]:
        """One self-describing, JSON-serialisable record."""
        return {
            "schema": SERIES_SCHEMA,
            "kind": "series",
            "name": self.name,
            "labels": dict(self.labels),
            "agg": self.agg,
            "window": self.window,
            "points": [[start, value] for start, value
                       in self.sorted_points()],
        }

    @classmethod
    def from_snapshot(cls, record: Mapping[str, object],
                      point_cap: int = DEFAULT_POINT_CAP) -> "Series":
        """Rebuild a series from a validated snapshot record."""
        validate_series_record(record)
        series = cls(str(record["name"]), dict(record["labels"]),
                     agg=str(record["agg"]), window=int(record["window"]),
                     point_cap=point_cap)
        for start, value in record["points"]:
            series.points[int(start)] = value
        return series


class SeriesCollector:
    """Get-or-create store for all windowed series of one run.

    Mirrors :class:`~repro.obs.telemetry.MetricsRegistry`: series are
    identified by name + label set, :meth:`context` binds ambient
    labels (the harness binds the grid-cell key there), :meth:`merge`
    folds a worker's collector into the parent's, and
    :meth:`snapshot` produces key-sorted plain records.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 point_cap: int = DEFAULT_POINT_CAP):
        if window < 1:
            raise ConfigError("series window must be >= 1")
        self.window = int(window)
        self.point_cap = point_cap
        self._series: Dict[str, Series] = {}
        self._context: Dict[str, object] = {}

    @contextmanager
    def context(self, **labels: object) -> Iterator[None]:
        """Bind ``labels`` onto every series created inside the block."""
        saved = dict(self._context)
        self._context.update(labels)
        try:
            yield
        finally:
            self._context = saved

    def bind(self, **labels: object) -> None:
        """Permanently merge ``labels`` into future series identities."""
        self._context.update(labels)

    def series(self, name: str, agg: str = "sum",
               **labels: object) -> Series:
        """The series for (name, context + labels), created on first use."""
        merged = dict(self._context)
        merged.update(labels)
        key = metric_key(name, merged)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(
                name, merged, agg=agg, window=self.window,
                point_cap=self.point_cap)
        elif series.agg != agg:
            raise ConfigError(
                f"series {key!r} already exists with aggregation "
                f"{series.agg!r} (requested {agg!r})")
        return series

    def find(self, name: str, **labels: object) -> Optional[Series]:
        """The series for (name, context + labels), or ``None``.

        Unlike :meth:`series` this never creates, so probing for an
        absent series does not pollute the snapshot with empty
        records.
        """
        merged = dict(self._context)
        merged.update(labels)
        return self._series.get(metric_key(name, merged))

    def record(self, name: str, start: int, value, agg: str = "sum",
               **labels: object) -> None:
        """Record one point (shorthand for ``series(...).record``)."""
        self.series(name, agg=agg, **labels).record(start, value)

    def recorder(self, window: Optional[int] = None,
                 **labels: object) -> "WindowRecorder":
        """A :class:`WindowRecorder` bound to this collector."""
        return WindowRecorder(self, window or self.window, labels)

    def merge(self, other: "SeriesCollector") -> None:
        """Fold another collector's series into this one."""
        if other is self:
            return
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                mine = self._series[key] = Series(
                    series.name, series.labels, agg=series.agg,
                    window=series.window, point_cap=series.point_cap)
            mine.merge(series)

    def ingest(self, records: Sequence[Mapping[str, object]]) -> None:
        """Fold snapshot records (e.g. shipped back from a grid worker)
        into this collector, validating each."""
        for record in records:
            series = Series.from_snapshot(record, point_cap=self.point_cap)
            key = series.key
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = series
            else:
                mine.merge(series)

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> List[Dict[str, object]]:
        """All series as key-sorted plain records (JSON-serialisable)."""
        return [self._series[key].snapshot()
                for key in sorted(self._series)]

    def write_jsonl(self, path) -> None:
        """Atomically write the snapshot as one record per line."""
        from ..resilience.atomic import atomic_write_text

        lines = [json.dumps(record, separators=(",", ":"), sort_keys=True)
                 for record in self.snapshot()]
        atomic_write_text(path, "".join(line + "\n" for line in lines))


class WindowRecorder:
    """Per-window sampling helper fed cumulative counters.

    Engines keep their counters cumulative (that is what their hot
    loops already maintain) and call :meth:`sample` once per window
    boundary; the recorder diffs against the previous boundary and
    records the delta into ``"sum"`` series, while ``gauges`` land
    verbatim in ``"last"`` series.  Integer counters stay integers end
    to end, so serial and merged-parallel snapshots are bit-identical.
    """

    __slots__ = ("_collector", "window", "_labels", "_prev", "_next_start")

    def __init__(self, collector: SeriesCollector, window: int,
                 labels: Dict[str, object]):
        if window < 1:
            raise ConfigError("recorder window must be >= 1")
        self._collector = collector
        self.window = int(window)
        self._labels = dict(labels)
        self._prev: Dict[str, float] = {}
        self._next_start = 0

    def sample(self, end: int,
               cumulative: Optional[Mapping[str, float]] = None,
               gauges: Optional[Mapping[str, float]] = None) -> None:
        """Close the window ending at access index ``end``."""
        start = self._next_start
        if end <= start:
            return
        if cumulative:
            for name, value in cumulative.items():
                delta = value - self._prev.get(name, 0)
                self._prev[name] = value
                self._collector.record(name, start, delta, agg="sum",
                                       **self._labels)
        if gauges:
            for name, value in gauges.items():
                self._collector.record(name, start, value, agg="last",
                                       **self._labels)
        self._next_start = end


# -- reading and validation ----------------------------------------------


def validate_series_record(record) -> None:
    """Raise :class:`ConfigError` unless ``record`` is a valid series."""
    if not isinstance(record, Mapping):
        raise ConfigError("series record is not an object")
    if record.get("schema") != SERIES_SCHEMA:
        raise ConfigError(
            f"unsupported series schema {record.get('schema')!r} "
            f"(expected {SERIES_SCHEMA})")
    if record.get("kind") != "series":
        raise ConfigError(
            f"unsupported series kind {record.get('kind')!r}")
    if not isinstance(record.get("name"), str) or not record["name"]:
        raise ConfigError("series record has no name")
    if not isinstance(record.get("labels"), Mapping):
        raise ConfigError(f"series {record['name']!r}: labels must be "
                          "an object")
    if record.get("agg") not in AGGREGATIONS:
        raise ConfigError(
            f"series {record['name']!r}: unknown aggregation "
            f"{record.get('agg')!r}")
    window = record.get("window")
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise ConfigError(
            f"series {record['name']!r}: window must be a positive int")
    points = record.get("points")
    if not isinstance(points, list):
        raise ConfigError(f"series {record['name']!r}: points must be "
                          "a list")
    prev_start = -1
    for point in points:
        if (not isinstance(point, (list, tuple)) or len(point) != 2):
            raise ConfigError(
                f"series {record['name']!r}: each point must be a "
                "[start, value] pair")
        start, value = point
        if not isinstance(start, int) or isinstance(start, bool):
            raise ConfigError(
                f"series {record['name']!r}: point start {start!r} is "
                "not an int")
        if start % window != 0:
            raise ConfigError(
                f"series {record['name']!r}: point start {start} is not "
                f"aligned to window {window}")
        if start <= prev_start:
            raise ConfigError(
                f"series {record['name']!r}: point starts must be "
                "strictly increasing")
        prev_start = start
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ConfigError(
                f"series {record['name']!r}: point value {value!r} is "
                "not a finite number")


def read_series(path, tolerate_torn_tail: bool = True
                ) -> List[Dict[str, object]]:
    """Parse a series JSONL file back into validated records.

    A malformed *final* line is dropped (torn tail from a crash
    mid-write); any other malformation — JSON or schema — raises
    :class:`ConfigError`, which the CLI maps to exit 2.
    """
    from ..resilience.atomic import read_jsonl

    def malformed(lineno: int, exc: ValueError) -> ConfigError:
        return ConfigError(f"{path}:{lineno}: malformed series line: {exc}")

    records: List[Dict[str, object]] = []
    for lineno, record in read_jsonl(path, malformed, tolerate_torn_tail):
        try:
            validate_series_record(record)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        records.append(record)
    return records


# -- phase-change detection and adaptation lag ---------------------------


def detect_phases(values: Sequence[float], k: int = 4,
                  threshold: float = 0.1) -> List[int]:
    """Windowed mean-shift boundaries in a per-window series.

    For every candidate boundary ``i`` (a point index), compares the
    mean of the ``k`` windows before against the ``k`` windows after;
    a boundary is reported where the absolute shift meets ``threshold``
    and is the local maximum among candidates within ``k`` windows
    (strongest shift wins; ties break toward the earlier boundary).
    Deterministic and dependency-free — the detector runs over rates
    computed from sum series, e.g. per-window demand miss rate.
    """
    n = len(values)
    if k < 1:
        raise ConfigError("phase-detector k must be >= 1")
    if n < 2 * k:
        return []
    shifts: List[Tuple[int, float]] = []
    for i in range(k, n - k + 1):
        before = sum(values[i - k:i]) / k
        after = sum(values[i:i + k]) / k
        shift = abs(after - before)
        if shift >= threshold:
            shifts.append((i, shift))
    # Strongest-first greedy selection with a k-window exclusion zone.
    chosen: List[int] = []
    for i, _ in sorted(shifts, key=lambda pair: (-pair[1], pair[0])):
        if all(abs(i - j) >= k for j in chosen):
            chosen.append(i)
    return sorted(chosen)


def adaptation_lag(values: Sequence[float], boundary: int, k: int = 4,
                   tolerance: float = 0.05) -> Optional[int]:
    """Windows from ``boundary`` until ``values`` recovers.

    Recovery means reaching the pre-boundary level again: the mean of
    the ``k`` windows before the boundary, minus ``tolerance``.
    Returns the number of windows (0 = never dipped), or ``None`` if
    the series never recovers — the honest answer for a learner the
    phase change permanently broke.
    """
    if not 0 < boundary <= len(values):
        return None
    lead = values[max(0, boundary - k):boundary]
    if not lead:
        return None
    target = sum(lead) / len(lead) - tolerance
    for j in range(boundary, len(values)):
        if values[j] >= target:
            return j - boundary
    return None


def rate_points(numerator: Mapping[str, object],
                denominator: Mapping[str, object]
                ) -> List[Tuple[int, float]]:
    """Per-window ratio of two sum-series records, start-aligned.

    Windows present in only one series, or with a zero denominator,
    are skipped.  This is the downstream rate computation the schema
    deliberately defers (see module docstring): miss rate =
    ``rate_points(misses, hits_plus_misses)``-style ratios.
    """
    den = {start: value for start, value in denominator["points"]}
    points: List[Tuple[int, float]] = []
    for start, value in numerator["points"]:
        total = den.get(start)
        if total:
            points.append((int(start), value / total))
    return points
