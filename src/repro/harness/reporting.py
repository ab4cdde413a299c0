"""ASCII-table rendering and summary statistics for experiment output."""

from __future__ import annotations

import math
from collections import Counter as TallyCounter
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Cell = Union[str, int, float]

#: (title, headers, rows) — the same shape experiment tables use.
EventTable = Tuple[str, Sequence[str], List[Sequence[Cell]]]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render a padded ASCII table.

    Args:
        headers: Column names.
        rows: Row cells; floats are rendered with 3 decimals.
        title: Optional title line above the table.
    """
    rendered = [[_render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    """Geomean (the paper's cross-benchmark IPC summary statistic).

    Raises:
        ValueError: if any value is non-positive or the input is empty.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean, for rate metrics (accuracy/coverage)."""
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of empty sequence")
    return sum(values) / len(values)


#: Prefetch-lifecycle event names in funnel order (see
#: ``docs/architecture.md`` § Observability for the schema).
PF_LIFECYCLE_EVENTS = ("pf.issued", "pf.fill", "pf.useful", "pf.late",
                       "pf.dropped", "pf.evicted_unused")


def lifecycle_counts(events: Iterable[Dict]) -> Dict[str, int]:
    """Per-stage tallies of the prefetch lifecycle funnel.

    Shared between :func:`summarize_events` and the HTML dashboard so
    both report the same funnel from the same event stream.
    """
    counts = TallyCounter(str(e.get("event", "?")) for e in events)
    return {name: counts.get(name, 0) for name in PF_LIFECYCLE_EVENTS}


def summarize_events(events: Iterable[Dict]) -> List[EventTable]:
    """Aggregate a structured-event stream into report tables.

    Consumes the dicts produced by :class:`repro.obs.Tracer` (e.g. a
    ``--events-out`` JSONL file re-read with
    :func:`repro.obs.read_events`) and returns (title, headers, rows)
    tables ready for :func:`format_table`:

    - per-run summaries from ``run.begin``/``run.end`` pairs,
    - the prefetch lifecycle funnel (issued → fill → useful/late/
      dropped/evicted-unused), where "useful (total)" = ``pf.useful``
      + ``pf.late`` and matches ``SimResult.pf_useful``,
    - SNN summaries, when present.
    """
    events = list(events)
    type_counts = TallyCounter(str(e.get("event", "?")) for e in events)
    tables: List[EventTable] = []

    runs = [e for e in events if e.get("event") == "run.end"]
    if runs:
        rows: List[Sequence[Cell]] = [
            [e.get("trace", "?"), e.get("prefetcher", "?"),
             e.get("ipc", 0.0), int(e.get("pf_issued", 0)),
             int(e.get("pf_useful", 0)), int(e.get("pf_late", 0)),
             int(e.get("pf_dropped", 0)), int(e.get("llc_misses", 0))]
            for e in runs]
        tables.append(("Simulation runs",
                       ["trace", "prefetcher", "IPC", "issued", "useful",
                        "late", "dropped", "LLC misses"], rows))

    funnel = lifecycle_counts(events)
    if runs or any(funnel.values()):
        lifecycle_rows: List[Sequence[Cell]] = [
            [name, count] for name, count in funnel.items()]
        useful_total = funnel["pf.useful"] + funnel["pf.late"]
        lifecycle_rows.append(["useful (total = useful + late)",
                               useful_total])
        tables.append(("Prefetch lifecycle", ["stage", "events"],
                       lifecycle_rows))

    snn = [e for e in events if e.get("event") == "snn.summary"]
    if snn:
        rows = [[e.get("prefetcher", "?"), int(e.get("queries", 0)),
                 int(e.get("stdp_updates", 0)), int(e.get("spikes", 0)),
                 float(e.get("weight_saturation", 0.0))]
                for e in snn]
        tables.append(("SNN telemetry",
                       ["prefetcher", "queries", "STDP updates", "spikes",
                        "weight saturation"], rows))

    other = sorted((name, count) for name, count in type_counts.items()
                   if name not in PF_LIFECYCLE_EVENTS
                   and name != "snn.summary")
    rows = [[name, count] for name, count in other]
    rows.append(["TOTAL (all events)", len(events)])
    tables.append(("Event counts", ["event", "count"], rows))
    return tables
