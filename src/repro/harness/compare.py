"""``repro compare RUN_A RUN_B``: diff two run ledgers.

Reads two run-ledger JSONL files (``repro run`` / ``experiment`` under
``--results-dir``, or a campaign's ``ledger.jsonl``) and produces
per-cell metric deltas plus regression flags.  Anything that is not a
run ledger raises :class:`~repro.errors.ConfigError`.

Two regression gates share this module, and the samples pick one for
each timing of each replicate group — the cells whose canonical keys
differ by seed alone:

- **Significance gate** (for groups with at least
  :data:`~repro.harness.stats.MIN_SAMPLES_FOR_STATS` seeds per side,
  and enough of them that each test of the family can reach ``alpha``
  after Holm's correction — see :func:`_gate_family`): timings are
  tested with a Holm-corrected one-sided Mann-Whitney family
  (:func:`repro.harness.stats.significant_slowdowns`), and a timing
  regresses only when the slowdown is *both* statistically
  significant *and* larger than ``max_regress`` in the means.
  Significance weeds out within-run noise (a single jittered cell
  can no longer fail CI); the magnitude floor weeds out
  significant-but-ambient drift (thermal throttling or co-tenant
  load shifts every repeat consistently, so it passes a pure
  significance test with flying colors).  Long-term creep detection
  belongs to the end-to-end benchmark (``benchmarks/e2e/``), not a
  two-point compare.
- **Threshold gate** (for every other timing, e.g. single-seed cells):
  a timing regresses when it exceeds the baseline's by more than
  ``max_regress`` (default
  :data:`~repro.harness.DEFAULT_MAX_REGRESS` = +25%), via
  :func:`timing_regression`.

Rate metrics (accuracy/coverage/speedup) are reported as deltas and
flagged as anomalies when they worsen by more than ``max_metric_drop``
(absolute), since a correctness-shaped drift deserves eyes even if no
wall-clock moved; groups with at least two samples per side
additionally get p-values, bootstrap CIs, and Cliff's-delta effect
sizes in the stats table.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from . import DEFAULT_MAX_REGRESS
from . import stats as st
from .reporting import format_table

#: Per-cell rate metrics diffed between two ledgers, and the timing
#: keys checked with the regression gates.
LEDGER_RATE_METRICS = ("speedup", "accuracy", "coverage")
LEDGER_TIMING_KEYS = ("prefetch_file_s", "replay_s")


def timing_regression(label: str, new: float, old: float,
                      max_regress: float = DEFAULT_MAX_REGRESS
                      ) -> Optional[str]:
    """The threshold gate's rule: flag when ``new`` exceeds ``old`` by
    more than ``max_regress`` (fractional, e.g. ``0.25`` = +25%).

    Returns the human-readable regression message, or ``None`` on pass
    (a non-positive baseline timing can never regress — there is
    nothing meaningful to compare against).
    """
    if old > 0 and new > old * (1.0 + max_regress):
        return (f"{label}: {new:.4f}s vs baseline {old:.4f}s "
                f"(+{(new / old - 1.0) * 100:.0f}%, limit "
                f"+{max_regress * 100:.0f}%)")
    return None


@dataclass(frozen=True)
class StatRow:
    """One statistical comparison (a cell-group × metric) for reports.

    ``ci_low``/``ci_high`` bound ``mean_b - mean_a`` (bootstrap, fixed
    seed); ``effect`` is Cliff's delta of B over A.  ``p_adjusted`` is
    the Holm-corrected p-value when the row belonged to the regression
    gate family, else ``None`` (informational row).
    """

    label: str
    metric: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    p_value: float
    ci_low: float
    ci_high: float
    effect: float
    p_adjusted: Optional[float] = None
    significant: bool = False


@dataclass
class CompareResult:
    """The outcome of one artifact comparison."""

    kind: str  # "ledger", named in the delta table's title
    #: (label, metric, value_a, value_b, delta) per compared number.
    deltas: List[Tuple[str, str, float, float, float]] = field(
        default_factory=list)
    #: Timing regressions per the active gate rule (fail CI).
    regressions: List[str] = field(default_factory=list)
    #: Non-timing drifts worth eyes (don't fail, do surface).
    anomalies: List[str] = field(default_factory=list)
    #: Statistical rows: per sampled cell-group × metric.
    stats: List[StatRow] = field(default_factory=list)
    #: "threshold", "significance", or "mixed" (some cells lacked the
    #: samples for the significance gate and fell back).
    gate: str = "threshold"

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        """Printable report: delta table, stats table, then flags."""
        lines: List[str] = []
        if self.deltas:
            rows = [[label, metric, a, b, delta]
                    for label, metric, a, b, delta in self.deltas]
            lines.append(format_table(
                ["cell", "metric", "A", "B", "delta"], rows,
                title=f"Comparison ({self.kind})"))
        if self.stats:
            rows = []
            for s in self.stats:
                rows.append([
                    s.label, s.metric, f"{s.n_a}/{s.n_b}", s.mean_a,
                    s.mean_b, f"{s.p_value:.4f}",
                    "-" if s.p_adjusted is None else f"{s.p_adjusted:.4f}",
                    f"[{s.ci_low:+.4f}, {s.ci_high:+.4f}]",
                    f"{s.effect:+.2f}",
                    "SLOWER" if s.significant else ""])
            lines.append(format_table(
                ["cell", "metric", "n A/B", "mean A", "mean B", "p",
                 "holm p", "CI95(B-A)", "delta", "verdict"], rows,
                title=f"Statistical comparison (gate: {self.gate}, "
                      f"Mann-Whitney U + Holm, seeded bootstrap)"))
        for message in self.anomalies:
            lines.append(f"ANOMALY: {message}")
        for message in self.regressions:
            lines.append(f"REGRESSION: {message}")
        if not self.regressions:
            lines.append(
                "No timing regressions."
                if self.gate == "threshold"
                else "No statistically significant timing regressions.")
        return "\n".join(lines)


def load_artifact(path) -> Dict:
    """Load a run ledger for comparison.

    Returns the :func:`repro.obs.read_ledger` dict.  Raises
    :class:`~repro.errors.ConfigError` for an unreadable file or one
    that is not a run ledger.
    """
    from ..obs.ledger import read_ledger

    path = Path(path)
    try:
        parsed = read_ledger(path)
    except OSError as exc:
        raise ConfigError(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not a run ledger ({exc})") from exc
    if parsed["manifest"] is None and not parsed["cells"]:
        raise ConfigError(f"{path}: not a run ledger")
    return parsed


def _cell_index(parsed: Dict) -> Dict[str, Dict]:
    """Ledger cells keyed by their canonical cell key (last write wins,
    so a cell recorded again — failed, then re-run on resume — compares
    by its final record)."""
    return {str(cell.get("key", cell.get("cell", "?"))): cell
            for cell in parsed.get("cells", [])}


def _replicate_group(cell: Dict) -> Optional[str]:
    """The cell's canonical key without its seed, or ``None``.

    Cells sharing it differ by seed alone, so they are replicates of one
    measurement.  Sharing a prefetcher name is not enough: a config
    sweep records every ``PathfinderConfig`` as ``pathfinder``.  A key
    that is not a canonical JSON cell key pools with nothing.
    """
    try:
        payload = json.loads(str(cell.get("key")))
    except ValueError:
        return None
    if not isinstance(payload, dict) or "seed" not in payload:
        return None
    del payload["seed"]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _group_samples(parsed: Dict) -> Dict[str, Dict[str, List[float]]]:
    """Per-replicate-group sample vectors, one sample per seed.

    Failed and quarantined cells are excluded — their zeroed
    placeholder metrics are resilience bookkeeping, not measurements.
    """
    groups: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for cell in parsed.get("cells", []):
        group = _replicate_group(cell)
        if group is None or cell.get("outcome") in ("failed",
                                                    "quarantined"):
            continue
        metrics = cell.get("metrics") or {}
        timings = cell.get("timings") or {}
        for metric in LEDGER_RATE_METRICS:
            if metric in metrics:
                groups[group][metric].append(float(metrics[metric]))
        for timing in LEDGER_TIMING_KEYS:
            if timing in timings:
                groups[group][timing].append(float(timings[timing]))
    return groups


def _group_labels(*ledgers: Dict) -> Dict[str, str]:
    """A display label per replicate group: ``workload:prefetcher``,
    plus a hash of the group key where groups share it (a config
    sweep)."""
    names: Dict[str, str] = {}
    for parsed in ledgers:
        for cell in parsed.get("cells", []):
            group = _replicate_group(cell)
            if group is not None:
                names[group] = (f"{cell.get('workload', '?')}:"
                                f"{cell.get('prefetcher', '?')}")
    shared = Counter(names.values())
    return {group: name if shared[name] == 1 else
            f"{name}#{hashlib.sha256(group.encode()).hexdigest()[:8]}"
            for group, name in names.items()}


#: One pooled timing: (replicate group, timing key, samples A, samples B).
_Pooled = Tuple[str, str, List[float], List[float]]


def _gate_family(candidates: List[_Pooled], alpha: float) -> List[_Pooled]:
    """The candidate timings the significance gate takes.

    In a Holm family of ``m`` tests a timing can be flagged only if
    ``m`` times the smallest p-value its sample sizes allow
    (:func:`~repro.harness.stats.min_p_value`; timings are continuous,
    so tie-free) is at most ``alpha`` — and that floor is coarse at few
    seeds (1/20 for 3 vs 3, 1/70 for 4 vs 4), so a family of such
    timings could pass any slowdown.  The gate takes the largest family in which every member
    can reach ``alpha`` (the members with the smallest floors); the
    other candidates keep the threshold gate.
    """
    floors = [st.min_p_value(len(a), len(b)) for _, _, a, b in candidates]
    limit = 0.0
    for floor in sorted(set(floors)):
        if sum(f <= floor for f in floors) * floor > alpha:
            break
        limit = floor
    return [c for c, f in zip(candidates, floors) if f <= limit]


def _stat_row(label: str, metric: str, a: Sequence[float],
              b: Sequence[float]) -> StatRow:
    test = st.mann_whitney_u(b, a)  # two-sided: is B shifted vs A?
    ci_lo, ci_hi = st.bootstrap_diff_ci(b, a)
    return StatRow(label=label, metric=metric, n_a=len(a), n_b=len(b),
                   mean_a=float(sum(a) / len(a)),
                   mean_b=float(sum(b) / len(b)),
                   p_value=test.p_value, ci_low=ci_lo, ci_high=ci_hi,
                   effect=st.cliffs_delta(b, a))


def _apply_significance_gate(result: CompareResult,
                             groups_a: Dict[str, Dict[str, List[float]]],
                             groups_b: Dict[str, Dict[str, List[float]]],
                             labels: Dict[str, str], alpha: float,
                             max_regress: float) -> set:
    """Run the stats layer over matched replicate groups.

    Returns the set of ``(group, timing)`` pairs the significance gate
    covered; the caller falls back to the threshold rule for the rest.
    Also fills ``result.stats`` with informational rate-metric rows.
    """
    candidates: List[_Pooled] = []
    for group in sorted(set(groups_a) & set(groups_b),
                        key=lambda g: (labels[g], g)):
        for timing in LEDGER_TIMING_KEYS:
            a = groups_a[group].get(timing) or []
            b = groups_b[group].get(timing) or []
            if (len(a) >= st.MIN_SAMPLES_FOR_STATS
                    and len(b) >= st.MIN_SAMPLES_FOR_STATS):
                candidates.append((group, timing, a, b))
        for metric in LEDGER_RATE_METRICS:
            a = groups_a[group].get(metric) or []
            b = groups_b[group].get(metric) or []
            if len(a) >= 2 and len(b) >= 2:
                result.stats.append(_stat_row(labels[group], metric, a, b))
    family = _gate_family(candidates, alpha)
    if family:
        verdicts = st.significant_slowdowns(
            [(f"{labels[group]}.{timing}", a, b)
             for group, timing, a, b in family], alpha=alpha,
            min_ratio=1.0 + max_regress)
        for (group, timing, a, b), verdict in zip(family, verdicts):
            ci_lo, ci_hi = st.bootstrap_diff_ci(b, a)
            result.stats.append(StatRow(
                label=labels[group], metric=timing, n_a=verdict.n_a,
                n_b=verdict.n_b, mean_a=verdict.mean_a,
                mean_b=verdict.mean_b, p_value=verdict.p_value,
                ci_low=ci_lo, ci_high=ci_hi, effect=verdict.effect,
                p_adjusted=verdict.p_adjusted,
                significant=verdict.significant))
            if verdict.significant:
                result.regressions.append(verdict.message())
    return {(group, timing) for group, timing, _, _ in family}


def compare_ledgers(a: Dict, b: Dict,
                    max_regress: float = DEFAULT_MAX_REGRESS,
                    max_metric_drop: float = 0.05,
                    alpha: float = st.DEFAULT_ALPHA) -> CompareResult:
    """Diff two parsed ledgers cell-by-cell.

    Cells are matched on their canonical key (workload, spec, seed,
    loads, budget, hierarchy), so only like-for-like cells compare; cells
    present in only one run are reported as anomalies.

    Cells whose keys differ by seed alone are also pooled into sample
    vectors, and the significance gate replaces the threshold rule for
    the timings whose samples let it reach ``alpha`` (see module
    docstring).
    """
    result = CompareResult(kind="ledger")
    covered = _apply_significance_gate(
        result, _group_samples(a), _group_samples(b), _group_labels(a, b),
        alpha, max_regress)
    if covered:
        result.gate = "significance"
    cells_a, cells_b = _cell_index(a), _cell_index(b)
    fell_back = False
    for key in sorted(set(cells_a) | set(cells_b)):
        cell_a, cell_b = cells_a.get(key), cells_b.get(key)
        if cell_a is None or cell_b is None:
            which = "B" if cell_a is None else "A"
            missing = (cell_b or cell_a).get("cell", key)
            result.anomalies.append(
                f"cell {missing} only present in run {which}")
            continue
        label = str(cell_b.get("cell", key))
        group = _replicate_group(cell_b)
        metrics_a = cell_a.get("metrics") or {}
        metrics_b = cell_b.get("metrics") or {}
        for metric in LEDGER_RATE_METRICS:
            va = float(metrics_a.get(metric, 0.0))
            vb = float(metrics_b.get(metric, 0.0))
            result.deltas.append((label, metric, va, vb, vb - va))
            if va - vb > max_metric_drop:
                result.anomalies.append(
                    f"{label}.{metric}: {vb:.4f} vs {va:.4f} "
                    f"(dropped {va - vb:.4f}, limit {max_metric_drop})")
        timings_a = cell_a.get("timings") or {}
        timings_b = cell_b.get("timings") or {}
        for timing in LEDGER_TIMING_KEYS:
            if timing not in timings_a and timing not in timings_b:
                # A key neither ledger recorded (failed and quarantined
                # cells record no timings): nothing to diff, and its
                # absence must not demote the gate to "mixed".
                continue
            old = float(timings_a.get(timing, 0.0))
            new = float(timings_b.get(timing, 0.0))
            result.deltas.append((label, timing, old, new, new - old))
            if (group, timing) in covered:
                continue  # the significance gate owns this timing
            message = timing_regression(f"{label}.{timing}", new, old,
                                        max_regress)
            if message is not None:
                result.regressions.append(message)
            if covered:
                fell_back = True
        if cell_b.get("outcome") != cell_a.get("outcome"):
            result.anomalies.append(
                f"{label}.outcome: {cell_b.get('outcome')!r} vs "
                f"{cell_a.get('outcome')!r}")
    if fell_back:
        result.gate = "mixed"
    return result


def compare_artifacts(path_a, path_b,
                      max_regress: float = DEFAULT_MAX_REGRESS,
                      max_metric_drop: float = 0.05,
                      alpha: float = st.DEFAULT_ALPHA) -> CompareResult:
    """Load and diff two run ledgers (``repro compare``'s engine).

    Raises :class:`~repro.errors.ConfigError` when either file is not a
    run ledger.
    """
    return compare_ledgers(load_artifact(path_a), load_artifact(path_b),
                           max_regress=max_regress,
                           max_metric_drop=max_metric_drop, alpha=alpha)
