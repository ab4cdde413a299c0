"""One registered experiment per table/figure in the paper's evaluation.

Every experiment returns an :class:`ExperimentResult` with one or more
(title, headers, rows) tables that mirror the paper's artefact, plus
notes quoting what the paper reports so measured-vs-paper comparison is
immediate.  The benchmarks under ``benchmarks/`` are thin wrappers that
run these and print the tables; ``EXPERIMENTS.md`` records the outcomes.

Scale: experiments accept ``n_accesses``/``workloads`` overrides.  The
defaults balance fidelity and runtime (see DESIGN.md's scale note);
full-interval (32-tick) experiments default to shorter traces because
the multi-tick SNN costs ~3 ms per query in pure Python.

:class:`~repro.harness.runner.Evaluation` amortizes each workload's
trace columns across the whole lineup: every prefetcher cell replays
the same cached :class:`~repro.types.Trace`, so its columns and the
monotone check the compiled replay kernel needs are computed once per
workload and reused by the baseline and every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import PathfinderConfig
from ..prefetchers import generate_prefetches
from ..sim import simulate
from ..traces import WORKLOAD_NAMES, make_trace
from .reporting import arithmetic_mean, geometric_mean
from .runner import Evaluation

TableRows = List[Sequence]
Table = Tuple[str, Sequence[str], TableRows]


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Free-form numeric outputs for tests/benches to assert on.
    metrics: Dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        """Render all tables and notes as printable text."""
        from .reporting import format_table

        blocks = [f"== {self.experiment_id}: {self.title} =="]
        for title, headers, rows in self.tables:
            blocks.append(format_table(headers, rows, title=title))
        if self.notes:
            blocks.append("Notes:")
            blocks.extend(f"  - {n}" for n in self.notes)
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict:
        """JSON-serialisable form (tables, notes, metrics)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [
                {"title": title, "headers": list(headers),
                 "rows": [list(row) for row in rows]}
                for title, headers, rows in self.tables],
            "notes": list(self.notes),
            "metrics": dict(self.metrics),
        }

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` as JSON to ``path`` (atomic replace)."""
        from ..resilience.atomic import atomic_write_json

        atomic_write_json(path, self.to_dict(), indent=2, default=float)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_SHORT_WORKLOADS = ("cc-5", "473-astar-s1", "623-xalan-s1", "605-mcf-s1")


# ---------------------------------------------------------------------------
# Table 1 — 1-tick / 32-tick winner agreement
# ---------------------------------------------------------------------------

def experiment_table1(n_accesses: int = 3000, seed: int = 1,
                      workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    """% of queries where the highest-potential neuron after tick 1 is
    the interval's most-firing neuron (paper Table 1: 82.8–93.6%)."""
    from ..core.pathfinder import PathfinderPrefetcher

    workloads = list(workloads or WORKLOAD_NAMES)
    rows: TableRows = []
    result = ExperimentResult("table1",
                              "First-tick vs 32-tick winner agreement")
    for workload in workloads:
        trace = make_trace(workload, n_accesses, seed=seed)
        prefetcher = PathfinderPrefetcher(PathfinderConfig(one_tick=False))
        generate_prefetches(prefetcher, trace)
        total = max(1, prefetcher.first_tick_total)
        match = 100.0 * prefetcher.first_tick_matches / total
        rows.append([workload, f"{match:.2f}%"])
        result.metrics[f"match:{workload}"] = match
    result.tables.append(
        ("Matched neuron after first tick", ["Trace", "matched neuron"], rows))
    result.notes.append("Paper Table 1 reports 82.76%-93.56% across traces.")
    return result


# ---------------------------------------------------------------------------
# Table 2 / Figure 3 — SNN learning demonstration
# ---------------------------------------------------------------------------

def experiment_table2_fig3(seed: int = 3) -> ExperimentResult:
    """Single-pattern learning walk-through (paper §3.6).

    Feeds the paper's input schedule — six presentations of {1,2,4},
    then noisy variants, then {1,2,4} again — to a fresh network and
    reports the firing neuron, firing tick, and next-best potential,
    plus the Figure 3 voltage series for the first three intervals.
    """
    from ..core.pathfinder import PathfinderPrefetcher
    from ..core.pixel import PixelMatrixEncoder

    config = PathfinderConfig(one_tick=False, seed=seed)
    encoder_cfg = config

    encoder = PixelMatrixEncoder(encoder_cfg)
    prefetcher = PathfinderPrefetcher(config)
    network = prefetcher.network

    schedule = [(1, 2, 4)] * 6 + [(1, 3, 4), (1, 2, 5), (1, 4, 2),
                                  (1, 3, 6), (1, 2, 4)]
    rows: TableRows = []
    voltage_series: List[np.ndarray] = []
    result = ExperimentResult("table2_fig3", "SNN firing/learning behaviour")
    for index, pattern in enumerate(schedule):
        rates = encoder.encode(list(pattern))
        record = network.present(rates, record_voltage=index < 3)
        if index < 3 and record.voltage_trace is not None:
            voltage_series.append(record.voltage_trace)
        rows.append([
            "{" + ", ".join(map(str, pattern)) + "}",
            record.winner if record.winner is not None else "-",
            record.first_spike_tick if record.first_spike_tick is not None else "-",
            round(record.next_best_potential, 2),
        ])
    result.tables.append((
        "Firing behaviour per presentation",
        ["Input pattern", "Firing neuron", "Firing tick", "Next-best potential"],
        rows))
    base_winners = {row[1] for row in rows[:6]}
    result.metrics["repeat_stability"] = float(len(base_winners) == 1)
    result.metrics["final_matches_first"] = float(rows[-1][1] == rows[0][1])
    if voltage_series:
        trace = np.concatenate(voltage_series, axis=0)
        result.metrics["fig3_ticks_recorded"] = float(trace.shape[0])
    result.notes.append(
        "Paper Table 2: the same neuron fires for every {1,2,4} "
        "presentation, detects it at earlier ticks as STDP strengthens "
        "it, and noisy variants may recruit other neurons.")
    return result


# ---------------------------------------------------------------------------
# Figure 4 (+Table 6) — main comparison
# ---------------------------------------------------------------------------

FIG4_PREFETCHERS = ("bo", "sisb", "voyager", "delta-lstm", "spp",
                    "pythia", "pathfinder", "pathfinder+nl+sisb")


def experiment_fig4(n_accesses: int = 20_000, seed: int = 1,
                    workloads: Optional[Sequence[str]] = None,
                    prefetchers: Sequence[str] = FIG4_PREFETCHERS,
                    jobs: int = 1) -> ExperimentResult:
    """IPC / accuracy / coverage for the full prefetcher lineup."""
    workloads = list(workloads or WORKLOAD_NAMES)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    result = ExperimentResult("fig4", "Main prefetcher comparison")

    cells = [(workload, name) for workload in workloads
             for name in prefetchers]
    grid = dict(zip(cells, evaluation.run_cells(cells, jobs=jobs)))

    for metric, label in (("speedup", "IPC speedup over no-prefetch"),
                          ("accuracy", "Accuracy"),
                          ("coverage", "Coverage")):
        headers = ["Trace"] + list(prefetchers)
        rows: TableRows = []
        for workload in workloads:
            row = [workload]
            for name in prefetchers:
                row.append(getattr(grid[(workload, name)], metric))
            rows.append(row)
        mean_row = ["MEAN"]
        for name in prefetchers:
            values = [getattr(grid[(w, name)], metric) for w in workloads]
            if metric == "speedup":
                mean_row.append(geometric_mean(values))
            else:
                mean_row.append(arithmetic_mean(values))
            result.metrics[f"{metric}:{name}"] = mean_row[-1]
        rows.append(mean_row)
        result.tables.append((label, headers, rows))

    result.notes.append(
        "Paper Figure 4: PATHFINDER's mean IPC beats BO (+2.1%), "
        "Delta-LSTM (+18.7%), SPP (+9.3%), Voyager (+1.7%), Pythia "
        "(+2%), reaches 99.12% of SISB, and the PF+NL+SISB ensemble "
        "is best overall (+0.3% over SISB).")
    return result


def experiment_table6(n_accesses: int = 20_000, seed: int = 1,
                      workloads: Optional[Sequence[str]] = None,
                      jobs: int = 1) -> ExperimentResult:
    """Issued prefetches of SPP (fewest), Pythia (most), PATHFINDER."""
    workloads = list(workloads or WORKLOAD_NAMES)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    rows: TableRows = []
    result = ExperimentResult("table6", "Issued prefetches")
    totals = {"spp": [], "pythia": [], "pathfinder": []}
    names = ("spp", "pythia", "pathfinder")
    cells = [(workload, name) for workload in workloads for name in names]
    grid = dict(zip(cells, evaluation.run_cells(cells, jobs=jobs)))
    for workload in workloads:
        row = [workload]
        for name in names:
            issued = grid[(workload, name)].issued
            row.append(issued)
            totals[name].append(issued)
        rows.append(row)
    rows.append(["average"] + [int(arithmetic_mean(totals[n]))
                               for n in ("spp", "pythia", "pathfinder")])
    for name, values in totals.items():
        result.metrics[f"issued:{name}"] = arithmetic_mean(values)
    result.tables.append(
        ("Issued prefetches", ["Trace", "SPP", "Pythia", "Pathfinder"], rows))
    result.notes.append(
        "Paper Table 6 (per 1M loads): SPP averages 774K (lowest), "
        "Pythia 1.867M (highest), Pathfinder 1.75M.")
    return result


# ---------------------------------------------------------------------------
# Figure 5 / Table 7 — delta-range sensitivity
# ---------------------------------------------------------------------------

def experiment_fig5_table7(n_accesses: int = 20_000, seed: int = 1,
                           workloads: Optional[Sequence[str]] = None,
                           delta_ranges: Sequence[int] = (31, 63, 127),
                           jobs: int = 1) -> ExperimentResult:
    """PATHFINDER IPC/accuracy/coverage vs delta range + delta counts."""
    workloads = list(workloads or WORKLOAD_NAMES)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    result = ExperimentResult("fig5_table7", "Delta-range sensitivity")

    cells = [(workload, PathfinderConfig(delta_range=delta_range))
             for workload in workloads for delta_range in delta_ranges]
    flat = iter(evaluation.run_cells(cells, jobs=jobs))
    per_metric: Dict[str, TableRows] = {m: [] for m in
                                        ("speedup", "accuracy", "coverage")}
    for workload in workloads:
        metric_rows = {m: [workload] for m in per_metric}
        for _ in delta_ranges:
            row = next(flat)
            for m in per_metric:
                metric_rows[m].append(getattr(row, m))
        for m in per_metric:
            per_metric[m].append(metric_rows[m])
    headers = ["Trace"] + [f"D={d}" for d in delta_ranges]
    for m, label in (("speedup", "IPC speedup vs delta range"),
                     ("accuracy", "Accuracy vs delta range"),
                     ("coverage", "Coverage vs delta range")):
        result.tables.append((label, headers, per_metric[m]))
        for i, d in enumerate(delta_ranges):
            values = [r[i + 1] for r in per_metric[m]]
            result.metrics[f"{m}:D{d}"] = arithmetic_mean(values)

    # Table 7: deltas inside (-31,31) and (-15,15).
    rows7: TableRows = []
    for workload in workloads:
        deltas = evaluation.trace(workload).deltas_within_page()
        in31 = int(np.sum(np.abs(deltas) < 31))
        in15 = int(np.sum(np.abs(deltas) < 15))
        rows7.append([workload, in31, in15, deltas.size])
    result.tables.append((
        "Deltas within range (paper Table 7, scaled trace)",
        ["Trace", "#deltas in (-31,31)", "#deltas in (-15,15)", "total deltas"],
        rows7))
    result.notes.append(
        "Paper Figure 5: smaller ranges raise accuracy (large offset-like "
        "deltas are filtered) but cut coverage; xalan and mcf lose IPC "
        "clearly at D=31.")
    return result


# ---------------------------------------------------------------------------
# Figure 6 / Table 8 — neuron-count sensitivity
# ---------------------------------------------------------------------------

def experiment_fig6_table8(n_accesses: int = 20_000, seed: int = 1,
                           workloads: Optional[Sequence[str]] = None,
                           neuron_counts: Sequence[int] = (10, 20, 50, 100),
                           jobs: int = 1) -> ExperimentResult:
    """IPC vs neuron count for the 1-label and 2-label variants."""
    workloads = list(workloads or _SHORT_WORKLOADS)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    result = ExperimentResult("fig6_table8", "Neuron-count sensitivity")

    for labels in (2, 1):
        cells = [(workload, PathfinderConfig(n_neurons=n,
                                             labels_per_neuron=labels))
                 for workload in workloads for n in neuron_counts]
        flat = iter(evaluation.run_cells(cells, jobs=jobs))
        rows: TableRows = []
        for workload in workloads:
            row = [workload]
            for _ in neuron_counts:
                row.append(next(flat).speedup)
            rows.append(row)
        mean_row = ["MEAN"]
        for i, n in enumerate(neuron_counts):
            values = [r[i + 1] for r in rows]
            mean_row.append(geometric_mean(values))
            result.metrics[f"speedup:{labels}label:n{n}"] = mean_row[-1]
        rows.append(mean_row)
        result.tables.append((
            f"IPC speedup vs neurons ({labels}-label)",
            ["Trace"] + [f"n={n}" for n in neuron_counts], rows))

    # Table 8: per-1K delta statistics, truncated to whole counts.  The
    # analysis package stays out of the CLI's import path.
    from ..analysis.trace_stats import delta_statistics

    rows8: TableRows = []
    for workload in workloads:
        stats = delta_statistics(evaluation.trace(workload), window=1000)
        rows8.append([workload, int(stats.avg_deltas),
                      int(stats.avg_distinct), int(stats.avg_top5)])
    result.tables.append((
        "Per-1K-access delta statistics (paper Table 8)",
        ["Trace", "avg #deltas", "avg #distinct", "top5 occurrences"],
        rows8))
    result.notes.append(
        "Paper Figure 6: the 2-label variant is nearly insensitive to "
        "neuron count; the 1-label variant degrades more noticeably as "
        "neurons shrink.")
    return result


# ---------------------------------------------------------------------------
# Figure 7 — 1-tick vs 32-tick IPC
# ---------------------------------------------------------------------------

def experiment_fig7(n_accesses: int = 4000, seed: int = 1,
                    workloads: Optional[Sequence[str]] = None,
                    jobs: int = 1) -> ExperimentResult:
    """IPC improvement of the 1-tick variant over the 32-tick variant.

    The paper's Figure 7 shows the difference is tiny (the 1-tick
    approximation tracks the full interval's behaviour).
    """
    workloads = list(workloads or _SHORT_WORKLOADS)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    rows: TableRows = []
    result = ExperimentResult("fig7", "1-tick vs 32-tick IPC")
    cells = [(workload, PathfinderConfig(one_tick=one_tick))
             for workload in workloads for one_tick in (True, False)]
    flat = iter(evaluation.run_cells(cells, jobs=jobs))
    for workload in workloads:
        fast = next(flat)
        full = next(flat)
        improvement = 100.0 * (fast.ipc / full.ipc - 1.0)
        rows.append([workload, full.speedup, fast.speedup,
                     f"{improvement:+.2f}%"])
        result.metrics[f"improvement:{workload}"] = improvement
    result.tables.append((
        "1-tick vs 32-tick",
        ["Trace", "32-tick speedup", "1-tick speedup", "1-tick IPC delta"],
        rows))
    result.notes.append(
        "Paper Figure 7: IPC differences are within a few percent — the "
        "neuron with the highest first-tick voltage dominates the full "
        "interval.")
    return result


# ---------------------------------------------------------------------------
# Figure 8 — periodic STDP
# ---------------------------------------------------------------------------

def experiment_fig8(n_accesses: int = 20_000, seed: int = 1,
                    workloads: Optional[Sequence[str]] = None,
                    on_counts: Sequence[int] = (10, 20, 50, 100, 1000, 5000),
                    jobs: int = 1) -> ExperimentResult:
    """IPC with STDP enabled only for the first K of each 5K accesses."""
    workloads = list(workloads or _SHORT_WORKLOADS)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    rows: TableRows = []
    result = ExperimentResult("fig8", "Periodic STDP")
    headers = (["Trace", "always-on"]
               + [f"first {k}/5K" for k in on_counts])
    cells = []
    for workload in workloads:
        cells.append((workload, PathfinderConfig()))
        cells.extend((workload, PathfinderConfig(stdp_epoch=5000,
                                                 stdp_on_accesses=k))
                     for k in on_counts)
    flat = iter(evaluation.run_cells(cells, jobs=jobs))
    for workload in workloads:
        row = [workload, next(flat).speedup]
        for _ in on_counts:
            row.append(next(flat).speedup)
        rows.append(row)
    mean_row = ["MEAN", geometric_mean([r[1] for r in rows])]
    result.metrics["speedup:always"] = mean_row[1]
    for i, k in enumerate(on_counts):
        values = [r[i + 2] for r in rows]
        mean_row.append(geometric_mean(values))
        result.metrics[f"speedup:on{k}"] = mean_row[-1]
    rows.append(mean_row)
    result.tables.append(("IPC speedup, periodic STDP", headers, rows))
    result.notes.append(
        "Paper Figure 8: STDP on for just the first ~50 accesses of "
        "every 5000 already matches the always-on configuration.")
    return result


# ---------------------------------------------------------------------------
# Figure 9 — variant ladder
# ---------------------------------------------------------------------------

VARIANTS: Dict[str, PathfinderConfig] = {
    "basic-1label": PathfinderConfig(
        enlarge_pixels=False, reorder_pixels=False,
        labels_per_neuron=1, one_tick=False),
    "enlarged-1label": PathfinderConfig(
        enlarge_pixels=True, reorder_pixels=False,
        labels_per_neuron=1, one_tick=False),
    "enlarged-2label": PathfinderConfig(
        enlarge_pixels=True, reorder_pixels=False,
        labels_per_neuron=2, one_tick=False),
    "enlarged-1tick-2label": PathfinderConfig(
        enlarge_pixels=True, reorder_pixels=False,
        labels_per_neuron=2, one_tick=True),
    "reordered-enlarged-1tick-2label": PathfinderConfig(
        enlarge_pixels=True, reorder_pixels=True,
        labels_per_neuron=2, one_tick=True),
}


def experiment_fig9(n_accesses: int = 4000, seed: int = 1,
                    workloads: Optional[Sequence[str]] = None,
                    jobs: int = 1) -> ExperimentResult:
    """The implementation-variant ladder (paper Figure 9)."""
    workloads = list(workloads or _SHORT_WORKLOADS)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    rows: TableRows = []
    result = ExperimentResult("fig9", "PATHFINDER variant ladder")
    cells = [(workload, config) for workload in workloads
             for config in VARIANTS.values()]
    flat = iter(evaluation.run_cells(cells, jobs=jobs))
    for workload in workloads:
        row = [workload]
        for _ in VARIANTS:
            row.append(next(flat).speedup)
        rows.append(row)
    mean_row = ["MEAN"]
    for i, name in enumerate(VARIANTS):
        values = [r[i + 1] for r in rows]
        mean_row.append(geometric_mean(values))
        result.metrics[f"speedup:{name}"] = mean_row[-1]
    rows.append(mean_row)
    result.tables.append((
        "IPC speedup per variant", ["Trace"] + list(VARIANTS), rows))
    result.notes.append(
        "Paper Figure 9: each refinement (enlarged pixels, 2 labels, "
        "reduced interval, reordering) improves or preserves mean IPC.")
    return result


# ---------------------------------------------------------------------------
# Table 9 / §3.5 — hardware cost
# ---------------------------------------------------------------------------

def experiment_table9() -> ExperimentResult:
    """Area/power of the SNN across PE counts and delta ranges."""
    from ..hw import PAPER_TABLE9, pathfinder_cost, snn_cost

    rows: TableRows = []
    result = ExperimentResult("table9", "Hardware area & power")
    for (n_pe, delta_range), (paper_area, paper_power) in PAPER_TABLE9.items():
        cost = snn_cost(n_pe=n_pe, delta_range=delta_range)
        rows.append([f"{n_pe} pe, range {delta_range}",
                     cost.area_mm2, paper_area, cost.power_w, paper_power])
        result.metrics[f"area:{n_pe}pe:r{delta_range}"] = cost.area_mm2
        result.metrics[f"power:{n_pe}pe:r{delta_range}"] = cost.power_w
    result.tables.append((
        "SNN implementations (model vs paper Table 9)",
        ["Parameters", "Area mm2 (model)", "Area (paper)",
         "Power W (model)", "Power (paper)"], rows))

    total = pathfinder_cost()
    result.metrics["total_area"] = total.area_mm2
    result.metrics["total_power"] = total.power_w
    result.tables.append((
        "Full PATHFINDER (paper: 0.23 mm2, ~0.5 W)",
        ["Structure", "Area mm2", "Power W"],
        [["PATHFINDER total", total.area_mm2, total.power_w]]))
    result.notes.append(
        "Coefficients are fitted to the paper's synthesis anchors; the "
        "model interpolates Table 9 and extrapolates structurally.")
    return result


# ---------------------------------------------------------------------------
# Ablations — design choices this reproduction calls out in DESIGN.md
# ---------------------------------------------------------------------------

def experiment_ablation_ensemble(n_accesses: int = 16_000, seed: int = 1,
                                 workloads: Optional[Sequence[str]] = None,
                                 jobs: int = 1) -> ExperimentResult:
    """Ensemble-policy ablation (paper future work, §5 and §3.4).

    Compares PATHFINDER alone, the paper's fixed-priority PF+NL+SISB,
    the dynamic-priority variant, and PF combined with the cold-page
    predictor.
    """
    workloads = list(workloads or _SHORT_WORKLOADS)
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    names = ("pathfinder", "pathfinder+nl+sisb", "adaptive-ensemble",
             "pathfinder+coldpage")
    rows: TableRows = []
    result = ExperimentResult("ablation_ensemble", "Ensemble policies")
    cells = [(workload, name) for workload in workloads for name in names]
    flat = iter(evaluation.run_cells(cells, jobs=jobs))
    for workload in workloads:
        row = [workload]
        for _ in names:
            row.append(next(flat).speedup)
        rows.append(row)
    mean_row = ["MEAN"]
    for i, name in enumerate(names):
        values = [r[i + 1] for r in rows]
        mean_row.append(geometric_mean(values))
        result.metrics[f"speedup:{name}"] = mean_row[-1]
    rows.append(mean_row)
    result.tables.append(("IPC speedup per ensemble policy",
                          ["Trace"] + list(names), rows))
    result.notes.append(
        "Paper §5: fixed priority can trail SISB-only on temporal "
        "workloads; a dynamic priority policy (future work) can "
        "recover it.  §3.4 leaves cold-page prediction as future work.")
    return result


def experiment_ablation_snn(n_accesses: int = 12_000, seed: int = 1,
                            workloads: Optional[Sequence[str]] = None,
                            jobs: int = 1) -> ExperimentResult:
    """SNN-mechanism ablation.

    Quantifies the implementation choices DESIGN.md documents as
    deviations/decisions: the Diehl & Cook target-trace depression
    (x_target), sparse weight initialisation, strong threshold
    adaptation, and the two-observation label confirmation.
    """
    workloads = list(workloads or ("cc-5", "473-astar-s1"))
    evaluation = Evaluation(n_accesses=n_accesses, seed=seed)
    variants: Dict[str, PathfinderConfig] = {
        "full": PathfinderConfig(),
        "no-x-target": PathfinderConfig(x_target=0.0),
        "dense-init": PathfinderConfig(init_density=1.0),
        "weak-theta": PathfinderConfig(theta_plus=0.05, theta_max=None),
        "no-confirmation": PathfinderConfig(require_confirmation=False),
    }
    result = ExperimentResult("ablation_snn", "SNN mechanism ablation")
    rows: TableRows = []
    cells = [(workload, config) for workload in workloads
             for config in variants.values()]
    cell_rows = evaluation.run_cells(cells, jobs=jobs)
    for index, workload in enumerate(workloads):
        block = cell_rows[index * len(variants):(index + 1) * len(variants)]
        for metric in ("speedup", "accuracy"):
            row = [f"{workload} ({metric})"]
            row.extend(getattr(eval_row, metric) for eval_row in block)
            rows.append(row)
    for i, name in enumerate(variants):
        acc_values = [r[i + 1] for r in rows[1::2]]
        result.metrics[f"accuracy:{name}"] = arithmetic_mean(acc_values)
        speed_values = [r[i + 1] for r in rows[0::2]]
        result.metrics[f"speedup:{name}"] = arithmetic_mean(speed_values)
    result.tables.append(("PATHFINDER with mechanisms removed",
                          ["Trace (metric)"] + list(variants), rows))
    result.notes.append(
        "Each mechanism exists to keep per-pattern neuron assignments "
        "stable and labels trustworthy; removing them degrades accuracy "
        "and/or IPC (see DESIGN.md).")
    return result


def experiment_noise(n_accesses: int = 16_000, seed: int = 1,
                     workloads: Optional[Sequence[str]] = None,
                     reorder_windows: Sequence[int] = (1, 4, 8, 16)) -> ExperimentResult:
    """Noise-tolerance study (the paper's §2.3 motivation, quantified).

    Applies out-of-order-style local reordering to each trace and
    measures how each prefetcher's accuracy degrades.  The paper argues
    neural prefetchers generalise table rules and so tolerate reordered
    inputs better than exact-history tables like SPP's signatures.
    """
    from ..traces.transforms import reorder_accesses
    from .runner import default_hierarchy, make_prefetcher, run_prefetcher
    from ..sim import simulate

    workloads = list(workloads or ("cc-5", "473-astar-s1"))
    hierarchy = default_hierarchy()
    names = ("spp", "bo", "pythia", "pathfinder")
    result = ExperimentResult("noise", "Out-of-order reordering tolerance")
    rows: TableRows = []
    retained: Dict[str, List[float]] = {n: [] for n in names}
    for workload in workloads:
        base_trace = make_trace(workload, n_accesses, seed=seed)
        clean_accuracy: Dict[str, float] = {}
        for window in reorder_windows:
            trace = (base_trace if window == 1 else
                     reorder_accesses(base_trace, window, seed=seed))
            baseline = simulate(trace, config=hierarchy)
            row = [f"{workload} w={window}"]
            for name in names:
                eval_row = run_prefetcher(trace, make_prefetcher(name),
                                          baseline, hierarchy=hierarchy)
                row.append(eval_row.accuracy)
                if window == 1:
                    clean_accuracy[name] = max(1e-9, eval_row.accuracy)
                elif window == reorder_windows[-1]:
                    retained[name].append(
                        eval_row.accuracy / clean_accuracy[name])
            rows.append(row)
    result.tables.append((
        "Accuracy under OoO reordering (w = reorder window)",
        ["Trace / window"] + list(names), rows))
    for name in names:
        result.metrics[f"retained:{name}"] = arithmetic_mean(retained[name])

    # Second noise source of §2.3: a co-running program interleaving
    # its accesses into the shared-LLC stream the prefetcher observes.
    from ..traces.transforms import interleave_traces

    co_rows: TableRows = []
    for workload in workloads:
        solo_trace = make_trace(workload, n_accesses // 2, seed=seed)
        antagonist = make_trace("482-sphinx-s0", n_accesses // 2,
                                seed=seed + 1)
        merged = interleave_traces([solo_trace, antagonist], seed=seed)
        solo_baseline = simulate(solo_trace, config=hierarchy)
        merged_baseline = simulate(merged, config=hierarchy)
        for name in names:
            solo = run_prefetcher(solo_trace, make_prefetcher(name),
                                  solo_baseline, hierarchy=hierarchy)
            shared = run_prefetcher(merged, make_prefetcher(name),
                                    merged_baseline, hierarchy=hierarchy)
            kept = (shared.accuracy / solo.accuracy
                    if solo.accuracy > 0 else 0.0)
            co_rows.append([f"{workload} / {name}", solo.accuracy,
                            shared.accuracy, f"{100 * kept:.0f}%"])
            result.metrics[f"corun:{name}:{workload}"] = kept
    result.tables.append((
        "Accuracy solo vs co-run with sphinx (shared-LLC stream)",
        ["Workload / prefetcher", "solo", "co-run", "retained"],
        co_rows))
    result.notes.append(
        "retained:<prefetcher> metrics give accuracy at the widest "
        "reorder window relative to the unperturbed trace (higher = "
        "more noise-tolerant); corun:* metrics are the co-run "
        "analogue against a sphinx antagonist.")
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": experiment_table1,
    "table2_fig3": experiment_table2_fig3,
    "fig4": experiment_fig4,
    "table6": experiment_table6,
    "fig5_table7": experiment_fig5_table7,
    "fig6_table8": experiment_fig6_table8,
    "fig7": experiment_fig7,
    "fig8": experiment_fig8,
    "fig9": experiment_fig9,
    "table9": experiment_table9,
    "ablation_ensemble": experiment_ablation_ensemble,
    "ablation_snn": experiment_ablation_snn,
    "noise": experiment_noise,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id (see :data:`EXPERIMENTS`).

    When a run ledger is ambient (CLI invocations), the experiment's
    summary metrics are appended as one ``experiment`` record, so a
    ledger alone reconstructs which figures/tables a run produced.
    """
    from ..errors import ConfigError
    from ..obs.ledger import active_ledger

    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None
    if kwargs.get("n_accesses", 1) < 1:
        raise ConfigError(
            f"load count must be >= 1 (got {kwargs['n_accesses']})")
    result = fn(**kwargs)
    ledger = active_ledger()
    if ledger is not None:
        ledger.append({
            "kind": "experiment",
            "experiment_id": result.experiment_id,
            "title": result.title,
            "metrics": dict(result.metrics),
        })
    return result
