"""Experiment harness: runners, reporting, and the table/figure registry.

- :mod:`repro.harness.runner` — drive (workload × prefetcher) grids
  through the simulator with trace/baseline caching.
- :mod:`repro.harness.reporting` — ASCII tables and summary statistics.
- :mod:`repro.harness.experiments` — one entry per table/figure in the
  paper's evaluation; each regenerates the corresponding rows/series.
- :mod:`repro.harness.dashboard` — self-contained HTML report (stdlib
  templating + inline SVG) over the run ledger/events/metrics/series.
- :mod:`repro.harness.compare` — diff two run ledgers with threshold-
  or significance-gated regression flags.
- :mod:`repro.harness.stats` — the statistics toolbox behind the
  significance gate and the dashboard ranking (Mann-Whitney U, seeded
  bootstrap CIs, Cliff's delta, Holm correction, rank grouping).
"""

from .compare import (
    DEFAULT_MAX_REGRESS,
    CompareResult,
    StatRow,
    compare_artifacts,
    load_artifact,
)
from .dashboard import render_dashboard, write_dashboard
from .runner import (
    PREFETCHER_FACTORIES,
    EvalRow,
    Evaluation,
    ResiliencePolicy,
    SeedAggregate,
    ambient_policy,
    default_hierarchy,
    make_prefetcher,
    multi_seed_grid,
    run_prefetcher,
)
from .reporting import format_table, geometric_mean, summarize_events
from .experiments import (
    CAMPAIGN_GRIDS,
    EXPERIMENTS,
    ExperimentResult,
    campaign_spec_for,
    run_experiment,
)
from .stats import (
    DEFAULT_ALPHA,
    MannWhitneyResult,
    RankEntry,
    SlowdownVerdict,
    a12,
    bootstrap_ci,
    bootstrap_diff_ci,
    bootstrap_ratio_ci,
    cliffs_delta,
    holm_bonferroni,
    mann_whitney_u,
    rank_groups,
    significant_slowdowns,
)

__all__ = [
    "CompareResult",
    "StatRow",
    "compare_artifacts",
    "load_artifact",
    "render_dashboard",
    "write_dashboard",
    "DEFAULT_MAX_REGRESS",
    "DEFAULT_ALPHA",
    "MannWhitneyResult",
    "RankEntry",
    "SlowdownVerdict",
    "a12",
    "bootstrap_ci",
    "bootstrap_diff_ci",
    "bootstrap_ratio_ci",
    "cliffs_delta",
    "holm_bonferroni",
    "mann_whitney_u",
    "rank_groups",
    "significant_slowdowns",
    "PREFETCHER_FACTORIES",
    "EvalRow",
    "Evaluation",
    "ResiliencePolicy",
    "SeedAggregate",
    "ambient_policy",
    "default_hierarchy",
    "make_prefetcher",
    "multi_seed_grid",
    "run_prefetcher",
    "format_table",
    "geometric_mean",
    "summarize_events",
    "CAMPAIGN_GRIDS",
    "EXPERIMENTS",
    "campaign_spec_for",
    "ExperimentResult",
    "run_experiment",
]
