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

from .._lazy import lazy_exports

#: The single fractional timing-regression threshold (+25%) shared by
#: ``repro compare`` (:mod:`repro.harness.compare`) and its
#: ``--max-regress`` default.  With enough per-seed samples, the
#: significance gate in :mod:`repro.harness.stats` additionally requires
#: the slowdown to be significant.  Defined here so the CLI's parser can
#: print it without importing the statistics layer.
DEFAULT_MAX_REGRESS = 0.25

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".compare": ["CompareResult", "StatRow", "compare_artifacts",
                 "load_artifact"],
    ".dashboard": ["render_dashboard", "write_dashboard"],
    ".runner": ["PREFETCHER_FACTORIES", "EvalRow", "Evaluation",
                "ResiliencePolicy", "SeedAggregate", "ambient_policy",
                "default_hierarchy", "make_prefetcher", "multi_seed_grid",
                "run_prefetcher"],
    ".reporting": ["format_table", "geometric_mean", "summarize_events"],
    ".experiments": ["EXPERIMENTS", "ExperimentResult", "run_experiment"],
    ".stats": ["DEFAULT_ALPHA", "MannWhitneyResult", "RankEntry",
               "SlowdownVerdict", "a12", "bootstrap_ci", "bootstrap_diff_ci",
               "bootstrap_ratio_ci", "cliffs_delta", "holm_bonferroni",
               "mann_whitney_u", "rank_groups", "significant_slowdowns"],
})

__all__ += ["DEFAULT_MAX_REGRESS"]
