"""Prefetchers: the shared interface and every baseline from the paper.

- :mod:`repro.prefetchers.base` — the :class:`Prefetcher` interface and
  the trace→prefetch-file driver.
- :mod:`repro.prefetchers.nextline` — next-line (NL).
- :mod:`repro.prefetchers.best_offset` — Best-Offset (BO), Michaud 2016.
- :mod:`repro.prefetchers.spp` — Signature Path Prefetcher with
  confidence-based lookahead throttling.
- :mod:`repro.prefetchers.sisb` — idealised Irregular Stream Buffer
  (temporal record/replay).
- :mod:`repro.prefetchers.pythia` — tabular-RL delta prefetcher.
- :mod:`repro.prefetchers.delta_lstm` — Delta-LSTM (Hashemi et al.)
  on the numpy LSTM substrate, with address clustering.
- :mod:`repro.prefetchers.voyager` — hierarchical page/offset LSTM.
- :mod:`repro.prefetchers.ensemble` — fixed-priority ensembles
  (PATHFINDER > NL > SISB), paper §3.4 / §5.
- :mod:`repro.prefetchers.adaptive_ensemble` — dynamic priority by
  recent usefulness (the paper's flagged future work, §5).
- :mod:`repro.prefetchers.cold_page` — first-access-to-a-page
  prediction (the paper's flagged future work, §3.4).

PATHFINDER itself lives in :mod:`repro.core`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".base": ["Prefetcher", "Rows", "generate_prefetches"],
    ".adaptive_ensemble": ["AdaptiveEnsemblePrefetcher"],
    ".cold_page": ["ColdPageConfig", "ColdPagePredictor"],
    ".nextline": ["NextLinePrefetcher"],
    ".best_offset": ["BestOffsetConfig", "BestOffsetPrefetcher"],
    ".spp": ["SPPConfig", "SPPPrefetcher"],
    ".sisb": ["SISBConfig", "SISBPrefetcher"],
    ".pythia": ["PythiaConfig", "PythiaPrefetcher"],
    ".delta_lstm": ["DeltaLSTMConfig", "DeltaLSTMPrefetcher"],
    ".voyager": ["VoyagerConfig", "VoyagerPrefetcher"],
    ".ensemble": ["EnsemblePrefetcher"],
})
