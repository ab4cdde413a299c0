"""PATHFINDER: the paper's primary contribution.

- :mod:`repro.core.config` — :class:`PathfinderConfig`, every knob the
  paper's evaluation sweeps (delta range, neurons, labels, ticks,
  periodic STDP, pixel enlargement/shift/reorder).
- :mod:`repro.core.pixel` — the Memory Access Pixel Matrix encoder
  (§3.2), including cold-page special encodings (§3.4).
- :mod:`repro.core.training_table` — the PC/page CAM that tracks
  per-stream delta histories and the fired neuron awaiting a label.
- :mod:`repro.core.inference_table` — per-neuron label/confidence
  slots with 3-bit saturating counters (§3.3, §3.4).
- :mod:`repro.core.pathfinder` — the prefetcher tying it all together.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".config": ["PathfinderConfig"],
    ".pixel": ["PixelMatrixEncoder"],
    ".training_table": ["TrainingTable", "TrainingEntry"],
    ".inference_table": ["InferenceTable"],
    ".pathfinder": ["PathfinderPrefetcher"],
})
