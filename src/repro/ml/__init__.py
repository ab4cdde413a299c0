"""Minimal neural-network substrate (numpy only).

Implements exactly what the paper's LSTM baselines need, from scratch:

- :mod:`repro.ml.layers` — embeddings, dense layers, softmax +
  cross-entropy.
- :mod:`repro.ml.lstm` — a fused-gate LSTM layer with full BPTT,
  and the cache-free, row-blocked pass frozen models infer with.
- :mod:`repro.ml.optim` — Adam.
- :mod:`repro.ml.cluster` — 1-D k-means (Delta-LSTM's address
  clustering).

These are deliberately small, deterministic (seeded), and CPU-friendly;
see DESIGN.md for how model sizes were scaled relative to the paper's
GPU-trained baselines.
"""

from .layers import Dense, Embedding, cross_entropy, softmax
from .lstm import LSTM
from .optim import Adam
from .cluster import kmeans_1d

__all__ = [
    "Dense",
    "Embedding",
    "cross_entropy",
    "softmax",
    "LSTM",
    "Adam",
    "kmeans_1d",
]
