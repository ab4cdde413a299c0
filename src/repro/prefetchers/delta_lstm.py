"""Delta-LSTM (Hashemi et al., ICML 2018) — offline neural baseline.

The clustering variant from the paper: addresses are k-means-clustered
into 6 locality regions; within each cluster, consecutive block deltas
form a token sequence over a bounded vocabulary of the cluster's most
common deltas; a 2-layer LSTM per cluster is trained to predict the
next delta.  Following the evaluated protocol (paper §4.3), training
uses only the *initial fraction* (10%) of each cluster's accesses,
while inference runs over the full trace — which is exactly why the
paper finds Delta-LSTM uncompetitive: deltas unseen during the early
window cannot be predicted later.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..ml.cluster import assign_1d, kmeans_1d
from ..ml.lstm import RowBlockQueue, row_blocks
from ..ml.model import NextTokenLSTM
from ..types import BLOCK_BITS, MemoryAccess, Trace
from .base import Prefetcher, Rows


@dataclass(frozen=True)
class DeltaLSTMConfig:
    """Delta-LSTM knobs.

    Attributes:
        clusters: Address clusters (paper: 6).
        vocab_size: Most-common deltas kept per cluster (others map to
            an out-of-vocabulary token that never prefetches).
        train_fraction: Leading fraction of each cluster used for
            training (paper protocol: 0.10).
        embed_dim / hidden_dim / layers / window: Model shape.  [The
            paper uses 2×128 hidden; scaled down for CPU training —
            the protocol-driven weakness being reproduced does not
            depend on width.]
        epochs: Training epochs over the training windows.
        max_train_windows: Cap on training windows per cluster.
        degree: Prefetches per access.
        lr: Adam learning rate.
        seed: Seed for clustering and model init.
    """

    clusters: int = 6
    vocab_size: int = 65
    train_fraction: float = 0.10
    embed_dim: int = 16
    hidden_dim: int = 32
    layers: int = 2
    window: int = 8
    epochs: int = 3
    max_train_windows: int = 4000
    degree: int = 2
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if self.clusters < 1 or self.vocab_size < 2 or self.degree < 1:
            raise ConfigError("clusters/vocab/degree out of range")


#: Token 0 is reserved for out-of-vocabulary deltas.
_OOV = 0


class _ClusterModel:
    """Per-cluster vocabulary + LSTM."""

    def __init__(self) -> None:
        self.delta_to_token: Dict[int, int] = {}
        self.token_to_delta: Dict[int, int] = {}
        self.model: Optional[NextTokenLSTM] = None
        self.context: List[int] = []
        self.last_block: Optional[int] = None


class DeltaLSTMPrefetcher(Prefetcher):
    """Clustered next-delta LSTM prefetcher (train-then-infer)."""

    name = "delta-lstm"

    def __init__(self, config: Optional[DeltaLSTMConfig] = None):
        self.config = config or DeltaLSTMConfig()
        self.centroids: Optional[np.ndarray] = None
        self._clusters: List[_ClusterModel] = []
        self.unseen_delta_predictions = 0

    # -- offline training ------------------------------------------------------

    def train(self, trace: Trace) -> None:
        cfg = self.config
        blocks = trace.blocks
        self.centroids, labels = kmeans_1d(blocks, cfg.clusters,
                                           seed=cfg.seed)
        self._clusters = [_ClusterModel()
                          for _ in range(len(self.centroids))]
        for cluster_id, cluster in enumerate(self._clusters):
            member_blocks = blocks[labels == cluster_id]
            deltas = np.diff(member_blocks)
            deltas = deltas[deltas != 0]
            if deltas.size < cfg.window + 2:
                continue
            train_len = max(cfg.window + 2,
                            int(deltas.size * cfg.train_fraction))
            train_deltas = deltas[:train_len]
            self._build_vocab(cluster, train_deltas)
            tokens = np.asarray(
                [cluster.delta_to_token.get(int(d), _OOV)
                 for d in train_deltas], dtype=int)
            cluster.model = NextTokenLSTM(
                vocab_size=cfg.vocab_size,
                embed_dim=cfg.embed_dim,
                hidden_dim=cfg.hidden_dim,
                layers=cfg.layers,
                window=cfg.window,
                lr=cfg.lr,
                seed=cfg.seed + cluster_id)
            cluster.model.fit(tokens, epochs=cfg.epochs,
                              max_windows=cfg.max_train_windows,
                              seed=cfg.seed + cluster_id)

    def _build_vocab(self, cluster: _ClusterModel,
                     deltas: np.ndarray) -> None:
        values, counts = np.unique(deltas, return_counts=True)
        order = np.argsort(-counts)
        kept = values[order][:self.config.vocab_size - 1]
        for token, delta in enumerate(kept, start=1):
            cluster.delta_to_token[int(delta)] = token
            cluster.token_to_delta[token] = int(delta)

    # -- inference ----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        if self.centroids is None:
            return []
        cluster_id = int(assign_1d(np.asarray([access.block]),
                                   self.centroids)[0])
        cluster = self._clusters[cluster_id]
        if cluster.model is None:
            return []

        block = access.block
        if cluster.last_block is not None and block != cluster.last_block:
            delta = block - cluster.last_block
            token = cluster.delta_to_token.get(delta, _OOV)
            if token == _OOV:
                self.unseen_delta_predictions += 1
            cluster.context.append(token)
            if len(cluster.context) > cfg.window:
                cluster.context = cluster.context[-cfg.window:]
        cluster.last_block = block

        if len(cluster.context) < cfg.window:
            return []
        addresses: List[int] = []
        for token in cluster.model.predict_topk(cluster.context,
                                                k=cfg.degree + 1):
            delta = cluster.token_to_delta.get(token)
            if delta is None:  # OOV token predicts nothing
                continue
            target = block + delta
            if target > 0:
                addresses.append(target << 6)
            if len(addresses) >= cfg.degree:
                break
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process`: a context pass feeding
        row-blocked model passes, one queue per cluster.

        1. **Context pass** (sequential, cheap) — clusters the chunk
           with one :func:`~repro.ml.cluster.assign_1d` call per row
           block, then advances each cluster's ``context`` and
           ``last_block`` and ``unseen_delta_predictions`` exactly as
           :meth:`process` does, queueing the full-window context of
           every access that predicts on its cluster's
           :class:`~repro.ml.lstm.RowBlockQueue`.
        2. **Model pass** (batched) — each time a cluster's block fills
           (and once for each remainder), its frozen model ranks the
           block's next tokens (:meth:`NextTokenLSTM.topk`) and the
           block is decoded before the next one starts.

        The decoded lists are flattened into :class:`Rows` once.  Parity
        is as for :meth:`VoyagerPrefetcher.process_batch`: identical
        prefetch files and cluster state, logits equal to
        :meth:`process`'s batch-1 pass to rounding.
        """
        n = len(addresses)
        if self.centroids is None or n == 0:
            return Rows.empty(n)
        results: List[List[int]] = [[] for _ in range(n)]
        window = self.config.window
        blocks = np.asarray(addresses) >> BLOCK_BITS
        labels = np.concatenate([assign_1d(blocks[rows], self.centroids)
                                 for rows in row_blocks(n)]).tolist()
        blocks = blocks.tolist()
        queues: Dict[int, RowBlockQueue] = {}
        for i in range(n):
            cluster = self._clusters[labels[i]]
            if cluster.model is None:
                continue
            block = blocks[i]
            if cluster.last_block is not None and block != cluster.last_block:
                token = cluster.delta_to_token.get(block - cluster.last_block,
                                                   _OOV)
                if token == _OOV:
                    self.unseen_delta_predictions += 1
                cluster.context.append(token)
                if len(cluster.context) > window:
                    cluster.context = cluster.context[-window:]
            cluster.last_block = block
            if len(cluster.context) == window:
                queue = queues.get(labels[i])
                if queue is None:
                    queue = queues[labels[i]] = RowBlockQueue(partial(
                        self._predict_block, cluster, blocks, results))
                queue.add(i, tuple(cluster.context))
        for queue in queues.values():
            queue.flush()
        return Rows.from_lists(results)

    def _predict_block(self, cluster: _ClusterModel, blocks: List[int],
                       results: List[List[int]], at: List[int],
                       contexts: List[Tuple[int, ...]]) -> None:
        """Decode one row block of ``cluster``'s contexts into
        ``results``, as :meth:`process` decodes one."""
        degree = self.config.degree
        top = cluster.model.topk(np.asarray(contexts), k=degree + 1)
        for i, tokens in zip(at, top.tolist()):
            out = results[i]
            for token in tokens:
                delta = cluster.token_to_delta.get(token)
                if delta is None:  # OOV token predicts nothing
                    continue
                target = blocks[i] + delta
                if target > 0:
                    out.append(target << BLOCK_BITS)
                if len(out) >= degree:
                    break
