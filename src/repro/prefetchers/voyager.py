"""Voyager (Shi et al., ASPLOS 2021) — hierarchical neural baseline.

Voyager factors address prediction hierarchically — a page prediction
and an offset prediction from shared embedded history — and localises
history by load PC.  This surrogate keeps that structure with a hybrid
page vocabulary suited to a from-scratch substrate: small page *deltas*
get their own tokens (so stride-like patterns generalise across fresh
pages the way Voyager's learned embeddings do), while large jumps to
*frequently revisited* pages are tokenised absolutely (so temporally
recurring irregular sequences — the replay behaviour SISB thrives on —
are learnable too, as they are for the real Voyager).

The paper's protocol is preserved: the model is trained *offline* on
the full trace before inference (§4.3 trains and tests Voyager on the
same trace files), giving it "the benefit of a long and precise
training process on the entire trace" (§5) — strong on irregular
benchmarks, but unable to adapt online.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..ml.layers import Dense, Embedding, cross_entropy, softmax
from ..ml.lstm import LSTM, RowBlockQueue, final_hidden
from ..ml.optim import Adam
from ..types import (BLOCK_BITS, BLOCKS_PER_PAGE, PAGE_BITS, MemoryAccess,
                     Trace, compose_address)
from .base import Prefetcher, Rows

#: Page-delta token reserved for out-of-range jumps.
_OOV = 0


@dataclass(frozen=True)
class VoyagerConfig:
    """Voyager-surrogate knobs.

    Attributes:
        max_page_delta: Largest |page delta| with its own delta token.
        abs_page_vocab: Most-frequent absolute pages tokenised directly
            (covers temporally recurring irregular jumps).  Defaults to
            0: at this reproduction's training scale the large absolute
            softmax dilutes learning and hurts accuracy — the real
            Voyager affords it with GPU-hours of training (DESIGN.md).
        pc_vocab: Hash buckets for the PC embedding.
        embed_dim: Width of each embedding (page delta, offset, pc).
        hidden_dim: LSTM width.  [paper: much larger, GPU-trained; see
            DESIGN.md scale note.]
        window: Per-PC history length.
        epochs: Offline training epochs.
        max_train_windows: Cap on training windows per trace.
        batch_size: Training batch size.
        degree: Prefetches per access (top page-delta × top offsets).
        lr: Adam learning rate.
        seed: Parameter seed.
    """

    max_page_delta: int = 64
    abs_page_vocab: int = 0
    pc_vocab: int = 256
    embed_dim: int = 16
    hidden_dim: int = 48
    window: int = 8
    epochs: int = 2
    max_train_windows: int = 12000
    batch_size: int = 64
    degree: int = 2
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_page_delta < 1 or self.pc_vocab < 1:
            raise ConfigError("vocabulary sizes out of range")
        if self.window < 1 or self.degree < 1:
            raise ConfigError("window and degree must be >= 1")

    @property
    def n_delta_tokens(self) -> int:
        """Delta-token count (symmetric range + OOV at index 0)."""
        return 2 * self.max_page_delta + 2

    @property
    def page_vocab(self) -> int:
        """Total page tokens: OOV + deltas + absolute frequent pages."""
        return self.n_delta_tokens + self.abs_page_vocab


class VoyagerPrefetcher(Prefetcher):
    """Hierarchical page-delta/offset LSTM prefetcher (offline-trained)."""

    name = "voyager"

    def __init__(self, config: Optional[VoyagerConfig] = None):
        self.config = config or VoyagerConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.page_embed = Embedding(cfg.page_vocab, cfg.embed_dim, rng)
        self.offset_embed = Embedding(64, cfg.embed_dim, rng)
        self.pc_embed = Embedding(cfg.pc_vocab, cfg.embed_dim, rng)
        self.lstm = LSTM(3 * cfg.embed_dim, cfg.hidden_dim, rng)
        self.page_head = Dense(cfg.hidden_dim, cfg.page_vocab, rng)
        self.offset_head = Dense(cfg.hidden_dim, 64, rng)
        self.optimizer = Adam(
            [self.page_embed, self.offset_embed, self.pc_embed,
             self.lstm, self.page_head, self.offset_head], lr=cfg.lr)
        self.trained = False
        # Hybrid absolute-page vocabulary (built during training).
        self.page_to_token: Dict[int, int] = {}
        self.token_to_page: Dict[int, int] = {}
        # Per-PC inference state: token history and last page.
        self._history: Dict[int, List[np.ndarray]] = {}
        self._last_page: Dict[int, int] = {}
        self._batch_tokens: Optional[np.ndarray] = None

    # -- tokenisation ------------------------------------------------------

    def _page_token(self, delta: int, page: int) -> int:
        """Hybrid tokenisation: delta token if small, else absolute."""
        if abs(delta) <= self.config.max_page_delta:
            return delta + self.config.max_page_delta + 1
        absolute = self.page_to_token.get(page)
        if absolute is not None:
            return absolute
        return _OOV

    def _decode_page(self, token: int, current_page: int) -> Optional[int]:
        """Invert :meth:`_page_token`; None for OOV."""
        if token == _OOV:
            return None
        if token < self.config.n_delta_tokens:
            return current_page + (token - self.config.max_page_delta - 1)
        return self.token_to_page.get(token)

    def _build_abs_vocab(self, trace: Trace) -> None:
        if self.config.abs_page_vocab <= 0:
            return
        pages, counts = np.unique(trace.addresses >> PAGE_BITS,
                                  return_counts=True)
        # Only pages visited repeatedly earn an absolute token.
        recurring = pages[counts >= 2]
        order = np.argsort(-counts[counts >= 2])
        kept = recurring[order][:self.config.abs_page_vocab]
        base = self.config.n_delta_tokens
        for index, page in enumerate(kept):
            self.page_to_token[int(page)] = base + index
            self.token_to_page[base + index] = int(page)

    def _pc_token(self, pc: int) -> int:
        return (pc >> 2) % self.config.pc_vocab

    # -- model passes ------------------------------------------------------

    def _embed(self, batch_tokens: np.ndarray) -> np.ndarray:
        """batch_tokens (B, T, 3) → joined embeddings (B, T, 3 * embed)."""
        return np.concatenate([
            self.page_embed.forward(batch_tokens[:, :, 0]),
            self.offset_embed.forward(batch_tokens[:, :, 1]),
            self.pc_embed.forward(batch_tokens[:, :, 2])], axis=2)

    def _forward(self, batch_tokens: np.ndarray) -> Tuple:
        """batch_tokens (B, T, 3) → (hidden seq, page logits, offset logits)."""
        self._batch_tokens = batch_tokens
        hidden = self.lstm.forward(self._embed(batch_tokens))
        final = hidden[:, -1, :]
        return (hidden, self.page_head.forward(final),
                self.offset_head.forward(final))

    def _infer(self, batch_tokens: np.ndarray) -> Tuple:
        """batch_tokens (B, T, 3) → (page logits, offset logits) through
        the cache-free pass; training state is left untouched."""
        final = final_hidden([self.lstm], self._embed(batch_tokens))
        return self.page_head.forward(final), self.offset_head.forward(final)

    def _backward(self, hidden: np.ndarray, dpage: np.ndarray,
                  doffset: np.ndarray) -> None:
        assert self._batch_tokens is not None
        dfinal = self.page_head.backward(dpage)
        dfinal = dfinal + self.offset_head.backward(doffset)
        grad_h = np.zeros_like(hidden)
        grad_h[:, -1, :] = dfinal
        djoined = self.lstm.backward(grad_h)
        e = self.config.embed_dim
        # Re-pin each embedding's last-forward indices before splitting
        # the joined gradient back out (forward order: page, offset, pc).
        self.page_embed._last_indices = self._batch_tokens[:, :, 0]
        self.offset_embed._last_indices = self._batch_tokens[:, :, 1]
        self.pc_embed._last_indices = self._batch_tokens[:, :, 2]
        self.page_embed.backward(djoined[:, :, :e])
        self.offset_embed.backward(djoined[:, :, e:2 * e])
        self.pc_embed.backward(djoined[:, :, 2 * e:])

    # -- offline training ------------------------------------------------------

    def _stream_tokens(self, trace: Trace) -> Dict[int, np.ndarray]:
        """Per-PC token sequences: rows of (page_tok, offset, pc_tok)."""
        streams: Dict[int, List[List[int]]] = {}
        last_page: Dict[int, int] = {}
        for pc, block in zip(trace.pcs.tolist(), trace.blocks.tolist()):
            page = block >> (PAGE_BITS - BLOCK_BITS)
            rows = streams.setdefault(pc, [])
            prev = last_page.get(pc)
            delta = 0 if prev is None else page - prev
            last_page[pc] = page
            rows.append([self._page_token(delta, page),
                         block & (BLOCKS_PER_PAGE - 1), self._pc_token(pc)])
        return {pc: np.asarray(rows, dtype=int)
                for pc, rows in streams.items() if len(rows) > 1}

    def train(self, trace: Trace) -> None:
        cfg = self.config
        self._build_abs_vocab(trace)
        streams = self._stream_tokens(trace)
        contexts: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for tokens in streams.values():
            for start in range(tokens.shape[0] - cfg.window):
                contexts.append(tokens[start:start + cfg.window])
                targets.append(tokens[start + cfg.window])
        if not contexts:
            return
        contexts_arr = np.stack(contexts)
        targets_arr = np.stack(targets)
        if contexts_arr.shape[0] > cfg.max_train_windows:
            stride = contexts_arr.shape[0] / cfg.max_train_windows
            keep = (np.arange(cfg.max_train_windows) * stride).astype(int)
            contexts_arr = contexts_arr[keep]
            targets_arr = targets_arr[keep]
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            order = rng.permutation(contexts_arr.shape[0])
            for start in range(0, order.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                self._train_batch(contexts_arr[batch], targets_arr[batch])
        self.trained = True

    def _train_batch(self, contexts: np.ndarray,
                     targets: np.ndarray) -> float:
        self.optimizer.zero_grad()
        hidden, page_logits, offset_logits = self._forward(contexts)
        page_probs = softmax(page_logits)
        offset_probs = softmax(offset_logits)
        loss = (cross_entropy(page_probs, targets[:, 0])
                + cross_entropy(offset_probs, targets[:, 1]))
        batch = targets.shape[0]
        dpage = page_probs.copy()
        dpage[np.arange(batch), targets[:, 0]] -= 1.0
        dpage /= batch
        doffset = offset_probs.copy()
        doffset[np.arange(batch), targets[:, 1]] -= 1.0
        doffset /= batch
        self._backward(hidden, dpage, doffset)
        self.optimizer.step()
        return loss

    # -- inference ----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        if not self.trained:
            return []
        prev = self._last_page.get(access.pc)
        delta = 0 if prev is None else access.page - prev
        self._last_page[access.pc] = access.page
        history = self._history.setdefault(access.pc, [])
        history.append(np.asarray(
            [self._page_token(delta, access.page), access.offset,
             self._pc_token(access.pc)], dtype=int))
        if len(history) > cfg.window:
            del history[:-cfg.window]
        if len(history) < cfg.window:
            return []
        contexts = np.stack(history)[None, :, :]
        _, page_logits, offset_logits = self._forward(contexts)
        page = self._decode_page(int(np.argmax(page_logits[0])),
                                 access.page)
        if page is None or page < 0:
            return []
        offset_order = np.argsort(-offset_logits[0])
        return [compose_address(page, int(o))
                for o in offset_order[:cfg.degree]]

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process`: a context pass feeding a
        row-blocked model pass.

        1. **Context pass** (sequential, cheap) — tokenises each access
           and advances the per-PC ``_history`` and ``_last_page``
           exactly as :meth:`process` does, queueing the full-window
           context of every access that predicts.
        2. **Model pass** (batched) — each time a
           :class:`~repro.ml.lstm.RowBlockQueue` block fills (and once
           for the remainder), the frozen model runs over it without a
           BPTT cache and the block is decoded (page argmax,
           top-``degree`` offsets) before the next one starts.

        The model is frozen, so a context depends only on the trace and
        the passes can be split.  BLAS sums a block's rows in a
        batch-size-dependent order: logits agree with :meth:`process`'s
        batch-1 pass to rounding, not bitwise (the parity suite bounds
        them and pins identical prefetch files and history state).  The
        decoded lists are flattened into :class:`Rows` once.
        """
        n = len(addresses)
        if not self.trained:
            return Rows.empty(n)
        results: List[List[int]] = [[] for _ in range(n)]
        window = self.config.window
        addresses = np.asarray(addresses)
        pages = (addresses >> PAGE_BITS).tolist()
        offsets = ((addresses >> BLOCK_BITS)
                   & (BLOCKS_PER_PAGE - 1)).tolist()
        pcs = np.asarray(pcs).tolist()
        queue = RowBlockQueue(partial(self._predict_block, pages, results))
        last_page = self._last_page
        # Chunk-local histories hold token rows as tuples; the arrays
        # :meth:`process` keeps are written back after the pass.
        histories: Dict[int, List[Tuple[int, int, int]]] = {}
        for i in range(n):
            pc, page = pcs[i], pages[i]
            prev = last_page.get(pc)
            delta = 0 if prev is None else page - prev
            last_page[pc] = page
            history = histories.get(pc)
            if history is None:
                history = histories[pc] = [
                    tuple(row.tolist()) for row in self._history.get(pc, ())]
            history.append((self._page_token(delta, page), offsets[i],
                            self._pc_token(pc)))
            if len(history) > window:
                del history[0]
            if len(history) == window:
                queue.add(i, tuple(history))
        queue.flush()
        for pc, history in histories.items():
            self._history[pc] = [np.asarray(row, dtype=int)
                                 for row in history]
        return Rows.from_lists(results)

    def _predict_block(self, pages: List[int], results: List[List[int]],
                       at: List[int], contexts: List[Tuple]) -> None:
        """Decode one row block of contexts into ``results``, as
        :meth:`process` decodes one."""
        degree = self.config.degree
        page_logits, offset_logits = self._infer(
            np.asarray(contexts, dtype=int))
        page_tokens = page_logits.argmax(axis=1).tolist()
        top_offsets = np.argsort(-offset_logits, axis=1)[:, :degree]
        for i, token, top in zip(at, page_tokens, top_offsets.tolist()):
            page = self._decode_page(token, pages[i])
            if page is not None and page >= 0:
                results[i] = [compose_address(page, o) for o in top]
