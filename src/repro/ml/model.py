"""A next-token LSTM classifier assembled from the substrate blocks.

This is the workhorse of the Delta-LSTM baseline: embed tokens, run a
(optionally stacked) LSTM over a fixed window, predict the next token
from the final hidden state with a softmax head.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, ModelError
from .layers import Dense, Embedding, cross_entropy, softmax
from .lstm import LSTM, final_hidden
from .optim import Adam


class NextTokenLSTM:
    """Windowed next-token predictor.

    Args:
        vocab_size: Token vocabulary size.
        embed_dim: Embedding width.
        hidden_dim: LSTM hidden width.
        layers: Number of stacked LSTM layers (paper's Delta-LSTM: 2).
        window: Context length fed per prediction.
        lr: Adam learning rate.
        seed: RNG seed for all parameters.
    """

    def __init__(self, vocab_size: int, embed_dim: int = 16,
                 hidden_dim: int = 32, layers: int = 2, window: int = 8,
                 lr: float = 3e-3, seed: int = 0):
        if window < 1:
            raise ConfigError("window must be >= 1")
        if layers < 1:
            raise ConfigError("layers must be >= 1")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.window = window
        self.embedding = Embedding(vocab_size, embed_dim, rng)
        self.lstms: List[LSTM] = []
        in_dim = embed_dim
        for _ in range(layers):
            self.lstms.append(LSTM(in_dim, hidden_dim, rng))
            in_dim = hidden_dim
        self.head = Dense(hidden_dim, vocab_size, rng)
        self.optimizer = Adam([self.embedding, *self.lstms, self.head], lr=lr)
        self.trained = False

    # -- training ---------------------------------------------------------

    def _windows(self, tokens: np.ndarray):
        """All (context, target) windows in a token sequence."""
        n = tokens.size - self.window
        if n <= 0:
            return np.zeros((0, self.window), dtype=int), np.zeros(0, dtype=int)
        contexts = np.lib.stride_tricks.sliding_window_view(
            tokens[:-1], self.window)[:n]
        targets = tokens[self.window:]
        return contexts.copy(), targets.copy()

    def fit(self, tokens: Sequence[int], epochs: int = 2,
            batch_size: int = 64, max_windows: Optional[int] = None,
            seed: int = 0) -> List[float]:
        """Train on one token sequence; returns per-epoch mean losses."""
        tokens = np.asarray(tokens, dtype=int)
        contexts, targets = self._windows(tokens)
        if contexts.shape[0] == 0:
            return []
        if max_windows is not None and contexts.shape[0] > max_windows:
            contexts = contexts[:max_windows]
            targets = targets[:max_windows]
        rng = np.random.default_rng(seed)
        losses: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(contexts.shape[0])
            epoch_loss = 0.0
            batches = 0
            for start in range(0, order.size, batch_size):
                batch = order[start:start + batch_size]
                epoch_loss += self._train_batch(contexts[batch],
                                                targets[batch])
                batches += 1
            losses.append(epoch_loss / max(1, batches))
        self.trained = True
        return losses

    def _train_batch(self, contexts: np.ndarray,
                     targets: np.ndarray) -> float:
        self.optimizer.zero_grad()
        hidden = self.embedding.forward(contexts)
        for lstm in self.lstms:
            hidden = lstm.forward(hidden)
        final = hidden[:, -1, :]
        logits = self.head.forward(final)
        probs = softmax(logits)
        loss = cross_entropy(probs, targets)

        batch = targets.shape[0]
        dlogits = probs.copy()
        dlogits[np.arange(batch), targets] -= 1.0
        dlogits /= batch
        dfinal = self.head.backward(dlogits)
        grad_h = np.zeros_like(hidden)
        grad_h[:, -1, :] = dfinal
        for lstm in reversed(self.lstms):
            grad_h = lstm.backward(grad_h)
        self.embedding.backward(grad_h)
        self.optimizer.step()
        return loss

    # -- inference ----------------------------------------------------------

    def predict_topk(self, context: Sequence[int], k: int = 2) -> List[int]:
        """Most likely next tokens for a context (padded/truncated to
        the training window)."""
        if not self.trained:
            raise ModelError("model used before fit()")
        context = list(context)[-self.window:]
        if len(context) < self.window:
            context = [0] * (self.window - len(context)) + context
        batch = np.asarray([context], dtype=int)
        hidden = self.embedding.forward(batch)
        for lstm in self.lstms:
            hidden = lstm.forward(hidden)
        logits = self.head.forward(hidden[:, -1, :])[0]
        order = np.argsort(-logits)
        return [int(t) for t in order[:k]]

    def logits(self, contexts: np.ndarray) -> np.ndarray:
        """Next-token logits for full-window ``contexts`` (batch, window).

        The batched, cache-free counterpart of :meth:`predict_topk`'s
        model pass.  BLAS sums a batch's rows in a batch-size-dependent
        order, so each row agrees with the batch-1 pass to rounding
        (the parity suite bounds it at 1e-12), not bitwise.
        """
        if not self.trained:
            raise ModelError("model used before fit()")
        if contexts.ndim != 2 or contexts.shape[1] != self.window:
            raise ModelError(
                f"expected (B, {self.window}) contexts, got {contexts.shape}")
        hidden = final_hidden(self.lstms, self.embedding.forward(contexts))
        return self.head.forward(hidden)

    def topk(self, contexts: np.ndarray, k: int) -> np.ndarray:
        """Row-wise :meth:`predict_topk` over full-window ``contexts``:
        a (batch, k) array of the most likely next tokens, best first."""
        return np.argsort(-self.logits(contexts), axis=1)[:, :k]
