"""A fused-gate LSTM layer with full backpropagation through time.

Gate layout in the fused weight matrices is ``[i | f | o | g]`` (input,
forget, output, candidate).  The layer processes whole (batch, time,
feature) tensors; :meth:`LSTM.backward` accepts per-step hidden-state
gradients and returns gradients w.r.t. the inputs, accumulating
parameter gradients internally.

Frozen-model inference goes through :func:`final_hidden` instead: it
steps a layer stack over the window with the same gate math but keeps
no BPTT cache.  :class:`RowBlockQueue` and :func:`row_blocks` bound how
many rows one such pass, and the inputs queued for it, hold.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import ConfigError, ModelError


#: Rows per cache-free inference pass.  A batched prediction over a
#: driver chunk runs as a sequence of these blocks, each decoded before
#: the next starts, so the working set stays a block wide whatever the
#: chunk size.  Above 64 rows BLAS takes its large-batch path; past 128
#: the Fig. 4 grid's peak RSS grows (+1-2 MB at 256) for no measurable
#: gain in wall time.
_ROW_BLOCK = 128


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class LSTM:
    """Single LSTM layer over full sequences.

    Args:
        input_dim: Feature size of each timestep input.
        hidden_dim: Hidden/cell state size.
        rng: Generator for parameter initialisation.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if input_dim < 1 or hidden_dim < 1:
            raise ConfigError("LSTM dimensions must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale = 1.0 / np.sqrt(input_dim + hidden_dim)
        self.wx = rng.normal(0.0, scale, size=(input_dim, 4 * hidden_dim))
        self.wh = rng.normal(0.0, scale, size=(hidden_dim, 4 * hidden_dim))
        self.b = np.zeros(4 * hidden_dim)
        # Standard trick: bias the forget gate open at init.
        self.b[hidden_dim:2 * hidden_dim] = 1.0
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)
        self._cache: Optional[List[Tuple]] = None
        self._inputs: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray,
                h0: Optional[np.ndarray] = None,
                c0: Optional[np.ndarray] = None) -> np.ndarray:
        """Run the layer over ``x`` of shape (batch, time, input_dim).

        Returns:
            Hidden states of shape (batch, time, hidden_dim).
        """
        self._check_input(x)
        batch, time, _ = x.shape
        hd = self.hidden_dim
        h = np.zeros((batch, hd)) if h0 is None else h0
        c = np.zeros((batch, hd)) if c0 is None else c0
        outputs = np.zeros((batch, time, hd))
        cache: List[Tuple] = []
        for t in range(time):
            h_new, c_new, gates = self._gates(x[:, t, :], h, c)
            cache.append((h, c) + gates)
            h, c = h_new, c_new
            outputs[:, t, :] = h
        self._cache = cache
        self._inputs = x
        return outputs

    def _gates(self, x_t: np.ndarray, h: np.ndarray,
               c: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Tuple]:
        """The gate math of one step, shared by training and inference.

        Returns the next ``(h, c)`` and the ``(i, f, o, g, tanh_c)``
        activations :meth:`backward` needs.
        """
        hd = self.hidden_dim
        # (x_t @ wx + h @ wh) + b, accumulated in place: the same sums
        # in the same order, one (batch, 4 * hidden) temporary fewer.
        z = x_t @ self.wx
        z += h @ self.wh
        z += self.b
        i = _sigmoid(z[:, :hd])
        f = _sigmoid(z[:, hd:2 * hd])
        o = _sigmoid(z[:, 2 * hd:3 * hd])
        g = np.tanh(z[:, 3 * hd:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        return o * tanh_c, c_new, (i, f, o, g, tanh_c)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"expected (B, T, {self.input_dim}) input, got {x.shape}")

    def backward(self, grad_h: np.ndarray) -> np.ndarray:
        """BPTT given per-step hidden gradients (batch, time, hidden).

        Use a zeros tensor with only the last step populated when the
        loss depends only on the final hidden state.

        Returns:
            Gradient w.r.t. the input tensor (batch, time, input_dim).
        """
        if self._cache is None or self._inputs is None:
            raise ModelError("backward called before forward")
        x = self._inputs
        batch, time, _ = x.shape
        hd = self.hidden_dim
        dx = np.zeros_like(x)
        dh_next = np.zeros((batch, hd))
        dc_next = np.zeros((batch, hd))
        for t in reversed(range(time)):
            h_prev, c_prev, i, f, o, g, tanh_c = self._cache[t]
            dh = grad_h[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g ** 2),
            ], axis=1)
            self.dwx += x[:, t, :].T @ dz
            self.dwh += h_prev.T @ dz
            self.db += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.wx.T
            dh_next = dz @ self.wh.T
            dc_next = dc * f
        return dx

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"wx": self.dwx, "wh": self.dwh, "b": self.db}

    def zero_grad(self) -> None:
        self.dwx.fill(0.0)
        self.dwh.fill(0.0)
        self.db.fill(0.0)


def final_hidden(layers: Sequence[LSTM], x: np.ndarray) -> np.ndarray:
    """Last hidden state of a stacked LSTM over ``x`` (batch, time, dim).

    The inference twin of chaining :meth:`LSTM.forward`: every layer
    runs the same gate math per time step, but only the running
    ``(h, c)`` of each layer is alive — no per-step outputs, no BPTT
    cache, and the layers' training state is left untouched.

    Returns:
        The top layer's final hidden state, shape (batch, hidden_dim).
    """
    layers[0]._check_input(x)
    batch = x.shape[0]
    states = [(np.zeros((batch, layer.hidden_dim)),
               np.zeros((batch, layer.hidden_dim))) for layer in layers]
    top = states[-1][0]
    for t in range(x.shape[1]):
        top = x[:, t, :]
        for index, layer in enumerate(layers):
            h, c, _ = layer._gates(top, *states[index])
            states[index] = (h, c)
            top = h
    return top


def row_blocks(rows: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_ROW_BLOCK`` rows over
    ``range(rows)``: the block of :class:`RowBlockQueue`, for vectorised
    per-access work whose temporaries must not grow with the chunk."""
    for start in range(0, rows, _ROW_BLOCK):
        yield slice(start, min(start + _ROW_BLOCK, rows))


class RowBlockQueue:
    """Queues model inputs and runs them one row block at a time.

    :meth:`add` queues one row with a caller key (typically the access
    index the prediction belongs to); whenever ``_ROW_BLOCK`` rows are
    queued, ``run(keys, rows)`` takes them, and :meth:`flush` hands over
    the remainder.  At most one block of inputs is ever held, whatever
    the driver's chunk size, and the blocks run in the order the rows
    were added.
    """

    def __init__(self, run: Callable[[List[Any], List[Any]], None]):
        self._run = run
        self._keys: List[Any] = []
        self._rows: List[Any] = []

    def add(self, key: Any, row: Any) -> None:
        self._keys.append(key)
        self._rows.append(row)
        if len(self._rows) == _ROW_BLOCK:
            self.flush()

    def flush(self) -> None:
        if self._rows:
            keys, rows = self._keys, self._rows
            self._keys, self._rows = [], []
            self._run(keys, rows)
