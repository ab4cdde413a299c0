"""The Memory Access Pixel Matrix encoder (paper §3.2, §3.4).

A delta history of length H becomes an H × D binary image: row *r*
lights the column for the r-th delta (column ``delta + (D-1)/2``).
Three refinements from §3.4 are implemented, each independently
switchable for the Figure 9 ablation ladder:

- **Enlarged pixels** — each lit pixel also lights its row neighbours,
  amplifying the extremely sparse input so neurons actually fire.
- **Middle-delta shift** — the middle row's column is offset by a fixed
  constant, de-aliasing histories whose enlarged pixels would
  otherwise cluster.
- **Reordering** — a fixed bit-reversal-style permutation of columns is
  applied before enlargement, so adjacent delta values land far apart
  and their enlarged blobs stop overlapping.  (The paper describes the
  reorder only as "aids in optimizing the processing flow"; this is
  our concrete interpretation, documented in DESIGN.md.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .config import PathfinderConfig


@dataclass(frozen=True)
class SparseEncoding:
    """A binary pixel-rate vector plus its precomputed support.

    Attributes:
        rates: Dense float intensities, shape ``(n_input,)``; the
            multi-tick :meth:`~repro.snn.network.DiehlCookNetwork.present`
            reads these.
        active: Sorted flat indices of the lit pixels — exactly
            ``np.flatnonzero(rates)``; the one-tick
            :meth:`~repro.snn.network.DiehlCookNetwork.present_one_tick`
            reads these, so it never scans the (overwhelmingly zero)
            vector.
    """

    rates: np.ndarray
    active: np.ndarray


def _spread_permutation(width: int) -> np.ndarray:
    """A fixed permutation that maps adjacent columns far apart.

    Columns are re-ordered by a stride walk with a stride co-prime to
    the width, which sends neighbouring delta values to distant pixels.
    """
    stride = max(2, int(np.ceil(np.sqrt(width))))
    while np.gcd(stride, width) != 1:
        stride += 1
    return (np.arange(width) * stride) % width


class PixelMatrixEncoder:
    """Encodes delta histories into flat pixel-intensity vectors.

    The output is a float vector of length ``D * H`` with values in
    [0, 1], ready for Poisson rate coding by the SNN.
    """

    def __init__(self, config: PathfinderConfig):
        self.config = config
        self._width = config.delta_range
        self._height = config.history
        self._center = config.max_delta
        self._permutation: Optional[np.ndarray] = (
            _spread_permutation(self._width) if config.reorder_pixels else None)
        # The lit-pixel table in CSR form, one entry per (row, delta):
        # every shift / permutation / enlargement decision is resolved
        # once here, so encoding a history is H slices and one scatter.
        # The compiled PATHFINDER loop reads the same two arrays.
        self.lit_starts, self.lit_flat = self._build_lit_table()

    def _build_lit_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Precompute the lit flat indices for every (row, delta).

        Entry ``k = row * D + delta + max_delta`` lights the sorted
        pixels ``lit_flat[lit_starts[k]:lit_starts[k + 1]]``: the
        delta's column in that row (middle-shifted in the middle row,
        then permuted) and, with enlargement, its in-row neighbours
        within ``enlarge_radius``.
        """
        cfg = self.config
        width, height = self._width, self._height
        columns = np.tile(np.arange(width), (height, 1))
        if height >= 3:
            middle = height // 2
            columns[middle] = np.clip(columns[middle] + cfg.middle_shift,
                                      0, width - 1)
        if self._permutation is not None:
            columns = self._permutation[columns]
        # A pixel and its in-row neighbours form one contiguous run of
        # columns, so offsets in ascending order list it sorted.
        radius = cfg.enlarge_radius if cfg.enlarge_pixels else 0
        lit = columns[..., None] + np.arange(-radius, radius + 1)
        inside = (lit >= 0) & (lit < width)
        lit += (np.arange(height) * width)[:, None, None]
        starts = np.zeros(height * width + 1, dtype=np.int64)
        np.cumsum(inside.sum(axis=2).ravel(), out=starts[1:])
        return starts, lit[inside].astype(np.int64)

    def lit(self, row: int, delta: int) -> np.ndarray:
        """The sorted flat pixels ``delta`` lights in ``row``."""
        k = row * self._width + delta + self._center
        return self.lit_flat[self.lit_starts[k]:self.lit_starts[k + 1]]

    @property
    def n_input(self) -> int:
        """Length of the encoded vector (D × H)."""
        return self._width * self._height

    def in_range(self, delta: int) -> bool:
        """Whether a delta is representable in the pixel matrix."""
        return -self.config.max_delta <= delta <= self.config.max_delta

    def encode(self, deltas: Sequence[int]) -> np.ndarray:
        """Encode a delta history (most recent last) into pixel rates.

        Uses the precomputed lit-pixel table; returns a fresh writable
        vector.

        Args:
            deltas: Exactly H values; each must be in range (a zero is
                legal — it is used by the cold-page encodings).

        Raises:
            ConfigError: on wrong history length or out-of-range delta.
        """
        if len(deltas) != self._height:
            raise ConfigError(
                f"expected {self._height} deltas, got {len(deltas)}")
        rates = np.zeros(self.n_input, dtype=float)
        for row, delta in enumerate(deltas):
            if not self.in_range(delta):
                raise ConfigError(f"delta {delta} outside pixel matrix range")
            rates[self.lit(row, delta)] = 1.0
        return rates

    # -- cold-page special encodings (paper §3.4) ---------------------------

    def encode_history(self, deltas: Sequence[int],
                       first_offset: Optional[int] = None
                       ) -> Optional[SparseEncoding]:
        """Encode a possibly-short history using the cold-page scheme.

        With ``cold_page_encoding`` enabled, short histories map to the
        paper's special cases (for H = 3):

        - no deltas yet, first offset known → ``{OF1, 0, 0}``
        - one delta D1 → ``{0, 0, D1}`` (zeroes lead, so an offset
          pattern and a delta pattern stay distinguishable)
        - two deltas → ``{0, D1, D2}``

        A longer history encodes its last H deltas.  Out-of-range
        values (an offset can exceed a reduced delta range) are clipped
        into range.  Returns ``None`` when nothing can be encoded
        (short history with the feature disabled).
        """
        cfg = self.config
        bound = self._center
        clipped = [(-bound if d < -bound else (bound if d > bound else d))
                   for d in deltas]
        if len(clipped) >= self._height:
            padded = clipped[-self._height:]
        elif not cfg.cold_page_encoding:
            return None
        elif not clipped:
            if first_offset is None:
                return None
            padded = [self._clip(first_offset)] + [0] * (self._height - 1)
        else:
            padded = [0] * (self._height - len(clipped)) + clipped
        # Rows occupy disjoint, increasing index ranges and each entry
        # is sorted, so concatenating in row order is already the
        # sorted unique support.
        active = np.concatenate([self.lit(row, delta)
                                 for row, delta in enumerate(padded)])
        rates = np.zeros(self.n_input, dtype=float)
        rates[active] = 1.0
        return SparseEncoding(rates=rates, active=active)

    def _clip(self, value: int) -> int:
        bound = self.config.max_delta
        return max(-bound, min(bound, value))
