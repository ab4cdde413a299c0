"""Next-line prefetcher: the simplest strided baseline (paper §2.1)."""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigError
from ..types import BLOCK_SIZE, MemoryAccess, block_address
from .base import Prefetcher, Rows


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential cache blocks."""

    name = "nextline"

    def __init__(self, degree: int = 1):
        if degree < 1:
            raise ConfigError("degree must be >= 1")
        self.degree = degree

    def process(self, access: MemoryAccess) -> List[int]:
        base = block_address(access.address)
        return [base + BLOCK_SIZE * i for i in range(1, self.degree + 1)]

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        # Stateless, so the whole chunk is one broadcast: an
        # (n, degree) matrix of block-aligned successors, row by row.
        bases = (np.asarray(addresses, dtype=np.int64) >> 6) << 6
        steps = np.arange(1, self.degree + 1, dtype=np.int64) * BLOCK_SIZE
        return Rows(np.full(len(bases), self.degree, dtype=np.int64),
                    (bases[:, None] + steps[None, :]).ravel())
