"""Idealised Irregular Stream Buffer (SISB) — temporal record/replay.

The paper uses the ML-DPC competition's idealised version of Jain &
Lin's Irregular Stream Buffer [20] as its temporal-prefetching
baseline.  The idealisation drops the hardware budget: a structural
address-correlation table maps each observed block (per PC stream) to
the block that followed it last time, linearised so that repeated
irregular sequences replay perfectly regardless of working-set size.

On each access the prefetcher walks the successor chain ``degree``
steps and prefetches those blocks.  This captures exactly what the
paper observes: on temporally repeating workloads (xalan, soplex,
omnetpp, sphinx) SISB is extremely strong, while on fresh-address
workloads (astar, bfs, cc) it has nothing to replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import MemoryAccess
from .base import Prefetcher, Rows


@dataclass(frozen=True)
class SISBConfig:
    """Idealised-ISB knobs.

    Attributes:
        degree: Successor-chain depth prefetched per access.
        pc_localized: Key the correlation streams by PC (as ISB's
            structural streams are); global correlation otherwise.
    """

    degree: int = 2
    pc_localized: bool = True

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")


class SISBPrefetcher(Prefetcher):
    """Unbounded temporal successor-correlation prefetcher."""

    name = "sisb"

    def __init__(self, config: Optional[SISBConfig] = None):
        self.config = config or SISBConfig()
        # successor[(stream, block)] -> next block in the recorded stream
        self._successor: Dict[Tuple[int, int], int] = {}
        self._last_block: Dict[int, int] = {}

    def _stream_of(self, access: MemoryAccess) -> int:
        return access.pc if self.config.pc_localized else 0

    def process(self, access: MemoryAccess) -> List[int]:
        stream = self._stream_of(access)
        block = access.block
        previous = self._last_block.get(stream)
        if previous is not None and previous != block:
            self._successor[(stream, previous)] = block
        self._last_block[stream] = block

        addresses: List[int] = []
        cursor = block
        for _ in range(self.config.degree):
            nxt = self._successor.get((stream, cursor))
            if nxt is None:
                break
            addresses.append(nxt << 6)
            cursor = nxt
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Chunked form: columnar block/stream extraction, hoisted walk.

        Successor-chain updates are order-dependent (an access can
        record the link the very next access replays), so the loop
        stays sequential; the chunk converts per-access ``MemoryAccess``
        construction and attribute chasing into two array casts and
        local dictionary handles, and appends every access's addresses
        to one flat list.
        """
        degree = self.config.degree
        successor = self._successor
        succ_get = successor.get
        last_block = self._last_block
        last_get = last_block.get
        blocks = (np.asarray(addresses) >> 6).tolist()
        if self.config.pc_localized:
            streams = np.asarray(pcs).tolist()
        else:
            streams = [0] * len(blocks)
        flat: List[int] = []
        append = flat.append
        ends: List[int] = []
        for stream, block in zip(streams, blocks):
            previous = last_get(stream)
            if previous is not None and previous != block:
                successor[(stream, previous)] = block
            last_block[stream] = block
            cursor = block
            for _ in range(degree):
                nxt = succ_get((stream, cursor))
                if nxt is None:
                    break
                append(nxt << 6)
                cursor = nxt
            ends.append(len(flat))
        return Rows(np.diff(np.asarray(ends, dtype=np.int64), prepend=0),
                    np.asarray(flat, dtype=np.int64))
