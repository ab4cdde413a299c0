"""Banked DRAM latency model with queue-occupancy delays.

A deliberately simple but contention-aware model: requests map to one of
``channels * ranks * banks`` banks; each bank is busy for
``bank_occupancy`` cycles per request, and a request's latency is the
base access time plus any wait for its bank.  A bounded read queue adds
back-pressure when too many requests are in flight, so aggressive
prefetchers pay a bandwidth cost, as they do in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigError


@dataclass(frozen=True)
class DramConfig:
    """DRAM organisation and timing (paper Table 3 shape).

    Attributes:
        channels: Number of channels (paper: 1).
        ranks: Ranks per channel (paper: 8).
        banks: Banks per rank (paper: 8).
        base_latency: Idle-bank access latency in core cycles
            (tRP + tRCD + tCAS at the core clock).
        bank_occupancy: Cycles a bank stays busy per request.
        read_queue_size: Outstanding-request cap (paper: 64); requests
            beyond it wait for the oldest to complete.
    """

    channels: int = 1
    ranks: int = 8
    banks: int = 8
    base_latency: int = 150
    bank_occupancy: int = 24
    read_queue_size: int = 64

    def __post_init__(self) -> None:
        if min(self.channels, self.ranks, self.banks) <= 0:
            raise ConfigError("DRAM geometry values must be positive")
        if self.base_latency <= 0 or self.bank_occupancy <= 0:
            raise ConfigError("DRAM timing values must be positive")
        if self.read_queue_size <= 0:
            raise ConfigError("read_queue_size must be positive")

    @property
    def total_banks(self) -> int:
        """Total independently schedulable banks."""
        return self.channels * self.ranks * self.banks


class DramModel:
    """Tracks per-bank availability and a bounded in-flight window."""

    def __init__(self, config: DramConfig = DramConfig()):
        self.config = config
        self._bank_free_at: List[int] = [0] * config.total_banks
        self._inflight: List[int] = []  # completion cycles, kept sorted-ish
        self.requests = 0
        self.total_wait_cycles = 0
        #: Optional :class:`repro.obs.Histogram` fed one sample per
        #: request (cycles spent waiting on bank/queue availability).
        #: ``None`` keeps the access path observation-free.
        self.wait_histogram = None

    def _bank_of(self, block: int) -> int:
        # Simple block-interleaved bank hash.
        return block % self.config.total_banks

    def access(self, block: int, cycle: int) -> int:
        """Issue a read for ``block`` at ``cycle``; return completion cycle."""
        cfg = self.config
        # Queue back-pressure: wait for the oldest in-flight request if full.
        self._inflight = [c for c in self._inflight if c > cycle]
        start = cycle
        if len(self._inflight) >= cfg.read_queue_size:
            start = max(start, min(self._inflight))
            self._inflight = [c for c in self._inflight if c > start]
        bank = self._bank_of(block)
        start = max(start, self._bank_free_at[bank])
        self._bank_free_at[bank] = start + cfg.bank_occupancy
        completion = start + cfg.base_latency
        self._inflight.append(completion)
        self.requests += 1
        self.total_wait_cycles += start - cycle
        if self.wait_histogram is not None:
            self.wait_histogram.observe(start - cycle)
        return completion

    @property
    def average_wait(self) -> float:
        """Mean cycles requests spent waiting for bank/queue availability."""
        if self.requests == 0:
            return 0.0
        return self.total_wait_cycles / self.requests

