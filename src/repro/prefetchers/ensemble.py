"""Fixed-priority prefetcher ensembles (paper §3.4, §5).

The paper's best design point combines PATHFINDER with Next-Line and
SISB: PATHFINDER's high-confidence predictions take priority, and the
remaining slots of the 2-per-access budget are filled by the
rule-based members.  The priority is *fixed*, which the paper notes can
leave the ensemble slightly behind SISB-only on temporally-dominated
benchmarks — a behaviour this implementation reproduces.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..types import MemoryAccess, Trace
from .base import Prefetcher, Rows, _budget_rows, check_rows


class EnsemblePrefetcher(Prefetcher):
    """Priority-ordered combination of prefetchers.

    Args:
        members: Prefetchers in priority order (first = highest).
        budget: Slots available per access (paper: 2).
    """

    name = "ensemble"

    def __init__(self, members: Sequence[Prefetcher], budget: int = 2):
        if not members:
            raise ConfigError("ensemble needs at least one member")
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        self.members = list(members)
        self.budget = budget
        self.name = "+".join(m.name for m in self.members)
        #: Per-member count of prefetch slots actually used.
        self.slots_used = [0] * len(self.members)

    def publish_telemetry(self, obs) -> None:
        for member in self.members:
            member.publish_telemetry(obs)

    def series_arm(self) -> None:
        for member in self.members:
            member.series_arm()

    def series_sample(self, cumulative, gauges) -> None:
        for member in self.members:
            member.series_sample(cumulative, gauges)

    def train(self, trace: Trace) -> None:
        for member in self.members:
            member.train(trace)

    def process(self, access: MemoryAccess) -> List[int]:
        # Every member observes every access (their tables must stay
        # warm) even when it wins no slots.
        return self._merge([member.process(access)
                            for member in self.members])

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process` over a trace chunk.

        A member sees every access and never the ensemble's choice, so
        each member runs its own :meth:`Prefetcher.process_batch` over
        the whole chunk.  Their rows are interleaved by access, members
        in priority order, and the driver's budget pass
        (:func:`~repro.prefetchers.base._budget_rows`) keeps what
        :meth:`_merge` keeps: the first address per block, at most
        ``budget``.  ``slots_used`` counts each member's kept records.
        Members share no state, so the prefetch file and ``slots_used``
        are bit-identical.  With a fault plan armed, the PATHFINDER
        member takes its own scalar path.
        """
        n = len(addresses)
        per_member = [check_rows(member.process_batch(addresses, pcs,
                                                      instr_ids), n)
                      for member in self.members]
        # Stable, so each access's records stay in member order.
        order = np.argsort(np.concatenate([
            np.repeat(np.arange(n), rows.counts) for rows in per_member]),
            kind="stable")
        merged = np.concatenate([rows.addresses
                                 for rows in per_member])[order]
        member = np.repeat(np.arange(len(per_member)),
                           [len(rows.addresses)
                            for rows in per_member])[order]
        counts, kept = _budget_rows(sum(rows.counts for rows in per_member),
                                    merged, self.budget)
        used = np.bincount(member[kept], minlength=len(self.members))
        for index, slots in enumerate(used.tolist()):
            self.slots_used[index] += slots
        return Rows(counts, merged[kept])

    def _merge(self, candidates: Sequence[List[int]]) -> List[int]:
        """One access's prefetches from each member's list, in priority
        order: the first address per block, at most ``budget``.  The
        oracle :meth:`process_batch` reproduces."""
        chosen: List[int] = []
        seen_blocks = set()
        for index, addresses in enumerate(candidates):
            for address in addresses:
                block = address >> 6
                if block in seen_blocks:
                    continue
                if len(chosen) < self.budget:
                    chosen.append(address)
                    seen_blocks.add(block)
                    self.slots_used[index] += 1
        return chosen
