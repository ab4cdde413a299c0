"""Dynamic-priority ensemble (the paper's flagged future work, §5).

The paper's fixed-priority ensemble (PATHFINDER > NL > SISB) sometimes
trails SISB-only on temporally-dominated benchmarks because PATHFINDER
always gets first claim on the 2-slot budget.  The paper notes "it is
possible to get larger benefits with dynamic ensemble priority
policies" — this module implements one.

Each member's recent *usefulness* is tracked with a scoreboard: every
prefetch a member wins a slot for is remembered (bounded window), and
when a later demand access hits a remembered block, the owning member
is credited.  Members are re-ranked by their exponentially-decayed
hit rate, so whichever prefetcher is currently working on this phase
of this workload gets budget priority.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence

from ..errors import ConfigError
from ..types import MemoryAccess, Trace
from .base import Prefetcher


class AdaptiveEnsemblePrefetcher(Prefetcher):
    """Usefulness-ranked combination of prefetchers.

    Args:
        members: The member prefetchers (initial priority = given order).
        budget: Prefetch slots per access (paper: 2).
        window: How many outstanding slot-winning prefetches to remember
            per member while waiting for a demand hit.
        decay: Per-access exponential decay of each member's score, so
            priority follows the current program phase.
        credit: Score added when a member's prefetch is demanded.
    """

    name = "adaptive-ensemble"

    def __init__(self, members: Sequence[Prefetcher], budget: int = 2,
                 window: int = 512, decay: float = 0.999,
                 credit: float = 1.0):
        if not members:
            raise ConfigError("ensemble needs at least one member")
        if budget < 1 or window < 1:
            raise ConfigError("budget and window must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        self.members = list(members)
        self.budget = budget
        self.window = window
        self.decay = decay
        self.credit = credit
        self.name = "adaptive(" + "+".join(m.name for m in members) + ")"
        self.scores = [0.0] * len(self.members)
        #: block -> member index, bounded FIFO of outstanding prefetches.
        self._pending: "OrderedDict[int, int]" = OrderedDict()
        self.slots_used = [0] * len(self.members)
        self.credits = [0] * len(self.members)

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

    def _credit_hit(self, block: int) -> None:
        owner = self._pending.pop(block, None)
        if owner is not None:
            self.scores[owner] += self.credit
            self.credits[owner] += 1

    def _remember(self, block: int, owner: int) -> None:
        self._pending[block] = owner
        self._pending.move_to_end(block)
        while len(self._pending) > self.window:
            self._pending.popitem(last=False)

    def priority_order(self) -> List[int]:
        """Member indices, best current score first (stable on ties)."""
        return sorted(range(len(self.members)),
                      key=lambda i: -self.scores[i])

    def process(self, access: MemoryAccess) -> List[int]:
        self._credit_hit(access.block)
        for i in range(len(self.scores)):
            self.scores[i] *= self.decay

        # Every member observes every access so its tables stay warm.
        candidates = [member.process(access) for member in self.members]

        chosen: List[int] = []
        seen_blocks = set()
        for index in self.priority_order():
            for address in candidates[index]:
                block = address >> 6
                if block in seen_blocks:
                    continue
                if len(chosen) < self.budget:
                    chosen.append(address)
                    seen_blocks.add(block)
                    self.slots_used[index] += 1
                    self._remember(block, index)
        return chosen
