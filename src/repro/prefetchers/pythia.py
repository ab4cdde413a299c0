"""Pythia (Bera et al., MICRO 2021) — RL delta prefetcher baseline.

A tabular reinforcement-learning prefetcher built the way Pythia is:
program *features* are hashed into per-feature Q-value *vaults* whose
values are summed to score each action; the *actions* are candidate
prefetch deltas (including "no prefetch"); and rewards are assigned by
an Evaluation Queue that observes whether issued prefetches were later
demanded.  Q-values are updated SARSA-style across every vault.  The
default feature set is Pythia's best-performing pair: (PC ⊕ last
delta) and the recent delta-sequence signature.

Each vault maps a hashed feature to its *Q row*: one float per action,
indexed by the action's position in :attr:`PythiaConfig.actions`.  A
state's action values are its rows summed element-wise.

The implementation reproduces the behavioural signature the paper
reports for Pythia at the LLC: it is *aggressive* (issues on nearly
every access — highest issue counts in Table 6), its epsilon-greedy
exploration wastes some bandwidth on hard-to-predict patterns, and it
can settle into a local minimum such as always-delta-1 on xalan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import add
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import (BLOCK_BITS, BLOCKS_PER_PAGE, PAGE_BITS, MemoryAccess,
                     compose_address)
from .base import Prefetcher


def _default_actions() -> Tuple[int, ...]:
    """Pythia's delta action list (positive and negative deltas + none)."""
    return (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 8, -8, 16, -16, 32)


@dataclass(frozen=True)
class PythiaConfig:
    """RL hyper-parameters and structure sizes.

    Attributes:
        actions: Candidate prefetch deltas; 0 = no prefetch.  Distinct,
            since a Q row holds one value per position.
        alpha: SARSA learning rate.  [Pythia's hardware default is
            0.0065 over billions of accesses; scaled up for the
            shorter traces used here — the paper itself tuned
            alpha/gamma/epsilon per LLC configuration (§4.3).]
        gamma: Discount factor (Pythia default 0.55).
        epsilon: Exploration probability.
        reward_accurate: Reward for a prefetch later demanded.
        reward_inaccurate: Reward for a prefetch evicted unused.
        reward_no_prefetch: Reward for choosing not to prefetch (small
            positive: saves bandwidth when nothing is predictable).
        eq_size: Evaluation-queue capacity.
        degree: Prefetches issued per access (paper budget: 2); at
            most ``len(actions)``, since exploration samples that many
            distinct actions.
        use_delta_sequence_vault: Enable the second feature vault
            (signature of the last two in-page deltas), as in Pythia's
            two-feature configuration; disabling it leaves the single
            (PC ⊕ delta) vault.
        seed: RNG seed for exploration.
    """

    actions: Tuple[int, ...] = field(default_factory=_default_actions)
    alpha: float = 0.15
    gamma: float = 0.55
    epsilon: float = 0.05
    reward_accurate: float = 20.0
    reward_inaccurate: float = -8.0
    reward_no_prefetch: float = 2.0
    eq_size: int = 256
    degree: int = 2
    use_delta_sequence_vault: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if 0 not in self.actions:
            raise ConfigError("action list must include 0 (no prefetch)")
        if len(set(self.actions)) != len(self.actions):
            raise ConfigError(f"duplicate actions in {self.actions}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if self.degree < 1 or self.eq_size < 1:
            raise ConfigError("degree and eq_size must be >= 1")
        if self.degree > len(self.actions):
            raise ConfigError(
                f"degree {self.degree} exceeds the {len(self.actions)} "
                f"actions exploration samples from")


class _EQEntry:
    """A pending prefetch awaiting its reward.

    ``action`` is the position in :attr:`PythiaConfig.actions`, i.e.
    the Q-row index the reward updates.
    """

    __slots__ = ("state", "action", "block", "resolved")

    def __init__(self, state: Tuple[int, ...], action: int, block: int):
        self.state = state
        self.action = action
        self.block = block
        self.resolved = False


class PythiaPrefetcher(Prefetcher):
    """Tabular SARSA delta prefetcher with an evaluation queue."""

    name = "pythia"

    def __init__(self, config: Optional[PythiaConfig] = None):
        self.config = config or PythiaConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # One Q-table ("vault") per program feature, mapping a hashed
        # feature to its Q row; action values are the rows summed
        # across vaults, exactly as Pythia's QVStore does.  Rows are
        # created on first update; an unseen feature reads as zeros.
        self._vaults: List[Dict[int, List[float]]] = [{}]
        if self.config.use_delta_sequence_vault:
            self._vaults.append({})
        self._zero_row = (0.0,) * len(self.config.actions)
        self._eq: Deque[_EQEntry] = deque()
        self._eq_by_block: Dict[int, List[_EQEntry]] = {}
        # page -> last offset (for delta features)
        self._last_offset: Dict[int, int] = {}
        self._last_delta: Dict[int, int] = {}
        self._prev_delta: Dict[int, int] = {}
        self.rewards_assigned = 0

    # -- feature / Q helpers ---------------------------------------------------

    def _features_of(self, pc: int, last_delta: int,
                     prev_delta: int) -> Tuple[int, ...]:
        """One hashed feature index per vault."""
        pc_delta = ((pc & 0xFFF) << 7) ^ (last_delta & 0x7F)
        if not self.config.use_delta_sequence_vault:
            return (pc_delta,)
        sequence = ((last_delta & 0x7F) << 7) ^ (prev_delta & 0x7F)
        return (pc_delta, sequence)

    def _q_values(self, state: Tuple[int, ...]) -> List[float]:
        """Every action's Q-value in ``state``: its rows summed."""
        rows = [vault.get(feature, self._zero_row)
                for vault, feature in zip(self._vaults, state)]
        return [sum(values) for values in zip(*rows)]

    def _update(self, state: Tuple[int, ...], action: int, reward: float,
                next_state: Optional[Tuple[int, ...]]) -> None:
        cfg = self.config
        old = self._q_values(state)[action]
        bootstrap = (cfg.gamma * max(self._q_values(next_state))
                     if next_state is not None else 0.0)
        step = cfg.alpha * (reward + bootstrap - old) / len(self._vaults)
        for vault, feature in zip(self._vaults, state):
            row = vault.setdefault(feature, [0.0] * len(cfg.actions))
            row[action] += step
        self.rewards_assigned += 1

    # -- evaluation queue ---------------------------------------------------

    def _enqueue(self, entry: _EQEntry) -> None:
        self._eq.append(entry)
        self._eq_by_block.setdefault(entry.block, []).append(entry)
        while len(self._eq) > self.config.eq_size:
            evicted = self._eq.popleft()
            if evicted.resolved:
                continue
            # An entry leaves its block's bucket only when a hit
            # resolves it, so an unresolved one is still there.
            bucket = self._eq_by_block[evicted.block]
            bucket.remove(evicted)
            if not bucket:
                del self._eq_by_block[evicted.block]
            self._update(evicted.state, evicted.action,
                         self.config.reward_inaccurate, None)

    def _resolve_hits(self, block: int,
                      next_state: Tuple[int, ...]) -> None:
        for entry in self._eq_by_block.pop(block, []):
            entry.resolved = True
            self._update(entry.state, entry.action,
                         self.config.reward_accurate, next_state)

    # -- per-access -----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        page, offset = access.page, access.offset
        previous_offset = self._last_offset.get(page)
        delta = 0
        if previous_offset is not None:
            delta = offset - previous_offset
        self._last_offset[page] = offset
        last_delta = self._last_delta.get(page, 0)
        prev_delta = self._prev_delta.get(page, 0)
        if delta != 0:
            self._prev_delta[page] = last_delta
            self._last_delta[page] = delta

        state = self._features_of(access.pc,
                                  delta if delta != 0 else last_delta,
                                  prev_delta)
        self._resolve_hits(access.block, state)

        # Epsilon-greedy multi-action selection, best Q first (a
        # stable sort: ties keep action-list order).
        if self._rng.random() < cfg.epsilon:
            chosen = self._rng.choice(len(cfg.actions), size=cfg.degree,
                                      replace=False).tolist()
        else:
            q = self._q_values(state)
            chosen = sorted(range(len(q)), key=q.__getitem__,
                            reverse=True)[:cfg.degree]

        addresses: List[int] = []
        for action in chosen:
            delta = cfg.actions[action]
            if delta == 0:
                self._update(state, action, cfg.reward_no_prefetch, None)
                continue
            target = offset + delta
            if not 0 <= target < BLOCKS_PER_PAGE:
                continue
            address = compose_address(page, target)
            self._enqueue(_EQEntry(state, action, address >> BLOCK_BITS))
            addresses.append(address)
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """Chunked form: columnar feature inputs, hoisted SARSA walk.

        Every access reads Q rows that earlier accesses' rewards wrote,
        so the walk stays sequential; the batch win is one columnar
        page/offset/block/PC extraction plus a loop over local handles
        that scores all actions with one element-wise row sum and ranks
        them with one stable sort.  The RNG is drawn in program order
        (one ``random()`` per access, ``choice`` only when exploring),
        and rewards land in :meth:`process`'s order, so the prefetch
        file, Q rows, evaluation queue and RNG state match it exactly.
        ``row0[a] + row1[a]`` equals :meth:`_q_values`'s ``sum()``
        bitwise because no stored Q-value is ever -0.0: rows start at
        +0.0, and a float sum is -0.0 only when both operands are.
        """
        cfg = self.config
        actions = cfg.actions
        n_actions = len(actions)
        positions = range(n_actions)
        degree = cfg.degree
        epsilon = cfg.epsilon
        alpha = cfg.alpha
        gamma = cfg.gamma
        eq_size = cfg.eq_size
        reward_accurate = cfg.reward_accurate
        reward_inaccurate = cfg.reward_inaccurate
        reward_no_prefetch = cfg.reward_no_prefetch
        random = self._rng.random
        choice = self._rng.choice
        vaults = self._vaults
        n_vaults = len(vaults)
        two = n_vaults == 2
        vault0 = vaults[0]
        vault1 = vaults[1] if two else {}
        get0 = vault0.get
        get1 = vault1.get
        zero = self._zero_row
        eq = self._eq
        eq_append = eq.append
        eq_popleft = eq.popleft
        by_block = self._eq_by_block
        by_block_pop = by_block.pop
        by_block_new = by_block.setdefault
        last_offset = self._last_offset
        last_delta = self._last_delta
        prev_delta = self._prev_delta
        offset_get = last_offset.get
        last_get = last_delta.get
        prev_get = prev_delta.get

        rewarded = 0

        def learn(state, action, reward, bootstrap):
            """:meth:`_update`, the next state's term already computed."""
            nonlocal rewarded
            rewarded += 1
            f0 = state[0]
            row0 = get0(f0)
            if row0 is None:
                row0 = vault0[f0] = [0.0] * n_actions
            if two:
                f1 = state[1]
                row1 = get1(f1)
                if row1 is None:
                    row1 = vault1[f1] = [0.0] * n_actions
                old = row0[action] + row1[action]
            else:
                old = row0[action]
            step = alpha * (reward + bootstrap - old) / n_vaults
            row0[action] += step
            if two:
                row1[action] += step

        arr = np.asarray(addresses)
        blocks = arr >> BLOCK_BITS
        pages_l = (arr >> PAGE_BITS).tolist()
        offsets_l = (blocks & (BLOCKS_PER_PAGE - 1)).tolist()
        blocks_l = blocks.tolist()
        pc_keys = ((np.asarray(pcs) & 0xFFF) << 7).tolist()
        results: List[List[int]] = []
        append = results.append
        for page, offset, block, pc_key in zip(pages_l, offsets_l,
                                               blocks_l, pc_keys):
            previous = offset_get(page)
            last_offset[page] = offset
            last = last_get(page, 0)
            prev = prev_get(page, 0)
            if previous is None or offset == previous:
                delta = last
            else:
                delta = offset - previous
                prev_delta[page] = last
                last_delta[page] = delta
            f0 = pc_key ^ (delta & 0x7F)
            if two:
                f1 = ((delta & 0x7F) << 7) ^ (prev & 0x7F)
                state = (f0, f1)
            else:
                state = (f0,)

            hits = by_block_pop(block, None)
            if hits is not None:
                for entry in hits:
                    entry.resolved = True
                    if two:
                        best = max(map(add, get0(f0, zero), get1(f1, zero)))
                    else:
                        best = max(get0(f0, zero))
                    learn(entry.state, entry.action, reward_accurate,
                          gamma * best)

            if random() < epsilon:
                chosen = choice(n_actions, size=degree,
                                replace=False).tolist()
            else:
                q = get0(f0, zero)
                if two:
                    q = list(map(add, q, get1(f1, zero)))
                chosen = sorted(positions, key=q.__getitem__,
                                reverse=True)[:degree]

            addrs: List[int] = []
            for action in chosen:
                target = actions[action]
                if target == 0:
                    learn(state, action, reward_no_prefetch, 0.0)
                    continue
                target += offset
                if not 0 <= target < BLOCKS_PER_PAGE:
                    continue
                address = (page << PAGE_BITS) | (target << BLOCK_BITS)
                entry = _EQEntry(state, action, address >> BLOCK_BITS)
                eq_append(entry)
                by_block_new(entry.block, []).append(entry)
                while len(eq) > eq_size:
                    evicted = eq_popleft()
                    if evicted.resolved:
                        continue
                    bucket = by_block[evicted.block]
                    bucket.remove(evicted)
                    if not bucket:
                        del by_block[evicted.block]
                    learn(evicted.state, evicted.action,
                          reward_inaccurate, 0.0)
                addrs.append(address)
            append(addrs)
        self.rewards_assigned += rewarded
        return results

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.config.seed)
        for vault in self._vaults:
            vault.clear()
        self._eq.clear()
        self._eq_by_block.clear()
        self._last_offset.clear()
        self._last_delta.clear()
        self._prev_delta.clear()
        self.rewards_assigned = 0
