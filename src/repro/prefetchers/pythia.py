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
state's action values are its rows summed element-wise.  The vaults
and the per-page history are :class:`KeyedRows` stores, and the
evaluation queue is a ring of flat arrays.
:meth:`PythiaPrefetcher.process` and the compiled Pythia loop
(:mod:`repro.snn.ckernel`) share them, so either can take over from
the other mid-trace.

The implementation reproduces the behavioural signature the paper
reports for Pythia at the LLC: it is *aggressive* (issues on nearly
every access — highest issue counts in Table 6), its epsilon-greedy
exploration wastes some bandwidth on hard-to-predict patterns, and it
can settle into a local minimum such as always-delta-1 on xalan.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..snn.ckernel import (KeyedArgs, PythiaArgs, index_slots, load_kernel,
                           pointer, scratch)
from ..types import BLOCK_BITS, BLOCKS_PER_PAGE, MemoryAccess, compose_address
from .base import Prefetcher, Rows

#: Largest evaluation queue (256 times the default): the ring is
#: allocated up front.
MAX_EQ_SIZE = 65536

#: Longest action list.  The compiled exploration draws follow NumPy's
#: ``choice(..., replace=False)`` for populations of at most this many.
MAX_ACTIONS = 10_000


def _default_actions() -> Tuple[int, ...]:
    """Pythia's delta action list (positive and negative deltas + none)."""
    return (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 8, -8, 16, -16, 32)


@dataclass(frozen=True)
class PythiaConfig:
    """RL hyper-parameters and structure sizes.

    Attributes:
        actions: Candidate prefetch deltas; 0 = no prefetch.  Distinct,
            since a Q row holds one value per position, and at most
            :data:`MAX_ACTIONS` of them.
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
            Rewards must be finite: a NaN spreads to every Q row.
        eq_size: Evaluation-queue capacity (at most :data:`MAX_EQ_SIZE`).
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
        if len(self.actions) > MAX_ACTIONS:
            raise ConfigError(f"{len(self.actions)} actions; at most "
                              f"{MAX_ACTIONS}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if not all(map(math.isfinite, (self.reward_accurate,
                                       self.reward_inaccurate,
                                       self.reward_no_prefetch))):
            raise ConfigError("rewards must be finite")
        if self.degree < 1 or not 1 <= self.eq_size <= MAX_EQ_SIZE:
            raise ConfigError(
                f"degree must be >= 1 and eq_size in [1, {MAX_EQ_SIZE}]")
        if self.degree > len(self.actions):
            raise ConfigError(
                f"degree {self.degree} exceeds the {len(self.actions)} "
                f"actions exploration samples from")


#: Fibonacci hashing: a key's home slot among ``2**bits`` is the top
#: ``bits`` bits of ``key * _HASH`` modulo 2**64.
_HASH = 0x9E3779B97F4A7C15
#: Rows a :class:`KeyedRows` store starts with; it doubles when full.
_INITIAL_ROWS = 256


class KeyedRows(Mapping):
    """Append-only rows keyed by integers, behind a hash index.

    Row ``r`` of :attr:`rows` belongs to ``keys[r]`` for ``r < n``.
    :attr:`index` has ``2**bits`` slots, twice the capacity, each a row
    or -1; a key probes linearly from its home slot.  The compiled
    Pythia loop probes and extends the same arrays.  As a mapping, a
    key reads as a view of its row.
    """

    def __init__(self, width: int, dtype):
        self.n = 0
        self.keys = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.rows = np.zeros((_INITIAL_ROWS, width), dtype=dtype)
        self._reindex()

    def find(self, key: int, add: bool = False) -> int:
        """``key``'s row; if absent, -1, or with ``add`` a new zero row."""
        if add and self.n == len(self.keys):
            self.reserve(1)
        index, mask = self.index, len(self.index) - 1
        slot = ((int(key) * _HASH) % 2 ** 64) >> (64 - self.bits)
        row = int(index[slot])
        while row >= 0 and self.keys[row] != key:
            slot = (slot + 1) & mask
            row = int(index[slot])
        if row < 0 and add:
            row = index[slot] = self.n
            self.keys[row] = key
            self.n += 1
        return row

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more rows, doubling as often as needed."""
        capacity = len(self.keys)
        while self.n + rows > capacity:
            capacity *= 2
        if capacity > len(self.keys):
            grow = capacity - len(self.keys)
            self.keys = np.pad(self.keys, (0, grow))
            self.rows = np.pad(self.rows, ((0, grow), (0, 0)))
            self._reindex()

    def _reindex(self) -> None:
        """Index rows ``[0, n)`` as inserting them in home-slot order
        would: each key takes its home slot or the one after the
        previous key's, whichever is later.  Slots count from just past
        the one where the running total of (keys homed there - 1) is
        lowest; no probe run crosses that boundary, so none wraps."""
        self.bits = (2 * len(self.keys) - 1).bit_length()
        size = 1 << self.bits
        homes = ((self.keys[:self.n].view(np.uint64) * np.uint64(_HASH))
                 >> np.uint64(64 - self.bits)).astype(np.int64)
        start = 1 + int(np.argmin(np.cumsum(
            np.bincount(homes, minlength=size) - 1)))
        homes = (homes - start) % size
        rows = np.argsort(homes)
        rank = np.arange(self.n)
        slots = np.maximum.accumulate(homes[rows] - rank) + rank
        self.index = np.full(size, -1, dtype=np.int64)
        self.index[(slots + start) % size] = rows

    def kernel_args(self) -> KeyedArgs:
        """This store as the compiled loop's ``pf_keyed``."""
        return KeyedArgs(keys=pointer(self.keys), rows=pointer(self.rows),
                         index=pointer(self.index), n=self.n,
                         capacity=len(self.keys), bits=self.bits)

    def __getitem__(self, key: int) -> np.ndarray:
        row = self.find(key)
        if row < 0:
            raise KeyError(key)
        return self.rows[row]

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys[:self.n].tolist())

    def __len__(self) -> int:
        return self.n


#: Columns of the per-page history rows.
LAST_OFFSET, LAST_DELTA, PREV_DELTA = range(3)


class PythiaPrefetcher(Prefetcher):
    """Tabular SARSA delta prefetcher with an evaluation queue."""

    name = "pythia"

    def __init__(self, config: Optional[PythiaConfig] = None):
        self.config = config or PythiaConfig()
        self._actions = np.asarray(self.config.actions, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        # One Q-table ("vault") per program feature, mapping a hashed
        # feature to its Q row; action values are the rows summed
        # across vaults, exactly as Pythia's QVStore does.  Rows are
        # created on first update; an unseen feature reads as zeros.
        n_vaults = 2 if cfg.use_delta_sequence_vault else 1
        self._vaults = [KeyedRows(len(cfg.actions), np.float64)
                        for _ in range(n_vaults)]
        # page -> (last offset, last and previous nonzero delta)
        self._pages = KeyedRows(3, np.int64)
        # The evaluation queue: a ring of issued prefetches, each with
        # its state's features, action position, block and a pending
        # flag (1 until a demand or its eviction rewards it).  Slot
        # _eq_tail takes the next entry, evicting a full ring's oldest;
        # empty slots have action -1.
        self._eq_features = np.zeros((cfg.eq_size, n_vaults), dtype=np.int64)
        self._eq_action = np.full(cfg.eq_size, -1, dtype=np.int64)
        self._eq_block = np.zeros(cfg.eq_size, dtype=np.int64)
        self._eq_pending = np.zeros(cfg.eq_size, dtype=np.int64)
        self._eq_tail = 0
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
        """Every action's Q-value in ``state``: its rows added onto
        zeros, vault by vault."""
        q = np.zeros(len(self.config.actions))
        for vault, feature in zip(self._vaults, state):
            row = vault.find(feature)
            if row >= 0:
                q += vault.rows[row]
        return q.tolist()

    def _update(self, state: Tuple[int, ...], action: int, reward: float,
                next_state: Optional[Tuple[int, ...]]) -> None:
        cfg = self.config
        old = self._q_values(state)[action]
        bootstrap = (cfg.gamma * max(self._q_values(next_state))
                     if next_state is not None else 0.0)
        step = cfg.alpha * (reward + bootstrap - old) / len(self._vaults)
        for vault, feature in zip(self._vaults, state):
            row = vault.find(feature, add=True)
            vault.rows[row, action] += step
        self.rewards_assigned += 1

    # -- evaluation queue ---------------------------------------------------

    def _reward_entry(self, slot: int, reward: float,
                      next_state: Optional[Tuple[int, ...]]) -> None:
        self._eq_pending[slot] = 0
        self._update(tuple(self._eq_features[slot].tolist()),
                     int(self._eq_action[slot]), reward, next_state)

    def _enqueue(self, state: Tuple[int, ...], action: int,
                 block: int) -> None:
        slot = self._eq_tail
        if self._eq_pending[slot]:
            # The ring is full and its oldest prefetch went undemanded.
            self._reward_entry(slot, self.config.reward_inaccurate, None)
        self._eq_features[slot] = state
        self._eq_action[slot] = action
        self._eq_block[slot] = block
        self._eq_pending[slot] = 1
        self._eq_tail = (slot + 1) % self.config.eq_size

    def _resolve_hits(self, block: int,
                      next_state: Tuple[int, ...]) -> None:
        hits = np.flatnonzero((self._eq_block == block)
                              & (self._eq_pending != 0))
        # Oldest first: the ring runs from the tail slot round to it.
        size = self.config.eq_size
        for slot in sorted(hits.tolist(),
                           key=lambda slot: (slot - self._eq_tail) % size):
            self._reward_entry(slot, self.config.reward_accurate, next_state)

    # -- per-access -----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        page, offset = access.page, access.offset
        pages = self._pages
        row = pages.find(page)
        if row < 0:
            row, delta = pages.find(page, add=True), 0
        else:
            delta = offset - int(pages.rows[row, LAST_OFFSET])
        history = pages.rows[row]
        last_delta = int(history[LAST_DELTA])
        prev_delta = int(history[PREV_DELTA])
        history[LAST_OFFSET] = offset
        if delta != 0:
            history[PREV_DELTA] = last_delta
            history[LAST_DELTA] = delta

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
            self._enqueue(state, action, address >> BLOCK_BITS)
            addresses.append(address)
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process` over a trace chunk.

        The chunk's exploration is drawn first, in program order, by one
        compiled call on the generator's own bit generator: one
        ``random()`` per access and ``choice`` only when it falls under
        epsilon, each as NumPy draws it.  No draw depends on the trace,
        so this is the stream :meth:`process` draws.  Then the compiled
        Pythia loop (:mod:`repro.snn.ckernel`) runs :meth:`process`'s
        step access by access on the same arrays, with the same
        floating-point operations in the same order, so results are
        bit-identical and either path can take over from the other
        mid-trace.  Before an access that could outgrow a store the loop
        stops; the store grows here and the loop resumes.  Its
        ``degree``-wide output rows become :class:`Rows` by one mask.
        :meth:`process` runs instead when there is no compiled kernel
        (no C compiler, or ``REPRO_NO_CKERNEL=1``).
        """
        kernel = load_kernel()
        if kernel is None:
            return Prefetcher.process_batch(self, addresses, pcs, instr_ids)
        cfg = self.config
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        n, degree = len(addresses), cfg.degree
        if len(pcs) != n:
            raise ValueError(f"{len(pcs)} pcs for {n} addresses")
        # Row i: access i's explored actions, or -1s for a greedy pick.
        explored = np.empty((n, degree), dtype=np.int64)
        kernel.pythia_explore(self._rng, cfg.epsilon, len(cfg.actions),
                              explored)
        counts = np.zeros(n, dtype=np.int64)
        targets = np.empty((n, degree), dtype=np.int64)
        start = 0
        while start < n:
            # An access adds at most one page and, per vault, a row for
            # each hit, each eviction and the no-prefetch action.
            self._pages.reserve(1)
            for vault in self._vaults:
                vault.reserve(cfg.eq_size + 2 * degree)
            start = self._run_loop(kernel, addresses, pcs, explored, start,
                                   counts, targets)
        return Rows.from_padded(counts, targets)

    def _run_loop(self, kernel, addresses, pcs, explored, start, counts,
                  targets) -> int:
        """One compiled-loop call from access ``start``, with the row
        counts, the ring's tail and the reward count synced in and out
        around it.  Returns where the loop stopped."""
        cfg = self.config
        q = np.empty(len(cfg.actions))
        chosen = np.empty(cfg.degree, dtype=np.int64)
        # The loop's pending slots by block: a hash index and the FIFO
        # links.
        index_size = index_slots(cfg.eq_size)
        index, eq_next, eq_last = scratch(index_size, cfg.eq_size,
                                          cfg.eq_size)
        args = PythiaArgs(
            pages=self._pages.kernel_args(),
            vaults=(KeyedArgs * 2)(*(v.kernel_args() for v in self._vaults)),
            eq_features=pointer(self._eq_features),
            eq_action=pointer(self._eq_action),
            eq_block=pointer(self._eq_block),
            eq_pending=pointer(self._eq_pending),
            actions=pointer(self._actions), q=pointer(q),
            chosen=pointer(chosen), eq_index=pointer(index),
            eq_next=pointer(eq_next), eq_last=pointer(eq_last),
            eq_index_size=index_size, n_actions=len(cfg.actions),
            n_vaults=len(self._vaults), eq_tail=self._eq_tail,
            rewards=self.rewards_assigned,
            **{name: getattr(cfg, name) for name in (
                "degree", "eq_size", "alpha", "gamma", "reward_accurate",
                "reward_inaccurate", "reward_no_prefetch")})
        stop = kernel.pythia_chunk(args, addresses, pcs, explored, start,
                                   counts, targets)
        self._pages.n = args.pages.n
        for vault, synced in zip(self._vaults, args.vaults):
            vault.n = synced.n
        self._eq_tail, self.rewards_assigned = args.eq_tail, args.rewards
        return stop
