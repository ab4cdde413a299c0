"""The PATHFINDER prefetcher (paper §3).

Per demand load, PATHFINDER:

1. looks up the (pc, page) stream in the Training Table and computes
   the new within-page delta;
2. reconciles the previously fired neuron's labels against that delta
   in the Inference Table (label learning + confidence update, §3.3);
3. encodes the updated delta history as a Memory Access Pixel Matrix
   and queries the SNN (full multi-tick interval or the 1-tick
   approximation), with STDP learning continuously on — or gated by
   the periodic-STDP policy of Figure 8;
4. records the firing neuron in the Training Table for the next
   reconciliation;
5. issues up to ``degree`` prefetches from the firing neurons' labels
   whose confidence clears the threshold.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..prefetchers.base import Prefetcher, Rows
from ..snn.ckernel import (PathfinderArgs, index_slots, load_kernel,
                           pointer, scratch)
from ..snn.network import DiehlCookNetwork, NetworkConfig, RunRecord
from ..snn.neurons import LIFConfig
from ..snn.stdp import STDPConfig
from ..types import (
    BLOCK_BITS,
    BLOCKS_PER_PAGE,
    PAGE_BITS,
    MemoryAccess,
)
from .config import PathfinderConfig
from .inference_table import InferenceTable
from .pixel import PixelMatrixEncoder, SparseEncoding
from .training_table import NO_NEURON, TrainingTable

#: Scalar state the compiled loop reads and advances, as (``PathfinderArgs``
#: field, owner, attribute); owner ``None`` is the prefetcher itself.
_LOOP_COUNTERS = (
    ("tt_rows", "training_table", "rows"),
    ("tt_clock", "training_table", "clock"),
    ("tt_evictions", "training_table", "evictions"),
    ("labels_assigned", "inference_table", "labels_assigned"),
    ("labels_erased", "inference_table", "labels_erased"),
    ("correct_observations", "inference_table", "correct_observations"),
    ("wrong_observations", "inference_table", "wrong_observations"),
    ("accesses_seen", None, "accesses_seen"),
    ("snn_queries", None, "snn_queries"),
    ("stdp_updates", None, "stdp_updates"),
    ("prefetches_emitted", None, "prefetches_emitted"),
    ("pred_checked", None, "pred_checked"),
    ("pred_correct", None, "pred_correct"),
    ("intervals", "network", "intervals_presented"),
)


class PathfinderPrefetcher(Prefetcher):
    """SNN/STDP online-learning delta prefetcher."""

    name = "pathfinder"

    def __init__(self, config: Optional[PathfinderConfig] = None):
        self.config = config or PathfinderConfig()
        self.encoder = PixelMatrixEncoder(self.config)
        self.network = self._build_network()
        self.training_table = self._build_training_table()
        self.inference_table = InferenceTable(
            n_neurons=self.config.n_neurons,
            labels_per_neuron=self.config.labels_per_neuron,
            confidence_max=self.config.confidence_max,
            confidence_init=self.config.confidence_init,
            require_confirmation=self.config.require_confirmation)
        self.accesses_seen = 0
        self.snn_queries = 0
        self.stdp_updates = 0
        self.prefetches_emitted = 0
        # Accesses whose stream had a prediction outstanding, and those
        # whose delta it named (the series' prediction accuracy).
        self.pred_checked = 0
        self.pred_correct = 0
        # Neurons reinitialised by the SNN's weight-health check; their
        # inference-table labels are erased alongside (resilience).
        self.neuron_repairs = 0
        # Table 1 instrumentation (full-interval mode only): how often
        # the highest-potential neuron after the first tick matches the
        # interval's most-firing neuron.
        self.first_tick_matches = 0
        self.first_tick_total = 0
        # Multi-tick only: spikes in an interval -> intervals with that
        # many (a one-tick query fires exactly its winner).
        self._spike_totals: Dict[int, int] = {}
        self._obs = None
        # Armed by series_arm() (``--series``): the winner tally and the
        # weight/theta snapshots behind the series gauges.
        self._series_armed = False
        self._series_winner_counts: Dict[int, int] = {}
        self._series_prev_weights: Optional[np.ndarray] = None
        self._series_prev_theta: Optional[np.ndarray] = None

    def _build_network(self) -> DiehlCookNetwork:
        cfg = self.config
        net_cfg = NetworkConfig(
            n_input=cfg.n_input,
            n_neurons=cfg.n_neurons,
            timesteps=cfg.timesteps,
            inhibition_scale=cfg.inhibition_scale,
            init_density=cfg.init_density,
            seed=cfg.seed)
        stdp = STDPConfig(
            nu_post=cfg.nu_post,
            x_target=cfg.x_target,
            w_max=cfg.w_max,
            norm=cfg.norm)
        lif = LIFConfig(
            theta_plus=cfg.theta_plus,
            theta_max=cfg.theta_max,
            tc_theta_decay=cfg.tc_theta_decay)
        return DiehlCookNetwork(net_cfg, stdp=stdp, exc_lif=lif)

    def _build_training_table(self) -> TrainingTable:
        cfg = self.config
        return TrainingTable(capacity=cfg.training_table_size,
                             history=cfg.history, degree=cfg.degree)

    # -- observability -------------------------------------------------------

    def attach_observability(self, obs) -> None:
        """Publish SNN telemetry into ``obs`` when it is enabled.

        Nothing is recorded per query: :meth:`publish_telemetry` reads
        the counters that :meth:`process` and the compiled loop keep
        anyway, so observing a run never changes which loop runs it.
        """
        self._obs = obs if obs is not None and obs.enabled else None

    @property
    def weight_saturation(self) -> float:
        """Fraction of plastic weights within 1% of ``w_max``."""
        w = self.network.weights
        if w.size == 0:
            return 0.0
        return float(np.mean(w >= 0.99 * self.config.w_max))

    def publish_telemetry(self) -> None:
        """Summarise the run's SNN counters into the metrics registry.

        Each query is one interval.  A one-tick query fires exactly its
        winner; multi-tick intervals are tallied by spike total.
        """
        if self._obs is None:
            return
        scope = self._obs.registry.scope(component="snn",
                                         prefetcher=self.name)
        scope.counter("snn.queries").inc(self.snn_queries)
        scope.counter("snn.stdp_updates").inc(self.stdp_updates)
        spikes_per_interval = scope.histogram(
            "snn.spikes_per_interval",
            bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128))
        spike_totals = self._spike_totals
        if self.config.one_tick:
            spike_totals = {1: self.snn_queries}
        total_spikes = 0
        for spikes, intervals in spike_totals.items():
            for _ in range(intervals):
                spikes_per_interval.observe(spikes)
            total_spikes += spikes * intervals
        scope.counter("snn.spikes").inc(total_spikes)
        saturation = self.weight_saturation
        # One sample per run, so a multi-cell run keeps every cell's.
        scope.histogram(
            "snn.weight_saturation",
            bounds=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        ).observe(saturation)
        if self.neuron_repairs:
            scope.counter("snn.neuron_repairs").inc(self.neuron_repairs)
            self._obs.tracer.emit(
                "snn.neuron_repaired", prefetcher=self.name,
                repairs=self.neuron_repairs)
        self._obs.tracer.emit(
            "snn.summary", prefetcher=self.name, queries=self.snn_queries,
            stdp_updates=self.stdp_updates, spikes=total_spikes,
            weight_saturation=saturation)

    def series_arm(self) -> None:
        """Start windowed learning-dynamics bookkeeping (``--series``).

        Captures baseline weight/theta snapshots so the first window's
        drift norms measure change from the initial model, and resets
        the per-window winner tally.
        """
        self._series_armed = True
        self._series_winner_counts = {}
        self._series_prev_weights = self.network.weights.copy()
        self._series_prev_theta = self.network.exc.theta.copy()

    def series_sample(self, cumulative, gauges) -> None:
        """Contribute PATHFINDER's windowed series at a boundary.

        Cumulative counters (diffed into per-window sums by the
        recorder): prediction checks/hits, SNN queries and STDP
        updates, table eviction/label churn.  Gauges: weight/theta
        drift L2 norms since the previous boundary, the window's
        winner-selection entropy (bits), and table occupancies.
        """
        if not self._series_armed:
            return
        cumulative["gen.pred_checked"] = self.pred_checked
        cumulative["gen.pred_correct"] = self.pred_correct
        cumulative["snn.queries"] = self.snn_queries
        cumulative["snn.stdp_updates"] = self.stdp_updates
        cumulative["table.training_evictions"] = self.training_table.evictions
        it = self.inference_table
        cumulative["table.labels_assigned"] = it.labels_assigned
        cumulative["table.labels_erased"] = it.labels_erased
        w = self.network.weights
        gauges["snn.weight_drift"] = float(
            np.linalg.norm(w - self._series_prev_weights))
        self._series_prev_weights = w.copy()
        theta = self.network.exc.theta
        gauges["snn.theta_drift"] = float(
            np.linalg.norm(theta - self._series_prev_theta))
        self._series_prev_theta = theta.copy()
        counts = self._series_winner_counts
        total = sum(counts.values())
        entropy = 0.0
        if total:
            for count in counts.values():
                p = count / total
                entropy -= p * math.log2(p)
            counts.clear()
        gauges["snn.winner_entropy"] = entropy
        gauges["table.training_occupancy"] = float(
            len(self.training_table))
        gauges["table.inference_occupancy"] = float(it.occupancy())

    # -- periodic STDP gating (paper Figure 8) ------------------------------

    def _learning_enabled(self) -> bool:
        epoch = self.config.stdp_epoch
        if epoch is None:
            return True
        return (self.accesses_seen % epoch) < self.config.stdp_on_accesses

    # -- main per-access step ------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        self.accesses_seen += 1
        address = access.address
        page = address >> PAGE_BITS
        offset = (address >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1)

        tt = self.training_table
        row = tt.lookup(access.pc, page)
        if row < 0:
            row = tt.insert(access.pc, page, offset)
            return self._query_and_predict(row, page, offset,
                                           first_offset=offset)

        delta = offset - int(tt.last_offset[row])
        tt.last_offset[row] = offset
        if delta == 0:
            # Repeat access to the same block: nothing to learn or do.
            return []

        bound = self.config.max_delta
        in_range = -bound <= delta <= bound
        fired = int(tt.fired[row])
        if fired != NO_NEURON and in_range:
            if tt.n_predicted[row]:
                self.pred_checked += 1
                if delta in tt.row_predicted(row):
                    self.pred_correct += 1
            self.inference_table.observe(fired, delta)
        tt.record_delta(row, delta, in_range)
        if not in_range:
            return []
        return self._query_and_predict(row, page, offset)

    def _query_and_predict(self, row: int, page: int, offset: int,
                           first_offset: Optional[int] = None) -> List[int]:
        tt = self.training_table
        encoding = self.encoder.encode_history(
            tt.row_deltas(row), first_offset=first_offset)
        if encoding is None:
            tt.fired[row] = NO_NEURON
            return []
        record = self._run_network(encoding, self._learning_enabled())
        self.snn_queries += 1
        if record.winner is None:
            tt.fired[row] = NO_NEURON
            return []
        return self._predict(row, record.winners(self.config.degree),
                             page, offset)

    def _predict(self, row: int, neurons: Sequence[int], page: int,
                 offset: int) -> List[int]:
        """Record the winner ``neurons[0]`` as the row's fired neuron,
        issue up to ``degree`` labels of the firing ``neurons`` whose
        confidence clears the threshold, and compose their in-page
        prefetch addresses."""
        cfg = self.config
        self.training_table.fired[row] = neurons[0]
        if self._series_armed:
            counts = self._series_winner_counts
            counts[neurons[0]] = counts.get(neurons[0], 0) + 1

        degree = cfg.degree
        predict = self.inference_table.predict
        predictions: List[int] = []
        for neuron in neurons:
            for label in predict(
                    neuron, min_confidence=cfg.confidence_threshold):
                if label not in predictions:
                    predictions.append(label)
                if len(predictions) >= degree:
                    break
            if len(predictions) >= degree:
                break
        self.training_table.set_predicted(row, predictions)

        addresses: List[int] = []
        page_base = page << PAGE_BITS
        for label in predictions:
            target = offset + label
            if 0 <= target < BLOCKS_PER_PAGE:
                # compose_address(page, target), bounds check already done.
                addresses.append(page_base | (target << BLOCK_BITS))
        self.prefetches_emitted += len(addresses)
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process` over a trace chunk.

        One call into the compiled PATHFINDER loop
        (:mod:`repro.snn.ckernel`) runs :meth:`process`'s step access
        by access — Training-Table lookup, insert and LRU eviction,
        observe, encode, the one-tick SNN step with STDP, predict, and
        address composition — on the same array-backed tables, encoder
        table and SNN arrays that :meth:`process` uses, so results are
        bit-identical and either path can take over from the other
        mid-trace (docs/architecture.md, "Batched columnar pipeline").
        Its ``degree``-wide output rows become :class:`Rows` by one mask.

        :meth:`process` runs instead whenever the loop cannot: no
        compiled kernel (no C compiler, or ``REPRO_NO_CKERNEL=1``), the
        multi-tick SNN, or an armed fault plan (the per-query fault
        hooks must fire).  Observability never chooses the loop: the
        telemetry reads counters both loops keep.  A due health scan
        that finds non-finite state stops the loop after that access's
        SNN step; the repair and the access's prediction run here, then
        the loop resumes.
        """
        from ..resilience import faults

        kernel = None
        if self.config.one_tick and faults.ACTIVE is None:
            kernel = load_kernel()
        if kernel is None:
            return Prefetcher.process_batch(self, addresses, pcs, instr_ids)

        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        n = len(addresses)
        if len(pcs) != n:
            raise ValueError(f"{len(pcs)} pcs for {n} addresses")
        counts = np.zeros(n, dtype=np.int64)
        targets = np.empty((n, self.config.degree), dtype=np.int64)
        winners = np.full(n, NO_NEURON, dtype=np.int64)
        start = 0
        while start < n:
            stop, stop_row = self._run_loop(kernel, addresses, pcs, start,
                                            counts, targets, winners)
            if self._series_armed:
                self._count_winners(winners[start:stop])
            if stop == n:
                break
            # The health scan after access ``stop``'s query found
            # non-finite state: repair, then make its prediction.
            self.network.check_weight_health()
            self._drain_repairs()
            address = int(addresses[stop])
            predicted = self._predict(
                stop_row, [int(winners[stop])],
                address >> PAGE_BITS,
                (address >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1))
            counts[stop] = len(predicted)
            targets[stop, :len(predicted)] = predicted
            start = stop + 1
        return Rows.from_padded(counts, targets)

    def _run_loop(self, kernel, addresses, pcs, start, counts, targets,
                  winners) -> Tuple[int, int]:
        """One compiled-loop call from access ``start``, with the
        scalar counters synced in and out around it.  Returns where the
        loop stopped and, if that is short of the chunk's end, the
        Training-Table row of the access it stopped at."""
        cfg = self.config
        tt = self.training_table
        it = self.inference_table
        encoder = self.encoder
        # The loop's scratch: the (pc, page) -> row hash index, the LRU
        # links, the active pixels and the label ranking.
        index_size = index_slots(tt.capacity)
        index, lru_prev, lru_next, active, rank = scratch(
            index_size, tt.capacity, tt.capacity, cfg.n_input,
            cfg.labels_per_neuron)
        args = PathfinderArgs(
            tt_pc=pointer(tt.pc), tt_page=pointer(tt.page),
            tt_last_offset=pointer(tt.last_offset),
            tt_deltas=pointer(tt.deltas), tt_n_deltas=pointer(tt.n_deltas),
            tt_fired=pointer(tt.fired), tt_predicted=pointer(tt.predicted),
            tt_n_predicted=pointer(tt.n_predicted),
            tt_stamp=pointer(tt.stamp),
            it_label=pointer(it.slot_label),
            it_confidence=pointer(it.slot_confidence),
            it_count=pointer(it.slot_count), it_pending=pointer(it.pending),
            lit_starts=pointer(encoder.lit_starts),
            lit_flat=pointer(encoder.lit_flat),
            index=pointer(index), lru_prev=pointer(lru_prev),
            lru_next=pointer(lru_next), active=pointer(active),
            rank=pointer(rank),
            index_size=index_size, capacity=tt.capacity,
            history=tt.history, degree=cfg.degree,
            width=cfg.delta_range, max_delta=cfg.max_delta,
            labels_per_neuron=it.labels_per_neuron,
            confidence_max=it.confidence_max,
            confidence_init=it.confidence_init,
            confidence_threshold=cfg.confidence_threshold,
            require_confirmation=int(it.require_confirmation),
            cold_pages=int(cfg.cold_page_encoding),
            stdp_epoch=cfg.stdp_epoch or 0,
            stdp_on_accesses=cfg.stdp_on_accesses)
        owners = {None: self, "training_table": tt, "inference_table": it,
                  "network": self.network}
        for field, owner, attr in _LOOP_COUNTERS:
            setattr(args, field, getattr(owners[owner], attr))
        updates = self.stdp_updates
        stop = kernel.pathfinder_chunk(self.network.kernel_args(), args,
                                       addresses, pcs, start, counts,
                                       targets, winners)
        for field, owner, attr in _LOOP_COUNTERS:
            setattr(owners[owner], attr, getattr(args, field))
        if self.stdp_updates != updates:
            self.network.exc.adaptation_enabled = True
        return stop, args.stop_row

    def _count_winners(self, winners: np.ndarray) -> None:
        counts = self._series_winner_counts
        for winner in winners.tolist():
            if winner != NO_NEURON:
                counts[winner] = counts.get(winner, 0) + 1

    def _drain_repairs(self) -> None:
        """Propagate SNN weight repairs into the inference table.

        A repaired neuron is a brand-new model: its labels were learned
        by weights that no longer exist, so they are erased rather than
        left to mispredict until confidence drains.
        """
        for neuron in self.network.drain_repaired_neurons():
            self.inference_table.reset_neuron(neuron)
            self.neuron_repairs += 1

    def _run_network(self, encoding: SparseEncoding,
                     learn: bool) -> RunRecord:
        if learn:
            self.stdp_updates += 1
        if self.config.one_tick:
            record = self.network.present_one_tick(encoding.active,
                                                   learn=learn)
            self._drain_repairs()
            return record
        record = self.network.present(encoding.rates, learn=learn)
        self._drain_repairs()
        spikes = int(record.spike_counts.sum())
        self._spike_totals[spikes] = self._spike_totals.get(spikes, 0) + 1
        if record.winner is not None:
            # Table 1 statistic: would the 1-tick rule (highest potential
            # after the first tick, normalised by each neuron's effective
            # threshold distance) have picked the interval's winner?
            self.first_tick_total += 1
            exc = self.network.exc
            rise = record.potentials_first_tick - exc.config.rest
            gap = exc.config.threshold_gap + exc.theta
            first_tick_winner = int(np.argmax(rise / np.maximum(gap, 1e-9)))
            # Count a match when the tick-1 leader is any of the
            # interval's most-firing neurons (co-specialised neurons
            # legitimately tie on spike counts).
            best_count = record.spike_counts.max()
            if record.spike_counts[first_tick_winner] == best_count:
                self.first_tick_matches += 1
        return record

    def reset(self) -> None:
        """Clear all run-time state, re-seeding the SNN identically."""
        self.network = self._build_network()
        self.training_table = self._build_training_table()
        self.inference_table.reset()
        self.accesses_seen = 0
        self.snn_queries = 0
        self.stdp_updates = 0
        self.prefetches_emitted = 0
        self.pred_checked = 0
        self.pred_correct = 0
        self.neuron_repairs = 0
        self.first_tick_matches = 0
        self.first_tick_total = 0
        self._spike_totals = {}
        self._series_armed = False
        self._series_winner_counts = {}
        self._series_prev_weights = None
        self._series_prev_theta = None
