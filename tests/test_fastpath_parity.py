"""Fast-path vs reference parity for the sparse SNN/encoder hot paths.

The optimised implementations (table-driven encoding, active-pixel
drive, winner-column STDP, sparse Poisson sampling) each retain their
dense reference twin; these tests assert the two agree — same
encodings, same winners, same learned state, and, end to end, the same
prefetch file — across the Figure-9 config toggles and random inputs.
The batched-driver section extends the contract to every
``process_batch`` override; the frozen neural models get the one
BLAS-backed tier (identical files and state, logits within a bound).
"""

import copy
import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.core.pixel import PixelMatrixEncoder
from repro.prefetchers import (PythiaConfig, PythiaPrefetcher, SPPConfig,
                               SPPPrefetcher, VoyagerPrefetcher,
                               generate_prefetches)
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.traces import make_trace
from tests.helpers import (build_accesses, pathfinder_state, pythia_state,
                           spp_state)

#: The §3.4 refinement toggles the ablation ladder sweeps.
ENCODER_VARIANTS = [
    dict(enlarge_pixels=False, reorder_pixels=False),
    dict(enlarge_pixels=True, reorder_pixels=False),
    dict(enlarge_pixels=True, reorder_pixels=True),
    dict(enlarge_pixels=True, reorder_pixels=True, middle_shift=3),
    dict(enlarge_pixels=True, reorder_pixels=False, delta_range=31,
         history=5),
]


def _random_histories(config, rng, n):
    bound = config.max_delta
    return [list(rng.integers(-bound, bound + 1, size=config.history))
            for _ in range(n)]


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(7)
    for deltas in _random_histories(config, rng, 50):
        fast = encoder.encode(deltas)
        reference = encoder.encode_reference(deltas)
        assert np.array_equal(fast, reference)


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_history_sparse_matches_dense(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(11)
    # Mix of full histories, short histories, and offset-only starts —
    # the sparse path must reproduce every cold-page special case.
    cases = [(deltas, None) for deltas in _random_histories(config, rng, 30)]
    cases += [(deltas[:k], None)
              for deltas in _random_histories(config, rng, 10)
              for k in (0, 1, 2)]
    cases += [([], int(offset)) for offset in rng.integers(0, 64, size=5)]
    for deltas, first_offset in cases:
        dense = encoder.encode_history(deltas, first_offset=first_offset)
        sparse = encoder.encode_history_sparse(deltas,
                                               first_offset=first_offset)
        if dense is None:
            assert sparse is None
            continue
        assert np.array_equal(sparse.rates, dense)
        assert np.array_equal(sparse.active, np.flatnonzero(dense))


def _twin_networks(n_input, seed=3, **net_overrides):
    cfg_kwargs = dict(n_input=n_input, n_neurons=20, seed=seed,
                      **net_overrides)
    fast = DiehlCookNetwork(NetworkConfig(**cfg_kwargs), fast=True)
    reference = DiehlCookNetwork(NetworkConfig(**cfg_kwargs), fast=False)
    assert np.array_equal(fast.weights, reference.weights)
    return fast, reference


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_rank_one_tick_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(13)
    fast, reference = _twin_networks(config.n_input)
    for deltas in _random_histories(config, rng, 25):
        encoding = encoder.encode_history_sparse(deltas)
        scores_fast = fast.rank_one_tick(encoding.rates,
                                         active=encoding.active)
        scores_ref = reference.rank_one_tick(encoding.rates)
        assert int(np.argmax(scores_fast)) == int(np.argmax(scores_ref))
        np.testing.assert_allclose(scores_fast, scores_ref, rtol=1e-12)
    # Non-binary rates exercise the slice-matvec fallback.
    rates = np.zeros(config.n_input)
    hot = rng.choice(config.n_input, size=12, replace=False)
    rates[hot] = rng.uniform(0.2, 0.9, size=12)
    np.testing.assert_allclose(
        fast.rank_one_tick(rates), reference.rank_one_tick(rates),
        rtol=1e-12)


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_present_one_tick_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(17)
    fast, reference = _twin_networks(config.n_input)
    for step, deltas in enumerate(_random_histories(config, rng, 60)):
        encoding = encoder.encode_history_sparse(deltas)
        rec_fast = fast.present_one_tick(encoding.rates, learn=True,
                                         active=encoding.active)
        rec_ref = reference.present_one_tick(encoding.rates, learn=True)
        assert rec_fast.winner == rec_ref.winner, f"diverged at step {step}"
        assert np.array_equal(rec_fast.spike_counts, rec_ref.spike_counts)
        assert rec_fast.winners(3) == rec_ref.winners(3)
        assert rec_fast.next_best_potential == pytest.approx(
            rec_ref.next_best_potential, rel=1e-9)
    np.testing.assert_allclose(fast.weights, reference.weights, rtol=1e-9)
    np.testing.assert_allclose(fast.exc.theta, reference.exc.theta,
                               rtol=1e-9)


def _tied_network(config, columns, fast=True):
    """A network whose ``columns`` hold identical weights above every
    other column's, so their one-tick scores tie exactly at the top."""
    network = DiehlCookNetwork(NetworkConfig(
        n_input=config.n_input, n_neurons=50, seed=3), fast=fast)
    top = network.weights.max(axis=1) + 0.5
    for column in columns:
        network.weights[:, column] = top
    return network


@pytest.mark.parametrize("learn", [False, True])
def test_one_tick_exact_tie_picks_first_maximum(learn):
    """Three identical top weight columns: the sparse oracle, the dense
    reference and the window kernel all pick the first maximal score,
    as ``rank_one_tick``'s argmax does, and keep the same state."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    histories = _random_histories(config, np.random.default_rng(37), 30)
    encodings = [encoder.encode_history_sparse(d) for d in histories]
    columns = (41, 17, 29)

    oracle = _tied_network(config, columns)
    expected = [oracle.present_one_tick(e.rates, learn=learn,
                                        active=e.active).winner
                for e in encodings]
    assert expected[0] == min(columns)
    if not learn:
        assert expected == [min(columns)] * len(encodings)

    window = _tied_network(config, columns)
    assert window.present_one_tick_window(
        [e.active for e in encodings], [learn] * len(encodings)) == expected
    assert window.weights.tobytes() == oracle.weights.tobytes()
    assert window.exc.theta.tobytes() == oracle.exc.theta.tobytes()

    reference = _tied_network(config, columns, fast=False)
    for e in encodings:
        scores = reference.rank_one_tick_reference(e.rates)
        record = reference.present_one_tick(e.rates, learn=learn)
        assert record.winner == int(np.argmax(scores))


def test_full_interval_present_matches_reference():
    """present() with sparse Poisson sampling draws the identical spike
    trains (the full uniform block keeps the RNG stream aligned)."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    fast, reference = _twin_networks(config.n_input)
    rng = np.random.default_rng(19)
    for deltas in _random_histories(config, rng, 8):
        rates = encoder.encode(list(deltas))
        rec_fast = fast.present(rates, learn=True)
        rec_ref = reference.present(rates, learn=True)
        assert rec_fast.winner == rec_ref.winner
        assert np.array_equal(rec_fast.spike_counts, rec_ref.spike_counts)
        assert rec_fast.first_spike_tick == rec_ref.first_spike_tick
        assert rec_fast.boosts_used == rec_ref.boosts_used
    assert np.array_equal(fast.weights, reference.weights)
    assert np.array_equal(fast.exc.theta, reference.exc.theta)


def _prefetch_file(config, trace):
    requests = generate_prefetches(PathfinderPrefetcher(config), trace,
                                   budget=2)
    return [(r.trigger_instr_id, r.address) for r in requests]


@pytest.mark.parametrize("one_tick", [True, False])
def test_full_run_prefetch_file_bit_identical(one_tick):
    """The acceptance bar: fast_snn on/off emit the same prefetch file."""
    trace = make_trace("cc-5", 2500, seed=1)
    fast = _prefetch_file(
        PathfinderConfig(one_tick=one_tick, fast_snn=True), trace)
    reference = _prefetch_file(
        PathfinderConfig(one_tick=one_tick, fast_snn=False), trace)
    assert fast == reference
    assert fast, "expected a non-empty prefetch file"


# -- batched columnar driver parity -------------------------------------------

from repro.harness.runner import PREFETCHER_FACTORIES, make_prefetcher  # noqa: E402
from repro.ml import lstm as lstm_module  # noqa: E402
from repro.ml.model import NextTokenLSTM  # noqa: E402
from repro.prefetchers.base import Prefetcher  # noqa: E402
from repro.snn import ckernel  # noqa: E402
from repro.snn.encoding import flatten_active_windows  # noqa: E402
from repro.snn.network import HEALTH_CHECK_INTERVAL  # noqa: E402
from repro.types import MemoryAccess  # noqa: E402

#: Offline-trained prefetchers whose batched path runs the frozen model
#: through BLAS-backed row blocks (identical files, rounding-level logits).
NEURAL_PREFETCHERS = ("voyager", "delta-lstm")

#: The fixed-priority ensembles: their batch path merges the members'
#: batched lists per access, and must count ``slots_used`` like
#: :meth:`EnsemblePrefetcher.process` does.
ENSEMBLE_PREFETCHERS = ("pathfinder+nl", "pathfinder+nl+sisb",
                        "pathfinder+coldpage")

#: Every prefetcher that overrides :meth:`Prefetcher.process_batch`.
BATCHED_PREFETCHERS = ("nextline", "bo", "sisb", "spp", "pythia",
                       "pathfinder", *NEURAL_PREFETCHERS,
                       *ENSEMBLE_PREFETCHERS)

#: Behaviourally distinct workloads: graph-irregular, temporal-replay,
#: and delta-pattern heavy.
BATCH_WORKLOADS = ("cc-5", "482-sphinx-s0", "623-xalan-s1")

#: Largest batched-vs-batch-1 logit difference the neural parity tier
#: allows (measured: ~5e-15 for Voyager, ~1e-16 for Delta-LSTM).
LOGIT_BOUND = 1e-12

_batch_traces = {}
_scalar_runs = {}
_trained = {}


def _batch_trace(workload):
    if workload not in _batch_traces:
        _batch_traces[workload] = make_trace(workload, 2500, seed=5)
    return _batch_traces[workload]


def _fresh_prefetcher(workload, name):
    """A prefetcher ready to replay ``workload``: offline models are
    trained once per workload and handed out as independent copies."""
    key = (workload, name)
    if key not in _trained:
        prefetcher = make_prefetcher(name)
        prefetcher.train(_batch_trace(workload))
        _trained[key] = prefetcher
    return copy.deepcopy(_trained[key])


def _scalar_only(prefetcher):
    """Route every chunk through the scalar per-access loop: this is
    the oracle the batched implementations must reproduce."""
    prefetcher.process_batch = (
        lambda a, p, i: Prefetcher.process_batch(prefetcher, a, p, i))
    return prefetcher


def _scalar_reference(workload, name):
    """The scalar loop's prefetch file, and its prefetcher afterwards."""
    key = (workload, name)
    if key not in _scalar_runs:
        prefetcher = _scalar_only(_fresh_prefetcher(workload, name))
        requests = generate_prefetches(prefetcher, _batch_trace(workload),
                                       budget=2, train=False)
        _scalar_runs[key] = (requests, prefetcher)
    return _scalar_runs[key]


def _batched_then_scalar(prefetcher):
    """Run the first driver chunk batched and every later one through
    the scalar loop — the guard's switch after a failing chunk."""
    chunks = []

    def process_batch(addresses, pcs, instr_ids):
        chunks.append(len(addresses))
        path = (type(prefetcher).process_batch if len(chunks) == 1
                else Prefetcher.process_batch)
        return path(prefetcher, addresses, pcs, instr_ids)

    prefetcher.process_batch = process_batch
    return chunks


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
@pytest.mark.parametrize("name", BATCHED_PREFETCHERS)
def test_process_batch_matches_scalar(workload, name):
    """Batched prefetch files are bit-identical to the scalar loop's,
    for every chunk size including degenerate single-access chunks."""
    trace = _batch_trace(workload)
    reference, scalar = _scalar_reference(workload, name)
    for chunk in (1, 7, len(trace)):
        batched = _fresh_prefetcher(workload, name)
        assert generate_prefetches(
            batched, trace, budget=2, chunk=chunk,
            train=False) == reference, \
            f"{name} diverged on {workload} at chunk={chunk}"
        if name in ENSEMBLE_PREFETCHERS:
            assert batched.slots_used == scalar.slots_used, \
                f"{name} slots_used diverged on {workload} at chunk={chunk}"


def _neural_state(prefetcher):
    """Everything :meth:`process` reads back on the next access."""
    if prefetcher.name == "voyager":
        return ({pc: [row.tolist() for row in rows]
                 for pc, rows in prefetcher._history.items()},
                dict(prefetcher._last_page))
    return ([(list(c.context), c.last_block)
             for c in prefetcher._clusters],
            prefetcher.unseen_delta_predictions)


def _columns(accesses):
    return (np.asarray([a.address for a in accesses], dtype=np.int64),
            np.asarray([a.pc for a in accesses], dtype=np.int64),
            np.asarray([a.instr_id for a in accesses], dtype=np.int64))


@pytest.mark.parametrize("name", NEURAL_PREFETCHERS)
def test_neural_batch_state_matches_scalar(name):
    """Batched generation leaves exactly the scalar loop's state, so a
    switch to :meth:`process` mid-trace — what the guard does once a
    fault plan is armed or a chunk fails — continues the same stream."""
    trace = _batch_trace("cc-5")
    reference, scalar = _scalar_reference("cc-5", name)
    batched = _fresh_prefetcher("cc-5", name)
    assert generate_prefetches(batched, trace, budget=2,
                               train=False) == reference
    assert _neural_state(batched) == _neural_state(scalar)

    switched = _fresh_prefetcher("cc-5", name)
    chunks = _batched_then_scalar(switched)
    assert generate_prefetches(switched, trace, budget=2, chunk=2000,
                               train=False) == reference
    assert len(chunks) == 2
    assert _neural_state(switched) == _neural_state(scalar)


def _batch1_logits(model, context):
    """:meth:`NextTokenLSTM.predict_topk`'s model pass, logits kept."""
    hidden = model.embedding.forward(np.asarray([context]))
    for lstm in model.lstms:
        hidden = lstm.forward(hidden)
    return model.head.forward(hidden[:, -1, :])[0]


def _voyager_logit_pairs(prefetcher, accesses):
    """(batched, batch-1) logits over every context :meth:`process` sees."""
    contexts, batch1 = [], []
    forward = prefetcher._forward

    def recording_forward(tokens):
        hidden, page_logits, offset_logits = forward(tokens)
        contexts.append(tokens[0])
        batch1.append(np.concatenate([page_logits[0], offset_logits[0]]))
        return hidden, page_logits, offset_logits

    prefetcher._forward = recording_forward
    for access in accesses:
        prefetcher.process(access)
    contexts = np.stack(contexts)
    batched = [np.concatenate(prefetcher._infer(contexts[rows]), axis=1)
               for rows in lstm_module.row_blocks(len(contexts))]
    return np.concatenate(batched), np.stack(batch1)


def _recording_topk(seen):
    def predict_topk(context, k):
        seen.append(list(context))
        return []
    return predict_topk


def _delta_lstm_logit_pairs(prefetcher, accesses):
    contexts = {}
    for cluster in prefetcher._clusters:
        if cluster.model is not None:
            cluster.model.predict_topk = _recording_topk(
                contexts.setdefault(cluster.model, []))
    for access in accesses:
        prefetcher.process(access)
    batched, batch1 = [], []
    for model, seen in contexts.items():
        seen = np.asarray(seen)
        for rows in lstm_module.row_blocks(len(seen)):
            batched.append(model.logits(seen[rows]))
        batch1.extend(_batch1_logits(model, context) for context in seen)
    return np.concatenate(batched), np.stack(batch1)


@pytest.mark.parametrize("name", NEURAL_PREFETCHERS)
def test_neural_batched_logits_match_batch1_forward(name):
    """The parity tier's numeric bound: on real contexts, row-blocked
    cache-free logits sit within LOGIT_BOUND of the batch-1
    :meth:`LSTM.forward` pass the scalar path runs."""
    prefetcher = _fresh_prefetcher("cc-5", name)
    pairs = (_voyager_logit_pairs if name == "voyager"
             else _delta_lstm_logit_pairs)
    batched, batch1 = pairs(prefetcher, list(_batch_trace("cc-5"))[:600])
    assert batched.shape == batch1.shape
    assert batched.shape[0] > lstm_module._ROW_BLOCK
    assert np.abs(batched - batch1).max() <= LOGIT_BOUND


def _edge_chunk(prefetcher, contexts):
    """A chunk that, from a fresh prefetcher, holds exactly ``contexts``
    full-window contexts, all headed for the same model."""
    if prefetcher.name == "voyager":
        # One PC: its history is full from the window-th access on.
        n = prefetcher.config.window - 1 + contexts
        return [MemoryAccess(instr_id=10 * (j + 1), pc=0x400,
                             address=((1 << 16) + j % 5) << 12
                             | (j % 64) << 6)
                for j in range(n)]
    # One cluster, alternating +d/-d: every access after the first
    # appends a delta token, so the context is full from access window on.
    cluster_id, cluster = next((i, c) for i, c in
                               enumerate(prefetcher._clusters)
                               if c.model is not None)
    delta = next(iter(cluster.delta_to_token))
    base = int(prefetcher.centroids[cluster_id])
    n = prefetcher.config.window + contexts
    return [MemoryAccess(instr_id=10 * (j + 1), pc=0x400,
                         address=(base + delta * (j % 2)) << 6)
            for j in range(n)]


@pytest.mark.parametrize("name", NEURAL_PREFETCHERS)
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_neural_row_block_edges(name, offset, monkeypatch):
    """Chunks holding one row block of contexts, one short and one
    over, split into blocks without losing or duplicating a row."""
    block = lstm_module._ROW_BLOCK
    scalar = _fresh_prefetcher("cc-5", name)
    chunk = _edge_chunk(scalar, block + offset)
    expected = [scalar.process(a) for a in chunk]
    assert any(expected)

    # Count the rows of every model pass the batched path makes.
    blocks = []
    owner, attr = ((VoyagerPrefetcher, "_infer") if name == "voyager"
                   else (NextTokenLSTM, "logits"))
    model_pass = getattr(owner, attr)

    def counted(self, rows):
        blocks.append(len(rows))
        return model_pass(self, rows)

    monkeypatch.setattr(owner, attr, counted)
    batched = _fresh_prefetcher("cc-5", name)
    assert batched.process_batch(*_columns(chunk)) == expected
    assert blocks == {-1: [block - 1], 0: [block], 1: [block, 1]}[offset]
    assert _neural_state(batched) == _neural_state(scalar)


#: Pythia's prefetch file on each ``_batch_trace`` (budget 2, default
#: config) as (requests, rewards assigned, sha256 of the [trigger,
#: address] list as JSON), recorded from the earlier
#: ``(feature, action)``-keyed Q store.  The batched and scalar paths
#: share the Q rows, so parity between them cannot catch a change to
#: the learning rule itself; these pins can.
PYTHIA_PINNED = {
    "cc-5": (2858, 4700, "cdbc90f5b5546149258b9fe477662930"
                         "af07e30315d745d17b68ff0ec3b6b67c"),
    "482-sphinx-s0": (2689, 4576, "46afc94c48c8e38d35e498ab2c0f6f9e"
                                  "e31cd91c9a184044f8bf71ebebc330b5"),
    "623-xalan-s1": (2518, 4492, "a79e419dae62fb6b9334533b53bd4bcc"
                                 "82741fe5364232a81913456ff9b4b07c"),
}

#: Non-default Pythia configs: one vault; evictions on every access;
#: a short custom action list explored often.  Run at budget 4 so the
#: driver keeps every prefetch the degree-3 and degree-4 configs issue.
PYTHIA_CONFIGS = [
    dict(use_delta_sequence_vault=False),
    dict(degree=3, epsilon=0.5, eq_size=4),
    dict(actions=(0, 5, -5, 1), degree=4, epsilon=0.3, seed=7),
]


def _digest(requests):
    payload = json.dumps([[r.trigger_instr_id, r.address] for r in requests])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_pythia_prefetch_file_pinned(workload):
    """Batched and scalar Pythia both reproduce the pinned files."""
    trace = _batch_trace(workload)
    batched = make_prefetcher("pythia")
    scalar = _scalar_only(make_prefetcher("pythia"))
    for prefetcher in (batched, scalar):
        requests = generate_prefetches(prefetcher, trace, budget=2,
                                       train=False)
        assert (len(requests), prefetcher.rewards_assigned,
                _digest(requests)) == PYTHIA_PINNED[workload]


#: SPP's prefetch file on each ``_batch_trace`` (budget 2) as (requests,
#: sha256 of the [trigger, address] list as JSON), under the default
#: config and one with tiny tables and low-saturating counters, recorded
#: from the ``OrderedDict``-backed tables.  Like Pythia's, the batched
#: and scalar paths share their tables, so these pins are what catches
#: a change to the learning rule itself.
SPP_CONFIGS = {
    "default": {},
    "tiny": dict(signature_table_size=8, pattern_table_size=16,
                 max_counter=4),
}
SPP_PINNED = {
    ("default", "cc-5"): (1948, "176ee56d1e25dc8f92a33001f277babf"
                                "9ad570d3b3fc40f32d8a2aa3d5452334"),
    ("default", "482-sphinx-s0"): (1416, "5d85142b6ebce7f9a67bbe519249a2e1"
                                         "eb6f8e13983e83e1725c6d15a1487603"),
    ("default", "623-xalan-s1"): (1313, "f838ec153f9bcfdb1a02a7828de7515f"
                                        "63706f2d2688116d94f4cdc955bfd538"),
    ("tiny", "cc-5"): (304, "6db6d7a47929ebc78339b569366c15eb"
                            "8b4adc3e55a781cef3eb97b694ec5d51"),
    ("tiny", "482-sphinx-s0"): (749, "4dc3f5e6af292e20fb8ada53846d9aec"
                                     "60cb96c8260bd254ca219a9edd50f75b"),
    ("tiny", "623-xalan-s1"): (492, "c9a58795140cb42394380c926c23ad6b"
                                    "0a27f695d9a912bbd025a7b96e82e26f"),
}


@pytest.mark.parametrize("config", SPP_CONFIGS)
@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_spp_prefetch_file_pinned(workload, config):
    """Batched and scalar SPP both reproduce the pinned files."""
    trace = _batch_trace(workload)
    spp_config = SPPConfig(**SPP_CONFIGS[config])
    for prefetcher in (SPPPrefetcher(spp_config),
                       _scalar_only(SPPPrefetcher(spp_config))):
        requests = generate_prefetches(prefetcher, trace, budget=2,
                                       train=False)
        assert (len(requests), _digest(requests)) == \
            SPP_PINNED[config, workload]


@pytest.mark.parametrize("config", SPP_CONFIGS)
@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_spp_batch_state_matches_scalar(workload, config):
    """At every chunk size, batched SPP leaves exactly the scalar loop's
    tables (rows, stamps, clocks and slot order), so a mid-trace switch
    to :meth:`process` continues the same stream."""
    trace = _batch_trace(workload)
    spp_config = SPPConfig(**SPP_CONFIGS[config])
    scalar = _scalar_only(SPPPrefetcher(spp_config))
    reference = generate_prefetches(scalar, trace, budget=2, train=False)
    state = spp_state(scalar)
    for chunk in (1, 7, len(trace)):
        batched = SPPPrefetcher(spp_config)
        assert generate_prefetches(batched, trace, budget=2, chunk=chunk,
                                   train=False) == reference
        assert spp_state(batched) == state
    switched = SPPPrefetcher(spp_config)
    chunks = _batched_then_scalar(switched)
    assert generate_prefetches(switched, trace, budget=2, chunk=2000,
                               train=False) == reference
    assert chunks == [2000, len(trace) - 2000]
    assert spp_state(switched) == state


@pytest.mark.parametrize("overrides", [{}, *PYTHIA_CONFIGS])
@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_pythia_batch_state_matches_scalar(workload, overrides):
    """At every chunk size, batched generation emits the scalar loop's
    file and leaves exactly its Q rows, evaluation queue, delta
    history, reward count and RNG state, so a mid-trace switch to
    :meth:`process` continues the same stream."""
    trace = _batch_trace(workload)
    config = PythiaConfig(**overrides)
    scalar = _scalar_only(PythiaPrefetcher(config))
    reference = generate_prefetches(scalar, trace, budget=4, train=False)
    assert reference
    state = pythia_state(scalar)
    assert not any(q == 0.0 and math.copysign(1.0, q) < 0
                   for vault in scalar._vaults for row in vault.values()
                   for q in row), "a stored Q-value is -0.0"
    for chunk in (1, 7, len(trace)):
        batched = PythiaPrefetcher(config)
        assert generate_prefetches(batched, trace, budget=4, chunk=chunk,
                                   train=False) == reference, \
            f"{overrides} diverged on {workload} at chunk={chunk}"
        assert pythia_state(batched) == state
    switched = PythiaPrefetcher(config)
    chunks = _batched_then_scalar(switched)
    assert generate_prefetches(switched, trace, budget=4, chunk=2000,
                               train=False) == reference
    assert chunks == [2000, len(trace) - 2000]
    assert pythia_state(switched) == state


def test_pythia_chunk_grows_page_table_and_row_stores():
    """One chunk over more pages and features than the stores start
    with: the compiled loop stops before each access that could
    overflow one, the store grows, and the loop resumes there."""
    rng = np.random.default_rng(3)
    n = 3000
    pages = 0x1000 + 7919 * rng.integers(0, 1500, size=n)
    offsets = rng.integers(0, 64, size=n)
    trace = build_accesses((pages << 12) | (offsets << 6),
                           pcs=rng.integers(0, 1 << 12, size=n))
    scalar = _scalar_only(PythiaPrefetcher())
    reference = generate_prefetches(scalar, trace, budget=2, train=False)
    batched = PythiaPrefetcher()
    initial = (len(batched._pages.keys),
               [len(vault.keys) for vault in batched._vaults])
    assert generate_prefetches(batched, trace, budget=2, chunk=n,
                               train=False) == reference
    assert pythia_state(batched) == pythia_state(scalar)
    assert len(batched._pages) > initial[0]
    assert any(len(vault) > capacity for vault, capacity
               in zip(batched._vaults, initial[1]))


#: PATHFINDER configs for the state test: the default, one that evicts
#: on most first touches, periodic STDP, one label per neuron, labels
#: without the confirmation step, and no cold-page encodings.
PATHFINDER_CONFIGS = {
    "default": {},
    "evicting": dict(training_table_size=16),
    "stdp-epoch": dict(stdp_epoch=300, stdp_on_accesses=60),
    "one-label": dict(labels_per_neuron=1),
    "unconfirmed": dict(require_confirmation=False),
    "warm-pages": dict(cold_page_encoding=False),
}


@pytest.mark.parametrize("config", PATHFINDER_CONFIGS)
@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_pathfinder_batch_state_matches_scalar(workload, config):
    """At every chunk size, batched PATHFINDER emits the scalar loop's
    file and leaves exactly its Training-Table rows (in LRU order),
    Inference-Table slots, pending deltas and counters, SNN weights,
    theta and interval count, so a mid-trace switch to :meth:`process`
    continues the same stream."""
    trace = _batch_trace(workload)
    config = PathfinderConfig(**PATHFINDER_CONFIGS[config])
    scalar = _scalar_only(PathfinderPrefetcher(config))
    reference = generate_prefetches(scalar, trace, budget=2)
    assert reference
    state = pathfinder_state(scalar)
    for chunk in (1, 7, len(trace)):
        batched = PathfinderPrefetcher(config)
        assert generate_prefetches(batched, trace, budget=2,
                                   chunk=chunk) == reference, \
            f"{config} diverged on {workload} at chunk={chunk}"
        assert pathfinder_state(batched) == state
    switched = PathfinderPrefetcher(config)
    chunks = _batched_then_scalar(switched)
    assert generate_prefetches(switched, trace, budget=2,
                               chunk=2000) == reference
    assert chunks == [2000, len(trace) - 2000]
    assert pathfinder_state(switched) == state


def test_generate_prefetches_rejects_bad_chunk():
    from repro.errors import ConfigError
    trace = _batch_trace("cc-5")
    with pytest.raises(ConfigError):
        generate_prefetches(make_prefetcher("nextline"), trace, chunk=0)


def test_flatten_active_windows_layout():
    actives = [np.array([3, 5], dtype=np.int64),
               np.empty(0, dtype=np.int64),
               np.array([1], dtype=np.int64)]
    flat, starts = flatten_active_windows(actives)
    assert flat.tolist() == [3, 5, 1]
    assert starts.tolist() == [0, 2, 2, 3]
    flat, starts = flatten_active_windows([])
    assert flat.size == 0 and starts.tolist() == [0]


# -- compiled window kernel ---------------------------------------------------

_kernel = ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(
    _kernel is None, reason="no C compiler available for the window kernel")


@needs_kernel
def test_ckernel_pairwise_sum_bit_identical():
    """The C pairwise summation reproduces numpy's reduce bit-for-bit
    (same blocking/unrolling recursion, strict IEEE flags)."""
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 5, 7, 8, 9, 16, 127, 128, 129, 381, 600, 4096):
        values = rng.uniform(-1e3, 1e3, size=n)
        ours = np.float64(_kernel.pairwise_sum(values))
        numpys = np.float64(np.add.reduce(values))
        assert ours.tobytes() == numpys.tobytes(), f"n={n}"


@needs_kernel
def test_window_kernel_matches_scalar_one_tick():
    """A mixed learn/no-learn window leaves winners, weights, theta and
    the interval counter bitwise equal to per-query scalar calls."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(29)
    kwargs = dict(n_input=config.n_input, n_neurons=20, seed=3)
    batched = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    scalar = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    histories = _random_histories(config, rng, 200)
    actives = [encoder.encode_history_sparse(d).active for d in histories]
    learns = [bool(rng.integers(0, 2)) for _ in histories]
    # Span several HEALTH_CHECK_INTERVAL boundaries in one window.
    assert len(actives) > 2 * HEALTH_CHECK_INTERVAL
    winners = batched.present_one_tick_window(actives, learns)
    expected = [scalar.present_one_tick(None, learn=learn, active=active,
                                        binary=True).winner
                for active, learn in zip(actives, learns)]
    assert winners == expected
    assert batched.input_to_exc.w.tobytes() == scalar.input_to_exc.w.tobytes()
    assert batched.exc.theta.tobytes() == scalar.exc.theta.tobytes()
    assert batched.intervals_presented == scalar.intervals_presented
    assert batched.exc.adaptation_enabled == scalar.exc.adaptation_enabled


def test_window_falls_back_without_kernel(monkeypatch):
    """With the kernel unavailable the window path degrades to scalar
    calls — same winners, same state."""
    import repro.snn.network as network_module
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(31)
    kwargs = dict(n_input=config.n_input, n_neurons=20, seed=3)
    fallback = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    scalar = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    histories = _random_histories(config, rng, 40)
    actives = [encoder.encode_history_sparse(d).active for d in histories]
    learns = [True] * len(actives)
    monkeypatch.setattr(network_module, "_load_tick_kernel", lambda: None)
    winners = fallback.present_one_tick_window(actives, learns)
    expected = [scalar.present_one_tick(None, learn=True, active=active,
                                        binary=True).winner
                for active in actives]
    assert winners == expected
    assert fallback.input_to_exc.w.tobytes() == scalar.input_to_exc.w.tobytes()
