"""Parity of the SNN and encoder hot paths with readable references,
and of every batched driver with the scalar loop.

The encoder's lit-pixel table is checked against a per-pixel loop, and
the sparse one-tick step (:meth:`DiehlCookNetwork.present_one_tick`)
against a dense one (full matvec, rank-1 STDP, every column
renormalised) — same encodings, same winners and scores, same learned
state — across the Figure-9 config toggles and random inputs.  Both
references live here, not in the program.  The batched-driver section
extends the contract to every ``process_batch`` override, and pins of
the PATHFINDER, Pythia and SPP prefetch files catch a change to a
learning rule itself; the frozen neural models get the one BLAS-backed
tier (identical files and state, logits within a bound).
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
                           row_lists, spp_state)

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


def _encode_per_pixel(encoder, deltas):
    """The pixel matrix lit one pixel at a time: each row's delta
    column, shifted in the middle row, permuted, then enlarged along
    the row."""
    config = encoder.config
    width, height = config.delta_range, config.history
    radius = config.enlarge_radius if config.enlarge_pixels else 0
    rates = np.zeros(width * height)
    for row, delta in enumerate(deltas):
        column = delta + config.max_delta
        if row == height // 2 and height >= 3:
            column = min(width - 1, max(0, column + config.middle_shift))
        if encoder._permutation is not None:
            column = int(encoder._permutation[column])
        for neighbour in range(column - radius, column + radius + 1):
            if 0 <= neighbour < width:
                rates[row * width + neighbour] = 1.0
    return rates


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(7)
    for deltas in _random_histories(config, rng, 50):
        rates = encoder.encode(deltas)
        assert np.array_equal(rates, _encode_per_pixel(encoder, deltas))
        encoding = encoder.encode_history(deltas)
        assert np.array_equal(encoding.rates, rates)
        assert np.array_equal(encoding.active, np.flatnonzero(rates))


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_history_sparse_matches_dense(overrides):
    """encode_history's rates and support match the per-pixel loop on
    every cold-page case: full histories, short ones (zeroes lead) and
    offset-only starts (clipped into range)."""
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(11)
    height = config.history
    cases = [(deltas, None) for deltas in _random_histories(config, rng, 30)]
    cases += [(deltas[:k], None)
              for deltas in _random_histories(config, rng, 10)
              for k in (0, 1, 2)]
    cases += [([], int(offset)) for offset in rng.integers(0, 64, size=5)]
    for deltas, first_offset in cases:
        encoding = encoder.encode_history(deltas, first_offset=first_offset)
        if len(deltas) >= height:
            padded = deltas[-height:]
        elif deltas:
            padded = [0] * (height - len(deltas)) + deltas
        elif first_offset is not None:
            padded = [min(first_offset, config.max_delta)] + [0] * (height - 1)
        else:
            assert encoding is None
            continue
        dense = _encode_per_pixel(encoder, padded)
        assert np.array_equal(encoding.rates, dense)
        assert np.array_equal(encoding.active, np.flatnonzero(dense))


def _dense_one_tick(network, rates, learn):
    """The one-tick step written densely: every neuron's score from the
    full matvec, the winner by a stable argsort, rank-1 STDP on the
    winner's column, then every column renormalised.  Returns the
    winner and the scores."""
    exc = network.exc
    stdp = network.input_to_exc.stdp
    drive = (rates * network.config.max_probability) @ network.weights
    scores = drive / np.maximum(exc.config.threshold_gap + exc.theta, 1e-9)
    winner = int(np.argsort(-scores, kind="stable")[0])
    if learn:
        column = (network.weights[:, winner]
                  + stdp.nu_post * (rates - stdp.x_target))
        np.clip(column, stdp.w_min, stdp.w_max, out=column)
        network.weights[:, winner] = column
        network.input_to_exc.normalize()
        fired = np.zeros(network.config.n_neurons, dtype=bool)
        fired[winner] = True
        exc.adaptation_enabled = True
        exc._on_spike(fired)
        exc.theta *= exc._theta_decay ** network.config.timesteps
    return winner, scores


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_rank_one_tick_matches_reference(overrides):
    """The one-tick ranking on any binary input, not only the
    encoder's: random supports from empty to half the pixels, no
    learning.  The winner and runner-up match the dense matvec's."""
    config = PathfinderConfig(**overrides)
    rng = np.random.default_rng(13)
    net_config = NetworkConfig(n_input=config.n_input, n_neurons=20, seed=3)
    sparse = DiehlCookNetwork(net_config)
    dense = DiehlCookNetwork(net_config)
    rest = sparse.exc.config.rest
    for size in (0, 1, 2, 7, 40, config.n_input // 2) * 4:
        active = np.sort(rng.choice(config.n_input, size=size,
                                    replace=False))
        rates = np.zeros(config.n_input)
        rates[active] = 1.0
        record = sparse.present_one_tick(active, learn=False)
        winner, scores = _dense_one_tick(dense, rates, learn=False)
        runner_up = int(np.argsort(-scores, kind="stable")[1])
        assert record.winner == winner
        assert record.next_best_potential == pytest.approx(
            rest + scores[runner_up], rel=1e-12)
        np.testing.assert_allclose(record.potentials_first_tick,
                                   rest + scores, rtol=1e-12)


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_present_one_tick_matches_reference(overrides):
    """Mixed learn and no-learn steps: the sparse oracle and the dense
    step pick the same winners from the same scores and learn the same
    weights and theta."""
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(17)
    net_config = NetworkConfig(n_input=config.n_input, n_neurons=20, seed=3)
    sparse = DiehlCookNetwork(net_config)
    dense = DiehlCookNetwork(net_config)
    for step, deltas in enumerate(_random_histories(config, rng, 60)):
        encoding = encoder.encode_history(deltas)
        learn = bool(rng.integers(0, 4))
        record = sparse.present_one_tick(encoding.active, learn=learn)
        winner, scores = _dense_one_tick(dense, encoding.rates, learn)
        assert record.winner == winner, f"diverged at step {step}"
        assert record.winners(3) == [winner]
        np.testing.assert_allclose(
            record.potentials_first_tick - sparse.exc.config.rest, scores,
            rtol=1e-9)
    np.testing.assert_allclose(sparse.weights, dense.weights, rtol=1e-9)
    np.testing.assert_allclose(sparse.exc.theta, dense.exc.theta,
                               rtol=1e-9)


def _tied_network(config, columns):
    """A network whose ``columns`` hold identical weights above every
    other column's, so their one-tick scores tie exactly at the top."""
    network = DiehlCookNetwork(NetworkConfig(
        n_input=config.n_input, n_neurons=50, seed=3))
    top = network.weights.max(axis=1) + 0.5
    for column in columns:
        network.weights[:, column] = top
    return network


@pytest.mark.parametrize("learn", [False, True])
def test_one_tick_exact_tie_picks_first_maximum(learn):
    """Three identical top weight columns: the sparse oracle and the
    dense step both pick the first maximal score, as ``np.argmax``
    does."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    histories = _random_histories(config, np.random.default_rng(37), 30)
    encodings = [encoder.encode_history(d) for d in histories]
    columns = (41, 17, 29)

    oracle = _tied_network(config, columns)
    expected = [oracle.present_one_tick(e.active, learn=learn).winner
                for e in encodings]
    assert expected[0] == min(columns)
    if not learn:
        assert expected == [min(columns)] * len(encodings)

    reference = _tied_network(config, columns)
    for e in encodings:
        winner, scores = _dense_one_tick(reference, e.rates, learn)
        assert winner == int(np.argmax(scores))


def _poisson_active_columns(rates, timesteps, rng, max_probability=0.5):
    """Poisson sampling restricted to the nonzero-rate pixels: the same
    uniform block, compared only on the active columns."""
    uniforms = rng.random((timesteps, rates.size))
    active = np.flatnonzero(rates)
    spikes = np.zeros((timesteps, rates.size), dtype=bool)
    spikes[:, active] = uniforms[:, active] < rates[active] * max_probability
    return spikes


def test_full_interval_present_matches_reference(monkeypatch):
    """present() draws the spike trains of a sampler that compares only
    the active pixels (a zero-rate pixel never spikes), so winners,
    spike counts and learned state are identical."""
    import repro.snn.network as network_module
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    net_config = NetworkConfig(n_input=config.n_input, n_neurons=20, seed=3)
    rates = [encoder.encode(deltas) for deltas in _random_histories(
        config, np.random.default_rng(19), 8)]
    network = DiehlCookNetwork(net_config)
    records = [network.present(r, learn=True) for r in rates]
    monkeypatch.setattr(network_module, "poisson_spike_train",
                        _poisson_active_columns)
    reference = DiehlCookNetwork(net_config)
    for r, record in zip(rates, records):
        expected = reference.present(r, learn=True)
        assert record.winner == expected.winner
        assert np.array_equal(record.spike_counts, expected.spike_counts)
        assert record.first_spike_tick == expected.first_spike_tick
        assert record.boosts_used == expected.boosts_used
    assert np.array_equal(network.weights, reference.weights)
    assert np.array_equal(network.exc.theta, reference.exc.theta)


# -- batched columnar driver parity -------------------------------------------

from repro.harness.runner import PREFETCHER_FACTORIES, make_prefetcher  # noqa: E402
from repro.ml import lstm as lstm_module  # noqa: E402
from repro.ml.model import NextTokenLSTM  # noqa: E402
from repro.prefetchers.base import Prefetcher, Rows  # noqa: E402
from repro.snn import ckernel  # noqa: E402
from repro.types import MemoryAccess  # noqa: E402

#: Offline-trained prefetchers whose batched path runs the frozen model
#: through BLAS-backed row blocks (identical files, rounding-level logits).
NEURAL_PREFETCHERS = ("voyager", "delta-lstm")

#: The fixed-priority ensembles: their batch path merges the members'
#: batched rows, and must count ``slots_used`` like
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


@pytest.mark.parametrize("name", sorted(PREFETCHER_FACTORIES))
def test_rows_contract(name):
    """Every registry prefetcher's chunks come back as rows: ``int64``
    counts, one per access, adding up to the ``int64`` addresses, and
    row ``i`` is :meth:`process`'s list for access ``i``."""
    trace = _batch_trace("cc-5")
    accesses = list(trace)
    scalar = _fresh_prefetcher("cc-5", name)
    batched = _fresh_prefetcher("cc-5", name)
    for start in range(0, len(trace), 1000):
        end = min(start + 1000, len(trace))
        rows = batched.process_batch(trace.addresses[start:end],
                                     trace.pcs[start:end],
                                     trace.instr_ids[start:end])
        assert isinstance(rows, Rows)
        assert rows.counts.dtype == rows.addresses.dtype == np.int64
        assert rows.counts.shape == (end - start,)
        assert rows.addresses.shape == (rows.counts.sum(),)
        assert row_lists(rows) == [scalar.process(access)
                                   for access in accesses[start:end]]


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
    assert row_lists(batched.process_batch(*_columns(chunk))) == expected
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


#: PATHFINDER's prefetch file on each ``_batch_trace`` (budget 2) as
#: (requests, sha256 of the [trigger, address] list as JSON, sha256 of
#: the final weight bytes then theta bytes), under the default one-tick
#: config and, on cc-5 only, the multi-tick one (3-4 s a run).  Recorded
#: while the dense one-tick twins still existed.  The batched and scalar
#: paths share the SNN arrays, so these pins are what catches a change
#: to the learning rule itself.
PATHFINDER_PINNED = {
    ("one-tick", "cc-5"): (
        1219, "ce03c66ea98e67453652d71a79a715819c389d85fa0bd7655609710b6a88c649",
        "9ae898142d11dd8edcb482df7579e6d3501e89cd807b1d093f12a89ee571e055"),
    ("one-tick", "482-sphinx-s0"): (
        960, "8ebbba946699bcb02f2ca0cd478d4878f6b4a498d633637a1e6890d2f7e90262",
        "96140ba1ccb364ba00bec6a36620511012071a48d7a192f44d9f8b1122719577"),
    ("one-tick", "623-xalan-s1"): (
        847, "ef311da5747739f8a9bfc0af4c5574f46690e4d877b843c3857a05a8107b1d97",
        "de8685e5272143f06b5f9a8e248198dc6717bdf55492786f25e2cbe4fa08923c"),
    ("multi-tick", "cc-5"): (
        2239, "f9123f3f799b789e8e0ad0fc5c448f3b001ba3ee3094bbfccbc9783ca3e8b1ee",
        "d2ae8529026b724e5762e7b5fe10dbf838c0f2f5f273da279210dbbcac2892b2"),
}


@pytest.mark.parametrize("config, workload", PATHFINDER_PINNED)
def test_pathfinder_prefetch_file_pinned(config, workload):
    """Batched and scalar PATHFINDER both reproduce the pinned files
    and the pinned final weights and theta."""
    trace = _batch_trace(workload)
    pf_config = PathfinderConfig(one_tick=config == "one-tick")
    for prefetcher in (PathfinderPrefetcher(pf_config),
                       _scalar_only(PathfinderPrefetcher(pf_config))):
        requests = generate_prefetches(prefetcher, trace, budget=2,
                                       train=False)
        network = prefetcher.network
        state = hashlib.sha256(network.weights.tobytes()
                               + network.exc.theta.tobytes()).hexdigest()
        assert (len(requests), _digest(requests), state) == \
            PATHFINDER_PINNED[config, workload]


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


# -- compiled kernel ----------------------------------------------------------

_kernel = ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(
    _kernel is None, reason="no C compiler available for the kernel")


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
