"""Tests for the learned baselines: Pythia, Delta-LSTM, Voyager, ensembles."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.prefetchers import (
    DeltaLSTMConfig,
    DeltaLSTMPrefetcher,
    EnsemblePrefetcher,
    NextLinePrefetcher,
    PythiaConfig,
    PythiaPrefetcher,
    SISBPrefetcher,
    VoyagerConfig,
    VoyagerPrefetcher,
    generate_prefetches,
)
from repro.prefetchers.pythia import MAX_EQ_SIZE
from repro.types import MemoryAccess, compose_address

from tests.helpers import build_trace, seq_addresses


def stride_trace(n=3000, stride=2, pages_from=1000):
    addresses = []
    offset, page = 0, pages_from
    for _ in range(n):
        addresses.append(compose_address(page, offset))
        offset += stride
        if offset >= 64:
            offset = 0
            page += 1
    return build_trace(addresses)


# -- Pythia -----------------------------------------------------------------

def test_pythia_config_validation():
    with pytest.raises(ConfigError):
        PythiaConfig(actions=(1, 2))  # must include 0
    with pytest.raises(ConfigError):
        PythiaConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        PythiaConfig(gamma=1.0)
    # Exploration samples `degree` distinct actions.
    with pytest.raises(ConfigError):
        PythiaConfig(actions=(0, 1), degree=3)
    # Q rows are indexed by action position: duplicates are ambiguous.
    with pytest.raises(ConfigError):
        PythiaConfig(actions=(0, 1, 1, 2))
    PythiaConfig(actions=(0, 1), degree=2)
    # The compiled draws follow NumPy's choice for at most 10,000.
    PythiaConfig(actions=tuple(range(10_000)))
    with pytest.raises(ConfigError, match="at most 10000"):
        PythiaConfig(actions=tuple(range(10_001)))
    # A non-finite reward would spread through every Q row it touches.
    for name in ("reward_accurate", "reward_inaccurate",
                 "reward_no_prefetch"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError):
                PythiaConfig(**{name: value})
    # The evaluation queue is a ring allocated up front.
    with pytest.raises(ConfigError):
        PythiaConfig(eq_size=MAX_EQ_SIZE + 1)
    with pytest.raises(ConfigError):
        PythiaConfig(eq_size=10 ** 12)
    PythiaConfig(eq_size=MAX_EQ_SIZE)


def test_pythia_learns_constant_delta():
    trace = stride_trace(n=4000, stride=2)
    pf = PythiaPrefetcher(PythiaConfig(epsilon=0.02, seed=1))
    requests = generate_prefetches(pf, trace)
    # In the second half, most prefetches should be delta +2.
    late = [r for r in requests if r.trigger_instr_id
            > trace[len(trace) // 2].instr_id]
    actual_blocks = {a.block for a in trace}
    hits = sum(1 for r in late if r.block in actual_blocks)
    assert hits / max(1, len(late)) > 0.5


def test_pythia_is_aggressive():
    """Pythia issues on nearly every access (paper Table 6 profile)."""
    trace = stride_trace(n=2000)
    requests = generate_prefetches(PythiaPrefetcher(), trace)
    assert len(requests) > len(trace) * 0.8


def test_pythia_rewards_assigned():
    trace = stride_trace(n=1000)
    pf = PythiaPrefetcher()
    generate_prefetches(pf, trace)
    assert pf.rewards_assigned > 100


def test_pythia_deterministic_by_seed():
    trace = stride_trace(n=500)
    a = generate_prefetches(PythiaPrefetcher(PythiaConfig(seed=5)), trace)
    b = generate_prefetches(PythiaPrefetcher(PythiaConfig(seed=5)), trace)
    assert a == b


def test_pythia_prefetches_stay_in_page():
    trace = stride_trace(n=1000, stride=9)
    for r in generate_prefetches(PythiaPrefetcher(), trace):
        trigger_pages = {a.instr_id: a.page for a in trace}
        assert (r.address >> 12) == trigger_pages[r.trigger_instr_id]


# -- Delta-LSTM ---------------------------------------------------------------

def _small_dlstm_config(**overrides):
    defaults = dict(clusters=2, vocab_size=17, hidden_dim=12, embed_dim=8,
                    layers=1, window=4, epochs=2, max_train_windows=500,
                    train_fraction=0.2)
    defaults.update(overrides)
    return DeltaLSTMConfig(**defaults)


def test_delta_lstm_config_validation():
    with pytest.raises(ConfigError):
        DeltaLSTMConfig(train_fraction=0.0)
    with pytest.raises(ConfigError):
        DeltaLSTMConfig(clusters=0)


def test_delta_lstm_learns_trained_deltas():
    trace = stride_trace(n=3000, stride=4)
    pf = DeltaLSTMPrefetcher(_small_dlstm_config())
    requests = generate_prefetches(pf, trace)
    actual_blocks = {a.block for a in trace}
    hits = sum(1 for r in requests if r.block in actual_blocks)
    assert requests and hits / len(requests) > 0.5


def test_delta_lstm_unseen_deltas_counted():
    # Train on a stride-2 prefix, then the same region switches to
    # stride-5: the model meets unseen deltas (the paper's protocol
    # weakness).  A single cluster keeps both phases together.
    first = list(stride_trace(n=1000, stride=2, pages_from=1000))
    second = list(stride_trace(n=1000, stride=5, pages_from=1040))
    accesses = first + [
        type(a)(instr_id=first[-1].instr_id + 10 * (i + 1), pc=a.pc,
                address=a.address) for i, a in enumerate(second)]
    from repro.types import Trace

    trace = Trace.from_accesses("switch", accesses)
    pf = DeltaLSTMPrefetcher(_small_dlstm_config(train_fraction=0.1,
                                                 clusters=1))
    generate_prefetches(pf, trace)
    assert pf.unseen_delta_predictions > 0


def test_delta_lstm_without_training_is_silent():
    pf = DeltaLSTMPrefetcher(_small_dlstm_config())
    assert pf.process(MemoryAccess(1, 0x4, 0x1000)) == []


# -- Voyager -----------------------------------------------------------------

def _small_voyager_config(**overrides):
    defaults = dict(hidden_dim=16, embed_dim=8, window=4, epochs=2,
                    max_train_windows=1500, batch_size=32)
    defaults.update(overrides)
    return VoyagerConfig(**defaults)


def test_voyager_config_validation():
    with pytest.raises(ConfigError):
        VoyagerConfig(max_page_delta=0)
    with pytest.raises(ConfigError):
        VoyagerConfig(window=0)


def test_voyager_learns_offset_pattern():
    trace = stride_trace(n=2500, stride=8)
    pf = VoyagerPrefetcher(_small_voyager_config())
    requests = generate_prefetches(pf, trace)
    actual_blocks = {a.block for a in trace}
    hits = sum(1 for r in requests if r.block in actual_blocks)
    assert requests and hits / len(requests) > 0.4


def test_voyager_silent_before_training():
    pf = VoyagerPrefetcher(_small_voyager_config())
    assert pf.process(MemoryAccess(1, 0x4, 0x1000)) == []


def test_voyager_page_tokens_roundtrip():
    pf = VoyagerPrefetcher(_small_voyager_config())
    current = 1000
    for delta in (-5, 0, 5, pf.config.max_page_delta):
        token = pf._page_token(delta, current + delta)
        assert pf._decode_page(token, current) == current + delta
    # Large jump to an unknown page: OOV, decodes to None.
    big = pf.config.max_page_delta + 10
    assert pf._page_token(big, current + big) == 0
    assert pf._decode_page(0, current) is None


def test_voyager_absolute_tokens_for_recurring_pages():
    # The absolute-page vocabulary is opt-in (see VoyagerConfig docs).
    pf = VoyagerPrefetcher(_small_voyager_config(abs_page_vocab=64))
    # Trace revisiting two far-apart pages repeatedly.
    import itertools

    addresses = [compose_address(p, 3)
                 for p in itertools.islice(
                     itertools.cycle([100, 90_000]), 40)]
    trace = build_trace(addresses)
    pf._build_abs_vocab(trace)
    token = pf._page_token(89_900, 90_000)
    assert token >= pf.config.n_delta_tokens
    assert pf._decode_page(token, 100) == 90_000


def test_voyager_deterministic():
    trace = stride_trace(n=1200, stride=3)
    a = generate_prefetches(VoyagerPrefetcher(_small_voyager_config()), trace)
    b = generate_prefetches(VoyagerPrefetcher(_small_voyager_config()), trace)
    assert a == b


# -- Ensemble ----------------------------------------------------------------

def test_ensemble_validation():
    with pytest.raises(ConfigError):
        EnsemblePrefetcher([])
    with pytest.raises(ConfigError):
        EnsemblePrefetcher([NextLinePrefetcher()], budget=0)


def test_ensemble_name_joins_members():
    ensemble = EnsemblePrefetcher([NextLinePrefetcher(), SISBPrefetcher()])
    assert ensemble.name == "nextline+sisb"


def test_ensemble_priority_and_budget():
    class Fixed(NextLinePrefetcher):
        def __init__(self, addresses, name):
            super().__init__(degree=1)
            self._fixed = addresses
            self.name = name

        def process(self, access):
            return list(self._fixed)

    high = Fixed([0x1000, 0x2000], "high")
    low = Fixed([0x3000, 0x4000], "low")
    ensemble = EnsemblePrefetcher([high, low], budget=2)
    out = ensemble.process(MemoryAccess(1, 0x4, 0x0))
    assert out == [0x1000, 0x2000]          # high priority fills budget
    assert ensemble.slots_used == [2, 0]


def test_ensemble_fills_remaining_slots():
    class Fixed(NextLinePrefetcher):
        def __init__(self, addresses):
            super().__init__(degree=1)
            self._fixed = addresses

        def process(self, access):
            return list(self._fixed)

    ensemble = EnsemblePrefetcher([Fixed([0x1000]), Fixed([0x3000])],
                                  budget=2)
    assert ensemble.process(MemoryAccess(1, 0x4, 0x0)) == [0x1000, 0x3000]


def test_ensemble_dedups_same_block():
    class Fixed(NextLinePrefetcher):
        def __init__(self, addresses):
            super().__init__(degree=1)
            self._fixed = addresses

        def process(self, access):
            return list(self._fixed)

    ensemble = EnsemblePrefetcher([Fixed([0x1000]), Fixed([0x1000, 0x2000])],
                                  budget=2)
    assert ensemble.process(MemoryAccess(1, 0x4, 0x0)) == [0x1000, 0x2000]


def test_ensemble_all_members_observe_every_access():
    sisb = SISBPrefetcher()
    ensemble = EnsemblePrefetcher([NextLinePrefetcher(degree=2), sisb])
    trace = build_trace(seq_addresses(20) * 2)
    generate_prefetches(ensemble, trace)
    # SISB's successor map must be warm even though NL won all slots.
    assert len(sisb._successor) > 0
