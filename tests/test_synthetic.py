"""Tests for the synthetic access-stream primitives."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.traces.synthetic import (
    DeltaPatternStream,
    InterleavedPatternStream,
    PointerChaseStream,
    SequentialStream,
    StreamMixer,
    TemporalReplayStream,
)
from repro.types import BLOCKS_PER_PAGE, deltas_of, page_of, page_offset


def take(stream, n):
    return list(itertools.islice(iter(stream), n))


def test_sequential_stream_is_next_line():
    stream = SequentialStream(pc=0x4, start_page=10)
    accesses = take(stream, 10)
    blocks = [a >> 6 for _, a in accesses]
    assert deltas_of(blocks) == (1,) * 9
    assert all(pc == 0x4 for pc, _ in accesses)


def test_sequential_stream_stride_and_wrap():
    stream = SequentialStream(pc=0x4, start_page=10, stride=3,
                              region_pages=1)
    blocks = [a >> 6 for _, a in take(stream, 30)]
    assert all(10 * 64 <= b < 11 * 64 for b in blocks)


def test_sequential_stream_rejects_zero_stride():
    with pytest.raises(ConfigError):
        SequentialStream(pc=0x4, start_page=1, stride=0)


def test_delta_pattern_stream_repeats_pattern():
    stream = DeltaPatternStream(pc=0x4, pattern=(1, 2, 3), first_page=100)
    offsets = [page_offset(a) for _, a in take(stream, 12)]
    # Within the first page, deltas cycle 1,2,3.
    in_page = deltas_of(offsets)
    assert in_page[:5] == (1, 2, 3, 1, 2)


def test_delta_pattern_stream_uses_fresh_pages():
    stream = DeltaPatternStream(pc=0x4, pattern=(30,), first_page=100)
    pages = [page_of(a) for _, a in take(stream, 20)]
    # Pattern 30 fits ~3 accesses per page, then a new page.
    assert len(set(pages)) >= 6
    assert pages == sorted(pages)


def test_delta_pattern_stream_never_repeats_addresses():
    stream = DeltaPatternStream(pc=0x4, pattern=(1, 2), first_page=100)
    addresses = [a for _, a in take(stream, 500)]
    assert len(set(addresses)) == len(addresses)


def test_delta_pattern_rejects_bad_patterns():
    with pytest.raises(ConfigError):
        DeltaPatternStream(pc=0x4, pattern=(), first_page=1)
    with pytest.raises(ConfigError):
        DeltaPatternStream(pc=0x4, pattern=(1, 0), first_page=1)


def test_delta_pattern_noise_changes_stream():
    clean = [a for _, a in take(
        DeltaPatternStream(pc=0x4, pattern=(2, 3), first_page=1, seed=5), 200)]
    noisy = [a for _, a in take(
        DeltaPatternStream(pc=0x4, pattern=(2, 3), first_page=1, seed=5,
                           noise=0.5), 200)]
    assert clean != noisy


def test_temporal_replay_repeats_exactly():
    stream = TemporalReplayStream(pc=0x4, length=50, region_page=10, seed=2)
    accesses = take(stream, 150)
    first = [a for _, a in accesses[:50]]
    second = [a for _, a in accesses[50:100]]
    third = [a for _, a in accesses[100:150]]
    assert first == second == third


def test_temporal_replay_rejects_short_length():
    with pytest.raises(ConfigError):
        TemporalReplayStream(pc=0x4, length=1, region_page=0)


def test_pointer_chase_mostly_irregular():
    stream = PointerChaseStream(pc=0x4, region_page=0, locality=0.0, seed=3)
    addresses = [a for _, a in take(stream, 300)]
    # With zero locality, essentially no exact repeats are expected.
    assert len(set(addresses)) > 290


def test_interleaved_stream_has_two_pcs_sharing_pages():
    stream = InterleavedPatternStream(
        pc_a=0xA, pc_b=0xB, pattern_a=(1, 2), pattern_b=(3,),
        first_page=50, seed=1)
    accesses = take(stream, 200)
    pcs = {pc for pc, _ in accesses}
    assert pcs == {0xA, 0xB}
    pages_a = {page_of(a) for pc, a in accesses if pc == 0xA}
    pages_b = {page_of(a) for pc, a in accesses if pc == 0xB}
    assert pages_a & pages_b  # genuinely shared pages


def test_interleaved_stream_per_pc_deltas_are_clean():
    stream = InterleavedPatternStream(
        pc_a=0xA, pc_b=0xB, pattern_a=(2,), pattern_b=(5,),
        first_page=50, seed=1)
    accesses = take(stream, 300)
    offsets_a = [page_offset(a) for pc, a in accesses if pc == 0xA]
    deltas = [d for d in deltas_of(offsets_a) if d > 0]
    assert set(deltas) == {2}


def test_interleaved_rejects_zero_delta():
    with pytest.raises(ConfigError):
        InterleavedPatternStream(pc_a=1, pc_b=2, pattern_a=(0,),
                                 pattern_b=(1,), first_page=0)


def test_stream_mixer_generates_requested_count():
    mixer = StreamMixer(
        [(SequentialStream(pc=0x4, start_page=0), 1.0)],
        mean_instr_gap=10, seed=0)
    trace = mixer.generate(100, name="m")
    assert len(trace) == 100
    assert trace.name == "m"


def test_stream_mixer_instruction_ids_strictly_increase():
    mixer = StreamMixer(
        [(SequentialStream(pc=0x4, start_page=0), 1.0),
         (PointerChaseStream(pc=0x8, region_page=100), 1.0)],
        mean_instr_gap=5, seed=0)
    trace = mixer.generate(500)
    ids = [a.instr_id for a in trace]
    assert all(b > a for a, b in zip(ids, ids[1:]))


def test_stream_mixer_mean_gap_approximates_target():
    mixer = StreamMixer(
        [(SequentialStream(pc=0x4, start_page=0), 1.0)],
        mean_instr_gap=50, seed=0)
    trace = mixer.generate(2000)
    mean_gap = trace[-1].instr_id / len(trace)
    assert 40 < mean_gap < 60


def test_stream_mixer_deterministic_by_seed():
    def build():
        return StreamMixer(
            [(SequentialStream(pc=0x4, start_page=0), 1.0),
             (PointerChaseStream(pc=0x8, region_page=100, seed=1), 2.0)],
            mean_instr_gap=10, seed=7).generate(200)
    assert build() == build()


def test_stream_mixer_validation():
    with pytest.raises(ConfigError):
        StreamMixer([], mean_instr_gap=10)
    with pytest.raises(ConfigError):
        StreamMixer([(SequentialStream(pc=1, start_page=0), 1.0)],
                    mean_instr_gap=0.5)
