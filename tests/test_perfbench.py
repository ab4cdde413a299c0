"""The perf-regression report: generation, schema validation, round-trip."""

import pytest

from repro.errors import ConfigError
from repro.harness.perfbench import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    bench_samples,
    compare_bench,
    load_bench,
    run_bench,
    save_bench,
    validate_bench,
)


@pytest.fixture(scope="module")
def report():
    return run_bench(prefetchers=("nextline", "pathfinder"),
                     workload="cc-5", n_accesses=600, seed=1)


def test_report_is_valid_and_complete(report):
    validate_bench(report)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["replay_engine"] == "batch"
    assert report["trace_gen_s"] >= 0.0
    assert report["baseline_replay_s"] >= 0.0
    # The headline is the batch engine; the explicit key restates it.
    assert report["baseline_replay_batch_s"] == report["baseline_replay_s"]
    assert report["baseline_replay_reference_s"] >= 0.0
    assert set(report["prefetchers"]) == {"nextline", "pathfinder"}
    for cell in report["prefetchers"].values():
        assert cell["prefetch_file_s"] >= 0.0
        assert cell["replay_s"] >= 0.0
        assert cell["replay_batch_s"] == cell["replay_s"]
        assert cell["replay_reference_s"] >= 0.0
        assert cell["replay_speedup"] > 0.0
        assert cell["speedup"] > 0.0
        assert cell["issued"] >= 0


def test_v3_reports_carry_per_repeat_samples(report):
    assert report["schema_version"] == 3
    for key in ("trace_gen_s", "baseline_replay_s",
                "baseline_replay_batch_s", "baseline_replay_reference_s"):
        samples = report["samples"][key]
        assert len(samples) == report["repeats"]
        assert min(samples) == report[key]
    for cell in report["prefetchers"].values():
        for key in ("prefetch_file_s", "replay_s", "replay_batch_s",
                    "replay_reference_s"):
            samples = cell["samples"][key]
            assert len(samples) == report["repeats"]
            assert min(samples) == cell[key]


def test_bench_samples_accessor(report):
    assert bench_samples(report, "baseline_replay_s") == \
        report["samples"]["baseline_replay_s"]
    assert bench_samples(report, "replay_s", prefetcher="nextline") == \
        report["prefetchers"]["nextline"]["samples"]["replay_s"]
    assert bench_samples(report, "replay_s", prefetcher="nope") is None


def _as_v2(report):
    """Strip a v3 report down to the schema-v2 layout.

    Also strips the batch-era keys (``replay_batch_s`` et al.): a real
    committed v2 baseline predates the batch engine entirely.
    """
    import copy

    v2 = copy.deepcopy(report)
    v2["schema_version"] = 2
    v2["replay_engine"] = "fast"
    v2.pop("samples")
    v2.pop("baseline_replay_batch_s")
    for cell in v2["prefetchers"].values():
        cell.pop("samples")
        cell.pop("replay_batch_s")
    return v2


def test_schema_v2_reports_still_validate_and_compare(report):
    """Committed baselines predating the samples field must not break."""
    assert set(SUPPORTED_SCHEMA_VERSIONS) == {2, 3}
    v2 = _as_v2(report)
    validate_bench(v2)
    assert compare_bench(report, v2) == []  # v3 vs v2 baseline
    assert bench_samples(v2, "baseline_replay_s") is None
    assert bench_samples(v2, "replay_s", prefetcher="nextline") is None


def test_schema_v2_round_trips_through_disk(report, tmp_path):
    path = tmp_path / "bench_v2.json"
    v2 = _as_v2(report)
    save_bench(v2, path)
    assert load_bench(path) == v2


def test_report_round_trips_through_disk(report, tmp_path):
    path = tmp_path / "bench.json"
    save_bench(report, path)
    loaded = load_bench(path)
    assert loaded == report


def test_repeats_take_the_minimum():
    fast = run_bench(prefetchers=("nextline",), n_accesses=400, repeats=2)
    assert fast["repeats"] == 2
    validate_bench(fast)


def test_unknown_prefetcher_rejected():
    with pytest.raises(ConfigError):
        run_bench(prefetchers=("nope",), n_accesses=400)


def test_bad_arguments_rejected():
    with pytest.raises(ConfigError):
        run_bench(prefetchers=(), n_accesses=400)
    with pytest.raises(ConfigError):
        run_bench(prefetchers=("nextline",), n_accesses=400, repeats=0)


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("trace_gen_s"),
    lambda r: r.pop("replay_engine"),
    lambda r: r.pop("baseline_replay_reference_s"),
    lambda r: r.update(schema_version=99),
    lambda r: r.update(replay_engine="turbo"),
    lambda r: r.update(prefetchers={}),
    lambda r: r["prefetchers"]["nextline"].pop("replay_s"),
    lambda r: r["prefetchers"]["nextline"].pop("replay_reference_s"),
    lambda r: r["prefetchers"]["nextline"].pop("replay_speedup"),
    lambda r: r["prefetchers"]["nextline"].update(prefetch_file_s=-1.0),
    lambda r: r["prefetchers"]["nextline"].pop("speedup"),
    # v3: samples are mandatory and must match ``repeats``.
    lambda r: r.pop("samples"),
    lambda r: r["samples"].update(trace_gen_s=[]),
    lambda r: r["samples"]["baseline_replay_s"].append(0.1),
    lambda r: r["prefetchers"]["nextline"].pop("samples"),
    lambda r: r["prefetchers"]["nextline"]["samples"].update(
        replay_s=[-0.5]),
    lambda r: r.update(repeats="three"),
    # Batch-era keys are optional, but garbage when present is rejected.
    lambda r: r.update(baseline_replay_batch_s=-1.0),
    lambda r: r["prefetchers"]["nextline"].update(replay_batch_s=-1.0),
    lambda r: r["prefetchers"]["nextline"]["samples"].update(
        replay_batch_s=[-0.5]),
])
def test_validate_rejects_malformed_reports(report, mutate):
    import copy

    broken = copy.deepcopy(report)
    mutate(broken)
    with pytest.raises(ConfigError):
        validate_bench(broken)


def test_compare_passes_identical_reports(report):
    assert compare_bench(report, report) == []


def test_compare_flags_replay_regressions(report):
    import copy

    slow = copy.deepcopy(report)
    slow["baseline_replay_s"] = report["baseline_replay_s"] * 2.0 + 1.0
    slow["prefetchers"]["nextline"]["replay_s"] = (
        report["prefetchers"]["nextline"]["replay_s"] * 2.0 + 1.0)
    regressions = compare_bench(slow, report, max_regress=0.25)
    assert len(regressions) == 2
    assert any("baseline_replay_s" in line for line in regressions)
    assert any("nextline.replay_s" in line for line in regressions)
    # A generous allowance lets the same slowdown through.  (It has to
    # be absurdly generous: the +1s constant above is five orders of
    # magnitude beyond a sub-millisecond batch replay.)
    assert compare_bench(slow, report, max_regress=1e7) == []


def test_compare_rejects_mismatched_experiments(report):
    import copy

    other = copy.deepcopy(report)
    other["n_accesses"] = report["n_accesses"] + 1
    with pytest.raises(ConfigError):
        compare_bench(other, report)


def test_committed_report_still_loads():
    """The committed baseline predates the two-engine bench; CI's
    regression gate must keep comparing against it."""
    from pathlib import Path

    committed = load_bench(Path(__file__).resolve().parents[1]
                           / "BENCH_perf.json")
    assert committed["replay_engine"] == "batch"


def test_load_rejects_unreadable(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_bench(missing)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ConfigError):
        load_bench(garbage)
