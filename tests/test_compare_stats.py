"""The significance-tested compare gate and the statistical dashboard
ranking — the observability surfaces wired to :mod:`repro.harness.stats`.

The two pinned acceptance behaviours live here: identical-distribution
runs must pass ``--stats`` even when individual cells differ by more
than the 25% threshold (noise must not fail CI), and a genuinely
injected slowdown must exit 1.
"""

import json
import random

import pytest

from repro.errors import ConfigError
from repro.harness.compare import (
    DEFAULT_MAX_REGRESS,
    CompareResult,
    StatRow,
    compare_artifacts,
)
from repro.harness.dashboard import render_dashboard
from repro.obs import read_ledger
from repro.obs.ledger import RunLedger


# ------------------------------------------------------------ fixtures

def _multi_seed_ledger(path, *, seeds=8, timing_scale=1.0, noise=0.0,
                       speedup=1.05, prefetchers=("pf",), rng_seed=7):
    """A ledger with one (cc-5 × prefetcher) cell per seed.

    ``noise`` jitters each cell's timings multiplicatively, so two
    ledgers built with the same ``rng_seed`` but different draws model
    two equally-fast-but-noisy runs.
    """
    rng = random.Random(rng_seed)
    ledger = RunLedger(path, path.stem)
    ledger.write_manifest("run", ["run"], {"w": "cc-5"},
                          seeds=list(range(seeds)))
    for seed in range(seeds):
        for name in prefetchers:
            jitter = 1.0 + noise * (2.0 * rng.random() - 1.0)
            ledger.record_cell(
                cell=f"cc-5:{name}:{seed}", key=f"cc-5:{name}:{seed}",
                seed=seed, workload="cc-5", prefetcher=name,
                metrics={"speedup": speedup + 0.01 * rng.random(),
                         "accuracy": 0.7, "coverage": 0.3},
                timings={"prefetch_file_s": 0.010 * timing_scale * jitter,
                         "replay_s": 0.004 * timing_scale * jitter})
    ledger.finish(1.0)
    return path


# ------------------------------------------- ledger significance gate

def test_noisy_but_identical_distributions_pass_stats_gate(tmp_path):
    """The pinned behaviour: same distribution, raw deltas > 25%,
    threshold gate fails, significance gate passes."""
    a = _multi_seed_ledger(tmp_path / "a.jsonl", noise=0.6, rng_seed=7)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", noise=0.6, rng_seed=8)
    threshold = compare_artifacts(a, b)
    assert not threshold.ok  # some jittered cell pair exceeds +25%
    stats = compare_artifacts(a, b, use_stats=True)
    assert stats.ok
    assert stats.gate == "significance"
    assert stats.regressions == []


def test_injected_slowdown_fails_stats_gate(tmp_path):
    a = _multi_seed_ledger(tmp_path / "a.jsonl", timing_scale=1.0)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", timing_scale=2.0)
    result = compare_artifacts(a, b, use_stats=True)
    assert not result.ok
    assert len(result.regressions) == 2  # prefetch_file_s and replay_s
    assert all("p=" in message for message in result.regressions)


def test_significant_drift_below_max_regress_passes(tmp_path):
    """A consistent +10% ambient drift is statistically significant
    (every repeat slower, perfect separation) but under the magnitude
    floor, so the --stats gate must not call it a code regression."""
    a = _multi_seed_ledger(tmp_path / "a.jsonl", timing_scale=1.0)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", timing_scale=1.10)
    result = compare_artifacts(a, b, use_stats=True)
    assert result.ok
    assert result.gate == "significance"
    # the drift still shows up as significant rows in the report...
    timing_rows = [row for row in result.stats
                   if row.metric in ("prefetch_file_s", "replay_s")]
    assert timing_rows and all(
        row.p_adjusted is not None and row.p_adjusted <= 0.05
        for row in timing_rows)
    # ...it just doesn't gate.
    assert result.regressions == []


def test_speedup_gain_is_not_a_regression(tmp_path):
    a = _multi_seed_ledger(tmp_path / "a.jsonl", timing_scale=2.0)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", timing_scale=1.0)
    assert compare_artifacts(a, b, use_stats=True).ok


def test_stats_rows_cover_timings_and_rates(tmp_path):
    a = _multi_seed_ledger(tmp_path / "a.jsonl")
    b = _multi_seed_ledger(tmp_path / "b.jsonl")
    result = compare_artifacts(a, b, use_stats=True)
    by_metric = {row.metric for row in result.stats}
    assert {"prefetch_file_s", "replay_s", "speedup", "accuracy",
            "coverage"} <= by_metric
    for row in result.stats:
        assert isinstance(row, StatRow)
        assert row.n_a == row.n_b == 8
        assert 0.0 <= row.p_value <= 1.0
        assert row.ci_low <= row.ci_high
        assert -1.0 <= row.effect <= 1.0
    # Gated timing rows carry a Holm-adjusted p; rate rows do not.
    timing_rows = [r for r in result.stats
                   if r.metric in ("prefetch_file_s", "replay_s")]
    rate_rows = [r for r in result.stats if r.metric == "speedup"]
    assert all(r.p_adjusted is not None for r in timing_rows)
    assert all(r.p_adjusted is None for r in rate_rows)


def test_under_sampled_cells_fall_back_to_threshold(tmp_path):
    a = _multi_seed_ledger(tmp_path / "a.jsonl", seeds=2)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", seeds=2,
                           timing_scale=2.0)
    result = compare_artifacts(a, b, use_stats=True)
    # Two seeds is below MIN_SAMPLES_FOR_STATS: the threshold gate
    # still catches the 2x slowdown.
    assert result.gate == "threshold"
    assert not result.ok


def _two_group_ledger(path, *, few_scale=1.0):
    """Group ``cc-5:pf`` with 8 seeds and group ``cc-5:few`` with 2,
    whose ``replay_s`` is scaled by ``few_scale``."""
    ledger = RunLedger(path, path.stem)
    ledger.write_manifest("run", ["run"], {"w": "cc-5"},
                          seeds=list(range(8)))
    for name, seeds, scale in (("pf", 8, 1.0), ("few", 2, few_scale)):
        for seed in range(seeds):
            ledger.record_cell(
                cell=f"cc-5:{name}:{seed}", key=f"cc-5:{name}:{seed}",
                seed=seed, workload="cc-5", prefetcher=name,
                metrics={"speedup": 1.05, "accuracy": 0.7,
                         "coverage": 0.3},
                timings={"prefetch_file_s": 0.010,
                         "replay_s": 0.004 * scale})
    ledger.finish(1.0)
    return path


def test_under_sampled_group_takes_mixed_gate(tmp_path):
    """Timings the significance gate cannot cover (a group with too few
    seeds) fall back to the threshold rule instead of going ungated."""
    a = _two_group_ledger(tmp_path / "a.jsonl")
    b = _two_group_ledger(tmp_path / "b.jsonl", few_scale=10.0)
    result = compare_artifacts(a, b, use_stats=True)
    assert result.gate == "mixed"
    assert len(result.regressions) == 2
    assert all(m.startswith("cc-5:few:") and ".replay_s:" in m
               and "p=" not in m for m in result.regressions)
    # The well-sampled group kept its significance-gated rows.
    gated = {(row.label, row.metric) for row in result.stats
             if row.p_adjusted is not None}
    assert gated == {("cc-5:pf", "prefetch_file_s"),
                     ("cc-5:pf", "replay_s")}


def test_stats_format_renders_the_table(tmp_path):
    a = _multi_seed_ledger(tmp_path / "a.jsonl")
    b = _multi_seed_ledger(tmp_path / "b.jsonl")
    text = compare_artifacts(a, b, use_stats=True).format()
    assert "Statistical comparison" in text
    assert "holm p" in text
    assert "No statistically significant timing regressions." in text


def test_compare_result_defaults_to_threshold_gate():
    assert CompareResult(kind="ledger").gate == "threshold"


def test_compare_rejects_mixed_artifact_kinds(tmp_path, capsys):
    """A bench-report-shaped JSON object is not an artifact ``repro
    compare`` reads: a usage error (exit 2), not a traceback."""
    from repro.cli import main

    bench_path = tmp_path / "bench.json"
    bench_path.write_text(json.dumps(
        {"schema_version": 3, "workload": "cc-5", "n_accesses": 1000,
         "seed": 1, "prefetchers": {"nextline": {"replay_s": 0.01}}},
        indent=2))
    ledger_path = _multi_seed_ledger(tmp_path / "run.jsonl")
    with pytest.raises(ConfigError):
        compare_artifacts(bench_path, ledger_path)
    for args in ([str(ledger_path), str(bench_path)],
                 [str(ledger_path), str(bench_path), "--stats"]):
        assert main(["compare", *args]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and "Traceback" not in out


# --------------------------------------------------- CLI exit contract

def test_cli_compare_stats_exit_codes(tmp_path, capsys):
    from repro.cli import main

    a = _multi_seed_ledger(tmp_path / "a.jsonl", noise=0.6, rng_seed=7)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", noise=0.6, rng_seed=8)
    slow = _multi_seed_ledger(tmp_path / "slow.jsonl", timing_scale=2.0)
    assert main(["compare", str(a), str(b), "--stats"]) == 0
    assert "Statistical comparison" in capsys.readouterr().out
    assert main(["compare", str(a), str(slow), "--stats"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    missing = tmp_path / "nope.json"
    assert main(["compare", str(a), str(missing), "--stats"]) == 2
    assert "error:" in capsys.readouterr().out
    # A readable file that is not a run ledger is also a usage error
    # (exit 2), not a traceback.
    not_an_artifact = tmp_path / "notes.md"
    not_an_artifact.write_text("# not an artifact\n")
    assert main(["compare", str(a), str(not_an_artifact),
                 "--stats"]) == 2
    assert "error:" in capsys.readouterr().out


def test_cli_compare_threshold_still_default(tmp_path, capsys):
    from repro.cli import main

    a = _multi_seed_ledger(tmp_path / "a.jsonl", noise=0.6, rng_seed=7)
    b = _multi_seed_ledger(tmp_path / "b.jsonl", noise=0.6, rng_seed=8)
    assert main(["compare", str(a), str(b)]) == 1  # noise trips 25%
    out = capsys.readouterr().out
    assert "Statistical comparison" not in out


# -------------------------------------------------------- dashboard

def _two_prefetcher_ledger(tmp_path):
    return _multi_seed_ledger(tmp_path / "two.jsonl", seeds=6,
                              prefetchers=("fast", "slow"))


def test_dashboard_ranking_section(tmp_path):
    path = tmp_path / "rank.jsonl"
    rng = random.Random(3)
    ledger = RunLedger(path, "rank")
    ledger.write_manifest("run", [], {}, seeds=list(range(6)))
    for seed in range(6):
        for name, speedup in (("fast", 1.4), ("slow", 1.05)):
            ledger.record_cell(
                cell=f"cc-5:{name}:{seed}", key=f"cc-5:{name}:{seed}",
                seed=seed, workload="cc-5", prefetcher=name,
                metrics={"speedup": speedup + 0.02 * rng.random(),
                         "accuracy": 0.7, "coverage": 0.3},
                timings={"prefetch_file_s": 0.01, "replay_s": 0.004})
    ledger.finish(1.0)
    html = render_dashboard(ledger=read_ledger(path))
    assert "Prefetcher ranking" in html
    assert "not statistically distinguishable" in html
    # CI whiskers are drawn as SVG lines; groups as letters in a table.
    assert "<line" in html
    assert ">fast<" in html and ">slow<" in html


def test_dashboard_ranking_needs_enough_samples(tmp_path):
    # One prefetcher (nothing to rank against) → section omitted.
    path = _multi_seed_ledger(tmp_path / "one.jsonl")
    html = render_dashboard(ledger=read_ledger(path))
    assert "Prefetcher ranking" not in html


# ------------------------------------------------------ constants

def test_default_max_regress_is_single_sourced():
    from repro import cli
    from repro.harness import compare as compare_module
    import inspect

    assert DEFAULT_MAX_REGRESS == 0.25
    # No stray hard-coded 0.25 thresholds left in the call signatures.
    for fn in (compare_module.timing_regression,
               compare_module.compare_ledgers,
               compare_module.compare_artifacts):
        assert inspect.signature(fn).parameters["max_regress"].default \
            == DEFAULT_MAX_REGRESS
    parser = cli.build_parser()
    # argparse stores subparser defaults on the compare subparser.
    assert parser.parse_args(["compare", "a", "b"]).max_regress \
        == DEFAULT_MAX_REGRESS
