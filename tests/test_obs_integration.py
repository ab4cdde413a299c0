"""Integration tests: observability threaded through sim/harness/CLI."""

import dataclasses
import json
from collections import Counter as TallyCounter
from unittest import mock

import pytest

from repro import make_trace, simulate
from repro.cli import main
from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.core import pathfinder as pathfinder_module
from repro.harness.reporting import summarize_events
from repro.harness.runner import (
    Evaluation,
    default_hierarchy,
    make_prefetcher,
    run_prefetcher,
)
from repro.obs import (
    MemorySink,
    Observability,
    SeriesCollector,
    Tracer,
    read_events,
)
from repro.prefetchers import NextLinePrefetcher, generate_prefetches
from repro.snn.ckernel import load_kernel


def _evaluate_with_events(workload="cc-5", prefetcher="nextline",
                          n_accesses=2500):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    evaluation = Evaluation(n_accesses=n_accesses, seed=1, obs=obs)
    row = evaluation.run(workload, prefetcher)
    return row, obs, sink.events


def test_events_reconcile_with_sim_result():
    row, _, events = _evaluate_with_events()
    counts = TallyCounter(e["event"] for e in events)
    assert counts["pf.issued"] == row.result.pf_issued > 0
    assert counts["pf.late"] == row.result.pf_late
    assert (counts["pf.useful"] + counts["pf.late"]) == row.result.pf_useful
    assert counts["pf.dropped"] == row.result.extra.get("pf_dropped", 0)
    assert counts["pf.evicted_unused"] == row.result.extra["pf_unused_evicted"]
    # fills can never exceed issues, and every lifecycle event carries
    # a block and a cycle.
    assert counts["pf.fill"] <= counts["pf.issued"]
    for event in events:
        if event["event"].startswith("pf."):
            assert "block" in event and "cycle" in event


def test_registry_mirrors_run_counters():
    row, obs, _ = _evaluate_with_events()
    counters = obs.registry.snapshot()["counters"]
    label = "{run=nextline,trace=cc-5}"
    assert counters[f"pf.issued{label}"] == row.result.pf_issued
    assert counters[f"pf.useful{label}"] == row.result.pf_useful
    assert (counters[f"cache.hits{{level=LLC,run=nextline,trace=cc-5}}"]
            == row.result.llc_hits)
    histograms = obs.registry.snapshot()["histograms"]
    wait = histograms[f"dram.queue_wait_cycles{label}"]
    assert wait["count"] == row.result.dram_requests


def test_eval_row_carries_timings():
    row, obs, _ = _evaluate_with_events()
    assert row.timings["prefetch_file_s"] >= 0.0
    assert row.timings["replay_s"] > 0.0
    flat = obs.profiler.flat()
    assert {"trace_gen", "baseline_replay", "prefetch_file",
            "replay"} <= set(flat)


def test_pathfinder_bridges_snn_telemetry():
    row, obs, events = _evaluate_with_events(prefetcher="pathfinder",
                                             n_accesses=800)
    snap = obs.registry.snapshot()
    scope = "{component=snn,prefetcher=pathfinder}"
    assert snap["counters"][f"snn.queries{scope}"] > 0
    assert snap["counters"][f"snn.stdp_updates{scope}"] > 0
    saturation = snap["histograms"][f"snn.weight_saturation{scope}"]
    assert saturation["count"] == 1
    assert 0.0 <= saturation["min"] == saturation["max"] <= 1.0
    intervals = snap["histograms"][f"snn.spikes_per_interval{scope}"]
    assert intervals["count"] == snap["counters"][f"snn.queries{scope}"]
    summaries = [e for e in events if e["event"] == "snn.summary"]
    assert len(summaries) == 1
    assert summaries[0]["queries"] == snap["counters"][f"snn.queries{scope}"]


#: Observed bundles: enabled metrics only, an event tracer, a series.
_BUNDLES = {
    "enabled": Observability,
    "tracer": lambda: Observability(tracer=Tracer(MemorySink())),
    "series": lambda: Observability(series=SeriesCollector(window=512)),
}


@pytest.mark.skipif(load_kernel() is None,
                    reason="no C compiler available for the kernel")
@pytest.mark.parametrize("bundle", _BUNDLES)
@pytest.mark.parametrize("spec", ("pathfinder", "pathfinder+nl+sisb"))
@pytest.mark.filterwarnings("ignore::repro.errors.EngineFallbackWarning")
def test_observed_pathfinder_keeps_the_compiled_loop(spec, bundle,
                                                     monkeypatch):
    """Observing a cell never moves PATHFINDER off its compiled loop,
    and the observed cell measures what the unobserved one does."""
    trace = make_trace("cc-5", 3000, seed=1)
    hierarchy = default_hierarchy()
    baseline = simulate(trace, config=hierarchy)
    plain = run_prefetcher(trace, make_prefetcher(spec), baseline,
                           hierarchy)
    calls = []
    process = PathfinderPrefetcher.process
    monkeypatch.setattr(PathfinderPrefetcher, "process",
                        lambda self, access: calls.append(1)
                        or process(self, access))
    observed = run_prefetcher(trace, make_prefetcher(spec), baseline,
                              hierarchy, obs=_BUNDLES[bundle]())
    assert not calls, "an observed run left the compiled loop"
    # Timings are wall clock; extras name the replay loop, which event
    # tracing does choose.
    assert dataclasses.replace(observed, timings={}, extras={}) \
        == dataclasses.replace(plain, timings={}, extras={})


def _snn_telemetry(spec, trace):
    """The ``snn.*`` registry entries and events of one traced cell."""
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    hierarchy = default_hierarchy()
    run_prefetcher(trace, make_prefetcher(spec),
                   simulate(trace, config=hierarchy), hierarchy, obs=obs)
    entries = {kind: {key: value for key, value in values.items()
                      if key.startswith("snn.")}
               for kind, values in obs.registry.snapshot().items()}
    return entries, [e for e in sink.events
                     if e["event"].startswith("snn.")]


@pytest.mark.parametrize("spec, loads", [
    ("pathfinder", 2000),
    ("pathfinder+nl+sisb", 2000),
    (PathfinderConfig(one_tick=False, timesteps=8), 400),
], ids=("default", "pathfinder+nl+sisb", "multi-tick"))
@pytest.mark.filterwarnings("ignore::repro.errors.EngineFallbackWarning")
def test_snn_telemetry_same_without_the_kernel(spec, loads):
    """The telemetry reads counters both loops keep: a compiled-loop
    cell publishes exactly what the ``process()`` loop publishes."""
    trace = make_trace("cc-5", loads, seed=1)
    compiled = _snn_telemetry(spec, trace)
    with mock.patch.object(pathfinder_module, "load_kernel", lambda: None):
        scalar = _snn_telemetry(spec, trace)
    assert compiled == scalar
    entries, events = compiled
    scope = "{component=snn,prefetcher=pathfinder}"
    queries = entries["counters"][f"snn.queries{scope}"]
    histogram = entries["histograms"][f"snn.spikes_per_interval{scope}"]
    assert queries > 0
    assert histogram["count"] == queries
    assert histogram["total"] == entries["counters"][f"snn.spikes{scope}"]
    assert [e["queries"] for e in events
            if e["event"] == "snn.summary"] == [queries]


@pytest.mark.filterwarnings("ignore::repro.errors.EngineFallbackWarning")
def test_multi_cell_run_publishes_queries_not_intervals():
    """Each query is one interval, so the SNN telemetry has one name
    for the count: ``snn.queries``, summed over every cell."""
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    hierarchy = default_hierarchy()
    for workload in ("cc-5", "623-xalan-s1"):
        trace = make_trace(workload, 1500, seed=1)
        run_prefetcher(trace, make_prefetcher("pathfinder"),
                       simulate(trace, config=hierarchy), hierarchy, obs=obs)
    snap = obs.registry.snapshot()
    assert not [key for values in snap.values() for key in values
                if key.startswith("snn.intervals")]
    summaries = [e for e in sink.events if e["event"] == "snn.summary"]
    assert len(summaries) == 2
    assert not [e for e in summaries if "intervals" in e]
    scope = "{component=snn,prefetcher=pathfinder}"
    assert snap["counters"][f"snn.queries{scope}"] == sum(
        e["queries"] for e in summaries)


@pytest.mark.filterwarnings("ignore::repro.errors.EngineFallbackWarning")
def test_weight_saturation_keeps_every_cell(tmp_path, capsys):
    """``snn.weight_saturation`` is observed once per PATHFINDER run, so
    a two-cell grid keeps both cells' values, serial or ``--jobs 2``."""
    snapshots = []
    for jobs in ("1", "2"):
        metrics = tmp_path / f"m{jobs}.json"
        events = tmp_path / f"e{jobs}.jsonl"
        assert main(["experiment", "table6", "--loads", "4000",
                     "--workloads", "cc-5,623-xalan-s1", "--jobs", jobs,
                     "--metrics-out", str(metrics),
                     "--events-out", str(events), "--no-ledger"]) == 0
        capsys.readouterr()
        snapshots.append(json.loads(metrics.read_text())["metrics"])
        values = sorted(e["weight_saturation"] for e in read_events(events)
                        if e["event"] == "snn.summary")
        assert len(values) == 2
        scope = "{component=snn,prefetcher=pathfinder}"
        saturation = snapshots[-1]["histograms"][
            f"snn.weight_saturation{scope}"]
        assert saturation["count"] == 2
        assert [saturation["min"], saturation["max"]] == values
        assert not [key for key in snapshots[-1]["gauges"]
                    if key.startswith("snn.")]
    assert snapshots[0] == snapshots[1]


def test_disabled_observability_matches_plain_result():
    trace = make_trace("cc-5", 2000, seed=1)
    requests = generate_prefetches(NextLinePrefetcher(degree=2), trace)
    hierarchy = default_hierarchy()
    plain = simulate(trace, requests, config=hierarchy,
                     prefetcher_name="nextline")
    observed = simulate(trace, requests, config=hierarchy,
                        prefetcher_name="nextline",
                        obs=Observability(tracer=Tracer(MemorySink())))
    assert plain == observed  # bit-for-bit SimResult parity


def test_dropped_prefetches_counted_and_mirrored_as_float():
    trace = make_trace("cc-5", 2000, seed=1)
    requests = generate_prefetches(NextLinePrefetcher(degree=2), trace)
    result = simulate(trace, requests, config=default_hierarchy(),
                      prefetcher_name="nextline")
    dropped = result.extra.get("pf_dropped", 0.0)
    assert isinstance(dropped, float)
    assert dropped > 0


def test_summarize_events_tables():
    _, _, events = _evaluate_with_events()
    tables = summarize_events(events)
    titles = [title for title, _, _ in tables]
    assert "Simulation runs" in titles
    assert "Prefetch lifecycle" in titles
    lifecycle = next(rows for title, _, rows in tables
                     if title == "Prefetch lifecycle")
    by_stage = {row[0]: row[1] for row in lifecycle}
    counts = TallyCounter(e["event"] for e in events)
    assert by_stage["pf.issued"] == counts["pf.issued"]
    assert (by_stage["useful (total = useful + late)"]
            == counts["pf.useful"] + counts["pf.late"])


# -- CLI ---------------------------------------------------------------------

def test_cli_run_events_and_metrics_out(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    metrics_path = tmp_path / "metrics.json"
    assert main(["run", "cc-5", "nextline", "--loads", "2000",
                 "--events-out", str(events_path),
                 "--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out

    events = read_events(events_path)
    assert events, "events file must parse and be non-empty"
    counts = TallyCounter(e["event"] for e in events)
    run_end = next(e for e in events
                   if e["event"] == "run.end" and e["prefetcher"] == "nextline")
    # Event-level lifecycle counts reconcile with the run summary.
    assert counts["pf.issued"] == run_end["pf_issued"]
    assert counts["pf.useful"] + counts["pf.late"] == run_end["pf_useful"]
    assert counts["pf.dropped"] == run_end["pf_dropped"]

    snapshot = json.loads(metrics_path.read_text())
    label = "{run=nextline,trace=cc-5}"
    assert snapshot["metrics"]["counters"][f"pf.issued{label}"] \
        == run_end["pf_issued"]
    assert snapshot["profile"]["children"]


def test_cli_run_budget_and_hierarchy_flags(capsys):
    assert main(["run", "cc-5", "nextline", "--loads", "1000",
                 "--budget", "1", "--hierarchy", "full"]) == 0
    out = capsys.readouterr().out
    assert "budget 1" in out
    assert "full hierarchy" in out


def test_cli_budget_flag_limits_issue_rate(tmp_path):
    def issued(budget):
        events_path = tmp_path / f"b{budget}.jsonl"
        assert main(["run", "cc-5", "nextline", "--loads", "1500",
                     "--budget", str(budget),
                     "--events-out", str(events_path)]) == 0
        counts = TallyCounter(e["event"] for e in read_events(events_path))
        return counts["pf.issued"] + counts["pf.dropped"]

    assert issued(1) < issued(2)


def test_cli_report_summarizes_events(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    assert main(["run", "cc-5", "nextline", "--loads", "1500",
                 "--events-out", str(events_path)]) == 0
    capsys.readouterr()
    assert main(["report", str(events_path)]) == 0
    out = capsys.readouterr().out
    assert "Prefetch lifecycle" in out
    assert "pf.issued" in out


def test_cli_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().out


def test_cli_experiment_obs_flags(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    metrics_path = tmp_path / "metrics.json"
    assert main(["experiment", "table9",
                 "--events-out", str(events_path),
                 "--metrics-out", str(metrics_path)]) == 0
    events = read_events(events_path)
    kinds = {e["event"] for e in events}
    assert "experiment.metric" in kinds
    assert "span" not in kinds
    snapshot = json.loads(metrics_path.read_text())
    (phase,) = [child for child in snapshot["profile"]["children"]
                if child["name"] == "experiment"]
    assert phase["calls"] == 1 and phase["wall_s"] > 0.0
    assert any(k.startswith("experiment.metric")
               for k in snapshot["metrics"]["gauges"])


def test_cli_run_peak_memory(capsys):
    assert main(["run", "cc-5", "nextline", "--loads", "1000",
                 "--peak-memory"]) == 0
    assert "peak memory" in capsys.readouterr().out
