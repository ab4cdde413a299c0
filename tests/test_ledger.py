"""Run ledger, HTML dashboard, and artifact comparison (observability v2)."""

import json
import re

import pytest

from repro.errors import ConfigError
from repro.harness.compare import (
    compare_artifacts,
    compare_ledgers,
    load_artifact,
)
from repro.harness.dashboard import render_dashboard
from repro.obs import read_ledger
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    active_ledger,
    config_fingerprint,
    current_run_id,
    finish_run,
    git_state,
    new_run_id,
    set_active_ledger,
    start_run,
)


# -- ledger unit behaviour ---------------------------------------------------

def test_run_ids_are_sortable_and_unique():
    a, b = new_run_id(), new_run_id()
    assert a != b
    assert "T" in a and "Z-" in a  # timestamp prefix + random tail


def test_config_fingerprint_is_order_independent():
    assert config_fingerprint({"a": 1, "b": 2}) == \
        config_fingerprint({"b": 2, "a": 1})
    assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


def test_git_state_degrades_outside_a_repo(tmp_path):
    state = git_state(cwd=tmp_path)
    assert state == {"sha": None, "dirty": None}


def test_ledger_roundtrip(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("run", ["run", "cc-5"], {"seed": 1}, seeds=[1])
    ledger.record_cell(cell="000:cc-5:spp", key="k0", seed=1,
                       workload="cc-5", prefetcher="spp",
                       metrics={"speedup": 1.1, "accuracy": 0.5},
                       timings={"replay_s": 0.2}, outcome="retried",
                       attempts=2, error="transient")
    ledger.append({"kind": "experiment", "experiment_id": "fig4",
                   "metrics": {"speedup:spp": 1.1}})
    ledger.finish(3.5, resilience={"timeouts": 1})
    parsed = read_ledger(path)
    manifest = parsed["manifest"]
    assert manifest["schema"] == LEDGER_SCHEMA
    assert manifest["run_id"] == "r1"
    assert manifest["config_fingerprint"] == config_fingerprint({"seed": 1})
    assert manifest["seeds"] == [1]
    (cell,) = parsed["cells"]
    assert cell["outcome"] == "retried" and cell["attempts"] == 2
    assert cell["error"] == "transient"
    assert cell["run_id"] == "r1"  # every record carries the run id
    assert parsed["experiments"][0]["experiment_id"] == "fig4"
    assert parsed["finish"]["wall_s"] == 3.5
    assert parsed["finish"]["resilience"] == {"timeouts": 1}


def test_read_ledger_tolerates_torn_tail(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("run", [], {})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "cell", "trunc')
    parsed = read_ledger(path)
    assert parsed["manifest"] is not None
    assert parsed["cells"] == []
    assert parsed["finish"] is None  # crashed run: no finish record


def test_read_ledger_tolerates_tail_torn_mid_utf8(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("run", [], {})
    with open(path, "ab") as fh:
        # Crash mid-append, truncating inside the Euro sign's three-byte
        # UTF-8 sequence: a strict decode of the file raises before any
        # line-level torn-tail handling could run.
        fh.write(b'{"kind": "cell", "cell": "\xe2\x82')
    parsed = read_ledger(path)
    assert parsed["manifest"] is not None
    assert parsed["cells"] == []
    assert parsed["finish"] is None


def test_read_ledger_rejects_interior_corruption(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind": "manifest"}\nBAD\n{"kind": "finish"}\n')
    with pytest.raises(ValueError, match="corrupt"):
        read_ledger(path)


def test_read_ledger_skips_unknown_kinds(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind": "manifest", "run_id": "r"}\n'
                    '{"kind": "from-the-future"}\n')
    parsed = read_ledger(path)
    assert parsed["manifest"]["run_id"] == "r"


def test_ledger_load_appends_under_original_run_id(tmp_path):
    path = tmp_path / "run.jsonl"
    original = RunLedger(path, "r1")
    original.write_manifest("campaign", [], {})
    original.append({"kind": "from-the-future", "payload": 1})
    reopened = RunLedger.load(path)
    assert reopened.run_id == "r1"
    reopened.finish(1.0)
    parsed = read_ledger(path)
    assert parsed["manifest"] is not None  # old records preserved
    assert parsed["finish"]["run_id"] == "r1"  # new ones share the id
    # Unknown kinds survive the load/flush round trip verbatim.
    lines = [json.loads(line) for line in
             path.read_text().splitlines() if line.strip()]
    assert any(record.get("kind") == "from-the-future"
               for record in lines)


def test_active_ledger_ambient_lifecycle(tmp_path):
    assert active_ledger() is None and current_run_id() is None
    ledger = start_run(tmp_path / "results", "run", ["run"], {"x": 1})
    try:
        assert active_ledger() is ledger
        assert current_run_id() == ledger.run_id
        assert ledger.path.exists()  # manifest persisted immediately
    finally:
        finish_run(ledger, 0.1)
    assert active_ledger() is None
    assert read_ledger(ledger.path)["finish"]["status"] == "ok"


@pytest.fixture(autouse=True)
def _clear_ambient_ledger():
    yield
    set_active_ledger(None)


# -- grid integration --------------------------------------------------------

def test_run_cells_records_cells_in_active_ledger(tmp_path):
    from repro.harness.runner import Evaluation

    ledger = start_run(tmp_path / "results", "test", [], {})
    try:
        Evaluation(n_accesses=800).run_cells(
            [("cc-5", "nextline"), ("cc-5", "spp")])
    finally:
        finish_run(ledger, 0.0)
    parsed = read_ledger(ledger.path)
    cells = parsed["cells"]
    assert [c["prefetcher"] for c in cells] == ["nextline", "spp"]
    for cell in cells:
        assert cell["workload"] == "cc-5"
        assert cell["seed"] == 1
        assert cell["outcome"] == "ok" and cell["row"]["ipc"] > 0
        assert set(cell["metrics"]) >= {"ipc", "speedup", "accuracy",
                                        "coverage", "issued", "useful"}
        assert cell["timings"]["replay_s"] >= 0.0
        assert json.loads(cell["key"])["workload"] == "cc-5"


def test_restored_cells_are_not_rerecorded_in_ledger(tmp_path):
    from repro.harness.runner import Evaluation
    from repro.obs.ledger import resume_run

    cells = [("cc-5", "nextline"), ("cc-5", "spp")]
    path = tmp_path / "grid.jsonl"
    for jobs in (1, 1, 2):
        ledger = resume_run(path, "test", [], {})
        try:
            rows = Evaluation(n_accesses=800).run_cells(cells[:jobs],
                                                        jobs=jobs)
        finally:
            finish_run(ledger, 0.0)
        assert len(rows) == jobs
    parsed = read_ledger(path)
    # One record per key however often the run resumes: the restored
    # cell is never recorded again, only the new one is appended.
    assert [c["prefetcher"] for c in parsed["cells"]] == ["nextline", "spp"]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["kind"] for r in lines].count("resume") == 2


def test_ledger_appends_are_one_line_each(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    for k in range(5):
        ledger.append({"kind": "note", "k": k})
        assert len(path.read_text().splitlines()) == k + 1
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["k"] for r in records] == list(range(5))
    # An append adds its own line and leaves the file's bytes alone: a
    # line the ledger never wrote survives the next append.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "note", "k": "external"}\n')
    ledger.append({"kind": "note", "k": 5})
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["k"] for r in records] == [0, 1, 2, 3, 4, "external", 5]


def test_ledger_torn_mid_record_reopens_and_appends(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("experiment", [], {})
    ledger.append({"kind": "cell", "key": "a", "metrics": {}})
    whole = path.read_bytes()
    ledger.append({"kind": "cell", "key": "b", "metrics": {"ipc": 2.0}})
    # A crash mid-append: half the second cell record, no newline.
    path.write_bytes(path.read_bytes()[:len(whole) + 20])
    reopened = RunLedger.load(path)
    reopened.append({"kind": "cell", "key": "c", "metrics": {}})
    reopened.finish(1.0)
    parsed = read_ledger(path)  # no interior corruption
    assert [c["key"] for c in parsed["cells"]] == ["a", "c"]
    assert parsed["finish"]["run_id"] == "r1"


# -- CLI integration ---------------------------------------------------------

def _ledger_paths(tmp_path):
    return sorted((tmp_path / "results").glob("*.jsonl"))


def test_cli_run_writes_ledger(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    assert main(["run", "cc-5", "nextline", "--loads", "600"]) == 0
    (path,) = _ledger_paths(tmp_path)
    parsed = read_ledger(path)
    manifest = parsed["manifest"]
    assert manifest["command"] == "run"
    assert manifest["argv"][:3] == ["run", "cc-5", "nextline"]
    assert manifest["config"]["prefetcher"] == "nextline"
    (cell,) = parsed["cells"]
    assert cell["prefetcher"] == "nextline"
    assert parsed["finish"]["status"] == "ok"
    assert "[run ledger:" in capsys.readouterr().out


def test_cli_no_ledger_flag(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    assert main(["run", "cc-5", "nextline", "--loads", "600",
                 "--no-ledger"]) == 0
    assert not _ledger_paths(tmp_path)
    assert "[run ledger:" not in capsys.readouterr().out


def test_cli_parallel_experiment_ledger_and_events(tmp_path, capsys,
                                                   monkeypatch):
    # The ISSUE's acceptance shape: a --jobs grid with --events-out has
    # spans/events from every cell tagged with run id + cell key, and
    # the ledger records one cell per grid cell plus the experiment.
    from repro.cli import main
    from repro.obs import read_events

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    events_path = tmp_path / "ev.jsonl"
    metrics_path = tmp_path / "m.json"
    assert main(["experiment", "table6", "--loads", "600",
                 "--workloads", "cc-5", "--jobs", "2",
                 "--events-out", str(events_path),
                 "--metrics-out", str(metrics_path)]) == 0
    (path,) = _ledger_paths(tmp_path)
    parsed = read_ledger(path)
    run_id = parsed["manifest"]["run_id"]
    cells = parsed["cells"]
    assert [c["prefetcher"] for c in cells] == ["spp", "pythia",
                                                "pathfinder"]
    # --events-out sends every cell to the reference loop, and a
    # fallback cell records no batch-engine timing.
    assert all(c["engine_used"] == "reference"
               and set(c["timings"]) == {"prefetch_file_s", "replay_s"}
               for c in cells)
    assert parsed["experiments"][0]["experiment_id"] == "table6"
    assert parsed["finish"]["status"] == "ok"
    events = read_events(events_path)
    tagged_cells = {e["cell"] for e in events if "cell" in e}
    assert {c["cell"] for c in cells} <= tagged_cells
    for event in events:
        if "cell" in event:
            assert event["run_id"] == run_id
    metrics = json.loads(metrics_path.read_text())
    assert metrics["run_id"] == run_id


# -- dashboard ---------------------------------------------------------------

def _sample_ledger(tmp_path, outcome="ok"):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("run", ["run", "cc-5", "spp"], {"seed": 1},
                          seeds=[1])
    ledger.record_cell(cell="000:cc-5:spp", key="k0", seed=1,
                       workload="cc-5", prefetcher="spp",
                       metrics={"speedup": 1.05, "accuracy": 0.42,
                                "coverage": 0.3, "issued": 100,
                                "useful": 40, "late": 8},
                       timings={"prefetch_file_s": 0.1, "replay_s": 0.4},
                       outcome=outcome)
    ledger.finish(1.2, resilience={"leases": 1, "completed": 1,
                                   "retries": 0, "worker_crashes": 0,
                                   "serial_fallback": False})
    return path


def test_dashboard_renders_well_formed_html(tmp_path):
    from html.parser import HTMLParser

    events = [{"event": "pf.issued", "seq": 1, "cell": "000"},
              {"event": "pf.fill", "seq": 2, "cell": "000"}]
    metrics = {"metrics": {"counters": {}, "gauges": {}, "histograms": {
        "dram.queue_wait_cycles{run=spp}": {
            "count": 3, "total": 30.0, "mean": 10.0, "min": 2.0,
            "max": 20.0, "p50": 8.0, "p99": 20.0,
            "buckets": {"le_8": 1, "le_16": 1, "le_inf": 1}}}},
        "profile": {"name": "total", "wall_s": 0.5, "calls": 1,
                    "children": [{"name": "replay", "wall_s": 0.4,
                                  "calls": 1}]}}
    html_text = render_dashboard(
        ledger=read_ledger(_sample_ledger(tmp_path)),
        events=events, metrics=metrics)

    class Auditor(HTMLParser):
        def __init__(self):
            super().__init__()
            self.tags = 0

        def handle_starttag(self, tag, attrs):
            self.tags += 1

    auditor = Auditor()
    auditor.feed(html_text)
    assert auditor.tags > 20
    assert html_text.startswith("<!DOCTYPE html>")
    # All inputs surfaced: manifest, cells, funnel, phases, histograms.
    for marker in ("r1", "000:cc-5:spp", "pf.issued", "replay",
                   "dram.queue_wait_cycles", "Run manifest",
                   "Prefetch lifecycle funnel", "<svg"):
        assert marker in html_text
    # Self-contained: no scripts, no external fetches.
    assert "<script" not in html_text
    assert "http://" not in html_text and "https://" not in html_text


def test_dashboard_escapes_untrusted_strings(tmp_path):
    path = tmp_path / "run.jsonl"
    ledger = RunLedger(path, "r1")
    ledger.write_manifest("run", ["<script>alert(1)</script>"], {})
    html_text = render_dashboard(ledger=read_ledger(path))
    assert "<script>" not in html_text
    assert "&lt;script&gt;" in html_text


def test_dashboard_marks_crashed_runs(tmp_path):
    path = tmp_path / "run.jsonl"
    RunLedger(path, "r1").write_manifest("run", [], {})
    html_text = render_dashboard(ledger=read_ledger(path))
    assert "crashed or was interrupted" in html_text


def test_dashboard_renders_with_no_inputs():
    assert "no artifacts" in render_dashboard()


def test_dashboard_degenerate_histograms_render_without_nan(tmp_path):
    # Regression: empty and single-bucket histograms used to produce
    # degenerate SVG axes (NaN/inf coordinates).  They must render as a
    # placeholder or a finite chart, never emit non-finite numbers.
    metrics = {"metrics": {"counters": {}, "gauges": {}, "histograms": {
        "empty_hist": {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
            "max": 0.0, "p50": 0.0, "p99": 0.0, "buckets": {}},
        "single_bucket": {
            "count": 3, "total": 9.0, "mean": 3.0, "min": 3.0,
            "max": 3.0, "p50": 3.0, "p99": 3.0,
            "buckets": {"le_inf": 3}},
        "poisoned": {
            "count": 2, "total": float("nan"), "mean": float("nan"),
            "min": 1.0, "max": float("inf"), "p50": 1.0, "p99": 1.0,
            "buckets": {"le_1": float("nan"), "le_inf": float("inf")}},
    }}, "profile": {"name": "total", "wall_s": 0.1, "calls": 1,
                    "children": []}}
    html_text = render_dashboard(metrics=metrics)
    # The textual stat line may echo nan/inf verbatim; the SVG charts
    # themselves must only contain finite coordinates.
    svg_chunks = re.findall(r"<svg.*?</svg>", html_text, re.DOTALL)
    assert svg_chunks, "finite histograms must still chart"
    for chunk in svg_chunks:
        assert "nan" not in chunk.lower()
        assert "inf" not in chunk.lower().replace("le_inf", "")
    assert "single_bucket" in html_text
    assert "(no data)" in html_text  # poisoned buckets fall back


def test_dashboard_bar_svg_guard_direct():
    from repro.harness.dashboard import _bar_svg

    assert _bar_svg([]) == "<p>(no data)</p>"
    assert _bar_svg([("a", float("nan")),
                     ("b", float("inf"))]) == "<p>(no data)</p>"
    svg = _bar_svg([("only", 0.0)])
    assert "<svg" in svg and "NaN" not in svg and "inf" not in svg
    # Booleans are not bar values even though bool subclasses int.
    assert _bar_svg([("flag", True)]) == "<p>(no data)</p>"


def test_dashboard_series_sections_render(tmp_path):
    from repro.obs import SeriesCollector

    collector = SeriesCollector(window=100)
    labels = {"component": "generation", "prefetcher": "pathfinder",
              "trace": "cc-5", "cell": "000:cc-5:pathfinder"}
    replay = {"component": "replay", "prefetcher": "pathfinder",
              "trace": "cc-5", "cell": "000:cc-5:pathfinder"}
    for i in range(12):
        collector.record("gen.pred_checked", i * 100, 10, **labels)
        collector.record("gen.pred_correct", i * 100,
                         2 + min(i, 7), **labels)
        collector.record("replay.l1_hits", i * 100, 80, **replay)
        collector.record("replay.l1_misses", i * 100, 20, **replay)
        collector.record("replay.llc_misses", i * 100,
                         15 if i < 6 else 3, **replay)
    html_text = render_dashboard(series=collector.snapshot())
    for marker in ("Learning curves", "Phase-annotated miss rate",
                   "<svg"):
        assert marker in html_text
    assert "NaN" not in html_text
    # The one miss-rate shift (0.15 -> 0.03 at access 600) is the one
    # Adaptation-lag row; accuracy never dips below its lead, so lag 0.
    assert html_text.count("<td>000:cc-5:pathfinder</td>") == 1
    assert ("<tr><td>000:cc-5:pathfinder</td><td>pathfinder</td>"
            "<td>cc-5</td><td>600</td><td>0.15</td><td>0.03</td>"
            "<td>0</td></tr>") in html_text


def test_cli_report_html(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "dash.html"
    assert main(["report", "--ledger", str(_sample_ledger(tmp_path)),
                 "--html", str(out)]) == 0
    assert out.read_text().startswith("<!DOCTYPE html>")
    assert "[dashboard written to" in capsys.readouterr().out


def test_cli_report_requires_some_input(capsys):
    from repro.cli import main

    assert main(["report"]) == 2
    assert "nothing to report" in capsys.readouterr().out


# -- compare -----------------------------------------------------------------

def _bench_report_file(path, **dump_kwargs):
    """Write a JSON object shaped like a perf-bench report, an artifact
    kind ``repro compare`` does not read."""
    report = {"schema_version": 3, "workload": "cc-5",
              "n_accesses": 1000, "seed": 1,
              "prefetchers": {"nextline": {"replay_s": 0.01}}}
    path.write_text(json.dumps(report, **dump_kwargs))
    return path


def test_load_artifact_detects_kinds(tmp_path):
    """Run ledgers are the only artifact kind ``load_artifact`` accepts."""
    ledger_path = _sample_ledger(tmp_path)
    assert load_artifact(ledger_path)["cells"]
    junk = tmp_path / "junk.json"
    junk.write_text('{"neither": true}')
    for path in (_bench_report_file(tmp_path / "report.json", indent=2),
                 _bench_report_file(tmp_path / "report_one_line.json"),
                 junk, tmp_path / "missing.json"):
        with pytest.raises(ConfigError):
            load_artifact(path)


def test_compare_ledgers_flags_injected_regression(tmp_path):
    # Acceptance: a >=25% replay-time regression must be flagged.
    path_a = _sample_ledger(tmp_path)
    records = [json.loads(line) for line in path_a.read_text().splitlines()]
    for record in records:
        if record["kind"] == "cell":
            record["timings"]["replay_s"] *= 1.30
    path_b = tmp_path / "regressed.jsonl"
    path_b.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    result = compare_artifacts(path_a, path_b)
    assert not result.ok
    assert any("replay_s" in message for message in result.regressions)
    # Within threshold the other way: comparing A to itself passes.
    assert compare_artifacts(path_a, path_a).ok


def test_compare_ledgers_reports_metric_deltas_and_anomalies():
    def ledgerish(speedup, accuracy, extra_cell=False):
        cells = [{"kind": "cell", "cell": "000:cc-5:spp", "key": "k0",
                  "outcome": "ok",
                  "metrics": {"speedup": speedup, "accuracy": accuracy,
                              "coverage": 0.3},
                  "timings": {"replay_s": 0.1, "prefetch_file_s": 0.1}}]
        if extra_cell:
            cells.append({"kind": "cell", "cell": "001:cc-5:bo",
                          "key": "k1", "metrics": {}, "timings": {}})
        return {"manifest": {"run_id": "x"}, "cells": cells,
                "experiments": [], "finish": None}

    result = compare_ledgers(ledgerish(1.2, 0.5),
                             ledgerish(1.1, 0.3, extra_cell=True))
    assert result.ok  # timings unchanged
    deltas = {(label, metric): delta
              for label, metric, _, _, delta in result.deltas}
    assert deltas[("000:cc-5:spp", "speedup")] == pytest.approx(-0.1)
    assert any("accuracy" in a for a in result.anomalies)  # 0.5 -> 0.3
    assert any("only present in run B" in a for a in result.anomalies)
    assert "No timing regressions." in result.format()


def test_compare_rejects_mixed_kinds(tmp_path):
    ledger_path = _sample_ledger(tmp_path)
    for report in (_bench_report_file(tmp_path / "report.json", indent=2),
                   _bench_report_file(tmp_path / "report_one_line.json")):
        with pytest.raises(ConfigError, match="not a run ledger"):
            compare_artifacts(ledger_path, report)
        with pytest.raises(ConfigError, match="not a run ledger"):
            compare_artifacts(report, ledger_path)
    with pytest.raises(ConfigError, match="cannot read"):
        compare_artifacts(ledger_path, tmp_path / "missing.json")


def test_cli_compare_exit_codes(tmp_path, capsys):
    from repro.cli import main

    path_a = _sample_ledger(tmp_path)
    assert main(["compare", str(path_a), str(path_a)]) == 0
    assert "No timing regressions" in capsys.readouterr().out
    records = [json.loads(line) for line in path_a.read_text().splitlines()]
    for record in records:
        if record["kind"] == "cell":
            record["timings"]["replay_s"] *= 2.0
    path_b = tmp_path / "slow.jsonl"
    path_b.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["compare", str(path_a), str(path_b)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert main(["compare", str(path_a), "nope.json"]) == 2
