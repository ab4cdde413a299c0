"""Self-test of the end-to-end benchmark.

Run explicitly with ``pytest benchmarks/e2e``; the tiny-load runs spawn
the program as the real bench does and take about half a minute.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402
from spans import SpanRecorder, residual, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+$")

#: Each workload on its first trace at a few hundred loads.
TINY = {name: replace(workload, traces=workload.traces[:1], loads=600)
        for name, workload in bench.WORKLOADS.items()}


def test_declared_metrics_are_well_formed():
    doc = bench.load_benchmark()
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        names = [entry["name"] for entry in doc[section]]
        assert len(names) == len(set(names))
        for entry in doc[section]:
            assert NAME.match(entry["name"]), entry
            assert entry["unit"] and entry["better"] in ("lower", "higher")


def test_self_times_on_a_synthetic_tree():
    spans = [
        {"name": "cell", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "gen", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "train", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "replay", "start": 5.0, "end": 6.5, "parent": 0},
        {"name": "ledger", "start": 12.0, "end": 13.0, "parent": None},
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    assert residual(spans, -1.0, 15.0) == pytest.approx(5.0)
    assert sum(self_times(spans)) + residual(spans, -1.0, 15.0) \
        == pytest.approx(16.0)


def test_recorder_nests_spans_and_shares_cell_ids():
    class Layer:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return n

    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "cell", cell=True)
    recorder.wrap(Layer, "inner", lambda layer, n: f"inner.{n}")
    recorder.tally(Layer, "inner", {"rows": lambda layer, n: n})
    try:
        assert Layer().outer(3) == 6
        assert Layer().outer(1) == 2
    finally:
        recorder.uninstall()
    assert Layer.inner.__name__ == "inner" and not hasattr(Layer.inner,
                                                           "__wrapped__")
    assert [(s["name"], s["parent"], s["cell"]) for s in recorder.spans] == [
        ("cell", None, 1), ("inner.3", 0, 1), ("inner.3", 0, 1),
        ("cell", None, 2), ("inner.1", 3, 2), ("inner.1", 3, 2)]
    assert recorder.counts == {"rows": 8}


def test_compare_verdicts():
    parent = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.verdict(parent, [10.3, 10.4, 10.2], 0.1, "lower")[0] \
        == "within"
    assert compare.verdict(parent, [12.0, 12.1, 11.9], 0.1, "lower")[0] \
        == "worse"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [11.0, 14.0], 0.1, "lower")[0] \
        == "unresolved"
    assert compare.verdict(noisy, [1.0, 2.0], 0.1, "lower")[0] == "within"


def test_host_speed_probes_every_cpu_and_scales_to_the_reference(
        monkeypatch):
    cpus = bench.child_cpus(2)
    with bench.HostSpeed(cpus) as speed:
        time.sleep(0.1)
    assert len(speed.samples) >= 2 * len(cpus)
    monkeypatch.setattr(bench, "REFERENCE_PROBE_S",
                        2 * statistics.mean(speed.samples))
    assert speed.factor() == pytest.approx(2.0)


def test_goldens_agree_between_grid_and_campaign():
    for seed in (1, 2, 3):
        grid = json.loads(bench.golden_path(
            bench.GOLDEN_DIR, "table6-online", seed).read_text())["cells"]
        campaign = json.loads(bench.golden_path(
            bench.GOLDEN_DIR, "campaign-table", seed).read_text())["cells"]
        shared = [key for key in grid if key.split("/")[1]
                  in ("spp", "pathfinder")]
        assert shared and all(grid[key] == campaign[key] for key in shared)


def test_missing_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.fixture()
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SETUP_PER_REPEAT", 1)
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_runs_produce_every_metric(quick, trace):
    out = quick / "result.json"
    report, code = bench.run(list(TINY), seed=1, seconds=0, trace=trace,
                             workloads=TINY, golden_dir=quick / "golden",
                             work=quick / "work", out=out)
    assert code == 0 and report["correct"] and report["failed"] == 0
    declared = bench.declared_metrics(bench.load_benchmark(), trace)
    for name in TINY:
        metrics = report["metrics"][name]
        assert list(metrics) == list(declared)
        for metric, entry in metrics.items():
            assert entry["unit"] == declared[metric]
            assert isinstance(entry["value"], (int, float))
    saved = json.loads(out.read_text())
    assert set(saved["workloads"]) == set(TINY)


def test_corrupted_golden_fails_the_cell(quick):
    golden = quick / "golden"
    names = ["table6-online"]
    _, code = bench.run(names, seed=2, seconds=0, trace=False,
                        workloads=TINY, golden_dir=golden,
                        work=quick / "work", make_golden=True)
    assert code == 0
    path = bench.golden_path(golden, "table6-online", 2)
    doc = json.loads(path.read_text())
    key = sorted(doc["cells"])[0]
    doc["cells"][key]["issued"] += 1
    path.write_text(json.dumps(doc))
    report, code = bench.run(names, seed=2, seconds=0, trace=False,
                             workloads=TINY, golden_dir=golden,
                             work=quick / "work")
    assert code == 1 and not report["correct"]
    assert report["failed"] == report["attempted"] // len(doc["cells"])
