"""Windowed time-series telemetry: schema, merge, decimation, parity.

Pins the ``repro.obs.timeseries`` contracts end to end: worker merges
are bit-identical to serial collection, 2x decimation preserves window
alignment, the JSONL reader tolerates a torn tail but nothing else,
and — the load-bearing guarantee — collecting series changes no
result: ``SimResult`` and prefetch files are bit-identical with and
without a recorder on both replay loops.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from repro.errors import ConfigError, EngineFallbackWarning
from repro.harness.runner import (
    PREFETCHER_FACTORIES,
    Evaluation,
    default_hierarchy,
)
from repro.obs import (
    DEFAULT_WINDOW,
    Observability,
    SeriesCollector,
    adaptation_lag,
    detect_phases,
    rate_points,
    read_series,
)
from repro.obs.timeseries import Series, WindowRecorder
from repro.prefetchers.base import generate_prefetches
from repro.sim.simulator import simulate
from repro.traces.workloads import make_trace

from tests.helpers import reference_loop

# -- recorder and series mechanics -------------------------------------------


def test_recorder_diffs_cumulative_counters_and_stores_gauges():
    collector = SeriesCollector(window=100)
    recorder = collector.recorder(component="replay", cell="c0")
    recorder.sample(100, cumulative={"hits": 7}, gauges={"queue": 3.0})
    recorder.sample(200, cumulative={"hits": 12}, gauges={"queue": 1.0})
    recorder.sample(250, cumulative={"hits": 12}, gauges={"queue": 5.0})
    hits = collector.find("hits", component="replay", cell="c0")
    queue = collector.find("queue", component="replay", cell="c0")
    assert hits.sorted_points() == [(0, 7), (100, 5), (200, 0)]
    assert queue.sorted_points() == [(0, 3.0), (100, 1.0), (200, 5.0)]
    assert hits.agg == "sum" and queue.agg == "last"
    # Integer counters must stay integers (bit-identical JSON).
    assert all(isinstance(v, int) for _, v in hits.sorted_points())


def test_recorder_ignores_empty_or_regressing_windows():
    collector = SeriesCollector(window=10)
    recorder = collector.recorder(cell="c0")
    recorder.sample(10, cumulative={"n": 1})
    recorder.sample(10, cumulative={"n": 99})  # end didn't advance: no-op
    assert collector.find("n", cell="c0").sorted_points() == [(0, 1)]


def test_decimation_preserves_window_alignment_and_sums():
    series = Series("s", window=10, point_cap=4)
    for i in range(8):
        series.record(i * 10, 1)
    # Crossing the cap decimates once (window 10 -> 20); later records
    # fold into the coarser windows instead of re-triggering.
    assert series.window == 20
    assert all(start % series.window == 0 for start in series.points)
    assert sum(series.points.values()) == 8  # sums are exact
    assert series.sorted_points() == [(0, 2), (20, 2), (40, 2), (60, 2)]
    for i in range(8, 20):
        series.record(i * 10, 1)
    # However many decimation rounds ran, the invariants hold: the
    # window is a power-of-two multiple of the original, every start is
    # aligned to it, totals are exact, and the cap is respected.
    assert series.window % 10 == 0
    assert (series.window // 10) & (series.window // 10 - 1) == 0
    assert all(start % series.window == 0 for start in series.points)
    assert sum(series.points.values()) == 20
    assert len(series.points) <= 4


def test_decimation_last_series_keeps_later_point():
    series = Series("g", agg="last", window=10, point_cap=2)
    series.record(0, 1.0)
    series.record(10, 2.0)
    series.record(20, 3.0)
    assert series.window == 20
    assert series.sorted_points() == [(0, 2.0), (20, 3.0)]


def test_merge_aligns_differing_windows():
    coarse = Series("s", window=20, point_cap=100)
    coarse.record(0, 5)
    fine = Series("s", window=10, point_cap=100)
    fine.record(10, 1)
    fine.record(20, 2)
    coarse.merge(fine)
    assert coarse.window == 20
    assert coarse.sorted_points() == [(0, 6), (20, 2)]


def test_worker_merge_is_bit_identical_to_serial():
    """Disjoint cell labels + ordered ingest == one serial collector."""

    def fill(collector: SeriesCollector, cell: str, offset: int) -> None:
        with collector.context(cell=cell):
            recorder = collector.recorder(component="replay")
            recorder.sample(100, cumulative={"hits": 3 + offset},
                            gauges={"queue": float(offset)})
            recorder.sample(200, cumulative={"hits": 9 + offset})

    serial = SeriesCollector(window=100)
    fill(serial, "000:a", 0)
    fill(serial, "001:b", 5)

    workers = []
    for cell, offset in (("000:a", 0), ("001:b", 5)):
        worker = SeriesCollector(window=100)
        worker.bind(cell=cell)
        fill_worker = SeriesCollector(window=100)
        fill(fill_worker, cell, offset)
        worker.ingest(fill_worker.snapshot())
        workers.append(worker)
    parent = SeriesCollector(window=100)
    for worker in workers:
        parent.ingest(worker.snapshot())
    assert parent.snapshot() == serial.snapshot()
    assert json.dumps(parent.snapshot(), sort_keys=True) == \
        json.dumps(serial.snapshot(), sort_keys=True)


def test_collector_rejects_aggregation_conflicts():
    collector = SeriesCollector()
    collector.series("x", agg="sum")
    with pytest.raises(ConfigError):
        collector.series("x", agg="last")


# -- JSONL round trip and validation -----------------------------------------


def test_write_jsonl_round_trip_and_torn_tail(tmp_path):
    collector = SeriesCollector(window=50)
    recorder = collector.recorder(component="replay", cell="c")
    recorder.sample(50, cumulative={"hits": 2}, gauges={"queue": 1.0})
    recorder.sample(100, cumulative={"hits": 5})
    path = tmp_path / "run.series.jsonl"
    collector.write_jsonl(path)

    records = read_series(path)
    assert records == collector.snapshot()

    # A crash mid-append tears the final line: the reader drops it.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema":1,"kind":"series","na')
    assert read_series(path) == records

    # Restored collectors keep merging bit-identically.
    restored = SeriesCollector(window=50)
    restored.ingest(read_series(path))
    assert restored.snapshot() == records


@pytest.mark.parametrize("mutate, message", [
    (lambda r: r.update(schema=99), "schema"),
    (lambda r: r.update(kind="metrics"), "kind"),
    (lambda r: r.update(agg="mean"), "aggregation"),
    (lambda r: r.update(window=0), "window"),
    (lambda r: r.update(points=[[7, 1]]), "aligned"),
    (lambda r: r.update(points=[[0, 1], [0, 2]]), "increasing"),
    (lambda r: r.update(points=[[0, float("nan")]]), "finite"),
    (lambda r: r.update(labels=None), "labels"),
])
def test_malformed_series_record_raises_config_error(tmp_path, mutate,
                                                     message):
    collector = SeriesCollector(window=10)
    collector.record("s", 0, 1, cell="c")
    record = collector.snapshot()[0]
    mutate(record)
    path = tmp_path / "bad.series.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        read_series(path)


def test_malformed_middle_line_is_not_tolerated(tmp_path):
    collector = SeriesCollector(window=10)
    collector.record("s", 0, 1)
    good = json.dumps(collector.snapshot()[0])
    path = tmp_path / "torn_middle.series.jsonl"
    path.write_text('{"torn\n' + good + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        read_series(path)


def test_cli_report_maps_series_schema_errors_to_exit_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bad.series.jsonl"
    path.write_text('{"schema": 99, "kind": "series"}\n{"also": "bad"}\n',
                    encoding="utf-8")
    code = main(["report", "--series", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().out


# -- phase detection and adaptation lag --------------------------------------


def test_detect_phases_finds_single_mean_shift():
    values = [0.1] * 8 + [0.6] * 8
    assert detect_phases(values, k=4, threshold=0.1) == [8]


def test_detect_phases_exclusion_zone_keeps_strongest():
    values = [0.0] * 6 + [0.5] * 2 + [1.0] * 6
    boundaries = detect_phases(values, k=4, threshold=0.1)
    assert len(boundaries) >= 1
    # Candidates within k windows collapse to the strongest shift.
    assert all(abs(a - b) >= 4 for a in boundaries for b in boundaries
               if a != b)


def test_detect_phases_flat_series_and_short_series():
    assert detect_phases([0.3] * 20) == []
    assert detect_phases([0.0, 1.0]) == []
    with pytest.raises(ConfigError):
        detect_phases([0.1] * 10, k=0)


def test_adaptation_lag_recovery_and_never():
    values = [0.8] * 4 + [0.2, 0.4, 0.6, 0.8, 0.8]
    assert adaptation_lag(values, 4, k=4, tolerance=0.05) == 3
    assert adaptation_lag([0.8] * 4 + [0.1] * 6, 4, k=4) is None
    assert adaptation_lag([0.8] * 8, 4, k=4) == 0  # never dipped
    assert adaptation_lag([0.5], 9) is None  # out-of-range boundary


def test_rate_points_skips_missing_and_zero_denominators():
    num = {"points": [[0, 1], [10, 2], [20, 3]]}
    den = {"points": [[0, 4], [10, 0]]}
    assert rate_points(num, den) == [(0, 0.25)]


# -- results stay bit-identical with series collection on --------------------

_PARITY_TRACE = make_trace("cc-5", 2000, seed=7)


def _series_obs(window: int = 256) -> Observability:
    return Observability(series=SeriesCollector(window=window))


@pytest.mark.parametrize("loop", ("reference", "batch"))
def test_simresult_bit_identical_with_series(loop):
    factory = PREFETCHER_FACTORIES["nextline"]
    requests = generate_prefetches(factory(), _PARITY_TRACE)
    obs = _series_obs()
    with reference_loop() if loop == "reference" else nullcontext():
        plain = simulate(_PARITY_TRACE, requests, default_hierarchy(),
                         "nextline")
        with_series = simulate(_PARITY_TRACE, requests, default_hierarchy(),
                               "nextline", obs=obs)
    assert with_series == plain
    recorded = obs.series.snapshot()
    assert recorded, "series must actually be collected"
    hits = obs.series.find("replay.l1_hits", component="replay",
                           prefetcher="nextline", trace="cc-5")
    assert sum(v for _, v in hits.sorted_points()) == plain.l1d_hits


def test_batch_kernel_fallback_collects_identical_series(monkeypatch):
    import repro.sim.fast_engine.batch as batch_mod

    requests = generate_prefetches(
        PREFETCHER_FACTORIES["nextline"](), _PARITY_TRACE)

    obs_kernel = _series_obs()
    result_kernel = simulate(_PARITY_TRACE, requests, default_hierarchy(),
                             "nextline", obs=obs_kernel)
    monkeypatch.setattr(batch_mod, "load_kernel", lambda: None)
    obs_fallback = _series_obs()
    with pytest.warns(EngineFallbackWarning, match="kernel unavailable"):
        result_fallback = simulate(_PARITY_TRACE, requests,
                                   default_hierarchy(), "nextline",
                                   obs=obs_fallback)
    assert result_fallback == result_kernel
    assert obs_fallback.series.snapshot() == obs_kernel.series.snapshot()


def test_prefetch_file_bit_identical_with_series_recorder():
    factory = PREFETCHER_FACTORIES["pathfinder"]
    plain = generate_prefetches(factory(), _PARITY_TRACE)
    collector = SeriesCollector(window=256)
    recorder = collector.recorder(component="generation",
                                  prefetcher="pathfinder", trace="cc-5")
    recorded = generate_prefetches(factory(), _PARITY_TRACE,
                                   recorder=recorder)
    assert recorded == plain
    checked = collector.find("gen.pred_checked", component="generation",
                             prefetcher="pathfinder", trace="cc-5")
    drift = collector.find("snn.weight_drift", component="generation",
                           prefetcher="pathfinder", trace="cc-5")
    assert checked is not None and checked.sorted_points()
    assert drift is not None and drift.agg == "last"


@pytest.mark.parametrize("name", ["pathfinder+nl+sisb", "adaptive-ensemble"])
def test_ensembles_forward_generation_series(name):
    """An ensemble records its PATHFINDER member's learning-dynamics
    series, as PATHFINDER alone does, and its prefetch file stays
    bit-identical with the recorder armed."""
    factory = PREFETCHER_FACTORIES[name]

    def generate(prefetcher):
        """The prefetch file and the names of the series recorded."""
        collector = SeriesCollector(window=256)
        recorder = collector.recorder(component="generation")
        requests = generate_prefetches(prefetcher, _PARITY_TRACE,
                                       recorder=recorder)
        return requests, {record["name"] for record in collector.snapshot()}

    requests, names = generate(factory())
    assert requests == generate_prefetches(factory(), _PARITY_TRACE)
    assert names == generate(PREFETCHER_FACTORIES["pathfinder"]())[1]
    assert "snn.weight_drift" in names


def test_generation_series_scalar_and_batch_paths_agree():
    """PATHFINDER's chunked pipeline must count accuracy like scalar."""
    factory = PREFETCHER_FACTORIES["pathfinder"]

    def run(chunk: int):
        collector = SeriesCollector(window=256)
        recorder = collector.recorder(component="generation")
        requests = generate_prefetches(factory(), _PARITY_TRACE,
                                       chunk=chunk, recorder=recorder)
        return requests, collector.snapshot()

    requests_batch, series_batch = run(4096)
    requests_scalar, series_scalar = run(1)
    assert requests_batch == requests_scalar
    names = ("gen.pred_checked", "gen.pred_correct", "snn.queries")
    by_name_batch = {r["name"]: r for r in series_batch
                     if r["name"] in names}
    by_name_scalar = {r["name"]: r for r in series_scalar
                      if r["name"] in names}
    assert by_name_batch == by_name_scalar


# -- grid integration: serial == parallel ------------------------------------


def test_grid_series_parallel_matches_serial_bitwise():
    cells = [("cc-5", "nextline"), ("cc-5", "pathfinder"),
             ("605-mcf-s1", "spp")]
    obs_serial = Observability(series=SeriesCollector(window=512))
    rows_serial = Evaluation(n_accesses=1500, obs=obs_serial).run_cells(
        cells, jobs=1)
    obs_parallel = Observability(series=SeriesCollector(window=512))
    rows_parallel = Evaluation(n_accesses=1500, obs=obs_parallel).run_cells(
        cells, jobs=2)
    assert [(r.workload, r.prefetcher, r.ipc, r.speedup) for r in rows_serial] \
        == [(r.workload, r.prefetcher, r.ipc, r.speedup)
            for r in rows_parallel]
    serial_snapshot = obs_serial.series.snapshot()
    assert serial_snapshot, "grid must collect series"
    assert obs_parallel.series.snapshot() == serial_snapshot
    cells_seen = {r["labels"].get("cell") for r in serial_snapshot}
    assert {f"{i:03d}:{w}:{p}" for i, (w, p) in enumerate(cells)} \
        <= cells_seen
    # Baseline replays are collected once, unlabeled, in both modes.
    assert None in {r["labels"].get("cell") for r in serial_snapshot}


def test_grid_rows_bit_identical_with_and_without_series():
    cells = [("cc-5", "nextline"), ("cc-5", "bo")]

    def values(rows):
        return [(r.workload, r.prefetcher, r.ipc, r.speedup, r.accuracy,
                 r.coverage, r.issued, r.useful, r.baseline_misses)
                for r in rows]

    plain = Evaluation(n_accesses=1500).run_cells(cells, jobs=1)
    with_series = Evaluation(
        n_accesses=1500,
        obs=Observability(series=SeriesCollector(window=512)),
    ).run_cells(cells, jobs=1)
    assert values(with_series) == values(plain)


def test_default_window_is_sane():
    assert DEFAULT_WINDOW >= 1
    collector = SeriesCollector()
    assert collector.window == DEFAULT_WINDOW
