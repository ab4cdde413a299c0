"""Chaos suite: every injected fault must degrade gracefully — a run
completes with the damage recorded in extras/stats, never an unhandled
traceback — and with faults disabled or recovered-from, results stay
bit-identical to a clean run.  Grids run their cells as campaigns, so
this also covers ``--resume`` from a run ledger."""

import json
import time

import numpy as np
import pytest

from repro.errors import WorkerCrashError
from repro.harness import runner
from repro.harness.runner import (Evaluation, ResiliencePolicy,
                                  ambient_policy, multi_seed_grid)
from repro.obs import Observability, read_ledger
from repro.obs.ledger import finish_run, resume_run, set_active_ledger
from repro.resilience import FaultPlan, injected
from repro.resilience import faults

CELLS = [("cc-5", "nextline"), ("cc-5", "spp")]
N = 800


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    yield
    faults.disarm()
    set_active_ledger(None)


def _row_values(row):
    return (row.workload, row.prefetcher, row.ipc, row.speedup,
            row.accuracy, row.coverage, row.issued, row.useful,
            row.baseline_misses)


def _clean_rows(cells=CELLS):
    return Evaluation(n_accesses=N).run_cells(cells, jobs=1)


def _resumed(path, run):
    """``run()`` with ``path`` open as its ``--resume`` run ledger."""
    ledger = resume_run(path, "test", [], {})
    try:
        return run()
    finally:
        finish_run(ledger, 0.0)


def _count_runs(monkeypatch, tmp_path):
    """Count ``run_prefetcher`` calls, worker processes included."""
    log = tmp_path / "runs.log"
    real = runner.run_prefetcher

    def counted(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("run\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_prefetcher", counted)
    return lambda: (len(log.read_text().splitlines())
                    if log.exists() else 0)


def test_worker_crash_recovers_with_retry():
    policy = ResiliencePolicy(retries=1)
    with ambient_policy(None) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=0")):
        rows = Evaluation(n_accesses=N).run_cells(CELLS, jobs=2,
                                                  policy=policy)
    assert stats.worker_crashes >= 1 and stats.retries >= 1
    assert all(r.extras["outcome"] in ("ok", "retried") for r in rows)
    assert rows[0].extras["outcome"] == "retried"
    assert "worker crashed" in rows[0].extras["error"]
    # The recovered grid is bit-identical to an unfaulted serial run.
    assert [_row_values(r) for r in rows] == \
           [_row_values(r) for r in _clean_rows()]


def test_worker_hang_times_out_then_retry_succeeds():
    policy = ResiliencePolicy(retries=1, cell_timeout_s=5.0)
    start = time.monotonic()
    with ambient_policy(None) as stats, \
            injected(FaultPlan.parse("worker.hang:cells=0,seconds=60")):
        rows = Evaluation(n_accesses=N).run_cells(CELLS, jobs=2,
                                                  policy=policy)
    # Reclaimed at the timeout, well before the 60 s hang would end.
    assert time.monotonic() - start < 30
    assert stats.expirations >= 1
    assert rows[0].extras["outcome"] == "retried"
    assert "timed out" in rows[0].extras["error"]
    assert all(r.extras["outcome"] != "failed" for r in rows)
    assert [_row_values(r) for r in rows] == \
           [_row_values(r) for r in _clean_rows()]


def test_repeated_crashes_quarantine_the_cell():
    policy = ResiliencePolicy(retries=2)
    # attempts=99: the crash never stands down, so the cell exhausts its
    # three attempts and degrades to a failed row; run in-process, it
    # would have killed the parent.
    with ambient_policy(None) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=0,attempts=99")):
        rows = Evaluation(n_accesses=N).run_cells(CELLS, jobs=2,
                                                  policy=policy)
    assert stats.quarantined == 1 and stats.worker_crashes == 3
    assert rows[0].extras["outcome"] == "failed"
    assert rows[0].extras["attempts"] == 3
    assert rows[0].ipc == 0.0
    assert rows[1].extras["outcome"] == "ok"
    assert _row_values(rows[1]) == _row_values(_clean_rows()[1])


def test_one_dead_worker_fails_only_its_cell():
    cells = [("cc-5", name) for name in ("nextline", "bo", "spp", "sisb")]
    with injected(FaultPlan.parse("worker.crash:cells=0")):
        with pytest.raises(WorkerCrashError) as excinfo:
            Evaluation(n_accesses=600).run_cells(cells, jobs=2)
    err = excinfo.value
    assert set(err.failures) == {0}
    assert "000:cc-5:nextline" in str(err)
    assert err.partial_rows[0] is None
    clean = Evaluation(n_accesses=600).run_cells(cells, jobs=1)
    assert [_row_values(r) for r in err.partial_rows[1:]] == \
           [_row_values(r) for r in clean[1:]]


def test_always_raising_prefetcher_quarantines_not_crashes():
    with injected(FaultPlan.parse("prefetcher.access:rate=1.0")):
        rows = Evaluation(n_accesses=N).run_cells([("cc-5", "nextline")])
    row = rows[0]
    assert row.extras["quarantined"] is True
    assert row.extras["prefetcher_errors"] >= 1
    assert row.issued == 0  # degraded to no-prefetch, not aborted
    assert np.isfinite(row.ipc) and row.ipc > 0


def test_snn_weight_nan_is_repaired_mid_run():
    obs = Observability()
    with injected(FaultPlan.parse("snn.weight_nan:after=5")):
        rows = Evaluation(n_accesses=1200, obs=obs).run_cells(
            [("cc-5", "pathfinder")])
    row = rows[0]
    assert np.isfinite(row.ipc) and row.ipc > 0
    assert np.isfinite(row.accuracy) and np.isfinite(row.coverage)
    counters = obs.registry.snapshot()["counters"]
    repairs = sum(v for k, v in counters.items()
                  if "snn.neuron_repairs" in k)
    assert repairs >= 1


def test_trace_corruption_is_survived():
    with injected(FaultPlan.parse("trace.corrupt:frac=0.05", seed=2)):
        rows = Evaluation(n_accesses=N).run_cells([("cc-5", "nextline")])
    assert np.isfinite(rows[0].ipc) and rows[0].ipc > 0


def test_supervised_serial_matches_unsupervised():
    policy = ResiliencePolicy(retries=1)
    supervised = Evaluation(n_accesses=N).run_cells(CELLS, jobs=1,
                                                    policy=policy)
    assert all(r.extras["outcome"] == "ok" for r in supervised)
    assert [_row_values(r) for r in supervised] == \
           [_row_values(r) for r in _clean_rows()]


def test_checkpoint_resume_is_bit_identical(tmp_path, monkeypatch):
    cells = CELLS + [("cc-5", "bo")]
    fresh = _clean_rows(cells)
    runs = _count_runs(monkeypatch, tmp_path)
    for jobs in (1, 2):
        path = tmp_path / f"grid-j{jobs}.jsonl"
        # "Interrupted" run: only the first cell completes.
        first = _resumed(path, lambda: Evaluation(n_accesses=N).run_cells(
            cells[:1], jobs=jobs))
        # Resume finishes the grid: the recorded cell is restored, not
        # re-run, and the whole grid matches an uninterrupted run.
        before = runs()
        resumed = _resumed(path, lambda: Evaluation(n_accesses=N).run_cells(
            cells, jobs=jobs))
        assert runs() - before == len(cells) - 1
        assert resumed[0] == first[0]  # full-dataclass bit-identity
        assert [_row_values(r) for r in resumed] == \
               [_row_values(r) for r in fresh]
        # A second resume restores everything without recomputing, and
        # each key keeps exactly one finished record.
        before = runs()
        restored = _resumed(path, lambda: Evaluation(
            n_accesses=N).run_cells(cells, jobs=jobs))
        assert runs() == before
        assert restored == resumed
        parsed = read_ledger(path)
        keys = [c["key"] for c in parsed["cells"]]
        assert len(keys) == len(set(keys)) == len(cells)


def test_checkpoint_skips_failed_cells_for_retry_on_resume(tmp_path):
    path = tmp_path / "grid.jsonl"
    policy = ResiliencePolicy(retries=1)
    cells = [("cc-5", "nextline"), ("cc-5", "no-such-prefetcher")]
    rows = _resumed(path, lambda: Evaluation(n_accesses=600).run_cells(
        cells, jobs=2, policy=policy))
    assert rows[1].extras["outcome"] == "failed"
    # Only the successful cell is restorable: resume retries the failure.
    ledger = resume_run(path, "test", [], {})
    try:
        restorable = ledger.restorable_rows()
    finally:
        finish_run(ledger, 0.0)
    assert [json.loads(key)["spec"] for key in restorable] == ["nextline"]


def test_multi_seed_sweep_resumes_from_one_ledger(tmp_path, monkeypatch):
    kwargs = dict(workloads=["cc-5"], prefetchers=["nextline", "sisb"],
                  seeds=(1, 2), n_accesses=N, jobs=2)
    path = tmp_path / "sweep.jsonl"
    first = _resumed(path, lambda: multi_seed_grid(**kwargs))
    runs = _count_runs(monkeypatch, tmp_path)
    again = _resumed(path, lambda: multi_seed_grid(**kwargs))
    assert runs() == 0  # cell keys embed the seed: every seed restored
    assert again == first


def test_fig6_table8_resumes_both_grids_from_one_ledger(tmp_path,
                                                        monkeypatch):
    from repro.harness.experiments import experiment_fig6_table8

    def run():
        return experiment_fig6_table8(n_accesses=600, workloads=["cc-5"],
                                      neuron_counts=(10, 20), jobs=2)

    path = tmp_path / "fig6.jsonl"
    first = _resumed(path, run)
    assert len(read_ledger(path)["cells"]) == 4  # two grids of two
    runs = _count_runs(monkeypatch, tmp_path)
    again = _resumed(path, run)
    assert runs() == 0
    assert again.metrics == first.metrics
    assert again.format() == first.format()


def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    assert main(["experiment", "table6", "--loads", "600",
                 "--workloads", "cc-5", "--jobs", "2", "--retries", "1",
                 "--no-ledger", "--inject-faults",
                 "worker.crash:cells=0"]) == 0
    out = capsys.readouterr().out
    assert "[resilience] cells:" in out
    assert "1 worker crash(es)" in out
    assert "[campaign]" not in out
    assert "Traceback" not in out


def test_cli_failed_cells_end_in_one_error_line(capsys):
    from repro.cli import main

    assert main(["experiment", "table6", "--loads", "800",
                 "--workloads", "cc-5", "--jobs", "2", "--no-ledger",
                 "--inject-faults", "worker.crash:cells=0"]) == 1
    out = capsys.readouterr().out
    errors = [line for line in out.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "000:cc-5:spp" in errors[0] and "worker crashed" in errors[0]
    assert "Traceback" not in out


@pytest.mark.parametrize("content", [b"garbage", b"garbage\n",
                                     b"# README\n\nNot a ledger.\n"])
def test_cli_resume_refuses_a_file_that_is_not_a_run_ledger(
        tmp_path, capsys, content):
    from repro.cli import main

    path = tmp_path / "not-a-ledger"
    path.write_bytes(content)
    assert main(["experiment", "table6", "--loads", "600", "--workloads",
                 "cc-5", "--jobs", "2", "--resume", str(path)]) == 2
    out = capsys.readouterr().out
    errors = [line for line in out.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "not a run ledger" in errors[0]
    assert path.read_bytes() == content


def test_cli_resume_roundtrip(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    ledger = tmp_path / "exp.jsonl"
    argv = ["experiment", "table6", "--loads", "600", "--workloads",
            "cc-5", "--resume", str(ledger)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert ledger.exists()
    runs = _count_runs(monkeypatch, tmp_path)
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "resuming from" in second
    assert runs() == 0  # every cell restored, none re-executed
    # The restored run reproduces the experiment output exactly
    # (modulo the resilience note).
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith("[resilience]")]
    assert strip(first) == strip(second)
    parsed = read_ledger(ledger)
    assert len(parsed["cells"]) == 3


def test_cli_fault_point_listing(capsys):
    from repro.cli import main

    assert main(["experiment", "table6", "--inject-faults", "help"]) == 0
    out = capsys.readouterr().out
    for point in ("trace.corrupt", "worker.crash", "snn.weight_nan"):
        assert point in out
    assert "campaign.worker_crash" not in out
