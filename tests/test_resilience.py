"""Unit tests for repro.resilience — faults, guard, atomic IO — plus the
grid's resilience contract (retries, failed rows, ledger resume, stats)
and the typed error hierarchy."""

import json
import pickle

import pytest

from repro.errors import (ConfigError, PrefetchFileError, ReproError,
                          TraceError, TraceFormatError, WorkerCrashError)
from repro.harness.runner import (EvalRow, Evaluation, ResiliencePolicy,
                                  ambient_policy, cell_key, make_prefetcher,
                                  row_from_dict, row_to_dict)
from repro.obs.ledger import resume_run, set_active_ledger
from repro.prefetchers.base import Prefetcher, generate_prefetches
from repro.resilience import (DEFAULT_QUARANTINE_AFTER, FaultPlan,
                              GuardedPrefetcher, atomic_write_json,
                              atomic_write_text, corrupt_trace, injected)
from repro.resilience import faults
from repro.sim.metrics import SimResult
from repro.sim.simulator import HierarchyConfig
from repro.traces import load_trace, save_trace
from repro.types import MemoryAccess

from .helpers import build_trace, seq_addresses


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    """Ambient fault and ledger state must never leak between tests."""
    yield
    faults.disarm()
    set_active_ledger(None)


# -- fault plans --------------------------------------------------------------

def test_fault_plan_parse_spec():
    plan = FaultPlan.parse(
        "worker.crash:cells=0+3;prefetcher.access:rate=0.25", seed=7)
    crash = plan.points["worker.crash"]
    assert crash.cells == (0, 3)
    assert crash.attempts == 1  # first-attempt-only default
    assert plan.points["prefetcher.access"].rate == 0.25
    # The spec round-trips through its own grammar.
    again = FaultPlan.parse(plan.spec(), seed=7)
    assert set(again.points) == set(plan.points)
    assert again.points["worker.crash"].cells == (0, 3)


def test_fault_plan_rejects_unknown_point():
    with pytest.raises(ConfigError, match="unknown fault point"):
        FaultPlan.parse("flux.capacitor")


def test_fault_plan_rejects_bad_specs():
    with pytest.raises(ConfigError, match="empty fault spec"):
        FaultPlan.parse(" ; ")
    with pytest.raises(ConfigError, match="key=value"):
        FaultPlan.parse("worker.crash:oops")
    with pytest.raises(ConfigError, match="non-numeric"):
        FaultPlan.parse("prefetcher.access:rate=sometimes")
    with pytest.raises(ConfigError, match="rate must be"):
        FaultPlan.parse("prefetcher.access:rate=1.5")


def test_fault_point_is_deterministic():
    draws = []
    for _ in range(2):
        plan = FaultPlan.parse("prefetcher.access:rate=0.5", seed=42)
        point = plan.points["prefetcher.access"]
        draws.append([point.fires() for _ in range(200)])
    assert draws[0] == draws[1]
    assert any(draws[0]) and not all(draws[0])


def test_fault_point_attempt_and_count_gating():
    plan = FaultPlan.parse("worker.crash")
    point = plan.points["worker.crash"]
    assert point.fires(attempt=0) is True
    assert point.fires(attempt=1) is False  # stands down on the retry
    plan = FaultPlan.parse("snn.weight_nan:after=2")
    point = plan.points["snn.weight_nan"]
    fired = [point.fires() for _ in range(6)]
    # Silent for `after` calls, fires once (count=1 default), then quiet.
    assert fired == [False, False, True, False, False, False]


def test_fault_point_cell_scoping():
    plan = FaultPlan.parse("worker.crash:cells=1")
    point = plan.points["worker.crash"]
    assert point.fires(attempt=0, index=0) is False
    assert point.fires(attempt=0, index=1) is True


def test_fault_plan_pickles():
    plan = FaultPlan.parse("worker.hang:seconds=2;trace.corrupt:frac=0.1",
                           seed=3)
    clone = pickle.loads(pickle.dumps(plan))
    assert set(clone.points) == set(plan.points)
    assert clone.points["worker.hang"].seconds == 2.0
    assert clone.points["trace.corrupt"].frac == 0.1


def test_injected_context_arms_and_restores():
    assert faults.active() is None
    plan = FaultPlan.parse("trace.corrupt")
    with injected(plan) as armed:
        assert armed is plan
        assert faults.active() is plan
        with injected(None):
            assert faults.active() is plan  # None is a no-op
    assert faults.active() is None


def test_corrupt_trace_scrambles_a_sample():
    trace = build_trace(seq_addresses(200))
    assert corrupt_trace(trace) is trace  # inert when disarmed
    with injected(FaultPlan.parse("trace.corrupt:frac=0.1", seed=1)):
        damaged = corrupt_trace(trace)
    assert damaged is not trace
    changed = sum(1 for a, b in zip(trace, damaged)
                  if a.address != b.address)
    assert changed == 20
    assert all(b.address >= 0 for b in damaged)
    assert [a.instr_id for a in trace] == [b.instr_id for b in damaged]


# -- guarded prefetcher -------------------------------------------------------

class _Flaky(Prefetcher):
    """Raises on configured access ordinals; otherwise next-line."""

    name = "flaky"

    def __init__(self, fail_on=()):
        self.fail_on = set(fail_on)
        self.calls = 0

    def process(self, access):
        self.calls += 1
        if self.calls in self.fail_on or "all" in self.fail_on:
            raise RuntimeError(f"boom on call {self.calls}")
        return [access.address + 64]


def test_guard_passes_healthy_prefetcher_through():
    trace = build_trace(seq_addresses(64))
    bare = generate_prefetches(make_prefetcher("spp"), trace, budget=2)
    guarded = generate_prefetches(
        GuardedPrefetcher(make_prefetcher("spp")), trace, budget=2)
    assert bare == guarded


def test_guard_quarantines_after_consecutive_failures():
    guard = GuardedPrefetcher(_Flaky(fail_on={"all"}))
    access = MemoryAccess(instr_id=1, pc=0x400, address=1 << 20)
    for _ in range(DEFAULT_QUARANTINE_AFTER + 6):
        assert guard.process(access) == []
    assert guard.quarantined
    # Short-circuits once quarantined.
    assert guard.errors == DEFAULT_QUARANTINE_AFTER
    assert "boom" in guard.last_error


def test_guard_resets_consecutive_count_on_success():
    # Two runs of one failure short of quarantine, each ended by a
    # success: twice the threshold in total, never in a row.
    run = DEFAULT_QUARANTINE_AFTER - 1
    failing = set(range(1, run + 1)) | set(range(run + 2, 2 * run + 2))
    guard = GuardedPrefetcher(_Flaky(fail_on=failing))
    access = MemoryAccess(instr_id=1, pc=0x400, address=1 << 20)
    for _ in range(2 * run + 2):
        guard.process(access)
    assert not guard.quarantined
    assert guard.errors == 2 * run


def test_guard_quarantines_on_train_failure():
    class _BadTrainer(_Flaky):
        def train(self, trace):
            raise ValueError("bad corpus")

    guard = GuardedPrefetcher(_BadTrainer())
    guard.train(build_trace(seq_addresses(4)))
    assert guard.quarantined
    access = MemoryAccess(instr_id=1, pc=0x400, address=1 << 20)
    assert guard.process(access) == []


class _MalformedOnce(_Flaky):
    """Next-line whose first chunk returns one address list too few,
    which is not the chunk's rows; later chunks run :meth:`process`."""

    name = "malformed"

    def __init__(self):
        super().__init__()
        self.batches = 0

    def process_batch(self, addresses, pcs, instr_ids):
        self.batches += 1
        if self.batches == 1:
            return [[] for _ in range(len(addresses) - 1)]
        return Prefetcher.process_batch(self, addresses, pcs, instr_ids)


def test_guard_degrades_on_a_malformed_chunk():
    """A chunk result that is not rows costs that chunk's prefetches
    and counts as an error, as an exception would; later chunks take
    the scalar path.  Unguarded, the same result fails the file."""
    trace = build_trace(seq_addresses(20))
    inner = _MalformedOnce()
    guard = GuardedPrefetcher(inner)
    pfile = generate_prefetches(guard, trace, budget=2, chunk=5)
    assert pfile.offsets.tolist() == [0] * 6 + list(range(1, 16))
    assert guard.errors == 1 and not guard.quarantined
    assert "ValueError" in guard.last_error
    assert inner.batches == 1 and inner.calls == 15
    with pytest.raises(PrefetchFileError, match=r"malformed .*\[0, 5\)"):
        generate_prefetches(_MalformedOnce(), trace, budget=2, chunk=5)


# -- atomic writes ------------------------------------------------------------

def test_atomic_write_text_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_json_round_trips(tmp_path):
    target = tmp_path / "out.json"
    payload = {"a": 1, "b": [1.5, "x"]}
    atomic_write_json(target, payload)
    assert json.loads(target.read_text()) == payload


def test_atomic_write_preserves_old_content_on_failure(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"ok": True})
    with pytest.raises(TypeError):
        atomic_write_json(target, {"bad": object()})
    assert json.loads(target.read_text()) == {"ok": True}
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_fsyncs_data_then_directory(tmp_path, monkeypatch):
    import os as os_mod

    real_fsync = os_mod.fsync
    synced = []

    def recording_fsync(fd):
        synced.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr("repro.resilience.atomic.os.fsync", recording_fsync)
    target = tmp_path / "out.txt"
    atomic_write_text(target, "durable\n")
    # One fsync for the temp file's data (before the rename) and one
    # for the directory entry (after it): power-loss durability.
    assert len(synced) == 2
    assert target.read_text() == "durable\n"


def test_atomic_write_fsync_opt_out_skips_fsync(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr("repro.resilience.atomic.os.fsync",
                        lambda fd: synced.append(fd))
    target = tmp_path / "out.txt"
    atomic_write_text(target, "throwaway\n", fsync=False)
    assert synced == []
    assert target.read_text() == "throwaway\n"


def test_atomic_write_tolerates_directory_fsync_failure(tmp_path,
                                                        monkeypatch):
    import os as os_mod

    real_fsync = os_mod.fsync
    calls = []

    def flaky_fsync(fd):
        calls.append(fd)
        if len(calls) > 1:  # the directory fsync after the rename
            raise OSError(95, "operation not supported")
        return real_fsync(fd)

    monkeypatch.setattr("repro.resilience.atomic.os.fsync", flaky_fsync)
    target = tmp_path / "out.txt"
    atomic_write_text(target, "written\n")  # must not raise
    assert len(calls) == 2
    assert target.read_text() == "written\n"


# -- ledger as the resume journal ----------------------------------------------

def _sample_row(workload="cc-5", ipc=1.25):
    result = SimResult(trace_name=workload, prefetcher_name="nextline",
                       instructions=1000, cycles=800, pf_issued=10,
                       pf_useful=7, llc_misses=3)
    return EvalRow(workload=workload, prefetcher="nextline", ipc=ipc,
                   speedup=1.1, accuracy=0.7, coverage=0.5, issued=10,
                   useful=7, baseline_misses=6, result=result,
                   timings={"replay_s": 0.125},
                   extras={"outcome": "ok", "attempts": 1})


def _record(ledger, key, row):
    ledger.record_cell(cell="000:cc-5:nextline", key=key, seed=1,
                       workload="cc-5", prefetcher="nextline", metrics={},
                       row=row_to_dict(row))


def _journal(path):
    """Restorable rows, as a ``--resume`` run would see them."""
    ledger = resume_run(path, "test", [], {})
    set_active_ledger(None)
    return {key: row_from_dict(payload)
            for key, payload in ledger.restorable_rows().items()}


def test_journal_records_and_restores_rows(tmp_path):
    path = tmp_path / "grid.jsonl"
    ledger = resume_run(path, "test", [], {})
    row = _sample_row()
    _record(ledger, "cell-a", row)
    assert list(ledger.restorable_rows()) == ["cell-a"]
    reloaded = _journal(path)
    assert reloaded["cell-a"] == row  # bit-identical dataclass equality
    assert "cell-b" not in reloaded


def test_journal_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "grid.jsonl"
    _record(resume_run(path, "test", [], {}), "cell-a", _sample_row())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"cell","key":"cell-b","row":{"trunc')
    reloaded = _journal(path)
    assert list(reloaded) == ["cell-a"]
    # Reopening truncated the torn tail: the resume record appended
    # behind it is a whole line of its own.
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["kind"] == "resume"
    assert not any("trunc" in line for line in lines)


def test_journal_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "grid.jsonl"
    _record(resume_run(path, "test", [], {}), "cell-a", _sample_row())
    lines = path.read_text().splitlines()
    lines.insert(1, "not json at all")
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="corrupt ledger line"):
        _journal(path)
    assert path.read_bytes() == before  # refused, not repaired


def test_journal_rejects_version_mismatch(tmp_path):
    path = tmp_path / "grid.jsonl"
    path.write_text('{"kind":"manifest","schema":99,"run_id":"r"}\n')
    with pytest.raises(ConfigError, match="not a run ledger"):
        _journal(path)
    assert path.read_text() == \
        '{"kind":"manifest","schema":99,"run_id":"r"}\n'


def test_cell_key_is_canonical_and_discriminating():
    hierarchy = HierarchyConfig.scaled()
    key = cell_key("cc-5", "nextline", seed=1, n_accesses=1000, budget=2,
                   hierarchy=hierarchy)
    assert key == cell_key("cc-5", "nextline", seed=1, n_accesses=1000,
                           budget=2, hierarchy=hierarchy)
    other_seed = cell_key("cc-5", "nextline", seed=2, n_accesses=1000,
                          budget=2, hierarchy=hierarchy)
    assert key != other_seed
    payload = json.loads(key)
    assert payload["workload"] == "cc-5" and payload["seed"] == 1
    assert sorted(payload) == ["budget", "hierarchy", "n_accesses", "seed",
                               "spec", "workload"]


# -- typed errors -------------------------------------------------------------

def test_trace_loader_raises_trace_format_error(tmp_path):
    path = tmp_path / "bad.trace"
    save_trace(build_trace(seq_addresses(3)), path)
    lines = path.read_text().splitlines()
    lines[2] = "12 0x400 not-an-address"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace(path)
    assert excinfo.value.path == str(path)
    assert excinfo.value.lineno == 3
    assert str(path) in str(excinfo.value)
    # Compatibility: still a TraceError / ReproError.
    assert isinstance(excinfo.value, TraceError)
    assert isinstance(excinfo.value, ReproError)


def test_generate_prefetches_wraps_failures_with_context():
    trace = build_trace(seq_addresses(8))
    with pytest.raises(PrefetchFileError) as excinfo:
        generate_prefetches(_Flaky(fail_on={3}), trace, budget=2)
    message = str(excinfo.value)
    # The columnar driver reports chunk-level context: which prefetcher,
    # which access chunk (by index and instr_id range), and the cause.
    assert "flaky" in message and "access chunk" in message
    assert "instr_ids 10..80" in message
    assert "boom on call 3" in message


# -- grid retries (run as campaigns) --------------------------------------------

CELLS3 = [("cc-5", "nextline"), ("cc-5", "bo"), ("cc-5", "sisb")]


def _outcomes(rows):
    return [(r.extras["outcome"], r.extras["attempts"]) for r in rows]


def test_policy_validation():
    with pytest.raises(ConfigError):
        ResiliencePolicy(retries=-1)
    with pytest.raises(ConfigError):
        ResiliencePolicy(cell_timeout_s=0)


def test_cell_outcome_labels():
    cells = CELLS3[:2] + [("cc-5", "no-such-prefetcher")]
    with injected(FaultPlan.parse("worker.crash:cells=1")):
        rows = Evaluation(n_accesses=600).run_cells(
            cells, jobs=2, policy=ResiliencePolicy(retries=1))
    assert _outcomes(rows) == [("ok", 1), ("retried", 2), ("failed", 2)]


def test_run_serial_retries_until_success():
    # jobs=1 under a policy: one worker process, crashed twice.
    with ambient_policy(ResiliencePolicy(retries=2)) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=1,attempts=2")):
        rows = Evaluation(n_accesses=600).run_cells(CELLS3, jobs=1)
    assert _outcomes(rows) == [("ok", 1), ("retried", 3), ("ok", 1)]
    assert "worker crashed" in rows[1].extras["error"]
    assert (stats.completed, stats.retries, stats.worker_crashes) == (3, 2, 2)


def test_run_serial_exhausts_retries():
    with injected(FaultPlan.parse("worker.crash:cells=0,attempts=99")):
        rows = Evaluation(n_accesses=600).run_cells(
            CELLS3[:2], jobs=1, policy=ResiliencePolicy(retries=1))
    assert _outcomes(rows) == [("failed", 2), ("ok", 1)]


def test_run_supervised_retries_in_parallel():
    cells = CELLS3 + [("cc-5", "spp")]
    with ambient_policy(ResiliencePolicy(retries=1)) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=2")):
        rows = Evaluation(n_accesses=600).run_cells(cells, jobs=2)
    assert _outcomes(rows) == [("ok", 1), ("ok", 1), ("retried", 2),
                               ("ok", 1)]
    assert (stats.completed, stats.retries, stats.quarantined) == (4, 1, 0)
    assert not stats.serial_fallback


def test_run_supervised_marks_exhausted_cells_failed():
    with ambient_policy(ResiliencePolicy(retries=1)) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=0,attempts=99")):
        rows = Evaluation(n_accesses=600).run_cells(CELLS3, jobs=2)
    assert _outcomes(rows) == [("failed", 2), ("ok", 1), ("ok", 1)]
    assert (stats.completed, stats.quarantined) == (2, 1)


def test_stats_summary_and_drain():
    # Stats add up over every grid an ambient policy covers (the CLI's
    # one "[resilience] cells:" line per experiment).
    policy = ResiliencePolicy(retries=1)
    with ambient_policy(policy) as stats, \
            injected(FaultPlan.parse("worker.crash:cells=0")):
        Evaluation(n_accesses=600).run_cells(CELLS3[:2], jobs=2)
        Evaluation(n_accesses=600, seed=2).run_cells(CELLS3[:2], jobs=2)
    assert (stats.completed, stats.retries, stats.worker_crashes) == (4, 2, 2)
    text = stats.summary()
    assert text.startswith("cells: 4 completed")
    assert "2 retried" in text and "2 worker crash(es)" in text
    assert stats.to_dict()["worker_crashes"] == 2
    # Outside the block nothing collects, and no policy is in force.
    rows = Evaluation(n_accesses=600).run_cells(CELLS3[:2], jobs=1)
    assert "outcome" not in rows[0].extras


# -- unsupervised parallel failure reporting ----------------------------------

def test_unsupervised_parallel_keeps_sibling_work():
    cells = [("cc-5", "nextline"), ("cc-5", "no-such-prefetcher")]
    with pytest.raises(WorkerCrashError) as excinfo:
        Evaluation(n_accesses=600).run_cells(cells, jobs=2)
    err = excinfo.value
    assert set(err.failures) == {1}
    assert "unknown prefetcher" in err.failures[1]
    # The sibling's finished row rides along instead of being discarded.
    assert err.partial_rows[0] is not None
    assert err.partial_rows[0].prefetcher == "nextline"
    assert err.partial_rows[1] is None


def test_supervised_degrade_emits_placeholder_row():
    cells = [("cc-5", "nextline"), ("cc-5", "no-such-prefetcher")]
    policy = ResiliencePolicy(retries=1)
    rows = Evaluation(n_accesses=600).run_cells(cells, jobs=2, policy=policy)
    assert rows[0].extras["outcome"] == "ok"
    assert rows[1].extras["outcome"] == "failed"
    assert rows[1].ipc == 0.0 and "unknown prefetcher" in rows[1].extras["error"]


def test_supervised_no_degrade_raises_with_partials():
    # No retries, no degrading: a policy with only a timeout raises.
    cells = [("cc-5", "nextline"), ("cc-5", "no-such-prefetcher")]
    policy = ResiliencePolicy(cell_timeout_s=60.0)
    with pytest.raises(WorkerCrashError) as excinfo:
        Evaluation(n_accesses=600).run_cells(cells, jobs=2, policy=policy)
    err = excinfo.value
    assert set(err.failures) == {1}
    assert err.partial_rows[0] is not None
