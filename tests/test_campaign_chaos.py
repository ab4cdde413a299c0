"""Chaos tests for campaigns: worker crashes, lease expiry, poison-cell
quarantine, torn queue appends, and the bit-identical resume invariant.

These drive real worker processes, so the grids are tiny (a couple of
cells at ~1200 loads); every assertion about metrics is exact equality —
each cell is an independent seeded run, so a campaign interrupted and
resumed (or run with armed faults) must reproduce the uninterrupted
campaign's ledger numbers bit for bit.
"""

import json
import warnings

import pytest

from repro.campaign import Campaign, CampaignSpec, LEDGER_FILE, WorkQueue
from repro.campaign.queue import DONE, QUARANTINED
from repro.errors import EngineFallbackWarning
from repro.obs.ledger import read_ledger
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _no_armed_faults():
    yield
    faults.disarm()


def chaos_spec(**overrides):
    payload = dict(name="chaos", workloads=("cc-5",),
                   prefetchers=("nextline", "bo"), seeds=(1,),
                   loads=1200, workers=2, max_attempts=3,
                   lease_ttl_s=20.0, backoff_s=0.01)
    payload.update(overrides)
    return CampaignSpec(**payload)


def ledger_cells_by_key(directory):
    """Last ledger record per cell key (resume appends, never rewrites)."""
    parsed = read_ledger(directory / LEDGER_FILE)
    return {record["key"]: record for record in parsed["cells"]}


def run_clean_reference(tmp_path, spec):
    """The uninterrupted, fault-free serial campaign to compare against."""
    directory = tmp_path / "reference"
    campaign = Campaign.create(directory, spec)
    result = campaign.run(workers=0, echo=lambda _line: None)
    assert result["finished"]
    return ledger_cells_by_key(directory)


def test_worker_crash_is_retried_bit_identically(tmp_path):
    spec = chaos_spec()
    directory = tmp_path / "crash"
    campaign = Campaign.create(directory, spec,
                               fault_spec="worker.crash:cells=0")
    result = campaign.run(echo=lambda _line: None)
    assert result["finished"]
    assert result["stats"]["worker_crashes"] >= 1
    assert result["stats"]["retries"] >= 1
    assert result["quarantined"] == []

    chaos = ledger_cells_by_key(directory)
    clean = run_clean_reference(tmp_path, spec)
    assert set(chaos) == set(clean)
    crashed = [record for record in chaos.values()
               if record["outcome"] == "retried"]
    assert crashed, "the killed cell must be recorded as retried"
    for key, record in chaos.items():
        # Armed faults leave the replay on the kernel, so chaos cells
        # run the same engine as the clean run and match it exactly.
        assert record["engine_used"] == "batch"
        assert clean[key]["engine_used"] == "batch"
        assert record["metrics"] == clean[key]["metrics"]

    # The dashboard's run-status table reads the campaign's own stats.
    from repro.harness.dashboard import render_dashboard

    html_text = render_dashboard(ledger=read_ledger(directory / LEDGER_FILE))
    resilience = html_text[html_text.index("<h3>Resilience</h3>"):]
    crashes = result["stats"]["worker_crashes"]
    assert f"<td>worker crashes</td><td>{crashes}</td>" in resilience
    assert (f"<td>retries</td><td>{result['stats']['retries']}</td>"
            in resilience)
    assert "pool respawns" not in resilience


#: Workloads for the claim-order tests.  With one seed and three
#: prefetchers they make four (workload, seed) pairs of three cells,
#: and lowest-index claims interleave two workers on every pair.
AFFINITY_WORKLOADS = ("cc-5", "bfs-10", "605-mcf-s1", "623-xalan-s1")


def pair_builds(directory):
    """Per-worker (workload, seed) pairs, summed over the workers: how
    many times a worker built a trace and baseline."""
    pairs = {}
    for record in ledger_cells_by_key(directory).values():
        pairs.setdefault(record["worker"], set()).add(
            (record["workload"], record["seed"]))
    return sum(len(held) for held in pairs.values())


def test_claims_build_each_pair_once_per_worker(tmp_path):
    spec = chaos_spec(workloads=AFFINITY_WORKLOADS,
                      prefetchers=("nextline", "bo", "sisb"))
    directory = tmp_path / "affine"
    result = Campaign.create(directory, spec).run(echo=lambda _line: None)
    assert result["finished"] and result["stats"]["worker_crashes"] == 0
    # Each pair is built once, plus at most one tail steal per worker.
    assert pair_builds(directory) <= len(AFFINITY_WORKLOADS) + spec.workers


def test_worker_crash_mid_pair_is_retried_bit_identically(tmp_path):
    # Cell 1 is the second of its pair's three cells: the crash drops a
    # worker that holds a pair, and its respawn starts with none.
    spec = chaos_spec(workloads=AFFINITY_WORKLOADS[:2],
                      prefetchers=("nextline", "bo", "sisb"))
    directory = tmp_path / "crash-mid-pair"
    campaign = Campaign.create(directory, spec,
                               fault_spec="worker.crash:cells=1")
    result = campaign.run(echo=lambda _line: None)
    assert result["finished"] and result["quarantined"] == []
    assert result["stats"]["worker_crashes"] >= 1

    chaos = ledger_cells_by_key(directory)
    clean = run_clean_reference(tmp_path, spec)
    assert set(chaos) == set(clean) and len(chaos) == 6
    assert [record["outcome"] for record in chaos.values()
            if record["outcome"] != "ok"] == ["retried"]
    for key, record in chaos.items():
        assert record["metrics"] == clean[key]["metrics"], key


def test_armed_faults_keep_batch_engine_in_serial(tmp_path):
    # The serial in-process path replays on the same kernel as the
    # leased workers, silently, with engine_used in the ledger saying
    # so — campaign cells behave identically wherever they execute.
    spec = chaos_spec(workers=0, prefetchers=("nextline",))
    directory = tmp_path / "faults"
    campaign = Campaign.create(directory, spec,
                               fault_spec="prefetcher.access:rate=0.0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        result = campaign.run(echo=lambda _line: None)
    assert result["finished"]
    (record,) = ledger_cells_by_key(directory).values()
    assert record["engine_used"] == "batch"
    clean = next(iter(run_clean_reference(tmp_path, spec).values()))
    assert clean["engine_used"] == "batch"
    assert record["metrics"] == clean["metrics"]


def test_lease_expiry_reclaims_and_retries(tmp_path):
    spec = chaos_spec(prefetchers=("nextline",), workers=1,
                      lease_ttl_s=1.0)
    directory = tmp_path / "expire"
    campaign = Campaign.create(
        directory, spec,
        fault_spec="campaign.lease_expire:cells=0,seconds=30")
    result = campaign.run(echo=lambda _line: None)
    assert result["finished"]
    assert result["stats"]["expirations"] >= 1
    assert result["quarantined"] == []
    (record,) = ledger_cells_by_key(directory).values()
    assert record["outcome"] == "retried"
    assert record["metrics"] == \
        next(iter(run_clean_reference(tmp_path, spec).values()))["metrics"]


def test_poison_cell_is_quarantined_not_fatal(tmp_path):
    spec = chaos_spec(workers=1, max_attempts=2)
    directory = tmp_path / "poison"
    campaign = Campaign.create(
        directory, spec,
        fault_spec="worker.crash:cells=0,attempts=99")
    result = campaign.run(echo=lambda _line: None)
    # The campaign finishes despite the poison cell: the healthy cell
    # completes, the poisoned one lands on the quarantine list.
    assert result["finished"]
    assert len(result["quarantined"]) == 1
    assert result["counts"][QUARANTINED] == 1
    assert result["counts"][DONE] == 1
    parsed = read_ledger(directory / LEDGER_FILE)
    assert parsed["finish"]["status"] == "ok"
    quarantined = [record for record in parsed["cells"]
                   if record["outcome"] == "quarantined"]
    assert len(quarantined) == 1
    assert quarantined[0]["attempts"] == 2
    assert quarantined[0]["metrics"]["ipc"] == 0  # placeholder, not data
    # Resume treats the poison list as settled: nothing left to run.
    resumed = Campaign.open(directory)
    resumed.reconcile()
    assert resumed.queue.finished()


def test_torn_queue_write_fault_is_recovered(tmp_path):
    cells = [{"index": 0, "key": "k0", "workload": "cc-5",
              "prefetcher": "nextline", "seed": 1}]
    path = tmp_path / "queue.jsonl"
    queue = WorkQueue.create(path, cells)
    plan = faults.FaultPlan.parse("campaign.queue_torn_write")
    with faults.injected(plan):
        queue.lease("k0", "w1", ttl_s=30.0)  # this append is torn
    queue.complete("k0", "w1")  # framing repaired on the next append
    reopened = WorkQueue.open(path, cells)
    assert reopened.torn_events == 1
    # The torn lease is conservatively lost, but the done event after
    # it replays cleanly: no corruption escalates past one event.
    assert reopened.cells["k0"].state == DONE


def test_interrupted_campaign_resumes_bit_identically(tmp_path):
    spec = chaos_spec(seeds=(1, 2), workers=1)
    directory = tmp_path / "paused"
    campaign = Campaign.create(directory, spec)
    first = campaign.run(stop_after=1, echo=lambda _line: None)
    assert first["interrupted"] and not first["finished"]
    assert first["counts"][DONE] >= 1
    partial = ledger_cells_by_key(directory)
    assert 1 <= len(partial) < 4

    resumed = Campaign.open(directory)
    resumed.reconcile()
    second = resumed.run(echo=lambda _line: None)
    assert second["finished"]
    assert second["counts"][DONE] == 4

    chaos = ledger_cells_by_key(directory)
    clean = run_clean_reference(tmp_path, spec)
    assert set(chaos) == set(clean)
    for key, record in chaos.items():
        assert record["metrics"] == clean[key]["metrics"], key
    # No completed cell was re-executed on resume: one record per key.
    parsed = read_ledger(directory / LEDGER_FILE)
    keys = [record["key"] for record in parsed["cells"]]
    assert sorted(keys) == sorted(set(keys))
    # ...and the cells finished before the interrupt kept their records.
    for key, record in partial.items():
        assert chaos[key] == record


def test_stored_fault_spec_rearms_on_resume(tmp_path):
    spec = chaos_spec(workers=1)
    directory = tmp_path / "rearmed"
    Campaign.create(directory, spec,
                    fault_spec="worker.crash:cells=1")
    resumed = Campaign.open(directory)
    assert resumed.fault_spec == "worker.crash:cells=1"
    result = resumed.run(echo=lambda _line: None)
    assert result["finished"]
    assert result["stats"]["worker_crashes"] >= 1  # fault fired on resume
    meta = json.loads((directory / "campaign.json").read_text())
    assert meta["fault_spec"] == "worker.crash:cells=1"


def test_campaign_series_survives_interrupt_and_resume(tmp_path):
    # campaign_series.jsonl is an append-only single-writer file with a
    # flush per record: an interrupt tears at most the final line, and a
    # resumed campaign keeps appending to the same file.
    from repro.campaign.supervisor import SERIES_FILE
    from repro.obs import read_campaign_series

    spec = chaos_spec(seeds=(1, 2), workers=1)
    directory = tmp_path / "series"
    campaign = Campaign.create(directory, spec)
    first = campaign.run(stop_after=1, series=True, echo=lambda _line: None)
    assert first["interrupted"] and not first["finished"]

    series_path = directory / SERIES_FILE
    assert series_path.exists()
    samples = read_campaign_series(series_path)  # parseable mid-campaign
    assert samples and samples[0]["event"] == "start"
    n_before = len(samples)

    resumed = Campaign.open(directory)
    resumed.reconcile()
    second = resumed.run(series=True, echo=lambda _line: None)
    assert second["finished"]

    samples = read_campaign_series(series_path)
    assert len(samples) > n_before, "resume must append, not truncate"
    assert samples[-1]["event"] == "finish"
    for sample in samples:
        assert sample["schema"] == 1
        assert sample["kind"] == "campaign_sample"
        assert sample["queue_depth"] >= 0
    # `completed` counts cells finished in the current run segment; the
    # queue counts in the finish sample account for every cell.
    assert samples[-1]["counts"].get(DONE) == 4
    assert samples[-1]["queue_depth"] == 0
    # The summary surfaces the series for `campaign status`.
    from repro.campaign.supervisor import campaign_summary
    summary = campaign_summary(directory)
    assert summary["series_samples"]
    assert summary["series_samples"][-1]["event"] == "finish"


def test_campaign_series_off_by_default(tmp_path):
    from repro.campaign.supervisor import SERIES_FILE

    spec = chaos_spec(workers=0)
    directory = tmp_path / "noseries"
    campaign = Campaign.create(directory, spec)
    result = campaign.run(workers=0, echo=lambda _line: None)
    assert result["finished"]
    assert not (directory / SERIES_FILE).exists()
