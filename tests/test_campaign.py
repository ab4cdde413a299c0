"""Unit tests for repro.campaign: spec parsing and expansion, the
durable lease queue, retry backoff, serial campaigns, status snapshots,
and ledger/queue reconciliation on resume."""

import json

import pytest

from repro.campaign import (
    CAMPAIGN_FILE,
    Campaign,
    CampaignSpec,
    LEDGER_FILE,
    QUEUE_FILE,
    WorkQueue,
    campaign_summary,
    load_spec,
    retry_delay,
)
from repro.campaign.queue import DONE, LEASED, PENDING, QUARANTINED
from repro.campaign.spec import _parse_simple_yaml
from repro.errors import ConfigError
from repro.obs.ledger import read_ledger
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _no_armed_faults():
    yield
    faults.disarm()


def small_spec(**overrides):
    payload = dict(name="t", workloads=("cc-5",),
                   prefetchers=("nextline", "bo"), seeds=(1,),
                   loads=1200, workers=0, backoff_s=0.0)
    payload.update(overrides)
    return CampaignSpec(**payload)


# -- spec ---------------------------------------------------------------------

def test_spec_roundtrip_and_defaults():
    spec = small_spec()
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    assert spec.heartbeat_s == pytest.approx(spec.lease_ttl_s / 4.0)


@pytest.mark.parametrize("overrides", [
    {"workloads": ("no-such-workload",)},
    {"prefetchers": ("no-such-prefetcher",)},
    {"engine": "warp"},
    {"seeds": ()},
    {"loads": 0},
    {"max_attempts": 0},
    {"workers": -1},
    {"engine": "fast"},  # removed engine
    # A repeated value would expand into two cells sharing one key.
    {"workloads": ("cc-5", "cc-5")},
    {"prefetchers": ("nextline", "nextline")},
    {"seeds": (1, 1)},
])
def test_spec_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        small_spec(**overrides)


def test_spec_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ConfigError, match="unknown field"):
        CampaignSpec.from_dict({"name": "t", "workloads": ["cc-5"],
                                "prefetchers": ["bo"], "colour": "red"})
    with pytest.raises(ConfigError, match="missing required"):
        CampaignSpec.from_dict({"name": "t", "workloads": ["cc-5"]})


def test_expand_is_deterministic_and_ordered():
    spec = small_spec(seeds=(1, 2))
    first, second = spec.expand(), spec.expand()
    assert [c.key for c in first] == [c.key for c in second]
    assert [c.index for c in first] == list(range(4))
    # seeds outer, then workloads, then prefetchers
    assert [(c.seed, c.prefetcher) for c in first] == [
        (1, "nextline"), (1, "bo"), (2, "nextline"), (2, "bo")]
    assert len({c.key for c in first}) == 4  # canonical keys are unique


def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "j", "workloads": ["cc-5"],
                                "prefetchers": ["bo"], "loads": 500}))
    spec = load_spec(path)
    assert spec.name == "j" and spec.loads == 500
    assert spec.workers == 2  # defaults fill in


def test_load_spec_yaml(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(
        "# nightly sweep\n"
        "name: y\n"
        "workloads: [cc-5]\n"
        "prefetchers:\n"
        "  - nextline\n"
        "  - bo\n"
        "seeds: [1, 2]\n"
        "loads: 800  # small\n"
        "lease_ttl_s: 5\n")
    spec = load_spec(path)
    assert spec.prefetchers == ("nextline", "bo")
    assert spec.seeds == (1, 2)
    assert spec.lease_ttl_s == 5.0


def test_simple_yaml_subset_parser(tmp_path):
    payload = _parse_simple_yaml(
        "name: s\nflags: [a, b]\nempty:\n- x\nnum: 1.5\nflag: true\n",
        tmp_path / "s.yaml")
    assert payload == {"name": "s", "flags": ["a", "b"],
                       "empty": ["x"], "num": 1.5, "flag": True}
    with pytest.raises(ConfigError, match="nested"):
        _parse_simple_yaml("outer:\n  inner: 1\n", tmp_path / "s.yaml")


# -- retry backoff ------------------------------------------------------------

def test_retry_delay_deterministic_and_bounded():
    first = retry_delay("k", 1, backoff_s=0.1, backoff_factor=2.0)
    assert first == retry_delay("k", 1, backoff_s=0.1, backoff_factor=2.0)
    assert 0.1 <= first <= 0.15  # base * [1.0, 1.5] jitter
    second = retry_delay("k", 2, backoff_s=0.1, backoff_factor=2.0)
    assert 0.2 <= second <= 0.3  # exponential growth
    assert retry_delay("other", 1, 0.1, 2.0) != first  # per-key jitter


# -- work queue ---------------------------------------------------------------

def _cells(n=2):
    return [{"index": i, "key": f"k{i}", "workload": "cc-5",
             "prefetcher": "nextline", "seed": 1} for i in range(n)]


def test_queue_lease_complete_replay(tmp_path):
    path = tmp_path / "queue.jsonl"
    queue = WorkQueue.create(path, _cells())
    cell = queue.claim(now=100.0)
    assert cell.key == "k0"  # lowest index first
    queue.lease("k0", "w1", ttl_s=30.0, now=100.0)
    queue.complete("k0", "w1")
    reopened = WorkQueue.open(path, _cells())
    assert reopened.cells["k0"].state == DONE
    assert reopened.cells["k1"].state == PENDING
    assert reopened.torn_events == 0
    assert not reopened.finished()


def test_queue_fail_backoff_release_quarantine(tmp_path):
    path = tmp_path / "queue.jsonl"
    queue = WorkQueue.create(path, _cells())
    queue.lease("k0", "w1", ttl_s=30.0, now=100.0)
    queue.fail("k0", "boom", not_before=200.0)
    assert queue.cells["k0"].attempts == 1
    assert queue.claim(now=150.0) is None or \
        queue.claim(now=150.0).key != "k0"  # backoff holds k0 back
    assert queue.next_not_before() == 200.0
    queue.lease("k1", "w2", ttl_s=30.0, now=100.0)
    queue.release("k1")  # graceful: no attempt charged
    assert queue.cells["k1"].state == PENDING
    assert queue.cells["k1"].attempts == 0
    queue.quarantine("k0", "poisoned")
    reopened = WorkQueue.open(path, _cells())
    assert reopened.cells["k0"].state == QUARANTINED
    assert reopened.cells["k0"].error == "poisoned"
    assert [c.key for c in reopened.quarantined()] == ["k0"]


def test_queue_claim_is_trace_affine(tmp_path):
    pairs = [("cc-5", 1), ("cc-5", 1), ("bfs-10", 1), ("bfs-10", 1),
             ("cc-5", 2), ("cc-5", 2)]
    cells = [{"index": i, "key": f"k{i}", "workload": workload,
              "prefetcher": "nextline", "seed": seed}
             for i, (workload, seed) in enumerate(pairs)]
    queue = WorkQueue.create(tmp_path / "queue.jsonl", cells)
    a, b, c = ("cc-5", 1), ("bfs-10", 1), ("cc-5", 2)
    assert queue.cells["k4"].pair == c
    # No pairs given (the serial path): the lowest index.
    assert queue.claim(now=100.0).key == "k0"
    # A held pair comes first, even at a higher index.
    assert queue.claim(now=100.0, held={c}, others={a}).key == "k4"
    # Then a pair no other worker holds, ahead of the lowest index.
    assert queue.claim(now=100.0, held=set(), others={a}).key == "k2"
    # Every ready pair is held elsewhere: the lowest index, no idling.
    assert queue.claim(now=100.0, held=set(), others={a, b, c}).key == "k0"

    # Leased, backed-off and quarantined cells are still skipped.
    queue.lease("k4", "w1", ttl_s=30.0, now=100.0)
    queue.lease("k5", "w1", ttl_s=30.0, now=100.0)
    queue.fail("k5", "boom", not_before=200.0)
    assert queue.claim(now=150.0, held={c}, others={a}).key == "k2"
    queue.lease("k2", "w1", ttl_s=30.0, now=100.0)
    queue.quarantine("k2", "poisoned")
    assert queue.claim(now=150.0, held={c}, others={a}).key == "k3"
    queue.lease("k3", "w1", ttl_s=30.0, now=150.0)
    assert queue.claim(now=150.0, held={c}, others={a}).key == "k0"
    # Once its backoff elapses, the held pair's cell wins again.
    assert queue.claim(now=250.0, held={c}, others={a}).key == "k5"


def test_queue_expiry_and_stale_heartbeat(tmp_path):
    queue = WorkQueue.create(tmp_path / "queue.jsonl", _cells())
    queue.lease("k0", "w1", ttl_s=10.0, now=100.0)
    assert queue.expired(now=105.0) == []
    assert [c.key for c in queue.expired(now=111.0)] == ["k0"]
    queue.heartbeat("k0", "w1", ttl_s=10.0, now=105.0)
    assert queue.expired(now=111.0) == []  # heartbeat extended the lease
    queue.heartbeat("k0", "w9", ttl_s=10.0, now=120.0)  # stale: ignored
    assert queue.cells["k0"].lease_expires == 115.0


def test_queue_tolerates_torn_tail_mid_utf8(tmp_path):
    path = tmp_path / "queue.jsonl"
    queue = WorkQueue.create(path, _cells())
    queue.lease("k0", "w1", ttl_s=30.0, now=100.0)
    with open(path, "ab") as fh:
        # Crash mid-append, inside the Euro sign's UTF-8 sequence.
        fh.write(b'{"kind": "done", "key": "k0", "note": "\xe2\x82')
    reopened = WorkQueue.open(path, _cells())
    assert reopened.torn_events == 1
    assert reopened.cells["k0"].state == LEASED  # torn done never landed
    # The next append repairs the framing: a fresh line, replayable.
    reopened.complete("k0", "w1")
    again = WorkQueue.open(path, _cells())
    assert again.torn_events == 1
    assert again.cells["k0"].state == DONE


# -- serial campaign end-to-end -----------------------------------------------

def test_serial_campaign_end_to_end(tmp_path):
    directory = tmp_path / "camp"
    campaign = Campaign.create(directory, small_spec(), argv=["campaign"])
    assert (directory / CAMPAIGN_FILE).exists()
    result = campaign.run(echo=lambda _line: None)
    assert result["finished"] and not result["interrupted"]
    assert result["counts"][DONE] == 2
    assert result["quarantined"] == []
    parsed = read_ledger(directory / LEDGER_FILE)
    assert parsed["manifest"]["command"] == "campaign"
    assert parsed["finish"]["status"] == "ok"
    assert parsed["finish"]["resilience"]["completed"] == 2
    assert len(parsed["cells"]) == 2
    for record in parsed["cells"]:
        assert record["outcome"] == "ok"
        assert record["worker"] == "serial"
        assert record["engine_used"] == "batch"
        assert record["metrics"]["ipc"] > 0
    summary = campaign_summary(directory)
    assert summary["finished"] and summary["cells"] == 2
    assert summary["ledger_cells"] == 2
    assert summary["per_worker"] == {"serial": 2}


def test_campaign_create_refuses_existing(tmp_path):
    directory = tmp_path / "camp"
    Campaign.create(directory, small_spec())
    with pytest.raises(ConfigError, match="already exists"):
        Campaign.create(directory, small_spec())


def test_campaign_read_meta_rejects_bad_schema(tmp_path):
    directory = tmp_path / "camp"
    Campaign.create(directory, small_spec())
    meta = json.loads((directory / CAMPAIGN_FILE).read_text())
    meta["schema"] = 99
    (directory / CAMPAIGN_FILE).write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="schema"):
        Campaign.open(directory)


def test_reconcile_never_reexecutes_recorded_cells(tmp_path):
    directory = tmp_path / "camp"
    campaign = Campaign.create(directory, small_spec())
    cells = campaign.spec.expand()
    done, pending = cells[0], cells[1]
    # Simulate a supervisor that died after recording cell 0 in the
    # ledger (but before the queue's done event) while cell 1 was
    # leased by a now-dead worker.
    campaign.ledger.record_cell(
        cell="000", key=done.key, seed=done.seed, workload=done.workload,
        prefetcher=done.prefetcher,
        metrics={"ipc": 9.99, "speedup": 2.0}, outcome="ok", worker="w1")
    campaign.queue.lease(pending.key, "w1", ttl_s=30.0)

    resumed = Campaign.open(directory)
    resumed.reconcile()
    assert resumed.stats.reconciled == 1
    assert resumed.queue.cells[done.key].state == DONE
    assert resumed.queue.cells[pending.key].state == PENDING
    assert resumed.queue.cells[pending.key].attempts == 0  # not charged

    result = resumed.run(echo=lambda _line: None)
    assert result["finished"]
    parsed = read_ledger(directory / LEDGER_FILE)
    by_key = {}
    for record in parsed["cells"]:
        by_key.setdefault(record["key"], []).append(record)
    # The reconciled cell was never re-executed: its one (sentinel)
    # record survives untouched, and only the pending cell ran.
    assert len(by_key[done.key]) == 1
    assert by_key[done.key][0]["metrics"]["ipc"] == 9.99
    assert len(by_key[pending.key]) == 1
    assert by_key[pending.key][0]["worker"] == "serial"


def test_reconcile_requarantines_poison_cells(tmp_path):
    directory = tmp_path / "camp"
    campaign = Campaign.create(directory, small_spec())
    poison = campaign.spec.expand()[0]
    campaign.ledger.record_cell(
        cell="000", key=poison.key, seed=poison.seed,
        workload=poison.workload, prefetcher=poison.prefetcher,
        metrics={}, outcome="quarantined", attempts=3, error="poisoned")
    resumed = Campaign.open(directory)
    resumed.reconcile()
    assert resumed.queue.cells[poison.key].state == QUARANTINED


def test_campaign_spec_for_grid_experiments():
    from repro.harness import CAMPAIGN_GRIDS, campaign_spec_for

    payload = campaign_spec_for("fig4", n_accesses=1000,
                                workloads=["cc-5"])
    spec = CampaignSpec.from_dict(payload)
    assert spec.name == "fig4" and spec.loads == 1000
    assert spec.prefetchers == CAMPAIGN_GRIDS["fig4"]
    assert len(spec.expand()) == len(CAMPAIGN_GRIDS["fig4"])
    with pytest.raises(ConfigError, match="not grid-shaped"):
        campaign_spec_for("table9")


def test_campaign_summary_mid_campaign(tmp_path):
    directory = tmp_path / "camp"
    campaign = Campaign.create(directory, small_spec())
    key = campaign.spec.expand()[0].key
    campaign.queue.lease(key, "w1", ttl_s=30.0)
    summary = campaign_summary(directory)  # read-only, safe mid-run
    assert not summary["finished"]
    assert summary["counts"][LEASED] == 1
    assert summary["counts"][PENDING] == 1
    assert (directory / QUEUE_FILE).exists()
