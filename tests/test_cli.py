"""Tests for the `repro` command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.obs.ledger import read_ledger
from tests.helpers import child_env


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trace_profile(capsys):
    assert main(["trace", "cc-5", "--profile", "--loads", "1000"]) == 0
    out = capsys.readouterr().out
    assert "profile of cc-5" in out
    assert "deltas in (-31,31)" in out


def test_trace_save(tmp_path, capsys):
    out_file = tmp_path / "t.txt"
    assert main(["trace", "bfs-10", "--out", str(out_file),
                 "--loads", "500"]) == 0
    assert out_file.exists()
    from repro.traces import load_trace

    assert len(load_trace(out_file)) == 500


def test_trace_without_action_errors(capsys):
    assert main(["trace", "cc-5"]) == 2


def test_run_command(capsys):
    assert main(["run", "cc-5", "nextline", "--loads", "1000"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "coverage" in out


@pytest.mark.parametrize("unbuffered", ("1", ""),
                         ids=("unbuffered", "buffered"))
def test_closed_stdout_pipe_exits_141_without_traceback(tmp_path,
                                                        unbuffered):
    """A reader that closed the pipe early ends the command with the
    shell's SIGPIPE status and no traceback, whether stdout is
    buffered (the error surfaces at the final flush) or not (at the
    first print)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "cc-5", "nextline",
             "--loads", "500", "--no-ledger"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=child_env(PYTHONUNBUFFERED=unbuffered),
            timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_rejects_unknown_prefetcher():
    with pytest.raises(SystemExit):
        main(["run", "cc-5", "nope"])


def test_run_engine_batch_with_inject_faults_stays_on_batch(tmp_path):
    """Armed faults do not force the reference loop: the ledger
    records the kernel."""
    assert main(["run", "cc-5", "nextline", "--loads", "400",
                 "--results-dir", str(tmp_path),
                 "--inject-faults", "prefetcher.access:p=0"]) == 0
    (ledger,) = tmp_path.glob("*.jsonl")
    (cell,) = read_ledger(ledger)["cells"]
    assert cell["engine_used"] == "batch"


def test_run_rejects_removed_engine(capsys):
    """The simulator picks its replay loop: any --engine exits 2."""
    for engine in ("batch", "reference", "fast"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "cc-5", "nextline", "--engine", engine])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["bench", "--small", "--out", "bench.json"],
    ["report", "--history", "history.jsonl"],
])
def test_removed_bench_commands_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_run_default_engine_downgrades_with_warning(tmp_path, capsys):
    """Event tracing runs the reference loop, with a warning."""
    import warnings

    from repro.errors import EngineFallbackWarning

    events = tmp_path / "e.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "cc-5", "nextline", "--loads", "400",
                     "--events-out", str(events)]) == 0
    assert any(isinstance(w.message, EngineFallbackWarning)
               for w in caught)
    assert events.exists()


def test_experiment_command(capsys):
    assert main(["experiment", "table9"]) == 0
    out = capsys.readouterr().out
    assert "Hardware area & power" in out


def test_experiment_with_overrides(capsys):
    assert main(["experiment", "table6", "--loads", "1200",
                 "--workloads", "cc-5"]) == 0
    out = capsys.readouterr().out
    assert "Issued prefetches" in out


def test_experiment_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "table42"])


def test_campaign_run_status_resume_report(tmp_path, capsys):
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "cli", "workloads": ["cc-5"],
        "prefetchers": ["nextline", "bo"], "loads": 1000, "workers": 0}))
    directory = tmp_path / "camp"
    assert main(["campaign", "run", str(spec), "--dir", str(directory),
                 "--stop-after", "1"]) == 0
    out = capsys.readouterr().out
    assert "paused" in out and "resume" in out
    assert main(["campaign", "status", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "campaign status" in out and "running/paused" in out
    # Every campaign has a timeline: it comes from queue.jsonl.
    assert "queue depth" in out and "throughput" in out
    assert main(["campaign", "resume", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "finished: 2 done" in out
    assert main(["campaign", "status", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "queue depth" in out
    html = tmp_path / "dash.html"
    assert main(["report", "--campaign", str(directory),
                 "--html", str(html)]) == 0
    text = html.read_text()
    assert "Campaign" in text
    assert text.count("Campaign timeline") == 1


@pytest.mark.parametrize("verb", ["run", "resume"])
def test_campaign_series_flag_is_gone(tmp_path, verb):
    """The timeline needs no flag, so ``--series`` is unknown here."""
    with pytest.raises(SystemExit) as exc:
        main(["campaign", verb, str(tmp_path / "x"), "--series"])
    assert exc.value.code == 2


def test_campaign_run_rejects_quoted_comma_workload(tmp_path, capsys):
    """A quoted flow-list item keeps its comma, as in YAML, so the one
    string is an unknown workload (exit 2), not two workloads."""
    spec = tmp_path / "spec.yaml"
    spec.write_text('name: q\nworkloads: ["cc-5, bfs-10"]\n'
                    'prefetchers: [nextline]\nloads: 400\nworkers: 0\n')
    assert main(["campaign", "run", str(spec),
                 "--dir", str(tmp_path / "camp")]) == 2
    assert "unknown workload 'cc-5, bfs-10'" in capsys.readouterr().out
    assert not (tmp_path / "camp").exists()


def test_campaign_resume_rejects_schema_1_directory(tmp_path, capsys):
    """A directory written while specs and cell keys carried a replay
    engine exits 2 on its schema, not on the engine field."""
    import json

    from repro.campaign import CAMPAIGN_FILE, Campaign, CampaignSpec

    directory = tmp_path / "camp"
    Campaign.create(directory, CampaignSpec(
        name="old", workloads=("cc-5",), prefetchers=("nextline",),
        loads=400, workers=0))
    meta = json.loads((directory / CAMPAIGN_FILE).read_text())
    meta["schema"] = 1
    meta["spec"]["engine"] = "batch"
    (directory / CAMPAIGN_FILE).write_text(json.dumps(meta))
    assert main(["campaign", "resume", str(directory)]) == 2
    out = capsys.readouterr().out
    assert "campaign schema 1" in out and "engine" not in out


def test_campaign_resume_rejects_schema_2_directory(tmp_path, capsys):
    """A directory written while cache levels carried a replacement
    policy holds cell keys no current cell matches, so it exits 2."""
    import json

    from repro.campaign import CAMPAIGN_FILE, Campaign, CampaignSpec

    directory = tmp_path / "camp"
    Campaign.create(directory, CampaignSpec(
        name="old", workloads=("cc-5",), prefetchers=("nextline",),
        loads=400, workers=0))
    meta = json.loads((directory / CAMPAIGN_FILE).read_text())
    meta["schema"] = 2
    (directory / CAMPAIGN_FILE).write_text(json.dumps(meta))
    assert main(["campaign", "resume", str(directory)]) == 2
    assert "campaign schema 2" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    pytest.param("loads", "4k", id="loads-4k"),
    pytest.param("loads", None, id="loads-null"),
    pytest.param("loads", 4000.7, id="loads-fraction"),
    pytest.param("seeds", [1, "two"], id="seeds-word"),
    pytest.param("seeds", [1.9], id="seeds-fraction"),
    pytest.param("workers", True, id="workers-bool"),
    pytest.param("lease_ttl_s", "soon", id="lease_ttl_s-word"),
    pytest.param("lease_ttl_s", "nan", id="lease_ttl_s-nan"),
    pytest.param("backoff_s", "nan", id="backoff_s-nan"),
    pytest.param("backoff_factor", "nan", id="backoff_factor-nan"),
    pytest.param("name", None, id="name-null"),
])
def test_campaign_run_rejects_malformed_spec_values(tmp_path, capsys,
                                                    field, value):
    """A value that is not exactly its field's type exits 2 and names
    the field; nothing is truncated, coerced from a bool, or NaN."""
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "typed", "workloads": ["cc-5"], "prefetchers": ["nextline"],
        "loads": 400, "workers": 0, field: value}))
    assert main(["campaign", "run", str(spec),
                 "--dir", str(tmp_path / "camp")]) == 2
    out = capsys.readouterr().out
    assert f"error: campaign spec: {field} must be" in out
    assert not (tmp_path / "camp").exists()


def test_campaign_run_rejects_existing_dir_and_bad_spec(tmp_path, capsys):
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "dup", "workloads": ["cc-5"],
        "prefetchers": ["nextline"], "loads": 600, "workers": 0}))
    directory = tmp_path / "camp"
    assert main(["campaign", "run", str(spec),
                 "--dir", str(directory)]) == 0
    capsys.readouterr()
    assert main(["campaign", "run", str(spec),
                 "--dir", str(directory)]) == 2  # config error, not crash
    assert "already exists" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "workloads": ["cc-5"],
                               "prefetchers": ["no-such"]}))
    assert main(["campaign", "run", str(bad),
                 "--dir", str(tmp_path / "other")]) == 2
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({"name": "r", "workloads": ["cc-5"],
                                    "prefetchers": ["nextline", "nextline"]}))
    capsys.readouterr()
    assert main(["campaign", "run", str(repeated),
                 "--dir", str(tmp_path / "repeated")]) == 2
    assert "prefetchers repeats 'nextline'" in capsys.readouterr().out
    assert not (tmp_path / "repeated").exists()
    assert main(["campaign", "status", str(tmp_path / "nowhere")]) == 2


def _assert_exits_2_with_one_error(argv, capsys) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.out.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "cc-5", "nextline", "--loads", "500",
                  "--budget", "0"], id="run-budget-0"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "500",
                  "--inject-faults", "bogus"], id="run-inject-faults-bogus"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "500",
                  "--series-window", "-4"], id="run-series-window-negative"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "500",
                  "--series-window", "0"], id="run-series-window-0"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "-5"],
                 id="run-loads-negative"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "0"],
                 id="run-loads-0"),
    pytest.param(["run", "cc-5", "nextline", "--loads", "500",
                  "--seed", "-1"], id="run-seed-negative"),
    pytest.param(["trace", "cc-5", "--profile", "--loads", "0"],
                 id="trace-profile-loads-0"),
    pytest.param(["trace", "cc-5", "--profile", "--loads", "-3"],
                 id="trace-profile-loads-negative"),
    pytest.param(["experiment", "table6", "--loads", "500",
                  "--retries", "-1"], id="experiment-retries-negative"),
    pytest.param(["experiment", "table6", "--loads", "500",
                  "--cell-timeout", "0"], id="experiment-cell-timeout-0"),
    pytest.param(["experiment", "table6", "--loads", "500",
                  "--workloads", "nosuch"], id="experiment-unknown-workload"),
    pytest.param(["experiment", "fig4", "--loads", "0",
                  "--workloads", "cc-5"], id="experiment-fig4-loads-0"),
    pytest.param(["experiment", "fig7", "--loads", "0",
                  "--workloads", "cc-5"], id="experiment-fig7-loads-0"),
])
def test_configuration_errors_exit_2(argv, capsys):
    """Every subcommand reports a configuration error as one ``error:``
    line and exit 2, never a traceback."""
    _assert_exits_2_with_one_error(argv, capsys)


@pytest.mark.parametrize("flags", [
    pytest.param(["--max-regress", "-1"], id="max-regress-negative"),
    pytest.param(["--alpha", "0"], id="alpha-0"),
    pytest.param(["--alpha", "2"], id="alpha-2"),
])
def test_compare_gate_out_of_range_exits_2(flags, tmp_path, capsys):
    """A regression gate outside its range is a configuration error, not
    a comparison that flags or passes every timing."""
    assert main(["run", "cc-5", "nextline", "--loads", "500",
                 "--results-dir", str(tmp_path)]) == 0
    (ledger,) = tmp_path.glob("*.jsonl")
    capsys.readouterr()
    _assert_exits_2_with_one_error(
        ["compare", str(ledger), str(ledger), *flags], capsys)


def test_campaign_run_rejects_negative_seed_before_any_cell(tmp_path,
                                                            capsys):
    """A negative seed is a configuration error of the spec, not three
    failed attempts per cell."""
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "negative", "workloads": ["cc-5"],
        "prefetchers": ["nextline"], "seeds": [-1], "loads": 400,
        "workers": 0}))
    assert main(["campaign", "run", str(spec),
                 "--dir", str(tmp_path / "camp")]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.out.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: campaign spec: seeds must be >= 0"]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "camp").exists()
