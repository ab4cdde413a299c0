"""Tests for the `repro` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs.ledger import read_ledger


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


def test_run_rejects_unknown_prefetcher():
    with pytest.raises(SystemExit):
        main(["run", "cc-5", "nope"])


def test_run_engine_batch_explicit(capsys):
    assert main(["run", "cc-5", "nextline", "--loads", "1000",
                 "--engine", "batch"]) == 0
    assert "speedup" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ["--events-out", "e.jsonl"],
])
def test_run_engine_batch_with_incompatible_flag_is_config_error(
        tmp_path, capsys, extra, monkeypatch):
    """An *explicit* --engine batch combined with flags that force a
    slower engine must exit 2 with a config error, not downgrade."""
    monkeypatch.chdir(tmp_path)  # --events-out writes relative to cwd
    assert main(["run", "cc-5", "nextline", "--loads", "400",
                 "--engine", "batch"] + extra) == 2
    assert "incompatible" in capsys.readouterr().out


def test_run_engine_batch_with_inject_faults_stays_on_batch(tmp_path):
    """Armed faults no longer force a slower engine: an explicit
    --engine batch runs, and the ledger records the kernel."""
    assert main(["run", "cc-5", "nextline", "--loads", "400",
                 "--engine", "batch", "--results-dir", str(tmp_path),
                 "--inject-faults", "prefetcher.access:p=0"]) == 0
    (ledger,) = tmp_path.glob("*.jsonl")
    (cell,) = read_ledger(ledger)["cells"]
    assert cell["engine_used"] == "batch"


def test_run_rejects_removed_engine(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "cc-5", "nextline", "--engine", "fast"])
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
    """Leaving --engine off lets the simulator downgrade (visibly)."""
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
    assert main(["campaign", "resume", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "finished: 2 done" in out
    assert main(["campaign", "status", str(directory)]) == 0
    assert "finished" in capsys.readouterr().out
    html = tmp_path / "dash.html"
    assert main(["report", "--campaign", str(directory),
                 "--html", str(html)]) == 0
    assert "Campaign" in html.read_text()


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
