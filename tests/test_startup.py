"""What a command imports: each ``repro`` command loads only the code it
runs, through lazy package exports and a lazy prefetcher registry."""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.harness import EXPERIMENTS, PREFETCHER_FACTORIES
from tests.helpers import child_env

#: Packages whose ``__init__`` resolves (some of) its public names on
#: first access.
LAZY_PACKAGES = ("repro", "repro.core", "repro.prefetchers",
                 "repro.harness", "repro.snn", "repro.sim", "repro.obs")

#: Modules, and whole packages, that a next-line ``repro run`` has no
#: use for: other prefetchers, PATHFINDER's configuration and its SNN
#: (with the one-tick library), the neural baselines' LSTM stack, the
#: co-run simulator, the experiment registry, the series, dashboard and
#: statistics layers, the cost model, campaigns and trace analysis.
NOT_LOADED_BY_RUN = (
    "repro.ml", "repro.snn",
    "repro.core.config", "repro.core.pathfinder", "repro.core.pixel",
    "repro.core.training_table", "repro.core.inference_table",
    "repro.prefetchers.best_offset", "repro.prefetchers.spp",
    "repro.prefetchers.sisb", "repro.prefetchers.pythia",
    "repro.prefetchers.voyager", "repro.prefetchers.delta_lstm",
    "repro.prefetchers.ensemble", "repro.prefetchers.adaptive_ensemble",
    "repro.prefetchers.cold_page",
    "repro.harness.experiments", "repro.harness.dashboard",
    "repro.harness.compare", "repro.harness.stats",
    "repro.sim.multicore", "repro.obs.timeseries", "repro.hw",
    "repro.campaign", "repro.analysis",
)


def _modules_after(code: str, cwd) -> list:
    """The ``sys.modules`` names a fresh interpreter holds after ``code``."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_run_loads_only_the_modules_it_runs(tmp_path):
    loaded = _modules_after(
        "from repro.cli import main\n"
        "assert main(['run', 'cc-5', 'nextline', '--loads', '500',"
        " '--no-ledger']) == 0", tmp_path)
    assert "repro.prefetchers.nextline" in loaded
    unexpected = [name for name in loaded
                  if any(name == banned or name.startswith(banned + ".")
                         for banned in NOT_LOADED_BY_RUN)]
    assert unexpected == []


def test_import_repro_loads_only_the_lazy_helper(tmp_path):
    loaded = _modules_after("import repro", tmp_path)
    assert "numpy" not in loaded
    assert [name for name in loaded if name.split(".")[0] == "repro"] \
        == ["repro", "repro._lazy"]


def _submodules(package) -> list:
    """Every module under ``package``, imported."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__,
                                              package.__name__ + ".")]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_public_name_resolves_to_its_definition(name):
    """Each ``__all__`` name is in ``dir()`` and resolves to the object
    the submodule that defines it holds under the same name."""
    package = importlib.import_module(name)
    submodules = _submodules(package)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, export
        if export == "__version__":
            continue
        defined_here = getattr(value, "__module__", None) == name
        assert defined_here or any(vars(module).get(export) is value
                                   for module in submodules), \
            f"{name}.{export} is not its submodule's {export}"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")


def test_parser_choices_are_the_registries():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))

    def choices(command: str, dest: str) -> list:
        (action,) = [action for action in commands.choices[command]._actions
                     if action.dest == dest]
        return list(action.choices)

    assert choices("run", "prefetcher") == sorted(PREFETCHER_FACTORIES)
    assert choices("experiment", "experiment") == sorted(EXPERIMENTS)


def test_unknown_experiment_exits_2_listing_the_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["experiment", "nope"])
    assert exc.value.code == 2
    listed = ", ".join(map(repr, sorted(EXPERIMENTS)))
    assert f"invalid choice: 'nope' (choose from {listed})" \
        in capsys.readouterr().err
