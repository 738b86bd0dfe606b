"""Cold decisions stay off the simulation stack and SciPy.

Each decision command runs in a fresh ``python -m repro`` process that
dumps ``sys.modules`` after the CLI returns, so an eager import that
creeps back into ``repro solve|relay|sweep`` fails here rather than as a
slower benchmark.  The lazily-resolved package exports are checked in
process.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Runs ``python -m repro ARGV`` via runpy, then writes the exit code
#: and the loaded module names to the file named by its first argument.
CHILD = """
import json, runpy, sys
report = sys.argv.pop(1)
sys.argv[0] = "repro"
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exit:
    code = exit.code
with open(report, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

DECISIONS = {
    "solve": ["solve", "airplane", "--json"],
    "relay": [
        "relay", "--hops", "airplane,quadrocopter", "--deadline", "600",
        "--json",
    ],
    "sweep": [
        "sweep", "quadrocopter", "--param", "mdata_mb",
        "--linspace", "1", "60", "200", "--json",
    ],
}

#: Modules (and their submodules) no decision may load.  ``repro.exec``
#: (sweep/relay dispatch) and ``repro.sim`` (seeded streams) may.
FORBIDDEN = (
    "scipy",
    "repro.measurements.batch",
    "repro.measurements.campaign",
    "repro.net",
    "repro.channel",
    "repro.mac",
    "repro.phy",
    "repro.mission",
    "repro.relay.campaign",
    "repro.relay.transfer",
    "repro.faults.outage",
    "repro.faults.injector",
    "repro.faults.chaos",
)

LAZY_PACKAGES = ("repro.measurements", "repro.faults", "repro.relay")


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """``{command: (exit code, stdout, loaded modules)}``, one process each."""
    work = tmp_path_factory.mktemp("cli-imports")
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_CACHE"):
        env.pop(name, None)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    runs = {}
    for command, argv in DECISIONS.items():
        report = work / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(report), *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=300,
        )
        assert report.exists(), proc.stderr
        payload = json.loads(report.read_text())
        runs[command] = (payload["code"], proc.stdout, payload["modules"])
    return runs


@pytest.mark.parametrize("command", sorted(DECISIONS))
def test_decision_loads_no_simulation_stack(cold_runs, command):
    code, stdout, modules = cold_runs[command]
    assert code in (0, 1), stdout
    json.loads(stdout, parse_constant=_reject_constant)
    loaded = [
        module
        for module in modules
        if any(
            module == banned or module.startswith(banned + ".")
            for banned in FORBIDDEN
        )
    ]
    assert loaded == []


def test_solve_json_decision(cold_runs):
    code, stdout, _ = cold_runs["solve"]
    assert code == 0
    payload = json.loads(stdout)
    assert payload["scenario"] == "airplane"
    assert 20.0 <= payload["distance_m"] <= 300.0


def _defining_module(package, name, value):
    """The module that defines ``name`` (not one that re-exports it)."""
    if inspect.isclass(value) or inspect.isroutine(value):
        return importlib.import_module(value.__module__)
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        if name in vars(module):
            return module
    raise AssertionError(f"no submodule of {package.__name__} has {name}")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_definitions(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        value = getattr(package, name)
        home = _defining_module(package, name, value)
        assert getattr(home, name) is value, (package_name, name)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        getattr(package, "no_such_symbol")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_star_import(package_name):
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)
