"""Cold/warm byte-identity of ``python -m repro`` runs against one store.

Each command runs as a fresh process under a temporary
``REPRO_CACHE_DIR``: the first run fills the store, the second must be
served from it and print the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SWEEP = [
    "sweep", "quadrocopter", "--param", "mdata_mb",
    "--linspace", "1", "60", "2000",
]


@pytest.fixture(scope="module")
def repro_cli(tmp_path_factory):
    """Run ``python -m repro ARGS`` in a work dir with a shared store."""
    work = tmp_path_factory.mktemp("cli-cache")
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)
    env["REPRO_CACHE_DIR"] = str(work / "repro-cache")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=work, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    run.work = work
    return run


def test_sweep_cold_warm_manifests_identical(repro_cli):
    repro_cli(*SWEEP, "--manifest-out", "cold.json")
    repro_cli(*SWEEP, "--manifest-out", "warm.json")
    cold = (repro_cli.work / "cold.json").read_bytes()
    assert cold == (repro_cli.work / "warm.json").read_bytes()


def test_warm_sweep_is_served_from_the_store(repro_cli):
    repro_cli(*SWEEP)  # make sure the store is warm
    repro_cli(*SWEEP, "--metrics-out", "metrics.json")
    payload = json.loads((repro_cli.work / "metrics.json").read_text())
    counters = payload["metrics"]["counters"]
    assert counters.get("store.hits", 0) >= 1, counters
    assert counters.get("store.points.warm", 0) == 2000, counters
    assert not any(name.startswith("engine.") for name in counters), counters


def test_relay_cold_warm_json_identical(repro_cli):
    cold = repro_cli("relay", "--deadline", "600", "--json")
    warm = repro_cli("relay", "--deadline", "600", "--json")
    assert cold == warm


def test_chaos_cold_warm_json_identical_but_for_wall_clock(repro_cli):
    cold = json.loads(repro_cli("chaos", "--json"))
    warm = json.loads(repro_cli("chaos", "--json"))
    cold.pop("created_unix_s")
    warm.pop("created_unix_s")
    assert cold == warm


def test_store_stats_and_verify_are_clean(repro_cli):
    stats = json.loads(repro_cli("cache", "stats"))
    assert stats["counters"]["corrupt"] == 0
    outcome = json.loads(repro_cli("cache", "verify", "--no-repair"))
    assert outcome["corrupt"] == 0
