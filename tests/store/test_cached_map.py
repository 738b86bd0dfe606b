"""cached_map: the one read-through loop, and every client's miss path."""

import json

import numpy as np
import pytest

from repro.analysis import run_lint
from repro.api import FaultPlan, chaos, scenario, solve, solve_relay, sweep
from repro.engine.batch import BatchSolverEngine
from repro.measurements.batch import BatchCampaignConfig, run_campaign
from repro.relay import RelayChain
from repro.store import ResultStore, cached_map


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def _identity_map(store, keys, calls, refresh=False):
    def compute(missing):
        calls.append(list(missing))
        return [{"v": i} for i in missing]

    return cached_map(
        store, keys, compute,
        encode=lambda value: value,
        decode=lambda body: {"v": int(body["v"])},
        refresh=refresh,
    )


def _lookups(store):
    counters = store.snapshot_counters()
    return counters["hits"] + counters["misses"]


class TestPrimitive:
    def test_all_hit_never_calls_compute(self, store):
        keys = ["k0", "k1", "k2"]
        _identity_map(store, keys, [])
        calls = []
        values, hits = _identity_map(store, keys, calls)
        assert calls == []
        assert hits == [True, True, True]
        assert values == [{"v": 0}, {"v": 1}, {"v": 2}]

    def test_compute_called_once_with_misses_in_order(self, store):
        store.put("k1", {"v": 1})
        store.put("k3", {"v": 3})
        calls = []
        values, hits = _identity_map(store, ["k0", "k1", "k2", "k3"], calls)
        assert calls == [[0, 2]]
        assert hits == [False, True, False, True]
        assert values == [{"v": i} for i in range(4)]
        assert store.get("k2", touch=False) == {"v": 2}  # misses written

    def test_rejected_body_is_a_miss_and_is_overwritten(self, store):
        store.put("k0", {"bogus": 1})
        calls = []
        values, hits = _identity_map(store, ["k0"], calls)
        assert calls == [[0]]
        assert hits == [False]
        assert store.get("k0", touch=False) == {"v": 0}

    def test_none_key_never_reads(self, store):
        calls = []
        values, hits = _identity_map(store, [None, None], calls)
        assert _lookups(store) == 0
        assert calls == [[0, 1]]
        assert values == [{"v": 0}, {"v": 1}]
        assert store.stats()["entries"] == 0

    def test_refresh_never_reads_and_rewrites(self, store):
        _identity_map(store, ["k0"], [])
        before = _lookups(store)
        calls = []
        _, hits = _identity_map(store, ["k0"], calls, refresh=True)
        assert _lookups(store) == before
        assert calls == [[0]]
        assert hits == [False]
        assert store.counters["puts"] == 2

    def test_no_store_computes_live(self):
        calls = []
        values, hits = _identity_map(None, ["k0", "k1"], calls)
        assert calls == [[0, 1]]
        assert hits == [False, False]

    def test_one_index_write_each_for_hits_and_misses(self, store, monkeypatch):
        store.put("k0", {"v": 0})
        store.put("k1", {"v": 1})
        writes = []
        original = store._save_index
        monkeypatch.setattr(
            store, "_save_index",
            lambda index: (writes.append(1), original(index)),
        )
        _identity_map(store, ["k0", "k1", "k2", "k3"], [])
        assert len(writes) == 2  # one touch_many + one put_many


# ----------------------------------------------------------------------
# Every client: a checksum-valid entry its decoder rejects
# ----------------------------------------------------------------------

LINT_TREE = {
    "core/delay.py": "def delay(x_m):\n    return x_m * 2.0\n",
    "sim/clocked.py": "import time\n\ndef now():\n    return time.time()\n",
}


def _solve(tmp_path):
    scn = scenario("airplane", mdata_mb=15.0)
    return lambda store: solve(
        scn, engine=BatchSolverEngine(cache_size=0), cache=store
    ).manifest.to_json()


def _sweep(tmp_path):
    scn = scenario("quadrocopter")
    return lambda store: sweep(
        scn, "mdata_mb", [1.0, 5.0, 9.0],
        engine=BatchSolverEngine(cache_size=0), cache=store,
    ).manifest.to_json()


def _campaign(tmp_path):
    config = BatchCampaignConfig(
        profile="quadrocopter", distances_m=(80.0, 160.0), n_replicas=3,
        duration_s=2.0, seed=3, block_size=4,
    )
    return lambda store: json.dumps(
        run_campaign(config, parallel=False, cache=store).samples,
        sort_keys=True,
    )


def _lint(tmp_path):
    root = tmp_path / "pkg"
    for relative, source in LINT_TREE.items():
        (root / relative).parent.mkdir(parents=True, exist_ok=True)
        (root / relative).write_text(source)

    def run(store):
        payload = run_lint(root=root, use_baseline=False, cache=store).to_dict()
        payload.pop("telemetry")
        return json.dumps(payload, sort_keys=True)

    return run


def _chaos(tmp_path):
    plan = FaultPlan(name="test", seed=7).with_outage(5.0, 3.0)
    return lambda store: chaos(
        plan, scenario_name="quadrocopter", seed=7, cache=store
    ).manifest.to_json()


def _relay(tmp_path):
    chain = RelayChain.of(
        [scenario("quadrocopter"), scenario("airplane")],
        handoff_s=5.0, mdata_mb=2.0, deadline_s=300.0,
    )
    return lambda store: solve_relay(chain, cache=store).manifest.to_json()


SITES = {
    "solve": _solve,
    "sweep": _sweep,
    "campaign-shard": _campaign,
    "lint-record": _lint,
    "chaos": _chaos,
    "relay": _relay,
}


def _bodies(store):
    return {
        path.stem: json.loads(path.read_text())["body"]
        for path in store.root.joinpath("objects").rglob("*.json")
    }


def _delta(store, before, name):
    return store.snapshot_counters()[name] - before[name]


@pytest.mark.parametrize("site", sorted(SITES))
def test_undecodable_entry_recomputes_overwrites_then_hits(site, tmp_path):
    run = SITES[site](tmp_path)
    store = ResultStore(tmp_path / "cache")
    cold = run(store)
    keys = sorted(_bodies(store))
    assert keys
    for key in keys:
        assert store.put(key, {"bogus": 1})

    before = store.snapshot_counters()
    assert run(store) == cold
    assert _delta(store, before, "puts") == len(keys)
    bodies = _bodies(store)
    assert sorted(bodies) == keys
    assert all(body != {"bogus": 1} for body in bodies.values())

    before = store.snapshot_counters()
    assert run(store) == cold
    assert _delta(store, before, "hits") == len(keys)
    assert _delta(store, before, "misses") == 0
    assert _delta(store, before, "puts") == 0


def test_sweep_groups_merge_in_request_order(store):
    """A dense sweep with one group recomputed equals the cold one."""
    scn = scenario("quadrocopter")
    values = np.linspace(1.0, 60.0, 300)

    def run():
        engine = BatchSolverEngine(cache_size=0, chunk_size=100)
        return sweep(scn, "mdata_mb", values, engine=engine, cache=store)

    cold = run()
    bodies = _bodies(store)
    assert len(bodies) == 3
    store.put(sorted(bodies)[1], {"bogus": 1})
    before = store.snapshot_counters()
    warm = run()
    assert _delta(store, before, "puts") == 1
    for name in ("distance_m", "utility", "data_bits"):
        np.testing.assert_array_equal(
            getattr(cold.outputs, name), getattr(warm.outputs, name)
        )
    assert cold.manifest.to_json() == warm.manifest.to_json()
