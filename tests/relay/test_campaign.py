"""Relay campaigns: worker-count invariance and config validation."""

import pytest

from repro.obs import ObsContext
from repro.relay import (
    RelayCampaignConfig,
    relay_campaign_manifest,
    run_relay_campaign,
)

OUTAGE_CONFIG = RelayCampaignConfig(
    mdata_mb=1.0,
    n_replicas=4,
    block_size=1,
    outage_rate_per_s=0.02,
    outage_mean_duration_s=3.0,
    horizon_s=200.0,
)


class TestWorkerInvariance:
    def test_manifests_byte_identical_1_vs_4_workers(self):
        """The ISSUE's chaos contract: outage campaigns are worker-count
        invariant down to the manifest bytes."""
        documents = []
        for parallel, workers in ((False, None), (True, 4)):
            obs = ObsContext.enabled(deterministic=True)
            result = run_relay_campaign(
                OUTAGE_CONFIG, parallel=parallel, max_workers=workers,
                obs=obs,
            )
            manifest = relay_campaign_manifest(
                result, OUTAGE_CONFIG, obs=obs, git_rev=None
            )
            documents.append(manifest.to_json().encode())
        assert documents[0] == documents[1]

    def test_results_invariant_to_block_size(self):
        """Fault plans are keyed to global replica indices, so shard
        layout cannot change any replica's outcome."""
        import dataclasses

        small = run_relay_campaign(OUTAGE_CONFIG, parallel=False)
        big = run_relay_campaign(
            dataclasses.replace(OUTAGE_CONFIG, block_size=4), parallel=False
        )
        assert small.to_dict() == big.to_dict()

    def test_outages_actually_fire(self):
        result = run_relay_campaign(OUTAGE_CONFIG, parallel=False)
        assert result.n_replicas == 4
        assert all(r.byte_ledger_consistent() for r in result.replicas)
        # The sampled plans differ per replica (global-index keying).
        plans = {r.plan_name for r in result.replicas}
        assert plans == {"replica0", "replica1", "replica2", "replica3"}


class TestConfigSurface:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_replicas"):
            RelayCampaignConfig(n_replicas=0)
        with pytest.raises(ValueError, match="block_size"):
            RelayCampaignConfig(block_size=0)
        with pytest.raises(ValueError, match="outage_mean_duration_s"):
            RelayCampaignConfig(outage_rate_per_s=0.1)
        with pytest.raises(ValueError, match="scenarios"):
            RelayCampaignConfig(scenarios=())
        with pytest.raises(ValueError, match="zeppelin"):
            RelayCampaignConfig(scenarios=("zeppelin",)).chain()

    def test_shards_cover_every_replica_once(self):
        config = RelayCampaignConfig(n_replicas=10, block_size=3)
        shards = config.shards()
        flat = [g for _, replicas in shards for g in replicas]
        assert flat == list(range(10))
        assert [shard for shard, _ in shards] == [0, 1, 2, 3]

    def test_manifest_shape(self):
        obs = ObsContext.enabled(deterministic=True)
        result = run_relay_campaign(
            OUTAGE_CONFIG, parallel=False, obs=obs
        )
        manifest = relay_campaign_manifest(result, OUTAGE_CONFIG, obs=obs)
        payload = manifest.to_dict()
        assert payload["kind"] == "relay_campaign"
        assert payload["config"]["n_replicas"] == 4
        assert payload["seeds"] == {"relay_campaign": 1}
        assert payload["outputs"]["n_replicas"] == 4
        counters = payload["metrics"]["counters"]
        assert counters["relay.campaign.replicas"] == 4


class TestFaultFreeCampaign:
    def test_default_campaign_runs_and_is_worker_invariant(self):
        """A zero outage rate samples no plan (it used to raise
        ``mean_duration_s must be positive``)."""
        config = RelayCampaignConfig(n_replicas=2)
        documents = []
        for parallel, workers in ((False, None), (True, 2)):
            obs = ObsContext.enabled(deterministic=True)
            result = run_relay_campaign(
                config, parallel=parallel, max_workers=workers, obs=obs
            )
            assert result.n_replicas == 2
            assert result.total_resumes == 0
            assert all(r.byte_ledger_consistent() for r in result.replicas)
            manifest = relay_campaign_manifest(
                result, config, obs=obs, git_rev=None
            )
            documents.append(manifest.to_json().encode())
        assert documents[0] == documents[1]
