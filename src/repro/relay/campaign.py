"""Relay transfer campaigns: replicated fault-plan runs, sharded.

:func:`run_relay_campaign` replays one relay chain under many
independently sampled outage plans — the relay analogue of
:func:`repro.measurements.batch.run_campaign` — and shards the
replicas onto the persistent :mod:`repro.exec` process pool.  The two
invariance rules that make campaigns reproducible carry over verbatim:

* every replica's fault plan is keyed to its **global** replica index
  (never to the shard that happens to execute it), so the sampled
  outages are independent of worker count and pool completion order;
* each shard fills a *deterministic* obs context and the parent merges
  them in shard order, so the merged observability — and therefore the
  campaign manifest — is byte-identical for 1 worker or 8.

When the pool cannot be started (restricted environments) the backend
degrades to the sequential path and still returns full results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exec import backend_for
from ..faults.plan import replica_outage_plan
from ..obs import ObsContext, RunManifest
from .chain import RelayChain
from .solver import RelayDecision, RelaySolver
from .transfer import RelayTransferResult, run_relay_transfer

__all__ = [
    "RelayCampaignConfig",
    "RelayCampaignResult",
    "relay_campaign_manifest",
    "run_relay_campaign",
]


@dataclass(frozen=True)
class RelayCampaignConfig:
    """Picklable description of one relay campaign.

    Hops are named baseline scenarios (the worker rebuilds the chain
    from names — no object references cross the process boundary).
    """

    scenarios: Tuple[str, ...] = ("quadrocopter", "airplane")
    handoff_s: float = 5.0
    mdata_mb: Optional[float] = None
    deadline_s: Optional[float] = None
    n_replicas: int = 8
    seed: int = 1
    epoch_s: float = 0.02
    controller: str = "arf"
    idle_timeout_s: float = 2.0
    max_resumes: int = 8
    #: Poisson arrival rate of injected link outages per replica
    #: (0 = fault-free).
    outage_rate_per_s: float = 0.0
    #: Mean duration of each injected outage (exponential).
    outage_mean_duration_s: float = 0.0
    #: Horizon the outage plans are sampled over.
    horizon_s: float = 600.0
    #: Replicas per process-pool task.
    block_size: int = 4

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("scenarios must not be empty")
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.outage_rate_per_s < 0:
            raise ValueError("outage_rate_per_s must be non-negative")
        if self.outage_rate_per_s > 0 and self.outage_mean_duration_s <= 0:
            raise ValueError(
                "outage_mean_duration_s must be positive when outages are on"
            )

    def chain(self) -> RelayChain:
        """The campaign's relay chain, rebuilt from scenario names."""
        from ..core.scenario import airplane_scenario, quadrocopter_scenario

        factories = {
            "airplane": airplane_scenario,
            "quadrocopter": quadrocopter_scenario,
        }
        hops = []
        for name in self.scenarios:
            try:
                hops.append(factories[name]())
            except KeyError:
                raise ValueError(
                    f"unknown scenario {name!r}; choose from "
                    f"{sorted(factories)}"
                ) from None
        return RelayChain.of(
            hops,
            handoff_s=self.handoff_s,
            name="-".join(self.scenarios),
            deadline_s=self.deadline_s,
            mdata_mb=self.mdata_mb,
        )

    def shards(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(shard index, global replica indices) task list."""
        replicas = list(range(self.n_replicas))
        return [
            (shard, tuple(replicas[start:start + self.block_size]))
            for shard, start in enumerate(
                range(0, self.n_replicas, self.block_size)
            )
        ]


@dataclass
class RelayCampaignResult:
    """Per-replica transfer outcomes, merged in global replica order."""

    replicas: Tuple[RelayTransferResult, ...]
    decision: RelayDecision

    @property
    def n_replicas(self) -> int:
        """Number of replicas run."""
        return len(self.replicas)

    @property
    def completed(self) -> int:
        """Replicas that delivered the full batch."""
        return sum(1 for r in self.replicas if r.completed)

    @property
    def total_resumes(self) -> int:
        """Checkpoint/resume cycles across all replicas."""
        return sum(r.resumes for r in self.replicas)

    def to_dict(self) -> Dict[str, object]:
        """JSON document; identical for any worker count."""
        return {
            "n_replicas": self.n_replicas,
            "completed": self.completed,
            "total_resumes": self.total_resumes,
            "decision": self.decision.to_dict(),
            "replicas": [r.to_dict() for r in self.replicas],
        }


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------

def _shard_obs(
    shard: int, results: List[RelayTransferResult]
) -> ObsContext:
    """Deterministic obs context describing one shard's work."""
    obs = ObsContext.enabled(deterministic=True)
    end_s = max((r.finish_s for r in results), default=0.0)
    with obs.tracer.span(
        "relay.shard", sim_start_s=0.0, shard=shard
    ) as handle:
        handle.end_sim(end_s)
    obs.metrics.counter("relay.campaign.replicas").inc(len(results))
    obs.metrics.counter("relay.campaign.completed").inc(
        sum(1 for r in results if r.completed)
    )
    obs.metrics.counter("relay.campaign.resumes").inc(
        sum(r.resumes for r in results)
    )
    return obs


def _run_shard_task(
    args: Tuple,
) -> Tuple[List[RelayTransferResult], Optional[ObsContext]]:
    """One pool task: a block of replicas, sequentially."""
    config, shard, replicas, collect_obs = args
    chain = config.chain()
    decision = RelaySolver().solve(chain)
    results = [
        run_relay_transfer(
            chain,
            replica_outage_plan(
                config.seed,
                g,
                horizon_s=config.horizon_s,
                rate_per_s=config.outage_rate_per_s,
                mean_duration_s=config.outage_mean_duration_s,
            ),
            seed=config.seed + g,
            decision=decision,
            epoch_s=config.epoch_s,
            controller=config.controller,
            idle_timeout_s=config.idle_timeout_s,
            max_resumes=config.max_resumes,
        )
        for g in replicas
    ]
    obs = _shard_obs(shard, results) if collect_obs else None
    return results, obs


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run_relay_campaign(
    config: RelayCampaignConfig,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    obs: Optional[ObsContext] = None,
) -> RelayCampaignResult:
    """Run the relay campaign; worker-count invariant by construction.

    Shards run on the persistent :mod:`repro.exec` backend:
    ``parallel=None`` auto-enables the process pool when there are
    several shards and more than one worker; ``True``/``False`` force
    it; ``max_workers`` pins the pool width.  ``obs`` collects
    per-shard spans and ``relay.campaign.*`` metrics, merged in shard
    order regardless of completion order.
    """
    shards = config.shards()
    collect = obs is not None
    run_span = None
    if obs is not None and obs.tracer is not None:
        run_span = obs.tracer.span("relay.campaign", sim_start_s=0.0)
        run_span.__enter__()
    tasks = [
        (config, shard, replicas, collect) for shard, replicas in shards
    ]
    try:
        outputs = backend_for(max_workers).map(
            _run_shard_task,
            tasks,
            parallel=parallel,
            family="relay.shard",
        )
    finally:
        if run_span is not None:
            run_span.annotate(shards=len(shards))
            run_span.__exit__(None, None, None)
    replicas = tuple(
        result for results, _ in outputs for result in results
    )
    if obs is not None:
        obs.merge(ObsContext.merged(part for _, part in outputs))
    chain = config.chain()
    return RelayCampaignResult(
        replicas=replicas,
        decision=RelaySolver().solve(chain),
    )


def relay_campaign_manifest(
    result: RelayCampaignResult,
    config: RelayCampaignConfig,
    obs: Optional[ObsContext] = None,
    git_rev: Optional[str] = "auto",
) -> RunManifest:
    """The one manifest builder for relay campaigns.

    With a deterministic ``obs`` the document is byte-identical for
    any worker count — the invariance contract the chaos suite pins
    with a 1-vs-4-worker comparison.
    """
    import dataclasses

    return RunManifest.build(
        kind="relay_campaign",
        config=dataclasses.asdict(config),
        seeds={"relay_campaign": config.seed},
        outputs=result.to_dict(),
        obs=obs,
        git_rev=git_rev,
    )
