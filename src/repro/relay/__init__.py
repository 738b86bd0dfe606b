"""Multi-hop relay-chain workload: model, solvers, transfers, campaigns.

The paper's now-or-later decision generalised to chains of ferrying
UAVs (see ``docs/API.md``, "Relay chains"):

* :class:`RelayChain` / :class:`RelayHop` — the static chain model;
* :class:`RelaySolver` — per-hop now-vs-ship decisions via an exact
  Pareto-frontier dynamic program over Eq. 1/2;
* :class:`BatchRelaySolver` — the RL105-registered batch twin,
  bit-identical to the scalar path at R=1;
* :func:`run_relay_transfer` — fault-plan-compatible store-and-forward
  execution with checkpoint/resume at interrupted hops;
* :func:`run_relay_campaign` — replicated outage campaigns with
  worker-count-invariant results.

The transfer and campaign modules run the link stack, so their symbols
resolve lazily (PEP 562): a relay decision never imports them.
"""

from .batch import BatchRelayResult, BatchRelaySolver
from .chain import RelayChain, RelayHop
from .solver import (
    HOP_POLICIES,
    HopChoice,
    RelayDecision,
    RelaySolver,
    relay_manifest,
)

__all__ = [
    "HOP_POLICIES",
    "BatchRelayResult",
    "BatchRelaySolver",
    "HopChoice",
    "RelayCampaignConfig",
    "RelayCampaignResult",
    "RelayChain",
    "RelayDecision",
    "RelayHop",
    "RelayHopReport",
    "RelaySolver",
    "RelayTransferResult",
    "relay_campaign_manifest",
    "relay_manifest",
    "run_relay_campaign",
    "run_relay_transfer",
]

#: Execution symbols resolved lazily, by defining submodule.
_LAZY = {
    "RelayCampaignConfig": "campaign",
    "RelayCampaignResult": "campaign",
    "relay_campaign_manifest": "campaign",
    "run_relay_campaign": "campaign",
    "RelayHopReport": "transfer",
    "RelayTransferResult": "transfer",
    "run_relay_transfer": "transfer",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule == "campaign":
        from . import campaign as module
    elif submodule == "transfer":
        from . import transfer as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(module, name)


def __dir__():
    return sorted(__all__)
