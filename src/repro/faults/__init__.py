"""Deterministic fault injection for the reproduction.

The paper prices failure analytically (the Eq.-1 discount); this
package makes the simulator *experience* it: declarative
:class:`FaultPlan` objects, compiled :class:`OutageSchedule` twins the
link engines consume, a kernel-driven :class:`FaultInjector`, and the
end-to-end :func:`run_chaos` runner behind ``repro chaos``.

See ``docs/ROBUSTNESS.md`` for the fault taxonomy and the determinism
guarantees.
"""

from .plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "OutageSchedule",
    "BatchOutageSchedule",
    "FaultInjector",
    "sample_crash_distance_m",
    "sample_crash_distance_for_platform",
    "ExponentialBackoff",
    "RetryPolicy",
    "ChaosResult",
    "run_chaos",
]

#: Symbols resolved lazily (PEP 562), by defining submodule.  Only
#: ``plan`` loads eagerly: the API needs :class:`FaultPlan`, while the
#: schedules, the injector and the retry policies pull in the link
#: stack.  ``chaos`` pulls in ``repro.api`` and the mission layer, which
#: themselves import this package for :class:`FaultPlan` — eager import
#: would cycle.
_LAZY = {
    "OutageSchedule": "outage",
    "BatchOutageSchedule": "outage",
    "FaultInjector": "injector",
    "sample_crash_distance_m": "injector",
    "sample_crash_distance_for_platform": "injector",
    "ExponentialBackoff": "retry",
    "RetryPolicy": "retry",
    "ChaosResult": "chaos",
    "run_chaos": "chaos",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule == "outage":
        from . import outage as module
    elif submodule == "injector":
        from . import injector as module
    elif submodule == "retry":
        from ..net import retry as module
    elif submodule == "chaos":
        from . import chaos as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(module, name)


def __dir__():
    return sorted(__all__)
