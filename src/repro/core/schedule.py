"""Multi-batch delivery scheduling.

The paper notes that "collection and subsequent communication can
happen multiple times before the mission ends" (Section 2.2).  This
module extends the single-transfer model to a sequence of batches: the
UAV alternates sensing legs and deliveries, and the planner must pick a
transmit distance *per delivery* while the battery budget shrinks.

The key structural result the scheduler exposes: because the paper's
hazard is stationary (distance-based, memoryless), the per-delivery
optimal distance is the same for every round — the "optimal strategy
to send the data is stationary" remark — unless a battery constraint
binds, in which case later rounds are forced to transmit from further
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .optimizer import OptimalDecision
from .scenario import Scenario

__all__ = ["DeliveryRound", "MissionSchedule", "MultiBatchScheduler"]


@dataclass(frozen=True)
class DeliveryRound:
    """One sensing + delivery cycle of the schedule."""

    index: int
    decision: OptimalDecision
    sensing_time_s: float
    #: Cruise-range budget (m) remaining *after* this round.
    range_budget_after_m: float
    #: True when the battery constraint changed this round's decision.
    battery_limited: bool

    @property
    def round_trip_m(self) -> float:
        """Distance flown for the delivery (out and back to the sector)."""
        gap = self.decision.contact_distance_m - self.decision.distance_m
        return 2.0 * gap


@dataclass(frozen=True)
class MissionSchedule:
    """A full multi-batch plan."""

    rounds: List[DeliveryRound]
    total_delay_s: float
    completed_batches: int
    requested_batches: int

    @property
    def complete(self) -> bool:
        """All requested batches were scheduled within the budget."""
        return self.completed_batches == self.requested_batches

    @property
    def stationary(self) -> bool:
        """All rounds use the same transmit distance (paper's remark)."""
        if not self.rounds:
            return True
        first = self.rounds[0].decision.distance_m
        return all(
            abs(r.decision.distance_m - first) < 1e-6 for r in self.rounds
        )


class MultiBatchScheduler:
    """Plans a sequence of sense-and-deliver rounds under a range budget."""

    def __init__(
        self,
        scenario: Scenario,
        sensing_time_s: float = 120.0,
        sensing_distance_m: Optional[float] = None,
        range_budget_m: Optional[float] = None,
    ) -> None:
        if sensing_time_s < 0:
            raise ValueError("sensing_time_s must be non-negative")
        self.scenario = scenario
        self.sensing_time_s = sensing_time_s
        self.sensing_distance_m = (
            sensing_distance_m
            if sensing_distance_m is not None
            else sensing_time_s * scenario.cruise_speed_mps
        )
        if self.sensing_distance_m < 0:
            raise ValueError("sensing distance must be non-negative")
        self.range_budget_m = (
            range_budget_m
            if range_budget_m is not None
            else scenario.platform.battery_range_m
        )
        if self.range_budget_m <= 0:
            raise ValueError("range budget must be positive")

    # ------------------------------------------------------------------
    def plan(self, n_batches: int) -> MissionSchedule:
        """Schedule ``n_batches`` rounds, shrinking the range budget.

        Each round: sense (consumes ``sensing_distance_m`` of range),
        then deliver.  The delivery leg out-and-back consumes twice the
        approach gap.  When the unconstrained optimum no longer fits the
        remaining budget, the approach is shortened (transmit from
        further away); when not even an immediate transmission fits, the
        schedule stops early.
        """
        if n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        rounds: List[DeliveryRound] = []
        budget = self.range_budget_m
        total_delay = 0.0
        d0 = self.scenario.contact_distance_m
        v = self.scenario.cruise_speed_mps
        bits = self.scenario.data_bits
        # The hazard is stationary, so the unconstrained optimum is the
        # same every round — one memoised engine solve serves them all.
        from ..engine import default_engine  # local: core must not cycle

        unconstrained = default_engine().solve(self.scenario)
        for index in range(n_batches):
            budget -= self.sensing_distance_m
            if budget < 0:
                break
            decision = unconstrained
            battery_limited = False
            gap = d0 - decision.distance_m
            if 2.0 * gap > budget:
                # Shorten the approach to what the battery still allows.
                battery_limited = True
                affordable_gap = budget / 2.0
                forced_d = max(
                    self.scenario.min_distance_m, d0 - affordable_gap
                )
                breakdown = self.scenario.utility_model().breakdown(
                    forced_d, d0, v, bits
                )
                decision = OptimalDecision(
                    distance_m=forced_d,
                    utility=breakdown.utility,
                    cdelay_s=breakdown.cdelay_s,
                    shipping_s=breakdown.shipping_s,
                    transmission_s=breakdown.transmission_s,
                    discount=breakdown.discount,
                    contact_distance_m=d0,
                    speed_mps=v,
                    data_bits=bits,
                    tolerance_m=unconstrained.tolerance_m,
                )
                gap = d0 - decision.distance_m
            budget -= 2.0 * gap
            total_delay += decision.cdelay_s
            rounds.append(
                DeliveryRound(
                    index=index,
                    decision=decision,
                    sensing_time_s=self.sensing_time_s,
                    range_budget_after_m=budget,
                    battery_limited=battery_limited,
                )
            )
        return MissionSchedule(
            rounds=rounds,
            total_delay_s=total_delay,
            completed_batches=len(rounds),
            requested_batches=n_batches,
        )
