"""Solving Eq. 2: ``dopt = argmax U(d)``, ``d_min <= d <= d0``.

The paper notes ``U`` is approximately concave for small rho but not in
general, so a pure local method is unsafe.  The optimiser therefore
runs a dense grid scan to bracket the global maximum and then refines
the bracket with SciPy's bounded scalar minimiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .utility import DelayedGratificationUtility, UtilityBreakdown

__all__ = ["OptimalDecision", "DistanceOptimizer"]


@dataclass(frozen=True)
class OptimalDecision:
    """The solution of Eq. 2 for one problem instance."""

    distance_m: float
    utility: float
    cdelay_s: float
    shipping_s: float
    transmission_s: float
    discount: float
    contact_distance_m: float
    speed_mps: float
    data_bits: float
    #: Resolution of ``distance_m``: the solver's refinement tolerance
    #: (never finer than its grid can distinguish).  Used to classify
    #: the boundary cases instead of a hard-coded absolute epsilon.
    tolerance_m: float = 1e-6

    @property
    def transmit_immediately(self) -> bool:
        """True when staying at the contact distance is optimal.

        Distances closer to ``d0`` than the solver can resolve count as
        'immediate': the comparison scales with the optimiser's grid
        step / refinement tolerance rather than a fixed 1e-6 m.
        """
        slack = max(self.tolerance_m, 1e-9 * max(1.0, self.contact_distance_m))
        return abs(self.distance_m - self.contact_distance_m) <= slack

    def to_dict(self) -> Dict[str, float]:
        """Plain-``float`` mapping (JSON-ready; CLI ``--json`` output)."""
        return {
            "distance_m": float(self.distance_m),
            "utility": float(self.utility),
            "cdelay_s": float(self.cdelay_s),
            "shipping_s": float(self.shipping_s),
            "transmission_s": float(self.transmission_s),
            "discount": float(self.discount),
            "contact_distance_m": float(self.contact_distance_m),
            "speed_mps": float(self.speed_mps),
            "data_bits": float(self.data_bits),
            "transmit_immediately": bool(self.transmit_immediately),
        }


class DistanceOptimizer:
    """Grid-bracketed, SciPy-refined maximiser of the utility."""

    def __init__(
        self,
        utility_model: DelayedGratificationUtility,
        grid_step_m: float = 1.0,
        refine_tolerance_m: float = 1e-4,
    ) -> None:
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if refine_tolerance_m <= 0:
            raise ValueError("refine_tolerance_m must be positive")
        self.utility_model = utility_model
        self.grid_step_m = grid_step_m
        self.refine_tolerance_m = refine_tolerance_m

    # ------------------------------------------------------------------
    def utility_curve(
        self,
        contact_distance_m: float,
        speed_mps: float,
        data_bits: float,
        n_points: int = 200,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(distances, U(d)) sampled across the feasible range (Fig. 8)."""
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        d_min = self.utility_model.delay_model.min_distance_m
        distances = np.linspace(d_min, contact_distance_m, n_points)
        utilities = np.array(
            [
                self.utility_model.utility(
                    float(d), contact_distance_m, speed_mps, data_bits
                )
                for d in distances
            ]
        )
        return distances, utilities

    def optimize(
        self,
        contact_distance_m: float,
        speed_mps: float,
        data_bits: float,
    ) -> OptimalDecision:
        """Solve Eq. 2 for the given constraints."""
        if speed_mps <= 0:
            raise ValueError("speed must be positive (Eq. 2 constraint v > 0)")
        if data_bits <= 0:
            raise ValueError("data size must be positive (Eq. 2 constraint)")
        d_min = self.utility_model.delay_model.min_distance_m
        if contact_distance_m < d_min:
            raise ValueError(
                f"contact distance {contact_distance_m} below the floor {d_min}"
            )

        def u(d: float) -> float:
            return self.utility_model.utility(
                d, contact_distance_m, speed_mps, data_bits
            )

        span = contact_distance_m - d_min
        if span <= self.refine_tolerance_m:
            best = d_min
        else:
            n = max(3, int(span / self.grid_step_m) + 1)
            grid = np.linspace(d_min, contact_distance_m, n)
            values = np.array([u(float(d)) for d in grid])
            k = int(np.argmax(values))
            lo = grid[max(0, k - 1)]
            hi = grid[min(n - 1, k + 1)]
            if hi - lo <= self.refine_tolerance_m:
                best = float(grid[k])
            else:
                # Imported here, not at module level, so processes that
                # never refine (CLI decisions go through the batch
                # engine) do not pay SciPy's import time.
                from scipy import optimize as sciopt

                res = sciopt.minimize_scalar(
                    lambda d: -u(float(d)),
                    bounds=(float(lo), float(hi)),
                    method="bounded",
                    options={"xatol": self.refine_tolerance_m},
                )
                best = float(res.x)
                # The refinement must never lose to the grid candidate.
                if u(best) < values[k]:
                    best = float(grid[k])
            # Snap to a boundary when it is essentially as good (within
            # 0.01% of utility): the flat regions near d0 otherwise
            # leave the solution a hair inside the range, muddying the
            # 'transmit immediately' case with model-noise-level gains.
            u_best = u(best)
            for boundary in (d_min, contact_distance_m):
                if u(boundary) >= u_best * (1.0 - 1e-4):
                    best = boundary
                    u_best = u(boundary)

        detail: UtilityBreakdown = self.utility_model.breakdown(
            best, contact_distance_m, speed_mps, data_bits
        )
        return OptimalDecision(
            distance_m=best,
            utility=detail.utility,
            cdelay_s=detail.cdelay_s,
            shipping_s=detail.shipping_s,
            transmission_s=detail.transmission_s,
            discount=detail.discount,
            contact_distance_m=contact_distance_m,
            speed_mps=speed_mps,
            data_bits=data_bits,
            tolerance_m=max(self.refine_tolerance_m, 1e-6),
        )
