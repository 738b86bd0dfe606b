"""Vectorised fleet-scale solver for Eq. 2 (``dopt = argmax U(d)``).

:class:`~repro.core.optimizer.DistanceOptimizer` solves one instance
at a time with a Python-loop grid scan plus a SciPy refinement — fine
for a single decision, hopeless for the fleet-scale workloads the
related work frames (thousands of ``(Mdata, v, rho, d0)`` instances
per request stream).  This engine solves N scenarios in one NumPy
pass:

1. **Stacked grid scan** — scenarios become parameter arrays; the
   utility ``U(d) = exp(-rho (d0 - d)) / ((d0 - d)/v + Mdata/s(d))``
   is evaluated on an ``N x G`` matrix of distances sharing one
   normalised grid, bracketing each instance's argmax.
2. **Vectorised bisection** — every bracket is shrunk simultaneously
   by comparing interior utility probes (no per-instance SciPy call in
   the hot path).
3. **SciPy fallback** — instances whose refinement loses to their grid
   candidate (the non-concave edge cases the paper warns about) are
   re-solved with the scalar optimiser.  With ``obs`` metrics on, each
   re-solve counts in ``engine.fallbacks`` (registered only when one
   fires, so fallback-free manifests carry no such counter).
4. **Memoisation** — solved instances are cached by their full
   parameter tuple in an LRU, so planners re-solving the same geometry
   and repeated sweeps cost one hash lookup.
5. **Chunked fan-out** — very large batches are split into chunks
   solved on the persistent :mod:`repro.exec` thread pool (NumPy
   releases the GIL for the heavy array ops).  ``chunk_size`` is part
   of the numeric contract — each chunk's grid resolution derives from
   its own span — so fan-out never re-chunks adaptively.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.optimizer import DistanceOptimizer, OptimalDecision
from ..core.throughput import (
    LogFitThroughput,
    MIN_THROUGHPUT_BPS,
    throughput_bps_array,
)
from .cache import CacheInfo, LruCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.scenario import Scenario
    from ..obs import ObsContext

__all__ = ["BatchResult", "BatchSolverEngine", "default_engine"]

#: Hard ceiling on grid columns so one huge-span scenario cannot blow
#: up the whole chunk's memory.
_MAX_GRID_POINTS = 4096

#: Relative utility slack for snapping to a boundary — identical to the
#: scalar optimiser's rule so both solvers classify the flat-near-d0
#: cases the same way.
_SNAP_REL = 1e-4

#: Fixed bucket edges for the batch-size histogram; registration-time
#: constants so shard merges stay deterministic (see repro.obs.metrics).
_BATCH_SIZE_EDGES = (1.0, 8.0, 64.0, 512.0, 4096.0)


@dataclass(frozen=True)
class BatchResult:
    """NumPy-backed container of N solved Eq. 2 instances.

    Columns are parallel arrays; iterating (or indexing) materialises
    :class:`OptimalDecision` objects on demand, so scalar call sites
    can consume batch output unchanged.
    """

    distance_m: np.ndarray
    utility: np.ndarray
    cdelay_s: np.ndarray
    shipping_s: np.ndarray
    transmission_s: np.ndarray
    discount: np.ndarray
    contact_distance_m: np.ndarray
    speed_mps: np.ndarray
    data_bits: np.ndarray
    tolerance_m: float

    @classmethod
    def from_decisions(cls, decisions: Sequence[OptimalDecision]) -> "BatchResult":
        """Stack scalar decisions into one batch container."""
        tol = max((d.tolerance_m for d in decisions), default=1e-6)
        return cls(
            distance_m=np.array([d.distance_m for d in decisions]),
            utility=np.array([d.utility for d in decisions]),
            cdelay_s=np.array([d.cdelay_s for d in decisions]),
            shipping_s=np.array([d.shipping_s for d in decisions]),
            transmission_s=np.array([d.transmission_s for d in decisions]),
            discount=np.array([d.discount for d in decisions]),
            contact_distance_m=np.array(
                [d.contact_distance_m for d in decisions]
            ),
            speed_mps=np.array([d.speed_mps for d in decisions]),
            data_bits=np.array([d.data_bits for d in decisions]),
            tolerance_m=tol,
        )

    def __len__(self) -> int:
        return int(self.distance_m.shape[0])

    def __getitem__(self, index: int) -> OptimalDecision:
        return OptimalDecision(
            distance_m=float(self.distance_m[index]),
            utility=float(self.utility[index]),
            cdelay_s=float(self.cdelay_s[index]),
            shipping_s=float(self.shipping_s[index]),
            transmission_s=float(self.transmission_s[index]),
            discount=float(self.discount[index]),
            contact_distance_m=float(self.contact_distance_m[index]),
            speed_mps=float(self.speed_mps[index]),
            data_bits=float(self.data_bits[index]),
            tolerance_m=self.tolerance_m,
        )

    def __iter__(self) -> Iterator[OptimalDecision]:
        for index in range(len(self)):
            yield self[index]

    def decisions(self) -> List[OptimalDecision]:
        """Every row as an :class:`OptimalDecision`."""
        return list(self)

    def to_dicts(self) -> List[dict]:
        """JSON-ready mapping per row (CLI ``--json`` output)."""
        return [decision.to_dict() for decision in self]


class _Params:
    """Stacked parameter arrays for one chunk of scenarios."""

    def __init__(self, scenarios: Sequence["Scenario"]) -> None:
        self.scenarios = scenarios
        self.models = [s.throughput for s in scenarios]
        self.dmin = np.array([s.min_distance_m for s in scenarios])
        self.d0 = np.array([s.contact_distance_m for s in scenarios])
        self.v = np.array([s.cruise_speed_mps for s in scenarios])
        self.bits = np.array([s.data_bits for s in scenarios])
        self.rho = np.array([s.failure_rate_per_m for s in scenarios])
        # Scenarios on the paper's log-fit law vectorise fully; anything
        # else falls back to a row-wise (still array-valued) evaluation.
        logfit = np.array(
            [type(m) is LogFitThroughput for m in self.models], dtype=bool
        )
        self.logfit_mask = logfit
        self.slope = np.array(
            [getattr(m, "slope_mbps_per_octave", 0.0) for m in self.models]
        )
        self.intercept = np.array(
            [getattr(m, "intercept_mbps", 0.0) for m in self.models]
        )
        self.other_rows = np.nonzero(~logfit)[0]

    def __len__(self) -> int:
        return len(self.scenarios)

    # ------------------------------------------------------------------
    def throughput(self, d: np.ndarray) -> np.ndarray:
        """``s(d)`` for row-aligned distances ``d`` of shape (N,) or (N, G)."""
        s = np.empty_like(d)
        if self.logfit_mask.any():
            slope = self.slope[self.logfit_mask]
            intercept = self.intercept[self.logfit_mask]
            if d.ndim == 2:
                slope = slope[:, None]
                intercept = intercept[:, None]
            mbps = slope * np.log2(d[self.logfit_mask]) + intercept
            s[self.logfit_mask] = np.maximum(MIN_THROUGHPUT_BPS, mbps * 1e6)
        for i in self.other_rows:
            s[i] = throughput_bps_array(self.models[i], d[i])
        return s

    def utility(self, d: np.ndarray) -> np.ndarray:
        """``U(d)`` (Eq. 1) for row-aligned distances, vectorised."""
        if d.ndim == 2:
            d0, v, bits, rho = (
                self.d0[:, None], self.v[:, None],
                self.bits[:, None], self.rho[:, None],
            )
        else:
            d0, v, bits, rho = self.d0, self.v, self.bits, self.rho
        gap = np.maximum(0.0, d0 - d)
        cdelay = gap / v + bits / self.throughput(d)
        return np.exp(-rho * gap) / cdelay

    def breakdown(self, d: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(utility, cdelay, shipping, transmission, discount) at ``d``."""
        gap = np.maximum(0.0, self.d0 - d)
        shipping = gap / self.v
        transmission = self.bits / self.throughput(d)
        cdelay = shipping + transmission
        discount = np.exp(-self.rho * gap)
        return discount / cdelay, cdelay, shipping, transmission, discount


class BatchSolverEngine:
    """Vectorised, memoised, optionally parallel solver of Eq. 2 fleets."""

    def __init__(
        self,
        grid_step_m: float = 1.0,
        refine_tolerance_m: float = 1e-4,
        cache_size: int = 4096,
        chunk_size: int = 2048,
        max_workers: Optional[int] = None,
    ) -> None:
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if refine_tolerance_m <= 0:
            raise ValueError("refine_tolerance_m must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.grid_step_m = grid_step_m
        self.refine_tolerance_m = refine_tolerance_m
        self.chunk_size = chunk_size
        self.max_workers = max_workers
        self._cache = LruCache(cache_size)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self,
        scenario: "Scenario",
        obs: Optional["ObsContext"] = None,
    ) -> OptimalDecision:
        """Solve one scenario (memoised; same answer as the batch path).

        ``obs`` records an ``engine.solve`` span, cache hit/miss
        counters and a ``decision.eq2`` event; ``None`` (the default)
        leaves the solve path untouched.
        """
        if obs is None:
            decision, _, _ = self._solve_one(scenario)
            return decision
        span = None
        if obs.tracer is not None:
            span = obs.tracer.span("engine.solve")
            span.__enter__()
        try:
            decision, hit, fallbacks = self._solve_one(scenario)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if obs.metrics is not None:
            name = "engine.cache.hits" if hit else "engine.cache.misses"
            obs.metrics.counter(name).inc()
            if fallbacks:
                obs.metrics.counter("engine.fallbacks").inc(fallbacks)
        if obs.events is not None:
            obs.events.emit(
                "decision.eq2",
                0.0,
                distance_m=decision.distance_m,
                utility=decision.utility,
                defer=decision.distance_m < decision.contact_distance_m,
            )
        return decision

    def _solve_one(
        self, scenario: "Scenario"
    ) -> Tuple[OptimalDecision, bool, int]:
        """One memoised solve: ``(decision, was_cache_hit, fallbacks)``."""
        key = self._key(scenario)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached, True, 0
        decisions, fallbacks = self._solve_chunk([scenario])
        if key is not None:
            self._cache.put(key, decisions[0])
        return decisions[0], False, fallbacks

    def solve_batch(
        self,
        scenarios: Iterable["Scenario"],
        parallel: Optional[bool] = None,
        obs: Optional["ObsContext"] = None,
    ) -> BatchResult:
        """Solve N scenarios in vectorised passes.

        ``parallel=None`` auto-enables the thread-pool fan-out once the
        batch spans several chunks; ``True``/``False`` force it.
        ``obs`` records an ``engine.solve_batch`` span plus cache and
        batch-size metrics; ``None`` leaves the hot path untouched.
        """
        scenario_list = list(scenarios)
        if obs is not None and obs.tracer is not None:
            with obs.tracer.span(
                "engine.solve_batch", n=len(scenario_list)
            ):
                return self._solve_batch(scenario_list, parallel, obs)
        return self._solve_batch(scenario_list, parallel, obs)

    def _solve_batch(
        self,
        scenario_list: List["Scenario"],
        parallel: Optional[bool],
        obs: Optional["ObsContext"],
    ) -> BatchResult:
        results: List[Optional[OptimalDecision]] = [None] * len(scenario_list)
        keys = [self._key(s) for s in scenario_list]
        miss_idx = []
        fallbacks = 0
        for i, key in enumerate(keys):
            cached = self._cache.get(key) if key is not None else None
            if cached is not None:
                results[i] = cached
            else:
                miss_idx.append(i)

        if miss_idx:
            misses = [scenario_list[i] for i in miss_idx]
            chunks = [
                misses[start:start + self.chunk_size]
                for start in range(0, len(misses), self.chunk_size)
            ]
            if parallel is None:
                # Threads only pay off with real cores to run NumPy's
                # GIL-released array ops on; on one CPU they just add
                # contention around the vectorised chunks.
                parallel = len(chunks) > 1 and (os.cpu_count() or 1) > 1
            if parallel and len(chunks) > 1:
                from ..exec import default_backend

                solved_chunks = default_backend().thread_map(
                    self._solve_chunk, chunks, max_workers=self.max_workers
                )
            else:
                solved_chunks = [self._solve_chunk(chunk) for chunk in chunks]
            solved = [d for chunk, _ in solved_chunks for d in chunk]
            fallbacks = sum(n for _, n in solved_chunks)
            for i, decision in zip(miss_idx, solved):
                results[i] = decision
                if keys[i] is not None:
                    self._cache.put(keys[i], decision)

        if obs is not None and obs.metrics is not None:
            metrics = obs.metrics
            hits = len(scenario_list) - len(miss_idx)
            if hits:
                metrics.counter("engine.cache.hits").inc(hits)
            if miss_idx:
                metrics.counter("engine.cache.misses").inc(len(miss_idx))
            if fallbacks:
                metrics.counter("engine.fallbacks").inc(fallbacks)
            metrics.counter("engine.batches").inc()
            metrics.histogram(
                "engine.batch.size", _BATCH_SIZE_EDGES
            ).observe(len(scenario_list))
        return BatchResult.from_decisions(results)  # type: ignore[arg-type]

    def breakdown_at(
        self,
        scenarios: Sequence["Scenario"],
        distances_m: Sequence[float],
    ) -> Tuple[np.ndarray, ...]:
        """Eq. 1 breakdown at fixed distances, no optimisation.

        Row ``i`` evaluates ``scenarios[i]`` at ``distances_m[i]``;
        returns ``(utility, cdelay, shipping, transmission, discount)``
        arrays.  Every operation is elementwise, so the same
        (scenario, distance) pair produces bit-identical numbers
        whether evaluated alone or inside a fleet — the guarantee the
        relay solvers' candidate evaluation builds on.
        """
        scenario_list = list(scenarios)
        d = np.asarray(distances_m, dtype=float)
        if d.ndim != 1 or d.shape[0] != len(scenario_list):
            raise ValueError(
                "distances_m must be 1-D and row-aligned with scenarios"
            )
        return _Params(scenario_list).breakdown(d)

    def grid_points(self, scenario: "Scenario") -> int:
        """Grid columns a solo solve of this scenario scans.

        The scan grid is span-normalised per row, so any batch whose
        rows all share this count reproduces each row's solo grid
        exactly — grouping scenarios by ``grid_points`` is what keeps
        :class:`~repro.relay.batch.BatchRelaySolver` in bit-lockstep
        with per-hop :meth:`solve` calls.
        """
        span = scenario.contact_distance_m - scenario.min_distance_m
        return int(
            min(
                _MAX_GRID_POINTS,
                max(3, math.ceil(span / self.grid_step_m) + 1),
            )
        )

    def sweep(
        self,
        scenario: "Scenario",
        param: str,
        values: Iterable[float],
        obs: Optional["ObsContext"] = None,
    ) -> BatchResult:
        """Solve ``scenario`` with ``param`` swept over ``values``.

        ``param`` is any override :meth:`Scenario.with_` accepts
        (``mdata_mb``, ``speed_mps``, ``rho_per_m``, ``d0_m``, or a raw
        dataclass field name).
        """
        variants = [scenario.with_(**{param: value}) for value in values]
        return self.solve_batch(variants, obs=obs)

    def utility_curves(
        self, scenarios: Sequence["Scenario"], n_points: int = 200
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, U)`` as N x G matrices (vectorised Fig. 8 curves)."""
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        params = _Params(list(scenarios))
        t = np.linspace(0.0, 1.0, n_points)
        distances = params.dmin[:, None] + t[None, :] * (
            params.d0 - params.dmin
        )[:, None]
        return distances, params.utility(distances)

    def cache_info(self) -> CacheInfo:
        """Memoisation statistics."""
        return self._cache.info()

    def cache_clear(self) -> None:
        """Drop all memoised decisions."""
        self._cache.clear()

    def point_key(self, scenario: "Scenario") -> Optional[tuple]:
        """The scenario's full parameter tuple under this engine's
        settings, or ``None`` when the throughput law is uncacheable.

        This is the identity the persistent result store hashes
        (:mod:`repro.store.fingerprint`); it is exactly the in-memory
        memoisation key, exposed as API.
        """
        return self._key(scenario)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _key(self, scenario: "Scenario") -> Optional[tuple]:
        """Memoisation key, or ``None`` for uncacheable throughput laws."""
        key_fn = getattr(scenario, "cache_key", None)
        base = key_fn() if key_fn is not None else None
        if base is None:
            return None
        return (base, self.grid_step_m, self.refine_tolerance_m)

    def _solve_chunk(
        self, scenarios: Sequence["Scenario"]
    ) -> Tuple[List[OptimalDecision], int]:
        """Vectorised grid scan + bisection for one chunk of scenarios.

        Returns the decisions and how many rows took the scalar
        fallback.
        """
        for s in scenarios:
            if s.cruise_speed_mps <= 0:
                raise ValueError("speed must be positive (Eq. 2 constraint)")
            if s.data_bits <= 0:
                raise ValueError("data size must be positive (Eq. 2 constraint)")
            if s.contact_distance_m < s.min_distance_m:
                raise ValueError(
                    f"contact distance {s.contact_distance_m} below the "
                    f"floor {s.min_distance_m}"
                )
        params = _Params(scenarios)
        tol = self.refine_tolerance_m
        span = params.d0 - params.dmin
        n_grid = int(
            min(
                _MAX_GRID_POINTS,
                max(3, math.ceil(float(span.max(initial=0.0)) / self.grid_step_m) + 1),
            )
        )
        t = np.linspace(0.0, 1.0, n_grid)
        grid = params.dmin[:, None] + t[None, :] * span[:, None]
        values = params.utility(grid)
        k = np.argmax(values, axis=1)
        rows = np.arange(len(params))
        grid_best_d = grid[rows, k]
        grid_best_u = values[rows, k]
        lo = grid[rows, np.maximum(k - 1, 0)]
        hi = grid[rows, np.minimum(k + 1, n_grid - 1)]

        # Degenerate range: the whole feasible interval is narrower than
        # the refinement tolerance — the scalar solver pins d_min.
        degenerate = span <= tol
        best = np.where(degenerate, params.dmin, grid_best_d)

        # Vectorised bracket bisection: shrink every active bracket at
        # once by comparing two interior probes (safe for the unimodal
        # brackets a dense grid scan produces).
        active = (~degenerate) & (hi - lo > tol)
        # Width shrinks by 1/3 per pass; the cap only guards against a
        # tolerance below floating-point resolution of the bracket.
        max_iterations = 200
        while active.any() and max_iterations > 0:
            max_iterations -= 1
            width = hi - lo
            m1 = lo + width / 3.0
            m2 = hi - width / 3.0
            u1 = params.utility(m1)
            u2 = params.utility(m2)
            go_right = u1 < u2
            lo = np.where(active & go_right, m1, lo)
            hi = np.where(active & ~go_right, m2, hi)
            active = active & (hi - lo > tol)
        refined = 0.5 * (lo + hi)
        refined_u = params.utility(refined)
        improved = (~degenerate) & (refined_u >= grid_best_u)
        best = np.where(improved, refined, best)
        best_u = params.utility(best)

        # Non-concave edge cases: an *interior* bracket whose refinement
        # lost utility against its own grid candidate hides multiple
        # peaks — re-solve those instances with the scalar SciPy-refined
        # optimiser.  Boundary-argmax rows are excluded: there a
        # monotone curve legitimately converges just inside the bracket
        # and the exact grid endpoint simply stays the answer.
        interior = (k > 0) & (k < n_grid - 1)
        suspect = (
            (~degenerate)
            & interior
            & (refined_u < grid_best_u * (1.0 - 1e-9))
        )

        # Boundary snapping, identical to the scalar rule (d0 wins ties).
        u_floor = params.utility(params.dmin.copy())
        u_ceil = params.utility(params.d0.copy())
        snap_floor = (~degenerate) & (u_floor >= best_u * (1.0 - _SNAP_REL))
        best = np.where(snap_floor, params.dmin, best)
        best_u = np.where(snap_floor, u_floor, best_u)
        snap_ceil = (~degenerate) & (u_ceil >= best_u * (1.0 - _SNAP_REL))
        best = np.where(snap_ceil, params.d0, best)

        utility, cdelay, shipping, transmission, discount = params.breakdown(best)
        tolerance = max(tol, 1e-6)
        decisions = [
            OptimalDecision(
                distance_m=float(best[i]),
                utility=float(utility[i]),
                cdelay_s=float(cdelay[i]),
                shipping_s=float(shipping[i]),
                transmission_s=float(transmission[i]),
                discount=float(discount[i]),
                contact_distance_m=float(params.d0[i]),
                speed_mps=float(params.v[i]),
                data_bits=float(params.bits[i]),
                tolerance_m=tolerance,
            )
            for i in range(len(params))
        ]
        fallback_rows = np.nonzero(suspect)[0]
        for i in fallback_rows:
            decisions[i] = self._scalar_solve(scenarios[i])
        return decisions, len(fallback_rows)

    def _scalar_solve(self, scenario: "Scenario") -> OptimalDecision:
        """The scalar SciPy-refined path (non-concave fallback)."""
        optimizer = DistanceOptimizer(
            scenario.utility_model(),
            grid_step_m=self.grid_step_m,
            refine_tolerance_m=self.refine_tolerance_m,
        )
        return optimizer.optimize(
            scenario.contact_distance_m,
            scenario.cruise_speed_mps,
            scenario.data_bits,
        )


_DEFAULT_ENGINE: Optional[BatchSolverEngine] = None


def default_engine() -> BatchSolverEngine:
    """The process-wide shared engine (lazily created).

    ``Scenario.solve()``, the planners, and the figure regenerators all
    share this instance so their memoised decisions compound.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = BatchSolverEngine()
    return _DEFAULT_ENGINE
