"""Incremental Eq. 2 execution on top of the persistent result store.

The flow mirrors the batch engine's in-memory memoisation, one level
up and durable across processes: requested points are partitioned into
*cached* and *missing* groups by :func:`~repro.store.store.cached_map`,
only the missing ones are dispatched to the engine (in a single
``solve_batch`` call, so a fully cold run executes exactly the code
path an uncached run would), and results are merged back in request
order.

Granularity
-----------
Entries hold *groups* of solved points, not single points: a warm
re-run of an 8k-point sweep must cost a handful of file reads, not 8k.
Small batches (``<= _POINT_GROUP_LIMIT`` points) use groups of one so
planner-style workloads get true point-level reuse; large batches use
groups of ``engine.chunk_size``, aligned with the engine's own
chunking.  Decision columns are stored as base64-encoded little-endian
float64 — exact round-trip, no JSON float parsing on the warm path.

Keys
----
``(code fingerprint of the solver modules, store schema version,
engine settings, the points' full parameter tuples)`` — see
:mod:`repro.store.fingerprint`.  Sweep groups hash the base scenario's
tuple plus the swept field and the raw value block (``tobytes()``), so
key computation for a dense sweep costs microseconds per group instead
of a JSON encode per point — and a full-warm sweep never constructs
the variant scenarios at all.

Identity contract
-----------------
A fully-warm run returns bit-identical results to the cold run that
populated the store (pinned by golden tests and the ``cache-smoke`` CI
job).  Partially-warm runs re-solve only the missing points; those are
then batched in a different chunk composition than an all-cold run,
which carries the same tolerance-level caveat the in-memory memo
already has (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple,
)

import numpy as np

from .fingerprint import SOLVER_CODE_MODULES, config_key
from .store import ResultStore, _maybe_span, cached_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.optimizer import OptimalDecision
    from ..core.scenario import Scenario
    from ..engine.batch import BatchResult, BatchSolverEngine
    from ..obs import ObsContext

__all__ = [
    "StoreReport",
    "record_store_metrics",
    "solve_batch_incremental",
    "solve_incremental",
    "sweep_incremental",
]

#: Batches up to this size use one store entry per point (maximum
#: reuse); larger batches use one entry per engine chunk (fast warm
#: reads for dense sweeps).
_POINT_GROUP_LIMIT = 256

#: BatchResult column names, in storage order.
_COLUMNS = (
    "distance_m",
    "utility",
    "cdelay_s",
    "shipping_s",
    "transmission_s",
    "discount",
    "contact_distance_m",
    "speed_mps",
    "data_bits",
)

#: Scenario fields whose value shapes the Eq. 2 solution; sweeps over
#: anything else fall back to the generic per-variant path.
_SWEEPABLE_FIELDS = {
    "data_bits_override",
    "cruise_speed_mps",
    "failure_rate_per_m",
    "contact_distance_m",
    "min_distance_m",
}


@dataclass(frozen=True)
class StoreReport:
    """How one request split across the store and the engine."""

    enabled: bool
    points: int = 0
    warm_points: int = 0
    entry_hits: int = 0
    entry_misses: int = 0

    @property
    def cold_points(self) -> int:
        """Points that had to be dispatched to the engine."""
        return self.points - self.warm_points

    @classmethod
    def from_hits(cls, widths: List[int], hits: List[bool]) -> "StoreReport":
        """The report of entries of ``widths`` points with hit flags."""
        return cls(
            enabled=True,
            points=sum(widths),
            warm_points=sum(w for w, hit in zip(widths, hits) if hit),
            entry_hits=sum(hits),
            entry_misses=len(hits) - sum(hits),
        )


def record_store_metrics(
    obs: Optional["ObsContext"],
    store: ResultStore,
    before: Dict[str, int],
    report: Optional[StoreReport] = None,
) -> None:
    """Fold the store-counter deltas since ``before`` into ``obs``.

    Emits ``store.hits`` / ``store.misses`` / ``store.evictions`` /
    ``store.corrupt`` / ``store.errors`` / ``store.bytes_read`` /
    ``store.bytes_written`` counters, plus point-level provenance
    (``store.points.warm`` / ``store.points.cold``) when a
    :class:`StoreReport` is given — this is what lands in the run's
    :class:`~repro.obs.RunManifest` metrics section.
    """
    if obs is None or obs.metrics is None:
        return
    after = store.snapshot_counters()
    for name, value in sorted(after.items()):
        delta = value - before.get(name, 0)
        if delta:
            obs.metrics.counter(f"store.{name}").inc(delta)
    if report is not None and report.enabled:
        if report.warm_points:
            obs.metrics.counter("store.points.warm").inc(report.warm_points)
        if report.cold_points:
            obs.metrics.counter("store.points.cold").inc(report.cold_points)


# ----------------------------------------------------------------------
# Column codecs
# ----------------------------------------------------------------------

def _encode_column(values: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(values, dtype="<f8").tobytes()
    ).decode("ascii")


def _decode_column(data: str, n: int) -> np.ndarray:
    values = np.frombuffer(base64.b64decode(data), dtype="<f8")
    if values.shape[0] != n:
        raise ValueError("column length mismatch")
    return values


#: One entry's decoded value: its columns and the solver tolerance.
_Group = Tuple[Dict[str, np.ndarray], float]


def _encode_group(group: _Group) -> dict:
    columns, tolerance = group
    return {
        "n": int(columns["distance_m"].shape[0]),
        "tolerance_m": float(tolerance),
        "columns": {
            name: _encode_column(columns[name]) for name in _COLUMNS
        },
    }


def _decode_group(body: dict) -> _Group:
    """Columns + tolerance from one entry body (raises if malformed)."""
    n = int(body["n"])
    columns = {
        name: _decode_column(body["columns"][name], n) for name in _COLUMNS
    }
    return columns, float(body["tolerance_m"])


def _decision_group(decision: "OptimalDecision") -> _Group:
    columns = {name: np.array([getattr(decision, name)]) for name in _COLUMNS}
    return columns, decision.tolerance_m


# ----------------------------------------------------------------------
# Key builders
# ----------------------------------------------------------------------

def _engine_settings(engine: "BatchSolverEngine") -> List[float]:
    # chunk_size participates because it shapes how missing points are
    # grouped into vectorised solves (grid resolution is shared per
    # chunk, so compositions are part of the result's identity).
    return [engine.grid_step_m, engine.refine_tolerance_m, engine.chunk_size]


def _group_key(
    engine: "BatchSolverEngine", point_keys: List[tuple]
) -> str:
    return config_key(
        "eq2.group",
        {"engine": _engine_settings(engine), "points": point_keys},
        SOLVER_CODE_MODULES,
    )


def _sweep_group_key(
    engine: "BatchSolverEngine",
    base_key: tuple,
    field: str,
    values: np.ndarray,
) -> str:
    return config_key(
        "eq2.sweep",
        {
            "engine": _engine_settings(engine),
            "base": base_key,
            "field": field,
            "n": int(values.shape[0]),
        },
        SOLVER_CODE_MODULES,
        extra_bytes=np.ascontiguousarray(values, dtype="<f8").tobytes(),
    )


# ----------------------------------------------------------------------
# The cached group run shared by the batch and sweep paths
# ----------------------------------------------------------------------

def _run_groups(
    engine: "BatchSolverEngine",
    store: ResultStore,
    keys: List[str],
    groups: List[Tuple[int, int]],
    missing_scenarios_for: Callable[[List[int]], List["Scenario"]],
    parallel: Optional[bool],
    obs: Optional["ObsContext"],
    refresh: bool,
) -> Tuple["BatchResult", StoreReport]:
    """Serve cached groups, solve the missing ones in one batch, merge.

    ``missing_scenarios_for(missing_group_indices)`` materialises the
    scenarios of just the missing groups — for sweeps this is the only
    place variants get constructed, so a fully-warm run never builds
    them at all.
    """
    from ..engine.batch import BatchResult

    def solve_missing(missing: List[int]) -> List[_Group]:
        solved = engine.solve_batch(
            missing_scenarios_for(missing), parallel=parallel, obs=obs
        )
        out, cursor = [], 0
        for gi in missing:
            stop = cursor + groups[gi][1] - groups[gi][0]
            columns = {
                name: getattr(solved, name)[cursor:stop] for name in _COLUMNS
            }
            out.append((columns, solved.tolerance_m))
            cursor = stop
        return out

    before = store.snapshot_counters()
    values, hits = cached_map(
        store, keys, solve_missing,
        encode=_encode_group, decode=_decode_group, refresh=refresh, obs=obs,
    )
    result = BatchResult(
        tolerance_m=max([1e-6] + [tolerance for _, tolerance in values]),
        **{
            name: np.concatenate([columns[name] for columns, _ in values])
            for name in _COLUMNS
        },
    )
    report = StoreReport.from_hits(
        [stop - start for start, stop in groups], hits
    )
    record_store_metrics(obs, store, before, report)
    return result, report


def _group_bounds(n: int, group_size: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + group_size, n))
        for start in range(0, n, group_size)
    ]


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def solve_incremental(
    engine: "BatchSolverEngine",
    scenario: "Scenario",
    store: ResultStore,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["OptimalDecision", StoreReport]:
    """One Eq. 2 solve backed by the persistent store.

    The entry is the same group-of-one record ``solve_batch`` uses for
    small batches, so single solves and fleet solves share warm
    results.
    """
    from ..core.optimizer import OptimalDecision

    with _maybe_span(obs, "store.key", points=1):
        point = engine.point_key(scenario)
    if point is None:
        return engine.solve(scenario, obs=obs), StoreReport(enabled=False)
    before = store.snapshot_counters()

    def decode(body: dict) -> "OptimalDecision":
        columns, tolerance = _decode_group(body)
        return OptimalDecision(
            tolerance_m=tolerance,
            **{name: float(columns[name][0]) for name in _COLUMNS},
        )

    # Single solves keep the scalar engine path (its own span, memo
    # counters and decision event) and trace no store I/O spans.
    [decision], hits = cached_map(
        store, [_group_key(engine, [point])],
        lambda _missing: [engine.solve(scenario, obs=obs)],
        encode=lambda d: _encode_group(_decision_group(d)),
        decode=decode, refresh=refresh,
    )
    report = StoreReport.from_hits([1], hits)
    record_store_metrics(obs, store, before, report)
    return decision, report


def solve_batch_incremental(
    engine: "BatchSolverEngine",
    scenarios: Iterable["Scenario"],
    store: ResultStore,
    parallel: Optional[bool] = None,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["BatchResult", StoreReport]:
    """``engine.solve_batch`` with cached groups served from the store."""
    scenario_list = list(scenarios)
    n = len(scenario_list)
    with _maybe_span(obs, "store.key", points=n):
        points = [engine.point_key(s) for s in scenario_list]
    if n == 0 or any(point is None for point in points):
        result = engine.solve_batch(scenario_list, parallel=parallel, obs=obs)
        return result, StoreReport(enabled=False, points=n)
    group_size = 1 if n <= _POINT_GROUP_LIMIT else engine.chunk_size
    groups = _group_bounds(n, group_size)
    keys = [
        _group_key(engine, points[start:stop]) for start, stop in groups
    ]

    def missing_scenarios_for(missing: List[int]) -> List["Scenario"]:
        return [
            s
            for gi in missing
            for s in scenario_list[groups[gi][0]:groups[gi][1]]
        ]

    return _run_groups(
        engine, store, keys, groups, missing_scenarios_for, parallel, obs,
        refresh,
    )


def sweep_incremental(
    engine: "BatchSolverEngine",
    scenario: "Scenario",
    param: str,
    values: Iterable[float],
    store: ResultStore,
    obs: Optional["ObsContext"] = None,
    refresh: bool = False,
) -> Tuple["BatchResult", StoreReport]:
    """``engine.sweep`` with cached value-blocks served from the store.

    Group keys hash the base scenario's parameter tuple plus the swept
    field and the raw float64 block of values, so a fully-warm sweep
    costs a few hashes and file reads — no variant construction, no
    solver work.  ``param`` accepts the same spellings as
    :meth:`Scenario.with_`; the alias is canonicalised (including the
    ``mdata_mb`` MB→bits conversion) so equivalent sweeps share
    entries.
    """
    from ..core.scenario import Scenario

    value_list = list(values)
    field = Scenario._ALIASES.get(param, param)
    try:
        values_arr = np.asarray(value_list, dtype=float)
    except (TypeError, ValueError):
        values_arr = None
    if (
        values_arr is None
        or values_arr.ndim != 1
        or field not in _SWEEPABLE_FIELDS
    ):
        variants = [scenario.with_(**{param: v}) for v in value_list]
        return solve_batch_incremental(
            engine, variants, store, obs=obs, refresh=refresh
        )
    if param == "mdata_mb":
        if np.any(values_arr <= 0):
            raise ValueError("Mdata must be positive")
        values_arr = values_arr * 8e6
    n = int(values_arr.shape[0])
    with _maybe_span(obs, "store.key", points=n):
        base_key = engine.point_key(scenario)
        if base_key is None:
            result = engine.sweep(scenario, param, value_list, obs=obs)
            return result, StoreReport(enabled=False, points=n)
        group_size = 1 if n <= _POINT_GROUP_LIMIT else engine.chunk_size
        groups = _group_bounds(n, group_size)
        keys = [
            _sweep_group_key(engine, base_key, field, values_arr[start:stop])
            for start, stop in groups
        ]

    def missing_scenarios_for(missing: List[int]) -> List["Scenario"]:
        return [
            scenario.with_(**{field: float(value)})
            for gi in missing
            for value in values_arr[groups[gi][0]:groups[gi][1]]
        ]

    return _run_groups(
        engine, store, keys, groups, missing_scenarios_for, None, obs,
        refresh,
    )
