"""In-memory span recorder and the wrappers the traced run installs.

The program under test is never edited for tracing: :func:`install`
replaces a fixed list of public ``repro`` functions and methods with
thin timing wrappers, and :func:`uninstall` puts the originals back.
A span records its name, start, end, the id of the span that caused
it (or -1) and the benchmark request it belongs to.
Self time is a span's duration minus the time its child spans cover,
accumulated per span name as spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter

#: (module, attribute path, span name).  An attribute path with a dot
#: is a method; a bare name is a module-level function, replaced in
#: every loaded ``repro`` module that bound the same object.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "solve", "api.solve"),
    ("repro.api", "solve_batch", "api.solve_batch"),
    ("repro.api", "sweep", "api.sweep"),
    ("repro.api", "solve_relay", "api.solve_relay"),
    ("repro.api", "chaos", "api.chaos"),
    ("repro.engine.batch", "BatchSolverEngine.solve", "engine.solve"),
    ("repro.engine.batch", "BatchSolverEngine.solve_batch",
     "engine.solve_batch"),
    ("repro.engine.batch", "BatchSolverEngine.sweep", "engine.sweep"),
    ("repro.core.optimizer", "DistanceOptimizer.optimize", "core.optimize"),
    ("repro.relay.batch", "BatchRelaySolver.solve", "relay.batch_solve"),
    ("repro.relay.solver", "RelaySolver.solve", "relay.solve"),
    ("repro.relay.campaign", "run_relay_campaign", "relay.campaign"),
    ("repro.measurements.batch", "run_campaign", "measurements.campaign"),
    ("repro.faults.chaos", "run_chaos", "mission.chaos"),
    ("repro.net.link", "WirelessLink.step", "net.link_step"),
    ("repro.exec.backend", "ExecBackend.map", "exec.map"),
    ("repro.store.store", "ResultStore.get", "store.get"),
    ("repro.store.store", "ResultStore.put", "store.put"),
    ("repro.store.store", "ResultStore.put_many", "store.put_many"),
    ("repro.store.store", "ResultStore.touch_many", "store.touch_many"),
    ("repro.store.fingerprint", "config_key", "store.config_key"),
    ("repro.obs.manifest", "RunManifest.build", "obs.manifest_build"),
    ("repro.obs.manifest", "RunManifest.to_json", "obs.to_json"),
    ("repro.cli", "build_parser", "cli.build_parser"),
    ("repro.cli", "main", "cli.main"),
)


class Tracer:
    """Spans kept in memory, with per-name count, total and self time.

    Span ids are handed out when a span opens, so a child can name its
    parent before the parent closes.  At most ``keep`` spans are
    stored; later ones still count in the per-name totals and are
    tallied in :attr:`dropped`.
    """

    def __init__(self, keep: int = 200_000) -> None:
        self.active = False
        self.request_id: Optional[int] = None
        #: (span id, name, start_s, end_s, parent id or -1, request id)
        self.spans: List[tuple] = []
        self.totals: Dict[str, List[float]] = {}
        #: (parent name, child name) -> seconds the child spans took.
        self.child_totals: Dict[Tuple[str, str], float] = {}
        self.dropped = 0
        self.keep = keep
        self._stack: List[list] = []
        self._next_id = 0

    def enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, clock(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = clock()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        name, start, child_s, span_id, parent = frame
        duration = end - start
        if self._stack:
            caller = self._stack[-1]
            caller[2] += duration
            pair = (caller[0], name)
            self.child_totals[pair] = self.child_totals.get(pair, 0.0) + duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if len(self.spans) < self.keep:
            self.spans.append(
                (span_id, name, start, end, parent, self.request_id)
            )
        else:
            self.dropped += 1

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def child_s(self, parent: str, child: str) -> float:
        return self.child_totals.get((parent, child), 0.0)

    def count(self, name: str) -> int:
        return int(self.totals.get(name, [0, 0.0, 0.0])[0])

    def absorb(self, other: Dict[str, object]) -> None:
        """Fold in a tracer recorded in another process (its
        :meth:`state`), renumbering its spans under this request."""
        for name, (count, total_s, self_s) in other["totals"].items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0])
            mine[0] += count
            mine[1] += total_s
            mine[2] += self_s
        base = self._next_id
        for span_id, name, start, end, parent, _ in other["spans"]:
            if len(self.spans) >= self.keep:
                self.dropped += 1
                continue
            self.spans.append((base + span_id, name, start, end,
                               base + parent if parent >= 0 else -1,
                               self.request_id))
        self._next_id += int(other["next_id"])

    def state(self) -> Dict[str, object]:
        """JSON-ready totals and spans, for :meth:`absorb`."""
        return {"totals": self.totals, "spans": self.spans,
                "next_id": self._next_id}

    def write(self, path) -> None:
        """Write every kept span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start_s": start,
                     "end_s": end, "parent": parent, "request": request}
                ))
                handle.write("\n")


_INSTALLED: List[Tuple[object, str, object]] = []


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced


def install(tracer: Tracer, only_loaded: bool = False) -> None:
    """Wrap every target; targets whose module is missing are skipped.

    ``only_loaded`` skips modules not imported yet, so a traced process
    imports nothing its untraced twin would not.
    """
    if _INSTALLED:
        raise RuntimeError("tracing wrappers are already installed")
    for module_name, attr, span in TARGETS:
        if only_loaded and module_name not in sys.modules:
            continue
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, span, raw.__func__))
            else:
                patched = _wrap(tracer, span, raw)
            _INSTALLED.append((owner, meth, raw))
            setattr(owner, meth, patched)
            continue
        original = getattr(module, attr)
        patched = _wrap(tracer, span, original)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    _INSTALLED.append((loaded, key, original))
                    setattr(loaded, key, patched)


def uninstall() -> None:
    """Restore every wrapped function and method."""
    while _INSTALLED:
        owner, key, original = _INSTALLED.pop()
        setattr(owner, key, original)
