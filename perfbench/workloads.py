"""The four benchmark workloads and the checks on their outputs.

Each workload is one closed-loop client: ``requests()`` yields the next
seeded request (its inputs are built there, outside the timed call),
and ``execute()`` times one call into the program's public surface,
checks the output and returns the request's wall time.  Only inputs
come from the seed; the program is never told which workload it runs.
"""

from __future__ import annotations

import compileall
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
clock = time.perf_counter

AIRFRAMES = ("airplane", "quadrocopter")
#: ``repro`` subpackages the import-time breakdown names one by one;
#: any other module of the package counts under ``root`` (top-level
#: modules) or ``other`` (a subpackage not listed here).
REPRO_SUBPACKAGES = (
    "airframe", "analysis", "channel", "control", "core", "engine",
    "exec", "experiments", "faults", "geo", "mac", "measurements",
    "mission", "net", "obs", "phy", "relay", "report", "sim", "store",
)
LINK_STAGES = ("channel", "error", "feedback", "delivery", "mac", "control")


class Request:
    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload


def strict_json(text: str):
    """``json.loads`` that refuses NaN and infinities."""
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=refuse)


def log_uniform(rng, low, high):
    return float(10 ** rng.uniform(math.log10(low), math.log10(high)))


def random_scenario_params(rng) -> dict:
    """One scenario drawn from the paper's parameter ranges."""
    return {
        "name": AIRFRAMES[int(rng.integers(2))],
        "mdata_mb": float(rng.uniform(1.0, 60.0)),
        "speed_mps": float(rng.uniform(2.0, 20.0)),
        "rho_per_m": log_uniform(rng, 1e-5, 1e-2),
        "d0_m": float(rng.uniform(30.0, 300.0)),
    }


def scenario(p):
    """The program's scenario for parameters from
    :func:`random_scenario_params`."""
    from repro import api

    return api.scenario(p["name"], mdata_mb=p["mdata_mb"],
                        speed_mps=p["speed_mps"], rho_per_m=p["rho_per_m"],
                        d0_m=p["d0_m"])


def random_chain(rng):
    """A 1-3 hop relay chain, half of them with a deadline."""
    from repro.relay import RelayChain

    hops = [scenario(random_scenario_params(rng))
            for _ in range(int(rng.integers(1, 4)))]
    deadline = float(rng.uniform(60, 900)) if rng.random() < 0.5 else None
    return RelayChain.of(hops, handoff_s=float(rng.uniform(0, 10)),
                         mdata_mb=float(rng.uniform(1.0, 60.0)),
                         deadline_s=deadline)


def random_outage_plan(rng, seed: int, name: str):
    """A chaos fault plan of Poisson link outages over 600 s."""
    from repro.faults.plan import FaultPlan

    return FaultPlan.sampled_outages(
        np.random.default_rng(seed), horizon_s=600.0,
        rate_per_s=float(rng.uniform(0.01, 0.05)),
        mean_duration_s=float(rng.uniform(1.0, 5.0)), name=name, seed=seed)


def random_sweep(rng, n: int):
    """``(param, spacing, start, stop, n)`` over the paper's ranges."""
    param = ("rho_per_m", "mdata_mb", "speed_mps", "d0_m")[
        int(rng.integers(4))
    ]
    if param == "rho_per_m":
        return (param, "geomspace", log_uniform(rng, 1e-5, 3e-5),
                log_uniform(rng, 3e-3, 1e-2), n)
    low, high = {"mdata_mb": (1.0, 60.0), "speed_mps": (2.0, 20.0),
                 "d0_m": (30.0, 300.0)}[param]
    span = high - low
    return (param, "linspace", float(rng.uniform(low, low + 0.1 * span)),
            float(rng.uniform(high - 0.1 * span, high)), n)


def sweep_values(spacing, start, stop, n):
    space = np.linspace if spacing == "linspace" else np.geomspace
    return [float(v) for v in space(start, stop, n)]


def group_importtime(stderr: str) -> dict:
    """Self import time (s) per top-level package from ``-X importtime``.

    ``repro`` modules are grouped per subpackage (``repro.core``, ...).
    """
    groups = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_s = int(parts[0]) * 1e-6
        module = parts[2].strip()
        top = module.split(".")[0]
        if top == "repro":
            pieces = module.split(".")
            sub = pieces[1] if len(pieces) > 1 else "root"
            if sub not in REPRO_SUBPACKAGES:
                sub = "root" if len(pieces) <= 2 else "other"
            groups[f"repro.{sub}"] += self_s
        elif top in ("numpy", "scipy"):
            groups[top] += self_s
        else:
            groups["other"] += self_s
    return groups


def import_metric_names():
    return (["import.scipy_s", "import.numpy_s", "import.other_s"]
            + [f"import.repro.{s}_s" for s in REPRO_SUBPACKAGES]
            + ["import.repro.root_s", "import.repro.other_s"])


def import_layer_metrics(logs) -> dict:
    """Mean per-process import breakdown over several importtime logs."""
    out = {name: 0.0 for name in import_metric_names()}
    for log in logs:
        for group, seconds in group_importtime(log).items():
            out[f"import.{group}_s"] += seconds / len(logs)
    out["import.total_s"] = sum(out.values())
    return out


def run_child(cmd, env, err_path, timeout_s=120.0):
    """Run one child to completion; ``(stdout, rc, wall_s, peak_rss_mb,
    stderr)``.  ``os.wait4`` gives the child's own resource usage."""
    with open(err_path, "w+", encoding="utf-8") as err:
        start = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    os.unlink(err_path)
    return out.decode("utf-8"), proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr


class Workload:
    """Shared bookkeeping: checks, work units, per-layer accumulators."""

    work_unit = ""
    rss_base = "harness process plus its pool workers, VmHWM"
    #: Requests per round; a round holds every request variant once.
    round_size = 3

    def __init__(self, seed, work: Path, env):
        self.seed = seed
        self.work = work
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer()
        self.check_failures = []
        self.units = 0.0
        self.unit_time = 0.0
        self.by_kind = defaultdict(lambda: [0.0, 0.0])  # kind -> units, s
        self.n_traced = 0
        self.layer = defaultdict(float)
        self.link = None
        self.counts = defaultdict(float)
        self._engines = []
        self._store = None
        self.traced = False

    # -- lifecycle -----------------------------------------------------
    def setup(self):
        """Compile the program's bytecode, then the workload's own
        set-up (imports, pools, stores)."""
        compileall.compile_dir(str(SRC / "repro"), quiet=1, workers=1)
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def requests(self):
        raise NotImplementedError

    def run(self, request):
        """Do one request; returns ``(wall_s, units)``."""
        raise NotImplementedError

    def finish(self):
        pass

    def close(self):
        from repro import exec as exec_backend

        exec_backend.shutdown()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join()

    # -- checks and accounting -----------------------------------------
    def check(self, ok, what):
        if not ok:
            self.check_failures.append(what)

    def execute(self, request, traced: bool) -> float:
        before = self._snapshot() if traced else None
        self.traced = traced
        wall, units = self.run(request)
        if traced:
            self.n_traced += 1
            self._accumulate(before, self._snapshot())
        self.units += units
        self.unit_time += wall
        entry = self.by_kind[request.kind]
        entry[0] += units
        entry[1] += wall
        return wall

    def timed(self, fn, *args, **kwargs):
        """``(result, wall_s)`` of one call into the program; spans are
        recorded only here, never around the checks."""
        self.tracer.active = self.traced
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = clock() - start
            self.tracer.active = False
        return result, wall

    def work_rate(self):
        rate = self.units / self.unit_time if self.unit_time else 0.0
        return rate, (f"{self.units:g} {self.work_unit} in "
                      f"{self.unit_time:.3f} s of request wall")

    def kind_rate(self, kinds):
        units = sum(self.by_kind[k][0] for k in kinds)
        seconds = sum(self.by_kind[k][1] for k in kinds)
        return (units / seconds if seconds else 0.0), units, seconds

    def peak_rss_mb(self) -> float:
        return vm_hwm_total()

    def notes(self):
        return []

    # -- per-layer accumulation (traced requests only) -----------------
    def _snapshot(self):
        from repro import exec as exec_backend

        backend = exec_backend.default_backend()
        stages = backend.telemetry.stage_seconds
        snap = {f"c:{k}": v for k, v in exec_backend.counters_snapshot().items()}
        snap["exec.chunk_s"] = stages.get("exec.chunk", 0.0)
        snap["exec.pool_map_s"] = sum(
            v for k, v in stages.items() if k.startswith("exec.map.")
        )
        infos = [engine.cache_info() for engine in self._engines]
        snap["engine.hits"] = sum(info.hits for info in infos)
        snap["engine.misses"] = sum(info.misses for info in infos)
        if self._store is not None:
            for k, v in self._store.snapshot_counters().items():
                snap[f"s:{k}"] = v
        return snap

    def _accumulate(self, before, after):
        for key, value in after.items():
            self.layer[key] += value - before.get(key, 0)

    def layer_metrics(self):
        """Every per-layer metric; a layer this workload never enters
        reads 0.  Times and counts are means per traced request."""
        t = self.tracer
        n = max(self.n_traced, 1)
        lay = self.layer
        out = {name: 0.0 for name in layer_metric_names()}
        out["interp.startup_s"] = self.interp_startup()
        engine_hits = lay.get("engine.hits", 0.0)
        engine_misses = lay.get("engine.misses", 0.0)
        out.update({
            "engine.solve_batch_s": t.self_s("engine.solve_batch") / n,
            "engine.sweep_s": t.self_s("engine.sweep") / n,
            "engine.solve_s": t.self_s("engine.solve") / n,
            "engine.rows": (engine_hits + engine_misses) / n,
            "engine.memo_hits": engine_hits / n,
            "engine.memo_misses": engine_misses / n,
            "core.optimize_calls": t.count("core.optimize") / n,
            "core.optimize_s": t.self_s("core.optimize") / n,
            "relay.batch_solve_s": t.self_s("relay.batch_solve") / n,
            "relay.engine_s": t.child_s("relay.batch_solve",
                                        "engine.solve_batch") / n,
            "exec.map_s": t.self_s("exec.map") / n,
            "net.link_step_s": t.self_s("net.link_step") / n,
            "net.link_step_calls": t.count("net.link_step") / n,
            "mission.chaos_self_s": t.self_s("mission.chaos") / n,
            "store.get_s": t.self_s("store.get") / n,
            "store.put_s": t.self_s("store.put") / n,
            "store.put_many_s": t.self_s("store.put_many") / n,
            "store.touch_many_s": t.self_s("store.touch_many") / n,
            "store.config_key_s": t.self_s("store.config_key") / n,
            "obs.manifest_build_s": t.self_s("obs.manifest_build") / n,
            "obs.to_json_s": t.self_s("obs.to_json") / n,
        })
        for name in ("shards", "pool_spawns", "pool_reuse", "respawns",
                     "shm_bytes", "pickle_bytes"):
            out[f"exec.{name}"] = lay.get(f"c:exec.{name}", 0.0) / n
        moved = lay.get("c:exec.shm_bytes", 0.0) + lay.get(
            "c:exec.pickle_bytes", 0.0)
        out["exec.shm_share"] = (
            lay.get("c:exec.shm_bytes", 0.0) / moved if moved else 0.0)
        pool_wall = lay.get("exec.pool_map_s", 0.0)
        workers = int(self.env["REPRO_EXEC_WORKERS"])
        out["exec.worker_busy_share"] = (
            lay.get("exec.chunk_s", 0.0) / (pool_wall * workers)
            if pool_wall else 0.0)
        if self.link is not None:
            epochs = self.link.counters.get("epochs", 0)
            for stage in LINK_STAGES:
                seconds = self.link.stage_seconds.get(stage, 0.0)
                out[f"link.{stage}_us"] = (
                    1e6 * seconds / epochs if epochs else 0.0)
            out["measurements.replica_epochs"] = (
                self.link.counters.get("replica_epochs", 0) / n)
            out["faults.outage_replica_epochs"] = (
                self.link.counters.get("faults.outage_replica_epochs", 0)
                / n)
        if self._store is not None:
            for name in ("hits", "misses", "puts", "evictions",
                         "bytes_read", "bytes_written"):
                out[f"store.{name}"] = lay.get(f"s:{name}", 0.0) / n
            lookups = lay.get("s:hits", 0.0) + lay.get("s:misses", 0.0)
            out["store.hit_ratio"] = (
                lay.get("s:hits", 0.0) / lookups if lookups else 0.0)
            out["store.entries"] = float(self.store_entries)
            out["store.index_bytes"] = float(self.store_index_bytes)
        out.update(self.extra_layer_metrics())
        return out

    def extra_layer_metrics(self):
        return {}

    def interp_startup(self) -> float:
        """Median wall of ``python -c pass`` under the pinned env."""
        walls = []
        for i in range(5):
            _, rc, wall, _, _ = run_child(
                [sys.executable, "-c", "pass"], self.env,
                self.work / f"startup-{i}.err")
            self.check(rc == 0, "python -c pass failed")
            walls.append(wall)
        return float(np.median(walls))


def layer_metric_names():
    names = ["interp.startup_s", "import.total_s"] + import_metric_names()
    names += ["cli.parse_s", "cli.command_s"]
    names += ["engine.solve_batch_s", "engine.sweep_s",
              "engine.solve_s", "engine.rows", "engine.memo_hits",
              "engine.memo_misses", "core.optimize_calls", "core.optimize_s",
              "relay.batch_solve_s", "relay.engine_s"]
    names += [f"link.{stage}_us" for stage in LINK_STAGES]
    names += ["measurements.replica_epochs", "faults.outage_replica_epochs"]
    names += ["exec.map_s", "exec.shards", "exec.pool_spawns",
              "exec.pool_reuse", "exec.respawns", "exec.shm_bytes",
              "exec.pickle_bytes", "exec.shm_share", "exec.worker_busy_share"]
    names += ["net.link_step_s", "net.link_step_calls",
              "mission.chaos_self_s", "relay.transfer_resumes",
              "relay.completed_share", "relay.fault_free_errors"]
    names += [f"store.{n}_s" for n in ("get", "put", "put_many",
                                        "touch_many", "config_key")]
    names += [f"store.{n}" for n in ("hits", "misses", "puts", "evictions",
                                     "bytes_read", "bytes_written",
                                     "hit_ratio", "entries", "index_bytes")]
    names += ["obs.manifest_build_s", "obs.to_json_s",
              "trace.overhead_s", "trace.overhead_share"]
    return names


def layer_units():
    units = {}
    for name in layer_metric_names():
        if name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_share", "_ratio")):
            units[name] = "ratio"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of one process, from /proc (MB)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def vm_hwm_total() -> float:
    """Peak RSS (MB) of this process plus its live child processes."""
    total = vm_hwm_mb()
    for child in multiprocessing.active_children():
        total += vm_hwm_mb(child.pid)
    return total


# ----------------------------------------------------------------------
# decide-cold: one cold ``python -m repro`` process per request
# ----------------------------------------------------------------------

class DecideCold(Workload):
    work_unit = "decisions"
    rss_base = "largest cold CLI process, ru_maxrss"
    child_rss = 0.0

    def prepare(self):
        from repro import api
        from repro.engine import BatchSolverEngine

        self.api = api
        self.ref = BatchSolverEngine()
        out, rc, _, _, err = run_child(
            [sys.executable, "-m", "repro", "solve", "airplane", "--json"],
            self.env, self.work / "warm.err")
        if rc != 0:
            raise RuntimeError(f"warm-up CLI run failed: {err[-500:]}")

    def requests(self):
        rng = self.rng
        kinds = ("solve", "relay", "sweep")
        i = 0
        while True:
            kind = kinds[i % 3]
            i += 1
            if kind == "solve":
                p = random_scenario_params(rng)
                argv = ["solve", p["name"], "--json",
                        "--mdata-mb", repr(p["mdata_mb"]),
                        "--speed", repr(p["speed_mps"]),
                        "--rho", repr(p["rho_per_m"]),
                        "--d0", repr(p["d0_m"])]
            elif kind == "relay":
                hops = [AIRFRAMES[int(rng.integers(2))]
                        for _ in range(int(rng.integers(1, 4)))]
                p = {"hops": hops, "handoff_s": float(rng.uniform(0, 10)),
                     "mdata_mb": float(rng.uniform(1.0, 60.0)),
                     "deadline_s": (float(rng.uniform(60, 900))
                                    if rng.random() < 0.5 else None)}
                argv = ["relay", "--hops", ",".join(hops),
                        "--handoff", repr(p["handoff_s"]),
                        "--mdata-mb", repr(p["mdata_mb"]), "--json"]
                if p["deadline_s"] is not None:
                    argv += ["--deadline", repr(p["deadline_s"])]
            else:
                base = random_scenario_params(rng)
                param, spacing, start, stop, n = random_sweep(rng, 200)
                p = {"base": base, "sweep": (param, spacing, start, stop, n)}
                flags = {"mdata_mb": "--mdata-mb", "speed_mps": "--speed",
                         "rho_per_m": "--rho", "d0_m": "--d0"}
                argv = ["sweep", base["name"], "--param", param,
                        f"--{spacing}", repr(start), repr(stop), str(n),
                        "--json"]
                for key, flag in flags.items():
                    if key != param:
                        argv += [flag, repr(base[key])]
            yield Request(kind, {"argv": argv, "params": p})

    def run(self, request):
        argv = request.payload["argv"]
        report = self.work / "child-report.json"
        if self.traced:
            cmd = [sys.executable, "-X", "importtime",
                   str(HERE / "cli_child.py"), str(report), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        out, rc, wall, rss, err = run_child(cmd, self.env,
                                            self.work / "child.err")
        self.child_rss = max(self.child_rss, rss)
        self.check_decision(request, out, rc, err)
        if self.traced:
            self.absorb_child(report, err)
        return wall, 1.0

    def check_decision(self, request, out, rc, err):
        kind, p = request.kind, request.payload["params"]
        tol = self.ref.refine_tolerance_m
        api = self.api
        label = f"{kind} {' '.join(request.payload['argv'])}"
        if rc not in (0, 1) or (rc == 1 and kind != "relay"):
            self.check(False, f"{label}: exit {rc}: {err[-300:]}")
            return
        try:
            doc = strict_json(out)
        except ValueError as exc:
            self.check(False, f"{label}: bad JSON ({exc})")
            return
        if kind == "solve":
            scn = scenario(p)
            ref = self.ref.solve(scn)
            d = doc["distance_m"]
            self.check(rc == 0 and abs(d - ref.distance_m) <= tol
                       and scn.min_distance_m <= d <= scn.contact_distance_m,
                       f"{label}: d={d} ref={ref.distance_m}")
        elif kind == "relay":
            from repro.relay import RelayChain, RelaySolver

            chain = RelayChain.of(
                [api.scenario(n) for n in p["hops"]],
                handoff_s=p["handoff_s"], name="-".join(p["hops"]),
                deadline_s=p["deadline_s"], mdata_mb=p["mdata_mb"])
            ref = RelaySolver(self.ref).solve(chain)
            hops = doc["outputs"]["hops"]
            self.check(
                rc == (0 if ref.meets_deadline else 1)
                and doc["outputs"]["meets_deadline"] == ref.meets_deadline
                and len(hops) == len(ref.hops)
                and all(abs(h["distance_m"] - r.distance_m) <= tol
                        for h, r in zip(hops, ref.hops)),
                f"{label}: relay decision differs from the reference")
        else:
            base = p["base"]
            param, spacing, start, stop, n = p["sweep"]
            scn = api.scenario(base["name"], **{
                k: v for k, v in base.items() if k not in ("name", param)})
            ref = api.sweep(scn, param, sweep_values(spacing, start, stop, n),
                            engine=self.ref, cache=False)
            got = doc["outputs"]
            self.check(
                rc == 0 and got["n"] == n
                and all(abs(got["distance_m"][s]
                            - getattr(ref.distance_m, s)()) <= tol
                        for s in ("min", "max", "mean")),
                f"{label}: sweep summary differs from the reference")

    def absorb_child(self, report_path, stderr):
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.unlink(report_path)
        lay = self.layer
        lay["child.import_s"] += report["import_s"]
        lay["child.parse_s"] += report["parse_s"]
        lay["child.command_s"] += report["main_s"] - report["parse_s"]
        lay["engine.hits"] += report["engine_hits"]
        lay["engine.misses"] += report["engine_misses"]
        for group, seconds in group_importtime(stderr).items():
            lay[f"child.import.{group}"] += seconds
        self.tracer.absorb(report["tracer"])

    def peak_rss_mb(self):
        return self.child_rss

    def extra_layer_metrics(self):
        n = max(self.n_traced, 1)
        lay = self.layer
        out = {"import.total_s": lay["child.import_s"] / n,
               "cli.parse_s": lay["child.parse_s"] / n,
               "cli.command_s": lay["child.command_s"] / n}
        for name in import_metric_names():
            group = name[len("import."):-len("_s")]
            out[name] = lay.get(f"child.import.{group}", 0.0) / n
        return out


# ----------------------------------------------------------------------
# fleet: in-process vectorised solves over seeded fleets
# ----------------------------------------------------------------------

class Fleet(Workload):
    work_unit = "Eq. 2 rows (relay hops included)"
    FLEET_ROWS = 10_000
    SWEEP_ROWS = 10_000
    CHAINS = 400
    SAMPLE = 6

    def prepare(self):
        from repro import api
        from repro.core.optimizer import DistanceOptimizer
        from repro.engine import BatchSolverEngine
        from repro.relay import BatchRelaySolver, RelayChain, RelaySolver

        self.api = api
        self.DistanceOptimizer = DistanceOptimizer
        self.RelaySolver = RelaySolver
        self.engine = BatchSolverEngine(max_workers=2)
        self.ref = BatchSolverEngine()
        self.relay = BatchRelaySolver(self.engine)
        self._engines = [self.engine]
        warm = [scenario(random_scenario_params(self.rng))
                for _ in range(64)]
        api.solve_batch(warm, engine=self.engine, cache=False)
        self.relay.solve([RelayChain.of(warm[:2], handoff_s=1.0)])
        self.reference_decision(warm[0])

    def reference_decision(self, scn):
        return self.DistanceOptimizer(
            scn.utility_model(), grid_step_m=self.engine.grid_step_m,
            refine_tolerance_m=self.engine.refine_tolerance_m,
        ).optimize(scn.contact_distance_m, scn.cruise_speed_mps,
                   scn.data_bits)

    def requests(self):
        rng = self.rng
        kinds = ("solve_batch", "sweep", "relay_batch")
        i = 0
        while True:
            kind = kinds[i % 3]
            i += 1
            if kind == "solve_batch":
                fleet = [scenario(random_scenario_params(rng))
                         for _ in range(self.FLEET_ROWS)]
                yield Request(kind, {"fleet": fleet})
            elif kind == "sweep":
                param, spacing, start, stop, n = random_sweep(
                    rng, self.SWEEP_ROWS)
                # Grid width follows d0, so a narrow base d0 keeps the
                # cost of a non-d0 sweep from varying tenfold by seed.
                params = random_scenario_params(rng)
                params["d0_m"] = float(rng.uniform(280.0, 300.0))
                base = scenario(params)
                yield Request(kind, {
                    "base": base, "param": param,
                    "values": sweep_values(spacing, start, stop, n)})
            else:
                yield Request(kind, {"chains": [
                    random_chain(rng) for _ in range(self.CHAINS)]})

    def run(self, request):
        api, p = self.api, request.payload
        if request.kind == "solve_batch":
            result, wall = self.timed(api.solve_batch, p["fleet"],
                                      engine=self.engine, cache=False)
            self.check_rows(request.kind, result, p["fleet"])
            return wall, len(p["fleet"])
        if request.kind == "sweep":
            result, wall = self.timed(api.sweep, p["base"], p["param"],
                                      p["values"], engine=self.engine,
                                      cache=False)
            variants = [p["base"].with_(**{p["param"]: v})
                        for v in p["values"]]
            self.check_rows(request.kind, result, variants)
            return wall, len(variants)
        chains = p["chains"]
        result, wall = self.timed(self.relay.solve, chains)
        self.counts["chains"] += len(chains)
        picks = self.rng.choice(len(chains), self.SAMPLE, replace=False)
        for i in picks:
            ref = self.RelaySolver(self.ref).solve(chains[i])
            self.check(ref.to_dict() == result[int(i)].to_dict(),
                       f"relay_batch chain {i}: batch != RelaySolver")
        return wall, sum(c.n_hops for c in chains)

    def check_rows(self, kind, result, scenarios):
        d = np.asarray(result.distance_m)
        dmin = np.array([s.min_distance_m for s in scenarios])
        d0 = np.array([s.contact_distance_m for s in scenarios])
        self.check(len(d) == len(scenarios) and bool(np.all(np.isfinite(d)))
                   and bool(np.all((d >= dmin) & (d <= d0))),
                   f"{kind}: distances outside [dmin, d0]")
        tol = self.engine.refine_tolerance_m
        for i in self.rng.choice(len(scenarios), self.SAMPLE, replace=False):
            ref = self.reference_decision(scenarios[int(i)])
            self.check(abs(ref.distance_m - d[int(i)]) <= tol,
                       f"{kind} row {i}: d={d[int(i)]} "
                       f"DistanceOptimizer={ref.distance_m}")

    def notes(self):
        solve, rows, s1 = self.kind_rate(("solve_batch", "sweep"))
        relay_s = self.by_kind["relay_batch"][1]
        chains = self.counts["chains"]
        return [
            f"solve_rate_per_s {solve:.1f} 1/s (base: {rows:g} Eq. 2 rows "
            f"in {s1:.3f} s of solve_batch+sweep)",
            f"relay_rate_per_s {chains / relay_s if relay_s else 0.0:.1f} "
            f"1/s (base: {chains:g} chains in {relay_s:.3f} s)",
        ]


# ----------------------------------------------------------------------
# simulate: campaigns, chaos missions and relay campaigns
# ----------------------------------------------------------------------

class Simulate(Workload):
    work_unit = "simulated replica-seconds"
    CAMPAIGN_DISTANCES = 4
    CAMPAIGN_REPLICAS = 192
    CAMPAIGN_BLOCK = 96
    CAMPAIGN_SECONDS = 10.0
    MISSIONS = 4
    RELAY_REPLICAS = 8
    #: (profile, controller, outages): each airframe and controller is
    #: run both with and without sampled outages once per round.
    CAMPAIGN_MIX = (("airplane", "arf", False), ("airplane", "oracle", True),
                    ("quadrocopter", "arf", True),
                    ("quadrocopter", "oracle", False))
    round_size = 3 * len(CAMPAIGN_MIX)

    def prepare(self):
        from repro import api
        from repro.faults.plan import FaultPlan
        from repro.measurements import BatchCampaignConfig, run_campaign
        from repro.perf import PerfTelemetry
        from repro.relay import RelayCampaignConfig, run_relay_campaign

        self.api = api
        self.BatchCampaignConfig = BatchCampaignConfig
        self.run_campaign = run_campaign
        self.RelayCampaignConfig = RelayCampaignConfig
        self.run_relay_campaign = run_relay_campaign
        self.link = PerfTelemetry()
        # Spawn the worker pool now, so no request pays for it.
        run_campaign(BatchCampaignConfig(
            distances_m=(80.0,), n_replicas=4, duration_s=1.0, block_size=2))
        api.chaos(FaultPlan(name="warm"), "quadrocopter", seed=1,
                  cache=False)

    def requests(self):
        rng = self.rng
        kinds = ("campaign", "chaos", "relay_campaign")
        i = campaigns = 0
        while True:
            kind = kinds[i % 3]
            i += 1
            seed = int(rng.integers(1, 2**31))
            if kind == "campaign":
                profile, controller, outages = self.CAMPAIGN_MIX[
                    campaigns % len(self.CAMPAIGN_MIX)]
                campaigns += 1
                distances = tuple(sorted(
                    float(rng.uniform(20.0, 300.0))
                    for _ in range(self.CAMPAIGN_DISTANCES)))
                config = self.BatchCampaignConfig(
                    profile=profile, controller=controller,
                    distances_m=distances,
                    n_replicas=self.CAMPAIGN_REPLICAS,
                    duration_s=self.CAMPAIGN_SECONDS, seed=seed,
                    block_size=self.CAMPAIGN_BLOCK,
                    outage_rate_per_s=(float(rng.uniform(0.02, 0.1))
                                       if outages else 0.0),
                    outage_mean_duration_s=(float(rng.uniform(1.0, 4.0))
                                            if outages else 0.0))
                yield Request(kind, config)
            elif kind == "chaos":
                missions = []
                for m in range(self.MISSIONS):
                    plan = random_outage_plan(rng, seed + m, f"bench{m}")
                    missions.append((plan, AIRFRAMES[m % 2], seed + m))
                yield Request(kind, missions)
            else:
                hops = tuple(AIRFRAMES[int(rng.integers(2))]
                             for _ in range(2))
                yield Request(kind, self.RelayCampaignConfig(
                    scenarios=hops, handoff_s=float(rng.uniform(0, 10)),
                    mdata_mb=float(rng.uniform(4.0, 6.0)),
                    n_replicas=self.RELAY_REPLICAS, seed=seed,
                    outage_rate_per_s=float(rng.uniform(0.005, 0.03)),
                    outage_mean_duration_s=float(rng.uniform(1.0, 5.0))))

    def run(self, request):
        if request.kind == "campaign":
            config = request.payload
            result, wall = self.timed(self.run_campaign, config,
                                      cache=False)
            intervals = round(config.duration_s / config.report_interval_s)
            self.check(
                sorted(result.samples) == sorted(config.distances_m)
                and all(len(v) == config.n_replicas * intervals
                        and all(math.isfinite(x) and x >= 0 for x in v)
                        for v in result.samples.values()),
                f"campaign seed={config.seed}: sample counts or values")
            if self.traced:
                self.link.merge(result.telemetry)
            replica_s = (len(config.distances_m) * config.n_replicas
                         * config.duration_s)
            self.counts["campaign_replica_s"] += replica_s
            return wall, replica_s
        if request.kind == "chaos":
            results, wall = self.timed(lambda: [
                self.api.chaos(plan, name, seed=seed, cache=False)
                for plan, name, seed in request.payload])
            for r in results:
                marks = [c.delivered_bytes for c in r.checkpoints]
                self.check(
                    math.isfinite(r.finish_s) and r.finish_s >= 0
                    and 0 <= r.delivered_bytes <= r.total_bytes
                    and r.completed == (r.delivered_bytes == r.total_bytes)
                    and marks == sorted(marks)
                    and all(m <= r.total_bytes for m in marks),
                    f"chaos {r.plan_name} seed={r.seed}: byte ledger")
            self.counts["missions"] += len(results)
            return wall, sum(r.finish_s for r in results)
        config = request.payload
        result, wall = self.timed(self.run_relay_campaign, config)
        self.check(
            result.n_replicas == config.n_replicas
            and all(r.byte_ledger_consistent() and math.isfinite(r.finish_s)
                    for r in result.replicas),
            f"relay campaign seed={config.seed}: byte ledger")
        self.counts["relay_replicas"] += result.n_replicas
        if self.traced:
            self.layer["relay.resumes"] += result.total_resumes
            self.layer["relay.replicas"] += result.n_replicas
            self.layer["relay.completed"] += result.completed
        return wall, sum(r.finish_s for r in result.replicas)

    def finish(self):
        # Fault-free relay campaigns are part of this workload's intent
        # but raise today (the outage plan sampler rejects a zero mean
        # duration even at rate 0); the probe keeps the defect visible.
        try:
            self.run_relay_campaign(self.RelayCampaignConfig(
                n_replicas=2, seed=self.seed))
            self.fault_free = "ok"
        except ValueError as exc:
            self.fault_free = f"ValueError: {exc}"

    def extra_layer_metrics(self):
        n = max(self.n_traced, 1)
        replicas = self.layer["relay.replicas"]
        return {
            "relay.transfer_resumes": self.layer["relay.resumes"] / n,
            "relay.completed_share": (self.layer["relay.completed"]
                                      / replicas if replicas else 0.0),
            "relay.fault_free_errors": 0.0 if self.fault_free == "ok" else 1.0,
        }

    def notes(self):
        camp, rs, cs = self.kind_rate(("campaign",))
        mission_s = self.by_kind["chaos"][1] + self.by_kind["relay_campaign"][1]
        done = self.counts["missions"] + self.counts["relay_replicas"]
        return [
            f"campaign_replica_s_per_s {camp:.1f} 1/s (base: {rs:g} "
            f"replica-seconds in {cs:.3f} s of run_campaign)",
            f"mission_rate_per_s {done / mission_s if mission_s else 0:.2f} "
            f"1/s (base: {self.counts['missions']:g} chaos missions + "
            f"{self.counts['relay_replicas']:g} relay replicas in "
            f"{mission_s:.3f} s)",
            f"known defect: fault-free run_relay_campaign -> "
            f"{self.fault_free}",
        ]


# ----------------------------------------------------------------------
# rerun: store-backed requests, ~70% repeats of earlier ones
# ----------------------------------------------------------------------

class Rerun(Workload):
    work_unit = "requests"
    PREFILL = 2000
    PREFILL_BATCH = 250
    WARM_PER_10 = 7
    SWEEP_POINTS = 50
    #: Five blocks of ten: every fresh-request kind is new three times.
    round_size = 50

    def prepare(self):
        from repro import api
        from repro.engine import BatchSolverEngine
        from repro.measurements import BatchCampaignConfig, run_campaign
        from repro.store import ResultStore

        self.api = api
        self.BatchCampaignConfig = BatchCampaignConfig
        self.run_campaign = run_campaign
        self.engine = BatchSolverEngine(max_workers=2)
        self._engines = [self.engine]
        self.store = ResultStore(self.work / "store")
        self._store = self.store
        self.history = []
        self.warm_walls, self.cold_walls = [], []
        rng = np.random.default_rng(self.seed + 7919)
        for _ in range(self.PREFILL // self.PREFILL_BATCH):
            fleet = [scenario(random_scenario_params(rng))
                     for _ in range(self.PREFILL_BATCH)]
            api.solve_batch(fleet, engine=self.engine, cache=self.store)
        # One cold request of each kind, so repeats have targets and the
        # campaign request spawns the worker pool here.
        fresh = self.fresh_requests(rng)
        for _ in range(5):
            request = next(fresh)
            self.history.append((request, self.call(request)))

    def fresh_requests(self, rng):
        kinds = ("solve", "sweep", "relay", "chaos", "campaign")
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            i += 1
            seed = int(rng.integers(1, 2**31))
            if kind == "solve":
                payload = scenario(random_scenario_params(rng))
            elif kind == "sweep":
                param, spacing, start, stop, n = random_sweep(
                    rng, self.SWEEP_POINTS)
                payload = (scenario(random_scenario_params(rng)), param,
                           sweep_values(spacing, start, stop, n))
            elif kind == "relay":
                payload = random_chain(rng)
            elif kind == "chaos":
                payload = (random_outage_plan(rng, seed, "rerun"),
                           AIRFRAMES[int(rng.integers(2))], seed)
            else:
                payload = self.BatchCampaignConfig(
                    profile=AIRFRAMES[int(rng.integers(2))],
                    controller=("arf", "oracle")[int(rng.integers(2))],
                    distances_m=tuple(sorted(
                        float(rng.uniform(20.0, 300.0)) for _ in range(2))),
                    n_replicas=48, duration_s=5.0, block_size=48, seed=seed)
            yield Request(kind, payload)

    def call(self, request):
        """Run one request against the store; returns its signature,
        the bytes a warm repeat must reproduce exactly."""
        api, store, kind, p = self.api, self.store, request.kind, request.payload
        if kind == "solve":
            result = api.solve(p, engine=self.engine, cache=store)
            return json.dumps(result.outputs.to_dict(), sort_keys=True)
        if kind == "sweep":
            scn, param, values = p
            result = api.sweep(scn, param, values, engine=self.engine,
                               cache=store)
            return b"".join(
                np.ascontiguousarray(getattr(result.outputs, c)).tobytes()
                for c in ("distance_m", "utility", "cdelay_s", "shipping_s",
                          "transmission_s", "discount"))
        if kind in ("relay", "chaos"):
            if kind == "relay":
                result = api.solve_relay(p, engine=self.engine, cache=store)
            else:
                plan, name, seed = p
                result = api.chaos(plan, name, seed=seed, cache=store)
            return (json.dumps(result.outputs.to_dict(), sort_keys=True)
                    + result.manifest.to_json())
        result = self.run_campaign(p, cache=store)
        return json.dumps({repr(k): v for k, v in result.samples.items()},
                          sort_keys=True)

    def requests(self):
        rng = self.rng
        fresh = self.fresh_requests(rng)
        while True:
            pattern = rng.permutation(
                [True] * self.WARM_PER_10 + [False] * (10 - self.WARM_PER_10))
            for warm in pattern:
                if warm:
                    index = int(rng.integers(len(self.history)))
                    request, _ = self.history[index]
                    yield Request(request.kind, ("warm", index))
                else:
                    request = next(fresh)
                    yield Request(request.kind, ("cold", request))

    def run(self, request):
        mode, target = request.payload
        if mode == "warm":
            original, signature = self.history[target]
            again, wall = self.timed(self.call, original)
            self.check(again == signature,
                       f"warm {original.kind} #{target} differs from cold")
            self.warm_walls.append(wall)
            return wall, 1.0
        signature, wall = self.timed(self.call, target)
        self.history.append((target, signature))
        self.cold_walls.append(wall)
        return wall, 1.0

    def finish(self):
        outcome = self.store.verify(repair=False)
        self.check(outcome["corrupt"] == 0,
                   f"store verify: {outcome['corrupt']} corrupt entries")
        self.verified = outcome
        self.store_entries = self.store.stats()["entries"]
        self.store_index_bytes = os.path.getsize(self.store.index_path)

    def notes(self):
        def p50(walls):
            return float(np.median(walls)) if walls else 0.0
        c = self.store.snapshot_counters()
        lookups = c["hits"] + c["misses"]
        return [
            f"rerun_wall_p50_s warm {p50(self.warm_walls):.6f} s "
            f"(n={len(self.warm_walls)}), cold {p50(self.cold_walls):.6f} s "
            f"(n={len(self.cold_walls)})",
            f"store hit_ratio {c['hits'] / lookups if lookups else 0:.4f} "
            f"(base: {lookups} lookups); entries {self.store_entries}, "
            f"index {self.store_index_bytes} bytes; verify {self.verified}",
        ]


WORKLOAD_CLASSES = {"decide-cold": DecideCold, "fleet": Fleet,
                    "simulate": Simulate, "rerun": Rerun}
