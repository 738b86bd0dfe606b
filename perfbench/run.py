"""Repository benchmark: cold CLI decisions, solver fleets, simulation
campaigns and store reruns, each a closed loop with one client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it again with the tracing wrappers of
``perfbench/tracing.py`` on every other request and prints the
per-layer metrics plus the tracing overhead.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it name each metric with its unit and base.  The exit
code is 0 when every output check passed, 1 when one failed, and 2
when the program could not be set up (for example, no ``src/repro``).
See ``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("decide-cold", "fleet", "simulate", "rerun")
SETUP_SAMPLES = 3
MAX_WORKERS = 2

clock = time.perf_counter


def pinned_env(work: Path) -> dict:
    """The environment every harness and child process runs under.

    No inherited ``REPRO_*`` setting survives: the result store is off
    (``rerun`` passes its own store explicitly), the execution backend
    has at most two workers, and home/cache point at a private dir.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(key, None)
    workers = max(1, min(MAX_WORKERS, os.cpu_count() or 1))
    env.update(
        REPRO_NO_CACHE="1",
        REPRO_EXEC_WORKERS=str(workers),
        HOME=str(work / "home"),
        XDG_CACHE_HOME=str(work / "home" / ".cache"),
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def tail_stat(values):
    """``(value, percentile, beyond)``: the highest percentile of
    ``values`` with at least ten samples beyond it, never below the
    median."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def measure_setup(args, env):
    """Wall time of fresh processes that import the program and do the
    workload's set-up, measured from launch to their ready line; with
    ``--trace 1`` also their ``-X importtime`` logs."""
    samples = []
    imports = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable]
        if args.trace:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "run.py"), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed)]
        err_path = WORK / f"setup-{os.getpid()}-{i}.err"
        with open(err_path, "w+", encoding="utf-8") as err:
            start = clock()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                ready = clock() - start
                proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                proc.stdout.close()
            if proc.returncode != 0 or line.strip() != "ready":
                err.seek(0)
                raise SetupError(
                    f"set-up probe failed (rc={proc.returncode}): "
                    + err.read()[-2000:]
                )
            if args.trace:
                err.seek(0)
                imports.append(err.read())
        err_path.unlink()
        samples.append(ready)
    return samples, imports


class SetupError(RuntimeError):
    """The program could not be imported or set up."""


def run_loop(workload, seconds: float, trace: bool):
    """Closed loop: the next request goes out when the last returns.

    Returns request wall times keyed by ``(kind, traced)``.
    """
    from tracing import install, uninstall

    kinds = {}
    attempted = failed = 0
    errors = []
    deadline = clock() + seconds
    index = 0
    requests = workload.requests()
    # Stop only between rounds, so every run has the same request mix.
    while index % workload.round_size or clock() < deadline:
        request = next(requests)
        traced = trace and index % 2 == 1
        attempted += 1
        if traced:
            install(workload.tracer)
            workload.tracer.request_id = index
        try:
            outcome = workload.execute(request, traced)
        except Exception as exc:  # the loop must survive a failed op
            failed += 1
            if len(errors) < 5:
                errors.append(f"{request.kind}: {exc!r}")
            outcome = None
        finally:
            if traced:
                uninstall()
        if outcome is not None:
            kinds.setdefault((request.kind, traced), []).append(outcome)
        index += 1
    return kinds, attempted, failed, errors


def host_record(env) -> dict:
    import numpy
    import scipy

    from repro.obs import git_revision

    return {
        "nproc": os.cpu_count(),
        "workers": int(env["REPRO_EXEC_WORKERS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_revision(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "home").mkdir(parents=True)
    env = pinned_env(work)
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_probe:
            return setup_probe(args, env, work)
        return measure(args, env, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_probe(args, env, work: Path) -> int:
    """Child mode: do the workload's set-up, say ready, tear down."""
    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed, work, env)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def measure(args, env, work: Path) -> int:
    setup_samples, import_logs = measure_setup(args, env)
    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed, work, env)
    try:
        workload.setup()
        host = host_record(env)
        kinds, attempted, failed, errors = run_loop(
            workload, args.seconds, bool(args.trace)
        )
        workload.finish()
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()
    walls = [w for (_, traced), ws in kinds.items() if not traced for w in ws]
    checks_failed = workload.check_failures
    correct = not checks_failed and bool(walls)

    lines = [
        "host " + json.dumps(host, sort_keys=True),
        f"requests attempted={attempted} failed={failed} "
        f"failed_fraction={failed / max(attempted, 1):.6f} "
        f"(base: {attempted} attempted)",
    ]
    lines += [f"error {e}" for e in errors]
    lines += [f"check FAILED {c}" for c in checks_failed[:10]]
    lines += workload.notes()

    if args.trace:
        from workloads import import_layer_metrics, layer_units

        metrics = workload.layer_metrics()
        if import_logs and args.workload != "decide-cold":
            metrics.update(import_layer_metrics(import_logs))
        metrics.update(overhead_metrics(kinds))
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(trace_path)
        lines.append(
            f"trace spans={len(workload.tracer.spans)} "
            f"dropped={workload.tracer.dropped} written to "
            f"{trace_path.relative_to(ROOT)}"
        )
        units = layer_units()
    else:
        p50 = statistics.median(walls)
        tail, pct, beyond = tail_stat(walls)
        rate, rate_base = workload.work_rate()
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_p50_s": p50,
            "wall_tail_s": tail,
            "work_rate_per_s": rate,
            "peak_rss_mb": peak_rss,
        }
        units = {"setup_s": "s", "wall_p50_s": "s", "wall_tail_s": "s",
                 "work_rate_per_s": "1/s", "peak_rss_mb": "MB"}
        lines += [
            "setup_s samples "
            + " ".join(f"{s:.4f}" for s in setup_samples)
            + " (median reported)",
            f"wall_p50_s {p50:.6f} s (n={len(walls)} requests; "
            + ", ".join(
                f"{kind} p50 {statistics.median(w):.6f} s n={len(w)}"
                for (kind, was_traced), w in sorted(kinds.items())
                if not was_traced)
            + ")",
            f"wall_tail_s {tail:.6f} s (p{pct:.1f} of n={len(walls)}, "
            f"{beyond} samples beyond)",
            f"work_rate_per_s {rate:.3f} 1/s ({rate_base})",
            f"peak_rss_mb {peak_rss:.1f} MB ({workload.rss_base})",
        ]
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def overhead_metrics(kinds) -> dict:
    """Tracing overhead: traced minus untraced request wall, summed
    over request kinds of their per-kind medians."""
    traced = untraced = 0.0
    for (kind, was_traced), walls in kinds.items():
        other = kinds.get((kind, not was_traced))
        if not other:
            continue
        if was_traced:
            traced += statistics.median(walls)
        else:
            untraced += statistics.median(walls)
    overhead = traced - untraced
    return {
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced if untraced else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
