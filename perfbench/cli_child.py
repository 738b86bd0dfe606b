"""Traced stand-in for ``python -m repro`` in the decide-cold workload.

Usage::

    python -X importtime perfbench/cli_child.py REPORT.json -- solve airplane --json

Times ``import repro.cli``, ``build_parser().parse_args(argv)`` and
``main(argv)`` in this fresh process, with the tracing wrappers on the
``repro`` modules the import loaded, then writes the timings and the
spans to ``REPORT.json``.  Stdout and the exit code are the CLI's own.
"""

import json
import sys
import time

clock = time.perf_counter


def main() -> int:
    report_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py REPORT -- ARGV...")
    argv = sys.argv[3:]
    start = clock()
    import repro.cli as cli
    import_s = clock() - start

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, only_loaded=True)
    tracer.active = True
    start = clock()
    cli.build_parser().parse_args(argv)
    parse_s = clock() - start
    start = clock()
    try:
        rc = cli.main(argv)
    finally:
        main_s = clock() - start
        tracer.active = False
        tracing.uninstall()
        from repro.engine import default_engine

        info = default_engine().cache_info()
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump({
                "import_s": import_s,
                "parse_s": parse_s,
                "main_s": main_s,
                "engine_hits": info.hits,
                "engine_misses": info.misses,
                "tracer": tracer.state(),
            }, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
