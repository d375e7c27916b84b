"""Run one convexham CLI command with the benchmark's layer tracing installed.

Usage: python perfbench/traced_cli.py TRACE_OUT SPAWN_TIME ARG...

SPAWN_TIME is the parent's `time.time()` just before it started this
process, so the parent can split interpreter start-up and imports from the
command itself.  The command's stdout, stderr and exit code are those of
`convexham ARG...`; the layer aggregates and spans go to TRACE_OUT as JSON.
"""

import json
import sys
import time


def main():
    out_path, t_spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import tracing
    from convexham import cli

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    t_start = time.time()
    try:
        code = cli.main(argv)
    finally:
        t_end = time.time()
        tracing.uninstall(undo)
        sys.stdout.flush()
        stats = {name: vals for name, vals in tracer.stats.items() if vals[tracing.CALLS]}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "t_spawn": t_spawn,
                "t_main_start": t_start,
                "t_main_end": t_end,
                "main_s": stats.get("cli.main", [0, 0.0])[tracing.INCL_S],
                "stats": stats,
                "counts": dict(tracer.counts),
                "spans": tracer.spans,
                "dropped_spans": tracer.dropped,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
