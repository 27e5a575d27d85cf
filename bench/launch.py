"""Run one chanreduce command as its console script does, then report the
process's own peak memory and CPU time, which exclude the trainer workers.

    python3 bench/launch.py --usage USAGE.json [--spans SPANS.json] -- ARGS...

USAGE.json gets ``import_ms`` (time to import ``chanreduce.cli``),
``maxrss_kb`` and ``cpu_s``. With ``--spans`` the package's public functions
are wrapped before the command runs and the recorded spans are written to
SPANS.json at exit. The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch")
    parser.add_argument("--usage", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    start = time.monotonic()
    import chanreduce.cli as cli
    import_ms = (time.monotonic() - start) * 1000
    tracer = None
    if opts.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        rc = cli.main(command)
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with open(opts.usage, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "maxrss_kb": usage.ru_maxrss,
                       "cpu_s": usage.ru_utime + usage.ru_stime}, fh)
        if tracer is not None:
            tracer.dump(opts.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
