"""Deterministic stub trainer: the chanreduce surrogate behind the ``pipe``
line protocol, answering every request after a fixed latency.

    python3 -m bench.stub_trainer --config RUN.cfg --latency-ms 50 \\
        --frontiers 0.95,0.85,0.55 --weights 4,4,4

The nominal model comes from the run configuration chanreduce itself was given,
so the stub scores exactly the widths the tool searches; the surrogate's
frontiers and weights come from the arguments. A reply leaves ``latency-ms``
after its request arrived, whatever the surrogate cost.

When ``$BENCH_STUB_LOG`` names a directory, every request appends one line
``{"pid", "run_id", "arrive", "reply", "compute_ns"}`` to
``stub-<pid>.jsonl`` there, with CLOCK_MONOTONIC nanoseconds. The line is
flushed before the reply is written, so it survives chanreduce killing the
worker as soon as the last reply is in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

LOG_ENV = "BENCH_STUB_LOG"


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stub_trainer")
    parser.add_argument("--config", required=True, help="chanreduce run configuration")
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--frontiers", required=True, help="comma-separated floats")
    parser.add_argument("--weights", required=True, help="comma-separated floats")
    args = parser.parse_args(argv)

    import chanreduce as cr

    spec = cr.RunConfig.from_file(args.config).build_spec()
    partition = cr.partition_macroblocks(spec)
    params = cr.SurrogateParams(frontiers=_floats(args.frontiers),
                                weights=_floats(args.weights))
    latency_ns = round(args.latency_ms * 1e6)
    log_dir = os.environ.get(LOG_ENV)
    log = (open(os.path.join(log_dir, f"stub-{os.getpid()}.jsonl"), "a", encoding="utf-8")
           if log_dir else None)
    try:
        for line in sys.stdin:
            arrive = now_ns()
            request = json.loads(line)
            config = cr.ChannelConfig(tuple(request["channels"]),
                                      tuple(request["macroblock_starts"]))
            top1 = cr.surrogate_accuracy(config, partition, params)
            compute_ns = now_ns() - arrive
            remaining = arrive + latency_ns - now_ns()
            if remaining > 0:
                time.sleep(remaining / 1e9)
            reply = now_ns()
            if log is not None:
                log.write(json.dumps({"pid": os.getpid(), "run_id": request["run_id"],
                                      "arrive": arrive, "reply": reply,
                                      "compute_ns": compute_ns}) + "\n")
                log.flush()
            sys.stdout.write(json.dumps({"run_id": request["run_id"], "status": "ok",
                                         "top1": top1, "top5": None,
                                         "wall_seconds": args.latency_ms / 1000}) + "\n")
            sys.stdout.flush()
    finally:
        if log is not None:
            log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
