"""chanreduce benchmark: drives the real CLI from outside on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; chanreduce is imported from ``src/`` and
nothing needs building. Each run writes its inputs into a fresh directory under
``.bench_work/``, checks every result against an in-process reference and
removes the directory at the end. The workloads, metrics and the layer each
metric belongs to are described in ``bench/README.md`` and ``BENCHMARK.json``.

A run repeats ``chanreduce size`` on the workload's config (``setup_s``), the
workload's command and a ``replay`` of its run directory until ``--seconds``
have passed. Timings report the fastest repetition, everything else the
median. Set-up is timed once per repetition rather than in a burst, so that it
samples the whole run as the others do. With ``--trace 1`` every other repetition
runs with the package's public functions wrapped (see ``tracing.py``) and the
result carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
An operation is an evaluation or a command invocation; it fails when the
command exits non-zero, the evaluation is not ``ok``, or the gate rejects it.
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
from dataclasses import dataclass
from pathlib import Path

from metrics import (Spans, critical_path, inflight_mean, percentile, rd_duplicates,
                     request_gaps, search_self, slot_utilization, trainer_samples)
from stub_trainer import LOG_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 30
DEADLINE_S = 60        # no repetition starts later, so a run ends within 180 s
PROBE_REPEATS = 5
PROBE_ALPHAS = (1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125)

# Timings are summarized by their minimum over a run's repetitions. On the
# 2-vCPU shared virtual machine the baseline was measured on, CPU speed changes
# by up to 1.8x for seconds to minutes at a time; over 20-second windows of the
# deep workload's rd, the median spread 46% from window to window, the lower
# quartile 29% and the minimum 12%.
TIMINGS = ("wall_s", "setup_s", "replay_s")

# Per-call timings that come from the workload's own calls when it makes any,
# and otherwise from calling the function directly on the workload's model.
PER_CALL = ("arch.apply_macroblock_scale", "arch.with_config", "arch.partition_macroblocks",
            "accounting.count_parameters")


def child_env(**extra) -> dict:
    """Environment of every chanreduce and stub process: sources from this
    checkout, and bytecode cached as an installed package would have it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    path = [str(SRC), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(env, PYTHONPATH=os.pathsep.join(path), **extra)


@dataclass
class Launch:
    rc: int
    wall: float
    usage: dict
    spans: list | None
    stub: list
    log: Path


def read_jsonl(path: Path) -> list:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_stub_log(directory: Path) -> list:
    return [r for p in sorted(directory.glob("stub-*.jsonl")) for r in read_jsonl(p)]


def launch(argv, cwd: Path, scratch: Path, traced: bool = False) -> Launch:
    """Run one chanreduce command through launch.py; time it from outside."""
    stub_dir = scratch / "stub"
    stub_dir.mkdir(parents=True)
    usage, spans, log = scratch / "usage.json", scratch / "spans.json", scratch / "output.log"
    cmd = [sys.executable, str(BENCH / "launch.py"), "--usage", str(usage)]
    if traced:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *argv]
    with log.open("wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(**{LOG_ENV: str(stub_dir)}),
                                stdout=out, stderr=subprocess.STDOUT)
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would quantize every timing.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    return Launch(rc, wall, json.loads(usage.read_text()) if usage.exists() else {},
                  json.loads(spans.read_text()) if traced and spans.exists() else None,
                  read_stub_log(stub_dir), log)


# -- correctness gate ----------------------------------------------------------


def artifacts(directory: Path) -> dict:
    return ({p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}
            if directory.is_dir() else {})


def gate(w, expect, cmd: Launch, replay: Launch, ledger: list, run_dir: Path,
         replay_dir: Path):
    """Check one command and its replay. Returns (attempted, failed, problems)."""
    from workloads import record_key

    keys = [record_key(r["config_digest"], r["budget"]) for r in ledger]
    bad = sum(1 for r, k in zip(ledger, keys)
              if r["status"] != "ok" or expect.top1.get(k) != r["top1"])
    problems = [f"{bad} evaluations not ok or off the reference accuracy"] if bad else []

    cmd_problems = [] if cmd.rc == 0 else [f"exit code {cmd.rc} (see {cmd.log})"]
    if len(ledger) != expect.evals:
        cmd_problems.append(f"{len(ledger)} evaluations, expected {expect.evals}")
    if len(set(keys)) != expect.unique_evals:
        cmd_problems.append(f"{len(set(keys))} unique evaluations, "
                            f"expected {expect.unique_evals}")
    if w.pipe and len(cmd.stub) != len(ledger):
        cmd_problems.append(f"stub saw {len(cmd.stub)} requests, ledger has {len(ledger)}")
    produced = artifacts(run_dir)
    for name, data in expect.files.items():
        if produced.get(name) != data:
            cmd_problems.append(f"{name} differs from the in-process reference")
    if expect.reduction is not None:
        try:
            got = json.loads(produced.get("reduction.json", b"null"))
            got = {k: got[k] for k in expect.reduction}
        except (TypeError, KeyError, ValueError):
            got = None
        if got != expect.reduction:
            cmd_problems.append("betas or reduced vector differ from the in-process reference")

    replay_problems = [] if replay.rc == 0 else [f"replay exit code {replay.rc} "
                                                 f"(see {replay.log})"]
    if artifacts(replay_dir) != produced:
        replay_problems.append("replay artifacts are not byte-identical")
    problems += cmd_problems + replay_problems
    return len(ledger) + 2, bad + bool(cmd_problems) + bool(replay_problems), problems


# -- one repetition --------------------------------------------------------------


@dataclass
class Iteration:
    setup: Launch
    cmd: Launch
    replay: Launch
    ledger: list
    attempted: int
    failed: int
    problems: list


def size(directory: Path, cwd: Path) -> Launch:
    from workloads import CONFIG_NAME

    return launch(["size", "--config", CONFIG_NAME, "--out", str(directory / "run")], cwd,
                  directory / "launch")


def iteration(w, expect, directory: Path, traced: bool) -> Iteration:
    run_dir, replay_dir = directory / "run", directory / "replay"
    setup = size(directory / "size", w.dir)
    cmd = launch([*w.argv, "--out", str(run_dir)], w.dir, directory / "cmd", traced)
    replay = launch(["replay", str(run_dir), "--out", str(replay_dir)], w.dir,
                    directory / "replay-launch", traced)
    ledger = read_jsonl(run_dir / "ledger.jsonl")
    attempted, failed, problems = gate(w, expect, cmd, replay, ledger, run_dir, replay_dir)
    if setup.rc != 0:
        failed += 1
        problems.append(f"size exit code {setup.rc} (see {setup.log})")
    return Iteration(setup, cmd, replay, ledger, attempted + 1, failed, problems)


def end_to_end(w, it: Iteration) -> dict:
    from workloads import PARALLELISM, record_key

    intervals = [(r["arrive"], r["reply"]) for r in it.cmd.stub]
    unique = len({record_key(r["config_digest"], r["budget"]) for r in it.ledger})
    if w.pipe:
        evals = len(it.cmd.stub)
        rounds = critical_path(intervals)
        util = slot_utilization(intervals, PARALLELISM) if intervals else 0.0
    else:
        # The in-process surrogate answers inside the calling thread, one
        # evaluation at a time: every evaluation is its own round, and the
        # only busy slot is the chanreduce process itself.
        evals = rounds = len(it.ledger)
        util = it.cmd.usage.get("cpu_s", 0.0) / (PARALLELISM * it.cmd.wall)
    return {"wall_s": it.cmd.wall, "setup_s": it.setup.wall, "replay_s": it.replay.wall,
            "evals": evals, "unique_evals": unique, "rounds": rounds, "slot_util": util,
            "peak_rss_mb": it.cmd.usage.get("maxrss_kb", 0) / 1024}


# -- per-layer metrics -------------------------------------------------------------


def probe(w, missing: set, scratch: Path):
    """Time layers the workload's commands never reach by calling them directly
    on the workload's model, under the same wrappers. Returns (spans, stub log)."""
    import chanreduce as cr
    import tracing
    from workloads import PARALLELISM

    tracer = tracing.Tracer()
    tracing.install(tracer)
    spec = cr.RunConfig.from_file(w.config).build_spec()
    nominal, partition = cr.channel_config(spec), cr.partition_macroblocks(spec)
    for _ in range(PROBE_REPEATS):
        if "arch.apply_macroblock_scale" in missing:
            for b in range(partition.num_blocks):
                cr.arch.apply_macroblock_scale(nominal, partition, b, 0.75)
        if "arch.with_config" in missing:
            cr.arch.with_config(spec, nominal)
        if "accounting.count_parameters" in missing:
            cr.accounting.count_parameters(spec)
    if "search" in missing:
        params = cr.SurrogateParams(frontiers=w.frontiers, weights=w.weights)
        cr.search.backward_reduction(spec, partition, 0.01, cr.SurrogateOracle(spec, params),
                                     cr.SEARCH_BUDGET, scope=1)
    stub_dir = scratch / "stub"
    stub_dir.mkdir(parents=True)
    if "trainer" in missing:
        # ExternalTrainerOracle starts its workers with this process's environment.
        os.environ.update(child_env(**{LOG_ENV: str(stub_dir)}))
        oracle = cr.trainer.ExternalTrainerOracle(w.stub_argv(str(w.config)), spec,
                                                  parallelism=PARALLELISM, timeout=30.0)
        try:
            for alpha in PROBE_ALPHAS:
                oracle.evaluate(cr.apply_alpha_scaling(nominal, alpha), cr.SEARCH_BUDGET)
        finally:
            oracle.close()
    return tracer.spans, read_stub_log(stub_dir)


def per_layer(w, traced: list, untraced: list, scratch: Path) -> dict:
    """Per-layer metrics from the traced repetitions; ``untraced`` holds the
    end-to-end rows of the others."""
    n = len(traced)
    cmds = [Spans(it.cmd.spans or []) for it in traced]
    replays = [Spans(it.replay.spans or []) for it in traced]
    stub = [r for it in traced for r in it.cmd.stub]

    def pooled(spans_list, name):
        """(calls, summed ns) over all traced repetitions."""
        totals = [s.total(name) for s in spans_list]
        return sum(c for c, _ in totals), sum(t for _, t in totals)

    calls = {name: pooled(cmds, name) for name in PER_CALL}
    searches = [search_self(s) for s in cmds]
    probes = sum(p for p, _ in searches)
    samples = [trainer_samples(s, it.cmd.stub) for s, it in zip(cmds, traced)]
    trainer = {k: [x for smp in samples for x in smp[k]] for k in ("bridge", "wait", "spawn")}
    gaps = [g for it in traced for g in request_gaps(it.cmd.stub)]

    # Timed samples: the workload's own calls, or a probe where it makes none.
    timed = dict(calls)
    timed_search = (probes, sum(t for _, t in searches))
    missing = {name for name, (c, _) in calls.items() if c == 0}
    missing |= {"search"} if probes == 0 else set()
    missing |= {"trainer"} if not trainer["bridge"] else set()
    if missing:
        spans, probe_stub = probe(w, missing, scratch)
        probed = Spans(spans)
        timed.update({name: probed.total(name) for name in missing & set(PER_CALL)})
        if "search" in missing:
            timed_search = search_self(probed)
        if "trainer" in missing:
            smp = trainer_samples(probed, probe_stub)
            trainer = {k: smp[k] for k in ("bridge", "wait", "spawn")}
            gaps = request_gaps(probe_stub)

    out = {"cli.import_ms": statistics.median(it.cmd.usage["import_ms"] for it in traced),
           "config.load_ms": statistics.median(
               (s.total("config.from_file")[1] + s.total("config.build_spec")[1]) / 1e6
               for s in cmds)}
    for name in PER_CALL:
        out[f"{name}_us"] = timed[name][1] / timed[name][0] / 1e3
        out[f"{name}_calls"] = calls[name][0] / n
    evaluations = sum(len(s.named("oracle.record")) for s in cmds)
    digests, digest_ns = pooled(cmds, "oracle.config_digest")
    out["oracle.config_digest_us"] = digest_ns / digests / 1e3
    out["oracle.config_digest_calls"] = digests / evaluations
    if w.pipe:
        out["oracle.surrogate_evaluate_us"] = statistics.fmean(r["compute_ns"] for r in stub) / 1e3
    else:
        c, t = pooled(cmds, "oracle.surrogate_evaluate")
        out["oracle.surrogate_evaluate_us"] = t / c / 1e3
    c, t = pooled(cmds, "oracle.ledger_append")
    out["oracle.ledger_append_us"] = t / c / 1e3
    loads = [x for s in replays for x in s.named("oracle.ledger_load")]
    out["oracle.ledger_load_us_per_record"] = (sum(x[4] - x[3] for x in loads) / 1e3
                                               / sum(x[6]["records"] for x in loads))
    c, t = pooled(replays, "oracle.ledger_lookup")
    out["oracle.ledger_lookup_us"] = t / c / 1e3
    out["search.probes"] = probes / n
    out["search.self_ms_per_probe"] = timed_search[1] / timed_search[0] / 1e6
    out["rdcurve.dup_evals"] = sum(rd_duplicates(s) for s in cmds) / n
    out["lesion.inflight_mean"] = statistics.median(
        inflight_mean([(x[3], x[4]) for x in s.named("oracle.record")]) for s in cmds)
    out["trainer.requests"] = sum(smp["requests"] for smp in samples) / n
    out["trainer.dispatch_wait_ms"] = statistics.fmean(trainer["wait"]) / 1e6
    out["trainer.bridge_us_p50"] = percentile(trainer["bridge"], 0.5) / 1e3
    out["trainer.bridge_us_p99"] = percentile(trainer["bridge"], 0.99) / 1e3
    out["trainer.gap_ms_p50"] = percentile(gaps, 0.5) / 1e6
    out["trainer.gap_ms_p99"] = percentile(gaps, 0.99) / 1e6
    out["trainer.spawn_ms"] = statistics.fmean(trainer["spawn"]) / 1e6
    out["trainer.failed"] = sum(smp["failed"] for smp in samples) / n
    out["replay_s"] = min(r["replay_s"] for r in untraced)
    out["trace.overhead_s"] = min(it.cmd.wall for it in traced) - min(r["wall_s"] for r in untraced)
    return out


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chanreduce" / "__init__.py").is_file():
        print(f"error: no chanreduce sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        values, attempted, failed, problems = run(workloads, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark did not measure {missing}")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in result.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def run(workloads, args, work: Path):
    w = workloads.generate(args.workload, args.seed, work / "inputs")
    expect = workloads.reference(w, work / "reference")
    warmup = size(work / "warmup", w.dir)  # fills the bytecode cache; not timed
    attempted, failed = 1, int(warmup.rc != 0)
    problems = [f"size exit code {warmup.rc} (see {warmup.log})"] if failed else []

    rows, traced = [], []
    start, i = time.monotonic(), 0
    while (time.monotonic() - start < min(args.seconds, DEADLINE_S)
           or i < MIN_ITERATIONS and time.monotonic() - start < DEADLINE_S):
        is_traced = bool(args.trace) and i % 2 == 1
        it = iteration(w, expect, work / f"it{i}", is_traced)
        attempted, failed = attempted + it.attempted, failed + it.failed
        problems += it.problems
        if is_traced:
            traced.append(it)
        else:
            rows.append(end_to_end(w, it))
        shutil.rmtree(work / f"it{i}", ignore_errors=True)
        i += 1

    if args.trace:
        values = per_layer(w, traced, rows, work / "probe")
    else:
        values = {k: (min if k in TIMINGS else statistics.median)(r[k] for r in rows)
                  for k in rows[0]}
        values["ok_frac"] = 1 - failed / attempted
    return values, attempted, failed, problems


if __name__ == "__main__":
    sys.exit(main())
