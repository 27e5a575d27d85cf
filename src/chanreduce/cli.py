"""Command line front end.

Every run gets a directory holding the artifacts needed to reproduce it without
re-evaluating anything: ``resolved.cfg`` (every effective setting, the command
that ran and the directory's format), ``ledger.jsonl`` (one line per trained
evaluation), a descriptor model's ``model.json``, and the command's reports.
``chanreduce replay RUNDIR`` re-renders those reports from the ledger alone;
reports carry no timestamps, so a replay is byte-identical. A rerun into the
same directory answers from the ledger first and trains only what it lacks, so
an interrupted run resumes where it stopped. Before anything is written, one
guard (``_check_target``) refuses a target that is or lies under a file, one
whose ``resolved.cfg`` cannot be read (as a format outside ``OLDEST_FORMAT..FORMAT``)
even if its ledger holds nothing, and one holding records the run would not go on with.

Exit codes: 0 success, 1 runtime failure (reports may be partial), 2 bad
configuration or usage. A SIGINT (Ctrl-C) or SIGTERM ends every trainer, records
no training in flight, leaves ``summary.txt`` saying ``status: interrupted`` and
ends the process by that signal, so a shell loop around it stops too.
"""

from __future__ import annotations

import argparse
import logging
import os
import shlex
import shutil
import signal
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .accounting import count_parameters
from .arch import channel_config, partition_macroblocks, save_descriptor, write_json
from .config import FORMAT, ConfigError, RunConfig
from .lesion import (SWEEP_CONSTANT, SWEEP_MACROBLOCK, SWEEP_PROPORTIONAL, SweepPlan,
                     format_value, run_onehot_sweep, sweep_configs, write_onehot_csv,
                     write_rd_points_csv)
from .oracle import (EvaluationLedger, MissingEvaluationError, RecordingOracle,
                     SurrogateOracle)
from .rdcurve import (build_alpha_curve, build_alpha_plus_backward_curve, check_alphas,
                      export_curve, export_gnuplot)
from .search import backward_reduction, forward_reduction
from .trainer import ExternalTrainerOracle

log = logging.getLogger(__name__)


def main(argv=None) -> int:
    def stop(signum, frame):   # a SIGTERM stops a run as a Ctrl-C does
        raise KeyboardInterrupt(signum)
    parser = _build_parser()
    previous = signal.signal(signal.SIGTERM, stop)
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return 2
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ConfigError, ValueError, MissingEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, ValueError)) else 1
    except KeyboardInterrupt as exc:
        print("interrupted; rerun the command to resume", file=sys.stderr)
        signum = exc.args[0] if exc.args else signal.SIGINT
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return 128 + signum   # not reached: the default action ends the process
    finally:
        signal.signal(signal.SIGTERM, previous)


def _build_parser() -> argparse.ArgumentParser:
    """Each run command is declared once: its help, its body, its pre-flight
    check, and its own flags in the order the run records them."""
    parser = argparse.ArgumentParser(prog="chanreduce",
                                     description="Greedy per-macroblock channel reduction for CNNs.")
    sub = parser.add_subparsers(dest="cmd")
    budget = ("--budget", dict(choices=("search", "final"), default="search",
                               help="training budget used for evaluations"))
    for name, about, body, check, flags in (
        ("reduce", "greedy per-macroblock width reduction", _run_reduce, _check_partition,
         [budget, ("--direction", dict(choices=("backward", "forward"), default="backward"))]),
        ("lesion", "channel lesion sweeps", _run_lesion,
         lambda args, cfg, spec: sweep_configs(spec, _sweep_plan(args, cfg)),
         [("--kind", dict(choices=(SWEEP_CONSTANT, SWEEP_PROPORTIONAL, SWEEP_MACROBLOCK),
                          required=True)),
          ("--values", dict(nargs="+", type=_sweep_value, required=True,
                            help="widths, or scale factors like 11/16 or 0.5")),
          ("--indices", dict(nargs="+", type=int, default=None,
                             help="channel entries to lesion (default: all)")),
          budget]),
        ("rd", "size/accuracy trade-off curves", _run_rd, _check_rd,
         [("--alphas", dict(nargs="+", type=float, default=[1.0, 0.75, 0.5, 0.25])),
          budget, ("--gnuplot", dict(action="store_true", help="also write .dat plot files"))]),
        ("size", "parameter and size accounting", _run_size, None, []),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="run directory (default: "
                       "$CHANREDUCE_RUN_ROOT/<config stem>, else runs/<config stem>)")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=_run, body=body, check=check, flags=[flag for flag, _ in flags],
                       replay_dir=None, cfg=None)

    p = sub.add_parser("replay", help="re-render a run's reports from its ledger")
    p.add_argument("run_dir", help="directory of a previous run")
    p.add_argument("--out", default=None, help="write re-rendered artifacts here instead")
    p.set_defaults(func=cmd_replay)
    return parser


# -- run setup ---------------------------------------------------------------


def _make_oracle(cfg: RunConfig, spec, run_dir: Path, replaying: bool):
    """The run's recorder, on the run's search slots, and its backend's closer.
    The backend trains what the run's ledger lacks; a replay has none."""
    o = cfg.oracle
    kind = None if replaying else o.kind
    ledger = run_dir / "ledger.jsonl"
    inner = closer = None
    if kind == "surrogate":
        inner = SurrogateOracle(spec, cfg.surrogate_params())
    elif kind == "external":
        inner = ExternalTrainerOracle(o.trainer_cmd, spec, parallelism=o.parallelism,
                                      timeout=o.timeout_seconds, protocol=o.protocol,
                                      exchange_dir=o.exchange_dir)
        closer = inner.close
    elif kind == "replay":
        # Only a fresh run reads the source; its directory then replays alone.
        source = Path(o.ledger)
        if not source.exists():
            raise ConfigError(f"replay ledger {o.ledger} does not exist")
        if source.resolve() != ledger.resolve():  # its own ledger needs no backend
            inner = RecordingOracle(None, EvaluationLedger(source), spec)
    return RecordingOracle(inner, EvaluationLedger(ledger), spec,
                           parallel_slots=cfg.search_slots or 1), closer


def _check_target(args, cfg: RunConfig, spec, run_dir: Path) -> None:
    """Refuse ``run_dir`` unless it and every existing directory above it are directories,
    its ``resolved.cfg`` parses (unless this run parsed that file already), and a ledger
    of it holding records goes on with them: by record key (``RunConfig.record_key``)
    for a rerun not over its own ledger, byte for byte for a replay of what it copies."""
    blocker = next((p for p in (run_dir, *run_dir.parents) if os.path.lexists(p)), None)
    if blocker is not None and not blocker.is_dir():
        raise ConfigError(f"cannot make run directory {run_dir}: {blocker} is not a directory")
    old, ledger, o = run_dir / "resolved.cfg", run_dir / "ledger.jsonl", cfg.oracle
    recorded = (RunConfig.from_file(old) if old.exists() and not old.samefile(args.config)
                else None)
    held = ledger.exists() and ledger.stat().st_size > 0
    if args.replay_dir is not None:
        if held and ledger.read_bytes() != (args.replay_dir / "ledger.jsonl").read_bytes():
            raise ConfigError(f"{run_dir} holds another run's evaluations; "
                              f"replay into a fresh --out")
    elif (held and recorded is not None
          and not (o.kind == "replay" and Path(o.ledger).resolve() == ledger.resolve())
          and recorded.record_key() != cfg.record_key(spec)):
        raise ConfigError(f"{run_dir} holds evaluations made for another dataset or with "
                          f"other [oracle] settings; use a fresh --out")


def _run(args) -> int:
    """Set up the run directory, run ``args.body(args, cfg, run_dir, spec, oracle)``
    and write the summary lines it returns with its exit code. Nothing is written
    before the model is built, ``args.check(args, cfg, spec)`` and ``_check_target``
    pass, and a new run's oracle is built. A replay that finds no ledger record for
    an evaluation ends as a failed run; a command without a training budget
    evaluates nothing and gets no oracle."""
    replay_dir = args.replay_dir
    evaluates = "--budget" in args.flags
    cfg = args.cfg or RunConfig.from_file(args.config)   # a replay's is parsed already
    run_dir = Path(args.out or Path(os.environ.get("CHANREDUCE_RUN_ROOT", "runs"),
                                    Path(args.config).stem))
    spec = cfg.build_spec()
    if args.check:
        args.check(args, cfg, spec)
    if replay_dir is None:
        cfg.command, cfg.format = _command_line(args), FORMAT
        if evaluates:
            cfg.search_slots = cfg.oracle.parallelism if cfg.oracle.kind == "external" else 1
        if cfg.model.family == "descriptor":   # the run keeps its model, saved below
            cfg.model.descriptor = "model.json"
    _check_target(args, cfg, spec, run_dir)
    if replay_dir is not None and run_dir.resolve() != replay_dir.resolve():
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in ("resolved.cfg", "ledger.jsonl", "model.json"):
            if (replay_dir / name).exists():
                shutil.copyfile(replay_dir / name, run_dir / name)
    oracle, closer = (_make_oracle(cfg, spec, run_dir, replay_dir is not None)
                      if evaluates else (None, None))
    if replay_dir is None:
        run_dir.mkdir(parents=True, exist_ok=True)
        if cfg.model.family == "descriptor":
            save_descriptor(spec, run_dir / cfg.model.descriptor)
        (run_dir / "resolved.cfg").write_text(cfg.resolved_text(), encoding="utf-8")
    # Even an evaluation-free run leaves a (possibly empty) ledger, so every
    # run directory is replayable.
    (run_dir / "ledger.jsonl").touch(exist_ok=True)
    try:
        code, lines = args.body(args, cfg, run_dir, spec, oracle)
    except MissingEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, lines = 1, ["status: failed", f"error: {exc}"]
    except KeyboardInterrupt:
        (run_dir / "summary.txt").write_text(_summary(cfg, ["status: interrupted"]),
                                             encoding="utf-8")
        raise
    finally:
        if closer:
            closer()
        served = oracle.failures_served if oracle else 0
        if served and replay_dir is None and cfg.oracle.kind != "replay":
            print(f"note: answered {served} failed or timed-out "
                  f"evaluation(s) from {run_dir / 'ledger.jsonl'}; rerun with a fresh "
                  f"--out to train them again", file=sys.stderr)
    (run_dir / "summary.txt").write_text(_summary(cfg, lines), encoding="utf-8")
    return code


def _command_line(args) -> str:
    """The command name, then each set flag with its values; replay parses it back."""
    words = [args.cmd]
    for flag in args.flags:
        value = getattr(args, flag[2:])
        if value is None or value is False:
            continue
        words.append(flag)
        if value is not True:
            words += map(format_value, value if isinstance(value, list) else [value])
    return " ".join(words)


def _summary(cfg: RunConfig, lines: list[str]) -> str:
    return "\n".join([f"command: {cfg.command}", *lines]) + "\n"


def _pick_budget(cfg: RunConfig, which: str):
    return cfg.final_budget() if which == "final" else cfg.search_budget()


def _fmt_widths(widths) -> str:
    return "[" + " ".join(str(w) for w in widths) + "]"


def _check_partition(args, cfg: RunConfig, spec) -> None:
    """The model partitions into macroblocks, the search scope fits them, and the
    oracle reports the search's metric (the surrogate gives top1 only)."""
    blocks = partition_macroblocks(spec).num_blocks
    if cfg.search.scope is not None and cfg.search.scope > blocks:
        raise ConfigError(f"search.scope must be within [1, {blocks}], got {cfg.search.scope}")
    if cfg.oracle.kind == "surrogate" and cfg.search.metric != "top1":
        raise ConfigError(f"the surrogate oracle reports no {cfg.search.metric}; "
                          "set search.metric = top1")


# -- reduce ------------------------------------------------------------------


def _run_reduce(args, cfg, run_dir, spec, oracle) -> tuple[int, list[str]]:
    budget = _pick_budget(cfg, args.budget)
    op = backward_reduction if args.direction == "backward" else forward_reduction
    result = op(spec, None, cfg.search.delta, oracle, budget, cfg.search.scope,
                metric=cfg.search.metric)

    final_record = None
    if cfg.oracle.kind != "surrogate" and result.scope:  # a search on the final budget holds it
        try:
            final_record = ((budget == cfg.final_budget() and result.reduced_record)
                            or oracle.evaluate(result.reduced_config, cfg.final_budget()))
        except MissingEvaluationError:   # under kind = replay: the source never trained it
            if cfg.oracle.kind != "replay":
                raise

    payload = result.to_dict()
    payload["final_evaluation"] = None if final_record is None else final_record.to_dict()
    write_json(run_dir / "reduction.json", payload)

    lines = [f"model: {spec.meta.name} dataset={spec.meta.dataset} "
             f"classes={spec.meta.num_classes}",
             f"oracle: {cfg.oracle.kind}",
             f"delta: {cfg.search.delta!r}  metric: {cfg.search.metric}",
             f"budget: epochs={budget.epochs} milestones={list(budget.lr_milestones)}",
             f"macroblocks: {len(result.betas)}  "
             f"scope: {sorted(result.scope)}"]
    value = result.baseline_record.metric(cfg.search.metric)
    lines.append(f"baseline {cfg.search.metric}: "
                 f"{'unavailable' if value is None else repr(value)}")
    nominal = channel_config(spec)
    for b in sorted(result.scope):
        lines.append(f"block {b}: beta={result.betas[b]!r} "
                     f"{_fmt_widths(nominal.block_channels(b))} -> "
                     f"{_fmt_widths(result.reduced_config.block_channels(b))}")
    base, red = result.base_report, result.reduced_report
    lines.append(f"base: params={base.parameter_count} bytes={base.size_bytes} "
                 f"({base.size_mb:.4f} MB)")
    lines.append(f"reduced: params={red.parameter_count} bytes={red.size_bytes} "
                 f"({red.size_mb:.4f} MB)")
    lines.append(f"saving_percent: {result.saving!r}")
    lines.append(f"oracle_calls: {result.oracle_calls}")
    lines.append(f"probes: {len(result.trace)}")
    for d in result.diagnostics:
        lines.append(f"diagnostic: {d}")
    if final_record is not None:
        value = final_record.metric(cfg.search.metric)
        final = (final_record.status if not final_record.ok
                 else "unavailable" if value is None else repr(value))
        lines.append(f"final {cfg.search.metric} (full budget): {final}")

    verdict = "reduction" if result.scope else f"reduction ({result.diagnostics[0]})"
    print(f"{verdict}: betas {list(result.betas)} -> {run_dir}")
    return 0 if result.scope else 1, lines  # no scope: no usable baseline; diagnostics[0] says why


# -- lesion ------------------------------------------------------------------


def _sweep_value(text: str):
    try:
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse sweep value {text!r}")


def _sweep_plan(args, cfg: RunConfig) -> SweepPlan:
    return SweepPlan(args.kind, tuple(args.values),
                     None if args.indices is None else tuple(args.indices),
                     _pick_budget(cfg, args.budget))


def _run_lesion(args, cfg, run_dir, spec, oracle) -> tuple[int, list[str]]:
    plan = _sweep_plan(args, cfg)
    observations = run_onehot_sweep(spec, plan, oracle)
    if plan.kind == SWEEP_MACROBLOCK:
        noun, csv_name, write = "points", "rd_points.csv", partial(write_rd_points_csv, spec)
    else:
        noun, csv_name, write = "observations", "onehot.csv", write_onehot_csv
    write(observations, run_dir / csv_name)
    failed = sum(1 for o in observations if not o.record.ok)
    print(f"lesion sweep written to {run_dir}")
    lines = [f"model: {spec.meta.name}", f"oracle: {cfg.oracle.kind}",
             f"{noun}: {len(observations)}", f"failed: {failed}", f"csv: {csv_name}"]
    return 1 if observations and failed == len(observations) else 0, lines


# -- rd ----------------------------------------------------------------------


def _check_rd(args, cfg: RunConfig, spec) -> None:
    check_alphas(args.alphas)
    _check_partition(args, cfg, spec)


def _run_rd(args, cfg, run_dir, spec, oracle) -> tuple[int, list[str]]:
    budget = _pick_budget(cfg, args.budget)
    alpha_points = build_alpha_curve(spec, args.alphas, oracle, budget)
    composed_points = build_alpha_plus_backward_curve(
        spec, args.alphas, cfg.search.delta, oracle, budget, cfg.search.scope,
        metric=cfg.search.metric)
    export_curve(alpha_points, run_dir / "alpha_curve.csv")
    export_curve(composed_points, run_dir / "rd_curve.csv")
    if args.gnuplot:
        export_gnuplot(alpha_points, run_dir / "alpha_curve.dat")
        export_gnuplot(composed_points, run_dir / "rd_curve.dat")

    lines = [f"model: {spec.meta.name}", f"oracle: {cfg.oracle.kind}",
             f"delta: {cfg.search.delta!r}  metric: {cfg.search.metric}"]
    for title, points in (("alpha", alpha_points), ("alpha+backward", composed_points)):
        lines.append(f"curve {title}: {len(points)} points")
        for pt in points:
            lines.append(f"  {pt.label}: size_bytes={pt.size_bytes} top1={pt.top1!r}")
    print(f"trade-off curves written to {run_dir}")
    return 1 if not alpha_points and not composed_points else 0, lines


# -- size --------------------------------------------------------------------


def _run_size(args, cfg, run_dir, spec, oracle) -> tuple[int, list[str]]:
    report = count_parameters(spec)
    lines = [f"model: {spec.meta.name} dataset={spec.meta.dataset} "
             f"classes={spec.meta.num_classes}",
             f"parameters: {report.parameter_count}",
             f"buffers: {report.buffer_count}",
             f"size_bytes: {report.size_bytes}",
             f"size_mb: {report.size_mb:.4f}"]
    for b in report.per_block_breakdown:
        lines.append(f"block {b.block_id}: params={b.params} bytes={b.bytes}")
    write_json(run_dir / "size.json", report.to_dict())
    print(_summary(cfg, lines), end="")
    return 0, lines


# -- replay ------------------------------------------------------------------


def cmd_replay(args) -> int:
    run_dir = Path(args.run_dir)
    resolved = run_dir / "resolved.cfg"
    if not resolved.exists():
        raise ConfigError(f"{run_dir} has no resolved.cfg; not a run directory")
    if not (run_dir / "ledger.jsonl").exists():
        raise ConfigError(f"{run_dir} has no ledger.jsonl; nothing to replay from")
    cfg = RunConfig.from_file(resolved)
    if not cfg.command:
        raise ConfigError(f"{resolved} does not record the command that produced it")

    out = Path(args.out) if args.out else run_dir
    argv = shlex.split(cfg.command) + ["--config", str(resolved), "--out", str(out)]
    sub = _build_parser().parse_args(argv)
    sub.replay_dir, sub.cfg = run_dir, cfg
    return sub.func(sub)


if __name__ == "__main__":
    sys.exit(main())
