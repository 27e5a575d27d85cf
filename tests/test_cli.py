"""End-to-end command line runs, artifact layout, and byte-exact replay."""

from __future__ import annotations

import configparser
import contextlib
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import chanreduce as cr
from chanreduce import cli
from chanreduce.config import FORMAT, OLDEST_FORMAT

from conftest import CountingOracle, FailingOracle

ARTIFACTS = ("resolved.cfg", "ledger.jsonl", "reduction.json", "summary.txt")


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_cfg(tmp_path, text="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def snapshot(directory):
    """Every file of ``directory``: {name: bytes}."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def assert_replays(out, code=0, in_place=False):
    """Replay run directory ``out`` into a fresh directory, or in place, and
    check that the replay exits ``code`` and leaves the same file names with
    the same bytes as ``out`` held before it."""
    before = snapshot(out)
    replayed = out if in_place else out.with_name(out.name + "-replayed")
    assert run("replay", out, *([] if in_place else ["--out", replayed])) == code
    assert snapshot(replayed) == before


def src_env():
    """This environment with chanreduce's source first on PYTHONPATH."""
    src = str(Path(cr.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# A trainer for both protocols, run as `trainer.py STATE` (pipe: requests on
# stdin) or `trainer.py STATE REQUEST RESPONSE` (files). It marks each answer in
# STATE/answered. Once two answers are marked and while STATE/release is
# missing, it holds each request until that file appears, marked by a file in
# STATE/held that holds the trainer's pid.
# While STATE/reorder exists, an answer depends on when it is given: top1 drops
# by 1e-6 for each answer marked before it. The run's first request (run id
# ending in -0001) waits for another answer (at most 1 s), and 50 ms more, so a
# later request is recorded before it.
TRAINER = """\
import json, os, sys, time
state = sys.argv[1]
def answer(line):
    req = json.loads(line)
    release = os.path.join(state, "release")
    answered = os.path.join(state, "answered")
    if not os.path.exists(release) and len(os.listdir(answered)) >= 2:
        with open(os.path.join(state, req["run_id"]), "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(os.path.join(state, req["run_id"]), os.path.join(state, "held", req["run_id"]))
        while not os.path.exists(release):
            time.sleep(0.01)
    top1 = 0.9 * min(1.0, sum(req["channels"]) / 200)
    if os.path.exists(os.path.join(state, "reorder")):
        if req["run_id"].endswith("-0001"):
            deadline = time.monotonic() + 1
            while not os.listdir(answered) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
        top1 -= 1e-6 * len(os.listdir(answered))
    open(os.path.join(answered, req["run_id"]), "w").close()
    return json.dumps({"run_id": req["run_id"], "status": "ok", "top1": top1,
                       "wall_seconds": 1.0})
if len(sys.argv) == 4:
    with open(sys.argv[2], encoding="utf-8") as fh:
        reply = answer(fh.read())
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        fh.write(reply + "\\n")
else:
    for line in sys.stdin:
        print(answer(line), flush=True)
"""


def trainer_cfg(tmp_path, protocol, parallelism):
    """Config of a depth-8 model trained by TRAINER over ``protocol`` on
    ``parallelism`` slots, and the trainer's STATE directory."""
    state = tmp_path / "state"
    (state / "answered").mkdir(parents=True)
    (state / "held").mkdir()
    script = tmp_path / "trainer.py"
    script.write_text(TRAINER)
    return write_cfg(tmp_path, f"""\
        [model]
        depth = 8
        block_widths = 8, 16
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script} {state}
        protocol = {protocol}
        exchange_dir = {tmp_path / "exchange"}
        parallelism = {parallelism}
        timeout_seconds = 60
        """), state


def test_reduce_defaults(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0

    for name in ARTIFACTS:
        assert (out / name).exists()
    payload = json.loads((out / "reduction.json").read_text())
    assert payload["betas"] == [0.9375, 0.84375, 0.515625]
    assert payload["final_evaluation"] is None
    assert payload["saving_percent"] == pytest.approx(60.2284, abs=5e-3)
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 13

    summary = (out / "summary.txt").read_text()
    assert "command: reduce --budget search --direction backward" in summary
    assert "oracle: surrogate" in summary
    assert "delta: 0.01  metric: top1" in summary
    assert "budget: epochs=20 milestones=[8, 16]" in summary
    assert "baseline top1: 0.91" in summary
    assert "block 2: beta=0.515625 [64 64 64 64 64] -> [33 33 33 33 33]" in summary
    assert "oracle_calls: 13" in summary
    assert "betas [0.9375, 0.84375, 0.515625]" in capsys.readouterr().out


def test_reduce_forward_direction(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out, "--direction", "forward") == 0
    payload = json.loads((out / "reduction.json").read_text())
    widths = payload["reduced_config"]["channels"]
    assert widths == [3] + [15] * 5 + [26] * 5 + [34] * 5
    assert "--direction forward" in (out / "summary.txt").read_text()


def test_reduce_overrides_recorded_and_replayed(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [search]
        delta = 0.5
        scope = 1
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = (out / "resolved.cfg").read_text()
    assert "delta = 0.5" in resolved
    assert "scope = 1" in resolved
    payload = json.loads((out / "reduction.json").read_text())
    assert payload["scope"] == [2]
    assert payload["betas"][:2] == [1.0, 1.0]
    assert_replays(out)


def test_replay_reduce_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert_replays(out)


def test_reduce_summary_counts_calls_and_probes(tmp_path):
    # One block of width 10 with its knee at 8 probes widths 8, 7, 7; the
    # repeated 7 is answered without a second oracle call.
    cfg = write_cfg(tmp_path, """\
        [model]
        depth = 1
        block_widths = 10
        [oracle]
        frontiers = 0.8
        weights = 2000
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert "oracle_calls: 3\nprobes: 4\n" in (out / "summary.txt").read_text()
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 3
    assert_replays(out)


def test_replay_in_place(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert_replays(out, in_place=True)


CORPUS = Path(__file__).parent / "data" / "runs"


def recorded_format(run_dir) -> int:
    """The format ``run_dir`` records; a resolved.cfg without the key is format 1."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string((run_dir / "resolved.cfg").read_text())
    return parser.getint("run", "format", fallback=1)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.iterdir() if p.is_dir()))
def test_a_recorded_run_directory_replays(tmp_path, caplog, name):
    # Directories recorded by older code (tests/data/runs/record.py, trainer
    # noise that differs per request) replay byte for byte with this code, if
    # it reads their format, and are refused and left as they are otherwise.
    # The replay reads a copy, so the checked-in data is never written. A
    # recorded resolved.cfg warns about no key, also one its run did not read.
    out = tmp_path / name
    shutil.copytree(CORPUS / name, out)
    if OLDEST_FORMAT <= recorded_format(out) <= FORMAT:
        with caplog.at_level("WARNING", logger="chanreduce.config"):
            assert_replays(out)
        assert [r for r in caplog.records if r.name == "chanreduce.config"] == []
    else:   # replay, in place or into a fresh --out, exits 2 and writes nothing
        before, replayed = snapshot(out), tmp_path / "replayed"
        assert run("replay", out, "--out", replayed) == 2
        assert run("replay", out) == 2
        assert snapshot(out) == before and not replayed.exists()


def test_a_replay_missing_the_final_evaluation_fails(tmp_path, capsys):
    # The search is answered from the ledger, but the reduced configuration's
    # final-budget record is gone: the replay stops there and says why.
    source, out = tmp_path / "run", tmp_path / "replayed"
    shutil.copytree(CORPUS / "f3-s1-reduce-search", source)
    ledger = source / "ledger.jsonl"
    lines = ledger.read_text().splitlines(keepends=True)
    ledger.write_text("".join(line for line in lines if '"epochs":90' not in line))
    assert len(ledger.read_text().splitlines()) == len(lines) - 1
    capsys.readouterr()
    assert run("replay", source, "--out", out) == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("error: missing evaluation for digest ")
    assert (out / "summary.txt").read_text() == (
        f"command: reduce --budget search --direction backward\nstatus: failed\n{error}\n")
    assert not (out / "reduction.json").exists()


@pytest.mark.parametrize("path", ["replay", "replay-out", "rerun-own-config",
                                  "rerun-other-config", "rerun-replaying-own-ledger"])
@pytest.mark.parametrize("value", [str(FORMAT + 1), "0", "two"])
def test_a_run_directory_of_a_format_this_code_does_not_read_is_refused(tmp_path, capsys,
                                                                        value, path):
    # Every path that reads a run directory's resolved.cfg refuses a format
    # outside the readable ones, names it and writes nothing.
    out = tmp_path / "run"
    shutil.copytree(CORPUS / f"f{FORMAT}-s1-reduce-search", out)
    resolved = out / "resolved.cfg"
    text = resolved.read_text()
    resolved.write_text(text.replace(f"\nformat = {FORMAT}\n", f"\nformat = {value}\n"))
    settings = text.split("[run]")[0]   # the recorded settings, in another file
    replaying = (settings.split("[oracle]")[0]
                 + f"[oracle]\nkind = replay\nledger = {out}/ledger.jsonl\n")
    fresh = tmp_path / "fresh"
    reduce = ["reduce", "--budget", "search", "--out", out, "--config"]
    argv = {"replay": ["replay", out],
            "replay-out": ["replay", out, "--out", fresh],
            "rerun-own-config": [*reduce, resolved],
            "rerun-other-config": [*reduce, write_cfg(tmp_path, settings)],
            "rerun-replaying-own-ledger": [*reduce, write_cfg(tmp_path, replaying)]}[path]
    before = snapshot(out)
    capsys.readouterr()
    assert run(*argv) == 2
    expected = (f"within [{OLDEST_FORMAT}, {FORMAT}], got {value}" if value.isdigit()
                else f"an integer, got {value!r}")
    assert f"error: run.format must be {expected} (in {resolved})" in capsys.readouterr().err
    assert snapshot(out) == before and not fresh.exists()


SMALL = "[model]\ndepth = 2\nblock_widths = 8, 16\n"
RUNS = ["reduce", "lesion --kind constant --values 4", "rd", "size"]


def evaluation_free_target(tmp_path, kind):
    """A run directory whose ledger holds no record: a ``size`` run's, or a
    ``reduce`` run's with its ledger emptied."""
    out = tmp_path / kind
    assert run(kind, "--config", write_cfg(tmp_path, SMALL, name=f"{kind}.cfg"),
               "--out", out) == 0
    (out / "ledger.jsonl").write_text("")
    return out


@pytest.mark.parametrize("command", [*RUNS, "replay"])
@pytest.mark.parametrize("value", [str(FORMAT + 1), "0", "two", "junk"])
@pytest.mark.parametrize("target", ["size", "reduce"])
def test_a_directory_without_records_is_refused_if_its_resolved_cfg_cannot_be_read(
        tmp_path, capsys, target, value, command):
    # The guard reads the target's resolved.cfg whatever its ledger holds, so a
    # run of another config, or a replay of another run into it, exits 2 and
    # leaves it as it was.
    out = evaluation_free_target(tmp_path, target)
    resolved = out / "resolved.cfg"
    text = resolved.read_text()
    resolved.write_text("junk\n" if value == "junk"
                        else text.replace(f"\nformat = {FORMAT}\n", f"\nformat = {value}\n"))
    source = tmp_path / "source"
    shutil.copytree(CORPUS / f"f{FORMAT}-s1-reduce-search", source)
    other = write_cfg(tmp_path, "[model]\ndepth = 6\nblock_widths = 8, 16\ndataset = svhn\n")
    argv = (["replay", source] if command == "replay"
            else [*command.split(), "--config", other])
    before = snapshot(out)
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    expected = (f"cannot parse {resolved}" if value == "junk"
                else f"run.format must be within [{OLDEST_FORMAT}, {FORMAT}], got {value} "
                f"(in {resolved})" if value.isdigit()
                else f"run.format must be an integer, got {value!r} (in {resolved})")
    assert f"error: {expected}" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("target", ["size", "reduce"])
def test_a_directory_without_records_takes_a_rerun_for_another_dataset(tmp_path, target):
    # Its ledger holds nothing to protect, so only a readable resolved.cfg is asked of it.
    out = evaluation_free_target(tmp_path, target)
    other = write_cfg(tmp_path, SMALL + "dataset = svhn\n")
    assert run(target, "--config", other, "--out", out) == 0
    assert "dataset = svhn\n" in (out / "resolved.cfg").read_text()


def test_a_rerun_from_its_own_resolved_cfg_resumes(tmp_path, monkeypatch):
    whole, out = tmp_path / "whole", tmp_path / "out"
    for d in (whole, out):
        assert run("reduce", "--config", write_cfg(tmp_path), "--out", d) == 0
    ledger = out / "ledger.jsonl"
    ledger.write_text("".join(ledger.read_text().splitlines(keepends=True)[:5]))
    made = _counting_surrogates(monkeypatch)
    assert run("reduce", "--config", out / "resolved.cfg", "--out", out) == 0
    assert made[0].calls == 13 - 5
    assert snapshot(out) == snapshot(whole)


@pytest.mark.parametrize("command", RUNS)
def test_a_run_records_the_format_it_writes(tmp_path, command):
    out = tmp_path / "out"
    assert run(*command.split(), "--config", write_cfg(tmp_path), "--out", out) == 0
    assert recorded_format(out) == FORMAT


def test_replay_missing_evaluation_fails(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    ledger = out / "ledger.jsonl"
    lines = ledger.read_text().splitlines()
    ledger.write_text("\n".join(lines[:-1]) + "\n")

    replayed = tmp_path / "replayed"
    assert run("replay", out, "--out", replayed) == 1
    summary = (replayed / "summary.txt").read_text()
    assert "status: failed" in summary
    assert "error:" in summary


def test_replay_rejects_non_run_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("replay", empty) == 2


def test_replay_refuses_a_run_directory_missing_its_ledger_or_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("size", "--config", write_cfg(tmp_path), "--out", out) == 0
    (out / "ledger.jsonl").unlink()
    capsys.readouterr()
    assert run("replay", out, "--out", tmp_path / "a") == 2
    assert f"{out} has no ledger.jsonl; nothing to replay from" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()

    (out / "ledger.jsonl").touch()
    resolved = out / "resolved.cfg"
    resolved.write_text(resolved.read_text().replace("command = size\n", ""))
    assert run("replay", out, "--out", tmp_path / "b") == 2
    assert f"{resolved} does not record the command" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_replay_into_a_directory_holding_another_runs_ledger_is_refused(tmp_path, capsys):
    # Each ledger line stands for a training; a replay into another directory
    # may overwrite only a copy of the ledger it replays.
    cfg = write_cfg(tmp_path)
    source, other = tmp_path / "source", tmp_path / "other"
    assert run("reduce", "--config", cfg, "--out", source) == 0
    assert run("lesion", "--config", cfg, "--out", other,
               "--kind", "proportional", "--values", "1/2") == 0
    assert len((other / "ledger.jsonl").read_text().splitlines()) == 15
    before = snapshot(other)
    capsys.readouterr()
    assert run("replay", source, "--out", other) == 2
    assert f"{other} holds another run's evaluations" in capsys.readouterr().err
    assert snapshot(other) == before

    replayed = tmp_path / "replayed"
    for _ in range(2):   # the second replay finds a copy of its own ledger
        assert run("replay", source, "--out", replayed) == 0
        assert snapshot(replayed) == snapshot(source)


def test_lesion_constant(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("lesion", "--config", cfg, "--out", out,
               "--kind", "constant", "--values", "4", "8",
               "--indices", "1", "11") == 0
    rows = (out / "onehot.csv").read_text().splitlines()
    assert rows[0] == "index,parameter,top1,status"
    assert len(rows) == 5
    assert rows[1].startswith("1,4,")
    assert rows[3].startswith("11,4,")
    summary = (out / "summary.txt").read_text()
    assert "observations: 4" in summary
    assert "failed: 0" in summary


def test_lesion_proportional_fraction_values(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("lesion", "--config", cfg, "--out", out,
               "--kind", "proportional", "--values", "1/2", "11/16",
               "--indices", "2") == 0
    rows = (out / "onehot.csv").read_text().splitlines()
    assert rows[1].startswith("2,1/2,")
    assert rows[2].startswith("2,11/16,")


# A run records its command with every flag the command takes, defaults
# included, in one fixed order; replay parses that line back.
@pytest.mark.parametrize("argv,command", [
    ("lesion --kind proportional --values 0.5",
     "lesion --kind proportional --values 0.5 --budget search"),
    ("reduce --direction forward --budget final", "reduce --budget final --direction forward"),
    ("lesion --kind constant --values 4 8 --indices 1 3 5",
     "lesion --kind constant --values 4 8 --indices 1 3 5 --budget search"),
    ("lesion --kind proportional --values 1/2 0.75 2/8",
     "lesion --kind proportional --values 1/2 0.75 1/4 --budget search"),
    ("rd --alphas 1 0.5 --gnuplot", "rd --alphas 1.0 0.5 --budget search --gnuplot"),
    ("rd --alphas 3/4 1/2", "rd --alphas 0.75 0.5 --budget search"),
    ("rd", "rd --alphas 1.0 0.75 0.5 0.25 --budget search"),
    ("size", "size"),
    ("lesion --kind macroblock_scale --values 1/2 3/4",
     "lesion --kind macroblock_scale --values 1/2 3/4 --budget search"),
], ids=["lesion-decimal", "reduce-forward-final", "lesion-constant-indices",
        "lesion-fractions", "rd-gnuplot", "rd-fractions", "rd-defaults", "size",
        "lesion-macroblock"])
def test_lesion_records_a_decimal_value_as_given(tmp_path, argv, command):
    cfg = write_cfg(tmp_path, "[model]\ndepth = 8\nblock_widths = 8, 16\n")
    out = tmp_path / "out"
    assert run(*argv.split(), "--config", cfg, "--out", out) == 0
    assert (out / "summary.txt").read_text().splitlines()[0] == f"command: {command}"
    assert f"command = {command}\n" in (out / "resolved.cfg").read_text()
    assert_replays(out)


def test_lesion_macroblock(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("lesion", "--config", cfg, "--out", out,
               "--kind", "macroblock_scale", "--values", "1/2", "1") == 0
    rows = (out / "rd_points.csv").read_text().splitlines()
    assert rows[0] == "block_id,k,params,size_bytes,top1"
    assert len(rows) == 7


# The macroblock sweep of d15 through the surrogate, pinned byte for byte: the
# per-row parameter and byte counts and the summary of a real sweep.
RD_POINTS_D15 = """\
block_id,k,params,size_bytes,top1
0,1/2,209266,841224,0.1000000000000002
0,3/4,213446,858104,0.7500000000000001
0,1,218778,879592,0.91
1,1/2,179450,721640,0.4200000000000001
1,3/4,196810,791400,0.8700000000000001
1,1,218778,879592,0.91
2,1/2,98330,396520,0.9
2,3/4,149338,601192,0.91
2,1,218778,879592,0.91
"""
MACROBLOCK_SUMMARY_D15 = """\
command: lesion --kind macroblock_scale --values 1/2 3/4 1 --budget search
model: sequential-d15-16-32-64
oracle: surrogate
points: 9
failed: 0
csv: rd_points.csv
"""


def test_lesion_macroblock_golden(tmp_path):
    out = tmp_path / "out"
    assert run("lesion", "--config", write_cfg(tmp_path), "--out", out,
               "--kind", "macroblock_scale", "--values", "1/2", "3/4", "1") == 0
    assert (out / "rd_points.csv").read_bytes() == \
        RD_POINTS_D15.replace("\n", "\r\n").encode()  # csv line ends
    assert (out / "summary.txt").read_bytes() == MACROBLOCK_SUMMARY_D15.encode()


def test_lesion_replay_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("lesion", "--config", cfg, "--out", out,
               "--kind", "constant", "--values", "4", "--indices", "1", "5") == 0
    assert_replays(out)


def test_rd_with_gnuplot(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("rd", "--config", cfg, "--out", out,
               "--alphas", "0.5", "0.75", "1.0", "--gnuplot") == 0
    for name in ("alpha_curve.csv", "rd_curve.csv", "alpha_curve.dat", "rd_curve.dat"):
        assert (out / name).exists()
    rows = (out / "alpha_curve.csv").read_text().splitlines()
    assert rows[0] == "label,size_bytes,params,top1,config_digest"
    assert len(rows) == 4
    assert (out / "alpha_curve.dat").read_text().startswith("# size_kb top1_percent\n")
    summary = (out / "summary.txt").read_text()
    assert "curve alpha: 3 points" in summary
    assert "curve alpha+backward: 3 points" in summary


# Both curves of `rd` on d15 with the default alphas, pinned byte for byte. The
# benchmark gate compares the CLI with this library, so only a pin fixed here
# catches a wrong curve that both would agree on.
ALPHA_CURVE_D15 = """\
label,size_bytes,params,top1,config_digest
alpha=0.25,57496,14094,0.0,e89797df849cf3141ecce7ab25236b52109e8af4565596bd1e6c02489161b55c
alpha=0.5,223240,55250,0.0,bcc1602fb6108ecf601d3457fe995713775dd07576a02203c16b1ab60ce5109b
alpha=0.75,497272,123478,0.7100000000000002,9e208d596f0537dd2cee091842db1d1371f4798063564e351bbf3e16f2131de7
alpha=1,879592,218778,0.91,d3d1fd7b3956eac53cb42c1fc5f940409d8abc7d6ca33ceb348dc7599732d2b2
"""
RD_CURVE_D15 = """\
label,size_bytes,params,top1,config_digest
alpha=0.25+backward,20804,5031,0.0,bd9837761b44413ec0a02b9d51cd71045e683dfe57a1289172a48b707df46034
alpha=0.5+backward,67748,16627,0.0,acb2904264e07a0983bf10556ed7a5595cc5a39d54bdac1bbb5164f7113e6622
alpha=0.75+backward,307552,76198,0.7052734375000002,23a9a296b0325ac66d3cd19837b8b43d296578f5e70077053a0e5e8cd5780d89
alpha=1+backward,349828,86707,0.9044921875,175eaacbd8101718d314d740f15324becdfc7565478d378dd8dc7bb9be7afc1d
"""


def test_rd_curves_golden(tmp_path):
    out = tmp_path / "out"
    assert run("rd", "--config", write_cfg(tmp_path), "--out", out) == 0
    for name, text in (("alpha_curve.csv", ALPHA_CURVE_D15), ("rd_curve.csv", RD_CURVE_D15)):
        assert (out / name).read_bytes() == text.replace("\n", "\r\n").encode()  # csv line ends


def test_rd_reduces_two_alphas_that_scale_alike_once(tmp_path):
    # 0.5000001 scales every width of d15 as 0.5 does: one model, one reduction.
    cfg = write_cfg(tmp_path)
    ledgers = []
    for alphas in (["0.5"], ["0.5", "0.5000001"]):
        out = tmp_path / "-".join(alphas)
        assert run("rd", "--config", cfg, "--out", out, "--alphas", *alphas) == 0
        ledgers.append(Counter((out / "ledger.jsonl").read_text().splitlines()))
    assert ledgers[1] == ledgers[0]


def _three_slot_trainer(tmp_path, monkeypatch):
    """Config of an external oracle at parallelism 3, played by a surrogate that
    sleeps in every call; returns it and the list the doubles it builds go to."""
    cfg = write_cfg(tmp_path, """\
        [oracle]
        kind = external
        trainer_cmd = unused
        parallelism = 3
        """, name="slots.cfg")
    made = []
    monkeypatch.setattr(cli, "ExternalTrainerOracle",
                        lambda command, spec, **kw: made.append(
                            CountingOracle(cr.SurrogateOracle(spec), sleep=0.005)) or made[-1])
    return cfg, made


def _evaluations(run_dir):
    lines = (run_dir / "ledger.jsonl").read_text().splitlines()
    return Counter((r["config_digest"], json.dumps(r["budget"], sort_keys=True))
                   for r in map(json.loads, lines))


def test_rd_on_three_slots_matches_one_slot(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    sequential, concurrent = tmp_path / "sequential", tmp_path / "concurrent"
    assert run("rd", "--config", cfg, "--out", sequential) == 0
    cfg, made = _three_slot_trainer(tmp_path, monkeypatch)
    assert run("rd", "--config", cfg, "--out", concurrent) == 0

    # Four reductions on three slots: each searches on a share of one slot.
    assert 2 <= made[0].peak <= 3
    for name in ("alpha_curve.csv", "rd_curve.csv"):
        assert (concurrent / name).read_bytes() == (sequential / name).read_bytes()
    evaluations = _evaluations(concurrent)
    assert evaluations == _evaluations(sequential)
    assert (sum(evaluations.values()), len(evaluations)) == (44, 40)

    # The ledger follows completion order; replay looks records up by digest.
    assert_replays(concurrent)


def test_reduce_on_three_slots_matches_one_slot(tmp_path, monkeypatch):
    # An external oracle at parallelism 3, played by the sleeping surrogate:
    # resolved.cfg records the three slots, so replay speculates the same way.
    sequential, concurrent = tmp_path / "sequential", tmp_path / "concurrent"
    assert run("reduce", "--config", write_cfg(tmp_path), "--out", sequential) == 0
    cfg, made = _three_slot_trainer(tmp_path, monkeypatch)
    assert run("reduce", "--config", cfg, "--out", concurrent) == 0

    assert made[0].peak >= 2
    one, many = (json.loads((d / "reduction.json").read_text())
                 for d in (sequential, concurrent))
    assert many["betas"] == one["betas"] == [0.9375, 0.84375, 0.515625]
    assert many["reduced_config"] == one["reduced_config"]
    assert [p for p in many["trace"] if not p.get("speculative")] == one["trace"]
    assert "oracle_calls: 18\nprobes: 18\n" in (concurrent / "summary.txt").read_text()
    assert len((concurrent / "ledger.jsonl").read_text().splitlines()) == 18 + 1  # + final
    assert_replays(concurrent)


def test_replay_of_a_run_recorded_without_search_slots(tmp_path, monkeypatch):
    # A resolved.cfg without search_slots comes from a run that searched one
    # probe at a time at any parallelism; it replays on one slot.
    cfg = write_cfg(tmp_path, """\
        [oracle]
        kind = external
        trainer_cmd = unused
        parallelism = 1
        """)
    monkeypatch.setattr(cli, "ExternalTrainerOracle",
                        lambda command, spec, **kw: CountingOracle(cr.SurrogateOracle(spec),
                                                                   sleep=0.005))
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = out / "resolved.cfg"
    text = resolved.read_text()
    assert "\n[run]\ncommand = reduce --budget search --direction backward\n" \
           "search_slots = 1\n" in text
    assert "parallelism = 1\n" in text
    resolved.write_text(text.replace("search_slots = 1\n", "")
                        .replace("parallelism = 1\n", "parallelism = 3\n"))
    assert_replays(out)


def test_rd_on_three_files_slots_runs_three_trainers_at_once(tmp_path):
    # Every trainer invocation leaves a mark in running/ while it runs and logs
    # how many marks it sees: never more than the three slots.
    running, seen = tmp_path / "running", tmp_path / "seen.log"
    running.mkdir()
    script = tmp_path / "trainer.py"
    script.write_text(textwrap.dedent(f"""\
        import json, os, sys, time
        mark = os.path.join({str(running)!r}, str(os.getpid()))
        open(mark, "w").close()
        with open({str(seen)!r}, "a") as fh:
            fh.write(str(len(os.listdir({str(running)!r}))) + "\\n")
        time.sleep(0.02)
        req = json.load(open(sys.argv[1]))
        top1 = 0.9 * min(1.0, sum(req["channels"]) / 200)
        json.dump({{"run_id": req["run_id"], "status": "ok", "top1": top1,
                   "top5": top1, "wall_seconds": 1.0}}, open(sys.argv[2], "w"))
        os.remove(mark)
        """))
    cfg = write_cfg(tmp_path, f"""\
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script}
        protocol = files
        exchange_dir = {tmp_path / "exchange"}
        parallelism = 3
        timeout_seconds = 60
        """)
    assert run("rd", "--config", cfg, "--out", tmp_path / "out") == 0
    counts = [int(line) for line in seen.read_text().split()]
    assert len(counts) == len((tmp_path / "out" / "ledger.jsonl").read_text().splitlines())
    assert 2 <= max(counts) <= 3


@pytest.mark.parametrize("protocol,parallelism", [("pipe", 3), ("files", 2)])
@pytest.mark.parametrize("argv", ["reduce", "reduce --budget final",
                                  "rd --gnuplot --alphas 1 0.5",
                                  "lesion --kind proportional --values 1/2",
                                  "rd --alphas 0.5 0.5", "rd --alphas 0.5 0.5000001",
                                  "lesion --kind constant --values 8 --indices 1 2 3"],
                         ids=["reduce", "reduce-final", "rd", "lesion", "rd-repeated",
                              "rd-same-model", "lesion-repeated"])
def test_a_run_on_real_trainer_slots_replays(tmp_path, argv, protocol, parallelism):
    # Answers depend on their order and complete out of it, so a replay that
    # hands a record to another request than the run did shows. Width 8 is the
    # first block's, so the repeated lesion's three variants are one network.
    cfg, state = trainer_cfg(tmp_path, protocol, parallelism)
    (state / "release").touch()
    (state / "reorder").touch()
    out = tmp_path / "out"
    assert run(*argv.split(), "--config", cfg, "--out", out) == 0
    if argv == "reduce" and parallelism == 3:   # rounds of two bisection levels
        trace = json.loads((out / "reduction.json").read_text())["trace"]
        assert any(probe.get("speculative") for probe in trace)
    assert_replays(out)


def _reduce_on_the_final_budget(tmp_path, parallelism):
    """Run ``reduce --budget final`` on TRAINER over pipes; returns the run
    directory, its ledger records and its reduction.json."""
    cfg, state = trainer_cfg(tmp_path, "pipe", parallelism)
    (state / "release").touch()
    out = tmp_path / "out"
    assert run("reduce", "--budget", "final", "--config", cfg, "--out", out) == 0
    records = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    return out, records, json.loads((out / "reduction.json").read_text())


@pytest.mark.parametrize("parallelism,calls", [(1, 6), (3, 8)])
def test_reduce_on_the_final_budget_trains_the_reduced_config_once(tmp_path, parallelism,
                                                                   calls):
    # The search trained the reduced config under the final budget already: its
    # record is the final evaluation, and no experiment is trained twice.
    out, records, payload = _reduce_on_the_final_budget(tmp_path, parallelism)
    keys = {(r["config_digest"], json.dumps(r["budget"], sort_keys=True)) for r in records}
    assert len(records) == len(keys) == calls
    assert f"oracle_calls: {calls}\n" in (out / "summary.txt").read_text()
    reduced = cr.ChannelConfig(*(tuple(payload["reduced_config"][key])
                                 for key in ("channels", "macroblock_starts")))
    spec = cr.RunConfig.from_file(out / "resolved.cfg").build_spec()
    final = payload["final_evaluation"]
    assert [r for r in records if r["config_digest"] == cr.config_digest(reduced, spec)] \
        == [final]
    assert final["budget"]["epochs"] == 90


def test_replay_answers_the_final_evaluation_with_the_searchs_record(tmp_path):
    # A reduce --budget final recorded while the reduced config was still
    # trained twice holds a second (reduced, final) record. Its replay exits 0
    # and reports the first one, which the search got.
    out, _, payload = _reduce_on_the_final_budget(tmp_path, 1)
    first = payload["final_evaluation"]
    with (out / "ledger.jsonl").open("a") as fh:
        fh.write(json.dumps(dict(first, top1=first["top1"] / 2), sort_keys=True) + "\n")
    replayed = tmp_path / "replayed"
    assert run("replay", out, "--out", replayed) == 0
    assert json.loads((replayed / "reduction.json").read_text())["final_evaluation"] == first
    assert f"final top1 (full budget): {first['top1']!r}\n" in \
        (replayed / "summary.txt").read_text()


def _two_slot_recorder(inner, ledger, spec, parallel_slots):
    return cr.RecordingOracle(inner, ledger, spec, parallel_slots=2)


def test_rd_replay_error_in_a_worker_thread_fails_the_run(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("rd", "--config", cfg, "--out", out) == 0
    ledger = out / "ledger.jsonl"
    ledger.write_text("".join(ledger.read_text().splitlines(keepends=True)[:-1]))

    monkeypatch.setattr(cli, "RecordingOracle", _two_slot_recorder)
    replayed = tmp_path / "replayed"
    assert run("replay", out, "--out", replayed) == 1
    summary = (replayed / "summary.txt").read_text()
    assert "status: failed" in summary
    assert "error: missing evaluation for digest" in summary


# -- reruns resume from the run's ledger ---------------------------------------


class _CountingSurrogate(cr.SurrogateOracle):
    """Surrogate that counts its calls and raises once ``crash_after`` are done,
    as a trainer host lost partway through a run would."""

    def __init__(self, *args, crash_after=None):
        super().__init__(*args)
        self.crash_after, self.calls = crash_after, 0

    def evaluate(self, config, budget):
        if self.calls == self.crash_after:
            raise RuntimeError("trainer host lost")
        self.calls += 1
        return super().evaluate(config, budget)


def _counting_surrogates(monkeypatch, crash_after=None):
    made = []
    monkeypatch.setattr(cli, "SurrogateOracle", lambda *args: made.append(
        _CountingSurrogate(*args, crash_after=crash_after)) or made[-1])
    return made


def test_rerun_with_a_noisy_trainer_resumes_and_replays(tmp_path):
    # A files-mode trainer whose accuracies differ on every call. The rerun
    # answers every evaluation from the ledger, so it trains nothing and its
    # artifacts replay byte for byte.
    script = tmp_path / "noisy.py"
    script.write_text(textwrap.dedent("""\
        import json, random, sys
        req = json.load(open(sys.argv[1]))
        top1 = 0.9 * min(1.0, sum(req["channels"]) / 200) - random.uniform(0, 1e-3)
        json.dump({"run_id": req["run_id"], "status": "ok", "top1": top1,
                   "wall_seconds": 1.0}, open(sys.argv[2], "w"))
        """))
    cfg = write_cfg(tmp_path, f"""\
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script}
        protocol = files
        exchange_dir = {tmp_path / "exchange"}
        timeout_seconds = 60
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    first = (out / "reduction.json").read_bytes()
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 13 + 1  # + final
    assert (out / "reduction.json").read_bytes() == first
    assert_replays(out)


@pytest.mark.parametrize("done", [1, 7])
def test_interrupted_reduce_resumes_with_the_missing_evaluations(tmp_path, monkeypatch,
                                                                 done):
    cfg = write_cfg(tmp_path)
    whole, out = tmp_path / "whole", tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", whole) == 0
    made = _counting_surrogates(monkeypatch, crash_after=done)
    with pytest.raises(RuntimeError, match="trainer host lost"):
        run("reduce", "--config", cfg, "--out", out)
    assert len((out / "ledger.jsonl").read_text().splitlines()) == done

    made = _counting_surrogates(monkeypatch)
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert made[0].calls == 13 - done
    assert snapshot(out) == snapshot(whole)


@pytest.mark.parametrize("argv", [["reduce"], ["rd"],
                                  ["lesion", "--kind", "constant", "--values", "4", "8"]],
                         ids=["reduce", "rd", "lesion"])
def test_rerun_of_a_finished_command_appends_nothing(tmp_path, monkeypatch, argv):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(*argv, "--config", cfg, "--out", out) == 0
    before = snapshot(out)
    made = _counting_surrogates(monkeypatch)
    assert run(*argv, "--config", cfg, "--out", out) == 0
    assert made[0].calls == 0
    assert snapshot(out) == before


def test_replay_kind_appends_nothing_on_a_rerun_or_its_own_ledger(tmp_path, capsys):
    # kind = replay pointed at another run's ledger records what it serves
    # once; pointed at the run's own ledger it is a rerun with other [oracle]
    # settings, refused before anything is written.
    source = tmp_path / "source"
    assert run("reduce", "--config", write_cfg(tmp_path), "--out", source) == 0
    expected = (source / "reduction.json").read_bytes()
    out = tmp_path / "out"
    for ledger in (source / "ledger.jsonl", source / "ledger.jsonl"):
        cfg = write_cfg(tmp_path, f"""\
            [oracle]
            kind = replay
            ledger = {ledger}
            """, name="replay.cfg")
        assert run("reduce", "--config", cfg, "--out", out) == 0
        assert (out / "ledger.jsonl").read_bytes() == (source / "ledger.jsonl").read_bytes()
        assert (out / "reduction.json").read_bytes() == expected
    before = snapshot(out)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, f"[oracle]\nkind = replay\nledger = {out}/ledger.jsonl\n",
                    name="replay.cfg")
    assert run("reduce", "--config", cfg, "--out", out) == 2
    assert "use a fresh --out" in capsys.readouterr().err
    assert snapshot(out) == before


def test_a_what_if_over_a_runs_own_ledger_leaves_the_run_resumable(tmp_path, capsys):
    # A kind = replay what-if aimed at the directory whose ledger it reads is
    # refused and writes nothing, so the recorded settings still resume there;
    # the same what-if into a fresh --out runs.
    out = tmp_path / "run"
    shutil.copytree(CORPUS / "f3-s1-reduce-search", out)
    before = snapshot(out)
    recorded = (out / "resolved.cfg").read_text().split("[run]")[0]
    what_if = write_cfg(tmp_path, recorded.split("[oracle]")[0]
                        + f"[oracle]\nkind = replay\nledger = {out}/ledger.jsonl\n"
                          "[search]\ndelta = 0.02\n", name="what-if.cfg")
    reduce = ["reduce", "--budget", "search", "--config"]
    capsys.readouterr()
    assert run(*reduce, what_if, "--out", out) == 2
    assert (f"{out} holds evaluations made for another dataset or with other [oracle] "
            f"settings; use a fresh --out") in capsys.readouterr().err
    assert snapshot(out) == before
    assert run(*reduce, write_cfg(tmp_path, recorded, name="recorded.cfg"), "--out", out) == 0
    assert snapshot(out) == before
    assert run(*reduce, what_if, "--out", tmp_path / "fresh") == 0


def test_replay_kind_run_replays_after_its_source_is_gone(tmp_path, capsys):
    # What the source serves is copied into the run's own ledger, so only a
    # command that evaluates needs the source; replay and size never read it.
    source = tmp_path / "source"
    assert run("reduce", "--config", write_cfg(tmp_path), "--out", source) == 0
    cfg = write_cfg(tmp_path, f"[oracle]\nkind = replay\nledger = {source}/ledger.jsonl\n",
                    name="replay.cfg")
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    source.rename(tmp_path / "moved")
    assert_replays(out)
    assert run("size", "--config", cfg, "--out", tmp_path / "size") == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    assert run("reduce", "--config", cfg, "--out", fresh) == 2
    assert f"replay ledger {source}/ledger.jsonl does not exist" in capsys.readouterr().err
    assert not fresh.exists()


def test_replay_kind_reduce_reports_the_final_evaluation_its_source_holds(tmp_path):
    # The recorded external run trained its reduced configuration under the
    # final budget; a kind = replay run over its ledger serves that record too.
    source = tmp_path / "source"
    shutil.copytree(CORPUS / "f1-s1-reduce-search", source)
    cfg = write_cfg(tmp_path, "[model]\ndepth = 8\nblock_widths = 8, 16\n"
                              f"[oracle]\nkind = replay\nledger = {source}/ledger.jsonl\n")
    out = tmp_path / "out"
    assert run("reduce", "--budget", "search", "--config", cfg, "--out", out) == 0
    assert (out / "ledger.jsonl").read_bytes() == (source / "ledger.jsonl").read_bytes()
    assert (out / "reduction.json").read_bytes() == (source / "reduction.json").read_bytes()
    final = (source / "summary.txt").read_text().splitlines()[-1]
    assert final.startswith("final top1 (full budget): ")
    assert final in (out / "summary.txt").read_text().splitlines()
    assert_replays(out)


def test_a_last_midpoint_run_directory_exits_2_and_is_left_as_it_is(tmp_path, capsys):
    # The last midpoint may break the accuracy budget, so a reduction returns
    # the feasible bound only; a directory recorded with the other rule is refused.
    out = tmp_path / "run"
    shutil.copytree(CORPUS / "f1-s1-reduce-search", out)
    resolved = out / "resolved.cfg"
    resolved.write_text(resolved.read_text().replace("beta_return_mode = feasible_bound",
                                                     "beta_return_mode = last_midpoint"))
    before = snapshot(out)
    replayed = tmp_path / "replayed"
    assert run("replay", out, "--out", replayed) == 2
    assert run("replay", out) == 2
    assert run("reduce", "--config", resolved, "--out", out) == 2
    error = (f"search.beta_return_mode must be feasible_bound, got 'last_midpoint' "
             f"(in {resolved})")
    assert capsys.readouterr().err.count(error) == 3
    assert snapshot(out) == before and not replayed.exists()


def test_rerun_with_other_oracle_settings_is_refused(tmp_path, monkeypatch, capsys):
    # Editing a config and running it again lands in the same default run
    # directory, whose ledger holds records made under the old settings.
    monkeypatch.setenv("CHANREDUCE_RUN_ROOT", str(tmp_path / "runs"))
    cfg = write_cfg(tmp_path)
    out = tmp_path / "runs" / "run"
    assert run("reduce", "--config", cfg) == 0
    write_cfg(tmp_path, "[search]\ndelta = 0.05\n")
    assert run("reduce", "--config", cfg) == 0  # [search] may differ
    before = snapshot(out)
    capsys.readouterr()

    write_cfg(tmp_path, "[oracle]\nfrontiers = 0.5, 0.5, 0.5\n")
    assert run("reduce", "--config", cfg) == 2
    assert "use a fresh --out" in capsys.readouterr().err
    assert snapshot(out) == before
    fresh = tmp_path / "fresh"
    assert run("reduce", "--config", cfg, "--out", fresh) == 0
    assert json.loads((fresh / "reduction.json").read_text())["betas"] == \
        [0.5625, 0.53125, 0.515625]


@pytest.mark.parametrize("today,recorded", [
    ("weights = 4.0 4.0 4.0\n", ""),
    ("a_max = 0.91\nexponent = 2.0\n", "exponent = 2\na_max = 0.910\n"),
    ("frontiers = 0.95 0.85 0.55\n", "frontiers = 0.95, 0.85, 5.5e-1\n"),
], ids=["key-added-later", "key-order-and-float-spelling", "list-spelling"])
def test_rerun_compares_the_recorded_oracle_settings_as_parsed_values(
        tmp_path, monkeypatch, today, recorded):
    # A resolved.cfg written by an older chanreduce, or edited by hand, that
    # differs from today's only in form records the same [oracle] settings.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = out / "resolved.cfg"
    text = resolved.read_text()
    assert today in text
    resolved.write_text(text.replace(today, recorded))
    made = _counting_surrogates(monkeypatch)
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert made[0].calls == 0
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 13
    assert resolved.read_text() == text


@pytest.mark.parametrize("kind,added", [
    ("external", "frontiers = 0.9, 0.8, 0.5\n"),
    ("external", "a_max = 0.5\n"),
    ("external", "ledger = elsewhere.jsonl\n"),
    ("surrogate", "trainer_cmd = python3 whatever.py\n"),
], ids=["external-frontiers", "external-a_max", "external-ledger", "surrogate-trainer_cmd"])
def test_a_rerun_with_a_key_its_kind_does_not_read_resumes(tmp_path, kind, added):
    # Such a key decides no record, so the rerun goes on with the run's records,
    # trains nothing new and leaves the directory as it was.
    cfg = (pipe_trainer_cfg(tmp_path, 'dict(status="ok", top1=top1)') if kind == "external"
           else write_cfg(tmp_path, SMALL + "[oracle]\n"))
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    before = snapshot(out)
    cfg.write_text(cfg.read_text().replace("[oracle]\n", "[oracle]\n" + added))
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert snapshot(out) == before


@pytest.mark.parametrize("kind", ["external", "replay"])
def test_a_rerun_that_changes_the_key_its_kind_reads_exits_2_and_writes_nothing(
        tmp_path, capsys, kind):
    # The trainer command and the replayed ledger decide records, as the
    # surrogate's keys and the dataset do (test_rerun_with_other_oracle_settings_is_refused,
    # test_rerun_for_another_dataset_is_refused).
    if kind == "external":
        cfg = pipe_trainer_cfg(tmp_path, 'dict(status="ok", top1=top1)')
        first = cfg.read_text()
        second = first.replace("trainer.py\n", "trainer.py --fast\n")
    else:
        source, copy = tmp_path / "source", tmp_path / "copy"
        assert run("reduce", "--config", write_cfg(tmp_path, name="source.cfg"), "--out",
                   source) == 0
        shutil.copytree(source, copy)
        first, second = (f"[oracle]\nkind = replay\nledger = {d}/ledger.jsonl\n"
                         for d in (source, copy))
        cfg = write_cfg(tmp_path, first)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    before = snapshot(out)
    cfg.write_text(second)
    capsys.readouterr()
    assert run("reduce", "--config", cfg, "--out", out) == 2
    assert "use a fresh --out" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("family", ["sequential", "descriptor"])
def test_rerun_for_another_dataset_is_refused(tmp_path, capsys, family):
    # The config digest leaves the dataset label out, so only this check keeps
    # one dataset's records from answering requests that name another. The
    # trainer's top1 depends on the dataset a request names.
    cfg = pipe_trainer_cfg(tmp_path, 'dict(status="ok", top1=top1 * '
                                     '(0.5 if req["dataset"] == "svhn" else 0.75))')
    model, text = "[model]\ndepth = 6\nblock_widths = 8, 16\n", cfg.read_text()
    net = tmp_path / "net.json"
    if family == "descriptor":
        cr.save_descriptor(cr.build_sequential_cnn(6, [8, 16]), net)
        text = text.replace(model, "[model]\nfamily = descriptor\ndescriptor = net.json\n")
        cfg.write_text(text)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    before = snapshot(out)
    capsys.readouterr()

    if family == "descriptor":   # the header of the descriptor names the dataset
        cr.save_descriptor(cr.build_sequential_cnn(6, [8, 16], dataset="svhn"), net)
    else:
        cfg.write_text(text.replace(model, model + "dataset = svhn\n"))
    assert run("reduce", "--config", cfg, "--out", out) == 2
    assert f"{out} holds evaluations made for another dataset" in capsys.readouterr().err
    assert snapshot(out) == before
    fresh = tmp_path / "fresh"
    assert run("reduce", "--config", cfg, "--out", fresh) == 0
    baseline = [(d / "summary.txt").read_text().split("baseline top1: ")[1].split("\n")[0]
                for d in (out, fresh)]
    assert float(baseline[1]) == pytest.approx(float(baseline[0]) * 0.5 / 0.75)


@pytest.mark.parametrize("key,value", [("parallelism", "2"), ("timeout_seconds", "30.0"),
                                       ("protocol", "files"), ("exchange_dir", "elsewhere")])
def test_rerun_with_other_trainer_bridge_settings_resumes(tmp_path, key, value):
    # These keys say how to reach the trainer, not what it answers: a search
    # resumed on fewer trainer slots or another exchange directory goes on with
    # its records and trains only what its ledger lacks.
    cfg, state = trainer_cfg(tmp_path, "pipe", 1)
    (state / "release").touch()
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    cfg.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", cfg.read_text()))
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = (out / "resolved.cfg").read_text()
    assert f"\n{key} = {tmp_path / value if key == 'exchange_dir' else value}\n" in resolved
    assert len((out / "ledger.jsonl").read_text().splitlines()) == len(_evaluations(out))
    assert_replays(out)


@pytest.mark.parametrize("argv,recorded,resumed,appended", [
    ("reduce", 3, 2, 0), ("rd", 3, 2, 0), ("reduce", 1, 3, 2)],
    ids=["reduce-fewer", "rd-fewer", "reduce-more"])
def test_a_run_resumed_on_other_trainer_slots_trains_only_what_its_ledger_lacks(
        tmp_path, argv, recorded, resumed, appended):
    # Fewer slots speculate less, so the resumed searches ask only for
    # configurations the first run trained; more slots speculate on ones it
    # never asked for. Either way the run ends as a fresh run on the new slots.
    cfg, state = trainer_cfg(tmp_path, "pipe", recorded)
    (state / "release").touch()
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run(argv, "--config", cfg, "--out", out) == 0
    first = (out / "ledger.jsonl").read_bytes()
    cfg.write_text(cfg.read_text().replace(f"parallelism = {recorded}\n",
                                           f"parallelism = {resumed}\n"))
    assert run(argv, "--config", cfg, "--out", out) == 0
    assert run(argv, "--config", cfg, "--out", fresh) == 0
    ledger = (out / "ledger.jsonl").read_bytes()
    assert ledger.startswith(first) and ledger[len(first):].count(b"\n") == appended
    # Nothing is trained twice that a fresh run trains once (rd's α points are
    # trained again as their reductions' baselines).
    repeats = [sum(_evaluations(d).values()) - len(_evaluations(d)) for d in (out, fresh)]
    assert repeats[0] == repeats[1] == (4 if argv == "rd" else 0)
    assert _evaluations(fresh).keys() <= _evaluations(out).keys()
    assert {k: v for k, v in snapshot(out).items() if k != "ledger.jsonl"} == \
        {k: v for k, v in snapshot(fresh).items() if k != "ledger.jsonl"}
    assert_replays(out)


@pytest.mark.parametrize("command", ["rerun", "replay"])
def test_a_bad_recorded_setting_is_reported_with_its_file(tmp_path, capsys, command):
    # The value comes from the run directory's resolved.cfg, not from the
    # config the user gave, and the error says so.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = out / "resolved.cfg"
    resolved.write_text(resolved.read_text().replace("a_max = 0.91\n", "a_max = nan\n"))
    before = snapshot(out)
    capsys.readouterr()
    argv = ["reduce", "--config", cfg, "--out", out] if command == "rerun" else ["replay", out]
    assert run(*argv) == 2
    assert f"oracle.a_max must be a number, got 'nan' (in {resolved})" in \
        capsys.readouterr().err
    assert snapshot(out) == before


def test_rerun_reports_the_failures_it_serves(tmp_path, capsys):
    # A files-mode trainer that fails while its host is down. The rerun after
    # the host is back serves the recorded failure and says so; a fresh run
    # directory trains it again.
    down = tmp_path / "down"
    down.touch()
    script = tmp_path / "flaky.py"
    script.write_text(textwrap.dedent("""\
        import json, os, sys
        if os.path.exists(sys.argv[1]):
            sys.exit("trainer host down")
        req = json.load(open(sys.argv[2]))
        top1 = 0.9 * min(1.0, sum(req["channels"]) / 200)
        json.dump({"run_id": req["run_id"], "status": "ok", "top1": top1,
                   "wall_seconds": 1.0}, open(sys.argv[3], "w"))
        """))
    cfg = write_cfg(tmp_path, f"""\
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script} {down}
        protocol = files
        exchange_dir = {tmp_path / "exchange"}
        timeout_seconds = 60
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 1  # baseline failed
    ledger = (out / "ledger.jsonl").read_bytes()
    assert b'"status":"failed"' in ledger
    assert "note:" not in capsys.readouterr().err

    down.unlink()
    assert run("reduce", "--config", cfg, "--out", out) == 1
    assert (out / "ledger.jsonl").read_bytes() == ledger
    err = capsys.readouterr().err
    assert "note: answered 1 failed or timed-out evaluation(s) from" in err
    assert "fresh --out" in err
    assert run("reduce", "--config", cfg, "--out", tmp_path / "fresh") == 0


def _running(pid: int) -> bool:
    """Whether process ``pid`` still runs; a zombie waiting for its reaper has ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with contextlib.suppress(OSError):   # Linux: the state follows the command name
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    return True


@pytest.mark.parametrize("protocol", ["pipe", "files"])
@pytest.mark.parametrize("signum,group", [
    (signal.SIGINT, True), (signal.SIGINT, False), (signal.SIGTERM, False),
    (signal.SIGTERM, True)], ids=["SIGINT-group", "SIGINT-cli", "SIGTERM-cli", "SIGTERM-group"])
def test_a_stop_records_none_of_the_trainings_it_interrupts(tmp_path, protocol, signum, group):
    # A stop is SIGINT (a terminal's Ctrl-C sends it to the CLI and its trainers
    # alike) or SIGTERM (kill, timeout, a job scheduler), sent to the CLI's
    # process group or to the CLI alone. Each ends the CLI at once, by that
    # signal, so a shell loop stops, and it ends every trainer of the run. The
    # trainings it cuts short are not failures: the rerun trains them, and ends
    # as a run that was never interrupted. The CLI leaves a summary and prints no
    # traceback.
    cfg, state = trainer_cfg(tmp_path, protocol, parallelism=2)
    argv = ["lesion", "--config", cfg, "--kind", "proportional", "--values", "1/2"]
    out, whole = tmp_path / "out", tmp_path / "whole"
    # The CLI keeps a SIGINT it inherits ignored, as a background job's is, so
    # it starts with the default whatever this process inherited.
    with subprocess.Popen([sys.executable, "-m", "chanreduce.cli", *map(str, argv),
                           "--out", str(out)], env=src_env(), start_new_session=True,
                          preexec_fn=partial(signal.signal, signal.SIGINT, signal.SIG_DFL),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            deadline = time.monotonic() + 60
            while len(os.listdir(state / "held")) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            held = [int(p.read_text()) for p in (state / "held").iterdir()]
            (os.killpg if group else os.kill)(proc.pid, signum)
            err = proc.communicate(timeout=10)[1]
            assert proc.returncode == -signum
            deadline = time.monotonic() + 3   # the cleanup below would end them
            while any(map(_running, held)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, held))
        finally:  # whatever failed, leave no CLI or trainer of the group running
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert "interrupted; rerun the command to resume\n" in err
    # The trainers print their own tracebacks; none of the CLI's frames shows.
    assert f"{os.sep}chanreduce{os.sep}" not in err
    assert (out / "summary.txt").read_text().splitlines()[1:] == ["status: interrupted"]
    # Two slots may both answer before either sees two answers marked, so the
    # count of answers is read, not assumed; the held requests are not recorded.
    assert [json.loads(line)["status"] for line in (out / "ledger.jsonl").read_text()
            .splitlines()] == ["ok"] * len(os.listdir(state / "answered"))

    (state / "release").touch()
    assert run(*argv, "--out", out) == 0
    assert run(*argv, "--out", whole) == 0
    resumed, uninterrupted = snapshot(out), snapshot(whole)
    for files in (resumed, uninterrupted):  # two slots append in completion order
        files["ledger.jsonl"] = sorted(files["ledger.jsonl"].splitlines())
    assert resumed == uninterrupted


def test_interrupted_replay_kind_run_resumes_with_the_sources_next_record(tmp_path,
                                                                          monkeypatch):
    # The source ledger holds width 7's failed record and then its ok retry. A
    # kind = replay run cut off just past the failure resumes with the retry,
    # as the uninterrupted run got it.
    model = "[model]\ndepth = 1\nblock_widths = 10\n"
    monkeypatch.setattr(cli, "SurrogateOracle", lambda *args: FailingOracle(
        cr.SurrogateOracle(*args), lambda c: c.channels[-1] == 7, times=1))
    source = tmp_path / "source"
    assert run("reduce", "--out", source, "--config", write_cfg(
        tmp_path, model + "[oracle]\nfrontiers = 0.8\nweights = 2000\n")) == 0
    statuses = [json.loads(line)["status"]
                for line in (source / "ledger.jsonl").read_text().splitlines()]
    assert statuses.count("failed") == 1

    cfg = write_cfg(tmp_path, model + f"[oracle]\nkind = replay\nledger = {source}/ledger.jsonl\n",
                    name="replay.cfg")
    whole, out = tmp_path / "whole", tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", whole) == 0
    assert run("reduce", "--config", cfg, "--out", out) == 0
    lines = (out / "ledger.jsonl").read_text().splitlines(keepends=True)
    (out / "ledger.jsonl").write_text("".join(lines[:statuses.index("failed") + 1]))
    assert run("reduce", "--config", cfg, "--out", out) == 0
    assert snapshot(out) == snapshot(whole)


def test_size(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    text = (out / "summary.txt").read_text()
    assert "parameters: 218778" in text
    assert "buffers: 1120" in text
    assert "size_bytes: 879592" in text
    assert "size_mb: 0.8388" in text
    assert capsys.readouterr().out == text
    blob = json.loads((out / "size.json").read_text())
    assert blob["parameter_count"] == 218778
    assert (out / "ledger.jsonl").exists()


def test_size_builds_no_oracle(tmp_path):
    # A files-protocol trainer without an exchange_dir cannot be built; size
    # never evaluates, so it must not try.
    cfg = write_cfg(tmp_path, """\
        [oracle]
        kind = external
        trainer_cmd = no-such-trainer
        protocol = files
        """)
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    assert (out / "ledger.jsonl").read_text() == ""


@pytest.mark.parametrize("layers", [["conv"], "conv"])
def test_size_rejects_a_malformed_descriptor(tmp_path, capsys, layers):
    descriptor = tmp_path / "model.json"
    descriptor.write_text(json.dumps({"num_classes": 10, "layers": layers}))
    cfg = write_cfg(tmp_path, f"""\
        [model]
        family = descriptor
        descriptor = {descriptor}
        """)
    assert run("size", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "layer must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "rd"])
@pytest.mark.parametrize("oracle", ["surrogate", "external\ntrainer_cmd = no-such-trainer",
                                    "replay\nledger = empty.jsonl"],
                         ids=["surrogate", "external", "replay"])
def test_a_model_without_a_macroblock_leaves_no_directory(tmp_path, capsys, command, oracle):
    # Both commands search over macroblocks, so they check for one before
    # writing, whatever backend would answer the evaluations.
    meta = cr.ModelMeta("head", "d", num_classes=10, input_channels=3, resolution=8)
    cr.save_descriptor(cr.ModelSpec((cr.GlobalAvgPool(), cr.FullyConnected(3, 10, in_ref=0)),
                                    meta), tmp_path / "model.json")
    (tmp_path / "empty.jsonl").touch()
    cfg = write_cfg(tmp_path, f"[model]\nfamily = descriptor\ndescriptor = model.json\n"
                              f"[oracle]\nkind = {oracle}\n")
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", out) == 2
    assert "model has no convolution layers to partition" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["size", "reduce", "rd", "lesion --kind proportional "
                                                            "--values 1/2"])
def test_a_fractional_width_descriptor_leaves_no_directory(tmp_path, capsys, command):
    (tmp_path / "model.json").write_text(json.dumps({"num_classes": 10, "layers": [
        {"kind": "conv", "kernel": [3, 3], "in": 3, "out": 8.5, "in_ref": 0, "out_ref": 1},
        {"kind": "batchnorm", "channels": 8.5, "ref": 1}, {"kind": "global_avg_pool"},
        {"kind": "fully_connected", "in": 8.5, "out": 10, "in_ref": 1}]}))
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = model.json\n")
    out = tmp_path / "out"
    assert run(*command.split(), "--config", cfg, "--out", out) == 2
    assert ("cannot build model: layer 0: conv out_channels must be an integer, got 8.5"
            in capsys.readouterr().err)
    assert not out.exists()


# Each edit of layer 0 (conv), 1 (batchnorm) or 2 (pool) of a depth-2 model, or
# of its header (None).
@pytest.mark.parametrize("layer,edit,error", [
    (0, {"kernel": [0, 3]}, "layer 0: conv kernel must be >= 1, got (0, 3)"),
    (0, {"stride": 0}, "layer 0: conv stride must be >= 1, got 0"),
    (0, {"scale": 0}, "layer 0: conv scale must be >= 1, got 0"),
    (2, {"window": 0}, "layer 2: pool window must be >= 1, got 0"),
    (1, {"ref": 2}, "channel ref 2 not yet defined"),
    (0, {"strides": 2}, "layer 0: conv has no key 'strides'"),
    (None, {"resolutoin": 64}, "model has no key 'resolutoin'"),
    (None, {"resolution": 0}, "model resolution must be >= 1, got 0"),
], ids=["kernel-0x3", "conv-stride-0", "conv-scale-0", "pool-window-0", "dangling-ref",
        "unknown-layer-key", "unknown-header-key", "resolution-0"])
def test_an_unbuildable_descriptor_leaves_no_directory(tmp_path, capsys, layer, edit, error):
    descriptor = cr.spec_to_dict(cr.build_sequential_cnn(2, [4, 8]))
    (descriptor if layer is None else descriptor["layers"][layer]).update(edit)
    (tmp_path / "model.json").write_text(json.dumps(descriptor))
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = model.json\n")
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 2
    assert f"cannot build model: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("write", [
    lambda path: path.write_text('{"num_classes": 10,\n'),
    lambda path: path.write_bytes(b'{"name": "\xff"}'),
    lambda path: path.mkdir(),
], ids=["invalid-json", "not-utf-8", "directory"])
def test_an_unreadable_descriptor_leaves_no_directory(tmp_path, capsys, write):
    write(tmp_path / "model.json")
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = model.json\n")
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 2
    assert f"malformed model descriptor {tmp_path.resolve() / 'model.json'}: " in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("top,kind", [([], "list"), ("model", "str"), (3, "int")])
def test_a_descriptor_that_is_not_an_object_leaves_no_directory(tmp_path, capsys, top, kind):
    (tmp_path / "model.json").write_text(json.dumps(top))
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = model.json\n")
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 2
    assert (f"cannot build model: model must be a JSON object, got {kind}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_size_of_a_saved_descriptor(tmp_path):
    cr.save_descriptor(cr.mobilenet(0.5), tmp_path / "model.json")
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = model.json\n")
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    expected = cr.count_parameters(cr.mobilenet(0.5)).parameter_count
    assert json.loads((out / "size.json").read_text())["parameter_count"] == expected


@pytest.mark.parametrize("argv", ["reduce", "lesion --kind proportional --values 1/2"],
                         ids=["reduce", "lesion"])
def test_a_descriptor_run_replays_without_the_descriptor_it_was_given(tmp_path, argv):
    # The run keeps its model as model.json, so the file it was given may move
    # or change, and the run directory may move too.
    cr.save_descriptor(cr.build_sequential_cnn(6, [8, 16]), tmp_path / "net.json")
    cfg = write_cfg(tmp_path, "[model]\nfamily = descriptor\ndescriptor = net.json\n")
    out = tmp_path / "out"
    assert run(*argv.split(), "--config", cfg, "--out", out) == 0
    assert "\ndescriptor = model.json\n" in (out / "resolved.cfg").read_text()
    (tmp_path / "net.json").rename(tmp_path / "gone.json")
    assert_replays(out)
    moved = out.rename(tmp_path / "moved")
    assert_replays(moved, in_place=True)


@pytest.mark.parametrize("command", [["reduce"], ["rd"], ["size"],
                                     ["lesion", "--kind", "constant", "--values", "4"]])
@pytest.mark.parametrize("flag", [["--delta", "0.5"], ["--scope", "1"],
                                  ["--oracle", "surrogate"]])
def test_settings_come_only_from_the_config_file(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exit_:
        run(*command, "--config", write_cfg(tmp_path), "--out", tmp_path / "out", *flag)
    assert exit_.value.code == 2
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    (tmp_path / "cfgdir").mkdir()
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("[model]\nname = Gr\xfcn\n".encode("latin-1"))
    for cfg in (tmp_path / "missing.cfg", tmp_path / "cfgdir", latin1):
        assert run("size", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_dir_from_env(tmp_path, monkeypatch):
    root = tmp_path / "all-runs"
    monkeypatch.setenv("CHANREDUCE_RUN_ROOT", str(root))
    cfg = write_cfg(tmp_path, name="widths.cfg")
    assert run("size", "--config", cfg) == 0
    assert (root / "widths" / "summary.txt").exists()
    # --out wins over $CHANREDUCE_RUN_ROOT.
    assert run("size", "--config", cfg, "--out", tmp_path / "out") == 0
    assert (tmp_path / "out" / "summary.txt").exists()
    assert sorted(os.listdir(root)) == ["widths"]


def test_config_fraction_delta_and_budget(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [search]
        delta = 1/100

        [budget]
        search_epochs = 10
        search_milestones = 4, 8
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    summary = (out / "summary.txt").read_text()
    assert "delta: 0.01  metric: top1" in summary
    assert "budget: epochs=10 milestones=[4, 8]" in summary
    payload = json.loads((out / "reduction.json").read_text())
    assert payload["betas"] == [0.9375, 0.84375, 0.515625]


def test_config_model_section(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [model]
        family = sequential
        depth = 8
        block_widths = 8, 16
        """)
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    text = (out / "summary.txt").read_text()
    assert "model: sequential-d8-8-16" in text


def test_preset_model(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [model]
        family = resnet34
        """)
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    assert "parameters: 21797672" in (out / "summary.txt").read_text()


def test_mobilenet_width_mult_from_the_config(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [model]
        family = mobilenet
        width_mult = 1/2
        """)
    out = tmp_path / "out"
    assert run("size", "--config", cfg, "--out", out) == 0
    expected = cr.count_parameters(cr.mobilenet(0.5)).parameter_count
    assert json.loads((out / "size.json").read_text())["parameter_count"] == expected
    assert "model: mobilenet-0.5 dataset=imagenet classes=1000" in (
        out / "summary.txt").read_text()
    resolved = (out / "resolved.cfg").read_text()
    assert "width_mult = 0.5\n" in resolved and "num_classes = 1000\n" in resolved


@pytest.mark.parametrize("family,command", [("mobilenet", "size"), ("resnet18", "reduce")])
def test_a_preset_run_and_its_replay_warn_nothing(tmp_path, caplog, family, command):
    # resolved.cfg lists only the [model] keys the family reads, so its replay
    # has nothing to warn about.
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.config"):
        assert run(command, "--config", write_cfg(tmp_path, f"[model]\nfamily = {family}\n"),
                   "--out", out) == 0
        assert_replays(out)
    assert caplog.records == []


def test_percent_in_config_value_is_literal(tmp_path):
    cfg = write_cfg(tmp_path, """\
        [model]
        name = run%d 100%%
        """)
    assert cr.RunConfig.from_file(cfg).model.name == "run%d 100%%"
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    resolved = (out / "resolved.cfg").read_text()
    assert "name = run%d 100%%\n" in resolved
    assert_replays(out)


def test_unknown_config_key_warns(tmp_path, caplog):
    cfg = write_cfg(tmp_path, """\
        [search]
        deltas = 0.5
        """)
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.config"):
        assert run("size", "--config", cfg, "--out", out) == 0
    assert any("search.deltas" in r.message for r in caplog.records)


def test_unknown_config_section_warns_and_is_ignored(tmp_path, caplog):
    cfg = write_cfg(tmp_path, """\
        [outputs]
        run_dir = elsewhere
        """)
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.config"):
        assert run("size", "--config", cfg, "--out", out) == 0
    assert any("[outputs]" in r.message for r in caplog.records)
    assert "outputs" not in (out / "resolved.cfg").read_text()
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("command", ["replay", "rerun"])
def test_a_run_from_a_run_directory_prints_each_config_warning_once(tmp_path, caplog,
                                                                     command):
    # replay parses the run's resolved.cfg once and hands it to the command; a
    # rerun from the directory's own resolved.cfg does not parse it again to
    # compare it with itself.
    out = tmp_path / "out"
    assert run("reduce", "--config", write_cfg(tmp_path, "[model]\ndepth = 2\n"
                                               "block_widths = 8, 16\n"), "--out", out) == 0
    with (out / "resolved.cfg").open("a") as fh:
        fh.write("[output]\nrun_dir = x\n")
    argv = (["replay", out, "--out", tmp_path / "replayed"] if command == "replay"
            else ["reduce", "--config", out / "resolved.cfg", "--out", out])
    with caplog.at_level("WARNING", logger="chanreduce.config"):
        assert run(*argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "ignoring unknown config section [output]"]


def test_a_rerun_prints_the_ignored_model_key_warning_once(tmp_path, caplog):
    # The rerun's check of the recorded settings builds the recorded model
    # without warning again; a rerun for another dataset is still refused.
    cfg = write_cfg(tmp_path, "[model]\nfamily = resnet18\ndataset = svhn\n")
    out = tmp_path / "out"
    argv = ["lesion", "--config", cfg, "--out", out, "--kind", "proportional",
            "--values", "1/2", "--indices", "1"]
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="chanreduce.config"):
            assert run(*argv) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring model.dataset: family resnet18 does not read it"]
    sequential = write_cfg(tmp_path, "[model]\ndataset = svhn\n", name="sequential.cfg")
    assert run(*argv[:2], sequential, *argv[3:]) == 2


def test_external_oracle_end_to_end(tmp_path):
    script = tmp_path / "trainer.py"
    script.write_text(textwrap.dedent("""\
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            top1 = (sum(req["channels"]) % 997) / 1000
            print(json.dumps({"run_id": req["run_id"], "status": "ok",
                              "top1": top1, "top5": min(1.0, top1 + 0.05),
                              "wall_seconds": 7.0}), flush=True)
        """))
    cfg = write_cfg(tmp_path, f"""\
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script}
        timeout_seconds = 60

        [search]
        delta = 0.05
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0

    payload = json.loads((out / "reduction.json").read_text())
    final = payload["final_evaluation"]
    assert final is not None and final["status"] == "ok"
    assert final["budget"]["epochs"] == 90
    assert "final top1 (full budget):" in (out / "summary.txt").read_text()

    # Replay needs no trainer at all and reproduces every byte.
    assert_replays(out)


# The summary of a reduce whose baseline evaluation fails: no block is searched
# and no final evaluation is asked for.
FAILED_BASELINE_SUMMARY = """\
command: reduce --budget search --direction backward
model: sequential-d2-8-16 dataset=cifar10 classes=10
oracle: external
delta: 0.01  metric: top1
budget: epochs=20 milestones=[8, 16]
macroblocks: 2  scope: []
baseline top1: unavailable
base: params=1586 bytes=6536 (0.0062 MB)
reduced: params=1586 bytes=6536 (0.0062 MB)
saving_percent: 0.0
oracle_calls: 1
probes: 1
diagnostic: baseline evaluation failed; no block was searched
"""


def test_reduce_with_a_failed_baseline(tmp_path):
    script = tmp_path / "trainer.py"
    script.write_text(textwrap.dedent("""\
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"run_id": req["run_id"], "status": "failed"}), flush=True)
        """))
    cfg = write_cfg(tmp_path, f"""\
        [model]
        depth = 2
        block_widths = 8, 16
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script}
        timeout_seconds = 60
        """)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 1
    assert (out / "summary.txt").read_bytes() == FAILED_BASELINE_SUMMARY.encode()
    assert json.loads((out / "reduction.json").read_text())["final_evaluation"] is None
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 1
    assert_replays(out, 1)


def pipe_trainer_cfg(tmp_path, reply, extra=""):
    """Config of the depth-6 ``8, 16`` model, trained over a pipe by a trainer
    that answers request ``req`` with the reply fields ``reply``, a Python
    expression; ``seen`` counts the requests for each channel vector so far,
    this one included. ``extra`` is appended to the config."""
    script = tmp_path / "trainer.py"
    script.write_text(textwrap.dedent(f"""\
        import collections, json, sys
        seen = collections.Counter()
        for line in sys.stdin:
            req = json.loads(line)
            seen[tuple(req["channels"])] += 1
            top1 = 0.9 * min(1.0, sum(req["channels"]) / 100)
            print(json.dumps(dict(run_id=req["run_id"], wall_seconds=1.0, **{reply})),
                  flush=True)
        """))
    return write_cfg(tmp_path, textwrap.dedent(f"""\
        [model]
        depth = 6
        block_widths = 8, 16
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {script}
        timeout_seconds = 60
        """) + extra)


def test_reduce_whose_baseline_lacks_the_metric_searches_and_trains_nothing_more(
        tmp_path, capsys, caplog):
    # An ok baseline without the search's metric is no usable baseline: no
    # block is searched, the run fails, and no final evaluation is trained.
    cfg = pipe_trainer_cfg(tmp_path, 'dict(status="ok", top1=top1)',
                           "[search]\nmetric = top5\n")
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.search"):
        assert run("reduce", "--config", cfg, "--out", out) == 1
    assert ("reduction (baseline record has no top5; no block was searched): "
            "betas [1.0, 1.0]") in capsys.readouterr().out
    assert [r.message for r in caplog.records if r.name == "chanreduce.search"] == \
        ["baseline record has no top5 (status ok)"]
    assert len((out / "ledger.jsonl").read_text().splitlines()) == 1
    assert json.loads((out / "reduction.json").read_text())["final_evaluation"] is None
    summary = (out / "summary.txt").read_text()
    assert "baseline top5: unavailable\n" in summary
    assert "diagnostic: baseline record has no top5; no block was searched\n" in summary
    assert "final" not in summary
    assert_replays(out, 1)


def test_reduce_names_a_failed_baseline_on_the_console(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SurrogateOracle", lambda *args: FailingOracle(
        cr.SurrogateOracle(*args), lambda config: True))
    out = tmp_path / "out"
    assert run("reduce", "--config", write_cfg(tmp_path), "--out", out) == 1
    assert capsys.readouterr().out == ("reduction (baseline evaluation failed; no block "
                                       f"was searched): betas [1.0, 1.0, 1.0] -> {out}\n")


def test_reduce_reports_a_final_record_without_the_metric_as_unavailable(tmp_path):
    cfg = pipe_trainer_cfg(
        tmp_path, 'dict(status="ok", top1=top1, top5=None if req["epochs"] == 90 else top1)',
        "[search]\nmetric = top5\n")
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    final = json.loads((out / "reduction.json").read_text())["final_evaluation"]
    assert final["status"] == "ok" and final["top5"] is None
    assert (out / "summary.txt").read_text().endswith(
        "final top5 (full budget): unavailable\n")
    assert_replays(out)


def test_rd_gives_no_composed_point_after_a_failed_baseline(tmp_path, caplog):
    # Each configuration's second request fails. That is each reduction's
    # baseline, as the alpha point comes first; no reduction searches, and the
    # unreduced scaled models are not trained again as composed points.
    cfg = pipe_trainer_cfg(tmp_path, 'dict(status="failed") if seen[tuple(req["channels"])] '
                                     '== 2 else dict(status="ok", top1=top1)')
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.rdcurve"):
        assert run("rd", "--alphas", "1", "0.5", "--config", cfg, "--out", out) == 0
    records = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records] == ["ok", "ok", "failed", "failed"]
    assert (out / "rd_curve.csv").read_text() == "label,size_bytes,params,top1,config_digest\n"
    assert len((out / "alpha_curve.csv").read_text().splitlines()) == 3
    assert "curve alpha+backward: 0 points\n" in (out / "summary.txt").read_text()
    assert [r.message for r in caplog.records if r.name == "chanreduce.rdcurve"] == [
        f"alpha={a} composed point status unsearched; point skipped" for a in (1, 0.5)]
    assert_replays(out)


def test_lesion_with_some_failed_evaluations(tmp_path, monkeypatch, caplog):
    # Every config whose last entry is below its nominal 16 fails.
    monkeypatch.setattr(cli, "SurrogateOracle", lambda *args: FailingOracle(
        cr.SurrogateOracle(*args), lambda c: c.channels[-1] < 16))
    cfg = write_cfg(tmp_path, "[model]\ndepth = 2\nblock_widths = 8, 16\n")
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="chanreduce.lesion"):
        assert run("lesion", "--config", cfg, "--out", out, "--kind", "constant",
                   "--values", "2", "4", "8", "--indices", "1", "2") == 0
    assert "failed: 3\n" in (out / "summary.txt").read_text()
    rows = (out / "onehot.csv").read_text().splitlines()
    assert rows[4:] == ["2,2,,failed", "2,4,,failed", "2,8,,failed"]
    assert all(row.endswith(",ok") for row in rows[1:4])
    warnings = [r.message for r in caplog.records if r.name == "chanreduce.lesion"]
    assert len(warnings) == 3
    assert all("status failed" in w for w in warnings)

    # Every evaluation failing is a failed run.
    assert run("lesion", "--config", cfg, "--out", tmp_path / "all", "--kind", "constant",
               "--values", "2", "4", "--indices", "2") == 1
    assert "failed: 2\n" in (tmp_path / "all" / "summary.txt").read_text()


def test_no_command_prints_usage_and_exits_2(capsys):
    assert run() == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("usage: chanreduce")


def test_a_run_directory_under_a_regular_file_fails_and_writes_nothing(tmp_path, capsys):
    # A usage error for every command that writes a run directory, replay --out too.
    cfg = write_cfg(tmp_path)
    source = tmp_path / "source"
    shutil.copytree(CORPUS / f"f{FORMAT}-s1-reduce-search", source)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    before = snapshot(source)
    for argv in [*([*command.split(), "--config", cfg] for command in RUNS),
                 ["replay", source]]:
        capsys.readouterr()
        assert run(*argv, "--out", blocker / "run") == 2
        assert (f"error: cannot make run directory {blocker / 'run'}: {blocker} is not a "
                f"directory") in capsys.readouterr().err
        assert blocker.read_text() == "kept" and snapshot(source) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.cfg", "source"]


@pytest.mark.parametrize("link", [False, True])
def test_an_exchange_directory_under_a_regular_file_fails_and_writes_nothing(tmp_path, capsys,
                                                                           link):
    # Every command that starts a files trainer is refused, as for its run directory,
    # whether the blocker is a regular file or a dangling link. A replay starts no
    # trainer and size evaluates nothing, so neither is refused.
    cfg, state = trainer_cfg(tmp_path, "files", 1)
    (state / "release").touch()
    blocker, exchange = tmp_path / "blocker", tmp_path / "blocker" / "exchange"
    cfg.write_text(cfg.read_text().replace(str(tmp_path / "exchange"), str(exchange)))
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    shutil.rmtree(blocker)
    if link:
        blocker.symlink_to(tmp_path / "missing")
    else:
        blocker.write_text("kept")
    before = sorted(tmp_path.iterdir())
    for command in RUNS[:3]:
        capsys.readouterr()
        assert run(*command.split(), "--config", cfg, "--out", tmp_path / "run") == 2
        assert (f"error: cannot make exchange directory {exchange}: {blocker} is not a "
                f"directory") in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
    assert blocker.is_symlink() if link else blocker.read_text() == "kept"
    assert_replays(out)
    assert run("size", "--config", cfg, "--out", tmp_path / "size") == 0


def test_an_error_in_the_middle_of_a_run_is_its_summary(tmp_path, monkeypatch, capsys):
    def append(self, record):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cr.EvaluationLedger, "append", append)
    out = tmp_path / "out"
    assert run("reduce", "--config", write_cfg(tmp_path), "--out", out) == 1
    assert capsys.readouterr().err.endswith("error: [Errno 28] No space left on device\n")
    assert (out / "summary.txt").read_text() == (
        "command: reduce --budget search --direction backward\nstatus: failed\n"
        "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("command,text,error", [
    ("size", "[model]\nfamily = mobilenet\nwidth_mult = 1.5\n", "cannot build model"),
    ("size", "[model]\nnum_classes = 0\n",
     "cannot build model: model num_classes must be >= 1, got 0"),
    ("size", "[model]\nresolution = -5\n",
     "cannot build model: model resolution must be >= 1, got -5"),
    ("reduce", "[oracle]\nkind = external\ntrainer_cmd = t\nparallelism = 0\n",
     "oracle.parallelism must be within [1, inf], got 0"),
    ("reduce", "[oracle]\nparallelism = -4\n",
     "oracle.parallelism must be within [1, inf], got -4"),
    ("reduce", "[oracle]\nkind = external\ntrainer_cmd = t\nprotocol = files\n",
     "files protocol needs an exchange directory"),
    ("lesion --kind proportional --values 1/2 --indices 99", "",
     "channel index 99 out of range 1..15"),
    ("rd --alphas 1.5", "", "scale factor must be in (0, 1], got 1.5"),
    ("rd --alphas 1e-7", "", "scale factor must be in (0, 1]"),
    *((f"rd --alphas {value}", "", f"error: cannot parse sweep value {value!r}")
      for value in ("abc", "1/0", "nan")),
    ("reduce", "[search]\nscope = 4\n", "search.scope must be within [1, 3]"),
    ("rd", "[search]\nscope = 4\n", "search.scope must be within [1, 3]"),
    ("reduce", "[budget]\nsearch_milestones = 30\n", "milestone 30 outside 1..19"),
    ("size", "[budget]\nfinal_milestones = 60, 30\n", "strictly increasing"),
    ("reduce", "[oracle]\nfrontiers = 1.5\n", "bad surrogate parameters: frontiers and "
     "weights must be non-empty and equally long"),
    ("reduce", "[search]\nscope = 0\n", "search.scope must be within [1, inf], got 0"),
    ("rd", "[search]\ndelta = -0.1\n", "search.delta must be within [0.0, 1.0], got -0.1"),
    ("reduce", "[search]\ndelta = 1.5\n", "search.delta must be within [0.0, 1.0], got 1.5"),
    ("reduce", "[oracle]\nkind = quantum\n",
     "oracle.kind must be surrogate|replay|external, got 'quantum'"),
    ("reduce", "[oracle]\nkind = external\n", "oracle.kind=external needs oracle.trainer_cmd"),
    ("reduce", "[oracle]\nkind = replay\n", "oracle.kind=replay needs oracle.ledger=<path>"),
    ("size", "[oracle]\nkind = replay\n", "oracle.kind=replay needs oracle.ledger=<path>"),
    *((command, text, f"{key} must be a number, got '{value}'")
      for key, value, text in [
          ("budget.lr_initial", "nan", "[budget]\nlr_initial = nan\n"),
          ("budget.momentum", "inf", "[budget]\nmomentum = inf\n"),
          ("oracle.timeout_seconds", "nan",
           "[oracle]\nkind = external\ntrainer_cmd = t\ntimeout_seconds = nan\n")]
      for command in ("reduce", "size")),
    *((f"lesion --kind {kind} --values {value}", "", error) for kind, value, error in [
        ("proportional", "2", "scale factor must be in (0, 1]"),
        ("proportional", "0", "scale factor must be in (0, 1]"),
        ("constant", "0", "positive integer widths"),
        ("constant", "1/2", "positive integer widths"),
        ("macroblock_scale", "3/2", "scale factor must be in (0, 1]"),
        ("constant", "999", "lesion width 999 exceeds entry 1's 16 channels"),
        ("proportional", "abc", "cannot parse sweep value 'abc'")]),
    # A macroblock sweep scales whole blocks; it would ignore --indices while
    # recording them in resolved.cfg.
    ("lesion --kind macroblock_scale --values 1/2 --indices 1", "",
     "indices pick channel entries"),
    # The surrogate reports top1 only, so no baseline could be used.
    ("reduce", "[search]\nmetric = top5\n", "the surrogate oracle reports no top5"),
    ("rd", "[search]\nmetric = top5\n", "the surrogate oracle reports no top5"),
    # A reduction returns the last feasible bound only.
    ("reduce", "[search]\nbeta_return_mode = last_midpoint\n",
     "search.beta_return_mode must be feasible_bound, got 'last_midpoint'"),
], ids=["unbuildable-model", "no-classes", "negative-resolution", "no-trainer-slots",
        "surrogate-parallelism-negative", "files-without-exchange-dir",
        "lesion-index-past-the-last", "rd-alpha-above-1", "rd-alpha-too-small-to-scale",
        "rd-alpha-abc", "rd-alpha-1/0", "rd-alpha-nan",
        "reduce-scope-past-the-blocks", "rd-scope-past-the-blocks",
        "search-milestone-past-the-epochs",
        "final-milestones-decreasing", "surrogate-frontiers-unmatched",
        "scope-0", "delta-negative", "delta-above-1", "unknown-oracle-kind",
        "external-without-trainer", "replay-without-ledger", "size-replay-without-ledger",
        "nan-lr-reduce", "nan-lr-size", "inf-momentum-reduce", "inf-momentum-size",
        "nan-timeout-reduce", "nan-timeout-size",
        "sweep-proportional-2", "sweep-proportional-0", "sweep-constant-0",
        "sweep-constant-1/2", "sweep-macroblock-3/2", "sweep-constant-above-the-nominal-width",
        "sweep-proportional-abc", "lesion-macroblock-with-indices",
        "reduce-surrogate-top5", "rd-surrogate-top5", "reduce-last-midpoint"])
def test_a_run_that_cannot_start_leaves_no_directory(tmp_path, capsys, command, text, error):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run(*command.split(), "--config", cfg, "--out", out) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["reduce", "replay"])
def test_an_out_naming_a_regular_file_exits_2_and_leaves_it(tmp_path, capsys, command):
    source = tmp_path / "source"
    shutil.copytree(CORPUS / f"f{FORMAT}-s1-reduce-search", source)
    cfg, afile, link = write_cfg(tmp_path), tmp_path / "afile", tmp_path / "link"
    afile.write_text("kept")
    link.symlink_to("nowhere")   # a dangling link is not a directory either
    argv = ["reduce", "--config", cfg] if command == "reduce" else ["replay", source]
    before = snapshot(source)
    for out in (afile, link):
        capsys.readouterr()
        assert run(*argv, "--out", out) == 2
        assert f"error: cannot make run directory {out}: {out} is not a directory" in \
            capsys.readouterr().err
    assert afile.read_text() == "kept" and snapshot(source) == before
    assert os.readlink(link) == "nowhere"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "link", "run.cfg", "source"]


def test_lesion_on_the_surrogate_does_not_read_the_search_metric(tmp_path):
    cfg = write_cfg(tmp_path, "[model]\ndepth = 2\nblock_widths = 8, 16\n"
                              "[search]\nmetric = top5\n")
    out = tmp_path / "out"
    assert run("lesion", "--config", cfg, "--out", out, "--kind", "constant",
               "--values", "4", "--indices", "1") == 0
    assert "failed: 0\n" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("module", ["chanreduce", "chanreduce.cli"])
def test_import_loads_every_traced_module(module):
    # The benchmark's tracer replaces a function only in the chanreduce modules
    # loaded when it installs, so a module that an import leaves for later
    # (a lazy package) would call the untraced function.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # -S leaves site-packages off sys.path, so the import also shows that
    # chanreduce needs nothing outside the standard library.
    traced = {module_name for _, module_name, _, _ in tracing.TARGETS}
    proc = subprocess.run([sys.executable, "-S", "-c",
                           f"import sys, {module}; print(*sys.modules)"],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert traced - set(proc.stdout.split()) == set()
    # Each target resolves as the tracer reads it: a plain name from its
    # module, a Class.method from the class's own namespace.
    for _, module_name, attr, _ in tracing.TARGETS:
        owner_name, _, leaf = attr.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        assert leaf in vars(owner), f"{module_name}.{attr}"


def test_the_installed_command_runs(tmp_path):
    # pyproject.toml's [project.scripts] entry, run as the wrapper an install
    # generates: import the named callable and exit with what it returns.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["chanreduce"]
    module, _, name = target.partition(":")
    wrapper = tmp_path / "bin" / "chanreduce"
    wrapper.parent.mkdir()
    wrapper.write_text(f"import sys\nfrom {module} import {name}\nsys.exit({name}())\n")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, wrapper, "size", "--config", write_cfg(tmp_path),
                           "--out", out], capture_output=True, text=True, env=src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "size.json").read_text())["parameter_count"] > 0


@pytest.mark.parametrize("argv", ["reduce", "rd --gnuplot --alphas 1 0.5",
                                  "lesion --kind constant --values 4 --indices 1 3",
                                  "lesion --kind macroblock_scale --values 1/2 3/4"],
                         ids=["reduce", "rd", "lesion-constant", "lesion-macroblock"])
def test_a_run_replays_on_the_bare_interpreter(tmp_path, argv):
    # A run directory must replay byte for byte on any supported Python with
    # only the standard library (-S), and every file chanreduce reads or writes
    # names its encoding: text I/O in the locale's encoding is an error here.
    bare = [sys.executable, "-S", "-X", "warn_default_encoding",
            "-W", "error::EncodingWarning", "-m", "chanreduce.cli"]
    cfg = write_cfg(tmp_path, "[model]\ndepth = 8\nblock_widths = 8, 16\n")
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    for args in ([*argv.split(), "--config", cfg, "--out", out],
                 ["replay", out, "--out", replayed]):
        proc = subprocess.run([*bare, *map(str, args)], capture_output=True, text=True,
                              env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert snapshot(replayed) == snapshot(out)


def test_summary_of_a_replay_missing_an_evaluation(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run("reduce", "--config", cfg, "--out", out) == 0
    (out / "ledger.jsonl").write_text("")
    assert run("replay", out) == 1
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert (out / "summary.txt").read_text() == (
        "command: reduce --budget search --direction backward\nstatus: failed\n"
        f"{error}\n")
