"""External trainer protocol: request shape, reply handling, failure modes."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import textwrap
import threading
import time
import warnings
from contextlib import closing

import pytest

import chanreduce as cr
from chanreduce import cli
from chanreduce.trainer import ExternalTrainerOracle, _record_from_reply, build_request

REQUEST_KEYS = {"run_id", "channels", "macroblock_starts", "dataset", "num_classes",
                "epochs", "lr_initial", "lr_milestones", "lr_divisor", "momentum",
                "weight_decay", "batch_size", "seed"}


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def _echo_trainer(tmp_path, capture=None):
    """Pipe-mode stub: replies ok with a width-derived top1; optionally logs
    every request line to ``capture``."""
    capture_line = ("    open(" + repr(str(capture)) + ", 'a').write(line)\n"
                    if capture is not None else "")
    body = ("import json, sys\n"
            "for line in sys.stdin:\n"
            + capture_line +
            "    req = json.loads(line)\n"
            "    top1 = (sum(req['channels']) % 997) / 1000\n"
            "    print(json.dumps({'run_id': req['run_id'], 'status': 'ok',\n"
            "                      'top1': top1, 'top5': min(1.0, top1 + 0.05),\n"
            "                      'wall_seconds': 12.5}), flush=True)\n")
    return _script(tmp_path, "echo_trainer.py", body)


@pytest.fixture
def d15_config(d15_spec):
    return cr.channel_config(d15_spec)


@pytest.fixture
def open_trainer(tmp_path, d15_spec):
    """Opens an oracle for d15 on ``[sys.executable, script]`` with a 30 s timeout
    and ``tmp_path / "exchange"`` for ``files`` requests, unless told otherwise,
    and closes every oracle it opened at teardown."""
    opened = []

    def open_trainer(script, **options):
        opened.append(ExternalTrainerOracle(
            [sys.executable, str(script)], d15_spec,
            **{"timeout": 30.0, "exchange_dir": tmp_path / "exchange", **options}))
        return opened[-1]

    yield open_trainer
    for oracle in opened:
        oracle.close()


def test_build_request_fields(d15_spec, d15_config):
    req = build_request("abc-0001", d15_config, d15_spec, cr.SEARCH_BUDGET)
    assert set(req) == REQUEST_KEYS
    assert req["run_id"] == "abc-0001"
    assert req["channels"] == [3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32,
                               64, 64, 64, 64, 64]
    assert req["macroblock_starts"] == [1, 6, 11]
    assert req["dataset"] == "cifar10"
    assert req["num_classes"] == 10
    assert req["epochs"] == 20
    assert req["lr_milestones"] == [8, 16]
    assert (req["lr_initial"], req["lr_divisor"]) == (0.1, 10.0)
    assert (req["momentum"], req["weight_decay"]) == (0.9, 1e-4)
    assert req["batch_size"] == 128
    assert req["seed"] == 0


# sha256 of the wire form of nine requests, one per line: each budget below at
# alpha 1, 0.75 and 0.3 of the nominal widths.
REQUEST_BUDGETS = [cr.SEARCH_BUDGET, cr.FINAL_BUDGET,
                   cr.TrainingBudget(epochs=7, lr_initial=0.05, lr_milestones=(3,),
                                     batch_size=32, seed=4)]
REQUEST_SHA256 = {
    "d15": "e92620877615dbf61cbf61602bf95318d3865c7c19cb9318df6c60aa78d2b398",
    "resnet34": "05c3c8197b96796e65d00e27871898c7a547ba836dc7621e7cb6fcb69dc17948",
    "mobilenet-0.5": "5e160adb166e03f5c55ba12038ab089c2e1f7b9b64e3a3ad72968d28aefbea09",
}


@pytest.mark.parametrize("model", sorted(REQUEST_SHA256))
def test_build_request_bytes_golden(model):
    spec = {"d15": lambda: cr.build_sequential_cnn(15, [16, 32, 64]), "resnet34": cr.resnet34,
            "mobilenet-0.5": lambda: cr.mobilenet(0.5)}[model]()
    lines = [json.dumps(build_request("x-1", cr.apply_alpha_scaling(cr.channel_config(spec),
                                                                    alpha), spec, budget),
                        sort_keys=True)
             for budget in REQUEST_BUDGETS for alpha in (1, 0.75, 0.3)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REQUEST_SHA256[model]


@pytest.mark.parametrize("protocol", ["pipe", "files"])
def test_each_protocol_sends_the_key_sorted_request_line(tmp_path, d15_spec, d15_config,
                                                         open_trainer, protocol):
    # The trainer keeps the bytes it was sent: its stdin line, or its request file.
    sent = tmp_path / "sent"
    script = _script(tmp_path, "keeper.py", f"""\
        import json, sys
        files = len(sys.argv) == 3
        data = open(sys.argv[1], "rb").read() if files else sys.stdin.buffer.readline()
        open({str(sent)!r}, "wb").write(data)
        reply = json.dumps({{"run_id": json.loads(data)["run_id"], "status": "ok", "top1": 0.5}})
        print(reply, file=open(sys.argv[2], "w") if files else sys.stdout, flush=True)
        """)
    assert open_trainer(script, protocol=protocol).evaluate(d15_config, cr.FINAL_BUDGET).ok
    data = sent.read_bytes()
    request = build_request(json.loads(data)["run_id"], d15_config, d15_spec, cr.FINAL_BUDGET)
    assert data == (json.dumps(request, sort_keys=True) + "\n").encode()


def test_pipe_round_trip(tmp_path, d15_spec, d15_config, open_trainer):
    capture = tmp_path / "requests.log"
    oracle = open_trainer(_echo_trainer(tmp_path, capture))
    rec = oracle.evaluate(d15_config, cr.SEARCH_BUDGET)
    rec2 = oracle.evaluate(d15_config, cr.FINAL_BUDGET)

    expected = (sum(d15_config.channels) % 997) / 1000
    assert rec.ok and rec.top1 == expected
    assert rec.top5 == pytest.approx(expected + 0.05)
    assert rec.wall_seconds == 12.5
    assert rec.config_digest == cr.config_digest(d15_config, d15_spec)

    sent = [json.loads(l) for l in capture.read_text().splitlines()]
    assert len(sent) == 2
    assert sent[0]["run_id"].endswith("-0001") and sent[1]["run_id"].endswith("-0002")
    assert sent[0]["run_id"][:12] == rec.config_digest[:12]
    assert sent[0]["epochs"] == 20 and sent[1]["epochs"] == 90
    assert set(sent[0]) == REQUEST_KEYS
    assert rec2.ok


def test_pipe_skips_stale_reply(tmp_path, d15_config, open_trainer):
    script = _script(tmp_path, "stale.py", """\
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"run_id": "stale-0000", "status": "ok",
                              "top1": 0.1, "top5": 0.2, "wall_seconds": 1.0}), flush=True)
            print(json.dumps({"run_id": req["run_id"], "status": "ok",
                              "top1": 0.8, "top5": 0.9, "wall_seconds": 1.0}), flush=True)
        """)
    rec = open_trainer(script).evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.ok and rec.top1 == 0.8


def test_pipe_garbage_reply_fails(tmp_path, d15_config, open_trainer):
    # A line that starts with "{" is a reply: if it does not parse, the
    # evaluation fails at once, without waiting for the timeout.
    script = _script(tmp_path, "garbage.py", """\
        import sys
        for line in sys.stdin:
            print("{ not json", flush=True)
        """)
    rec = open_trainer(script).evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.status == cr.STATUS_FAILED
    assert not rec.ok and rec.top1 is None
    assert "unparseable trainer reply" in rec.note


def test_pipe_skips_the_trainers_own_log_lines(tmp_path, d15_config, open_trainer):
    # Training scripts often log to stdout. A line that does not start with "{",
    # a blank one or a JSON value other than an object included, is skipped, so
    # the reply after it is taken and the worker stays up.
    starts = tmp_path / "starts"
    script = _script(tmp_path, "noisy.py", f"""\
        import json, sys
        open({str(starts)!r}, "a").write("start\\n")
        for line in sys.stdin:
            req = json.loads(line)
            print("Epoch 1/20 loss=2.3", flush=True)
            print("", flush=True)
            print("[1, 2]", flush=True)
            print(json.dumps({{"run_id": req["run_id"], "status": "ok",
                               "top1": 0.8, "top5": 0.9, "wall_seconds": 1.0}}), flush=True)
        """)
    oracle = open_trainer(script)
    records = [oracle.evaluate(d15_config, cr.SEARCH_BUDGET) for _ in range(2)]
    assert [(r.status, r.top1) for r in records] == [(cr.STATUS_OK, 0.8)] * 2
    assert starts.read_text() == "start\n"


@pytest.mark.parametrize("reply,expect", [
    ({"status": "weird", "top1": 0.5}, "unknown trainer status"),
    ({"status": "ok", "top1": 0.9, "top5": 0.5}, "bad accuracy fields"),
    ({"status": "ok"}, "bad accuracy fields"),
    ({"status": "ok", "top1": True}, "bad accuracy fields"),
    ({"status": "ok", "top1": "0.9"}, "bad accuracy fields"),
    ({"status": "ok", "top1": 0.8, "top5": True}, "bad accuracy fields"),
])
def test_pipe_bad_replies_fail(tmp_path, d15_config, reply, expect, open_trainer):
    script = _script(tmp_path, "bad.py", f"""\
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            out = dict({reply!r})
            out["run_id"] = req["run_id"]
            out.setdefault("wall_seconds", 1.0)
            print(json.dumps(out), flush=True)
        """)
    rec = open_trainer(script).evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.status == cr.STATUS_FAILED
    assert expect in rec.note


def test_a_bool_wall_seconds_falls_back_to_the_measured_time():
    reply = {"status": "ok", "top1": 0.8, "wall_seconds": True}
    assert _record_from_reply(reply, "d" * 64, cr.SEARCH_BUDGET, 0.25).wall_seconds == 0.25


@pytest.mark.parametrize("wall", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_wall_seconds_falls_back_to_the_measured_time(tmp_path, d15_config, wall,
                                                                   open_trainer):
    # Python's json reads and writes these tokens; no ledger line may carry one.
    script = _script(tmp_path, "nan.py", f"""\
        import json, sys
        for line in sys.stdin:
            run_id = json.dumps(json.loads(line)["run_id"])
            print('{{"run_id": ' + run_id + ', "status": "ok", "top1": 0.8, '
                  '"wall_seconds": {wall}}}', flush=True)
        """)
    rec = open_trainer(script).evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.ok and rec.top1 == 0.8
    assert 0 <= rec.wall_seconds < 30
    json.dumps(rec.to_dict(), allow_nan=False)


# Each trainer below reads its request from stdin (pipe) or from the file its
# first argument names (files), then runs its body; None is a command that cannot
# be started. A case is called as often as it says, and each call before the last
# must be answered ok.
UNREACHABLE = "[Errno 2] No such file or directory: '/nonexistent/trainer-binary'"
SERVE_ONE_THEN_STOP_READING = ("os.close(0)\nprint(json.dumps({'run_id': req['run_id'], "
                               "'status': 'ok', 'top1': 0.5}), flush=True)\ntime.sleep(30)")
BRIDGE_FAILURES = {   # case: protocol, body, calls, status, note
    "pipe-cannot-start": ("pipe", None, 1, cr.STATUS_FAILED,
                          f"trainer unreachable: {UNREACHABLE}"),
    "files-cannot-start": ("files", None, 1, cr.STATUS_FAILED,
                           f"trainer unreachable: {UNREACHABLE}"),
    "pipe-cannot-be-sent-its-request": ("pipe", SERVE_ONE_THEN_STOP_READING, 2,
                                        cr.STATUS_FAILED,
                                        "trainer unreachable: [Errno 32] Broken pipe"),
    "pipe-exits-before-replying": ("pipe", "sys.exit(0)", 1, cr.STATUS_FAILED,
                                   "trainer exited with code 0 before replying"),
    "files-exits-before-replying": ("files", "sys.exit(0)", 1, cr.STATUS_FAILED,
                                    "trainer wrote no response file"),
    "pipe-exits-non-zero": ("pipe", "sys.exit(3)", 1, cr.STATUS_FAILED,
                            "trainer exited with code 3 before replying"),
    "files-exits-non-zero": ("files", "sys.exit(3)", 1, cr.STATUS_FAILED,
                             "trainer exited with code 3"),
    "pipe-closes-its-output": ("pipe", "os.close(1)\ntime.sleep(30)", 1, cr.STATUS_FAILED,
                               "trainer closed its output before replying"),
    "pipe-deadline-passes": ("pipe", "time.sleep(30)", 1, cr.STATUS_TIMEOUT,
                             "no trainer reply within 1s"),
    "files-deadline-passes": ("files", "time.sleep(30)", 1, cr.STATUS_TIMEOUT,
                              "trainer run exceeded 1s"),
}


@pytest.mark.parametrize("case", BRIDGE_FAILURES)
def test_a_failure_the_bridge_detects_is_timeout_only_past_its_deadline(
        tmp_path, d15_spec, d15_config, case):
    protocol, body, calls, status, note = BRIDGE_FAILURES[case]
    command = "/nonexistent/trainer-binary"
    if body is not None:
        command = [sys.executable, str(_script(tmp_path, "trainer.py", (
            "import json, os, sys, time\n"
            "text = open(sys.argv[1], encoding='utf-8').read() if sys.argv[1:] else input()\n"
            "req = json.loads(text)\n"
            + body + "\n")))]
    timeout = 1.0 if status == cr.STATUS_TIMEOUT else 30.0
    with closing(ExternalTrainerOracle(command, d15_spec, protocol=protocol, timeout=timeout,
                                       exchange_dir=tmp_path / "exchange")) as oracle:
        records = [oracle.evaluate(d15_config, cr.SEARCH_BUDGET) for _ in range(calls)]
    assert all(r.ok for r in records[:-1])
    assert (records[-1].status, records[-1].note, records[-1].top1) == (status, note, None)


@pytest.mark.parametrize("protocol", ["pipe", "files"])
@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
def test_a_trainer_killed_by_a_stop_signal_stops_the_run(tmp_path, d15_spec, d15_config,
                                                         signame, protocol, open_trainer):
    # The signal that stops the run reached the trainer first: its death is no
    # answer, so nothing is recorded and a rerun trains it again.
    script = _script(tmp_path, "stopped.py", f"""\
        import os, signal, sys
        if len(sys.argv) == 1:
            sys.stdin.readline()   # the request was sent
        signal.signal(signal.{signame}, signal.SIG_DFL)
        os.kill(os.getpid(), signal.{signame})
        """)
    ledger = cr.EvaluationLedger(tmp_path / "ledger.jsonl")
    oracle = cr.RecordingOracle(open_trainer(script, protocol=protocol), ledger, d15_spec)
    with pytest.raises(KeyboardInterrupt):
        oracle.evaluate(d15_config, cr.SEARCH_BUDGET)
    assert len(ledger) == 0


@pytest.mark.parametrize("protocol", ["pipe", "files"])
def test_a_closed_oracle_dispatches_nothing(tmp_path, d15_config, protocol, open_trainer):
    # Each start of the trainer appends a line to STARTS.
    starts = tmp_path / "starts"
    script = _script(tmp_path, "counted.py", f"""\
        import json, sys
        open({str(starts)!r}, "a").write("started\\n")
        files = len(sys.argv) == 3
        for line in [open(sys.argv[1]).read()] if files else sys.stdin:
            reply = json.dumps({{"run_id": json.loads(line)["run_id"], "status": "ok",
                                "top1": 0.5}})
            print(reply, file=open(sys.argv[2], "w") if files else sys.stdout, flush=True)
        """)
    oracle = open_trainer(script, protocol=protocol)
    assert oracle.evaluate(d15_config, cr.SEARCH_BUDGET).ok
    oracle.close()
    for _ in range(2):
        with pytest.raises(KeyboardInterrupt):
            oracle.evaluate(d15_config, cr.SEARCH_BUDGET)
    assert starts.read_text() == "started\n"
    assert len(list((tmp_path / "exchange").glob("*.request.json"))) == (protocol == "files")


@pytest.mark.parametrize("protocol", ["pipe", "files"])
def test_close_during_calls_leaves_no_trainer(tmp_path, d15_config, protocol, open_trainer):
    # Six threads keep three slots busy, so close() meets busy and idle workers,
    # calls about to start a trainer and calls just answered. Every thread stops,
    # every trainer started, each of which names itself in PIDS, has ended and
    # been reaped, and no pipe worker holds its pipes. Five rounds, as one close()
    # meets only some of these cases.
    pids = tmp_path / "pids"
    pids.mkdir()
    script = _script(tmp_path, "quick.py", f"""\
        import json, os, sys
        open(os.path.join({str(pids)!r}, str(os.getpid())), "w").close()
        files = len(sys.argv) == 3
        for line in [open(sys.argv[1]).read()] if files else sys.stdin:
            reply = json.dumps({{"run_id": json.loads(line)["run_id"], "status": "ok",
                                "top1": 0.5}})
            print(reply, file=open(sys.argv[2], "w") if files else sys.stdout, flush=True)
        """)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            oracle = open_trainer(script, protocol=protocol, parallelism=3)
            stopped = []

            def evaluate_until_stopped():
                try:
                    while True:
                        assert oracle.evaluate(d15_config, cr.SEARCH_BUDGET).ok
                except KeyboardInterrupt:
                    stopped.append(True)

            threads = [threading.Thread(target=evaluate_until_stopped) for _ in range(6)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            oracle.close()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(stopped) == 6
            if protocol == "pipe":   # closed by close() or by the call that held it
                assert [w.proc for w in oracle._all] == [None] * 3
    finally:
        sys.setswitchinterval(interval)
    for pid in pids.iterdir():
        with pytest.raises(ProcessLookupError):   # no process, not even a zombie
            os.kill(int(pid.name), 0)


def test_pipe_workers_release_their_pipes(tmp_path, d15_spec, d15_config):
    """A worker that exits after each reply is respawned, and neither the
    respawn nor close() leaves a pipe open."""
    script = _script(tmp_path, "one_shot.py", """\
        import json, sys
        req = json.loads(sys.stdin.readline())
        print(json.dumps({"run_id": req["run_id"], "status": "ok", "top1": 0.5}),
              flush=True)
        """)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        oracle = ExternalTrainerOracle([sys.executable, str(script)], d15_spec,
                                       timeout=30.0)
        records = []
        for _ in range(3):
            records.append(oracle.evaluate(d15_config, cr.SEARCH_BUDGET))
            # Let the worker exit, so the next call finds it dead and respawns it.
            oracle._workers.queue[0].proc.wait(timeout=10)
        oracle.close()
        del oracle
        gc.collect()
    assert all(r.ok for r in records)
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_pipe_recovers_after_kill(tmp_path, d15_config, open_trainer):
    # A garbage reply kills the worker; the next call gets a fresh one.
    flag = tmp_path / "first_call_done"
    script = _script(tmp_path, "flaky.py", f"""\
        import json, os, sys
        flag = {str(flag)!r}
        for line in sys.stdin:
            req = json.loads(line)
            if not os.path.exists(flag):
                open(flag, "w").close()
                print("{{garbage", flush=True)
            else:
                print(json.dumps({{"run_id": req["run_id"], "status": "ok",
                                   "top1": 0.6, "top5": 0.7,
                                   "wall_seconds": 2.0}}), flush=True)
        """)
    oracle = open_trainer(script)
    first = oracle.evaluate(d15_config, cr.SEARCH_BUDGET)
    second = oracle.evaluate(d15_config, cr.SEARCH_BUDGET)
    assert first.status == cr.STATUS_FAILED
    assert second.ok and second.top1 == 0.6


def test_parallel_pipe_workers(tmp_path, d15_config, open_trainer):
    oracle = open_trainer(_echo_trainer(tmp_path), parallelism=2)
    assert oracle.parallel_slots == 2
    records = [oracle.evaluate(d15_config, cr.SEARCH_BUDGET) for _ in range(4)]
    assert all(r.ok for r in records)


def test_sequential_calls_keep_one_warm_worker(tmp_path, d15_spec, d15_config, open_trainer):
    # Each worker logs its pid once at start and holds every reply for 20 ms,
    # so a lesion sweep's two threads overlap and start the second worker.
    pids = tmp_path / "pids.log"
    script = _script(tmp_path, "pid_trainer.py", f"""\
        import json, os, sys, time
        open({str(pids)!r}, "a").write(f"{{os.getpid()}}\\n")
        for line in sys.stdin:
            time.sleep(0.02)
            req = json.loads(line)
            print(json.dumps({{"run_id": req["run_id"], "status": "ok", "top1": 0.5}}),
                  flush=True)
        """)

    def workers_started(run):
        pids.unlink(missing_ok=True)
        oracle = open_trainer(script, parallelism=2)
        assert all(r.ok for r in run(oracle))
        return len(pids.read_text().split())

    assert workers_started(lambda o: [o.evaluate(d15_config, cr.SEARCH_BUDGET)
                                      for _ in range(4)]) == 1
    plan = cr.SweepPlan(kind=cr.SWEEP_CONSTANT, values=(4, 8), indices=(1, 2, 3))
    assert workers_started(lambda o: [obs.record for obs in
                                      cr.run_onehot_sweep(d15_spec, plan, o)]) == 2


def test_files_round_trip(tmp_path, d15_config, open_trainer):
    script = _script(tmp_path, "file_trainer.py", """\
        import json, sys
        req = json.load(open(sys.argv[1]))
        json.dump({"run_id": req["run_id"], "status": "ok", "top1": 0.71,
                   "top5": 0.88, "wall_seconds": 3.0}, open(sys.argv[2], "w"))
        """)
    exchange = tmp_path / "exchange"
    rec = open_trainer(script, protocol="files").evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.ok and rec.top1 == 0.71
    assert list(exchange.glob("*.request.json"))      # request left on disk


def test_files_rerun_ignores_stale_response(tmp_path, d15_config, open_trainer):
    """A second oracle on the same exchange_dir whose trainer crashes before
    writing must not pick up the first run's response."""
    good = _script(tmp_path, "file_trainer.py", """\
        import json, sys
        req = json.load(open(sys.argv[1]))
        json.dump({"run_id": req["run_id"], "status": "ok", "top1": 0.71},
                  open(sys.argv[2], "w"))
        """)
    crash = _script(tmp_path, "crash.py", "import sys\nsys.exit(3)\n")
    records = [open_trainer(script, protocol="files").evaluate(d15_config, cr.SEARCH_BUDGET)
               for script in (good, crash)]
    assert records[0].ok and records[0].top1 == 0.71
    assert records[1].status == cr.STATUS_FAILED and records[1].top1 is None
    assert "exited with code 3" in records[1].note


def _non_utf8_trainer(tmp_path):
    """Files-mode trainer whose response starts with a UTF-16 byte-order mark."""
    return _script(tmp_path, "bom_trainer.py", """\
        import json, sys
        req = json.load(open(sys.argv[1]))
        reply = json.dumps({"run_id": req["run_id"], "status": "ok", "top1": 0.9})
        open(sys.argv[2], "wb").write(b"\\xff\\xfe" + reply.encode())
        """)


def test_files_non_utf8_response_fails(tmp_path, d15_config, open_trainer):
    rec = open_trainer(_non_utf8_trainer(tmp_path), protocol="files").evaluate(
        d15_config, cr.SEARCH_BUDGET)
    # The byte-order mark decodes to replacement characters, so the reply line
    # does not start with "{" and is skipped like any other trainer output.
    assert rec.status == cr.STATUS_FAILED and rec.top1 is None
    assert rec.note == "no response line with matching run_id"


def test_files_non_utf8_response_is_a_failed_baseline_in_the_cli(tmp_path):
    # The undecodable reply is a failed baseline (exit 1) with its record in
    # the ledger, not a configuration error (exit 2).
    cfg = tmp_path / "run.cfg"
    cfg.write_text(textwrap.dedent(f"""\
        [oracle]
        kind = external
        trainer_cmd = {sys.executable} {_non_utf8_trainer(tmp_path)}
        protocol = files
        exchange_dir = {tmp_path / "exchange"}
        timeout_seconds = 60
        """))
    out = tmp_path / "out"
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 1
    records = [json.loads(line) for line in (out / "ledger.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records] == ["failed"]
    assert records[0]["note"] == "no response line with matching run_id"


def test_files_failure_note_keeps_stderr_tail(tmp_path, d15_config, open_trainer):
    crash = _script(tmp_path, "oom.py", """\
        import sys
        for i in range(8):
            print(f"epoch {i}", file=sys.stderr)
        print("CUDA error: out of memory", file=sys.stderr)
        sys.exit(3)
        """)
    chatty = _script(tmp_path, "chatty.py", """\
        import sys
        print("x" * 5000, file=sys.stderr)
        """)
    records = [open_trainer(script, protocol="files").evaluate(d15_config, cr.SEARCH_BUDGET)
               for script in (crash, chatty)]
    assert records[0].status == cr.STATUS_FAILED
    assert records[0].note == ("trainer exited with code 3; stderr: epoch 4 | epoch 5 | "
                               "epoch 6 | epoch 7 | CUDA error: out of memory")
    # A long tail is cut to its last 500 characters.
    assert records[1].note == "trainer wrote no response file; stderr: " + "x" * 500


def test_files_timeout_note_keeps_stderr_tail(tmp_path, d15_config, open_trainer):
    hang = _script(tmp_path, "hang.py", """\
        import sys, time
        print("epoch 0", file=sys.stderr)
        print("waiting for a GPU", file=sys.stderr, flush=True)
        time.sleep(30)
        """)
    rec = open_trainer(hang, protocol="files", timeout=1.0).evaluate(d15_config,
                                                                     cr.SEARCH_BUDGET)
    assert rec.status == cr.STATUS_TIMEOUT
    assert rec.note == "trainer run exceeded 1s; stderr: epoch 0 | waiting for a GPU"


def test_files_trainer_takes_a_timeout_too_long_for_one_poll(tmp_path, d15_config,
                                                             open_trainer):
    # 1e7 s in milliseconds overflows the C int one poll() call takes; the pipe
    # protocol already waits in slices and takes it too.
    script = _script(tmp_path, "file_trainer.py", """\
        import json, sys
        req = json.load(open(sys.argv[1]))
        json.dump({"run_id": req["run_id"], "status": "ok", "top1": 0.71},
                  open(sys.argv[2], "w"))
        """)
    rec = open_trainer(script, protocol="files", timeout=1e7).evaluate(d15_config,
                                                                       cr.SEARCH_BUDGET)
    assert rec.ok and rec.top1 == 0.71


def test_files_mode_runs_at_most_parallelism_trainers(tmp_path, d15_config, open_trainer):
    # Each invocation leaves a mark in running/ while it runs and logs how many
    # marks it sees when it starts and before it ends.
    running, seen = tmp_path / "running", tmp_path / "seen.log"
    running.mkdir()
    script = _script(tmp_path, "slow.py", f"""\
        import json, os, sys, time
        running, seen = {str(running)!r}, {str(seen)!r}
        mark = os.path.join(running, str(os.getpid()))
        open(mark, "w").close()
        for _ in range(2):
            with open(seen, "a") as fh:
                fh.write(str(len(os.listdir(running))) + "\\n")
            time.sleep(0.2)
        req = json.load(open(sys.argv[1]))
        json.dump({{"run_id": req["run_id"], "status": "ok", "top1": 0.5}},
                  open(sys.argv[2], "w"))
        os.remove(mark)
        """)
    oracle = open_trainer(script, parallelism=2, protocol="files")
    records = []
    threads = [threading.Thread(
        target=lambda: records.append(oracle.evaluate(d15_config, cr.SEARCH_BUDGET)))
        for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [r.status for r in records] == [cr.STATUS_OK] * 6
    counts = [int(line) for line in seen.read_text().split()]
    assert len(counts) == 12 and max(counts) <= 2


def test_constructor_validation(d15_spec):
    with pytest.raises(ValueError):
        ExternalTrainerOracle("x", d15_spec, parallelism=0)
    with pytest.raises(ValueError):
        ExternalTrainerOracle("x", d15_spec, protocol="smoke-signals")
    with pytest.raises(ValueError):
        ExternalTrainerOracle("x", d15_spec, protocol="files")   # no exchange_dir


def test_constructor_rejects_a_zero_timeout(d15_spec):
    # Nor any other timeout that is not a finite number > 0: select() would
    # raise on NaN inside evaluate, where a failure must become a record.
    for timeout in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"timeout must be a finite number > 0, got "):
            ExternalTrainerOracle("x", d15_spec, timeout=timeout)


@pytest.mark.parametrize("status", [cr.STATUS_FAILED, cr.STATUS_TIMEOUT])
@pytest.mark.parametrize("note", [None, "CUDA error: out of memory"])
def test_pipe_failure_reported_by_the_trainer(tmp_path, d15_config, status, note,
                                              open_trainer):
    extra = {} if note is None else {"note": note}
    script = _script(tmp_path, "reporter.py", f"""\
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            out = dict(run_id=req["run_id"], status={status!r}, wall_seconds=7.0,
                       **{extra!r})
            print(json.dumps(out), flush=True)
        """)
    rec = open_trainer(script).evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.status == status and rec.top1 is None and rec.top5 is None
    assert rec.wall_seconds == 7.0
    assert rec.note == (note or f"trainer reported {status}")


def test_files_response_without_a_matching_line_fails(tmp_path, d15_config, open_trainer):
    script = _script(tmp_path, "other_run.py", """\
        import json, sys
        reply = json.dumps({"run_id": "someone-else-0001", "status": "ok", "top1": 0.9})
        open(sys.argv[2], "w").write("\\n  \\n" + reply + "\\n\\n")
        """)
    rec = open_trainer(script, protocol="files").evaluate(d15_config, cr.SEARCH_BUDGET)
    assert rec.status == cr.STATUS_FAILED and rec.top1 is None
    assert rec.note == "no response line with matching run_id"


def test_waiting_for_a_busy_worker_is_not_trainer_time(tmp_path, d15_config, open_trainer):
    # One worker: the first request holds it for 0.6 s and its reply names no
    # wall_seconds; the second request waits for it, then the worker exits.
    script = _script(tmp_path, "slow_then_crash.py", """\
        import json, sys, time
        req = json.loads(sys.stdin.readline())
        time.sleep(0.6)
        print(json.dumps({"run_id": req["run_id"], "status": "ok", "top1": 0.5}),
              flush=True)
        sys.stdin.readline()
        sys.exit(3)
        """)
    oracle = open_trainer(script, parallelism=1)
    records = {}

    def evaluate(key):
        records[key] = oracle.evaluate(d15_config, cr.SEARCH_BUDGET)

    first = threading.Thread(target=evaluate, args=("first",))
    first.start()
    time.sleep(0.1)
    evaluate("second")
    first.join()
    assert records["first"].ok and records["first"].wall_seconds >= 0.6
    assert records["second"].note == "trainer exited with code 3 before replying"
    assert records["second"].wall_seconds < 0.3
