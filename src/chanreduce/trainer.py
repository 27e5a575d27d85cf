"""Bridge to an external training worker over a line-delimited JSON protocol.

One key-sorted JSON request line on the worker's stdin, one reply per line on its
stdout (``pipe`` mode), or the same line as a request file handed to a fresh worker
invocation with the response path to write (``files`` mode: one per request).

Request fields:
    run_id, channels, macroblock_starts, dataset, num_classes, and the fields
    of the budget the ledger records with the evaluation, except optimizer
Response fields:
    run_id, status, top1, top5, wall_seconds

Unknown fields in a reply are ignored; the run_id must echo the request. A line
not starting with ``{`` is the worker's own output and is skipped. A reply that
never arrives (dead or unreachable worker, deadline passed) yields status
``timeout``; a ``{`` line that cannot be parsed, and a ``files`` worker that
exits non-zero, yield status ``failed``. A ``files`` failure's note ends with
the last lines the worker wrote to stderr. Neither aborts a caller: failures
surface as infeasible probes. A stop is no failure: a worker killed by one of
``STOP_SIGNALS``, or any call once ``close`` ends every trainer, raises
``KeyboardInterrupt`` and nothing is recorded. A record's ``wall_seconds`` is
the trainer's own figure, else the time since a worker took the request;
waiting for a busy worker never counts as trainer time.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import queue
import select
import shlex
import signal
import subprocess
import threading
import time
from pathlib import Path

from .arch import ChannelConfig, ModelSpec
from .oracle import (_STATUSES, STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, EvaluationRecord,
                     TrainingBudget, config_digest)

log = logging.getLogger(__name__)

PROTOCOL_PIPE = "pipe"
PROTOCOL_FILES = "files"
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)   # a Ctrl-C, and what kill and schedulers send


def build_request(run_id: str, config: ChannelConfig, spec: ModelSpec,
                  budget: TrainingBudget) -> dict:
    """Assemble one protocol request. Field names are part of the wire format."""
    request = {"run_id": run_id, **config.to_dict(), "dataset": spec.meta.dataset,
               "num_classes": spec.meta.num_classes, **budget.to_dict()}
    del request["optimizer"]  # not part of the protocol
    return request


class _ReplyError(Exception):
    def __init__(self, status: str, note: str, code: int = 0):
        self.status, self.note, self.code = status, note, code   # code: the trainer's exit code


def _parse_reply(line: str, run_id: str) -> dict | None:
    """Parsed reply for our run_id; None for a stale reply or a line not starting with ``{``."""
    if not line.lstrip().startswith("{"):
        return None
    try:
        reply = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _ReplyError(STATUS_FAILED, f"unparseable trainer reply: {exc}")
    if reply.get("run_id") != run_id:
        log.warning("ignoring stale trainer reply line %r", line[:80])
        return None
    return reply


def _record_from_reply(reply: dict, digest: str, budget: TrainingBudget,
                       elapsed: float) -> EvaluationRecord:
    status = reply.get("status")
    if status not in _STATUSES:
        return EvaluationRecord(digest, budget, None, None, elapsed, STATUS_FAILED,
                                note=f"unknown trainer status {status!r}")
    top1, top5 = reply.get("top1"), reply.get("top5")
    wall = reply.get("wall_seconds")
    # A finite JSON number, not a bool, NaN or Infinity; else the measured time.
    wall = float(wall) if type(wall) in (int, float) and math.isfinite(wall) else elapsed
    if status == STATUS_OK:
        try:
            if {type(top1), type(top5)} - {int, float, type(None)}:
                raise TypeError(f"accuracies must be JSON numbers, got {top1!r} and {top5!r}")
            return EvaluationRecord(digest, budget, float(top1),
                                    None if top5 is None else float(top5),
                                    wall, STATUS_OK)
        except (TypeError, ValueError) as exc:
            return EvaluationRecord(digest, budget, None, None, wall, STATUS_FAILED,
                                    note=f"bad accuracy fields in trainer reply: {exc}")
    return EvaluationRecord(digest, budget, None, None, wall, status,
                            note=reply.get("note") or f"trainer reported {status}")


def _stderr_tail(stderr: bytes | None) -> str:
    """A failure note's suffix: the trainer's last 5 stderr lines, at most 500 characters."""
    lines = (stderr or b"").decode("utf-8", errors="replace").strip().splitlines()
    tail = " | ".join(line.strip() for line in lines[-5:])[-500:]
    return f"; stderr: {tail}" if tail else ""


class _PipeWorker:
    """One persistent child process speaking the line protocol, started on its
    first request and again after it dies or is killed."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc, self.ended = None, False   # ended: set by ExternalTrainerOracle.close
        self._buffer = b""

    def call(self, run_id: str, line: str, timeout: float) -> dict:
        """Send one request line and return its reply, skipping log and stale lines. A
        dead, silent or garbled worker is killed, so the next call starts a fresh one."""
        deadline = time.monotonic() + timeout
        try:
            if self.proc is None or self.proc.poll() is not None:
                self.kill()
                self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE,
                                             stdout=subprocess.PIPE)
                if self.ended:   # close() ran while it started
                    self.proc.kill()
            self.proc.stdin.write(line.encode("utf-8"))
            self.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            self.kill()
            raise _ReplyError(STATUS_TIMEOUT, f"trainer unreachable: {exc}")
        try:
            while (out := self.read_line(deadline)) is not None:
                reply = _parse_reply(out, run_id)
                if reply is not None:
                    return reply
            raise _ReplyError(STATUS_TIMEOUT, f"no trainer reply within {timeout:g}s")
        except _ReplyError:
            self.kill()  # stream state unknown after silence, exit or garbage
            raise

    def kill(self) -> None:
        """Stop the worker, reap it and close both pipes."""
        if self.proc is not None:
            self.proc.kill()   # does nothing once it has exited
            self.proc.wait()
            self.proc.stdout.close()
            with contextlib.suppress(BrokenPipeError):  # drops a request not yet sent
                self.proc.stdin.close()
        self.proc = None
        self._buffer = b""

    def read_line(self, deadline: float) -> str | None:
        """Next stdout line, or None once the deadline passes. A closed pipe
        raises, naming the worker's exit code once it has exited."""
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:  # EOF: the worker closed stdout, normally because it exits
                try:
                    code = self.proc.wait(min(1.0, max(0.0, deadline - time.monotonic())))
                except subprocess.TimeoutExpired:
                    raise _ReplyError(STATUS_TIMEOUT,
                                      "trainer closed its output before replying") from None
                raise _ReplyError(STATUS_TIMEOUT,
                                  f"trainer exited with code {code} before replying", code)
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8", errors="replace")


class _FilesWorker:
    """One trainer invocation at a time, given the paths of a request file it
    reads and a response file it writes as its last two arguments."""

    def __init__(self, argv: list[str], exchange_dir: Path):
        self.argv = argv
        self.exchange_dir = exchange_dir
        self.proc, self.ended = None, False   # ended: set by ExternalTrainerOracle.close

    def call(self, run_id: str, line: str, timeout: float) -> dict:
        self.exchange_dir.mkdir(parents=True, exist_ok=True)
        req_path = self.exchange_dir / f"{run_id}.request.json"
        resp_path = self.exchange_dir / f"{run_id}.response.json"
        tmp = req_path.with_suffix(".tmp")
        tmp.write_text(line, encoding="utf-8")
        tmp.rename(req_path)
        resp_path.unlink(missing_ok=True)
        try:
            proc = self.proc = subprocess.Popen(self.argv + [str(req_path), str(resp_path)],
                                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if self.ended:   # close() ran while it started
                proc.kill()
        except OSError as exc:
            raise _ReplyError(STATUS_TIMEOUT, f"trainer unreachable: {exc}")
        deadline = time.monotonic() + timeout
        with proc:
            while True:  # waits of at most 0.5 s: one long wait overflows the poll
                try:
                    stderr = proc.communicate(
                        timeout=min(max(deadline - time.monotonic(), 0.0), 0.5))[1]
                    break
                except subprocess.TimeoutExpired as exc:
                    if time.monotonic() >= deadline:
                        proc.kill()
                        proc.wait()
                        raise _ReplyError(STATUS_TIMEOUT, f"trainer run exceeded {timeout:g}s"
                                          + _stderr_tail(exc.stderr)) from None
        if proc.returncode != 0:
            raise _ReplyError(STATUS_FAILED, f"trainer exited with code {proc.returncode}"
                              + _stderr_tail(stderr), proc.returncode)
        if not resp_path.exists():
            raise _ReplyError(STATUS_FAILED, "trainer wrote no response file"
                              + _stderr_tail(stderr))
        for line in resp_path.read_text(encoding="utf-8", errors="replace").splitlines():
            reply = _parse_reply(line, run_id)
            if reply is not None:
                return reply
        raise _ReplyError(STATUS_FAILED, "no response line with matching run_id")

    def kill(self) -> None:
        """Nothing runs between calls."""


class ExternalTrainerOracle:
    """Dispatch evaluations to external training workers.

    ``parallelism`` workers of one protocol are handed out one request at a
    time, the most recently used idle one first: a ``pipe`` worker is a child
    kept alive between requests, a ``files`` one starts the trainer once per
    request, so at most ``parallelism`` trainers run at once. Lesion sweeps,
    ``rd``'s curves and each round of a bisection call :meth:`evaluate` from up
    to that many threads; a call waits for an idle worker. At ``parallelism = 2``
    a bisection overlaps only its baseline, so a second worker starts then and
    the later rounds stay on one warm worker. Records reach the ledger in
    completion order, which replay does not depend on: it looks records up by digest.
    """

    def __init__(self, command: str | list[str], spec: ModelSpec, *,
                 parallelism: int = 1, timeout: float = 3600.0,
                 protocol: str = PROTOCOL_PIPE, exchange_dir=None):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not 0 < timeout < math.inf:   # NaN fails both comparisons
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        if protocol not in (PROTOCOL_PIPE, PROTOCOL_FILES):
            raise ValueError(f"unknown trainer protocol {protocol!r}")
        if protocol == PROTOCOL_FILES and not exchange_dir:
            raise ValueError("files protocol needs an exchange directory")
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.spec = spec
        self.timeout = timeout
        self.parallel_slots = parallelism
        # Run ids carry a nonce drawn per oracle, so a rerun in the same
        # exchange_dir never reuses an earlier run's file names.
        self._nonce = os.urandom(4).hex()
        self._counter = 0
        self._counter_lock = threading.Lock()
        self._all = [_PipeWorker(argv) if protocol == PROTOCOL_PIPE
                     else _FilesWorker(argv, Path(exchange_dir)) for _ in range(parallelism)]
        self._workers: queue.LifoQueue[_PipeWorker | _FilesWorker] = queue.LifoQueue()
        for w in self._all:
            self._workers.put(w)

    def _next_run_id(self, digest: str) -> str:
        with self._counter_lock:
            self._counter += 1
            return f"{digest[:12]}-{self._nonce}-{self._counter:04d}"

    def evaluate(self, config: ChannelConfig, budget: TrainingBudget) -> EvaluationRecord:
        digest = config_digest(config, self.spec)
        run_id = self._next_run_id(digest)
        request = build_request(run_id, config, self.spec, budget)
        line = json.dumps(request, sort_keys=True) + "\n"  # the wire form of both protocols
        worker = self._workers.get()
        start = time.monotonic()  # after the wait for a worker, which is not trainer time
        try:
            if worker.ended:   # close() has run: dispatch nothing
                raise KeyboardInterrupt
            reply = worker.call(run_id, line, self.timeout)
            return _record_from_reply(reply, digest, budget, time.monotonic() - start)
        except _ReplyError as exc:
            if worker.ended or -exc.code in STOP_SIGNALS:   # a stop, not a failed training
                raise KeyboardInterrupt from None
            log.warning("trainer evaluation %s: %s", run_id, exc.note)
            return EvaluationRecord(digest, budget, None, None,
                                    time.monotonic() - start, exc.status, note=exc.note)
        finally:
            if worker.ended:   # close() ended it: the pipes are closed by the thread holding it
                worker.kill()
            self._workers.put(worker)

    def close(self) -> None:
        """End and reap every trainer, busy ones too: their calls and all later ones stop."""
        for worker in self._all:
            worker.ended = True
            if (proc := worker.proc) is not None:
                proc.kill()
                proc.wait()
        with self._workers.mutex:   # the idle workers, which no call can take meanwhile
            for worker in self._workers.queue:
                worker.kill()
