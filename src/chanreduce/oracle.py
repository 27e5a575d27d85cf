"""Accuracy oracles, training budgets, evaluation records, and the append-only ledger.

An oracle maps (channel config, training budget) to an :class:`EvaluationRecord`.
Two backends train: a deterministic analytic surrogate for desk-scale work, and (in
:mod:`chanreduce.trainer`) a bridge to an external training worker. A command reaches
them only through :class:`RecordingOracle`, which answers from its run's ledger first
and records what the backend trains; without a backend it is the replay oracle.
Records are keyed by a digest over the channel vector and the architecture skeleton,
so identical configurations always collide and metadata relabeling never does.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
try:  # the interpreter's builtin SHA-256, so no process maps OpenSSL for one digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .arch import (ChannelConfig, MacroblockPartition, ModelSpec, canonical_json,
                   partition_macroblocks)

log = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
_STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT)
# Accuracies a record carries, by field name; a search ranks configs by one.
METRICS = ("top1", "top5")


@dataclass(frozen=True)
class TrainingBudget:
    """A fixed training recipe. The learning rate starts at ``lr_initial`` and is
    divided by ``lr_divisor`` at each milestone epoch."""

    epochs: int
    lr_initial: float = 0.1
    lr_milestones: tuple[int, ...] = ()
    lr_divisor: float = 10.0
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        last = 0
        for m in self.lr_milestones:
            if not 0 < m < self.epochs:
                raise ValueError(f"milestone {m} outside 1..{self.epochs - 1}")
            if m <= last:
                raise ValueError("milestones must be strictly increasing")
            last = m

    def to_dict(self) -> dict:
        return dict(vars(self), lr_milestones=list(self.lr_milestones))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingBudget":
        """The budget ``to_dict`` wrote; a missing key takes its field default."""
        given = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        given["lr_milestones"] = tuple(given.get("lr_milestones", ()))
        return cls(**given)


# Default budgets: a short schedule for search probes, a long one for final runs.
SEARCH_BUDGET = TrainingBudget(epochs=20, lr_milestones=(8, 16))
FINAL_BUDGET = TrainingBudget(epochs=90, lr_milestones=(30, 60))


@dataclass(frozen=True)
class EvaluationRecord:
    """Outcome of one oracle call."""

    config_digest: str
    budget: TrainingBudget
    top1: float | None
    top5: float | None
    wall_seconds: float
    status: str
    note: str | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        if self.status == STATUS_OK and self.top1 is None:
            raise ValueError("ok records must carry a top1 accuracy")
        for v in (self.top1, self.top5):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"accuracy {v} outside [0, 1]")
        if self.top1 is not None and self.top5 is not None and self.top1 > self.top5:
            raise ValueError("top1 accuracy cannot exceed top5")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def metric(self, name: str = METRICS[0]) -> float | None:
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        return dict(vars(self), budget=self.budget.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationRecord":
        return cls(config_digest=d["config_digest"],
                   budget=TrainingBudget.from_dict(d["budget"]),
                   top1=d.get("top1"), top5=d.get("top5"),
                   wall_seconds=d.get("wall_seconds", 0.0),
                   status=d["status"], note=d.get("note"))


@lru_cache(maxsize=32)
def _arch_hash(structural_json: str):
    """SHA-256 state after the blob's architecture prefix; config_digest copies it."""
    return sha256(('{"arch":' + structural_json + ",").encode("utf-8"))


def config_digest(config: ChannelConfig, spec: ModelSpec) -> str:
    """Stable identity of a (channel vector, architecture skeleton) pair: the
    SHA-256 of ``{"arch", "channels", "macroblock_starts"}`` as compact, key-sorted
    JSON, where "arch" is the spec's cached structural key."""
    widths = canonical_json({"channels": list(config.channels),
                             "macroblock_starts": list(config.macroblock_starts)})
    h = _arch_hash(spec.structural_json).copy()
    h.update(widths[1:].encode("utf-8"))
    return h.hexdigest()


def distortion(baseline: float, candidate: float) -> float:
    """Accuracy drop of a candidate against the baseline; negative means a gain."""
    for v in (baseline, candidate):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"accuracy {v} outside [0, 1]")
    return baseline - candidate


class MissingEvaluationError(LookupError):
    """Raised by a recorder without a backend when the ledger has no record for a digest."""


_share = threading.local()


def slots(oracle) -> int:
    """Evaluations the calling thread may have in flight: its share of an
    enclosing :func:`fan_out`, else ``oracle.parallel_slots`` (1 if absent)."""
    return getattr(_share, "slots", None) or getattr(oracle, "parallel_slots", 1)


def fan_out(oracle, fn, items) -> list:
    """``[fn(item) for item in items]`` in item order, calling ``fn`` once per
    distinct item, on up to ``slots(oracle)`` threads: a repeated item shares
    its first occurrence's result. Each call gets an equal share of the slots,
    at least one, so fan-outs nested in it stay within them. With one slot the
    calls run in order on the calling thread. An exception in any call or in the
    caller reaches the caller at once, dropping the items not started yet."""
    items = list(items)
    distinct = list(dict.fromkeys(items))
    p = slots(oracle)
    if min(p, len(distinct)) <= 1:
        answers = {item: fn(item) for item in distinct}
    else:
        pool = ThreadPoolExecutor(min(p, len(distinct)), initializer=setattr,
                                  initargs=(_share, "slots", max(1, p // len(distinct))))
        try:
            answers = dict(zip(distinct, pool.map(fn, distinct)))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return [answers[item] for item in items]


class EvaluationLedger:
    """Append-only JSON-lines store of evaluation records.

    Each record is one append-mode write under a lock, synced before ``append`` returns;
    the first record creates the file and its directory, and syncs the directory. A lookup
    returns the newest record for a (digest, budget), or the n-th in ledger order. Corrupt
    lines are skipped with a warning so a damaged file never blocks replay. A crash in the
    middle of a write leaves an unterminated last line; the first append terminates it.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._by_key: dict[tuple[str, TrainingBudget], list[EvaluationRecord]] = {}
        self._records: list[EvaluationRecord] = []
        self._torn_tail = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        line = "\n"
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text:
                    continue
                try:
                    record = EvaluationRecord.from_dict(json.loads(text))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    log.warning("skipping corrupt ledger line %s:%d (%s)", self.path, lineno, exc)
                    continue
                self._index(record)
        self._torn_tail = not line.endswith("\n")

    def _index(self, record: EvaluationRecord) -> None:
        self._records.append(record)
        self._by_key.setdefault((record.config_digest, record.budget), []).append(record)

    def append(self, record: EvaluationRecord) -> None:
        line = canonical_json(record.to_dict())
        with self._lock:
            data = memoryview((("\n" if self._torn_tail else "") + line + "\n").encode())
            if not self._records:   # the first record: its file may be new, so sync the directory
                self.path.parent.mkdir(parents=True, exist_ok=True)
            fds = [os.open(self.path.parent, os.O_RDONLY)] if not self._records else []
            try:
                fds.append(fd := os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666))
                while data:
                    data = data[os.write(fd, data):]
                for each in fds:
                    os.fsync(each)
            finally:
                for each in fds:
                    os.close(each)
            self._torn_tail = False
            self._index(record)

    def lookup(self, digest: str, budget: TrainingBudget,
               occurrence: int = -1) -> EvaluationRecord | None:
        """The newest record for a digest under ``budget``, or the one at
        ``occurrence`` in ledger order (None past the end). Budgets match exactly:
        one config trained under two budgets is two distinct experiments."""
        with self._lock:
            records = self._by_key.get((digest, budget), ())
            return records[occurrence] if -len(records) <= occurrence < len(records) else None

    def records(self) -> list[EvaluationRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass(frozen=True)
class SurrogateParams:
    """Parameters of the analytic accuracy surrogate.

    Accuracy is ``a_max`` minus one penalty term per macroblock:
    ``weight_b * max(0, frontier_b - ratio_b) ** exponent`` where ``ratio_b`` is the
    block's mean retained-width fraction. Frontiers decrease with depth: blocks
    close to the input tolerate little width reduction, late blocks tolerate a lot.
    """

    a_max: float = 0.91
    exponent: float = 2.0
    frontiers: tuple[float, ...] = (0.95, 0.85, 0.55)
    weights: tuple[float, ...] = (4.0, 4.0, 4.0)

    def __post_init__(self):
        if not 0 < self.a_max <= 1:
            raise ValueError(f"a_max must be in (0, 1], got {self.a_max}")
        if not self.frontiers or len(self.frontiers) != len(self.weights):
            raise ValueError("frontiers and weights must be non-empty and equally long")
        for f in self.frontiers:
            if not 0 < f <= 1:
                raise ValueError(f"frontier {f} outside (0, 1]")
        for w in self.weights:
            if w < 0:
                raise ValueError(f"weight {w} must be >= 0")

    def resolved(self, num_blocks: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Resize the profiles to ``num_blocks`` by piecewise-linear interpolation
        over normalized block position; a single block takes the deepest value."""
        if num_blocks < 1:
            raise ValueError("need at least one block")
        if num_blocks == len(self.frontiers):
            return self.frontiers, self.weights
        positions = ([1.0] if num_blocks == 1 else
                     [i / (num_blocks - 1) for i in range(num_blocks)])
        return (tuple(_interp(x, self.frontiers) for x in positions),
                tuple(_interp(x, self.weights) for x in positions))


def _interp(x: float, profile: tuple[float, ...]) -> float:
    if len(profile) == 1:
        return profile[0]
    span = len(profile) - 1
    pos = x * span
    lo = min(int(pos), span - 1)
    t = pos - lo
    return profile[lo] * (1 - t) + profile[lo + 1] * t


def surrogate_accuracy(config: ChannelConfig, partition: MacroblockPartition,
                       params: SurrogateParams = SurrogateParams()) -> float:
    """Evaluate the analytic surrogate for ``config`` against nominal block widths."""
    frontiers, weights = params.resolved(partition.num_blocks)
    penalty = 0.0
    for block, frontier, weight in zip(partition.blocks, frontiers, weights):
        start, stop = block.entry_range
        ratios = [min(1.0, config.channels[i] / nominal)
                  for i, nominal in zip(range(start, stop), block.widths)]
        ratio = sum(ratios) / len(ratios)
        penalty += weight * max(0.0, frontier - ratio) ** params.exponent
    return min(1.0, max(0.0, params.a_max - penalty))


class SurrogateOracle:
    """Deterministic analytic oracle; the budget only tags the record."""

    def __init__(self, spec: ModelSpec, params: SurrogateParams = SurrogateParams()):
        self.spec = spec
        self.params = params
        self.partition = partition_macroblocks(spec)

    def evaluate(self, config: ChannelConfig, budget: TrainingBudget) -> EvaluationRecord:
        top1 = surrogate_accuracy(config, self.partition, self.params)
        return EvaluationRecord(config_digest=config_digest(config, self.spec),
                                budget=budget, top1=top1, top5=None,
                                wall_seconds=0.0, status=STATUS_OK)


class RecordingOracle:
    """The one layer between a command and its run's ledger.

    The n-th request for a (config, budget) gets the n-th record the ledger
    holds for it. Past those, ``inner`` trains and the record is appended, so a
    rerun into the same run directory trains only what the ledger lacks. With no
    ``inner`` (replay) the newest record answers instead, and a config never
    recorded raises :class:`MissingEvaluationError`. Only records the ledger held
    when the recorder opened it answer, and an empty one is never consulted.
    An ``inner`` recorder (a source ledger to replay) starts past the records
    this ledger holds, which are its first ones for each config.
    ``parallel_slots`` is the run's search slot count: a search spreads its
    probes by it, and so decides which configs it asks for. ``failures_served``
    counts the failed and timed-out records answered from the ledger.
    """

    def __init__(self, inner, ledger: EvaluationLedger, spec: ModelSpec,
                 parallel_slots: int = 1):
        self.inner = inner
        self.ledger = ledger
        self.spec = spec
        self.parallel_slots = parallel_slots
        # Records per (digest, budget) held at open, and requests for each so far.
        self._held = Counter((r.config_digest, r.budget) for r in ledger.records())
        self._asked: Counter[tuple[str, TrainingBudget]] = Counter()
        if isinstance(inner, RecordingOracle):
            inner._asked.update(self._held)
        self._lock = threading.Lock()
        self.failures_served = 0

    def evaluate(self, config: ChannelConfig, budget: TrainingBudget) -> EvaluationRecord:
        if self._held or self.inner is None:
            digest = config_digest(config, self.spec)
            held = self._held[digest, budget]
            with self._lock:
                occurrence = self._asked[digest, budget]
                self._asked[digest, budget] += 1
                if occurrence < held:
                    record = self.ledger.lookup(digest, budget, occurrence)
                    self.failures_served += not record.ok
                    return record
            if self.inner is None:
                if not held:
                    raise MissingEvaluationError(
                        f"missing evaluation for digest {digest} under the requested budget")
                return self.ledger.lookup(digest, budget)  # past its records, the newest
        record = self.inner.evaluate(config, budget)
        self.ledger.append(record)
        return record
