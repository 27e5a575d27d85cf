"""Spans around chanreduce's public functions, recorded from outside the package.

:func:`install` replaces every function in :data:`TARGETS` wherever a chanreduce
module holds a reference to it (``from .arch import with_config`` copies the
name into the importing module), and every listed method on its class. A span
is ``[id, parent, name, start_ns, end_ns, thread, attrs]`` on CLOCK_MONOTONIC,
the clock the stub trainer logs with; ``parent`` is the innermost open span of
the same thread, 0 at the top. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _record_attrs(args, record) -> dict:
    return {"digest": record.config_digest, "epochs": record.budget.epochs}


# (span name, module, attribute, attrs taken from (args, result) or None)
TARGETS = (
    ("config.from_file", "chanreduce.config", "RunConfig.from_file", None),
    ("config.build_spec", "chanreduce.config", "RunConfig.build_spec", None),
    ("arch.apply_macroblock_scale", "chanreduce.arch", "apply_macroblock_scale", None),
    ("arch.with_config", "chanreduce.arch", "with_config", None),
    ("arch.partition_macroblocks", "chanreduce.arch", "partition_macroblocks", None),
    ("accounting.count_parameters", "chanreduce.accounting", "count_parameters", None),
    ("oracle.config_digest", "chanreduce.oracle", "config_digest", None),
    ("oracle.surrogate_evaluate", "chanreduce.oracle", "SurrogateOracle.evaluate", None),
    ("oracle.record", "chanreduce.oracle", "RecordingOracle.evaluate", _record_attrs),
    ("oracle.ledger_load", "chanreduce.oracle", "EvaluationLedger.__init__",
     lambda args, _: {"records": len(args[0])}),
    ("oracle.ledger_append", "chanreduce.oracle", "EvaluationLedger.append", None),
    ("oracle.ledger_lookup", "chanreduce.oracle", "EvaluationLedger.lookup", None),
    ("search.backward_reduction", "chanreduce.search", "backward_reduction", None),
    ("search.search_macroblock_multiplier", "chanreduce.search",
     "search_macroblock_multiplier", None),
    ("rdcurve.build_alpha_curve", "chanreduce.rdcurve", "build_alpha_curve", None),
    ("rdcurve.build_alpha_plus_backward_curve", "chanreduce.rdcurve",
     "build_alpha_plus_backward_curve", None),
    ("trainer.evaluate", "chanreduce.trainer", "ExternalTrainerOracle.evaluate",
     lambda args, record: {"ok": record.ok}),
    ("trainer.build_request", "chanreduce.trainer", "build_request",
     lambda args, request: {"run_id": request["run_id"]}),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, attrs=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = now_ns()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = now_ns()
                stack.pop()
                spans.append([sid, parent, name, start, end, threading.get_ident(),
                              attrs(args, result) if attrs and returned else None])

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target. Import chanreduce fully before calling this."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "chanreduce" or n.startswith("chanreduce.")]
    for name, module, attr, attrs in TARGETS:
        owner_name, _, leaf = attr.rpartition(".")
        mod = importlib.import_module(module)
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__, attrs)))
            else:
                setattr(owner, leaf, tracer.wrap(name, raw, attrs))
            continue
        original = getattr(mod, leaf)
        traced = tracer.wrap(name, original, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
