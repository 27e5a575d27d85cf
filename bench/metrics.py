"""Metrics computed from the stub trainer's request log and from traced spans.

Intervals are ``(start, end)`` pairs on one clock. Stub records are the lines
of ``stub-<pid>.jsonl`` (see ``stub_trainer``); spans are the lists written by
``tracing.Tracer``.
"""

from __future__ import annotations

import math
from bisect import bisect_right


def critical_path(intervals) -> int:
    """Rounds: the longest chain of intervals, each starting after the previous
    one ended. A strictly sequential log gives its length."""
    ordered = sorted(intervals)
    chain: list[int] = []
    for start, _ in ordered:
        chain.append(1 + max((c for c, (_, end) in zip(chain, ordered) if end <= start),
                             default=0))
    return max(chain, default=0)


def slot_utilization(intervals, slots: int) -> float:
    """Busy time over ``slots`` times the span from first start to last end."""
    span = max(e for _, e in intervals) - min(s for s, _ in intervals)
    return sum(e - s for s, e in intervals) / (slots * span)


def inflight_mean(intervals) -> float:
    """Mean number of intervals open while at least one is open."""
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return sum(e - s for s, e in intervals) / covered


def first_requests(stub_records) -> set:
    """Run ids of each worker's first request; the wait before those is the
    worker's start-up, which is reported on its own as spawn time."""
    first = {}
    for r in stub_records:
        if r["pid"] not in first or r["arrive"] < first[r["pid"]]["arrive"]:
            first[r["pid"]] = r
    return {r["run_id"] for r in first.values()}


def request_gaps(stub_records) -> list[int]:
    """Trainer idle time before each request: its arrival minus the latest reply
    any worker sent before it. Requests go round the workers in turn, so the
    gap on one worker alone would include the other workers' busy time."""
    firsts = first_requests(stub_records)
    replies = sorted(r["reply"] for r in stub_records)
    gaps = []
    for r in stub_records:
        i = bisect_right(replies, r["arrive"])
        if r["run_id"] not in firsts and i:
            gaps.append(r["arrive"] - replies[i - 1])
    return gaps


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- spans --------------------------------------------------------------------

EVALUATIONS = ("oracle.record", "oracle.surrogate_evaluate", "trainer.evaluate")
SEARCH = "search.backward_reduction"
RDCURVES = ("rdcurve.build_alpha_curve", "rdcurve.build_alpha_plus_backward_curve")


class Spans:
    """Index over one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}

    def named(self, *names):
        return [s for s in self.spans if s[2] in names]

    def total(self, name) -> tuple[int, int]:
        """(calls, summed duration in ns)."""
        spans = self.named(name)
        return len(spans), sum(s[4] - s[3] for s in spans)

    def ancestors(self, span):
        while span[1]:
            span = self.by_id[span[1]]
            yield span

    def outer_evaluations(self):
        """Evaluation spans not nested in another evaluation."""
        return [s for s in self.named(*EVALUATIONS)
                if not any(a[2] in EVALUATIONS for a in self.ancestors(s))]


def search_self(spans: Spans) -> tuple[int, int]:
    """(probes, search time outside evaluation in ns) over top-level searches."""
    tops = {s[0]: s[4] - s[3] for s in spans.named(SEARCH)
            if not any(a[2] == SEARCH for a in spans.ancestors(s))}
    probes = 0
    for ev in spans.outer_evaluations():
        chain = list(spans.ancestors(ev))
        top = next((a for a in reversed(chain) if a[0] in tops), None)
        if top is not None:
            tops[top[0]] -= ev[4] - ev[3]
            probes += chain[0][2] == "search.search_macroblock_multiplier"
    return probes, sum(tops.values())


def rd_duplicates(spans: Spans) -> int:
    """Evaluations issued under rdcurve that repeat an earlier (digest, budget)."""
    keys = [(s[6]["digest"], s[6]["epochs"]) for s in spans.named("oracle.record")
            if any(a[2] in RDCURVES for a in spans.ancestors(s))]
    return len(keys) - len(set(keys))


def trainer_samples(spans: Spans, stub_records) -> dict:
    """Per-request bridge cost and dispatch wait, and per-worker spawn time,
    joining trainer.evaluate spans to stub log lines through the run id. The
    bridge is the evaluate call's duration minus the stub's busy time."""
    by_run = {r["run_id"]: r for r in stub_records}
    firsts = first_requests(stub_records)
    run_of = {s[1]: s[6]["run_id"] for s in spans.named("trainer.build_request")}
    evaluations = spans.named("trainer.evaluate")
    bridge, wait, spawn = [], [], []
    for ev in evaluations:
        run_id = run_of.get(ev[0])
        stub = by_run.get(run_id)
        if stub is None:
            continue
        if run_id in firsts:
            spawn.append(stub["arrive"] - ev[3])
        else:
            bridge.append((ev[4] - ev[3]) - (stub["reply"] - stub["arrive"]))
            wait.append(stub["arrive"] - ev[3])
    return {"bridge": bridge, "wait": wait, "spawn": spawn, "requests": len(evaluations),
            "failed": sum(1 for s in evaluations if s[6] and not s[6]["ok"])}
