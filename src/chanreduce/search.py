"""Greedy per-macroblock width reduction by bisection on the width multiplier.

For one block of nominal width n, the multiplier beta is bisected on [0.5, 1]:
the loop runs while (U - L) * n > 1, probes the midpoint beta' = (L + U) / 2 by
evaluating the config with the block ceiling-scaled to ceil(beta' * n), and
tightens U on a feasible probe (accuracy drop strictly below delta) or L otherwise.
That costs exactly ceil(log2(n / 2)) probes. By default the last proven
feasible bound U is returned, so the final configuration always meets the budget;
the raw last midpoint (which may be infeasible) is available behind a flag.

On p = ``slots(oracle)`` slots (the oracle's, or an enclosing fan-out's share)
the bisection runs in rounds: each round trains the top k = floor(log2(p + 1))
levels of the block's remaining bisection tree at once (2^k - 1 midpoints, each
distinct channel vector once), then makes the one-slot decisions through them.
A block thus costs ceil(ceil(log2(n / 2)) / k) rounds instead of
ceil(log2(n / 2)), for up to 2^k - 1 trainings per round. The baseline is
trained in the first round of the first block, on one of its slots. With one
slot (k = 1) this is the plain sequential search, call for call. Betas and
reduced configs do not depend on p.

Blocks are visited one at a time and the working config accumulates each block's
result before the next search starts. Backward order (deepest block first) exploits
the fact that late blocks tolerate far more width reduction than early ones.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

from .accounting import SizeReport, count_parameters, saving_percent
from .arch import (ChannelConfig, MacroblockPartition, ModelSpec, apply_macroblock_scale,
                   channel_config, partition_macroblocks, with_config)
from .oracle import EvaluationRecord, TrainingBudget, distortion, fan_out, slots

log = logging.getLogger(__name__)


class BetaMode(enum.Enum):
    FEASIBLE_BOUND = "feasible_bound"   # return final U
    LAST_MIDPOINT = "last_midpoint"     # return the raw last midpoint probed


@dataclass(frozen=True)
class SearchProbe:
    """One probe made during a reduction run. ``block`` is None for the
    baseline evaluation; ``feasible`` is None when the probe was not judged.
    A speculative probe was trained ahead of the bisection path and not used
    by it; only those carry the key in :meth:`to_dict`."""

    block: int | None
    beta: float
    config: ChannelConfig
    record: EvaluationRecord
    feasible: bool | None
    speculative: bool = False

    def to_dict(self) -> dict:
        out = {"block": self.block, "beta": self.beta, "config": self.config.to_dict(),
               "record": self.record.to_dict(), "feasible": self.feasible}
        if self.speculative:
            out["speculative"] = True
        return out


@dataclass(frozen=True)
class ReductionResult:
    betas: tuple[float, ...]
    reduced_config: ChannelConfig
    base_report: SizeReport
    reduced_report: SizeReport
    trace: tuple[SearchProbe, ...]
    scope: frozenset[int]
    diagnostics: tuple[str, ...] = ()

    @property
    def baseline_record(self) -> EvaluationRecord:
        """Every reduction's trace opens with its baseline probe."""
        return self.trace[0].record

    @property
    def oracle_calls(self) -> int:
        """Evaluations issued: one per config trained ok, one per probe not ok."""
        trained = {p.config for p in self.trace if p.record.ok}
        return len(trained) + sum(not p.record.ok for p in self.trace)

    @property
    def saving(self) -> float:
        return saving_percent(self.base_report, self.reduced_report)

    def to_dict(self) -> dict:
        return {"betas": list(self.betas),
                "scope": sorted(self.scope),
                "reduced_config": self.reduced_config.to_dict(),
                "base_report": self.base_report.to_dict(),
                "reduced_report": self.reduced_report.to_dict(),
                "saving_percent": self.saving,
                "diagnostics": list(self.diagnostics),
                "trace": [p.to_dict() for p in self.trace]}


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be within [0, 1], got {delta!r}")


def _midpoints(lower: float, upper: float, levels: int) -> list[float]:
    """Midpoints of the top ``levels`` levels of the bisection tree under
    [lower, upper], level by level."""
    intervals, out = [(lower, upper)], []
    for _ in range(levels):
        mids = [(lo + hi) / 2 for lo, hi in intervals]
        out += mids
        intervals = [half for (lo, hi), mid in zip(intervals, mids)
                     for half in ((lo, mid), (mid, hi))]
    return out


def _probes_left(lower: float, upper: float, n: int) -> int:
    """Probes the bisection still makes: the cost law, from [lower, upper]."""
    span, left = upper - lower, 0
    while span * n > 1:
        span, left = span / 2, left + 1
    return left


def search_macroblock_multiplier(block: int, config: ChannelConfig,
                                 partition: MacroblockPartition, delta: float,
                                 oracle, budget: TrainingBudget, baseline: float | None, *,
                                 beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                                 metric: str = "top1",
                                 trained: dict[ChannelConfig, EvaluationRecord] | None = None,
                                 ) -> tuple[float, list[SearchProbe]]:
    """Bisect one block's width multiplier; returns (beta, probes).

    ``baseline`` is the reference accuracy the drop is measured against. With
    None, ``config`` itself is evaluated with the first round and its record
    leads the probes as the baseline probe; if it fails, no probe is judged and
    beta is 1. Probes whose record is not ok, or whose metric is missing, count
    as infeasible; the search itself never raises on oracle soft failures.

    Each round evaluates the top k levels of the remaining bisection tree at
    once, k = floor(log2(p + 1)) on p = ``slots(oracle)`` (one slot fewer while
    the baseline rides along), then walks them as one slot would.
    The walk's probes come first; the other configs the round trained follow,
    marked speculative. ``trained`` maps configs already trained ok in
    this reduction to their records; they are not trained again, and this
    search's ok records are added to it.
    """
    _check_delta(delta)
    if not 0 <= block < partition.num_blocks:
        raise ValueError(f"block index {block} out of range 0..{partition.num_blocks - 1}")
    n = partition.blocks[block].search_width
    known = {} if trained is None else trained
    failed_baseline = False

    upper, lower = 1.0, 0.5
    midpoint = None
    probes: list[SearchProbe] = []

    def judge(record: EvaluationRecord) -> bool:
        value = record.metric(metric) if record.ok else None
        return value is not None and distortion(baseline, value) < delta

    while True:
        k = (slots(oracle) - (baseline is None) + 1).bit_length() - 1  # floor(log2(free + 1))
        levels = min(k, _probes_left(lower, upper, n))
        at = {m: apply_macroblock_scale(config, partition, block, m)
              for m in _midpoints(lower, upper, levels)}
        batch = ([config] if baseline is None else []) + list(at.values())
        if not batch:
            break
        issued = [c for c in dict.fromkeys(batch) if c not in known]
        records = dict(zip(issued, fan_out(oracle, lambda c: oracle.evaluate(c, budget),
                                           issued)))
        if trained is not None:
            trained.update((c, r) for c, r in records.items() if r.ok)
        answer = {**known, **records}

        walked: set[ChannelConfig] = set()
        if baseline is None:
            record = answer[config]
            probes.append(SearchProbe(None, 1.0, config, record, True))
            walked.add(config)
            baseline = record.metric(metric) if record.ok else None
            failed_baseline = baseline is None
        for _ in range(0 if failed_baseline else levels):
            midpoint = (lower + upper) / 2
            candidate = at[midpoint]
            record = answer[candidate]
            if not record.ok and candidate in walked:
                break  # one slot would retry it: leave that to the next round
            walked.add(candidate)
            feasible = judge(record)
            probes.append(SearchProbe(block, midpoint, candidate, record, feasible))
            if feasible:
                upper = midpoint
            else:
                lower = midpoint
        for m, candidate in at.items():
            if candidate in records and candidate not in walked:
                walked.add(candidate)
                record = records[candidate]
                probes.append(SearchProbe(block, m, candidate, record,
                                          None if failed_baseline else judge(record),
                                          speculative=True))
        if failed_baseline:
            return 1.0, probes

    if beta_mode is BetaMode.LAST_MIDPOINT and midpoint is not None:
        return midpoint, probes
    return upper, probes


def backward_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                       delta: float, oracle, budget: TrainingBudget,
                       scope: int | None = None, *,
                       beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                       metric: str = "top1") -> ReductionResult:
    """Reduce the deepest ``scope`` macroblocks, last block first."""
    return _greedy_reduction(spec, partition, delta, oracle, budget, scope,
                             backward=True, beta_mode=beta_mode, metric=metric)


def forward_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                      delta: float, oracle, budget: TrainingBudget,
                      scope: int | None = None, *,
                      beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                      metric: str = "top1") -> ReductionResult:
    """Same greedy search with the block order reversed: first block first."""
    return _greedy_reduction(spec, partition, delta, oracle, budget, scope,
                             backward=False, beta_mode=beta_mode, metric=metric)


def _greedy_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                      delta: float, oracle, budget: TrainingBudget,
                      scope: int | None, *, backward: bool, beta_mode: BetaMode,
                      metric: str) -> ReductionResult:
    _check_delta(delta)
    if partition is None:
        partition = partition_macroblocks(spec)
    m = partition.num_blocks
    if scope is None:
        scope = m
    if not 1 <= scope <= m:
        raise ValueError(f"scope must be within 1..{m}, got {scope}")
    order = list(range(m - 1, m - scope - 1, -1)) if backward else list(range(scope))

    base_report = count_parameters(spec)
    trace: list[SearchProbe] = []
    diagnostics: list[str] = []
    betas = [1.0] * m
    working = channel_config(spec)
    trained: dict[ChannelConfig, EvaluationRecord] = {}
    baseline = None  # measured together with the first block's first round
    searched: set[int] = set()

    for block in order:
        beta, probes = search_macroblock_multiplier(
            block, working, partition, delta, oracle, budget, baseline,
            beta_mode=beta_mode, metric=metric, trained=trained)
        trace.extend(probes)
        if baseline is None:
            baseline_record = probes[0].record
            baseline = baseline_record.metric(metric) if baseline_record.ok else None
            if baseline is None:
                diagnostics.append("baseline evaluation failed; no block was searched")
                log.warning("baseline evaluation failed (status %s)", baseline_record.status)
                break
        searched.add(block)
        path = [p for p in probes if p.block is not None and not p.speculative]
        if path and not any(p.record.ok for p in path):
            diagnostics.append(f"block {block}: every probe failed; left at beta=1")
            beta = 1.0
        betas[block] = beta
        working = apply_macroblock_scale(working, partition, block, beta)

    reduced_spec = with_config(spec, working)
    return ReductionResult(betas=tuple(betas), reduced_config=working,
                           base_report=base_report,
                           reduced_report=count_parameters(reduced_spec),
                           trace=tuple(trace), scope=frozenset(searched),
                           diagnostics=tuple(diagnostics))
