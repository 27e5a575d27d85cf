"""Greedy per-macroblock width reduction by bisection on the width multiplier.

For one block of nominal width n, the multiplier beta is bisected on [0.5, 1]:
the loop runs while (U - L) * n > 1, probes the midpoint beta' = (L + U) / 2 by
evaluating the config with the block ceiling-scaled to ceil(beta' * n), and
tightens U on a feasible probe (accuracy drop strictly below delta) or L otherwise.
That costs exactly ceil(log2(n / 2)) probes. By default the last proven
feasible bound U is returned, so the final configuration always meets the budget;
the raw last midpoint (which may be infeasible) is available behind a flag.

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
from .oracle import EvaluationRecord, TrainingBudget, distortion

log = logging.getLogger(__name__)


class BetaMode(enum.Enum):
    FEASIBLE_BOUND = "feasible_bound"   # return final U
    LAST_MIDPOINT = "last_midpoint"     # return the raw last midpoint probed


@dataclass(frozen=True)
class SearchProbe:
    """One probe made during a reduction run. ``block`` is None for the
    baseline evaluation; ``feasible`` is None when the probe was not judged."""

    block: int | None
    beta: float
    config: ChannelConfig
    record: EvaluationRecord
    feasible: bool | None

    def to_dict(self) -> dict:
        return {"block": self.block, "beta": self.beta, "config": self.config.to_dict(),
                "record": self.record.to_dict(), "feasible": self.feasible}


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
    def baseline_record(self) -> EvaluationRecord | None:
        for probe in self.trace:
            if probe.block is None:
                return probe.record
        return None

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


def search_macroblock_multiplier(block: int, config: ChannelConfig,
                                 partition: MacroblockPartition, delta: float,
                                 oracle, budget: TrainingBudget, baseline: float, *,
                                 beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                                 metric: str = "top1") -> tuple[float, list[SearchProbe]]:
    """Bisect one block's width multiplier; returns (beta, probes).

    ``baseline`` is the reference accuracy the drop is measured against. Probes
    whose record is not ok, or whose metric is missing, count as infeasible; the
    search itself never raises on oracle soft failures.
    """
    _check_delta(delta)
    if not 0 <= block < partition.num_blocks:
        raise ValueError(f"block index {block} out of range 0..{partition.num_blocks - 1}")
    n = partition.blocks[block].search_width

    upper, lower = 1.0, 0.5
    midpoint = None
    probes: list[SearchProbe] = []
    while (upper - lower) * n > 1:
        midpoint = (lower + upper) / 2
        candidate = apply_macroblock_scale(config, partition, block, midpoint)
        record = oracle.evaluate(candidate, budget)
        value = record.metric(metric) if record.ok else None
        feasible = value is not None and distortion(baseline, value) < delta
        probes.append(SearchProbe(block, midpoint, candidate, record, feasible))
        if feasible:
            upper = midpoint
        else:
            lower = midpoint

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


class _ReductionMemo:
    """Oracle view for one reduction: a config already trained ok gets its record
    back untrained. Failed and timeout records are not kept, so repeats retry."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.records: dict[ChannelConfig, EvaluationRecord] = {}

    def evaluate(self, config: ChannelConfig, budget: TrainingBudget) -> EvaluationRecord:
        record = self.records.get(config)
        if record is None:
            record = self.oracle.evaluate(config, budget)
            if record.ok:
                self.records[config] = record
        return record


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

    nominal = channel_config(spec)
    base_report = count_parameters(spec)
    trace: list[SearchProbe] = []
    diagnostics: list[str] = []
    betas = [1.0] * m
    working = nominal
    oracle = _ReductionMemo(oracle)

    baseline_record = oracle.evaluate(nominal, budget)
    trace.append(SearchProbe(None, 1.0, nominal, baseline_record, True))
    baseline = baseline_record.metric(metric) if baseline_record.ok else None
    searched: set[int] = set()

    if baseline is None:
        diagnostics.append("baseline evaluation failed; no block was searched")
        log.warning("baseline evaluation failed (status %s)", baseline_record.status)
    else:
        for block in order:
            beta, probes = search_macroblock_multiplier(
                block, working, partition, delta, oracle, budget, baseline,
                beta_mode=beta_mode, metric=metric)
            trace.extend(probes)
            searched.add(block)
            if probes and not any(p.record.ok for p in probes):
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
