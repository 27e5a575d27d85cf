"""Greedy per-macroblock width reduction by bisection on the width multiplier.

For one block of nominal width n, the multiplier beta is bisected on [0.5, 1]:
the loop runs while (U - L) * n > 1, probes the midpoint beta' = (L + U) / 2 by
evaluating the config with the block ceiling-scaled to ceil(beta' * n), and
tightens U on a feasible probe (accuracy drop strictly below delta) or L otherwise.
That costs exactly ceil(log2(n / 2)) probes. The last proven feasible bound U
is returned, so the final configuration always meets the budget.

On p = ``slots(oracle)`` slots (the oracle's, or an enclosing fan-out's share)
the bisection runs in rounds: each round trains the top k = floor(log2(p + 1))
levels of the block's remaining bisection tree at once (2^k - 1 midpoints, each
distinct channel vector once), then makes the one-slot decisions through them.
A block thus costs ceil(ceil(log2(n / 2)) / k) rounds instead of
ceil(log2(n / 2)), for up to 2^k - 1 trainings per round. The baseline is
trained in the first round of the first block, on one of its slots. With one
slot (k = 1) this is the plain sequential search, call for call. Betas and
reduced configs do not depend on p. A frozen :class:`Bisection` holds a block's
state and does no I/O; :func:`search_macroblock_multiplier` drives its rounds.

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
    # Read by no chanreduce code: only bench/workloads.py reference() passes it.
    FEASIBLE_BOUND = "feasible_bound"   # return final U


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
    def reduced_record(self) -> EvaluationRecord | None:
        """The trace's ok record for the reduced configuration: never None when
        ``scope`` is non-empty, where it is the baseline's or a feasible probe's."""
        return next((p.record for p in self.trace
                     if p.config == self.reduced_config and p.record.ok), None)

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


@dataclass(frozen=True)
class Bisection:
    """One block's bisection: its multiplier lies in [lower, upper], for a
    nominal width of n channels. Stepped with each decision, never mutated."""

    n: int
    lower: float = 0.5
    upper: float = 1.0

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2

    def left(self) -> int:
        """Probes the bisection still makes: the cost law, from [lower, upper]."""
        span, left = self.upper - self.lower, 0
        while span * self.n > 1:
            span, left = span / 2, left + 1
        return left

    def step(self, feasible: bool) -> Bisection:
        """A feasible midpoint becomes the upper bound, an infeasible one the lower."""
        return (Bisection(self.n, self.lower, self.midpoint) if feasible
                else Bisection(self.n, self.midpoint, self.upper))

    def tree(self, levels: int) -> list[float]:
        """Midpoints the next ``levels`` steps can visit, level by level, lower half first."""
        states, out = [self], ([self.midpoint] if levels else [])
        for _ in range(levels - 1):
            states = [s.step(feasible) for s in states for feasible in (True, False)]
            out += [s.midpoint for s in states]
        return out


def search_macroblock_multiplier(block: int, config: ChannelConfig,
                                 partition: MacroblockPartition, delta: float,
                                 oracle, budget: TrainingBudget, baseline: float | None, *,
                                 metric: str = "top1",
                                 trained: dict[ChannelConfig, EvaluationRecord] | None = None,
                                 ) -> tuple[float, list[SearchProbe]]:
    """Bisect one block's width multiplier; returns (beta, probes).

    ``baseline`` is the reference accuracy the drop is measured against. With
    None, ``config`` itself is evaluated with the first round and its record
    leads the probes as the baseline probe; if it fails, no probe is judged and
    beta is 1. Probes whose record is not ok, or whose metric is missing, count
    as infeasible; the search itself never raises on oracle soft failures.

    Each round trains the top k levels of the remaining :class:`Bisection` tree
    at once, k = floor(log2(p + 1)) on p = ``slots(oracle)`` (one slot fewer
    while the baseline rides along), then steps the state through them as one
    slot would. The walk's probes come first; the other configs the round
    trained follow, marked speculative. ``trained`` maps configs already
    trained ok in this reduction to their records; they are not trained again,
    and this search's ok records are added to it.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be within [0, 1], got {delta!r}")
    if not 0 <= block < partition.num_blocks:
        raise ValueError(f"block index {block} out of range 0..{partition.num_blocks - 1}")
    state = Bisection(partition.blocks[block].search_width)
    known = {} if trained is None else trained
    probes = []

    def judge(record: EvaluationRecord) -> bool | None:
        """Whether the probe meets the budget; None without a baseline."""
        if baseline is None:
            return None
        value = record.metric(metric) if record.ok else None
        return value is not None and distortion(baseline, value) < delta

    while baseline is None or state.left():
        k = (slots(oracle) - (baseline is None) + 1).bit_length() - 1  # floor(log2(free + 1))
        at = {m: apply_macroblock_scale(config, partition, block, m)
              for m in state.tree(min(k, state.left()))}
        batch = ([config] if baseline is None else []) + list(at.values())
        issued = [c for c in batch if c not in known]
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
        while baseline is not None and state.midpoint in at:
            candidate = at[state.midpoint]
            record = answer[candidate]
            if not record.ok and candidate in walked:
                break  # one slot would retry it: leave that to the next round
            walked.add(candidate)
            feasible = judge(record)
            probes.append(SearchProbe(block, state.midpoint, candidate, record, feasible))
            state = state.step(feasible)
        for m, candidate in at.items():
            if candidate in records and candidate not in walked:
                walked.add(candidate)
                probes.append(SearchProbe(block, m, candidate, records[candidate],
                                          judge(records[candidate]), speculative=True))
        if baseline is None:
            return 1.0, probes
    return state.upper, probes


def backward_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                       delta: float, oracle, budget: TrainingBudget,
                       scope: int | None = None, *,
                       # Unread: bench/workloads.py reference() passes it.
                       beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                       metric: str = "top1") -> ReductionResult:
    """Reduce the deepest ``scope`` macroblocks, last block first."""
    return _greedy_reduction(spec, partition, delta, oracle, budget, scope,
                             backward=True, metric=metric)


def forward_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                      delta: float, oracle, budget: TrainingBudget,
                      scope: int | None = None, *,
                      metric: str = "top1") -> ReductionResult:
    """Same greedy search with the block order reversed: first block first."""
    return _greedy_reduction(spec, partition, delta, oracle, budget, scope,
                             backward=False, metric=metric)


def _greedy_reduction(spec: ModelSpec, partition: MacroblockPartition | None,
                      delta: float, oracle, budget: TrainingBudget,
                      scope: int | None, *, backward: bool, metric: str) -> ReductionResult:
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

    for block in order:
        beta, probes = search_macroblock_multiplier(
            block, working, partition, delta, oracle, budget, baseline,
            metric=metric, trained=trained)
        trace.extend(probes)
        if baseline is None:
            baseline_record = probes[0].record
            baseline = baseline_record.metric(metric) if baseline_record.ok else None
            if baseline is None:
                cause = (f"baseline record has no {metric}" if baseline_record.ok
                         else "baseline evaluation failed")
                diagnostics.append(f"{cause}; no block was searched")
                log.warning("%s (status %s)", cause, baseline_record.status)
                break
        path = [p for p in probes if p.block is not None and not p.speculative]
        if path and not any(p.record.ok for p in path):
            diagnostics.append(f"block {block}: every probe failed; left at beta=1")
        betas[block] = beta
        working = apply_macroblock_scale(working, partition, block, beta)

    reduced_spec = with_config(spec, working)
    return ReductionResult(betas=tuple(betas), reduced_config=working,
                           base_report=base_report,
                           reduced_report=count_parameters(reduced_spec),
                           trace=tuple(trace),
                           scope=frozenset(order if baseline is not None else ()),
                           diagnostics=tuple(diagnostics))
