"""Width lesion sweeps: probe a model's sensitivity to channel narrowing.

A one-hot sweep narrows a single channel entry at a time (to a constant width or by
a proportional factor) and evaluates every variant. The macroblock sweep scales one
whole block per point over a grid of factors, yielding per-block size/accuracy
trade-off points. Failures are recorded and never abort a sweep.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .accounting import count_parameters
from .arch import (ChannelConfig, MacroblockPartition, ModelSpec,
                   apply_constant_lesion, apply_macroblock_scale,
                   apply_proportional_lesion, channel_config, with_config)
from .oracle import SEARCH_BUDGET, EvaluationRecord, TrainingBudget, fan_out

log = logging.getLogger(__name__)

SWEEP_CONSTANT = "constant"
SWEEP_PROPORTIONAL = "proportional"
SWEEP_MACROBLOCK = "macroblock_scale"
_SWEEP_KINDS = (SWEEP_CONSTANT, SWEEP_PROPORTIONAL, SWEEP_MACROBLOCK)


@dataclass(frozen=True)
class SweepPlan:
    kind: str
    values: tuple
    indices: tuple[int, ...] | None = None   # None: every channel entry
    budget: TrainingBudget = SEARCH_BUDGET

    def __post_init__(self):
        if self.kind not in _SWEEP_KINDS:
            raise ValueError(f"sweep kind must be one of {_SWEEP_KINDS}, got {self.kind!r}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value grid")


@dataclass(frozen=True)
class SweepObservation:
    index: int
    parameter: object
    config: ChannelConfig
    record: EvaluationRecord


@dataclass(frozen=True)
class BlockRDPoint:
    block: int
    k: object
    params: int
    size_bytes: int
    record: EvaluationRecord


def run_onehot_sweep(spec: ModelSpec, plan: SweepPlan, oracle) -> list[SweepObservation]:
    """One-hot channel lesions in index-major order (all values of entry 1, then
    entry 2, ...). Constant plans set entries to fixed widths; proportional plans
    ceiling-scale them."""
    if plan.kind == SWEEP_MACROBLOCK:
        raise ValueError("macroblock sweeps are driven by run_macroblock_rd_sweep")
    nominal = channel_config(spec)
    indices = plan.indices if plan.indices is not None else tuple(range(1, nominal.num_entries + 1))

    keys: list[tuple[int, object]] = [(i, v) for i in indices for v in plan.values]
    lesion = apply_constant_lesion if plan.kind == SWEEP_CONSTANT else apply_proportional_lesion
    configs = [lesion(nominal, i, v) for i, v in keys]

    records = fan_out(oracle, lambda cfg: oracle.evaluate(cfg, plan.budget), configs)
    observations = [SweepObservation(i, v, cfg, rec)
                    for (i, v), cfg, rec in zip(keys, configs, records)]
    for obs in observations:
        if not obs.record.ok:
            log.warning("lesion (entry %d, %s) evaluation status %s",
                        obs.index, obs.parameter, obs.record.status)
    return observations


def run_macroblock_rd_sweep(spec: ModelSpec, partition: MacroblockPartition,
                            k_values, oracle, budget: TrainingBudget) -> list[BlockRDPoint]:
    """Scale each macroblock through the factor grid; one trade-off point per
    (block, k), block-major."""
    ks = tuple(k_values)
    if not ks:
        raise ValueError("need a non-empty factor grid")
    nominal = channel_config(spec)
    keys = [(b, k) for b in range(partition.num_blocks) for k in ks]
    configs = [apply_macroblock_scale(nominal, partition, b, k) for b, k in keys]
    records = fan_out(oracle, lambda cfg: oracle.evaluate(cfg, budget), configs)

    points = []
    for (b, k), cfg, rec in zip(keys, configs, records):
        report = count_parameters(with_config(spec, cfg))
        points.append(BlockRDPoint(b, k, report.parameter_count, report.size_bytes, rec))
    return points


def format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def write_onehot_csv(observations: list[SweepObservation], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "parameter", "top1", "status"])
        for obs in observations:
            top1 = "" if obs.record.top1 is None else repr(obs.record.top1)
            writer.writerow([obs.index, format_value(obs.parameter), top1, obs.record.status])


def write_rd_points_csv(points: list[BlockRDPoint], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "k", "params", "size_bytes", "top1"])
        for p in points:
            top1 = "" if p.record.top1 is None else repr(p.record.top1)
            writer.writerow([p.block, format_value(p.k), p.params, p.size_bytes, top1])
