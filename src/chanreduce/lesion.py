"""Width lesion sweeps: probe a model's sensitivity to channel narrowing.

A sweep varies one unit of the network at a time over a grid of values and
evaluates every variant. A unit is a channel entry (numbered from 1), set to a
constant width or scaled by a proportional factor, or a whole macroblock
(numbered from 0), scaled by a factor. Failures are recorded and never abort a
sweep.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

from .accounting import count_parameters
from .arch import (ChannelConfig, ModelSpec, apply_constant_lesion, apply_macroblock_scale,
                   apply_proportional_lesion, channel_config, format_value,
                   partition_macroblocks, scale_width, with_config, write_csv)
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
        if self.kind == SWEEP_MACROBLOCK and self.indices is not None:
            raise ValueError(f"{SWEEP_MACROBLOCK} sweeps scale every block; "
                             "indices pick channel entries")
        for v in self.values:
            if self.kind != SWEEP_CONSTANT:
                scale_width(1, v)   # raises outside (0, 1]
            elif not isinstance(v, int) or v < 1:
                raise ValueError(f"constant sweeps take positive integer widths, got {v!r}")


@dataclass(frozen=True)
class SweepObservation:
    index: int   # the unit varied: a channel entry (from 1) or a macroblock (from 0)
    parameter: object
    config: ChannelConfig
    record: EvaluationRecord


def sweep_configs(spec: ModelSpec, plan: SweepPlan) -> list[tuple[int, object, ChannelConfig]]:
    """``(unit, value, config)`` of each variant, unit-major (all values of the
    first unit, then the next). Constant plans set a channel entry to fixed
    widths, proportional plans ceiling-scale it; entries are ``plan.indices``,
    else all of them. Macroblock plans ceiling-scale every entry of one block,
    for each block. A missing unit or a widening constant raises ValueError."""
    nominal = channel_config(spec)
    if plan.kind == SWEEP_MACROBLOCK:
        partition = partition_macroblocks(spec)
        units = range(partition.num_blocks)
        lesion = partial(apply_macroblock_scale, nominal, partition)
    else:
        units = range(1, nominal.num_entries + 1) if plan.indices is None else plan.indices
        lesion = partial(apply_constant_lesion if plan.kind == SWEEP_CONSTANT
                         else apply_proportional_lesion, nominal)
    return [(u, v, lesion(u, v)) for u in units for v in plan.values]


def run_onehot_sweep(spec: ModelSpec, plan: SweepPlan, oracle) -> list[SweepObservation]:
    """Evaluate the variants of :func:`sweep_configs` on the oracle's slots."""
    variants = sweep_configs(spec, plan)
    records = fan_out(oracle, lambda cfg: oracle.evaluate(cfg, plan.budget),
                      [cfg for _, _, cfg in variants])
    observations = [SweepObservation(*variant, rec) for variant, rec in zip(variants, records)]
    for obs in observations:
        if not obs.record.ok:
            log.warning("%s lesion (%d, %s) evaluation status %s",
                        plan.kind, obs.index, obs.parameter, obs.record.status)
    return observations


def write_onehot_csv(observations: list[SweepObservation], path) -> None:
    write_csv(path, ["index", "parameter", "top1", "status"],
              ([o.index, format_value(o.parameter), o.record.top1, o.record.status]
               for o in observations))


def write_rd_points_csv(spec: ModelSpec, observations: list[SweepObservation], path) -> None:
    """One size/accuracy point per observation, sized by recounting its network."""
    reports = [count_parameters(with_config(spec, o.config)) for o in observations]
    write_csv(path, ["block_id", "k", "params", "size_bytes", "top1"],
              ([o.index, format_value(o.parameter), r.parameter_count, r.size_bytes,
                o.record.top1] for o, r in zip(observations, reports)))
