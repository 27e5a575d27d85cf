"""Rate-distortion curves: model size against accuracy.

Two curve families: uniform width scaling alone (one point per multiplier alpha),
and the same scaling composed with greedy backward block reduction, which dominates
the plain curve point-for-point in size at a bounded accuracy cost. Curves are
written, as CSV and as gnuplot data, and never read back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .accounting import count_parameters
from .arch import (ModelSpec, apply_alpha_scaling, channel_config, scale_width, with_config,
                   write_csv)
from .oracle import TrainingBudget, fan_out
from .search import BetaMode, backward_reduction

log = logging.getLogger(__name__)

CURVE_HEADER = ["label", "size_bytes", "params", "top1", "config_digest"]


@dataclass(frozen=True)
class RDPoint:
    label: str
    size_bytes: int
    params: int
    top1: float
    config_digest: str


def check_alphas(alphas) -> list:
    """The multiplier grid as a list; empty, or with an alpha :func:`scale_width`
    refuses (outside (0, 1], or too small to scale a width), raises."""
    out = list(alphas)
    if not out:
        raise ValueError("need a non-empty multiplier grid")
    for a in out:
        scale_width(1, a)
    return out


def _curve(spec: ModelSpec, alphas, oracle, point_at, suffix: str, skipped: str) -> list[RDPoint]:
    """The alpha grid of both curves, sorted by size ascending. ``point_at(config)``
    gives a scaled configuration's size report and record (None: no point), once per
    distinct configuration (see :func:`fan_out`); an alpha without an ok record is logged."""
    alphas = check_alphas(alphas)
    configs = [apply_alpha_scaling(channel_config(spec), alpha) for alpha in alphas]
    points = []
    for alpha, (report, record) in zip(alphas, fan_out(oracle, point_at, configs)):
        if record is None or not record.ok:
            log.warning(skipped, alpha, "unsearched" if record is None else record.status)
            continue
        points.append(RDPoint(f"alpha={float(alpha):g}{suffix}", report.size_bytes,
                              report.parameter_count, record.top1, record.config_digest))
    return sorted(points, key=lambda p: p.size_bytes)


def build_alpha_curve(spec: ModelSpec, alphas, oracle, budget: TrainingBudget) -> list[RDPoint]:
    """One point per multiplier whose scaled model evaluates ok."""
    return _curve(spec, alphas, oracle,
                  lambda config: (count_parameters(with_config(spec, config)),
                                  oracle.evaluate(config, budget)),
                  "", "alpha=%g evaluation status %s; point skipped")


def build_alpha_plus_backward_curve(spec: ModelSpec, alphas, delta: float, oracle,
                                    budget: TrainingBudget, scope: int | None = None, *,
                                    beta_mode: BetaMode = BetaMode.FEASIBLE_BOUND,
                                    metric: str = "top1") -> list[RDPoint]:
    """Compose uniform scaling with backward reduction: for each alpha, scale the
    model, then greedily reduce its macroblocks within the accuracy budget delta
    (measured against the scaled model's own accuracy). Each distinct scaled
    model is reduced once, on its share of the oracle's slots; its point takes
    the reduced configuration's ok record from the trace, else evaluates it again.
    A reduction that searched nothing (no usable baseline) gives no point."""
    def reduce_at(config):
        result = backward_reduction(with_config(spec, config), None, delta, oracle, budget,
                                    scope, beta_mode=beta_mode, metric=metric)
        if not result.scope:
            return result.reduced_report, None
        return result.reduced_report, (result.reduced_record
                                       or oracle.evaluate(result.reduced_config, budget))

    return _curve(spec, alphas, oracle, reduce_at, "+backward",
                  "alpha=%g composed point status %s; point skipped")


def export_curve(points: list[RDPoint], path) -> None:
    """Write the canonical curve CSV. Re-exporting unchanged points is
    byte-identical."""
    write_csv(path, CURVE_HEADER,
              ([p.label, p.size_bytes, p.params, p.top1, p.config_digest] for p in points))


def export_gnuplot(points: list[RDPoint], path) -> None:
    """Two-column plot data: size in KB, accuracy in percent."""
    lines = ["# size_kb top1_percent"]
    lines += [f"{p.size_bytes / 1024:.10g} {p.top1 * 100:.10g}" for p in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
