"""Seeded workload inputs and the in-process reference they are checked against.

``generate(name, seed, out_dir)`` writes the workload's run configuration, and
for the deep workload its layer descriptor, into ``out_dir``. chanreduce sees
only those files; the same seed always gives byte-identical files. Seed 0 keeps
the surrogate's default frontiers and weights; every other seed perturbs them.

``reference(workload, out_dir)`` runs the same command through the library API
with an in-process :class:`SurrogateOracle` at the same parameters, writing
its artifacts into ``out_dir``. Its evaluation count, the accuracy of every
configuration it scored and its artifacts are what the measured runs must
reproduce.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import chanreduce as cr

PIPE_WORKLOADS = ("reduce-r34-pipe", "rd-d15-pipe", "lesion-r34-pipe")
WORKLOADS = PIPE_WORKLOADS + ("rd-deep-surrogate",)

LATENCY_MS = 50.0
PARALLELISM = 2
CONFIG_NAME = "workload.cfg"
DESCRIPTOR_NAME = "deep.json"

DEFAULT_FRONTIERS = cr.SurrogateParams().frontiers
DEFAULT_WEIGHTS = cr.SurrogateParams().weights

LESION_VALUES = ("1/2", "3/4")
RD_DEFAULT_ALPHAS = (1.0, 0.75, 0.5, 0.25)   # chanreduce rd's default grid
DEEP_ALPHAS = (1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125)
# The deep model: 6 macroblocks of 50 convs. Each block's first entry is its
# widest, so the bisection cost of every block (and the evaluation count) does
# not depend on the seed; the other entries vary within [low, high].
DEEP_CONVS_PER_BLOCK = 50
DEEP_BLOCK_RANGES = ((32, 48), (48, 96), (96, 192), (192, 384), (384, 768), (768, 1024))


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    dir: Path
    frontiers: tuple[float, ...]
    weights: tuple[float, ...]
    argv: tuple[str, ...]            # chanreduce arguments, without --out
    latency_ms: float

    @property
    def config(self) -> Path:
        return self.dir / CONFIG_NAME

    @property
    def pipe(self) -> bool:
        return self.name in PIPE_WORKLOADS

    def stub_argv(self, config: str) -> list[str]:
        """Command line of the stub trainer for this workload's model."""
        return ["python3", "-m", "bench.stub_trainer", "--config", config,
                "--latency-ms", f"{self.latency_ms:g}",
                "--frontiers", ",".join(repr(f) for f in self.frontiers),
                "--weights", ",".join(repr(w) for w in self.weights)]


def surrogate_profile(seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Frontiers and weights for a seed: the defaults at seed 0, otherwise each
    frontier moved by up to 0.04 and each weight scaled by 0.75 to 1.25."""
    if seed == 0:
        return DEFAULT_FRONTIERS, DEFAULT_WEIGHTS
    rng = random.Random(f"surrogate-{seed}")
    frontiers = tuple(round(f + rng.uniform(-0.04, 0.04), 4) for f in DEFAULT_FRONTIERS)
    weights = tuple(round(w * rng.uniform(0.75, 1.25), 4) for w in DEFAULT_WEIGHTS)
    return frontiers, weights


def deep_spec(seed: int) -> cr.ModelSpec:
    """Seeded ~600-layer sequential model, built from the public API only."""
    rng = random.Random(f"deep-{seed}")
    highs = [high for _, high in DEEP_BLOCK_RANGES]
    spec = cr.build_sequential_cnn(DEEP_CONVS_PER_BLOCK * len(highs), highs,
                                   name=f"deep-{seed}")
    config = cr.channel_config(spec)
    entry = 1
    for low, high in DEEP_BLOCK_RANGES:
        for i in range(DEEP_CONVS_PER_BLOCK):
            if i > 0:
                config = cr.apply_constant_lesion(config, entry, rng.randint(low, high))
            entry += 1
    return cr.with_config(spec, config)


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def generate(name: str, seed: int, out_dir: Path, latency_ms: float = LATENCY_MS) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    frontiers, weights = surrogate_profile(seed)
    if name == "reduce-r34-pipe":
        argv = ("reduce",)
    elif name == "lesion-r34-pipe":
        argv = ("lesion", "--kind", "proportional", "--values", *LESION_VALUES)
    elif name == "rd-d15-pipe":
        argv = ("rd",)
    else:
        argv = ("rd", "--alphas", *(repr(a) for a in DEEP_ALPHAS))
    w = Workload(name, seed, out_dir, frontiers, weights,
                 argv + ("--config", CONFIG_NAME), latency_ms)

    if name == "rd-d15-pipe":
        model = ["family = sequential", "depth = 15", "block_widths = 16, 32, 64"]
    elif w.pipe:
        model = ["family = resnet34"]
    else:
        cr.save_descriptor(deep_spec(seed), out_dir / DESCRIPTOR_NAME)
        model = ["family = descriptor", f"descriptor = {DESCRIPTOR_NAME}"]
    if w.pipe:
        oracle = ["kind = external",
                  "trainer_cmd = " + " ".join(w.stub_argv(CONFIG_NAME)),
                  "timeout_seconds = 30.0"]
    else:
        oracle = ["kind = surrogate", f"frontiers = {_fmt(frontiers)}",
                  f"weights = {_fmt(weights)}"]
    oracle.append(f"parallelism = {PARALLELISM}")
    text = "\n".join(["[model]", *model, "", "[oracle]", *oracle, "",
                      "[search]", "delta = 0.01", ""])
    w.config.write_text(text, encoding="utf-8")
    return w


# -- reference ----------------------------------------------------------------


def record_key(digest: str, budget: dict) -> tuple[str, str]:
    """Ledger identity of an evaluation: (config digest, canonical budget)."""
    return digest, json.dumps(budget, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Expectation:
    evals: int                  # predicted by the cost law, else the reference's count
    unique_evals: int
    top1: dict                  # record_key -> top1 of every configuration scored
    files: dict                 # artifact name -> exact bytes
    reduction: dict | None      # reduce only: betas and reduced channel vector


class _Scorer:
    """In-process surrogate that remembers every evaluation it answered."""

    def __init__(self, inner: cr.SurrogateOracle):
        self.inner = inner
        self.records: list[cr.EvaluationRecord] = []

    def evaluate(self, config, budget):
        record = self.inner.evaluate(config, budget)
        self.records.append(record)
        return record


def bisection_cost(partition: cr.MacroblockPartition) -> int:
    """Probes of a full backward reduction: sum over blocks of ceil(log2(n/2))."""
    return sum(math.ceil(math.log2(b.search_width / 2)) for b in partition.blocks)


def reference(w: Workload, out: Path) -> Expectation:
    cfg = cr.RunConfig.from_file(w.config)
    spec = cfg.build_spec()
    scorer = _Scorer(cr.SurrogateOracle(spec, cr.SurrogateParams(frontiers=w.frontiers,
                                                                 weights=w.weights)))
    budget = cfg.search_budget()
    search = dict(beta_mode=cfg.beta_mode(), metric=cfg.search.metric)
    reduction = None
    out.mkdir(parents=True)
    evals = None
    if w.name == "reduce-r34-pipe":
        partition = cr.partition_macroblocks(spec)
        result = cr.backward_reduction(spec, partition, cfg.search.delta, scorer, budget,
                                       cfg.search.scope, **search)
        scorer.evaluate(result.reduced_config, cfg.final_budget())
        evals = 1 + bisection_cost(partition) + 1  # baseline, probes, final
        reduction = {"betas": list(result.betas),
                     "reduced_config": result.reduced_config.to_dict()}
    elif w.name == "lesion-r34-pipe":
        plan = cr.SweepPlan(kind=cr.SWEEP_PROPORTIONAL,
                            values=tuple(Fraction(v) for v in LESION_VALUES),
                            budget=budget)
        observations = cr.run_onehot_sweep(spec, plan, scorer)
        evals = cr.channel_config(spec).num_entries * len(LESION_VALUES)
        cr.write_onehot_csv(observations, out / "onehot.csv")
    else:
        alphas = RD_DEFAULT_ALPHAS if w.name == "rd-d15-pipe" else DEEP_ALPHAS
        cr.export_curve(cr.build_alpha_curve(spec, alphas, scorer, budget),
                        out / "alpha_curve.csv")
        cr.export_curve(cr.build_alpha_plus_backward_curve(
            spec, alphas, cfg.search.delta, scorer, budget, cfg.search.scope, **search),
            out / "rd_curve.csv")
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    top1 = {record_key(r.config_digest, r.budget.to_dict()): r.top1 for r in scorer.records}
    return Expectation(evals=evals or len(scorer.records), unique_evals=len(top1), top1=top1,
                       files=files, reduction=reduction)
