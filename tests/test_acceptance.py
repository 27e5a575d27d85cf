"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line and
holding to a wall-clock bound. Expected numbers come from independent
enumeration (not from the code under test) or are frozen table values."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

import chanreduce as cr
from chanreduce import cli
from chanreduce.arch import BatchNorm, Conv, FullyConnected
from chanreduce.rdcurve import (CURVE_HEADER, build_alpha_curve,
                                build_alpha_plus_backward_curve, export_curve)

from conftest import CountingOracle, sharp_surrogate


@contextlib.contextmanager
def criterion(capsys, number, seconds, text):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < seconds, f"criterion {number} took {elapsed:.2f}s (limit {seconds}s)"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            state = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {number}: {state} - {text} [{elapsed:.2f}s]")


# -- 1: accounting exactness -------------------------------------------------


def _enumerate_layer_scalars(spec):
    """Filter-by-filter recount, independent of the accounting module."""
    conv = fc = bn = buffers = 0
    for layer in spec.layers:
        if isinstance(layer, Conv):
            per_filter = layer.kernel[0] * layer.kernel[1] * layer.in_channels
            conv += layer.out_channels * per_filter
            if layer.has_bias:
                conv += layer.out_channels
        elif isinstance(layer, FullyConnected):
            fc += layer.in_features * layer.out_features
            if layer.has_bias:
                fc += layer.out_features
        elif isinstance(layer, BatchNorm):
            bn += 2 * layer.channels          # scale and shift
            buffers += 2 * layer.channels     # running mean and variance
    return conv, fc, bn, buffers


def test_criterion_1_accounting_exactness(capsys, d15_spec):
    with criterion(capsys, 1, 1.0, "depth-15 accounting exact to the scalar"):
        conv, fc, bn, buffers = _enumerate_layer_scalars(d15_spec)
        assert conv == 217008
        assert fc == 650
        assert bn == 1120
        size_bytes = (conv + fc + bn + buffers) * 4
        assert size_bytes == 879592

        report = cr.count_parameters(d15_spec)
        assert report.parameter_count == conv + fc + bn
        assert report.buffer_count == buffers
        assert report.size_bytes == size_bytes
        assert abs(size_bytes - 0.87 * 2 ** 20) / (0.87 * 2 ** 20) < 0.05


# -- 2: preset table arithmetic ----------------------------------------------


def _set_last_two_blocks(spec, w_penultimate, w_last):
    part = cr.partition_macroblocks(spec)
    cfg = cr.channel_config(spec)
    updates = {}
    for block, w in ((part.blocks[-2], w_penultimate), (part.blocks[-1], w_last)):
        updates.update({i: w for i in range(*block.entry_range)})
    return cr.with_config(spec, cfg.replace_entries(updates))


def test_criterion_2_preset_tables(capsys):
    with criterion(capsys, 2, 1.0, "ResNet-34 / MobileNet size and saving figures"):
        r34 = cr.count_parameters(cr.resnet34())
        assert abs(r34.parameter_count - 21.8e6) / 21.8e6 < 0.02
        r34_red = cr.count_parameters(_set_last_two_blocks(cr.resnet34(), 256, 346))
        assert abs(r34_red.parameter_count - 14.8e6) / 14.8e6 < 0.02
        assert abs(cr.saving_percent(r34, r34_red) - 32.1) < 1.0

        mob = cr.count_parameters(cr.mobilenet())
        assert abs(mob.parameter_count - 4.23e6) / 4.23e6 < 0.02
        mob_red = cr.count_parameters(_set_last_two_blocks(cr.mobilenet(), 507, 513))
        assert abs(mob_red.parameter_count - 2.64e6) / 2.64e6 < 0.02
        assert abs(cr.saving_percent(mob, mob_red) - 37.56) < 1.0


# -- 3: bisection call-count law ---------------------------------------------


def _probe_count(n):
    spec = cr.build_sequential_cnn(1, [n])
    partition = cr.partition_macroblocks(spec)
    oracle = CountingOracle(cr.SurrogateOracle(spec))
    cr.search_macroblock_multiplier(0, cr.channel_config(spec), partition, 0.01,
                                    oracle, cr.SEARCH_BUDGET, 0.91)
    return oracle.calls


def test_criterion_3_call_count_law(capsys):
    with criterion(capsys, 3, 1.0, "bisection cost is ceil(log2(n/2)) oracle calls"):
        for n, expected in [(2, 0), (16, 3), (32, 4), (64, 5), (128, 6), (512, 8)]:
            assert _probe_count(n) == expected
        # The law holds across the whole range, not just the named widths.
        for n in range(2, 513):
            law = 0 if n == 2 else math.ceil(math.log2(n / 2))
            assert _probe_count(n) == law == (n - 1).bit_length() - 1


# -- 4: oracle equivalence against exhaustive scan ---------------------------


def _scan_minimal_feasible(n, frontier, weight, delta):
    for w in range(math.ceil(n / 2), n + 1):
        gap = max(0.0, frontier - min(1.0, w / n))
        acc = min(1.0, max(0.0, 0.91 - weight * gap ** 2))
        if 0.91 - acc < delta:
            return w
    raise AssertionError("nominal width is always feasible")


def test_criterion_4_scan_equivalence(capsys):
    with criterion(capsys, 4, 10.0,
                   "200 random frontiers: bisection within 1 of scan optimum, drop < delta"):
        rng = random.Random(20260822)
        for _ in range(200):
            n = rng.randint(2, 256)
            frontier = rng.uniform(0.3, 1.0)
            weight = rng.uniform(0.5, 4000.0)
            delta = rng.uniform(0.001, 0.05)

            spec = cr.build_sequential_cnn(1, [n])
            partition = cr.partition_macroblocks(spec)
            oracle = sharp_surrogate(spec, frontiers=(frontier,) * 3, weight=weight)
            config = cr.channel_config(spec)
            baseline = oracle.evaluate(config, cr.SEARCH_BUDGET).top1

            beta, _ = cr.search_macroblock_multiplier(
                0, config, partition, delta, oracle, cr.SEARCH_BUDGET, baseline)
            width = cr.scale_width(n, beta)
            assert abs(width - _scan_minimal_feasible(n, frontier, weight, delta)) <= 1

            final = oracle.evaluate(
                cr.apply_macroblock_scale(config, partition, 0, beta),
                cr.SEARCH_BUDGET)
            assert baseline - final.top1 < delta


# -- 5: backward beats forward -----------------------------------------------


def test_criterion_5_backward_beats_forward(capsys, d15_spec, d15_partition):
    with criterion(capsys, 5, 5.0,
                   "backward saving strictly exceeds forward at delta=0.01"):
        back = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                     cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
        fwd = cr.forward_reduction(d15_spec, d15_partition, 0.01,
                                   cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
        assert back.saving > fwd.saving


# -- 6: lesion vector goldens ------------------------------------------------


def test_criterion_6_lesion_goldens(capsys, d15_spec):
    with criterion(capsys, 6, 1.0, "h1/h14 lesion channel vectors byte-exact"):
        nominal = cr.channel_config(d15_spec)
        c = 4
        cases = [
            (cr.apply_constant_lesion(nominal, 1, c),
             [3, c, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64, 64, 64]),
            (cr.apply_constant_lesion(nominal, 14, c),
             [3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64, c, 64]),
            (cr.apply_proportional_lesion(nominal, 1, Fraction(1, 16)),
             [3, 1, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64, 64, 64]),
            (cr.apply_proportional_lesion(nominal, 14, Fraction(1, 16)),
             [3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64, 4, 64]),
            (cr.apply_proportional_lesion(nominal, 14, Fraction(1, 8)),
             [3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64, 8, 64]),
        ]
        for got, expected in cases:
            assert json.dumps(list(got.channels)).encode() == \
                json.dumps(expected).encode()

        # The sweep machinery produces those same vectors.
        plan = cr.SweepPlan(cr.SWEEP_CONSTANT, (c,), indices=(1, 14))
        obs = cr.run_onehot_sweep(d15_spec, plan, cr.SurrogateOracle(d15_spec))
        assert list(obs[0].config.channels) == cases[0][1]
        assert list(obs[1].config.channels) == cases[1][1]


# -- 7: trade-off curve properties -------------------------------------------


def test_criterion_7_curve_properties(capsys, d15_spec, tmp_path):
    with criterion(capsys, 7, 5.0,
                   "alpha curve sizes increase; composed points never larger; CSV round-trips"):
        alphas = (0.5, 0.6, 0.7, 0.8, 0.9)
        alpha_points = build_alpha_curve(d15_spec, alphas,
                                         cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
        sizes = [p.size_bytes for p in alpha_points]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

        composed = build_alpha_plus_backward_curve(
            d15_spec, alphas, 0.01, cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
        by_alpha = {p.label.split("+")[0]: p for p in alpha_points}
        assert len(composed) == len(alphas)
        for point in composed:
            assert point.size_bytes <= by_alpha[point.label.split("+")[0]].size_bytes

        path = tmp_path / "curve.csv"
        export_curve(alpha_points, path)
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == CURVE_HEADER
        assert [(label, int(size), int(params), float(top1), digest)
                for label, size, params, top1, digest in rows] == \
            [dataclasses.astuple(p) for p in alpha_points]


# -- 8: replay determinism ---------------------------------------------------


def test_criterion_8_replay_determinism(capsys, tmp_path):
    with criterion(capsys, 8, 2.0,
                   "ledger replay reproduces betas and reports with zero new evaluations"):
        config = tmp_path / "run.cfg"
        config.write_text("")                   # defaults: depth-15, surrogate
        out = tmp_path / "out"
        assert cli.main(["reduce", "--config", str(config), "--out", str(out)]) == 0
        betas = json.loads((out / "reduction.json").read_text())["betas"]
        assert betas == [0.9375, 0.84375, 0.515625]

        replayed = tmp_path / "replayed"
        assert cli.main(["replay", str(out), "--out", str(replayed)]) == 0
        for name in ("resolved.cfg", "ledger.jsonl", "reduction.json", "summary.txt"):
            assert (replayed / name).read_bytes() == (out / name).read_bytes()

        # Library-level: the replayed search answers purely from the ledger.
        cfg = cr.RunConfig.from_file(replayed / "resolved.cfg")
        spec = cfg.build_spec()
        ledger = cr.EvaluationLedger(replayed / "ledger.jsonl")
        lines_before = len(ledger)
        result = cr.backward_reduction(spec, None, cfg.search.delta,
                                       cr.RecordingOracle(None, ledger, spec),
                                       cfg.search_budget())
        assert list(result.betas) == betas
        assert len(ledger) == lines_before
