"""Bisection mechanics, call-count law, and greedy block-by-block reduction."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import chanreduce as cr
from chanreduce import search
from chanreduce.oracle import fan_out
from chanreduce.search import Bisection

from conftest import CountingOracle, FailingOracle, sharp_surrogate


def test_counting_oracle_counts_every_concurrent_call():
    # The multi-slot tests compare CountingOracle.calls with exact counts, so the
    # counter must not lose increments when slots call it at the same moment.
    class Null:
        def evaluate(self, config, budget):
            return None

    oracle = CountingOracle(Null())
    start = threading.Barrier(24, timeout=30)

    def hammer():
        start.wait()
        for _ in range(500):
            oracle.evaluate(None, None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert oracle.calls == 24 * 500


def expected_calls(n: int) -> int:
    return math.ceil(math.log2(n / 2)) if n > 2 else 0


def _single_block(width: int) -> tuple:
    spec = cr.build_sequential_cnn(1, [width])
    return spec, cr.partition_macroblocks(spec)


# -- worked example ----------------------------------------------------------


def test_bisection_worked_example_probe_sequence():
    # Width 64, sharp feasibility knee just above half width: the five
    # midpoints and the final bound are fully determined.
    spec, partition = _single_block(64)
    oracle = CountingOracle(sharp_surrogate(spec))
    config = cr.channel_config(spec)
    baseline = oracle.evaluate(config, cr.SEARCH_BUDGET).top1

    beta, probes = cr.search_macroblock_multiplier(
        0, config, partition, 0.01, oracle, cr.SEARCH_BUDGET, baseline)

    assert [p.beta for p in probes] == [0.75, 0.625, 0.5625, 0.53125, 0.546875]
    assert [p.feasible for p in probes] == [True, True, True, False, False]
    assert beta == 0.5625
    assert cr.scale_width(64, beta) == 36
    assert oracle.calls == 1 + 5


def test_two_channel_block_needs_no_probes():
    spec, partition = _single_block(2)
    oracle = CountingOracle(cr.SurrogateOracle(spec))
    config = cr.channel_config(spec)
    beta, probes = cr.search_macroblock_multiplier(
        0, config, partition, 0.01, oracle, cr.SEARCH_BUDGET, 0.91)
    assert beta == 1.0 and probes == [] and oracle.calls == 0


@pytest.mark.parametrize("n,calls", [(2, 0), (16, 3), (32, 4), (64, 5),
                                     (128, 6), (512, 8)])
def test_call_count_law(n, calls):
    spec, partition = _single_block(n)
    oracle = CountingOracle(cr.SurrogateOracle(spec))
    baseline = oracle.evaluate(cr.channel_config(spec), cr.SEARCH_BUDGET).top1
    cr.search_macroblock_multiplier(0, cr.channel_config(spec), partition,
                                    0.01, oracle, cr.SEARCH_BUDGET, baseline)
    assert oracle.calls - 1 == calls == expected_calls(n)


@given(st.integers(min_value=2, max_value=4096))
def test_call_count_is_log2_of_half_width(n):
    spec, partition = _single_block(n)
    oracle = CountingOracle(cr.SurrogateOracle(spec))
    cr.search_macroblock_multiplier(0, cr.channel_config(spec), partition,
                                    0.5, oracle, cr.SEARCH_BUDGET, 0.91)
    assert oracle.calls == (n - 1).bit_length() - 1


# -- the bisection state alone ----------------------------------------------


@given(st.integers(min_value=2, max_value=4096))
def test_bisection_left_is_the_cost_law(n):
    assert Bisection(n).left() == (n - 1).bit_length() - 1


@given(st.data())
def test_any_decisions_close_the_interval(data):
    n = data.draw(st.integers(min_value=2, max_value=4096))
    state = Bisection(n)
    decisions = data.draw(st.lists(st.booleans(), min_size=state.left(),
                                   max_size=state.left()))
    for left, feasible in zip(range(state.left(), 0, -1), decisions):
        assert state.left() == left
        state = state.step(feasible)
    assert state.left() == 0
    assert 0.5 <= state.lower < state.upper <= 1
    assert (state.upper - state.lower) * n <= 1


@given(st.integers(min_value=2, max_value=4096), st.data())
def test_tree_lists_the_midpoints_steps_can_visit(n, data):
    state = Bisection(n)
    levels = data.draw(st.integers(min_value=0, max_value=state.left()))

    def walk(decisions):
        end = state
        for feasible in decisions:
            end = end.step(feasible)
        return end.midpoint

    # Level by level; within a level, the feasible (lower) half first.
    expected = [walk(decisions) for depth in range(levels)
                for decisions in itertools.product((True, False), repeat=depth)]
    assert state.tree(levels) == expected
    for depth in range(levels):
        level = expected[2 ** depth - 1:2 ** (depth + 1) - 1]
        assert level == sorted(set(level))


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_tree_steps_only_between_its_levels(monkeypatch, levels):
    # The last level's children are never read, so they are never built.
    steps, step = [], Bisection.step

    def counted(self, feasible):
        steps.append(feasible)
        return step(self, feasible)

    monkeypatch.setattr(Bisection, "step", counted)
    assert len(Bisection(1024).tree(levels)) == 2 ** levels - 1
    assert len(steps) == 2 ** levels - 2


# -- agreement with an exhaustive scan ---------------------------------------


def _scan_minimal_feasible(n: int, frontier: float, weight: float,
                           delta: float) -> int:
    """Smallest width in [ceil(n/2), n] whose accuracy drop stays below delta,
    computed from the closed-form surrogate rather than via the search."""
    for w in range(math.ceil(n / 2), n + 1):
        gap = max(0.0, frontier - min(1.0, w / n))
        acc = min(1.0, max(0.0, 0.91 - weight * gap ** 2))
        if 0.91 - acc < delta:
            return w
    raise AssertionError("nominal width must always be feasible")


@pytest.mark.parametrize("seed", range(6))
def test_bisection_matches_exhaustive_scan(seed):
    rng = random.Random(seed)
    for _ in range(8):
        n = rng.randint(2, 256)
        frontier = rng.uniform(0.3, 1.0)
        weight = rng.uniform(0.5, 4000.0)
        delta = rng.uniform(0.001, 0.05)
        spec, partition = _single_block(n)
        oracle = sharp_surrogate(spec, frontiers=(frontier,) * 3, weight=weight)
        config = cr.channel_config(spec)
        baseline = oracle.evaluate(config, cr.SEARCH_BUDGET).top1

        beta, _ = cr.search_macroblock_multiplier(
            0, config, partition, delta, oracle, cr.SEARCH_BUDGET, baseline)
        width = cr.scale_width(n, beta)
        best = _scan_minimal_feasible(n, frontier, weight, delta)

        assert abs(width - best) <= 1
        final = oracle.evaluate(
            cr.apply_macroblock_scale(config, partition, 0, beta), cr.SEARCH_BUDGET)
        assert baseline - final.top1 < delta


# -- greedy reduction --------------------------------------------------------


def _d15(a: int, b: int, c: int) -> tuple:
    """d15 channel vector with uniform block widths a, b and c."""
    return (3,) + (a,) * 5 + (b,) * 5 + (c,) * 5


# Backward reduction of d15 scaled to alpha=0.75, scored against the nominal
# model as `rd` does: (block, beta, channels, top1) of every probe, in order.
ALPHA_075_PROBES = [
    (None, 1.0, _d15(12, 24, 48), 0.7100000000000002),
    (2, 0.75, _d15(12, 24, 36), 0.7100000000000002),
    (2, 0.625, _d15(12, 24, 30), 0.6835937500000001),
    (2, 0.6875, _d15(12, 24, 33), 0.7052734375000002),
    (2, 0.65625, _d15(12, 24, 32), 0.7000000000000002),
    (2, 0.671875, _d15(12, 24, 33), 0.7052734375000002),
    (1, 0.75, _d15(12, 18, 33), 0.41464843750000013),
    (1, 0.875, _d15(12, 21, 33), 0.5951171875000001),
    (1, 0.9375, _d15(12, 23, 33), 0.6763671875000001),
    (1, 0.96875, _d15(12, 24, 33), 0.7052734375000002),
    (0, 0.75, _d15(9, 24, 33), 0.2646484375000002),
    (0, 0.875, _d15(11, 24, 33), 0.5896484375000002),
    (0, 0.9375, _d15(12, 24, 33), 0.7052734375000002),
]


def _alpha_075_reduction(d15_spec, oracle):
    scaled = cr.with_config(d15_spec, cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.75))
    return cr.backward_reduction(scaled, None, 0.01, oracle, cr.SEARCH_BUDGET)


def test_alpha_075_reduction_golden(d15_spec):
    result = _alpha_075_reduction(d15_spec, cr.SurrogateOracle(d15_spec))
    assert result.betas == (0.9375, 0.96875, 0.671875)
    assert [(p.block, p.beta, p.config.channels, p.record.top1)
            for p in result.trace] == ALPHA_075_PROBES


def test_reduction_trains_each_config_once(d15_spec):
    # (12, 24, 33) is probed four times and (12, 24, 48) is the baseline:
    # 13 probes, 10 distinct vectors, 10 oracle calls.
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec))
    result = _alpha_075_reduction(d15_spec, oracle)
    assert len(result.trace) == 13
    assert len({p.config for p in result.trace}) == oracle.calls == 10
    assert result.betas == (0.9375, 0.96875, 0.671875)


def test_reduction_retries_a_failed_config():
    # Width 10 with the knee at 8 probes widths 8, 7, 7: the repeated infeasible
    # probe is answered from the first record, unless that record had failed.
    spec, partition = _single_block(10)
    seven = cr.apply_macroblock_scale(cr.channel_config(spec), partition, 0, 0.7)
    for inner, calls in ((sharp_surrogate(spec, frontiers=(0.8,)), 3),
                         (FailingOracle(sharp_surrogate(spec, frontiers=(0.8,)),
                                        lambda c: c == seven, times=1), 4)):
        oracle = CountingOracle(inner)
        result = cr.backward_reduction(spec, partition, 0.01, oracle, cr.SEARCH_BUDGET)
        assert [p.config.channels[1] for p in result.trace] == [10, 8, 7, 7]
        assert [p.record.ok for p in result.trace] == [True, True, calls == 3, True]
        assert oracle.calls == calls
        assert result.betas == (0.75,)


@pytest.mark.parametrize("slots", [1, 3])
@pytest.mark.parametrize("model", ["resnet18", "resnet34", "mobilenet", "d15"])
def test_reduced_record_is_the_traced_record_of_the_reduced_config(model, slots):
    # The feasible bound was probed ok, or is the baseline: the trace holds it.
    spec = cr.build_sequential_cnn(15, [16, 32, 64]) if model == "d15" else getattr(cr, model)()
    result = cr.backward_reduction(spec, None, 0.01,
                                   CountingOracle(cr.SurrogateOracle(spec), slots=slots),
                                   cr.SEARCH_BUDGET)
    record = result.reduced_record
    assert record is not None and record.ok
    assert record.config_digest == cr.config_digest(result.reduced_config, spec)


def test_backward_reduction_defaults(d15_spec, d15_partition):
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec))
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01, oracle,
                                   cr.SEARCH_BUDGET)
    assert result.betas == (0.9375, 0.84375, 0.515625)
    assert result.reduced_config.block_channels(0) == (15,) * 5
    assert result.reduced_config.block_channels(1) == (27,) * 5
    assert result.reduced_config.block_channels(2) == (33,) * 5
    assert oracle.calls == 1 + 3 + 4 + 5
    assert result.scope == frozenset({0, 1, 2})
    assert result.saving == pytest.approx(60.2284, abs=5e-3)
    assert result.baseline_record is not None and result.baseline_record.top1 == 0.91
    assert result.diagnostics == ()


def test_forward_reduction_defaults(d15_spec, d15_partition):
    result = cr.forward_reduction(d15_spec, d15_partition, 0.01,
                                  cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
    widths = [result.reduced_config.block_channels(b)[0] for b in (0, 1, 2)]
    assert widths == [15, 26, 34]
    assert result.saving == pytest.approx(60.0847, abs=5e-3)


def test_backward_beats_forward(d15_spec, d15_partition):
    kw = dict(delta=0.01, budget=cr.SEARCH_BUDGET)
    back = cr.backward_reduction(d15_spec, d15_partition,
                                 oracle=cr.SurrogateOracle(d15_spec), **kw)
    fwd = cr.forward_reduction(d15_spec, d15_partition,
                               oracle=cr.SurrogateOracle(d15_spec), **kw)
    assert back.saving > fwd.saving


def test_scope_limits_blocks_searched(d15_spec, d15_partition):
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                   cr.SurrogateOracle(d15_spec),
                                   cr.SEARCH_BUDGET, scope=2)
    assert result.betas[0] == 1.0
    assert result.scope == frozenset({1, 2})
    assert result.reduced_config.block_channels(0) == (16,) * 5


def test_greedy_accumulates_working_config(d15_spec, d15_partition):
    # Block 1 is searched after block 2, so its probe configs must already
    # carry block 2's reduced width.
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                   cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
    block1_probes = [p for p in result.trace if p.block == 1]
    assert block1_probes
    for probe in block1_probes:
        assert probe.config.block_channels(2) == (33,) * 5


def test_degenerate_deltas(d15_spec, d15_partition):
    all_feasible = cr.backward_reduction(d15_spec, d15_partition, 1.0,
                                         cr.SurrogateOracle(d15_spec),
                                         cr.SEARCH_BUDGET)
    widths = [all_feasible.reduced_config.block_channels(b)[0] for b in (0, 1, 2)]
    assert widths == [9, 17, 33]

    none_feasible = cr.backward_reduction(d15_spec, d15_partition, 0.0,
                                          cr.SurrogateOracle(d15_spec),
                                          cr.SEARCH_BUDGET)
    assert none_feasible.betas == (1.0, 1.0, 1.0)
    assert none_feasible.reduced_config == cr.channel_config(d15_spec)


def test_reduction_is_deterministic(d15_spec, d15_partition):
    runs = [cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                  cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
            for _ in range(2)]
    assert runs[0].betas == runs[1].betas
    assert runs[0].reduced_config == runs[1].reduced_config
    assert [p.record.config_digest for p in runs[0].trace] == \
           [p.record.config_digest for p in runs[1].trace]


def test_failed_baseline_skips_search(d15_spec, d15_partition):
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                   FailingOracle(cr.SurrogateOracle(d15_spec), lambda c: True),
                                   cr.SEARCH_BUDGET)
    assert result.betas == (1.0, 1.0, 1.0)
    assert result.scope == frozenset()
    assert result.diagnostics == ("baseline evaluation failed; no block was searched",)
    assert len(result.trace) == 1


def test_a_baseline_without_the_metric_names_it_and_skips_search(d15_spec, d15_partition,
                                                                   caplog):
    # The surrogate reports top1 only: its ok baseline gives no top5 to search on.
    with caplog.at_level("WARNING", logger="chanreduce.search"):
        result = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                       cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET,
                                       metric="top5")
    assert result.baseline_record.ok
    assert result.scope == frozenset() and result.reduced_record == result.baseline_record
    assert result.diagnostics == ("baseline record has no top5; no block was searched",)
    assert [r.message for r in caplog.records] == ["baseline record has no top5 (status ok)"]
    assert len(result.trace) == 1


def test_all_failed_probes_leave_block_alone(d15_spec, d15_partition):
    # The baseline is ok; every other config fails.
    nominal = cr.channel_config(d15_spec)
    oracle = FailingOracle(cr.SurrogateOracle(d15_spec), lambda c: c != nominal)
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01, oracle, cr.SEARCH_BUDGET)
    assert result.betas == (1.0, 1.0, 1.0)
    assert result.reduced_config == nominal
    assert result.reduced_record.ok
    assert result.reduced_record.config_digest == cr.config_digest(nominal, d15_spec)
    assert len(result.diagnostics) == 3
    for b in (0, 1, 2):
        assert f"block {b}: every probe failed; left at beta=1" in result.diagnostics


def test_result_serialization_round_trips_shape(d15_spec, d15_partition):
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01,
                                   cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
    blob = result.to_dict()
    assert blob["betas"] == [0.9375, 0.84375, 0.515625]
    assert blob["scope"] == [0, 1, 2]
    assert blob["reduced_config"]["channels"][-1] == 33
    assert len(blob["trace"]) == 13


def test_search_validation(d15_spec, d15_partition):
    oracle = cr.SurrogateOracle(d15_spec)
    config = cr.channel_config(d15_spec)
    with pytest.raises(ValueError):
        cr.search_macroblock_multiplier(5, config, d15_partition, 0.01,
                                        oracle, cr.SEARCH_BUDGET, 0.91)
    with pytest.raises(ValueError):
        cr.search_macroblock_multiplier(0, config, d15_partition, -0.1,
                                        oracle, cr.SEARCH_BUDGET, 0.91)
    with pytest.raises(ValueError):
        cr.backward_reduction(d15_spec, d15_partition, 0.01, oracle,
                              cr.SEARCH_BUDGET, scope=4)
    with pytest.raises(ValueError):
        cr.backward_reduction(d15_spec, d15_partition, 1.5, oracle,
                              cr.SEARCH_BUDGET)


# -- speculative rounds on several slots ---------------------------------------


def _reduce_counting_rounds(monkeypatch, spec, slots):
    """Backward reduction on ``slots`` slots; returns the result and the number
    of configs each round issued. A round is one of the search's ``fan_out``
    calls that trains at least one config."""
    issued = []

    def counting(oracle, fn, items):
        items = list(items)
        if items:
            issued.append(len(items))
        return fan_out(oracle, fn, items)

    monkeypatch.setattr(search, "fan_out", counting)
    oracle = CountingOracle(cr.SurrogateOracle(spec), slots=slots)
    result = cr.backward_reduction(spec, None, 0.01, oracle, cr.SEARCH_BUDGET)
    assert result.oracle_calls == len(oracle.intervals) == sum(issued)
    return result, issued


@pytest.mark.parametrize("slots,rounds,calls", [(1, 13, 13), (2, 12, 13), (3, 7, 18),
                                                (7, 5, 26)])
def test_d15_rounds_by_slot_count(monkeypatch, d15_spec, slots, rounds, calls):
    # Blocks of 16, 32 and 64 channels bisect in 3, 4 and 5 levels; k levels a
    # round, with the baseline on one slot of the first round.
    result, issued = _reduce_counting_rounds(monkeypatch, d15_spec, slots)
    assert result.betas == (0.9375, 0.84375, 0.515625)
    assert (len(issued), sum(issued)) == (rounds, calls)
    assert sum(p.speculative for p in result.trace) == calls - 13


@pytest.mark.parametrize("model,slots,rounds,calls", [
    ("resnet34", 1, 32, 32), ("resnet34", 2, 31, 32), ("resnet34", 3, 18, 45),
    ("resnet34", 7, 12, 67),
    ("mobilenet", 1, 36, 36), ("mobilenet", 2, 35, 36), ("mobilenet", 3, 19, 52),
    ("mobilenet", 7, 14, 75)])
def test_preset_rounds_by_slot_count(monkeypatch, model, slots, rounds, calls):
    result, issued = _reduce_counting_rounds(monkeypatch, getattr(cr, model)(), slots)
    assert (len(issued), sum(issued)) == (rounds, calls)
    assert sum(p.speculative for p in result.trace) == calls - {"resnet34": 32,
                                                                "mobilenet": 36}[model]


# sha256 of ``json.dumps(result.to_dict(), indent=2, sort_keys=True)`` for a
# backward and a forward reduction at delta 0.01 on the default surrogate.
MULTI_SLOT_REDUCTION_SHA256 = {
    ("d15", True, 1): "3e8b2edc03329357417a014c25c083fa697cdbe95b23900df417fe9a0f31b300",
    ("d15", True, 2): "3e8b2edc03329357417a014c25c083fa697cdbe95b23900df417fe9a0f31b300",
    ("d15", True, 3): "67d85dc3633a150c486ffe23cc205ccaf6466742e3f4e4c5f4cce63db2e3f0d6",
    ("d15", True, 7): "9f340d5f4c2d269b08a59722351105346c9fcb1cea19b0fbb92653458961b422",
    ("d15", False, 1): "88d5e7ffb98517970b00afe5c946c3f70559df38cc061ae41ac8746a0fa11d9a",
    ("d15", False, 2): "88d5e7ffb98517970b00afe5c946c3f70559df38cc061ae41ac8746a0fa11d9a",
    ("d15", False, 3): "6e4e12da0a8ae73454892eb887a21d991dee1ee436158aa94eb801b9b97574e0",
    ("d15", False, 7): "d84ddd70fefa3d205859d42b5125c5367970fdc363d3f18b0124292ae5dc60ab",
    ("resnet34", True, 1): "da5ec22e69b4db2682c36fee4ee14e5620d0e1be21b49ffabb57ff8d644cdafb",
    ("resnet34", True, 2): "da5ec22e69b4db2682c36fee4ee14e5620d0e1be21b49ffabb57ff8d644cdafb",
    ("resnet34", True, 3): "8de28408def07cfea13817ba19f97e3d17b76d44ded07e1bb947d7b4bcad3a05",
    ("resnet34", True, 7): "4d5189757f5aa4b2f240f4062d2097ad21e9de6291e119b6d35ce48fc465555d",
    ("resnet34", False, 1): "eabc0164508ec864161cf7a02ff287ce2a9766affe49abc4cdd65a0fd490d173",
    ("resnet34", False, 2): "eabc0164508ec864161cf7a02ff287ce2a9766affe49abc4cdd65a0fd490d173",
    ("resnet34", False, 3): "31c110ed50e97092869e5c18a5c699ba34d3df3806355f44fc12bb97473aa397",
    ("resnet34", False, 7): "00949716c62c7e0c3bfa3a37a41a9ea6a24abe8a815aff59590bd07f1265ecca",
    ("mobilenet", True, 1): "f5dcc30918c293fadb301999216d9d56a163559ae394440dd396a3f2269fc34b",
    ("mobilenet", True, 2): "f5dcc30918c293fadb301999216d9d56a163559ae394440dd396a3f2269fc34b",
    ("mobilenet", True, 3): "6b59eb1b970cf5c8bb01a0143c306c9832d58e1122c770d34717f821ac544993",
    ("mobilenet", True, 7): "646f07fc0382feece9a363ba700fe6854a497907189d1f6b1c9cca59b7036109",
    ("mobilenet", False, 1): "fdf961999f2e2b3dde1475f139d4fe48de9e8287b17eb8632255c3b1844de96e",
    ("mobilenet", False, 2): "fdf961999f2e2b3dde1475f139d4fe48de9e8287b17eb8632255c3b1844de96e",
    ("mobilenet", False, 3): "ab3c184dcbe285671d0de5b6c952f2e8edf1ce1b123d24dc117f7cec578d2cbb",
    ("mobilenet", False, 7): "cbafdc44bfea94b00079696528a76e04a6befff3a6ea4bc81f83ff0359e7753f",
}


@pytest.mark.parametrize("model,backward,slots", sorted(MULTI_SLOT_REDUCTION_SHA256))
def test_multi_slot_reduction_golden(model, backward, slots):
    # Pins every probe, speculative ones included, and its place in the trace.
    spec = (cr.build_sequential_cnn(15, [16, 32, 64]) if model == "d15"
            else getattr(cr, model)())
    reduce = cr.backward_reduction if backward else cr.forward_reduction
    result = reduce(spec, None, 0.01, CountingOracle(cr.SurrogateOracle(spec), slots=slots),
                    cr.SEARCH_BUDGET)
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        MULTI_SLOT_REDUCTION_SHA256[model, backward, slots]


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(2, 80), min_size=3, max_size=3),
       frontiers=st.lists(st.floats(0.3, 1.0), min_size=3, max_size=3),
       weight=st.floats(0.5, 4000.0), delta=st.floats(0.0, 0.1),
       scope=st.integers(1, 3), slots=st.sampled_from([1, 2, 3, 7]),
       backward=st.booleans())
def test_speculation_matches_one_slot(widths, frontiers, weight, delta, scope, slots,
                                      backward):
    spec = cr.build_sequential_cnn(6, widths)
    params = cr.SurrogateParams(frontiers=tuple(frontiers), weights=(weight,) * 3)
    reduce = cr.backward_reduction if backward else cr.forward_reduction
    one = reduce(spec, None, delta, cr.SurrogateOracle(spec, params), cr.SEARCH_BUDGET,
                 scope)
    oracle = CountingOracle(cr.SurrogateOracle(spec, params), slots=slots)
    many = reduce(spec, None, delta, oracle, cr.SEARCH_BUDGET, scope)
    # One return rule: a reduction that searched ends on a trained configuration
    # that meets delta, unless it kept the nominal one.
    assert (many.reduced_record is not None) == bool(many.scope)
    assert (many.reduced_config == cr.channel_config(spec)
            or cr.distortion(many.baseline_record.top1, many.reduced_record.top1) < delta)
    assert many.betas == one.betas
    assert many.reduced_config == one.reduced_config
    assert [p for p in many.trace if not p.speculative] == list(one.trace)
    assert many.oracle_calls == len(oracle.intervals)
    assert len({p.config for p in many.trace}) == many.oracle_calls


def test_speculation_retries_a_failed_config_like_one_slot():
    # Width 10, knee at 8, first answer for 7 failed. On 3 slots the second
    # round trains 7 and 6; the path meets the failed 7 twice and leaves the
    # retry to a third round, as one slot retries it on the next call.
    spec, partition = _single_block(10)
    seven = cr.apply_macroblock_scale(cr.channel_config(spec), partition, 0, 0.7)
    oracle = CountingOracle(FailingOracle(sharp_surrogate(spec, frontiers=(0.8,)),
                                          lambda c: c == seven, times=1, slots=3))
    result = cr.backward_reduction(spec, partition, 0.01, oracle, cr.SEARCH_BUDGET)
    assert result.betas == (0.75,)
    assert [(p.config.channels[1], p.record.ok, p.speculative) for p in result.trace] == \
        [(10, True, False), (8, True, False), (7, False, False), (6, True, True),
         (7, True, False)]
    assert result.oracle_calls == oracle.calls == 5


def test_failed_path_is_judged_without_speculative_probes():
    # Width 64 failing above 40 channels: every probe on the path (48, 56, ...)
    # fails, while 40, trained beside 48 and 56 in the first round, is ok. The
    # block is left alone as on one slot.
    spec, partition = _single_block(64)
    oracle = FailingOracle(cr.SurrogateOracle(spec), lambda c: 40 < c.channels[1] < 64,
                           slots=7)
    result = cr.backward_reduction(spec, partition, 0.01, oracle, cr.SEARCH_BUDGET)
    assert any(p.speculative and p.record.ok for p in result.trace)
    assert result.betas == (1.0,)
    nominal = cr.channel_config(spec)
    assert result.reduced_record.ok
    assert result.reduced_record.config_digest == cr.config_digest(nominal, spec)
    assert result.diagnostics == ("block 0: every probe failed; left at beta=1",)


def test_one_slot_evaluates_inside_each_block_search_on_the_calling_thread(d15_spec,
                                                                         monkeypatch):
    # bench/run.py's traced run divides the search's own time by the
    # evaluations nested in search.search_macroblock_multiplier, which its
    # tracer wraps through the module global. A design that evaluates anywhere
    # else must change that measure with it.
    inside, calls = [0], []
    block_search = search.search_macroblock_multiplier

    def traced(*args, **kwargs):
        inside[0] += 1
        try:
            return block_search(*args, **kwargs)
        finally:
            inside[0] -= 1

    class Watched(cr.SurrogateOracle):
        def evaluate(self, config, budget):
            calls.append((threading.get_ident(), inside[0]))
            return super().evaluate(config, budget)

    monkeypatch.setattr(search, "search_macroblock_multiplier", traced)
    result = cr.backward_reduction(d15_spec, None, 0.01, Watched(d15_spec), cr.SEARCH_BUDGET)
    assert len(calls) == result.oracle_calls == 13
    assert set(calls) == {(threading.get_ident(), 1)}


@pytest.mark.parametrize("slots,overlapped", [(2, 1), (3, 1), (7, 3)])
def test_failed_baseline_keeps_overlapped_probes(d15_spec, d15_partition, slots, overlapped):
    oracle = FailingOracle(cr.SurrogateOracle(d15_spec), lambda c: True, slots=slots)
    result = cr.backward_reduction(d15_spec, d15_partition, 0.01, oracle, cr.SEARCH_BUDGET)
    assert result.betas == (1.0, 1.0, 1.0) and result.scope == frozenset()
    assert result.diagnostics == ("baseline evaluation failed; no block was searched",)
    assert result.trace[0].block is None
    assert [(p.block, p.feasible, p.speculative) for p in result.trace[1:]] == \
        [(2, None, True)] * overlapped
    assert result.oracle_calls == 1 + overlapped


@pytest.mark.parametrize("slots", [1, 3])
def test_replay_of_a_retried_failure_is_identical(tmp_path, slots):
    # The ledger holds 7's failed record before its retry; replay hands them
    # out in that order.
    spec, partition = _single_block(10)
    seven = cr.apply_macroblock_scale(cr.channel_config(spec), partition, 0, 0.7)
    inner = FailingOracle(sharp_surrogate(spec, frontiers=(0.8,)), lambda c: c == seven,
                          times=1)
    ledger = cr.EvaluationLedger(tmp_path / "ledger.jsonl")
    recorded = cr.backward_reduction(spec, partition, 0.01,
                                     cr.RecordingOracle(inner, ledger, spec,
                                                        parallel_slots=slots),
                                     cr.SEARCH_BUDGET)
    assert [p.record.ok for p in recorded.trace if not p.speculative] == \
        [True, True, False, True]
    replay = cr.RecordingOracle(None, cr.EvaluationLedger(tmp_path / "ledger.jsonl"), spec,
                                parallel_slots=slots)
    replayed = cr.backward_reduction(spec, partition, 0.01, replay, cr.SEARCH_BUDGET)
    assert replayed.to_dict() == recorded.to_dict()
