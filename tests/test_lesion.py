"""Lesion sweeps over channel entries and macroblocks, and their CSV formats."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest

import chanreduce as cr
from chanreduce import SweepPlan
from chanreduce.lesion import (SweepObservation, run_onehot_sweep, write_onehot_csv,
                               write_rd_points_csv)

from conftest import CountingOracle


def test_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan("typo", (4,))
    with pytest.raises(ValueError):
        SweepPlan(cr.SWEEP_CONSTANT, ())
    with pytest.raises(ValueError):
        SweepPlan(cr.SWEEP_MACROBLOCK, ())
    SweepPlan(cr.SWEEP_MACROBLOCK, (Fraction(1, 2),))


def test_plan_budget_defaults_to_the_search_budget():
    assert SweepPlan(cr.SWEEP_CONSTANT, (4,)).budget == cr.SEARCH_BUDGET


def test_onehot_constant_sweep_order_and_values(d15_spec):
    plan = SweepPlan(cr.SWEEP_CONSTANT, (4, 8), indices=(1, 11))
    obs = run_onehot_sweep(d15_spec, plan, cr.SurrogateOracle(d15_spec))

    assert [(o.index, o.parameter) for o in obs] == [(1, 4), (1, 8), (11, 4), (11, 8)]
    assert obs[0].config.channels[1] == 4
    assert obs[0].config.channels[2] == 16          # only one entry touched
    assert obs[3].config.channels[11] == 8

    # Entry 1 at width 4 drags block 0's mean ratio to 0.85, 0.10 under its
    # 0.95 frontier; a deep-block entry at 4 leaves block 2 above 0.55.
    assert obs[0].record.top1 == pytest.approx(0.91 - 4 * 0.10 ** 2)
    assert obs[2].record.top1 == pytest.approx(0.91)


def test_onehot_proportional_sweep(d15_spec):
    plan = SweepPlan(cr.SWEEP_PROPORTIONAL, (Fraction(1, 2), Fraction(3, 4)),
                     indices=(6,))
    obs = run_onehot_sweep(d15_spec, plan, cr.SurrogateOracle(d15_spec))
    assert [o.config.channels[6] for o in obs] == [16, 24]
    assert all(o.record.ok for o in obs)


def test_onehot_defaults_to_every_entry(d15_spec):
    plan = SweepPlan(cr.SWEEP_CONSTANT, (8,))
    obs = run_onehot_sweep(d15_spec, plan, cr.SurrogateOracle(d15_spec))
    assert [o.index for o in obs] == list(range(1, 16))


def test_onehot_rejections(d15_spec):
    oracle = cr.SurrogateOracle(d15_spec)
    with pytest.raises(ValueError):   # a block sweep would ignore the indices
        SweepPlan(cr.SWEEP_MACROBLOCK, (1,), indices=(1,))
    for bad in (0, 16):
        with pytest.raises(ValueError):
            run_onehot_sweep(d15_spec,
                             SweepPlan(cr.SWEEP_CONSTANT, (4,), indices=(bad,)),
                             oracle)


def test_constant_sweep_above_an_entry_width_evaluates_nothing(d15_spec):
    # Entry 1 has 16 channels and entry 11 has 32: a width of 24 would widen
    # entry 1, so the sweep refuses before its first evaluation.
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec))
    with pytest.raises(ValueError, match="lesion width 24 exceeds entry 1's 16 channels"):
        run_onehot_sweep(d15_spec, SweepPlan(cr.SWEEP_CONSTANT, (8, 24), indices=(11, 1)),
                         oracle)
    assert oracle.calls == 0


def test_onehot_ledger_appends(d15_spec, tmp_path):
    ledger = cr.EvaluationLedger(tmp_path / "l.jsonl")
    plan = SweepPlan(cr.SWEEP_CONSTANT, (4, 8), indices=(1, 2))
    run_onehot_sweep(d15_spec, plan,
                     cr.RecordingOracle(cr.SurrogateOracle(d15_spec), ledger, d15_spec))
    assert len(ledger) == 4


def test_macroblock_rd_sweep_block_major(d15_spec, d15_partition, tmp_path):
    ks = (Fraction(1, 2), 1)
    obs = run_onehot_sweep(d15_spec, SweepPlan(cr.SWEEP_MACROBLOCK, ks),
                           cr.SurrogateOracle(d15_spec))
    assert [(o.index, o.parameter) for o in obs] == [(0, Fraction(1, 2)), (0, 1),
                                                    (1, Fraction(1, 2)), (1, 1),
                                                    (2, Fraction(1, 2)), (2, 1)]
    nominal = cr.channel_config(d15_spec)
    for o in obs:
        assert o.config == cr.apply_macroblock_scale(nominal, d15_partition,
                                                     o.index, o.parameter)
    # Each CSV row is sized by a direct recount of the lesioned spec.
    path = tmp_path / "rd.csv"
    write_rd_points_csv(d15_spec, obs, path)
    rows = path.read_text().splitlines()[1:]
    for o, row in zip(obs, rows, strict=True):
        report = cr.count_parameters(cr.with_config(d15_spec, o.config))
        assert row.split(",")[2:4] == [str(report.parameter_count), str(report.size_bytes)]
    full = cr.count_parameters(d15_spec)
    assert rows[1].split(",")[2:4] == [str(full.parameter_count), str(full.size_bytes)]
    assert int(rows[4].split(",")[2]) < full.parameter_count


class _ThreadTaggingOracle:
    """Deterministic per-config scores; remembers which threads ran evaluate."""

    parallel_slots = 2

    def __init__(self, spec):
        self.spec = spec
        self.threads = set()
        self.lock = threading.Lock()

    def evaluate(self, config, budget):
        with self.lock:
            self.threads.add(threading.current_thread().name)
        top1 = (sum(config.channels) % 997) / 1000
        return cr.EvaluationRecord(config_digest=cr.config_digest(config, self.spec),
                                   budget=budget, top1=top1, top5=None,
                                   wall_seconds=0.0, status="ok")


def test_parallel_evaluation_preserves_order(d15_spec):
    oracle = _ThreadTaggingOracle(d15_spec)
    plan = SweepPlan(cr.SWEEP_CONSTANT, (4, 8, 12), indices=(1, 6, 11))
    obs = run_onehot_sweep(d15_spec, plan, oracle)
    assert len(obs) == 9
    for o in obs:
        assert o.record.top1 == (sum(o.config.channels) % 997) / 1000
        assert o.record.config_digest == cr.config_digest(o.config, d15_spec)


def test_a_sweep_trains_each_distinct_variant_once(d15_spec):
    # Width 16 is every block-0 entry's nominal width, so all five variants
    # are the nominal network: one training answers all five rows.
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec), slots=2)
    plan = SweepPlan(cr.SWEEP_CONSTANT, (16,), indices=(1, 2, 3, 4, 5))
    obs = run_onehot_sweep(d15_spec, plan, oracle)
    assert oracle.calls == 1
    assert [o.index for o in obs] == [1, 2, 3, 4, 5]
    assert len({o.record for o in obs}) == 1


def _stub_record(digest, top1, status="ok"):
    return cr.EvaluationRecord(config_digest=digest, budget=cr.SEARCH_BUDGET,
                               top1=top1, top5=None, wall_seconds=0.0,
                               status=status)


def test_onehot_csv_bytes(d15_spec, tmp_path):
    cfg = cr.channel_config(d15_spec)
    obs = [
        SweepObservation(1, 4, cfg, _stub_record("a" * 64, 0.87)),
        SweepObservation(2, Fraction(11, 16), cfg, _stub_record("b" * 64, 0.8700000000000001)),
        SweepObservation(3, Fraction(1, 2), cfg, _stub_record("c" * 64, None, "failed")),
    ]
    path = tmp_path / "onehot.csv"
    write_onehot_csv(obs, path)
    assert path.read_bytes() == (b"index,parameter,top1,status\r\n"
                                 b"1,4,0.87,ok\r\n"
                                 b"2,11/16,0.8700000000000001,ok\r\n"
                                 b"3,1/2,,failed\r\n")


def test_rd_points_csv_bytes(d15_spec, d15_partition, tmp_path):
    nominal = cr.channel_config(d15_spec)
    half = cr.apply_macroblock_scale(nominal, d15_partition, 0, Fraction(1, 2))
    obs = [
        SweepObservation(0, Fraction(1, 2), half, _stub_record("a" * 64, 0.5)),
        SweepObservation(2, 1, nominal, _stub_record("b" * 64, None, "timeout")),
    ]
    path = tmp_path / "rd.csv"
    write_rd_points_csv(d15_spec, obs, path)
    assert path.read_bytes() == (b"block_id,k,params,size_bytes,top1\r\n"
                                 b"0,1/2,209266,841224,0.5\r\n"
                                 b"2,1,218778,879592,\r\n")


def test_sweep_is_reproducible_bytewise(d15_spec, tmp_path):
    plan = SweepPlan(cr.SWEEP_CONSTANT, (4, 8), indices=(1, 8, 14))
    paths = []
    for tag in ("one", "two"):
        obs = run_onehot_sweep(d15_spec, plan, cr.SurrogateOracle(d15_spec))
        path = tmp_path / f"{tag}.csv"
        write_onehot_csv(obs, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
