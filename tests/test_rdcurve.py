"""Size/accuracy trade-off curves from width scaling, alone and composed with
the per-block search."""

from __future__ import annotations

import csv
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import chanreduce as cr
from chanreduce.rdcurve import (CURVE_HEADER, RDPoint, build_alpha_curve,
                                build_alpha_plus_backward_curve, export_curve,
                                export_gnuplot)

from conftest import CountingOracle, FailingOracle

ALPHAS = (0.5, 0.6, 0.7, 0.8, 0.9)


def test_alpha_curve_sizes_strictly_increase(d15_spec):
    points = build_alpha_curve(d15_spec, ALPHAS, cr.SurrogateOracle(d15_spec),
                               cr.SEARCH_BUDGET)
    assert len(points) == len(ALPHAS)
    assert [p.label for p in points] == [f"alpha={a:g}" for a in ALPHAS]
    sizes = [p.size_bytes for p in points]
    assert sizes == sorted(sizes)
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    # Each point's accounting must match a direct recount.
    scaled = cr.with_config(d15_spec,
                            cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.7))
    report = cr.count_parameters(scaled)
    mid = next(p for p in points if p.label == "alpha=0.7")
    assert (mid.size_bytes, mid.params) == (report.size_bytes, report.parameter_count)


def test_composed_curve_never_larger_than_alpha_only(d15_spec):
    alpha_only = build_alpha_curve(d15_spec, ALPHAS, cr.SurrogateOracle(d15_spec),
                                   cr.SEARCH_BUDGET)
    composed = build_alpha_plus_backward_curve(d15_spec, ALPHAS, 0.01,
                                               cr.SurrogateOracle(d15_spec),
                                               cr.SEARCH_BUDGET)
    plain = {p.label.split("+")[0]: p for p in alpha_only}
    assert len(composed) == len(ALPHAS)
    for p in composed:
        base, _, suffix = p.label.partition("+")
        assert suffix == "backward"
        assert p.size_bytes <= plain[base].size_bytes


def test_curve_round_trip_and_bytes(d15_spec, tmp_path):
    points = build_alpha_curve(d15_spec, (0.5, 1.0), cr.SurrogateOracle(d15_spec),
                               cr.SEARCH_BUDGET)
    path = tmp_path / "curve.csv"
    export_curve(points, path)
    with path.open(newline="", encoding="utf-8") as fh:
        _, *rows = csv.reader(fh)
    again = [RDPoint(label, int(size), int(params), float(top1), digest)
             for label, size, params, top1, digest in rows]
    assert again == points
    twice = tmp_path / "curve2.csv"
    export_curve(again, twice)
    assert twice.read_bytes() == path.read_bytes()

    first_line = path.read_text().splitlines()[0]
    assert first_line == ",".join(CURVE_HEADER)


def test_gnuplot_format(tmp_path):
    points = [RDPoint("alpha=1", 879592, 218778, 0.91, "a" * 64),
              RDPoint("alpha=0.5", 225180, 55126, 0.0, "b" * 64)]
    path = tmp_path / "curve.dat"
    export_gnuplot(points, path)
    assert path.read_text() == ("# size_kb top1_percent\n"
                                "858.9765625 91\n"
                                "219.9023438 0\n")


def test_failed_points_are_skipped(d15_spec, caplog):
    nominal_total = sum(cr.channel_config(d15_spec).channels)
    oracle = FailingOracle(cr.SurrogateOracle(d15_spec),   # everything but alpha=1 fails
                           lambda c: sum(c.channels) < nominal_total)
    with caplog.at_level("WARNING", logger="chanreduce.rdcurve"):
        points = build_alpha_curve(d15_spec, (0.5, 1.0), oracle, cr.SEARCH_BUDGET)
    assert [p.label for p in points] == ["alpha=1"]
    assert any("alpha=0.5" in r.message for r in caplog.records)


@pytest.mark.parametrize("times", [1, 2])
def test_composed_point_ending_on_a_failed_record_is_evaluated_again(d15_spec, caplog,
                                                                      times):
    # Under last_midpoint a reduction returns its last probe even when that probe
    # failed; the point then evaluates the config again and is kept only if that
    # second record is ok.
    mode = cr.BetaMode.LAST_MIDPOINT
    scaled = cr.with_config(d15_spec, cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.5))
    reduced = cr.backward_reduction(scaled, cr.partition_macroblocks(scaled), 0.01,
                                    cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET,
                                    beta_mode=mode).reduced_config
    oracle = FailingOracle(cr.SurrogateOracle(d15_spec), lambda c: c == reduced, times=times)
    with caplog.at_level("WARNING", logger="chanreduce.rdcurve"):
        points = build_alpha_plus_backward_curve(d15_spec, (0.5,), 0.01, oracle,
                                                 cr.SEARCH_BUDGET, beta_mode=mode)
    assert oracle.asked == 2
    if times == 1:
        expected = cr.SurrogateOracle(d15_spec).evaluate(reduced, cr.SEARCH_BUDGET)
        assert [(p.label, p.top1) for p in points] == [("alpha=0.5+backward",
                                                        expected.top1)]
    else:
        assert points == []
        assert any("alpha=0.5 composed point status failed" in r.message
                   for r in caplog.records)


def test_a_reduction_that_searched_nothing_gives_no_composed_point(d15_spec, caplog):
    # As in rd, each scaled model is evaluated for its alpha point first, so
    # failing its second request fails its reduction's baseline. That reduction
    # searches nothing, and the unreduced model is not trained a third time.
    seen = Counter()

    def second_request(config):
        seen[config] += 1
        return seen[config] == 2

    oracle = FailingOracle(cr.SurrogateOracle(d15_spec), second_request)
    alphas = (1.0, 0.5)
    assert len(build_alpha_curve(d15_spec, alphas, oracle, cr.SEARCH_BUDGET)) == 2
    with caplog.at_level("WARNING", logger="chanreduce.rdcurve"):
        assert build_alpha_plus_backward_curve(d15_spec, alphas, 0.01, oracle,
                                               cr.SEARCH_BUDGET) == []
    assert sorted(seen.values()) == [2, 2]
    assert [r.message for r in caplog.records if r.name == "chanreduce.rdcurve"] == [
        f"alpha={a:g} composed point status unsearched; point skipped" for a in alphas]


def test_curve_ledger_appends(d15_spec, tmp_path):
    ledger = cr.EvaluationLedger(tmp_path / "l.jsonl")
    build_alpha_curve(d15_spec, (0.5, 1.0),
                      cr.RecordingOracle(cr.SurrogateOracle(d15_spec), ledger, d15_spec),
                      cr.SEARCH_BUDGET)
    assert len(ledger) == 2


def test_alpha_validation(d15_spec):
    with pytest.raises(ValueError):
        build_alpha_curve(d15_spec, (), cr.SurrogateOracle(d15_spec), cr.SEARCH_BUDGET)
    with pytest.raises(ValueError):
        build_alpha_curve(d15_spec, (1.2,), cr.SurrogateOracle(d15_spec),
                          cr.SEARCH_BUDGET)


@pytest.mark.parametrize("slots,alphas,calls", [(3, (1.0, 0.75, 0.5, 0.25), 40),
                                                (7, (1.0, 0.5), 31)])
def test_composed_reductions_share_the_slots(d15_spec, slots, alphas, calls):
    # Each reduction searches on slots // len(alphas) slots, at least one: four
    # reductions on three slots search one probe at a time (40 calls, as on one
    # slot); two on seven speculate on three each (31 calls instead of 23).
    sequential = build_alpha_plus_backward_curve(d15_spec, alphas, 0.01,
                                                 cr.SurrogateOracle(d15_spec),
                                                 cr.SEARCH_BUDGET)
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec), slots=slots, sleep=0.005)
    shared = build_alpha_plus_backward_curve(d15_spec, alphas, 0.01, oracle,
                                             cr.SEARCH_BUDGET)
    assert shared == sequential
    assert oracle.peak <= slots
    assert oracle.calls == calls


def test_a_repeated_alpha_is_reduced_once(d15_spec):
    # 0.5000001 scales every width of the depth-8 model as 0.5 does: one model,
    # one reduction of four calls.
    for spec, alphas, slots, calls in [(d15_spec, [0.5, 0.5], 2, 10),
                                       (cr.build_sequential_cnn(8, [8, 16]),
                                        [0.5, 0.5000001], 1, 4)]:
        once, twice = (CountingOracle(cr.SurrogateOracle(spec), slots=slots) for _ in range(2))
        point, = build_alpha_plus_backward_curve(spec, alphas[:1], 0.01, once,
                                                 cr.SEARCH_BUDGET)
        assert build_alpha_plus_backward_curve(spec, alphas, 0.01, twice,
                                               cr.SEARCH_BUDGET) == [point, point]
        assert twice.calls == once.calls == calls


@settings(max_examples=12, deadline=None)
@given(slots=st.sampled_from([1, 2, 3, 7]),
       alphas=st.lists(st.sampled_from([1.0, 0.875, 0.75, 0.5, 0.25]),
                       min_size=1, max_size=5, unique=True))
def test_composed_curve_matches_one_slot_within_its_slots(slots, alphas):
    # fan_out alone splits the slots among the reductions, and their searches
    # fan out again inside their shares: the curve is the one-slot curve, and
    # the nesting never has more calls in flight than there are slots.
    d15_spec = cr.build_sequential_cnn(15, [16, 32, 64])
    sequential = build_alpha_plus_backward_curve(d15_spec, alphas, 0.01,
                                                 cr.SurrogateOracle(d15_spec),
                                                 cr.SEARCH_BUDGET)
    oracle = CountingOracle(cr.SurrogateOracle(d15_spec), slots=slots, sleep=0.005)
    assert build_alpha_plus_backward_curve(d15_spec, alphas, 0.01, oracle,
                                           cr.SEARCH_BUDGET) == sequential
    assert oracle.peak <= slots
