"""Budgets, records, digests, the surrogate, and the evaluation ledger."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import stat
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import chanreduce as cr
from chanreduce import EvaluationLedger, EvaluationRecord, TrainingBudget
from chanreduce.oracle import fan_out, slots


# -- budgets -----------------------------------------------------------------


def test_default_budgets():
    assert cr.SEARCH_BUDGET.epochs == 20
    assert cr.SEARCH_BUDGET.lr_milestones == (8, 16)
    assert cr.FINAL_BUDGET.epochs == 90
    assert cr.FINAL_BUDGET.lr_milestones == (30, 60)
    for budget in (cr.SEARCH_BUDGET, cr.FINAL_BUDGET):
        assert budget.lr_initial == 0.1
        assert budget.lr_divisor == 10.0
        assert budget.momentum == 0.9
        assert budget.weight_decay == 1e-4
        assert budget.batch_size == 128


def test_budget_validation():
    with pytest.raises(ValueError):
        TrainingBudget(epochs=0)
    with pytest.raises(ValueError):
        TrainingBudget(epochs=10, lr_milestones=(12,))
    with pytest.raises(ValueError):
        TrainingBudget(epochs=10, lr_milestones=(6, 4))
    with pytest.raises(ValueError):
        TrainingBudget(epochs=10, batch_size=0)


def test_budget_round_trip():
    budget = TrainingBudget(epochs=42, lr_initial=0.05, lr_milestones=(10, 30),
                            lr_divisor=5.0, momentum=0.8, weight_decay=5e-4,
                            batch_size=64, seed=7)
    assert TrainingBudget.from_dict(budget.to_dict()) == budget


def test_budget_from_dict_fills_missing_keys_with_field_defaults():
    assert TrainingBudget.from_dict({"epochs": 20}) == TrainingBudget(20)


# -- records -----------------------------------------------------------------


def _record(digest="d" * 64, top1=0.9, status="ok", **kw):
    return EvaluationRecord(config_digest=digest, budget=cr.SEARCH_BUDGET,
                            top1=top1, top5=kw.pop("top5", None),
                            wall_seconds=kw.pop("wall_seconds", 1.0),
                            status=status, **kw)


def test_record_validation():
    with pytest.raises(ValueError):
        _record(status="exploded")
    with pytest.raises(ValueError):
        _record(top1=None)                 # ok without top1
    with pytest.raises(ValueError):
        _record(top1=1.5)
    with pytest.raises(ValueError):
        _record(top1=0.9, top5=0.5)        # top1 cannot exceed top5
    failed = _record(top1=None, status="failed")
    assert not failed.ok and failed.metric("top1") is None


def test_record_metric_and_round_trip():
    rec = _record(top1=0.91, top5=0.99)
    assert rec.ok
    assert rec.metric() == 0.91
    assert rec.metric("top5") == 0.99
    with pytest.raises(ValueError):
        rec.metric("top3")
    assert EvaluationRecord.from_dict(rec.to_dict()) == rec


# -- digest and distortion ---------------------------------------------------


def test_digest_ignores_labels(d15_spec):
    cfg = cr.channel_config(d15_spec)
    relabeled = cr.ModelSpec(d15_spec.layers,
                             cr.ModelMeta("other-name", "svhn", 10, 3, 17))
    assert cr.config_digest(cfg, d15_spec) == cr.config_digest(cfg, relabeled)


def test_digest_tracks_structure_and_widths(d15_spec):
    cfg = cr.channel_config(d15_spec)
    base = cr.config_digest(cfg, d15_spec)
    assert cr.config_digest(cfg.replace_entries({3: 15}), d15_spec) != base
    hundred = cr.build_sequential_cnn(15, [16, 32, 64], num_classes=100)
    assert cr.config_digest(cfg, hundred) != base
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")


def test_digest_golden(d15_spec):
    # Ledgers written earlier are looked up by these strings; they must never move.
    resnet34 = cr.resnet34()
    assert cr.config_digest(cr.channel_config(d15_spec), d15_spec) == \
        "d3d1fd7b3956eac53cb42c1fc5f940409d8abc7d6ca33ceb348dc7599732d2b2"
    assert cr.config_digest(cr.channel_config(resnet34), resnet34) == \
        "aea2a1293f4342b1d6308383a9a8f09f36d2980e42f3a9410a24bd2a5819d53d"
    scaled = cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.75)
    assert cr.config_digest(scaled, d15_spec) == \
        "9e208d596f0537dd2cee091842db1d1371f4798063564e351bbf3e16f2131de7"
    # MobileNet is the only preset with depthwise convs.
    for spec, digest in (
            (cr.resnet18(), "75bcaa04d6316731786696cd97ed041d552b1835fc574faec544a6c09a22c439"),
            (cr.mobilenet(), "d9b0ce42b91640fb5194d5a73a60c40a1cc20dbd1470597cada67e9edd51326d"),
            (cr.mobilenet(0.75),
             "e6aa27b3556f200b74f2bc9832c32211966624a5229eee581d6547b74e67f7b8")):
        assert cr.config_digest(cr.channel_config(spec), spec) == digest, spec.meta.name


def _sha256_of_blob(cfg, spec):
    """The digest's definition: a one-shot SHA-256 of the compact, key-sorted blob."""
    blob = json.dumps({"arch": json.loads(spec.structural_json),
                       "channels": list(cfg.channels),
                       "macroblock_starts": list(cfg.macroblock_starts)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_digest_is_sha256_of_the_whole_blob(d15_spec):
    # The digest resumes a cached hash state of the architecture prefix.
    resnet34 = cr.resnet34()
    scaled = cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.75)
    for cfg, spec in ((cr.channel_config(d15_spec), d15_spec),
                      (cr.channel_config(resnet34), resnet34), (scaled, d15_spec)):
        assert cr.config_digest(cfg, spec) == _sha256_of_blob(cfg, spec)


def test_threaded_digests_equal_the_serial_ones():
    # Architectures no other test digests, so the threads race to fill the
    # prefix cache and then resume copies of the same cached states.
    specs = [cr.build_sequential_cnn(depth, [12, 24, 48]) for depth in (9, 21)]
    pairs = [(cr.apply_alpha_scaling(cr.channel_config(spec), alpha), spec)
             for spec in specs for alpha in (1.0, 0.75, 0.5, 0.25)]
    serial = [_sha256_of_blob(cfg, spec) for cfg, spec in pairs]
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        barrier.wait(timeout=10)
        results[i] = [[cr.config_digest(cfg, spec) for cfg, spec in pairs]
                      for _ in range(50)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * 50] * 8


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this interpreter has no builtin SHA-256 module")
def test_no_openssl_in_a_chanreduce_process(tmp_path):
    # A fresh interpreter runs a reduce and builds a trainer oracle; neither
    # the digest nor the run-id nonce may load OpenSSL's hash bindings.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("")
    script = textwrap.dedent("""\
        import sys
        import chanreduce.cli as cli
        from chanreduce import build_sequential_cnn
        from chanreduce.trainer import ExternalTrainerOracle
        assert cli.main(["reduce", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
        ExternalTrainerOracle("true", build_sequential_cnn(15, [16, 32, 64])).close()
        print(sorted({"_hashlib", "hmac"} & set(sys.modules)))
        """)
    src = str(Path(cr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_distortion():
    assert cr.distortion(0.9124, 0.9031) == pytest.approx(0.0093)
    assert cr.distortion(0.9124, 0.9046) == pytest.approx(0.0078)
    assert cr.distortion(0.5, 0.7) == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        cr.distortion(1.2, 0.5)


# -- surrogate ---------------------------------------------------------------


def test_surrogate_nominal_and_single_block_drop(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    assert cr.surrogate_accuracy(cfg, d15_partition) == pytest.approx(0.91)
    # Halving the deepest block: gap 0.05 below its 0.55 frontier, weight 4.
    halved = cfg.replace_entries({i: 32 for i in range(11, 16)})
    assert cr.surrogate_accuracy(halved, d15_partition) == pytest.approx(0.90)


def test_surrogate_reduced_config_value(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    reduced = cfg.replace_entries({**{i: 15 for i in range(1, 6)},
                                   **{i: 27 for i in range(6, 11)},
                                   **{i: 33 for i in range(11, 16)}})
    assert cr.surrogate_accuracy(reduced, d15_partition) == pytest.approx(0.9044921875)


def test_surrogate_clamps(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    params = cr.SurrogateParams(weights=(4000.0, 4000.0, 4000.0))
    floor = cr.apply_alpha_scaling(cfg, 0.5)
    assert cr.surrogate_accuracy(floor, d15_partition, params) == 0.0
    # Ratios above 1 earn no bonus.
    widened = cfg.replace_entries({11: 128})
    assert cr.surrogate_accuracy(widened, d15_partition) == pytest.approx(0.91)


def test_surrogate_monotone_in_width(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    last = None
    for w in range(8, 17):
        acc = cr.surrogate_accuracy(cfg.replace_entries({i: w for i in range(1, 6)}),
                                    d15_partition)
        if last is not None:
            assert acc >= last
        last = acc


def test_surrogate_params_resolved_profiles():
    p = cr.SurrogateParams()
    assert p.resolved(3) == ((0.95, 0.85, 0.55), (4.0, 4.0, 4.0))
    assert p.resolved(1) == ((0.55,), (4.0,))
    fronts, weights = p.resolved(5)
    assert fronts == pytest.approx((0.95, 0.90, 0.85, 0.70, 0.55))
    assert weights == pytest.approx((4.0,) * 5)


def test_surrogate_params_single_value_profile_applies_to_every_block():
    p = cr.SurrogateParams(frontiers=(0.9,), weights=(4.0,))
    assert p.resolved(3) == ((0.9,) * 3, (4.0,) * 3)


def test_surrogate_params_validation():
    with pytest.raises(ValueError):
        cr.SurrogateParams(a_max=0.0)
    with pytest.raises(ValueError):
        cr.SurrogateParams(frontiers=(0.9,), weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        cr.SurrogateParams(frontiers=(1.2,), weights=(1.0,))
    with pytest.raises(ValueError):
        cr.SurrogateParams(weights=(-1.0, 4.0, 4.0))


def test_surrogate_oracle_is_deterministic(d15_spec):
    oracle = cr.SurrogateOracle(d15_spec)
    cfg = cr.channel_config(d15_spec)
    a = oracle.evaluate(cfg, cr.SEARCH_BUDGET)
    b = oracle.evaluate(cfg, cr.SEARCH_BUDGET)
    assert a == b
    assert a.status == "ok" and a.wall_seconds == 0.0
    assert a.config_digest == cr.config_digest(cfg, d15_spec)


# -- ledger ------------------------------------------------------------------


def test_ledger_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = EvaluationLedger(path)
    first = _record(digest="a" * 64, top1=0.8)
    second = _record(digest="b" * 64, top1=0.9)
    ledger.append(first)
    ledger.append(second)

    reloaded = EvaluationLedger(path)
    assert len(reloaded) == 2
    assert reloaded.records() == [first, second]
    assert reloaded.lookup("a" * 64, first.budget) == first
    assert reloaded.lookup("missing", first.budget) is None


def test_ledger_newest_wins(tmp_path):
    ledger = EvaluationLedger(tmp_path / "l.jsonl")
    ledger.append(_record(digest="a" * 64, top1=0.5))
    ledger.append(_record(digest="a" * 64, top1=0.7))
    assert ledger.lookup("a" * 64, cr.SEARCH_BUDGET).top1 == 0.7
    reloaded = EvaluationLedger(tmp_path / "l.jsonl")
    assert reloaded.lookup("a" * 64, cr.SEARCH_BUDGET).top1 == 0.7
    # By position in ledger order, and nothing past the end.
    assert [reloaded.lookup("a" * 64, cr.SEARCH_BUDGET, n).top1 for n in (0, 1)] == [0.5, 0.7]
    assert reloaded.lookup("a" * 64, cr.SEARCH_BUDGET, 2) is None


def test_ledger_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "l.jsonl"
    good = _record(digest="a" * 64, top1=0.6)
    lines = [json.dumps(good.to_dict()), "{broken", '{"status": "nope"}',
             "", json.dumps(_record(digest="b" * 64, top1=0.7).to_dict())]
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="chanreduce.oracle"):
        ledger = EvaluationLedger(path)
    assert len(ledger) == 2
    assert ledger.lookup("a" * 64, good.budget) == good
    assert sum("corrupt ledger line" in r.message for r in caplog.records) == 2


@pytest.fixture
def torn_ledger(tmp_path):
    """A ledger whose writer crashed halfway through its second record."""
    path = tmp_path / "l.jsonl"
    line = json.dumps(_record(digest="a" * 64, top1=0.6).to_dict())
    path.write_text(line + "\n" + line[:40])
    return path


def test_ledger_append_after_torn_tail(torn_ledger):
    ledger = EvaluationLedger(torn_ledger)
    assert len(ledger) == 1
    ledger.append(_record(digest="b" * 64, top1=0.7))
    reloaded = EvaluationLedger(torn_ledger)
    assert [r.config_digest for r in reloaded.records()] == ["a" * 64, "b" * 64]


def test_ledger_keeps_unterminated_complete_record(tmp_path):
    path = tmp_path / "l.jsonl"
    path.write_text(json.dumps(_record(digest="a" * 64).to_dict()))
    EvaluationLedger(path).append(_record(digest="b" * 64))
    assert len(EvaluationLedger(path)) == 2


def test_ledger_threaded_appends(tmp_path):
    ledger = EvaluationLedger(tmp_path / "l.jsonl")

    def worker(tag):
        for i in range(25):
            ledger.append(_record(digest=f"{tag}{i:02d}".ljust(64, "0"), top1=0.5))

    threads = [threading.Thread(target=worker, args=(t,)) for t in "abcd"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(EvaluationLedger(tmp_path / "l.jsonl")) == 100


def test_ledger_first_append_creates_its_directory(tmp_path):
    path = tmp_path / "new" / "deeper" / "ledger.jsonl"
    record = _record(digest="a" * 64)
    EvaluationLedger(path).append(record)
    assert EvaluationLedger(path).records() == [record]
    (tmp_path / "reference").touch()
    assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_ledger_syncs_each_record_and_its_directory_once(tmp_path, monkeypatch):
    # A power loss keeps every record append returned for: the record is synced,
    # and so is the directory when the ledger gets its first record.
    synced, fsync = [], os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(
        stat.S_ISDIR(os.fstat(fd).st_mode)) or fsync(fd))
    path = tmp_path / "l.jsonl"
    ledger = EvaluationLedger(path)
    ledger.append(_record(digest="a" * 64))
    ledger.append(_record(digest="b" * 64))
    assert sorted(synced) == [False, False, True]
    EvaluationLedger(path).append(_record(digest="c" * 64))
    assert sorted(synced) == [False, False, False, True]


def test_ledger_line_is_the_canonical_json_of_its_record(tmp_path):
    path = tmp_path / "l.jsonl"
    records = [_record(digest="a" * 64, top1=0.8, top5=0.95),
               _record(digest="b" * 64, top1=None, status="failed", note="out of memory")]
    ledger = EvaluationLedger(path)
    for record in records:
        ledger.append(record)
    assert path.read_bytes() == b"".join(
        (json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n").encode()
        for r in records)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_ledger_appends_leave_no_descriptor_open(tmp_path):
    # A raw descriptor left open raises no ResourceWarning, so count them.
    ledger = EvaluationLedger(tmp_path / "l.jsonl")
    before = len(os.listdir("/proc/self/fd"))
    for i in range(1000):
        ledger.append(_record(digest=f"{i:064d}"))
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(EvaluationLedger(tmp_path / "l.jsonl")) == 1000


# -- replay and recording ----------------------------------------------------


def test_replay_returns_records_verbatim(tmp_path, d15_spec):
    cfg = cr.channel_config(d15_spec)
    stored = EvaluationRecord(config_digest=cr.config_digest(cfg, d15_spec),
                              budget=cr.FINAL_BUDGET, top1=0.77, top5=0.93,
                              wall_seconds=123.0, status="ok")
    ledger = EvaluationLedger(tmp_path / "l.jsonl")
    ledger.append(stored)
    replay = cr.RecordingOracle(None, ledger, d15_spec)
    # The stored record comes back untouched.
    assert replay.evaluate(cfg, cr.FINAL_BUDGET) == stored
    # A different config, or the same config under a different budget, was
    # never trained; replay must say so rather than improvise.
    with pytest.raises(cr.MissingEvaluationError):
        replay.evaluate(cfg.replace_entries({1: 4}), cr.FINAL_BUDGET)
    with pytest.raises(cr.MissingEvaluationError):
        replay.evaluate(cfg, cr.SEARCH_BUDGET)


def test_replay_past_the_held_records_answers_with_the_newest(tmp_path, d15_spec):
    # Two records for one config; a replay asking four times gets them in
    # ledger order, then the newest for every further request.
    cfg = cr.channel_config(d15_spec)
    digest = cr.config_digest(cfg, d15_spec)
    ledger = EvaluationLedger(tmp_path / "l.jsonl")
    older = _record(digest, top1=None, status="failed", note="crashed")
    newer = _record(digest, top1=0.8)
    ledger.append(older)
    ledger.append(newer)
    replay = cr.RecordingOracle(None, ledger, d15_spec)
    answers = [replay.evaluate(cfg, cr.SEARCH_BUDGET) for _ in range(4)]
    assert answers == [older, newer, newer, newer]
    assert replay.failures_served == 1
    assert len(ledger) == 2


def test_recording_oracle_appends_every_call(tmp_path, d15_spec):
    ledger = EvaluationLedger(tmp_path / "l.jsonl")
    inner = cr.SurrogateOracle(d15_spec)
    oracle = cr.RecordingOracle(inner, ledger, d15_spec)
    cfg = cr.channel_config(d15_spec)
    oracle.evaluate(cfg, cr.SEARCH_BUDGET)
    oracle.evaluate(cfg, cr.SEARCH_BUDGET)
    assert len(ledger) == 2
    assert oracle.parallel_slots == 1


def test_a_nested_recorder_starts_past_the_records_of_the_outer_ledger(tmp_path, d15_spec):
    # A source ledger holds two records for one config, and the run's own
    # ledger already holds the first, as a kind = replay run cut off after it
    # does. The run's own record answers first, then the source's second.
    cfg = cr.channel_config(d15_spec)
    digest = cr.config_digest(cfg, d15_spec)
    first, second = _record(digest, top1=0.5), _record(digest, top1=0.6)
    source, own = (EvaluationLedger(tmp_path / name) for name in ("source.jsonl", "own.jsonl"))
    for record in (first, second):
        source.append(record)
    own.append(first)
    oracle = cr.RecordingOracle(cr.RecordingOracle(None, source, d15_spec), own, d15_spec)
    assert [oracle.evaluate(cfg, cr.SEARCH_BUDGET) for _ in range(3)] == [first, second, second]
    assert own.records() == [first, second, second]


def test_recorder_hands_each_stored_record_out_once_under_contention(tmp_path, d15_spec):
    # Three stored records for one config, then 24 concurrent requests for it:
    # each stored record answers exactly one request and the backend trains the
    # other 21. A lost update on the request counter would serve one twice.
    cfg = cr.channel_config(d15_spec)
    digest = cr.config_digest(cfg, d15_spec)
    path = tmp_path / "l.jsonl"
    stored = [_record(digest=digest, top1=t) for t in (0.1, 0.2, 0.3)]
    for record in stored:
        EvaluationLedger(path).append(record)
    oracle = cr.RecordingOracle(cr.SurrogateOracle(d15_spec), EvaluationLedger(path),
                                d15_spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        threads = [threading.Thread(target=lambda: results.append(
            oracle.evaluate(cfg, cr.SEARCH_BUDGET))) for _ in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 24
    assert sorted(r.top1 for r in results)[:4] == [0.1, 0.2, 0.3, 0.91]
    assert len(EvaluationLedger(path)) == 3 + 21


# -- fan-out -----------------------------------------------------------------


class _Slots:
    def __init__(self, parallel_slots):
        self.parallel_slots = parallel_slots


def test_fan_out_one_slot_runs_in_order_on_the_caller():
    seen = []

    def square(x):
        seen.append((x, threading.current_thread()))
        return x * x

    assert fan_out(_Slots(1), square, range(5)) == [0, 1, 4, 9, 16]
    assert seen == [(x, threading.current_thread()) for x in range(5)]


def test_fan_out_keeps_item_order_and_raises_worker_errors():
    def square(x):
        time.sleep((8 - x) * 0.002)   # later items finish first
        return x * x

    assert fan_out(_Slots(3), square, range(8)) == [x * x for x in range(8)]

    def missing(x):
        if x == 2:
            raise cr.MissingEvaluationError(f"no record for {x}")
        return x

    with pytest.raises(cr.MissingEvaluationError, match="no record for 2"):
        fan_out(_Slots(2), missing, range(6))


@pytest.mark.parametrize("parallel_slots", [1, 3])
def test_fan_out_calls_once_per_distinct_item(parallel_slots):
    calls = Counter()

    def square(x):
        calls[x] += 1
        return x * x

    items = [3, 1, 3, 2, 1, 3]
    assert fan_out(_Slots(parallel_slots), square, items) == [x * x for x in items]
    assert calls == Counter({3: 1, 1: 1, 2: 1})


def test_fan_out_splits_the_slots_over_the_distinct_items():
    # Three items on four slots, two of them equal: two calls, two slots each.
    oracle = _Slots(4)
    assert fan_out(oracle, lambda x: (x, slots(oracle)), "aab") == [("a", 2), ("a", 2), ("b", 2)]


def test_nested_fan_out_splits_the_slots():
    # Two items on four slots, each fanning out four sleeping calls: each item
    # gets two of the slots, so no more than four calls are ever in flight.
    oracle, lock = _Slots(4), threading.Lock()
    inflight = peak = 0

    def call(x):
        nonlocal inflight, peak
        with lock:
            inflight += 1
            peak = max(peak, inflight)
        time.sleep(0.01)
        with lock:
            inflight -= 1
        return x

    def item(i):
        return slots(oracle), fan_out(oracle, call, range(4 * i, 4 * i + 4))

    assert fan_out(oracle, item, range(2)) == [(2, [0, 1, 2, 3]), (2, [4, 5, 6, 7])]
    assert peak <= 4
    assert slots(oracle) == 4
