"""Self-tests for the benchmark's own helpers.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import chanreduce as cr  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stub_trainer import LOG_ENV  # noqa: E402


def test_rounds_and_utilization_of_a_sequential_log():
    log = [(0, 50), (51, 101), (102, 152)]
    assert metrics.critical_path(log) == 3
    assert metrics.slot_utilization(log, 2) == pytest.approx(150 / (2 * 152))
    assert metrics.inflight_mean(log) == pytest.approx(1.0)


def test_rounds_and_utilization_of_a_two_slot_log():
    log = [(0, 50), (1, 51), (52, 102), (53, 103)]
    assert metrics.critical_path(log) == 2
    assert metrics.slot_utilization(log, 2) == pytest.approx(200 / (2 * 103))
    assert metrics.inflight_mean(log) == pytest.approx(200 / 102)


def test_request_gaps_leave_out_worker_start_up():
    records = [{"pid": 1, "run_id": "a", "arrive": 0, "reply": 50},
               {"pid": 2, "run_id": "b", "arrive": 170, "reply": 220},
               {"pid": 1, "run_id": "c", "arrive": 222, "reply": 272},
               {"pid": 2, "run_id": "d", "arrive": 275, "reply": 325}]
    assert metrics.first_requests(records) == {"a", "b"}
    assert metrics.request_gaps(records) == [2, 3]


def test_generator_is_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, tmp_path / "a" / name)
        b = workloads.generate(name, 7, tmp_path / "b" / name)
        files = sorted(p.name for p in a.dir.iterdir())
        assert files == sorted(p.name for p in b.dir.iterdir())
        for f in files:
            assert (a.dir / f).read_bytes() == (b.dir / f).read_bytes(), (name, f)
    other = workloads.generate("rd-deep-surrogate", 8, tmp_path / "c")
    for f in (workloads.CONFIG_NAME, workloads.DESCRIPTOR_NAME):
        assert (other.dir / f).read_bytes() != (tmp_path / "a" / "rd-deep-surrogate" / f).read_bytes()


def test_stub_protocol_round_trip(tmp_path):
    w = workloads.generate("rd-d15-pipe", 3, tmp_path / "inputs", latency_ms=5)
    spec = cr.RunConfig.from_file(w.config).build_spec()
    config = cr.apply_alpha_scaling(cr.channel_config(spec), 0.5)
    request = cr.build_request("abc-0001", config, spec, cr.SEARCH_BUDGET)
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    done = subprocess.run(w.stub_argv(workloads.CONFIG_NAME), cwd=w.dir,
                          env=run.child_env(**{LOG_ENV: str(log_dir)}),
                          input=json.dumps(request) + "\n", capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    reply = json.loads(done.stdout)
    params = cr.SurrogateParams(frontiers=w.frontiers, weights=w.weights)
    assert reply["run_id"] == "abc-0001"
    assert reply["status"] == "ok"
    assert reply["top1"] == cr.surrogate_accuracy(config, cr.partition_macroblocks(spec), params)
    [line] = run.read_stub_log(log_dir)
    assert line["run_id"] == "abc-0001"
    assert line["reply"] - line["arrive"] >= 5_000_000


SHIFTED_STUB = """\
import sys
import chanreduce
from bench import stub_trainer

exact = chanreduce.surrogate_accuracy
chanreduce.surrogate_accuracy = lambda *args: max(0.0, exact(*args) - 0.001)
sys.exit(stub_trainer.main())
"""


def _one_iteration(tmp_path, wrong: bool):
    w = workloads.generate("reduce-r34-pipe", 0, tmp_path / "inputs", latency_ms=1)
    expect = workloads.reference(w, tmp_path / "reference")
    if wrong:
        script = tmp_path / "shifted_stub.py"
        script.write_text(SHIFTED_STUB)
        text = w.config.read_text().replace("-m bench.stub_trainer", str(script))
        w.config.write_text(text)
    return run.iteration(w, expect, tmp_path / "it", traced=False)


def test_correct_stub_passes_the_gate(tmp_path):
    it = _one_iteration(tmp_path, wrong=False)
    assert it.problems == []
    assert (it.attempted, it.failed) == (33 + 3, 0)


def test_wrong_stub_drives_fail_frac_above_zero(tmp_path):
    it = _one_iteration(tmp_path, wrong=True)
    assert it.failed / it.attempted > 0
    assert any("off the reference accuracy" in p for p in it.problems)
