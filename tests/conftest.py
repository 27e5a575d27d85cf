from __future__ import annotations

import threading
import time

import pytest

from chanreduce import (STATUS_FAILED, EvaluationRecord, SurrogateOracle, SurrogateParams,
                        build_sequential_cnn, config_digest, partition_macroblocks)


@pytest.fixture
def d15_spec():
    """Depth-15 CIFAR-style CNN with three macroblocks of widths 16/32/64."""
    return build_sequential_cnn(15, [16, 32, 64])


@pytest.fixture
def d15_partition(d15_spec):
    return partition_macroblocks(d15_spec)


class CountingOracle:
    """Wraps an oracle on ``slots`` slots (else the inner oracle's) and counts its
    evaluate() calls, also from concurrent slots: ``calls``, the most ever in
    flight at once (``peak``) and each call's (start, end) in ``intervals``. Every
    call sleeps ``sleep`` seconds first, as a trainer takes time."""

    def __init__(self, inner, *, slots=None, sleep=0.0):
        self.inner, self.sleep = inner, sleep
        self.parallel_slots = slots or getattr(inner, "parallel_slots", 1)
        self.calls = self.peak = self._inflight = 0
        self.intervals = []
        self._lock = threading.Lock()

    def evaluate(self, config, budget):
        start = time.monotonic()
        with self._lock:
            self.calls += 1
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        try:
            if self.sleep:
                time.sleep(self.sleep)
            return self.inner.evaluate(config, budget)
        finally:
            with self._lock:
                self._inflight -= 1
                self.intervals.append((start, time.monotonic()))

    def close(self):
        """The CLI closes an external trainer, which this may stand in for."""


class FailingOracle:
    """Wraps an oracle on ``slots`` slots (else the inner oracle's) and answers
    ``failed`` for each config where ``fails(config)`` holds, at most ``times``
    times in all (else every time); ``asked`` counts those configs."""

    def __init__(self, inner, fails, *, times=None, slots=None):
        self.inner, self.fails, self.times = inner, fails, times
        self.parallel_slots = slots or getattr(inner, "parallel_slots", 1)
        self.asked = 0
        self._lock = threading.Lock()

    def evaluate(self, config, budget):
        if self.fails(config):
            with self._lock:
                self.asked += 1
                fail = self.times is None or self.asked <= self.times
            if fail:
                return EvaluationRecord(config_digest(config, self.inner.spec), budget,
                                        None, None, 0.0, STATUS_FAILED)
        return self.inner.evaluate(config, budget)


def sharp_surrogate(spec, frontiers=(0.95, 0.85, 0.55), weight=2000.0, a_max=0.91):
    """Surrogate whose frontiers act as near-hard feasibility thresholds: any
    block pushed below its frontier loses far more accuracy than any sane delta."""
    params = SurrogateParams(a_max=a_max, frontiers=tuple(frontiers),
                             weights=(weight,) * len(frontiers))
    return SurrogateOracle(spec, params)
