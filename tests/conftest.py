from __future__ import annotations

import threading

import pytest

from chanreduce import (SurrogateOracle, SurrogateParams, build_sequential_cnn,
                        partition_macroblocks)


@pytest.fixture
def d15_spec():
    """Depth-15 CIFAR-style CNN with three macroblocks of widths 16/32/64."""
    return build_sequential_cnn(15, [16, 32, 64])


@pytest.fixture
def d15_partition(d15_spec):
    return partition_macroblocks(d15_spec)


class CountingOracle:
    """Wraps an oracle and counts evaluate() calls, also from concurrent slots."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def parallel_slots(self):
        return getattr(self.inner, "parallel_slots", 1)

    def evaluate(self, config, budget):
        with self._lock:
            self.calls += 1
        return self.inner.evaluate(config, budget)


def sharp_surrogate(spec, frontiers=(0.95, 0.85, 0.55), weight=2000.0, a_max=0.91):
    """Surrogate whose frontiers act as near-hard feasibility thresholds: any
    block pushed below its frontier loses far more accuracy than any sane delta."""
    params = SurrogateParams(a_max=a_max, frontiers=tuple(frontiers),
                             weights=(weight,) * len(frontiers))
    return SurrogateOracle(spec, params)
