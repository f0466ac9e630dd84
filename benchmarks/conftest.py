"""Session-scoped worlds shared by the benchmark harness."""

from __future__ import annotations

import random
import re
import sys
import os
from dataclasses import dataclass
from typing import Dict, List

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import metrics
from repro.core.framework import GcdFramework
from repro.core.member import GcdMember
from repro.core.scheme1 import create_scheme1
from repro.core.scheme2 import create_scheme2

MAX_PARTIES = 8

METRICS_DIR = os.path.join(os.path.dirname(__file__), "results", "metrics")


@pytest.fixture(autouse=True)
def metrics_artifact(request):
    """Persist each benchmark's final metrics snapshot through the JSON
    exporter (``results/metrics/<test>.json``) so counter regressions show
    up as reviewable artifacts, not just assertion failures."""
    metrics.reset()
    yield
    os.makedirs(METRICS_DIR, exist_ok=True)
    safe = re.sub(r"[^\w.-]+", "_", request.node.name)
    metrics.write_json(os.path.join(METRICS_DIR, f"{safe}.json"))


@dataclass
class BenchWorld:
    framework: GcdFramework
    members: List[GcdMember]
    rng: random.Random
    seed: int


def _build(factory, group_id: str, count: int, seed: int) -> BenchWorld:
    rng = random.Random(seed)
    framework = factory(group_id, rng=rng)
    members = [framework.admit_member(f"user-{i}", rng) for i in range(count)]
    return BenchWorld(framework=framework, members=members, rng=rng,
                      seed=seed)


@pytest.fixture(autouse=True)
def reseed_worlds(request):
    """Reseed each bench world a bench uses from the world's seed and the
    bench's name: the worlds are shared by the whole session, so without
    this a bench's draws, and the books its metrics snapshot records,
    would depend on which benches ran before it."""
    for name in ("bench_scheme1", "bench_scheme2", "bench_other_group"):
        if name in request.fixturenames:
            world = request.getfixturevalue(name)
            world.rng.seed(f"{world.seed}:{request.node.name}")


@pytest.fixture(scope="session")
def bench_scheme1() -> BenchWorld:
    return _build(create_scheme1, "bench-s1", MAX_PARTIES, 91)


@pytest.fixture(scope="session")
def bench_scheme2() -> BenchWorld:
    return _build(create_scheme2, "bench-s2", MAX_PARTIES, 92)


@pytest.fixture(scope="session")
def bench_other_group() -> BenchWorld:
    return _build(create_scheme1, "bench-other", 4, 93)
