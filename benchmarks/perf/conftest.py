"""Test set-up for the benchmark harness tests.

These tests check the harness itself, so the parent directory's per-test
metrics artifact (``benchmarks/results/metrics/``) is switched off here by
overriding its autouse fixture.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))


@pytest.fixture(autouse=True)
def metrics_artifact():
    yield
