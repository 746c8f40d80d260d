"""The gated bench tools (tools/{exec,cache,service}_bench.py) read
their percentiles from perfbench/stats.py: one nearest-rank definition
for every committed BENCH_*.json figure.  The gate statistics must not
loosen in the switch from each tool's own rank formula."""

from __future__ import annotations

import math
import os
import statistics
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
sys.path.append(os.path.join(REPO_ROOT, "perfbench"))

import cache_bench  # noqa: E402
import exec_bench  # noqa: E402
import service_bench  # noqa: E402
import stats  # noqa: E402

ODD_SAMPLES = [
    [3.2],
    [5.0, 1.0, 3.0],
    [0.9, 4.4, 2.5, 7.1, 1.3],
    [12.0, 3.5, 8.25, 1.0, 6.5, 9.75, 2.0],
]


def test_tools_use_perfbench_statistics():
    for tool in (cache_bench, exec_bench, service_bench):
        assert tool.percentile is stats.percentile
    assert cache_bench.median is stats.median
    assert service_bench.median is stats.median
    assert exec_bench.geomean is stats.geomean


def test_p95_of_twenty_samples_is_the_nineteenth():
    assert service_bench.percentile(list(range(1, 21)), 95) == 19


@pytest.mark.parametrize("samples", ODD_SAMPLES)
def test_gate_statistics_unchanged_on_odd_samples(samples):
    ordered = sorted(samples)
    # exec gate: p50 was ordered[round(p * (n - 1))]
    assert exec_bench.percentile(samples, 50) == ordered[
        round(0.5 * (len(ordered) - 1))
    ]
    # TCP gate: p50 was statistics.median
    assert service_bench.median(samples) == statistics.median(samples)
    assert round(exec_bench.geomean(samples), 2) == round(
        math.exp(statistics.fmean(math.log(s) for s in samples)), 2
    )


@pytest.mark.parametrize("n", [2, 4, 6, 60])
def test_cache_gate_p50_never_rises_on_even_samples(n):
    samples = [float(v) for v in range(n, 0, -1)]
    ordered = sorted(samples)
    old = ordered[round(0.5 * (n - 1))]
    assert cache_bench.percentile(samples, 50) <= old
