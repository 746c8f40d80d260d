"""The gated bench tools (tools/{exec,cache,service}_bench.py) are thin
entry points over perfbench: they time perfbench/inputs.py's kernels
and compile corpus, and read their percentiles from perfbench/stats.py,
one nearest-rank definition for every committed BENCH_*.json figure.
The gate statistics must not loosen in the switch from each tool's own
rank formula."""

from __future__ import annotations

import argparse
import dataclasses
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
import inputs  # noqa: E402
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


def test_tools_read_perfbench_inputs():
    for tool in (cache_bench, exec_bench, service_bench):
        assert tool.inputs is inputs
    assert exec_bench.SEED == 11  # the seed test_exec_counters.py pins
    for name in ("KERNELS", "SIZES"):
        assert not hasattr(exec_bench, name)
    assert not hasattr(cache_bench, "collect_corpus")
    for name in ("collect_corpus", "_make_source"):
        assert not hasattr(service_bench, name)


def _fake_corpus(monkeypatch, sources):
    """Replace perfbench's corpus with *sources*; returns the list of
    (root, seed) it is asked for."""
    asked = []

    def compile_corpus(root, seed):
        asked.append((root, seed))
        return [
            inputs.CorpusInput(f"in-{i}.c", source)
            for i, source in enumerate(sources)
        ]

    monkeypatch.setattr(inputs, "compile_corpus", compile_corpus)
    return asked


def test_exec_bench_times_the_kernels_and_checks_their_output(monkeypatch):
    kernel = next(
        k for k in inputs.kernels(exec_bench.SEED) if k.name == "reduction"
    )
    wrong = dataclasses.replace(kernel, expected_stdout="0\n")
    asked = []
    monkeypatch.setattr(
        inputs, "kernels", lambda seed: asked.append(seed) or [wrong]
    )
    with pytest.raises(SystemExit, match="'reduction' under closures"):
        exec_bench.run_bench(1)
    assert asked == [exec_bench.SEED]


def test_exec_bench_cold_figure_is_the_median_of_cold_runs(monkeypatch):
    """Each cold sample starts with every table of generated code empty,
    so no earlier kernel's code, source or templates make it warm."""
    kernel = next(
        k for k in inputs.kernels(exec_bench.SEED) if k.name == "reduction"
    )
    monkeypatch.setattr(inputs, "kernels", lambda seed: [kernel])
    compiler = exec_bench.compiler
    tables = (compiler._RUN_CODE, compiler._RUN_SOURCE, compiler._TEMPLATES)
    for table in tables:
        monkeypatch.setitem(table, "left by an earlier kernel", None)
    cold_ms = iter([5.0, 1.0, 4.0, 2.0, 3.0])
    seen = []

    def sample(module, engine, kernel):
        seen.append((engine, [len(table) for table in tables]))
        return next(cold_ms, 9.0), 100

    monkeypatch.setattr(exec_bench, "_sample", sample)
    monkeypatch.setattr(exec_bench, "_setup_ms", lambda module: 1.0)
    report = exec_bench.run_bench(1)
    assert exec_bench.COLD_SAMPLES == 5
    assert seen[:5] == [("closures", [0, 0, 0])] * 5
    assert report["entries"][0]["closures_cold_ms"] == 3.0


def test_cache_bench_compiles_the_corpus(monkeypatch, tmp_path):
    asked = _fake_corpus(monkeypatch, ["int main(void) { return 0; }\n"])
    report = cache_bench.run_bench(1, str(tmp_path))
    assert asked == [(cache_bench.REPO_ROOT, cache_bench.SEED)]
    assert [e["name"] for e in report["entries"]] == [
        "in-0.c@O0",
        "in-0.c@O1",
    ]


def test_cache_bench_aborts_on_an_input_that_does_not_compile(
    monkeypatch, tmp_path
):
    _fake_corpus(monkeypatch, ["int main(void) { return x; }\n"])
    with pytest.raises(SystemExit, match="in-0.c@O0 does not compile"):
        cache_bench.run_bench(1, str(tmp_path))


def test_service_mixes_take_the_corpus_and_the_kernels(monkeypatch):
    asked = _fake_corpus(monkeypatch, ["int a;\n", "int b;\n"])
    service_bench._sources.cache_clear()
    try:
        args = argparse.Namespace(batch=3)
        steady = service_bench._steady_batch(args, 0)
        cached = service_bench._cached_batch(args, 0)
    finally:
        service_bench._sources.cache_clear()
    assert asked == [(service_bench.REPO_ROOT, service_bench.SEED)]
    assert [r.source for r in cached] == ["int a;\n", "int b;\n", "int a;\n"]
    assert [r.source.split("\n", 1)[1] for r in steady] == [
        r.source for r in cached
    ]

    kernels = inputs.kernels(service_bench.SEED)
    faulted = service_bench._faulted_batch(
        argparse.Namespace(batch=8), 1
    )
    assert [r.source.split("\n", 1)[1] for r in faulted] == [
        kernels[i % len(kernels)].source for i in range(8)
    ]
    assert len({r.source for r in faulted}) == 8  # nothing coalesces


def test_transport_comparison_sends_each_request_through_both(
    monkeypatch, tmp_path
):
    """The TCP gate compares medians of one run: each client sends every
    request in process and over TCP, one after the other, alternating
    which transport goes first."""
    from repro.service.net import ShardRouter

    _fake_corpus(monkeypatch, ["int a;\n", "int b;\n"])
    service_bench._sources.cache_clear()
    submitted = []
    submit = ShardRouter.submit

    def record(self, request, callback):
        submitted.append(request.filename.rsplit("#", 1)[1])
        return submit(self, request, callback)

    monkeypatch.setattr(ShardRouter, "submit", record)
    args = argparse.Namespace(
        concurrency=1, batch=4, shards=1, clients=2, rounds=1
    )
    try:
        results = service_bench.run_transport_mix(
            ["inproc", "tcp"], "steady", args, str(tmp_path)
        )
    finally:
        service_bench._sources.cache_clear()

    for transport, (report, merged) in results.items():
        assert report["statuses"] == {"ok": 8}
        assert report["client_wall_latency"]["count"] == 8
        assert service_bench._check_transport_mix(
            transport, "steady", report, merged
        ) == []
    for tag in range(2):
        pairs = [
            ["inproc", "tcp"] if (tag + k) % 2 else ["tcp", "inproc"]
            for k in range(4)
        ]
        assert [s for s in submitted if s.split(".")[1] == str(tag)] == [
            f"{transport}.{tag}.{k}"
            for k, order in enumerate(pairs)
            for transport in order
        ]
