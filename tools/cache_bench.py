#!/usr/bin/env python3
"""Compilation-cache benchmark: cold vs warm latency over a corpus.

Replays perfbench's compile-corpus inputs of workload seed ``SEED``
(the examples, the conformance sources and generated programs) through
:func:`repro.pipeline.compile_source_cached` three ways per source and
optimization level:

* **cold** — empty cache, the full pipeline runs;
* **warm** — immediate repeat, served from the in-memory tier
  (exact-alias replay);
* **disk-warm** — a fresh :class:`~repro.cache.CompilationCache`
  instance over the same directory, simulating a new process reusing a
  populated on-disk cache.

Reports p50/p95/mean latency per path and the per-source cold/warm
speedup distribution (nearest-rank percentiles from
``perfbench/stats.py``), and writes the whole table to ``BENCH_cache.json``
(the CI artifact that seeds the perf trajectory).  Exit status 1 when
``--min-speedup`` (default off) is not met by the p50 speedup, and
the benchmark aborts if an input does not compile.

Usage::

    PYTHONPATH=src python tools/cache_bench.py \
        [--repeats 5] [--out BENCH_cache.json] [--min-speedup 10]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.append(os.path.join(REPO_ROOT, "perfbench"))

from repro.cache import CompilationCache  # noqa: E402
from repro.pipeline import (  # noqa: E402
    CompilationError,
    compile_source_cached,
)
import inputs  # noqa: E402
from stats import median, percentile  # noqa: E402

#: workload seed of the corpus
SEED = 1


def _summary(values: list[float]) -> dict:
    return {
        "p50": round(percentile(values, 50), 4),
        "p95": round(percentile(values, 95), 4),
        "mean": round(statistics.fmean(values), 4),
    }


def _time_ms(fn) -> float:
    start = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - start) / 1e6


def run_bench(repeats: int, cache_dir: str) -> dict:
    corpus = inputs.compile_corpus(REPO_ROOT, SEED)
    entries = []
    cache = CompilationCache(cache_dir)
    for item in corpus:
        for optimize in (False, True):
            label = f"{item.name}@O{int(optimize)}"
            try:
                cold_ms = _time_ms(
                    lambda: compile_source_cached(
                        item.source, cache, optimize=optimize
                    )
                )
            except CompilationError as exc:
                raise SystemExit(
                    f"cache-bench: {label} does not compile: {exc}"
                )
            warm_samples = [
                _time_ms(
                    lambda: compile_source_cached(
                        item.source, cache, optimize=optimize
                    )
                )
                for _ in range(repeats)
            ]
            warm_ms = median(warm_samples)
            entries.append(
                {
                    "name": label,
                    "cold_ms": round(cold_ms, 4),
                    "warm_ms": round(warm_ms, 4),
                    "speedup": round(cold_ms / max(warm_ms, 1e-6), 2),
                }
            )
    # A fresh cache object over the same directory: the first lookup
    # must come off disk (new process simulation).
    fresh = CompilationCache(cache_dir)
    disk_samples = [
        _time_ms(
            lambda: compile_source_cached(
                corpus[i % len(corpus)].source, fresh
            )
        )
        for i in range(min(len(corpus), 32))
    ]
    report = {
        "tool": "cache_bench",
        "corpus": {
            "seed": SEED,
            "inputs": len(corpus),
            "measured": len(entries),
        },
        "repeats": repeats,
        "cold_ms": _summary([e["cold_ms"] for e in entries]),
        "warm_ms": _summary([e["warm_ms"] for e in entries]),
        "disk_warm_ms": _summary(disk_samples),
        "speedup": _summary([e["speedup"] for e in entries]),
        "entries": entries,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cache_bench",
        description="cold/warm compilation-cache latency benchmark",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_cache.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the p50 cold/warm speedup is below "
        "this factor",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="benchmark cache directory (default: a fresh temp dir, "
        "removed afterwards)",
    )
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir or tempfile.mkdtemp(
        prefix="miniclang-cache-bench-"
    )
    try:
        report = run_bench(args.repeats, cache_dir)
    finally:
        if args.cache_dir is None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(
        "cache-bench: {measured} compiles | cold p50 {cold}ms | warm "
        "p50 {warm}ms | disk-warm p50 {disk}ms | speedup p50 "
        "{speed}x (p95 {speed95}x)".format(
            measured=report["corpus"]["measured"],
            cold=report["cold_ms"]["p50"],
            warm=report["warm_ms"]["p50"],
            disk=report["disk_warm_ms"]["p50"],
            speed=report["speedup"]["p50"],
            speed95=report["speedup"]["p95"],
        )
    )
    print(f"cache-bench: wrote {args.out}")
    if (
        args.min_speedup is not None
        and report["speedup"]["p50"] < args.min_speedup
    ):
        print(
            f"cache-bench: FAIL p50 speedup "
            f"{report['speedup']['p50']}x < {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
