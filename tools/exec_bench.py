#!/usr/bin/env python3
"""Execution-engine benchmark: interpreter vs closure engine.

Runs perfbench's six run-kernels loop kernels of workload seed
``SEED`` (tiled, unrolled-with-remainder, fused, stencil, reduction,
plus one worksharing kernel) under both execution engines and records
wall-clock p50/p95 per kernel plus the per-kernel and geometric-mean
speedups to ``BENCH_exec.json``.  Percentiles are nearest-rank, from
``perfbench/stats.py``.

Each sample is the full execute latency — engine construction
(including lazy closure compilation) plus the run — over a module
compiled once per kernel, so the closure engine's compile overhead is
charged against it.  The closure engine keeps one process-wide table of
compiled run code (:mod:`repro.exec.compiler`), so its repeats are warm:
each kernel also records ``closures_cold_ms``, its first closure run
after that table is emptied, and ``closures_setup_ms``, the p50 of the
closure engine's set-up alone: engine construction plus the closure
compile of every defined function, with no run and a warm table.  From
the engine's ``exec.*`` statistics it records ``dispatches``, the calls
into generated code per closure run (one per function and kind of run
entered, plus the stops at deadline polls, since a loop nest runs in
place), and ``cold_source_bytes``, the generated source the cold run
compiles.  The cold, set-up and counter
figures are reported; the gate reads the warm p50s.
Every sample is sanity-checked: each run must print the kernel's
expected stdout, and both engines must retire identical instruction
counts, or the benchmark aborts (a benchmark that races two engines
producing different answers measures nothing).

Exit status 1 when ``--min-speedup`` is given and the geometric-mean
p50 speedup falls below it.

Usage::

    PYTHONPATH=src python tools/exec_bench.py \
        [--repeats 5] [--out BENCH_exec.json] [--min-speedup 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.append(os.path.join(REPO_ROOT, "perfbench"))

from repro.exec import (  # noqa: E402
    DISPATCHES,
    SOURCE_BYTES,
    compiler,
    create_interpreter,
)
from repro.pipeline import compile_source  # noqa: E402
import inputs  # noqa: E402
from stats import geomean, percentile  # noqa: E402

#: workload seed of the kernels: the seed whose dispatches
#: tests/unit/test_exec_counters.py pins
SEED = 11

#: closure set-up samples per kernel (each takes about a millisecond)
SETUP_SAMPLES = 25


def _sample(module, engine: str, kernel):
    """One end-to-end execute sample: engine construction (including
    closure compilation) plus the run.  Returns (ms, insts); aborts
    unless the kernel exits 0 printing its expected stdout."""
    start = time.perf_counter_ns()
    interp = create_interpreter(module, engine=engine)
    interp.omp.num_threads = kernel.num_threads
    exit_code = interp.run("main", [])
    elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    stdout = interp.output()
    if (exit_code, stdout) != (0, kernel.expected_stdout):
        raise SystemExit(
            f"exec-bench: '{kernel.name}' under {engine} exited "
            f"{exit_code} printing {stdout!r}, expected 0 printing "
            f"{kernel.expected_stdout!r}"
        )
    return elapsed_ms, interp.instruction_count


def _setup_ms(module) -> float:
    """Closure engine set-up alone: engine construction plus the
    closure compile of every defined function, no run."""
    start = time.perf_counter_ns()
    interp = create_interpreter(module, engine="closures")
    for fn in module.functions.values():
        if not fn.is_declaration:
            interp.code_for(fn)
    return (time.perf_counter_ns() - start) / 1e6


def run_bench(repeats: int) -> dict:
    entries = []
    for kernel in inputs.kernels(SEED):
        name, n = kernel.name, inputs.KERNEL_SIZES[kernel.name]
        module = compile_source(kernel.source, optimize=True).module
        samples = {"interp": [], "closures": []}
        compiler._RUN_CODE.clear()
        compiled = SOURCE_BYTES.labels().sum
        cold_ms, instructions = _sample(module, "closures", kernel)
        cold_bytes = int(SOURCE_BYTES.labels().sum - compiled)
        for _ in range(repeats):
            for engine in ("interp", "closures"):
                calls = DISPATCHES.value
                ms, insts = _sample(module, engine, kernel)
                if engine == "closures":
                    dispatches = DISPATCHES.value - calls
                if insts != instructions:
                    raise SystemExit(
                        f"exec-bench: engines diverged on '{name}': "
                        f"{engine} retired {insts} instructions, "
                        f"expected {instructions}"
                    )
                samples[engine].append(ms)
        setup_ms = percentile(
            [_setup_ms(module) for _ in range(SETUP_SAMPLES)], 50
        )
        interp_stats, closure_stats = (
            {
                "p50": round(percentile(ms, 50), 4),
                "p95": round(percentile(ms, 95), 4),
                "mean": round(statistics.fmean(ms), 4),
            }
            for ms in (samples["interp"], samples["closures"])
        )
        entries.append(
            {
                "name": name,
                "size": n,
                "num_threads": kernel.num_threads,
                "instructions": instructions,
                "interp_ms": interp_stats,
                "closures_ms": closure_stats,
                "closures_cold_ms": round(cold_ms, 4),
                "closures_setup_ms": round(setup_ms, 4),
                "dispatches": dispatches,
                "cold_source_bytes": cold_bytes,
                "speedup_p50": round(
                    interp_stats["p50"]
                    / max(closure_stats["p50"], 1e-6),
                    2,
                ),
                "speedup_p95": round(
                    interp_stats["p95"]
                    / max(closure_stats["p95"], 1e-6),
                    2,
                ),
            }
        )
        print(
            f"exec-bench: {name:<18} n={n:<6} "
            f"{instructions:>8} insts | interp p50 "
            f"{interp_stats['p50']:>9.2f}ms | closures p50 "
            f"{closure_stats['p50']:>8.2f}ms (cold {cold_ms:>8.2f}ms, "
            f"setup {setup_ms:>5.2f}ms) | "
            f"{entries[-1]['speedup_p50']:>5.2f}x"
        )
    speedups = [e["speedup_p50"] for e in entries]
    return {
        "tool": "exec_bench",
        "seed": SEED,
        "repeats": repeats,
        "kernels": len(entries),
        "speedup_p50_geomean": round(geomean(speedups), 2),
        "speedup_p50_min": min(speedups),
        "speedup_p50_max": max(speedups),
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exec_bench",
        description="interpreter vs closure-engine execution benchmark",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_exec.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the geometric-mean p50 speedup of "
        "the closure engine is below this factor",
    )
    args = parser.parse_args(argv)

    report = run_bench(args.repeats)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(
        f"exec-bench: geomean p50 speedup "
        f"{report['speedup_p50_geomean']}x "
        f"(min {report['speedup_p50_min']}x, "
        f"max {report['speedup_p50_max']}x) over "
        f"{report['kernels']} kernels"
    )
    print(f"exec-bench: wrote {args.out}")
    if (
        args.min_speedup is not None
        and report["speedup_p50_geomean"] < args.min_speedup
    ):
        print(
            f"exec-bench: FAIL — geomean p50 speedup "
            f"{report['speedup_p50_geomean']}x is below the "
            f"--min-speedup gate of {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
