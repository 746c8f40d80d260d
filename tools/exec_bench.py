#!/usr/bin/env python3
"""Execution-engine benchmark: interpreter vs closure engine.

Runs six loop kernels (tiled, unrolled-with-remainder, fused, stencil,
reduction, plus one worksharing kernel) under both execution engines
and records wall-clock p50/p95 per kernel plus the per-kernel and
geometric-mean speedups to ``BENCH_exec.json``.  Percentiles are
nearest-rank, from ``perfbench/stats.py``.

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
into generated traces per closure run, and ``cold_source_bytes``, the
generated source the cold run compiles.  The cold, set-up and counter
figures are reported; the gate reads the warm p50s.
Every sample is sanity-checked: both engines must produce identical
stdout and retire identical instruction counts, or the benchmark
aborts (a benchmark that races two engines producing different answers
measures nothing).

Exit status 1 when ``--min-speedup`` is given and the geometric-mean
p50 speedup falls below it.

Usage::

    PYTHONPATH=src python tools/exec_bench.py \
        [--repeats 5] [--smoke] [--out BENCH_exec.json] \
        [--min-speedup 5]
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
from stats import geomean, percentile  # noqa: E402

#: (name, num_threads, source template) — %(n)d is the problem size
KERNELS = [
    (
        "tile-remainder",
        1,
        r"""
int main(void) {
  static long grid[%(n)d][%(n)d];
  long checksum = 0;
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < %(n)d; i += 1)
    for (int j = 0; j < %(n)d; j += 1)
      grid[i][j] = i * 31 + j;
  for (int i = 0; i < %(n)d; i += 1)
    for (int j = 0; j < %(n)d; j += 1)
      checksum += grid[i][j];
  printf("%%d\n", (int)(checksum %% 1000000));
  return 0;
}
""",
    ),
    (
        "unroll-remainder",
        1,
        r"""
int main(void) {
  long acc = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < %(n)d; i += 1)
    acc += i * 3 - 1;
  printf("%%d\n", (int)(acc %% 1000000));
  return 0;
}
""",
    ),
    (
        "fuse",
        1,
        r"""
int main(void) {
  static int a[%(n)d], b[%(n)d];
  long sum = 0;
  #pragma omp fuse
  {
    for (int i = 0; i < %(n)d; i += 1) a[i] = i * 7;
    for (int j = 0; j < %(n)d; j += 1) b[j] = j - 3;
  }
  for (int i = 0; i < %(n)d; i += 1) sum += a[i] + b[i];
  printf("%%d\n", (int)(sum %% 1000000));
  return 0;
}
""",
    ),
    (
        "stencil",
        1,
        r"""
int main(void) {
  static double cur[%(n)d], nxt[%(n)d];
  for (int i = 0; i < %(n)d; i += 1) cur[i] = i * 0.25;
  for (int t = 0; t < 8; t += 1) {
    for (int i = 1; i < %(n)d - 1; i += 1)
      nxt[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0;
    for (int i = 1; i < %(n)d - 1; i += 1) cur[i] = nxt[i];
  }
  double sum = 0.0;
  for (int i = 0; i < %(n)d; i += 1) sum += cur[i];
  printf("%%f\n", sum);
  return 0;
}
""",
    ),
    (
        "reduction",
        1,
        r"""
int main(void) {
  long sum = 0;
  for (int i = 0; i < %(n)d; i += 1)
    sum += (i * 13) %% 7 + (i >> 2);
  printf("%%d\n", (int)(sum %% 1000000));
  return 0;
}
""",
    ),
    (
        "worksharing",
        4,
        r"""
int main(void) {
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(static) \
      num_threads(4)
  for (int i = 0; i < %(n)d; i += 1)
    sum += i * 5 - 2;
  printf("%%d\n", (int)(sum %% 1000000));
  return 0;
}
""",
    ),
]

#: problem sizes; smoke keeps CI latency low, full sizes the committed
#: BENCH_exec.json
SIZES = {
    "tile-remainder": (30, 62),
    "unroll-remainder": (4003, 40003),
    "fuse": (1500, 15000),
    "stencil": (800, 6000),
    "reduction": (3000, 30000),
    "worksharing": (2000, 20000),
}


#: closure set-up samples per kernel (each takes about a millisecond)
SETUP_SAMPLES = 25


def _compile_kernel(source: str):
    return compile_source(source, optimize=True).module


def _sample(module, engine: str, num_threads: int):
    """One end-to-end execute sample: engine construction (including
    closure compilation) plus the run.  Returns (ms, stdout, insts)."""
    start = time.perf_counter_ns()
    interp = create_interpreter(module, engine=engine)
    interp.omp.num_threads = num_threads
    exit_code = interp.run("main", [])
    elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    assert exit_code == 0, f"kernel exited {exit_code} under {engine}"
    return elapsed_ms, interp.output(), interp.instruction_count


def _setup_ms(module) -> float:
    """Closure engine set-up alone: engine construction plus the
    closure compile of every defined function, no run."""
    start = time.perf_counter_ns()
    interp = create_interpreter(module, engine="closures")
    for fn in module.functions.values():
        if not fn.is_declaration:
            interp.code_for(fn)
    return (time.perf_counter_ns() - start) / 1e6


def run_bench(repeats: int, smoke: bool) -> dict:
    entries = []
    for name, num_threads, template in KERNELS:
        n = SIZES[name][0 if smoke else 1]
        module = _compile_kernel(template % {"n": n})
        samples = {"interp": [], "closures": []}
        compiler._RUN_CODE.clear()
        compiled = SOURCE_BYTES.labels().sum
        cold_ms, stdout, insts = _sample(module, "closures", num_threads)
        cold_bytes = int(SOURCE_BYTES.labels().sum - compiled)
        reference = (stdout, insts)
        for _ in range(repeats):
            for engine in ("interp", "closures"):
                calls = DISPATCHES.value
                ms, stdout, insts = _sample(module, engine, num_threads)
                if engine == "closures":
                    dispatches = DISPATCHES.value - calls
                if (stdout, insts) != reference:
                    raise SystemExit(
                        f"exec-bench: engines diverged on '{name}': "
                        f"{engine} produced {(stdout, insts)!r}, "
                        f"expected {reference!r}"
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
                "num_threads": num_threads,
                "instructions": reference[1],
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
            f"{reference[1]:>8} insts | interp p50 "
            f"{interp_stats['p50']:>9.2f}ms | closures p50 "
            f"{closure_stats['p50']:>8.2f}ms (cold {cold_ms:>8.2f}ms, "
            f"setup {setup_ms:>5.2f}ms) | "
            f"{entries[-1]['speedup_p50']:>5.2f}x"
        )
    speedups = [e["speedup_p50"] for e in entries]
    return {
        "tool": "exec_bench",
        "mode": "smoke" if smoke else "full",
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
        "--smoke",
        action="store_true",
        help="small problem sizes and 3 repeats (CI latency budget)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when the geometric-mean p50 speedup of "
        "the closure engine is below this factor",
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.smoke and args.repeats == 5 else args.repeats
    report = run_bench(repeats, args.smoke)

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
