#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload compile-corpus --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first on stdout; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every output is checked; the exit status is 0 only when all checks
pass.  Run it from the repository root (it reads ``src/``, the example
and conformance sources, and writes only under ``.perfbench_work/``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("compile-corpus", "run-kernels", "serve-edit-mix")

#: fresh interpreters timed for the import part of ``setup_s``
IMPORT_REPS = 3

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.pipeline, repro.service.net; "
    "print(time.perf_counter() - t)"
)


def import_seconds(src: str) -> float:
    """Median time a fresh interpreter takes to import the program."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return sorted(times)[len(times) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "pipeline.py")):
        print(
            f"perfbench: no program sources at {src}; run from a full "
            "checkout",
            file=sys.stderr,
        )
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, src)
    import workloads

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    os.makedirs(work, exist_ok=True)
    ctx = workloads.Context(
        root=ROOT,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        import_s=import_s,
    )
    run = {
        ("compile-corpus", 0): workloads.compile_corpus,
        ("run-kernels", 0): workloads.run_kernels,
        ("serve-edit-mix", 0): workloads.serve_edit_mix,
        ("compile-corpus", 1): workloads.compile_corpus_traced,
        ("run-kernels", 1): workloads.run_kernels_traced,
        ("serve-edit-mix", 1): workloads.serve_edit_mix_traced,
    }[(args.workload, args.trace)]
    res = workloads.Result()
    run(ctx, res)

    print(f"perfbench: workload {args.workload}, seed {args.seed}")
    for line in res.report:
        print(f"  {line}")
    failed_ratio = res.failed / max(1, res.attempted)
    print(f"  failed_ratio = {failed_ratio:.6f} ratio "
          f"({res.failed} of {res.attempted})")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for error in res.errors:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    correct = res.failed == 0 and res.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
