"""The closure engine's ``exec.*`` statistics.

They are counted only where the engine already branches: once per
dispatch into generated code in the serial loop and in a team member's
local runs, once per single-step bind, once per generated source
compiled (a histogram of its bytes, with its ``compile()`` time beside
it).  These tests pin the run-kernels kernels of seed 11: their
dispatches per request, no bind for a serial kernel and the four binds
worksharing makes at 4 threads; and the generated source a fresh
process compiles for the kernels of seed 23, each block printed once.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.exec import COMPILE_SECONDS, SOURCE_BYTES, compiler
from repro.instrument import STATS
from repro.pipeline import execute_request

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: seed-11 dispatches into generated code per request, by kernel (each
#: loop nest runs in place, so most are the stops at deadline polls)
SEED_11_DISPATCHES = {
    "tile-remainder": 7,
    "unroll-remainder": 9,
    "fuse": 9,
    "stencil": 17,
    "reduction": 7,
    "worksharing": 26,
}

#: most bytes of generated source a fresh process compiles to run the
#: six kernels of seed 23, each block printed once
SEED_23_SOURCE_BYTES = 45 * 1024


def _kernels(seed: int):
    sys.path.append(os.path.join(REPO_ROOT, "perfbench"))
    import inputs

    return inputs.kernels(seed)


def _request(kernel) -> dict:
    """The ``exec.*`` statistics of one run-kernels request."""
    before = STATS.counter_values()
    out = execute_request(
        kernel.source,
        action="run",
        optimize=True,
        num_threads=kernel.num_threads,
    )
    assert out.ok and out.output == kernel.expected_stdout
    return {
        name: value
        for name, value in STATS.delta_since(before).items()
        if name.startswith("exec.")
    }


def test_seed_11_dispatches_and_binds_per_request():
    kernels = _kernels(11)
    for kernel in kernels:
        _request(kernel)  # warm: the next request compiles no source
    counts = {kernel.name: _request(kernel) for kernel in kernels}
    assert {
        name: c["exec.trace-dispatches"] for name, c in counts.items()
    } == SEED_11_DISPATCHES
    assert {
        name: c.get("exec.first-step-binds", 0) for name, c in counts.items()
    } == {name: 4 if name == "worksharing" else 0 for name in counts}


def test_each_new_source_is_counted_with_its_bytes(monkeypatch):
    monkeypatch.setattr(compiler, "_RUN_CODE", {})
    monkeypatch.setattr(compiler, "_RUN_SOURCE", {})
    sizes = SOURCE_BYTES.labels()
    timed = COMPILE_SECONDS.labels()
    before = (sizes.total, sizes.sum, timed.total)
    counts = _request(next(k for k in _kernels(11) if k.name == "stencil"))
    sources = list(compiler._RUN_CODE)
    assert sources and counts["exec.trace-dispatches"] > 0
    assert (
        sizes.total - before[0], sizes.sum - before[1], timed.total - before[2]
    ) == (len(sources), sum(map(len, sources)), len(sources))


def test_a_fresh_process_prints_each_block_once():
    """A fresh process that runs the six kernels of seed 23 compiles at
    most :data:`SEED_23_SOURCE_BYTES` of generated source, by the
    ``exec.source-bytes`` histogram."""
    probe = (
        "import sys\n"
        f"sys.path.append({os.path.join(REPO_ROOT, 'perfbench')!r})\n"
        "import inputs\n"
        "from repro.exec import SOURCE_BYTES\n"
        "from repro.pipeline import execute_request\n"
        "for k in inputs.kernels(23):\n"
        "    out = execute_request(k.source, action='run', optimize=True,\n"
        "                          num_threads=k.num_threads)\n"
        "    assert out.ok and out.output == k.expected_stdout, k.name\n"
        "print(int(SOURCE_BYTES.labels().sum))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert 0 < int(out.stdout) <= SEED_23_SOURCE_BYTES
