"""The closure engine's ``exec.*`` statistics.

They are counted only where the engine already branches: once per
trace dispatch in the serial loop and in a team member's local runs,
once per single-step bind, once per generated source compiled (a
histogram of its bytes, with its ``compile()`` time beside it).  These
tests pin the run-kernels kernels of seed 11: their dispatches per
request, no bind for a serial kernel and the four binds worksharing
makes at 4 threads.
"""

from __future__ import annotations

import os
import sys

from repro.exec import COMPILE_SECONDS, SOURCE_BYTES, compiler
from repro.instrument import STATS
from repro.pipeline import execute_request

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: seed-11 trace dispatches per request, by kernel
SEED_11_DISPATCHES = {
    "tile-remainder": 428,
    "unroll-remainder": 908,
    "fuse": 13,
    "stencil": 53,
    "reduction": 9,
    "worksharing": 31,
}


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
    monkeypatch.setattr(compiler, "_TRACE_SOURCE", {})
    sizes = SOURCE_BYTES.labels()
    timed = COMPILE_SECONDS.labels()
    before = (sizes.total, sizes.sum, timed.total)
    counts = _request(next(k for k in _kernels(11) if k.name == "stencil"))
    sources = list(compiler._RUN_CODE)
    assert sources and counts["exec.trace-dispatches"] > 0
    assert (
        sizes.total - before[0], sizes.sum - before[1], timed.total - before[2]
    ) == (len(sources), sum(map(len, sources)), len(sources))
