"""Run-parity golden: what running a program shows, on both engines.

For every ``tests/conformance/exec`` input and
``examples/observability_demo.c`` (O0 and O1, both OpenMP
representations, 1 and 4 threads) and for the run-kernels kernels of
``perfbench/inputs.py`` at a few seeds (O1, 1 and 4 threads), each
engine's run is reduced to three digests:

* ``stdout``: the guest's output;
* ``exit``: the exit code, or the failure kind
  (:func:`repro.pipeline.failure_kind`) when the run raises;
* ``profile``: the detailed :func:`repro.exec.profile_fingerprint`
  (retired instructions per thread, barrier and fork accounting and
  every block's count).

The digests in ``run_golden.json`` pin them: a change to either engine
that moves one output byte, one exit code or one block count fails
here.  A deliberate change regenerates the file with
``PYTHONPATH=src python tests/unit/test_run_golden.py``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

import pytest

from repro.exec import ENGINES, create_interpreter, profile_fingerprint
from repro.pipeline import compile_source, failure_kind

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "run_golden.json")

MODES = ("shadow", "irbuilder")
THREADS = (1, 4)
#: run-kernels seeds the golden covers
KERNEL_SEEDS = (1, 2, 3, 11, 17)


def corpus_sources() -> dict[str, str]:
    paths = sorted(
        glob.glob(os.path.join(ROOT, "tests", "conformance", "exec", "*.c"))
    ) + [os.path.join(ROOT, "examples", "observability_demo.c")]
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def kernel_sources() -> dict[str, str]:
    sys.path.append(os.path.join(ROOT, "perfbench"))
    import inputs

    return {
        f"kernel-{seed}-{k.name}": k.source
        for seed in KERNEL_SEEDS
        for k in inputs.kernels(seed)
    }


def configs() -> dict[str, tuple[str, str, bool]]:
    """Entry name -> (source, representation, optimize); each entry is
    run at every thread count."""
    out = {}
    for name, source in corpus_sources().items():
        for mode in MODES:
            for optimize in (False, True):
                out[f"{name} [{mode} O{int(optimize)}]"] = (
                    source, mode, optimize
                )
    for name, source in kernel_sources().items():
        out[f"{name} [shadow O1]"] = (source, "shadow", True)
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digests(source: str, mode: str, optimize: bool) -> dict:
    """``{"<engine> t<threads>": {"stdout", "exit", "profile"}}`` for
    one compile of *source*, run on each engine at each thread count."""
    module = compile_source(
        source,
        filename="input.c",
        enable_irbuilder=mode == "irbuilder",
        optimize=optimize,
    ).module
    out = {}
    for engine in ENGINES:
        for threads in THREADS:
            interp = create_interpreter(
                module, engine=engine, profile_detail=True
            )
            interp.omp.num_threads = threads
            try:
                exit_status = str(interp.run("main", []))
            except Exception as exc:  # noqa: BLE001 - its kind is pinned
                exit_status = failure_kind(exc)
            out[f"{engine} t{threads}"] = {
                "stdout": _digest(interp.output()),
                "exit": exit_status,
                "profile": _digest(
                    json.dumps(
                        profile_fingerprint(interp.profile), sort_keys=True
                    )
                ),
            }
            interp.memory.release()
    return out


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


CONFIGS = configs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_golden(name):
    assert run_digests(*CONFIGS[name]) == _golden().get(name)


def test_golden_covers_every_config():
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS)
    assert sum(name.startswith("kernel-") for name in golden) == 6 * len(
        KERNEL_SEEDS
    )


if __name__ == "__main__":
    table = {name: run_digests(*config) for name, config in CONFIGS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
