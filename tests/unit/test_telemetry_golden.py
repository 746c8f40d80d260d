"""Byte-identity golden for the statistics and metrics exports.

Pinned, as text, in ``telemetry_golden.json``:

* ``-print-stats`` and ``--stats-json`` of ``miniclang -O -print-stats
  --stats-json - --run examples/observability_demo.c``;
* ``-print-stats`` and ``--stats-json`` of a deterministic
  ``miniclang-serve --run --optimize`` batch (one worker, no cache, no
  faults, no hedging);
* ``render_prometheus()`` of a ``MetricsRegistry`` merged from a fixed
  snapshot holding a counter, a labelled counter, a gauge and a
  histogram;
* the sorted ``(name, type, help, label names)`` of that batch's
  ``--metrics-prom`` export.

Both drivers run in a fresh process, so the statistics do not depend
on what ran before in the test process.  A deliberate output change
regenerates the file with
``PYTHONPATH=src python tests/unit/test_telemetry_golden.py``.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import tempfile

from repro.instrument.telemetry import MetricsRegistry

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "telemetry_golden.json")

BATCH = (
    "examples/observability_demo.c",
    "tests/conformance/exec/parallel-reduction.c",
    "tests/conformance/exec/fuse-interleave.c",
    "tests/conformance/exec/reverse-order.c",
)

#: a merge source with one series of every kind the registry exports
FIXED_SNAPSHOT = {
    "jobs_total": {
        "type": "counter",
        "help": "Jobs seen",
        "labels": [],
        "series": [{"labels": {}, "value": 3}],
    },
    "jobs_by_status_total": {
        "type": "counter",
        "help": "Jobs by status",
        "labels": ["status"],
        "series": [
            {"labels": {"status": "ok"}, "value": 5},
            {"labels": {"status": "error"}, "value": 2},
        ],
    },
    "queue_depth": {
        "type": "gauge",
        "help": "Jobs queued",
        "labels": [],
        "series": [{"labels": {}, "value": 4}],
    },
    "job_seconds": {
        "type": "histogram",
        "help": "Job latency",
        "labels": ["kind"],
        "bounds": [0.01, 0.1, 1.0],
        "series": [
            {
                "labels": {"kind": "compile"},
                "count": 4,
                "sum": 0.75,
                "buckets": [1, 2, 0, 1],
            }
        ],
    },
}


def _run(module: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _stats_text(stderr: str) -> str:
    """The ``-print-stats`` block of a driver's stderr."""
    lines = stderr.splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith("===-")
    )
    end = start + 3
    while end < len(lines) and " - " in lines[end]:
        end += 1
    return "\n".join(lines[start:end])


def _stats_json(stdout: str) -> str:
    """The ``--stats-json -`` object that ends a driver's stdout."""
    return stdout[stdout.rindex("\n{") + 1 :]


def cli_outputs() -> dict[str, str]:
    proc = _run(
        "repro.driver.cli",
        [
            "-O",
            "-print-stats",
            "--stats-json",
            "-",
            "--run",
            "examples/observability_demo.c",
        ],
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "print-stats": _stats_text(proc.stderr),
        "stats-json": _stats_json(proc.stdout),
    }


@functools.lru_cache(maxsize=None)
def serve_outputs() -> dict[str, object]:
    with tempfile.TemporaryDirectory() as tmp:
        prom = os.path.join(tmp, "metrics.prom")
        snapshot = os.path.join(tmp, "metrics.json")
        proc = _run(
            "repro.driver.serve",
            [
                "--workers",
                "1",
                "--quarantine-dir",
                "",
                "-fno-cache",
                "--run",
                "--optimize",
                "-print-stats",
                "--stats-json",
                "-",
                "--metrics-prom",
                prom,
                "--metrics-json",
                snapshot,
                *BATCH,
            ],
        )
        assert proc.returncode == 0, proc.stderr
        with open(prom, encoding="utf-8") as fh:
            prom_text = fh.read()
        with open(snapshot, encoding="utf-8") as fh:
            labels = {
                name: entry["labels"]
                for name, entry in json.load(fh).items()
            }
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    for line in prom_text.splitlines():
        if line.startswith("# HELP "):
            name, _, text = line[len("# HELP ") :].partition(" ")
            helps[name] = text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE ") :].partition(" ")
            types[name] = kind
    return {
        "print-stats": _stats_text(proc.stderr),
        "stats-json": _stats_json(proc.stdout),
        "metrics-prom-families": sorted(
            [name, types[name], helps.get(name, ""), labels[name]]
            for name in types
        ),
    }


def merged_prometheus() -> str:
    registry = MetricsRegistry()
    registry.merge(json.loads(json.dumps(FIXED_SNAPSHOT)))
    return registry.render_prometheus()


def all_outputs() -> dict:
    return {
        "miniclang": cli_outputs(),
        "miniclang-serve": serve_outputs(),
        "merged-prometheus": merged_prometheus(),
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_miniclang_stats_match_golden():
    assert cli_outputs() == _golden()["miniclang"]


def test_serve_batch_stats_and_metric_families_match_golden():
    assert serve_outputs() == _golden()["miniclang-serve"]


def test_serve_batch_stats_all_have_descriptions():
    """Statistics that only workers increment are still described in
    the parent's dump (the fallback for an unregistered key is its bare
    name)."""
    outputs = serve_outputs()
    keys = sorted(json.loads(outputs["stats-json"]))
    rows = outputs["print-stats"].splitlines()[3:]
    assert len(rows) == len(keys)
    for key, row in zip(keys, rows):
        owner, _, name = key.partition(".")
        desc = row.split(" - ", 1)[1]
        assert row.split()[1] == owner
        assert desc and desc != name, key


def test_merged_prometheus_matches_golden():
    assert merged_prometheus() == _golden()["merged-prometheus"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(all_outputs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
