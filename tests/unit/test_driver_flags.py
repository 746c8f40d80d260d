"""The driver flag surface: every option string ``miniclang`` and
``miniclang-serve`` accept keeps its dest and default.

The shared cache and statistics flags are declared once for both
drivers; this literal table is the guard that merging the declarations
dropped no spelling and moved no default.  ``--help`` wording is free
to change, the parse result is not.  The ``-fNAME[=VALUE]`` flags that
argparse never sees are pinned through the shared argv scanner.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tomllib

import pytest

from repro.driver import cli, serve
from repro.driver.options import DEFAULT_CACHE_DIR, scan_f_flags

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

CLI_FLAGS = [
    ("-h", "help", "==SUPPRESS=="),
    ("--help", "help", "==SUPPRESS=="),
    ("-ast-dump", "ast_dump", False),
    ("-ast-dump-shadow", "ast_dump_shadow", False),
    ("-fsyntax-only", "syntax_only", False),
    ("-fopenmp", "openmp", True),
    ("-fno-openmp", "openmp", True),
    ("-fopenmp-enable-irbuilder", "enable_irbuilder", False),
    ("-O", "optimize", False),
    ("-O1", "optimize", False),
    ("-O2", "optimize", False),
    ("-O0", "optimize", True),
    ("-emit-llvm", "emit_llvm", True),
    ("--run", "run", False),
    ("--entry", "entry", "main"),
    ("-fexec", "exec_engine", "closures"),
    ("--num-threads", "num_threads", 4),
    ("-D", "defines", []),
    ("-I", "include_paths", []),
    ("--function", "function", None),
    ("-o", "output", None),
    ("-print-stats", "print_stats", False),
    ("--stats-json", "stats_json", None),
    ("-print-cache-stats", "print_cache_stats", False),
    ("-fcache-max-entries", "cache_max_entries", 1024),
    ("-fcache-max-bytes", "cache_max_bytes", 256 * 1024 * 1024),
    ("-Rpass", "rpass", None),
    ("-Rpass-missed", "rpass_missed", None),
    ("-Rpass-analysis", "rpass_analysis", None),
    ("-fprofile-report", "profile_report", False),
    ("-print-pipeline-passes", "print_pipeline_passes", False),
    ("-print-before", "print_before", []),
    ("-print-after", "print_after", []),
    ("-print-before-all", "print_before_all", False),
    ("-print-after-all", "print_after_all", False),
    ("-print-changed", "print_changed", False),
    ("-verify-each", "verify_each", False),
    ("-opt-bisect-limit", "opt_bisect_limit", None),
    ("-debug-counter", "debug_counters", []),
    ("-crash-reproducer-dir", "crash_reproducer_dir", "$MINICLANG_CRASH_DIR"),
    ("-ferror-limit", "error_limit", 0),
    ("-finject-fault", "inject_faults", []),
    ("-print-fault-sites", "print_fault_sites", False),
    ("-fno-crash-recovery", "crash_recovery", True),
    ("--strip-omp-transforms", "strip_omp_transforms", False),
    ("--timeout", "timeout", None),
    ("--fuel", "fuel", None),
    ("--max-memory", "max_memory", None),
    ("--max-recursion", "max_recursion", 256),
]

SERVE_FLAGS = [
    ("-h", "help", "==SUPPRESS=="),
    ("--help", "help", "==SUPPRESS=="),
    ("--workers", "workers", 2),
    ("--listen", "listen", None),
    ("--shards", "shards", 1),
    ("--max-connections", "max_connections", 64),
    ("--frame-timeout", "frame_timeout", 10.0),
    ("--idle-timeout", "idle_timeout", 300.0),
    ("--deadline", "deadline", 30.0),
    ("--retries", "retries", 2),
    ("--hedge-delay", "hedge_delay", None),
    ("--queue-capacity", "queue_capacity", 256),
    ("--mode", "mode", "shadow"),
    ("--run", "run", False),
    ("--entry", "entry", "main"),
    ("--num-threads", "num_threads", 4),
    ("--optimize", "optimize", False),
    ("--fuel", "fuel", None),
    ("--no-degrade", "no_degrade", False),
    ("--inject-fault", "inject_faults", []),
    ("--fault-attempts", "fault_attempts", 1),
    ("--quarantine-dir", "quarantine_dir", "$MINICLANG_QUARANTINE_DIR"),
    ("--state-dir", "state_dir", None),
    ("--drain-timeout", "drain_timeout", 10.0),
    ("--worker-max-requests", "worker_max_requests", None),
    ("--heartbeat-interval", "heartbeat_interval", 5.0),
    ("-fcache-max-entries", "cache_max_entries", 1024),
    ("-fcache-max-bytes", "cache_max_bytes", 256 * 1024 * 1024),
    ("--no-single-flight", "no_single_flight", False),
    ("-print-cache-stats", "print_cache_stats", False),
    ("--json", "json_output", False),
    ("--print-stats", "print_stats", False),
    ("--stats-json", "stats_json", None),
    ("--metrics-json", "metrics_json", None),
    ("--metrics-prom", "metrics_prom", None),
    ("--log-jsonl", "log_jsonl", None),
]

#: the environment-derived defaults, as each parser reads them
ENV_DEFAULTS = {
    "$MINICLANG_CRASH_DIR": ("MINICLANG_CRASH_DIR", "miniclang-crashes"),
    "$MINICLANG_QUARANTINE_DIR": (
        "MINICLANG_QUARANTINE_DIR",
        "service-quarantine",
    ),
}

DRIVERS = {"miniclang": cli, "miniclang-serve": serve}


def _expected_default(default):
    if isinstance(default, str) and default in ENV_DEFAULTS:
        return os.environ.get(*ENV_DEFAULTS[default])
    return default


@pytest.mark.parametrize(
    "driver, flags",
    [("miniclang", CLI_FLAGS), ("miniclang-serve", SERVE_FLAGS)],
)
def test_every_option_string_keeps_dest_and_default(driver, flags):
    parser = DRIVERS[driver].build_arg_parser()
    by_string = parser._option_string_actions
    for option, dest, default in flags:
        assert option in by_string, f"{driver} dropped {option}"
        action = by_string[option]
        assert action.dest == dest, option
        assert action.default == _expected_default(default), option
    # the print-stats alias is the only spelling the table may add
    added = set(by_string) - {option for option, _, _ in flags}
    assert added <= {"-print-stats", "--print-stats"}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("spelling", ["-print-stats", "--print-stats"])
def test_both_print_stats_spellings_set_print_stats(driver, spelling):
    parser = DRIVERS[driver].build_arg_parser()
    assert parser.parse_args([spelling, "x.c"]).print_stats is True
    assert parser.parse_args(["x.c"]).print_stats is False


#: what ``miniclang`` scans out of argv before argparse runs
CLI_SCAN = {"time-trace": "", "cache": DEFAULT_CACHE_DIR, "cache-durable": True}


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], {"time-trace": None, "cache": None, "cache-durable": None}),
        (["-fcache"], {"cache": ".miniclang-cache"}),
        (["-fcache="], {"cache": ".miniclang-cache"}),
        (["-fcache=d"], {"cache": "d"}),
        # last flag wins, clang-style
        (["-fcache=d", "-fno-cache"], {"cache": None}),
        (["-fno-cache", "-fcache=d"], {"cache": "d"}),
        (["-ftime-trace"], {"time-trace": ""}),
        (["-ftime-trace="], {"time-trace": ""}),
        (["-ftime-trace=t.json"], {"time-trace": "t.json"}),
        (["-fcache-durable"], {"cache-durable": True}),
    ],
)
def test_scan_f_flags_values(argv, expected):
    remaining, values = scan_f_flags(
        argv + ["x.c"], CLI_SCAN, negatable=("cache",)
    )
    assert remaining == ["x.c"]
    for name, value in expected.items():
        assert values[name] == value


@pytest.mark.parametrize(
    "arg",
    [
        # switches take no value, only negatable flags have -fno-
        "-fcache-durable=1",
        "-fno-cache=d",
        "-fno-time-trace",
        # declared flags that merely share the prefix stay for argparse
        "-fcache-max-entries=4",
        "-fcache-max-bytes",
        "--fcache",
        "-ftrace-requests",
    ],
)
def test_scan_f_flags_leaves_other_spellings(arg):
    remaining, _ = scan_f_flags([arg], CLI_SCAN, negatable=("cache",))
    assert remaining == [arg]


def test_python_m_driver_writes_nothing_to_stderr(tmp_path):
    """``python -m repro.driver.cli`` runs the module without runpy's
    "found in sys.modules" warning, so a clean compile leaves stderr
    empty (lit's ``2>&1`` checks and CI read it)."""
    source = tmp_path / "ok.c"
    source.write_text("int main(void) { return 0; }\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.driver.cli", "-fsyntax-only",
         str(source)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_every_driver_is_an_installed_script():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {
        "miniclang": "repro.driver.cli:main",
        "miniclang-cache": "repro.driver.cachectl:main",
        "miniclang-serve": "repro.driver.serve:main",
    }
