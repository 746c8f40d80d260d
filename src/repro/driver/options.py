"""What ``miniclang`` and ``miniclang-serve`` share at the command line:
the flag table, the ``-fNAME[=VALUE]`` argv scanner, input reading and
the end-of-run report.

clang declares each driver flag once, in ``Options.td``; this module is
that one declaration for the flags both drivers accept, and the one
consumer that writes the report they ask for.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Collection, Iterable, Mapping

from repro.driver.exitcodes import EXIT_TIMEOUT
from repro.instrument.stats import STATS, render_stats

#: where ``-fcache`` without an explicit directory keeps its entries
DEFAULT_CACHE_DIR = ".miniclang-cache"


def add_shared_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the run, cache and statistics flags both drivers
    accept."""
    parser.add_argument(
        "--run",
        action="store_true",
        help="interpret the compiled module instead of printing IR",
    )
    parser.add_argument("--entry", default="main")
    parser.add_argument(
        "--num-threads",
        type=int,
        default=4,
        help="simulated OpenMP team size for --run",
    )
    parser.add_argument(
        "--fuel",
        type=int,
        metavar="N",
        help="with --run: maximum retired guest instructions "
        f"(exit code {EXIT_TIMEOUT} when exhausted)",
    )
    parser.add_argument(
        "-fcache-max-entries",
        type=int,
        default=1024,
        dest="cache_max_entries",
        metavar="N",
        help="in-memory cache tier capacity in entries (default 1024)",
    )
    parser.add_argument(
        "-fcache-max-bytes",
        type=int,
        default=256 * 1024 * 1024,
        dest="cache_max_bytes",
        metavar="N",
        help="on-disk cache tier budget in bytes (default 256 MiB); "
        "oldest entries are evicted past it",
    )
    parser.add_argument(
        "-print-cache-stats",
        action="store_true",
        dest="print_cache_stats",
        help="dump the cache.* counters and cache tier summary "
        "(use with -fcache)",
    )
    parser.add_argument(
        "-print-stats",
        "--print-stats",
        action="store_true",
        dest="print_stats",
        help="dump the statistics counters to stderr (LLVM -stats "
        "style)",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        dest="stats_json",
        metavar="FILE",
        help="write this run's statistics deltas as sorted JSON "
        "('-' for stdout)",
    )


def scan_f_flags(
    argv: list[str],
    bare: Mapping[str, object],
    negatable: Collection[str] = (),
) -> tuple[list[str], dict[str, object]]:
    """Pull the ``-fNAME[=VALUE]`` flags named in *bare* out of *argv*.

    argparse cannot take them: with ``nargs="?"`` a bare flag would
    swallow the following positional input.  ``-fNAME`` and ``-fNAME=``
    yield ``bare[NAME]``, ``-fNAME=V`` yields ``V``, and ``-fno-NAME``
    (for NAME in *negatable*) resets it to None; the last spelling
    wins, clang-style.  A bare value of ``True`` marks a switch that
    takes no ``=VALUE``.  Returns the remaining argv and every NAME's
    value (None when absent).
    """
    values: dict[str, object] = dict.fromkeys(bare)
    remaining: list[str] = []
    for arg in argv:
        name, eq, value = arg[2:].partition("=")
        if (
            arg.startswith("-f")
            and name in bare
            and not (eq and bare[name] is True)
        ):
            values[name] = value or bare[name]
        elif arg.startswith("-fno-") and not eq and name[3:] in negatable:
            values[name[3:]] = None
        else:
            remaining.append(arg)
    return remaining, values


def write_guest_output(text: str) -> None:
    """Write a guest program's output to stdout byte for byte: each
    character of *text* is one byte the program wrote, so
    ``putchar(255)`` writes the byte 0xff, as it does natively, not
    that character's UTF-8 encoding."""
    data = text.encode("latin-1", "replace")
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream stands in for stdout
        sys.stdout.write(data.decode("latin-1"))
        return
    sys.stdout.flush()
    buffer.write(data)
    buffer.flush()


def read_source(path: str) -> tuple[str, str]:
    """One driver input as ``(source, filename)``; ``-`` reads stdin.
    Raises OSError or UnicodeDecodeError for an unreadable file."""
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read(), path


def write_report(
    args: argparse.Namespace,
    stats_before: dict[str, int],
    metrics=None,
    caches: Iterable = (),
) -> None:
    """The end-of-run report, in order: ``--metrics-json`` and
    ``--metrics-prom`` (when a *metrics* registry is given),
    print-stats, ``--stats-json`` and ``-print-cache-stats`` (with one
    tier summary per cache in *caches*).  Statistics are the deltas
    since *stats_before*."""
    if metrics is not None and args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(metrics.snapshot(), fh, indent=1)
            fh.write("\n")
    if metrics is not None and args.metrics_prom:
        with open(args.metrics_prom, "w", encoding="utf-8") as fh:
            fh.write(metrics.render_prometheus())
    delta = STATS.delta_since(stats_before)
    if args.print_stats:
        print(render_stats(delta), file=sys.stderr)
    if args.stats_json:
        payload = json.dumps(delta, indent=1, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    if args.print_cache_stats:
        cache_delta = {
            key: value
            for key, value in delta.items()
            if key.startswith("cache.")
        }
        print(render_stats(cache_delta), file=sys.stderr)
        for cache in caches:
            if cache is not None:
                print(cache.describe(), file=sys.stderr)
