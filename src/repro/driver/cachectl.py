"""``miniclang-cache`` — operator CLI for the on-disk compilation
cache (the moral equivalent of ``ccache -s`` / ``ccache -c``).

Three subcommands, all safe to run against a live cache directory
because every mutation the disk tier makes is an atomic rename:

``verify [--repair]``
    Recompute the SHA-256 envelope of every object and alias.  Reports
    corrupt entries; with ``--repair`` they are deleted (a deleted
    entry is just a future miss).  Exits 1 when corruption remains on
    disk, 0 otherwise.

``gc``
    Remove stale temp files and orphan aliases, then enforce the byte
    budget (oldest-mtime-first, like ``ccache -c``).

``doctor``
    Environment triage: directory present/writable, format stamp,
    free space, entry counts, plus a full verify pass.  Exits 1 on
    any finding that needs operator attention.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Optional

from repro.cache.disk import DiskTier, _FORMAT_STAMP
from repro.driver.options import DEFAULT_CACHE_DIR

EXIT_OK = 0
EXIT_PROBLEMS = 1
EXIT_USER_ERROR = 2


def _tier(directory: str, max_bytes: Optional[int]) -> DiskTier:
    kwargs = {}
    if max_bytes is not None:
        kwargs["max_bytes"] = max_bytes
    return DiskTier(directory, **kwargs)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key in sorted(report):
        value = report[key]
        if isinstance(value, list):
            for item in value:
                print(f"  {key}: {item}")
        else:
            print(f"{key:>16}: {value}")


def _cmd_verify(args: argparse.Namespace) -> int:
    tier = _tier(args.directory, args.max_bytes)
    report = tier.verify(repair=args.repair)
    _emit(report, args.json)
    remaining = report["corrupt"] - (
        report["removed"] if args.repair else 0
    )
    if report["corrupt"] and not args.repair:
        print(
            f"miniclang-cache: {report['corrupt']} corrupt entr"
            f"{'y' if report['corrupt'] == 1 else 'ies'}; rerun with "
            "--repair to delete",
            file=sys.stderr,
        )
    return EXIT_PROBLEMS if remaining > 0 else EXIT_OK


def _cmd_gc(args: argparse.Namespace) -> int:
    tier = _tier(args.directory, args.max_bytes)
    report = tier.gc()
    _emit(report, args.json)
    return EXIT_OK


def _probe_writable(directory: str) -> Optional[str]:
    """None when we can create+rename a file in *directory*, else the
    error text.  Mirrors what a cache put actually does."""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-probe-")
        os.close(fd)
        dest = tmp + ".probed"
        os.replace(tmp, dest)
        os.unlink(dest)
    except OSError as err:
        return str(err)
    return None


def _cmd_doctor(args: argparse.Namespace) -> int:
    directory = args.directory
    problems: list[str] = []
    report: dict = {"directory": directory}

    if not os.path.isdir(directory):
        report["exists"] = False
        _emit(report, args.json)
        print(
            f"miniclang-cache: {directory}: no such cache directory "
            "(a fresh one is created on first -fcache compile)",
            file=sys.stderr,
        )
        return EXIT_PROBLEMS
    report["exists"] = True

    stamp_path = os.path.join(directory, "format")
    try:
        with open(stamp_path, "r", encoding="utf-8") as fh:
            stamp = fh.read()
    except OSError:
        stamp = ""
    report["format_ok"] = stamp == _FORMAT_STAMP
    if not report["format_ok"]:
        problems.append(
            "format stamp missing or foreign (entries from another "
            "cache version are ignored, not corrupt)"
        )

    write_error = _probe_writable(directory)
    report["writable"] = write_error is None
    if write_error is not None:
        problems.append(f"cache directory not writable: {write_error}")

    try:
        usage = shutil.disk_usage(directory)
        report["free_bytes"] = usage.free
        if usage.free < 64 * 1024 * 1024:
            problems.append(
                f"only {usage.free} bytes free on the cache volume"
            )
    except OSError:
        report["free_bytes"] = None

    tier = _tier(directory, args.max_bytes)
    verify = tier.verify(repair=False)
    report["objects"] = verify["objects"]
    report["aliases"] = verify["aliases"]
    report["corrupt"] = verify["corrupt"]
    report["tmp"] = verify["tmp"]
    report["bytes"] = tier.bytes
    if verify["corrupt"]:
        problems.append(
            f"{verify['corrupt']} corrupt entries (run "
            "`miniclang-cache verify --repair`)"
        )
    if verify["tmp"]:
        problems.append(
            f"{verify['tmp']} stale temp files (run "
            "`miniclang-cache gc`)"
        )

    report["problems"] = problems
    _emit(report, args.json)
    if problems:
        for problem in problems:
            print(f"miniclang-cache: doctor: {problem}", file=sys.stderr)
        return EXIT_PROBLEMS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniclang-cache",
        description=(
            "inspect and maintain a miniclang on-disk compilation "
            "cache"
        ),
    )
    parser.add_argument(
        "-d",
        "--directory",
        default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget used by gc eviction (default: tier default)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="recompute every entry checksum"
    )
    p_verify.add_argument(
        "--repair",
        action="store_true",
        help="delete corrupt entries and stale temp files",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_gc = sub.add_parser(
        "gc", help="drop temp files, orphan aliases; enforce budget"
    )
    p_gc.set_defaults(func=_cmd_gc)

    p_doctor = sub.add_parser(
        "doctor", help="triage the cache directory end to end"
    )
    p_doctor.set_defaults(func=_cmd_doctor)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"miniclang-cache: {err}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
