#!/usr/bin/env python3
"""A lit-style test runner for the ``tests/conformance`` suite.

Each test is a source file carrying one or more ``// RUN:`` lines::

    // RUN: miniclang -ast-dump %s | FileCheck %s
    // RUN: not miniclang -fsyntax-only %s 2>&1 | FileCheck %s \
    // RUN:     --check-prefix=DIAG

A trailing backslash continues the command on the next RUN line.
Supported substitutions (the useful subset of llvm-lit's):

    %s   absolute path of the test file
    %S   directory of the test file
    %t   unique temp path for this test (parent dir exists)
    %T   the test's temp directory
    %%   a literal '%'

Commands are executed WITHOUT a shell: the runner implements pipes
(``|``), the stderr merge ``2>&1``, simple redirects (``> f``, ``2> f``)
and the llvm ``not`` tool (expect a non-zero exit).  Tool names resolve
to in-repo implementations:

    miniclang        -> python -m repro.driver.cli   (PYTHONPATH=src)
    miniclang-serve  -> python -m repro.driver.serve
    FileCheck        -> python tools/filecheck.py
    %python          -> the running interpreter

Other markers: ``// XFAIL: *`` marks the whole test as expected to
fail; ``// UNSUPPORTED: *`` skips it.

Usage::

    python tools/lit_runner.py tests/conformance [more paths...]
    python tools/lit_runner.py -v --filter unroll tests/conformance

Exit status: 0 when nothing failed unexpectedly, 1 otherwise.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)
FILECHECK = os.path.join(REPO_ROOT, "tools", "filecheck.py")

_RUN_LINE = re.compile(r"(?://|#)\s*RUN:\s?(.*)$")
_XFAIL_LINE = re.compile(r"(?://|#)\s*XFAIL:")
_UNSUPPORTED_LINE = re.compile(r"(?://|#)\s*UNSUPPORTED:")

#: extensions that may carry RUN lines
_TEST_SUFFIXES = (".c", ".test", ".ll")


class RunLineError(Exception):
    pass


@dataclass
class TestCase:
    __test__ = False  # not a pytest class, despite the name

    path: str  # absolute
    name: str  # display name relative to the suite root
    run_lines: list[str] = field(default_factory=list)
    xfail: bool = False
    unsupported: bool = False


@dataclass
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    case: TestCase
    code: str  # PASS, FAIL, XFAIL, XPASS, SKIP, ERROR
    detail: str = ""
    elapsed: float = 0.0

    @property
    def failed(self) -> bool:
        return self.code in ("FAIL", "XPASS", "ERROR")


# ----------------------------------------------------------------------
# Discovery and RUN-line parsing
# ----------------------------------------------------------------------
def discover(paths: list[str]) -> list[TestCase]:
    cases: list[TestCase] = []
    for raw in paths:
        root = os.path.abspath(raw)
        if os.path.isfile(root):
            cases.append(parse_test(root, os.path.basename(root)))
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith(_TEST_SUFFIXES):
                    continue
                full = os.path.join(dirpath, fn)
                rel = os.path.relpath(full, root)
                cases.append(parse_test(full, rel))
    return cases


def parse_test(path: str, name: str) -> TestCase:
    case = TestCase(path=path, name=name)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    pending = ""
    for line in text.splitlines():
        if _XFAIL_LINE.search(line):
            case.xfail = True
            continue
        if _UNSUPPORTED_LINE.search(line):
            case.unsupported = True
            continue
        m = _RUN_LINE.search(line)
        if not m:
            continue
        fragment = m.group(1).rstrip()
        if fragment.endswith("\\"):
            pending += fragment[:-1].rstrip() + " "
            continue
        case.run_lines.append((pending + fragment).strip())
        pending = ""
    if pending:
        raise RunLineError(
            f"{name}: RUN line ends with a continuation but no "
            "further RUN line follows"
        )
    return case


# ----------------------------------------------------------------------
# Substitutions and command execution
# ----------------------------------------------------------------------
def substitute(command: str, case: TestCase, tmpdir: str) -> str:
    stem = os.path.splitext(os.path.basename(case.path))[0]
    subs = {
        "%s": case.path,
        "%S": os.path.dirname(case.path),
        "%t": os.path.join(tmpdir, stem + ".tmp"),
        "%T": tmpdir,
        "%python": sys.executable,
    }
    out = []
    i = 0
    while i < len(command):
        if command.startswith("%%", i):
            out.append("%")
            i += 2
            continue
        for key, value in subs.items():
            if command.startswith(key, i):
                out.append(value)
                i += len(key)
                break
        else:
            out.append(command[i])
            i += 1
    return "".join(out)


def _resolve_tool(argv: list[str]) -> list[str]:
    tool = argv[0]
    if os.path.isabs(tool):  # e.g. the substituted %python
        return argv
    if tool == "miniclang":
        return [sys.executable, "-m", "repro.driver.cli", *argv[1:]]
    if tool == "miniclang-serve":
        return [sys.executable, "-m", "repro.driver.serve", *argv[1:]]
    if tool in ("FileCheck", "filecheck"):
        return [sys.executable, FILECHECK, *argv[1:]]
    if tool == "true":
        return [sys.executable, "-c", "pass"]
    if tool == "false":
        return [sys.executable, "-c", "raise SystemExit(1)"]
    raise RunLineError(
        f"unknown RUN tool '{tool}' (known: miniclang, "
        "miniclang-serve, FileCheck, not, %python, true, false)"
    )


@dataclass
class _Stage:
    argv: list[str]
    invert: bool = False  # prefixed with `not`
    merge_stderr: bool = False  # 2>&1
    stdout_to: str | None = None  # > FILE
    stderr_to: str | None = None  # 2> FILE


def _parse_stage(tokens: list[str]) -> _Stage:
    stage = _Stage(argv=[])
    invert = False
    while tokens and tokens[0] == "not":
        invert = not invert
        tokens = tokens[1:]
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "2>&1":
            stage.merge_stderr = True
        elif tok == ">":
            i += 1
            if i >= len(tokens):
                raise RunLineError("'>' with no target file")
            stage.stdout_to = tokens[i]
        elif tok == "2>":
            i += 1
            if i >= len(tokens):
                raise RunLineError("'2>' with no target file")
            stage.stderr_to = tokens[i]
        elif tok.startswith(">") and len(tok) > 1:
            stage.stdout_to = tok[1:]
        elif tok.startswith("2>") and len(tok) > 2:
            stage.stderr_to = tok[2:]
        else:
            stage.argv.append(tok)
        i += 1
    if not stage.argv:
        raise RunLineError("empty pipeline stage")
    stage.invert = invert
    return stage


def run_command(
    command: str, case: TestCase, tmpdir: str, timeout: float
) -> tuple[bool, str]:
    """Execute one substituted RUN command.  Returns (ok, transcript)."""
    tokens = shlex.split(command)
    stages: list[list[str]] = [[]]
    for tok in tokens:
        if tok == "|":
            stages.append([])
        else:
            stages[-1].append(tok)
    parsed = [_parse_stage(s) for s in stages]

    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )

    data = b""
    transcript: list[str] = []
    for idx, stage in enumerate(parsed):
        argv = _resolve_tool(stage.argv)
        try:
            proc = subprocess.run(
                argv,
                input=data,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT
                if stage.merge_stderr
                else subprocess.PIPE,
                env=env,
                cwd=tmpdir,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return False, (
                f"stage {idx + 1} ({stage.argv[0]}) timed out "
                f"after {timeout}s"
            )
        stdout = proc.stdout or b""
        stderr = b"" if stage.merge_stderr else (proc.stderr or b"")
        if stage.stdout_to:
            with open(
                os.path.join(tmpdir, stage.stdout_to), "wb"
            ) as fh:
                fh.write(stdout)
            stdout = b""
        if stage.stderr_to:
            with open(
                os.path.join(tmpdir, stage.stderr_to), "wb"
            ) as fh:
                fh.write(stderr)
            stderr = b""
        ok = (proc.returncode != 0) if stage.invert else (
            proc.returncode == 0
        )
        if not ok:
            expected = "non-zero" if stage.invert else "0"
            transcript.append(
                f"stage {idx + 1} `{' '.join(stage.argv)}` exited "
                f"{proc.returncode} (expected {expected})"
            )
            if stdout:
                transcript.append(
                    "--- stdout ---\n"
                    + stdout.decode("utf-8", "replace")
                )
            if stderr:
                transcript.append(
                    "--- stderr ---\n"
                    + stderr.decode("utf-8", "replace")
                )
            return False, "\n".join(transcript)
        if stderr:
            # keep stderr of passing stages for -v output
            transcript.append(
                f"stage {idx + 1} stderr:\n"
                + stderr.decode("utf-8", "replace")
            )
        data = stdout
    return True, "\n".join(transcript)


# ----------------------------------------------------------------------
# Per-test execution
# ----------------------------------------------------------------------
def run_test(case: TestCase, timeout: float) -> TestResult:
    started = time.monotonic()
    if case.unsupported:
        return TestResult(case, "SKIP")
    if not case.run_lines:
        return TestResult(
            case, "ERROR", detail="test has no RUN: lines"
        )
    with tempfile.TemporaryDirectory(prefix="lit-") as tmpdir:
        for raw in case.run_lines:
            command = substitute(raw, case, tmpdir)
            try:
                ok, transcript = run_command(
                    command, case, tmpdir, timeout
                )
            except RunLineError as exc:
                return TestResult(
                    case,
                    "ERROR",
                    detail=f"RUN: {raw}\n{exc}",
                    elapsed=time.monotonic() - started,
                )
            if not ok:
                code = "XFAIL" if case.xfail else "FAIL"
                return TestResult(
                    case,
                    code,
                    detail=f"RUN: {command}\n{transcript}",
                    elapsed=time.monotonic() - started,
                )
    code = "XPASS" if case.xfail else "PASS"
    return TestResult(
        case, code, elapsed=time.monotonic() - started
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lit_runner",
        description="run // RUN: annotated conformance tests",
    )
    parser.add_argument(
        "paths", nargs="+", help="test files or directories"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print every test's status line as it finishes",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="REGEX",
        help="only run tests whose name matches REGEX",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=min(8, os.cpu_count() or 1),
        help="parallel worker processes (default: min(8, ncpu))",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-command timeout in seconds (default 120)",
    )
    args = parser.parse_args(argv)

    try:
        cases = discover(args.paths)
    except RunLineError as exc:
        print(f"lit_runner: error: {exc}", file=sys.stderr)
        return 2
    if args.filter:
        rx = re.compile(args.filter)
        cases = [c for c in cases if rx.search(c.name)]
    if not cases:
        print("lit_runner: error: no tests discovered", file=sys.stderr)
        return 2

    print(f"-- Testing: {len(cases)} tests, {args.jobs} workers --")
    results: list[TestResult] = []
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=args.jobs
    ) as pool:
        futures = {
            pool.submit(run_test, case, args.timeout): case
            for case in cases
        }
        for future in concurrent.futures.as_completed(futures):
            result = future.result()
            results.append(result)
            if args.verbose or result.failed:
                print(
                    f"{result.code}: {result.case.name} "
                    f"({result.elapsed:.2f}s)"
                )
                if result.failed and result.detail:
                    print(
                        "    "
                        + result.detail.replace("\n", "\n    ")
                    )

    results.sort(key=lambda r: r.case.name)
    tally: dict[str, int] = {}
    for result in results:
        tally[result.code] = tally.get(result.code, 0) + 1
    parts = [
        f"{label}: {tally[code]}"
        for code, label in (
            ("PASS", "Passed"),
            ("XFAIL", "Expectedly Failed"),
            ("SKIP", "Skipped"),
            ("FAIL", "Failed"),
            ("XPASS", "Unexpectedly Passed"),
            ("ERROR", "Errors"),
        )
        if code in tally
    ]
    print("\n" + ", ".join(parts))
    failed = [r for r in results if r.failed]
    if failed:
        print("\nFailing tests:")
        for result in failed:
            print(f"  {result.code}: {result.case.name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
