"""A ``miniclang-serve --listen`` subprocess: spawn, banner, peak RSS
of its process tree, and the SIGTERM drain that ends it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

BANNER_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> list[int]:
    """*pid* and every live descendant."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(_children(current))
    return tree


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class ServerProcess:
    """One ``python -m repro.driver.serve --listen 127.0.0.1:0``."""

    def __init__(self, root: str, work_dir: str, workers: int) -> None:
        self.metrics_path = os.path.join(work_dir, "server-metrics.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        cmd = [
            sys.executable,
            "-m",
            "repro.driver.serve",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--workers",
            str(workers),
            "-fcache=" + os.path.join(work_dir, "cache"),
            "--quarantine-dir",
            "",
            "--deadline",
            "60",
            "--metrics-json",
            self.metrics_path,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=work_dir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines: list[str] = []
        self._banner = threading.Event()
        # The banner and every operational line go to stderr; keep
        # reading it so the pipe never fills and stalls the server.
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.address: tuple[str, int] | None = None
        if not self._banner.wait(BANNER_TIMEOUT_S) or self.address is None:
            self.kill()
            raise RuntimeError(
                "serve subprocess printed no listening banner: "
                + "".join(self.stderr_lines)[-400:]
            )
        self.ready_s = time.perf_counter() - self.started

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            if self.address is None and "listening on " in line:
                host, port = (
                    line.split("listening on ")[1].split(" ")[0].rsplit(":", 1)
                )
                self.address = (host, int(port))
                self._banner.set()
        self._banner.set()

    def tree_peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(p) for p in process_tree(self.proc.pid))

    def drain(self) -> tuple[int, list[int]]:
        """SIGTERM, wait for the drain, and return ``(exit code,
        descendants still alive afterwards)``."""
        descendants = process_tree(self.proc.pid)[1:]
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -1
        self._reader.join(timeout=10.0)
        deadline = time.monotonic() + 10.0
        survivors = [p for p in descendants if alive(p)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [p for p in survivors if alive(p)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return code, survivors

    def kill(self) -> None:
        """Hard stop (error paths): the server and its workers."""
        for pid in reversed(process_tree(self.proc.pid)):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.stderr is not None:
            self.proc.stderr.close()
