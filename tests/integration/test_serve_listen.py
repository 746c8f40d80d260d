"""``miniclang-serve --listen`` as a real subprocess: the end-of-run
report a SIGTERM drain writes, and a clean error for an address that
is already bound.

The banner is read on a helper thread with a join timeout: a server
that died before printing it would block ``readline()`` forever.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid

import pytest

import repro
from repro.driver.exitcodes import EXIT_USER_ERROR
from repro.service import CompileRequest, CompileService
from repro.service.net import NetClient

SRC = """\
int printf(const char *fmt, ...);
int main() {
  int s = 0;
  #pragma omp unroll partial(2)
  for (int i = 0; i < 8; i += 1)
    s += i;
  printf("s=%d\\n", s);
  return 0;
}
"""

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="needs POSIX signals",
)


def _serve(args: list[str], marker: str) -> subprocess.Popen:
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    # inherited by every worker process, so survivors can be found
    env["SERVE_LISTEN_TEST_MARKER"] = marker
    return subprocess.Popen(
        [sys.executable, "-m", "repro.driver.serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _read_banner(proc: subprocess.Popen) -> str:
    box: list[str] = []
    reader = threading.Thread(
        target=lambda: box.append(proc.stderr.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout=60.0)
    return box[0] if box else ""


def _marked_pids(marker: str) -> list[int]:
    needle = f"SERVE_LISTEN_TEST_MARKER={marker}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                environ = fh.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ and state != b"Z":
            pids.append(int(entry))
    return pids


def test_sigterm_drain_writes_the_full_report(tmp_path):
    stats_json = tmp_path / "stats.json"
    metrics_json = tmp_path / "metrics.json"
    metrics_prom = tmp_path / "metrics.prom"
    proc = _serve(
        [
            "--listen", "127.0.0.1:0",
            "--workers", "1",
            "--quarantine-dir", "",
            f"-fcache={tmp_path / 'cache'}",
            "--print-stats",
            "--stats-json", str(stats_json),
            "--metrics-json", str(metrics_json),
            "--metrics-prom", str(metrics_prom),
            "-print-cache-stats",
        ],
        uuid.uuid4().hex,
    )
    try:
        banner = _read_banner(proc)
        assert "listening on " in banner, banner
        address = banner.split("listening on ")[1].split(" ")[0]
        client = NetClient(address, deadline_s=60.0)
        for _ in range(2):
            response = client.request(
                CompileRequest(source=SRC, filename="t.c", action="run")
            )
            assert response.ok, response.status
            assert response.output == "s=28\n"
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 0, stderr
    assert (
        "miniclang-serve: drained: 2 request(s) admitted, "
        "2 terminal response(s), state snapshotted; exiting 0"
        in stderr.splitlines()
    )
    with open(metrics_json, encoding="utf-8") as fh:
        assert CompileService.ledger_problems(json.load(fh), 2) == []
    with open(stats_json, encoding="utf-8") as fh:
        assert json.load(fh)["net.requests"] == 2
    samples = [
        line
        for line in metrics_prom.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert samples
    for line in samples:
        float(line.rsplit(" ", 1)[1])  # every sample parses
    assert "Statistics Collected" in stderr
    assert f"dir={tmp_path / 'cache'}" in stderr
    assert "cache: memory-entries=" in stderr


def test_bound_port_is_a_user_error_without_traceback():
    marker = uuid.uuid4().hex
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        proc = _serve(
            [
                "--listen", f"127.0.0.1:{port}",
                "--workers", "1",
                "--quarantine-dir", "",
            ],
            marker,
        )
        try:
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    assert proc.returncode == EXIT_USER_ERROR, stderr
    assert stderr.startswith("miniclang-serve: error:"), stderr
    assert "Traceback" not in stderr
    if os.path.isdir("/proc"):
        deadline = time.monotonic() + 1.0
        while _marked_pids(marker) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _marked_pids(marker) == []
