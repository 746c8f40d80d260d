"""Chaos harness for the compile service: ``python -m repro.service.chaos``.

Builds a batch of real tile/unroll compile+run requests, deliberately
poisons a fraction of it with deterministic ``-finject-fault`` specs —
hard worker deaths (``service-worker-exit``), hangs past the deadline
(``service-worker-hang``), and *poison inputs* that fail on every
attempt (``service-worker`` with ``fault_attempts=-1``) — then asserts
the service's whole contract:

* **zero lost requests** — every submitted request has exactly one
  terminal response;
* transient kills and hangs are *absorbed*: those requests still end in
  ``ok``/``degraded``;
* every poison input trips its circuit breaker within the failure
  threshold, is quarantined with a written reproducer, and a resubmit
  is rejected at admission (``circuit-open``);
* the ``service.*`` statistics account for every retry, timeout,
  worker loss, trip and response.

Exit code 0 when every invariant holds, 1 otherwise — this is the CI
smoke batch and the acceptance harness in one.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.instrument.stats import STATS, render_stats
from repro.instrument.telemetry.metrics import MetricsRegistry
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    load_state,
    state_path,
)

#: every chaos request is a real program: tile+unroll, compiled and run
_SOURCE_TEMPLATE = """\
// chaos request {index}{tag}
int printf(const char *fmt, ...);
int main() {{
  int sum = 0;
  #pragma omp tile sizes({tile})
  for (int i = 0; i < 12; i += 1)
    sum += i * {index};
  #pragma omp unroll partial(2)
  for (int j = 0; j < 4; j += 1)
    sum += j;
  printf("chaos {index}: %d\\n", sum);
  return 0;
}}
"""


def _make_source(index: int, tag: str = "") -> str:
    return _SOURCE_TEMPLATE.format(
        index=index, tag=tag, tile=2 + index % 3
    )


def build_batch(args) -> tuple[list[CompileRequest], dict[str, list[int]]]:
    """The deterministic chaos batch plus the index sets per category."""
    requests: list[CompileRequest] = []
    plan: dict[str, list[int]] = {
        "clean": [],
        "kill": [],
        "hang": [],
        "poison": [],
    }
    poison_every = (
        max(1, args.count // args.poison) if args.poison else 0
    )
    poisoned = 0
    for i in range(args.count):
        faults: tuple[str, ...] = ()
        fault_attempts = 1
        category = "clean"
        if (
            poison_every
            and i % poison_every == poison_every - 1
            and poisoned < args.poison
        ):
            # Unique source per poison input -> distinct fingerprints,
            # so each one trips its *own* breaker.
            faults = ("service-worker",)
            fault_attempts = -1
            category = "poison"
            poisoned += 1
        elif args.kill_every and i % args.kill_every == 1:
            faults = ("service-worker-exit",)
            category = "kill"
        elif args.hang_every and i % args.hang_every == 2:
            faults = ("service-worker-hang",)
            category = "hang"
        requests.append(
            CompileRequest(
                source=_make_source(i, f" [{category}]"),
                filename=f"chaos-{i}.c",
                action="run",
                mode="irbuilder" if i % 2 else "shadow",
                deadline_s=args.deadline,
                inject_faults=faults,
                fault_attempts=fault_attempts,
            )
        )
        plan[category].append(i)
    return requests, plan


def run_chaos(args) -> int:
    requests, plan = build_batch(args)
    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=max(args.count + 8, 16),
        deadline_s=args.deadline,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
        ),
        hedge_delay_s=args.hedge_delay,
        breaker_threshold=3,
        quarantine_dir=args.quarantine_dir or None,
    )
    stats_before = STATS.counter_values()
    with CompileService(config) as service:
        responses = service.process_batch(requests)
        # Poison resubmission: the breaker must now reject at admission.
        rejects = []
        for i in plan["poison"]:
            resubmit = CompileRequest(
                source=requests[i].source,
                filename=requests[i].filename,
                action=requests[i].action,
                mode=requests[i].mode,
                deadline_s=args.deadline,
                inject_faults=requests[i].inject_faults,
                fault_attempts=requests[i].fault_attempts,
            )
            rejects.append(service.submit(resubmit))
        service.drain()
        metrics_snapshot = service.metrics.snapshot()
    stats = STATS.delta_since(stats_before)

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    # -- zero lost requests: one terminal response per submission ------
    check(
        len(responses) == args.count,
        f"lost requests: {len(responses)}/{args.count} responses",
    )
    for i, response in enumerate(responses):
        check(
            response is not None and response.status,
            f"request {i} has no terminal response",
        )

    # -- transient faults absorbed -------------------------------------
    for category in ("clean", "kill", "hang"):
        for i in plan[category]:
            response = responses[i]
            check(
                response.ok,
                f"{category} request {i} not served: "
                f"{response.status} ({response.detail.splitlines()[0] if response.detail else ''})",
            )
    for i in plan["kill"] + plan["hang"]:
        check(
            responses[i].attempts >= 2,
            f"faulted request {i} resolved in "
            f"{responses[i].attempts} attempt(s) — fault not armed?",
        )

    # -- poison: breaker trip within threshold + quarantine ------------
    for i in plan["poison"]:
        response = responses[i]
        check(
            response.status == STATUS_CIRCUIT_OPEN,
            f"poison request {i} ended {response.status}, "
            "expected circuit-open",
        )
        check(
            response.attempts <= config.breaker_threshold,
            f"poison request {i} took {response.attempts} attempts, "
            f"breaker threshold is {config.breaker_threshold}",
        )
        if args.quarantine_dir:
            check(
                bool(response.reproducer_path),
                f"poison request {i} quarantined without a reproducer",
            )
    for i, reject in zip(plan["poison"], rejects):
        check(
            reject is not None
            and reject.status == STATUS_CIRCUIT_OPEN,
            f"poison resubmit {i} was not rejected at admission",
        )

    # -- statistics account for everything -----------------------------
    n_poison = len(plan["poison"])
    check(
        stats.get("service.requests", 0) == args.count + n_poison,
        f"service.requests={stats.get('service.requests')} != "
        f"{args.count + n_poison}",
    )
    check(
        stats.get("service.responses", 0) == args.count + n_poison,
        "service.responses != submissions: "
        f"{stats.get('service.responses')}",
    )
    check(
        stats.get("service.breaker-trips", 0) == n_poison,
        f"service.breaker-trips={stats.get('service.breaker-trips')} "
        f"!= poison count {n_poison}",
    )
    check(
        stats.get("service.quarantined", 0) == n_poison,
        f"service.quarantined={stats.get('service.quarantined')}",
    )
    check(
        stats.get("service.breaker-rejected", 0) == n_poison,
        f"service.breaker-rejected={stats.get('service.breaker-rejected')}",
    )
    check(
        stats.get("service.timeouts", 0) >= len(plan["hang"]),
        f"service.timeouts={stats.get('service.timeouts')} < "
        f"hangs {len(plan['hang'])}",
    )
    check(
        stats.get("service.worker-lost", 0) >= len(plan["kill"]),
        f"service.worker-lost={stats.get('service.worker-lost')} < "
        f"kills {len(plan['kill'])}",
    )
    check(
        stats.get("service.shed", 0) == 0,
        f"service.shed={stats.get('service.shed')} != 0 "
        "(queue sized for the batch)",
    )

    # -- metrics registry agrees with the ground truth -----------------
    # Every submission (batch + poison resubmits) must be observed in
    # the latency histogram exactly once — kills, hangs, and breaker
    # rejects included.  "requests in == sum of terminal statuses" is
    # the accounting identity the metrics export is trusted for.
    failures.extend(
        CompileService.ledger_problems(
            metrics_snapshot, args.count + n_poison
        )
    )
    breaker_opens = sum(
        row["value"]
        for row in metrics_snapshot[
            "service_breaker_transitions_total"
        ]["series"]
        if row["labels"].get("to") == "open"
    )
    check(
        breaker_opens == n_poison,
        f"breaker open transitions {breaker_opens} != poison "
        f"{n_poison}",
    )
    for row in sorted(
        metrics_snapshot["service_request_duration_seconds"]["series"],
        key=lambda r: r["labels"].get("outcome", ""),
    ):
        print(
            f"chaos: latency[{row['labels'].get('outcome')}]: "
            f"n={row['count']} p50={row['p50']}s p95={row['p95']}s "
            f"p99={row['p99']}s"
        )
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(metrics_snapshot, fh, indent=1)
            fh.write("\n")

    print(
        f"chaos: {args.count} requests "
        f"({len(plan['kill'])} kills, {len(plan['hang'])} hangs, "
        f"{n_poison} poison) on {args.workers} workers: "
        f"{sum(1 for r in responses if r.ok)} served, "
        f"{n_poison} quarantined, "
        f"{stats.get('service.retries', 0)} retries, "
        f"{stats.get('service.worker-restarts', 0)} worker restarts"
    )
    if args.print_stats or failures:
        print(render_stats(stats), file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos: all invariants hold")
    return 0


# ======================================================================
# Storage chaos: fault-armed shared disk cache + kill-and-restart
# ======================================================================

#: the deterministic I/O fault family inside the disk tier
_STORAGE_SITES = (
    "storage-write-torn",
    "storage-write-enospc",
    "storage-read-corrupt",
    "storage-rename-fail",
    "storage-fsync-fail",
)

#: distinct cacheable programs the storage campaign rotates through —
#: repetition is the point: later requests must be able to *hit* what
#: earlier (possibly torn) writes stored
_N_STORAGE_SOURCES = 8


def _storage_mode(src: int) -> str:
    return "irbuilder" if src % 2 else "shadow"


def _storage_request(
    src: int,
    deadline: float,
    faults: tuple[str, ...] = (),
    fault_attempts: int = 1,
    tag: str = " [storage]",
) -> CompileRequest:
    return CompileRequest(
        source=_make_source(src, tag),
        filename=f"storage-{src}.c",
        action="compile",
        mode=_storage_mode(src),
        deadline_s=deadline,
        inject_faults=faults,
        fault_attempts=fault_attempts,
    )


def _poison_request(p: int, deadline: float) -> CompileRequest:
    # Unique source per poison input -> distinct fingerprints, so each
    # trips (and persists) its own breaker.
    return CompileRequest(
        source=_make_source(900 + p, " [poison]"),
        filename=f"storage-poison-{p}.c",
        action="compile",
        mode="shadow",
        deadline_s=deadline,
        inject_faults=("service-worker",),
        fault_attempts=-1,
    )


def build_storage_phases(
    args,
) -> tuple[list, list, dict[str, list[int]], dict[str, list[int]]]:
    """Two request batches (before / after the restart) plus per-phase
    category index sets.

    Phase A opens with a clean warm-up covering every source (so the
    disk cache holds known-good entries before anything is torn), then
    interleaves storage-fault-armed requests, worker kills, and poison
    inputs.  Phase B — served by a *fresh* service on the same cache
    and state directories — replays the sources with cold memory tiers,
    arming ``storage-read-corrupt`` on the first visit to each source
    so corruption detection is exercised deterministically.
    """
    half = max(16, args.count // 2)
    phase_a: list[CompileRequest] = []
    plan_a: dict[str, list[int]] = {
        "clean": [],
        "storage": [],
        "kill": [],
        "poison": [],
    }
    warmup = max(_N_STORAGE_SOURCES, half // 4)
    poison_slots = {
        warmup + 1 + p * 3: p for p in range(args.poison)
    }
    for i in range(half):
        src = i % _N_STORAGE_SOURCES
        if i < warmup:
            phase_a.append(_storage_request(src, args.deadline))
            plan_a["clean"].append(i)
        elif i in poison_slots:
            phase_a.append(
                _poison_request(poison_slots[i], args.deadline)
            )
            plan_a["poison"].append(i)
        elif args.kill_every and i % args.kill_every == 0:
            # Unique tag (an IR-invisible comment) -> unique
            # fingerprint, so repeated kills are really executed
            # instead of replayed from the response cache.
            phase_a.append(
                _storage_request(
                    src,
                    args.deadline,
                    ("service-worker-exit",),
                    tag=f" [storage kill {i}]",
                )
            )
            plan_a["kill"].append(i)
        else:
            site = _STORAGE_SITES[i % len(_STORAGE_SITES)]
            phase_a.append(
                _storage_request(
                    src, args.deadline, (site,), fault_attempts=-1
                )
            )
            plan_a["storage"].append(i)

    rest = max(_N_STORAGE_SOURCES, args.count - half)
    phase_b: list[CompileRequest] = []
    plan_b: dict[str, list[int]] = {"clean": [], "read-corrupt": []}
    for j in range(rest):
        src = j % _N_STORAGE_SOURCES
        if j < _N_STORAGE_SOURCES:
            # First visit to each source after the restart: the memory
            # tiers are cold, so the disk read happens — and the armed
            # fault corrupts it in flight.  The tier must detect, heal,
            # and recompile; serving torn bytes would be the bug.
            phase_b.append(
                _storage_request(
                    src, args.deadline, ("storage-read-corrupt",)
                )
            )
            plan_b["read-corrupt"].append(j)
        else:
            phase_b.append(_storage_request(src, args.deadline))
            plan_b["clean"].append(j)
    return phase_a, phase_b, plan_a, plan_b


def run_storage_chaos(args) -> int:
    from repro.pipeline import execute_request

    phase_a, phase_b, plan_a, plan_b = build_storage_phases(args)
    n_poison = len(plan_a["poison"])

    # Uncached oracle: the byte-identity reference for every rotating
    # source, computed before any cache or fault is in play.
    oracle: dict[int, str] = {}
    for src in range(_N_STORAGE_SOURCES):
        outcome = execute_request(
            _make_source(src, " [storage]"),
            filename=f"storage-{src}.c",
            action="compile",
            mode=_storage_mode(src),
            cache=None,
        )
        if outcome.kind != "ok":
            print(
                f"chaos: oracle compile of source {src} failed: "
                f"{outcome.kind}",
                file=sys.stderr,
            )
            return 1
        oracle[src] = outcome.output

    metrics = MetricsRegistry()

    def config() -> ServiceConfig:
        return ServiceConfig(
            workers=args.workers,
            queue_capacity=max(args.count + 8, 16),
            deadline_s=args.deadline,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
            ),
            breaker_threshold=3,
            # Long cooldown: restored OPEN breakers must still be OPEN
            # when phase B resubmits the poison inputs.
            breaker_cooldown_s=600.0,
            quarantine_dir=args.quarantine_dir or None,
            enable_cache=True,
            cache_dir=args.cache_dir,
            cache_durable=args.durable,
            state_dir=args.state_dir,
            metrics=metrics,
        )

    stats_before = STATS.counter_values()

    # -- phase A: faulted traffic, then a *restart* --------------------
    with CompileService(config()) as service_a:
        responses_a = service_a.process_batch(phase_a)
    # service_a's shutdown snapshotted its breaker board + quarantine.

    snapshot_file = state_path(args.state_dir)
    mid_state = load_state(args.state_dir)

    # -- phase B: a fresh instance on the same cache + state dirs ------
    with CompileService(config()) as service_b:
        restored = dict(service_b.quarantined)
        responses_b = service_b.process_batch(phase_b)
        rejects = []
        for i in plan_a["poison"]:
            original = phase_a[i]
            rejects.append(
                service_b.submit(
                    CompileRequest(
                        source=original.source,
                        filename=original.filename,
                        action=original.action,
                        mode=original.mode,
                        deadline_s=args.deadline,
                        inject_faults=original.inject_faults,
                        fault_attempts=original.fault_attempts,
                    )
                )
            )
        service_b.drain()
        metrics_snapshot = service_b.metrics.snapshot()

    stats = STATS.delta_since(stats_before)

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    # -- zero lost requests across the restart -------------------------
    check(
        len(responses_a) == len(phase_a),
        f"phase A lost requests: {len(responses_a)}/{len(phase_a)}",
    )
    check(
        len(responses_b) == len(phase_b),
        f"phase B lost requests: {len(responses_b)}/{len(phase_b)}",
    )
    for tag, responses in (("A", responses_a), ("B", responses_b)):
        for i, response in enumerate(responses):
            check(
                response is not None and bool(response.status),
                f"phase {tag} request {i} has no terminal response",
            )

    # -- zero corrupt payloads served: byte-identity vs the oracle -----
    def check_output(tag: str, requests, responses, indices) -> None:
        for i in indices:
            response = responses[i]
            check(
                response.ok,
                f"phase {tag} request {i} not served: "
                f"{response.status}",
            )
            if not response.ok:
                continue
            src = int(requests[i].filename.split("-")[1].split(".")[0])
            check(
                response.output == oracle[src],
                f"phase {tag} request {i} served bytes that differ "
                f"from the uncached oracle for source {src} — "
                "corrupt payload escaped the integrity check",
            )

    check_output(
        "A",
        phase_a,
        responses_a,
        plan_a["clean"] + plan_a["storage"] + plan_a["kill"],
    )
    check_output(
        "B",
        phase_b,
        responses_b,
        plan_b["clean"] + plan_b["read-corrupt"],
    )
    for i in plan_a["kill"]:
        check(
            responses_a[i].attempts >= 2,
            f"kill request {i} resolved in "
            f"{responses_a[i].attempts} attempt(s) — fault not armed?",
        )

    # -- corruption was actually detected (not silently served) --------
    check(
        stats.get("cache.corrupt-entries", 0) > 0,
        "cache.corrupt-entries == 0: the campaign never detected "
        "corruption — the read-corrupt arm did not reach the disk tier",
    )

    # -- poison quarantine survives the restart ------------------------
    poison_fingerprints = {
        phase_a[i].fingerprint() for i in plan_a["poison"]
    }
    for i in plan_a["poison"]:
        check(
            responses_a[i].status == STATUS_CIRCUIT_OPEN,
            f"poison request {i} ended {responses_a[i].status}",
        )
    check(
        mid_state is not None,
        f"no usable state snapshot at {snapshot_file} after phase A",
    )
    if mid_state is not None:
        check(
            poison_fingerprints
            <= set(mid_state.quarantined.keys()),
            "phase A snapshot lost quarantined fingerprints",
        )
    check(
        poison_fingerprints <= set(restored.keys()),
        "restarted service did not restore the quarantine",
    )
    for i, reject in zip(plan_a["poison"], rejects):
        check(
            reject is not None
            and reject.status == STATUS_CIRCUIT_OPEN,
            f"poison resubmit {i} was not rejected after restart",
        )
        check(
            reject is not None and reject.attempts == 0,
            f"poison resubmit {i} burned {reject.attempts} worker "
            "attempt(s) — quarantine must reject without re-executing",
        )
    check(
        stats.get("service.quarantine-restored", 0) == n_poison,
        f"service.quarantine-restored="
        f"{stats.get('service.quarantine-restored')} != {n_poison}",
    )
    check(
        stats.get("service.state-restores", 0) >= 1,
        "restart never restored a state snapshot",
    )
    final_state = load_state(args.state_dir)
    check(
        final_state is not None
        and poison_fingerprints
        <= set(final_state.quarantined.keys()),
        "final state snapshot is unusable or lost the quarantine",
    )

    # -- metrics accounting is exact across both instances -------------
    submissions = len(phase_a) + len(phase_b) + n_poison
    check(
        stats.get("service.requests", 0) == submissions,
        f"service.requests={stats.get('service.requests')} != "
        f"{submissions}",
    )
    check(
        stats.get("service.responses", 0) == submissions,
        f"service.responses={stats.get('service.responses')} != "
        f"{submissions}",
    )
    failures.extend(
        CompileService.ledger_problems(metrics_snapshot, submissions)
    )

    if args.metrics_json:
        import json

        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(metrics_snapshot, fh, indent=1)
            fh.write("\n")

    served = sum(1 for r in responses_a if r.ok) + sum(
        1 for r in responses_b if r.ok
    )
    print(
        f"storage-chaos: {len(phase_a)}+{len(phase_b)} requests "
        f"({len(plan_a['storage'])} storage-faulted, "
        f"{len(plan_b['read-corrupt'])} read-corrupt, "
        f"{len(plan_a['kill'])} kills, {n_poison} poison) "
        f"across one restart: {served} served, "
        f"{stats.get('cache.corrupt-entries', 0)} corrupt entries "
        f"detected+healed, "
        f"{stats.get('cache.disk-disabled', 0)} disk degradations, "
        f"state snapshot at {snapshot_file}"
    )
    if args.print_stats or failures:
        print(render_stats(stats), file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"storage-chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("storage-chaos: all invariants hold")
    return 0


# ======================================================================
# Network chaos: the TCP front door under hostile clients
# ======================================================================

#: deterministic junk that contains no ``MAGIC`` byte sequence, so the
#: decoder's resync scan is exercised without accidentally framing
_GARBAGE = bytes([0x00, 0x01, 0x7F, 0xFE, 0xFD, 0x42, 0x03, 0xF0]) * 8


def _recv_events(sock, max_frame_bytes=None, timeout_s=5.0):
    """Read frames off *sock* until EOF or *timeout_s*; decoded events."""
    import socket as socketlib
    import time

    from repro.service.net.protocol import FrameDecoder

    decoder = (
        FrameDecoder(max_frame_bytes)
        if max_frame_bytes
        else FrameDecoder()
    )
    events: list = []
    sock.settimeout(timeout_s)
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline:
            data = sock.recv(65536)
            if not data:
                break
            events.extend(decoder.feed(data))
    except (socketlib.timeout, OSError):
        pass
    return events


def _sigterm_drain_scenario(args, check) -> None:
    """Spawn a real ``miniclang-serve --listen`` subprocess, serve one
    request over TCP, SIGTERM it, and assert the structured drain:
    exit code 0 and the ``drained`` banner."""
    import os as oslib
    import signal
    import subprocess
    import sys as syslib
    import tempfile
    import threading

    import repro
    from repro.service.net import NetClient

    src_root = oslib.path.dirname(
        oslib.path.dirname(oslib.path.abspath(repro.__file__))
    )
    env = dict(oslib.environ)
    env["PYTHONPATH"] = (
        src_root + oslib.pathsep + env.get("PYTHONPATH", "")
    )
    with tempfile.TemporaryDirectory(prefix="net-chaos-") as tmp:
        proc = subprocess.Popen(
            [
                syslib.executable,
                "-m",
                "repro.driver.serve",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--workers",
                "1",
                "--state-dir",
                oslib.path.join(tmp, "state"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner_box: list = []

            # The operational banner goes to stderr (stdout is
            # reserved for compile output).
            def read_banner() -> None:
                banner_box.append(proc.stderr.readline())

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=60.0)
            banner = banner_box[0] if banner_box else ""
            check(
                "listening on " in banner,
                f"serve subprocess printed no banner: {banner!r}",
            )
            if "listening on " not in banner:
                proc.kill()
                proc.wait(timeout=10)
                return
            address = banner.split("listening on ")[1].split(" ")[0]
            client = NetClient(address, deadline_s=30.0)
            response = client.request(
                CompileRequest(
                    source=_make_source(7, " [drain]"),
                    filename="net-drain.c",
                    action="run",
                    mode="shadow",
                    deadline_s=args.deadline,
                )
            )
            check(
                response.ok,
                "subprocess server did not serve the pre-drain "
                f"request: {response.status}",
            )
            proc.send_signal(signal.SIGTERM)
            try:
                stdout, stderr = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                check(False, "SIGTERM drain hung past 60s")
                return
            check(
                proc.returncode == 0,
                f"SIGTERM drain exited {proc.returncode}, expected 0 "
                f"(stderr: {stderr.strip()[:200]})",
            )
            check(
                "drained:" in stderr,
                "drain did not print the structured summary line",
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def run_net_chaos(args) -> int:
    """The ``--net`` campaign: an in-process sharded TCP server under
    concurrent well-behaved load *and* every misbehaving client the
    protocol defends against — disconnects mid-request, garbage bytes,
    truncated and half-written frames, oversized frames, slow loris,
    shard-worker kills — then the exact-accounting audit: zero lost
    requests, zero double-answered requests, requests admitted ==
    terminal responses on the merged shard ledgers.  Ends with a real
    ``miniclang-serve`` subprocess draining cleanly on SIGTERM."""
    import socket
    import struct
    import threading
    import time

    from repro.service.net import (
        DEFAULT_MAX_FRAME_BYTES,
        NetClient,
        NetServerConfig,
        NetServerThread,
    )
    from repro.service.net.protocol import (
        FrameError,
        encode_frame,
        ping_message,
        request_message,
    )

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    def net_request(index: int, faults=()) -> CompileRequest:
        return CompileRequest(
            source=_make_source(index, " [net]"),
            filename=f"net-{index}.c",
            action="run",
            mode="irbuilder" if index % 2 else "shadow",
            deadline_s=args.deadline,
            inject_faults=tuple(faults),
            fault_attempts=1,
        )

    shard_configs = [
        ServiceConfig(
            workers=args.workers,
            queue_capacity=max(args.count + 8, 16),
            deadline_s=args.deadline,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
            ),
            breaker_threshold=3,
            retain_responses=False,
        )
        for _ in range(args.shards)
    ]
    net_config = NetServerConfig(
        frame_timeout_s=1.0,
        idle_timeout_s=60.0,
        write_timeout_s=5.0,
        drain_deadline_s=10.0,
    )
    stats_before = STATS.counter_values()
    host = NetServerThread(shard_configs, net_config)
    host.start()
    address = host.address

    def raw_socket(timeout_s: float = 5.0) -> socket.socket:
        sock = socket.create_connection(address, timeout=timeout_s)
        sock.settimeout(timeout_s)
        return sock

    try:
        # -- health round ----------------------------------------------
        probe = NetClient(address, deadline_s=args.deadline)
        check(probe.ping(), "initial health ping failed")

        # -- well-behaved concurrent load (with shard-worker kills) ----
        per_client = max(2, args.count // max(1, args.clients))
        clients: list[NetClient] = []
        load: dict[int, list[tuple[bool, object]]] = {}

        def client_load(tag: int) -> None:
            client = NetClient(
                address,
                deadline_s=max(20.0, args.deadline * 4),
                retry=RetryPolicy(
                    max_attempts=3, base_delay_s=0.05, max_delay_s=0.5
                ),
            )
            clients.append(client)
            results = []
            for k in range(per_client):
                kill = bool(
                    args.kill_every and k % args.kill_every == 1
                )
                request = net_request(
                    tag * 10000 + k,
                    faults=("service-worker-exit",) if kill else (),
                )
                results.append((kill, client.request(request)))
            load[tag] = results

        threads = [
            threading.Thread(
                target=client_load, args=(tag,), daemon=True
            )
            for tag in range(args.clients)
        ]
        for thread in threads:
            thread.start()

        # -- client disconnect mid-request (RST before the answer) -----
        for i in range(2):
            sock = raw_socket()
            sock.sendall(
                encode_frame(
                    request_message(
                        f"gone{i:02d}",
                        net_request(20000 + i),
                        deadline_s=args.deadline,
                    )
                )
            )
            # SO_LINGER(0) turns close() into an immediate RST: the
            # server sees the connection die while the compile is still
            # in flight and must orphan the answer, not crash or lose
            # the ledger entry.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()

        # -- garbage bytes, then a valid frame: decoder must resync ----
        sock = raw_socket()
        sock.sendall(_GARBAGE + encode_frame(ping_message("after-junk")))
        events = _recv_events(sock, timeout_s=5.0)
        sock.close()
        check(
            any(
                isinstance(e, dict)
                and e.get("type") == "error"
                and e.get("code") == "bad-magic"
                for e in events
            ),
            f"garbage bytes drew no bad-magic error frame: {events!r}",
        )
        check(
            any(
                isinstance(e, dict)
                and e.get("type") == "pong"
                and e.get("id") == "after-junk"
                for e in events
            ),
            "server failed to resync to the valid frame after garbage",
        )

        # -- truncated frame, peer closes mid-frame --------------------
        frame = encode_frame(
            request_message(
                "trunc01", net_request(20100), deadline_s=args.deadline
            )
        )
        sock = raw_socket()
        sock.sendall(frame[: len(frame) // 2])
        sock.close()  # server reads EOF mid-frame; must just drop it

        # -- half-written frame, completed within the window -----------
        frame = encode_frame(
            request_message(
                "half01", net_request(20200), deadline_s=args.deadline
            )
        )
        sock = raw_socket(timeout_s=args.deadline + 10.0)
        sock.sendall(frame[:10])
        time.sleep(0.3)  # inside frame_timeout_s=1.0
        sock.sendall(frame[10:])
        events = _recv_events(sock, timeout_s=args.deadline + 10.0)
        sock.close()
        half_responses = [
            e
            for e in events
            if isinstance(e, dict)
            and e.get("type") == "response"
            and e.get("id") == "half01"
        ]
        check(
            len(half_responses) == 1
            and half_responses[0]["response"].get("status") == "ok",
            "half-written-then-completed frame was not served: "
            f"{events!r}",
        )

        # -- oversized frame: fatal structured error, not a crash ------
        sock = raw_socket()
        sock.sendall(
            struct.pack(
                ">2sBBI", b"MC", 1, 0, DEFAULT_MAX_FRAME_BYTES + 1
            )
        )
        events = _recv_events(sock, timeout_s=5.0)
        sock.close()
        check(
            any(
                isinstance(e, dict)
                and e.get("type") == "error"
                and e.get("code") == "oversized-frame"
                for e in events
            ),
            f"oversized frame drew no oversized-frame error: {events!r}",
        )

        # -- slow loris: start a frame, stall, get evicted -------------
        sock = raw_socket(timeout_s=net_config.frame_timeout_s + 5.0)
        sock.sendall(frame[:12])  # header + 4 payload bytes, then stall
        events = _recv_events(
            sock, timeout_s=net_config.frame_timeout_s + 5.0
        )
        sock.close()
        check(
            any(
                isinstance(e, dict)
                and e.get("type") == "error"
                and e.get("code") == "slow-client"
                for e in events
            ),
            f"slow-loris connection was not evicted: {events!r}",
        )

        for thread in threads:
            thread.join(timeout=120.0)
            check(not thread.is_alive(), "a load client thread hung")

        # -- the server survived all of it -----------------------------
        check(probe.ping(), "health ping failed after the campaign")
    finally:
        host.stop(drain_deadline_s=10.0)

    stats = STATS.delta_since(stats_before)
    merged = host.router.merged_metrics().snapshot()

    # -- zero lost, zero double-answered requests ----------------------
    expected_load = args.clients * per_client
    responses = [item for results in load.values() for item in results]
    check(
        len(responses) == expected_load,
        f"load lost requests: {len(responses)}/{expected_load}",
    )
    kills = 0
    for kill, response in responses:
        check(
            response is not None and bool(response.status),
            "a load request has no terminal response",
        )
        if response is None:
            continue
        check(
            response.ok,
            f"load request not served: {response.status} "
            f"({(response.detail or '').splitlines()[0] if response.detail else ''})",
        )
        if kill:
            kills += 1
            check(
                response.attempts >= 2,
                f"worker-kill request resolved in {response.attempts} "
                "attempt(s) — fault not armed?",
            )
    duplicates = sum(c.duplicate_responses for c in clients)
    duplicates += probe.duplicate_responses
    check(
        duplicates == 0,
        f"{duplicates} double-answered request frame(s) observed",
    )

    # -- exact accounting: admitted == terminal, sent + orphaned -------
    admitted = stats.get("net.requests", 0)
    sent = stats.get("net.responses-sent", 0)
    orphaned = stats.get("net.responses-orphaned", 0)
    check(admitted > 0, "no requests were admitted over the wire")
    check(
        admitted == sent + orphaned,
        f"wire ledger leak: {admitted} admitted != "
        f"{sent} sent + {orphaned} orphaned",
    )
    failures.extend(CompileService.ledger_problems(merged, admitted))
    routed = sum(
        row["value"] for row in merged["router_requests_total"]["series"]
    )
    check(
        routed == admitted,
        f"router_requests_total={routed} != admitted {admitted}",
    )
    if expected_load >= args.shards * 4:
        for row in merged["router_requests_total"]["series"]:
            check(
                row["value"] > 0,
                f"shard {row['labels'].get('shard')} never saw a "
                "request — least-depth routing is not spreading load",
            )
    for gauge in ("service_shard_queue_depth", "service_shard_in_flight"):
        for row in merged[gauge]["series"]:
            check(
                row["value"] == 0,
                f"{gauge}{{shard={row['labels'].get('shard')}}}="
                f"{row['value']} after drain, expected 0",
            )
    check(
        stats.get("net.slow-loris-evictions", 0) >= 1,
        "slow-loris eviction was not counted",
    )
    check(
        stats.get("net.frame-errors", 0) >= 2,
        f"net.frame-errors={stats.get('net.frame-errors')} < 2 "
        "(garbage + oversized)",
    )

    # -- structured SIGTERM drain of a real subprocess -----------------
    _sigterm_drain_scenario(args, check)

    if args.metrics_json:
        import json

        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")

    print(
        f"net-chaos: {expected_load} requests over TCP "
        f"({args.clients} clients, {args.shards} shards, "
        f"{kills} worker kills) + 2 disconnects, garbage, truncated, "
        f"half-written, oversized, slow-loris: "
        f"{admitted} admitted, {sent} answered, {orphaned} orphaned, "
        f"{duplicates} duplicates"
    )
    if args.print_stats or failures:
        print(render_stats(stats), file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"net-chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("net-chaos: all invariants hold")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="chaos/acceptance harness for the compile service",
    )
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument(
        "--kill-every",
        type=int,
        default=10,
        metavar="K",
        help="hard-kill the worker on the first attempt of every K-th "
        "request (0 = none)",
    )
    parser.add_argument(
        "--hang-every",
        type=int,
        default=0,
        metavar="M",
        help="hang the worker past the deadline on the first attempt "
        "of every M-th request (0 = none)",
    )
    parser.add_argument(
        "--poison",
        type=int,
        default=2,
        metavar="P",
        help="number of poison inputs (fail on every attempt)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--deadline", type=float, default=5.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--hedge-delay", type=float, default=None, metavar="SECONDS"
    )
    parser.add_argument(
        "--quarantine-dir", default="service-quarantine", metavar="DIR"
    )
    parser.add_argument(
        "--print-stats", action="store_true", dest="print_stats"
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        dest="metrics_json",
        metavar="FILE",
        help="write the service metrics snapshot (per-outcome latency "
        "histograms included) as JSON",
    )
    parser.add_argument(
        "--storage",
        action="store_true",
        help="run the storage campaign instead: fault-armed shared "
        "disk cache, mid-campaign service restart, durable "
        "quarantine; asserts zero corrupt payloads served",
    )
    parser.add_argument(
        "--cache-dir",
        default="storage-chaos-cache",
        dest="cache_dir",
        metavar="DIR",
        help="shared disk cache directory for --storage",
    )
    parser.add_argument(
        "--state-dir",
        default="storage-chaos-state",
        dest="state_dir",
        metavar="DIR",
        help="durable service state directory for --storage",
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="fsync cache writes before rename (-fcache-durable)",
    )
    parser.add_argument(
        "--net",
        action="store_true",
        help="run the network campaign instead: sharded TCP server "
        "under hostile clients (disconnects, garbage, truncated/"
        "half-written/oversized frames, slow loris, worker kills); "
        "asserts zero lost and zero double-answered requests plus "
        "a clean SIGTERM drain of a real serve subprocess",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker-pool shards behind the TCP server (--net)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent well-behaved load clients (--net)",
    )
    args = parser.parse_args(argv)
    if args.net:
        return run_net_chaos(args)
    if args.storage:
        return run_storage_chaos(args)
    return run_chaos(args)


if __name__ == "__main__":
    sys.exit(main())
