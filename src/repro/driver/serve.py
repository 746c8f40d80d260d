"""``miniclang-serve`` — batch front-end for the resilient compile
service.

Each input file becomes one :class:`~repro.service.CompileRequest`; the
batch is executed on a pool of isolated worker processes with per-attempt
wall-clock deadlines, retry with backoff, optional hedging, per-input
circuit breaking, bounded admission, and shadow-AST <-> IRBuilder
graceful degradation.  With ``-fcache[=DIR]`` terminal responses and
per-stage compile artifacts are memoized in a content-addressed cache
(workers share the disk tier), and concurrent identical requests
collapse onto one execution (single-flight; disable with
``--no-single-flight``).  Successful payloads (IR text or guest stdout) go
to stdout; one status line per request goes to stderr with stable tokens
for FileCheck::

    miniclang-serve: r00001 <file>: ok [shadow] attempts=1
    miniclang-serve: r00002 <file>: degraded (irbuilder->shadow) attempts=4
    miniclang-serve: r00003 <file>: circuit-open ... reproducer=...

The process exit code is the batch's worst outcome under the shared
severity policy (:mod:`repro.driver.exitcodes`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from typing import Callable

from repro.driver.exitcodes import (
    EXIT_ICE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNAVAILABLE,
    EXIT_USER_ERROR,
    worst_exit_code,
)
from repro.driver.options import (
    DEFAULT_CACHE_DIR,
    add_shared_flags,
    read_source,
    scan_f_flags,
    write_guest_output,
    write_report,
)
from repro.instrument.stats import STATS
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_ICE,
    STATUS_OK,
    STATUS_RESOURCE_EXHAUSTED,
    STATUS_TIMEOUT,
    CompileRequest,
    CompileResponse,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    other_mode,
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniclang-serve",
        description=(
            "execute a batch of compile/run requests on a resilient "
            "worker-pool service (isolation, deadlines, retry, circuit "
            "breaking, shadow<->IRBuilder degradation)"
        ),
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        metavar="input",
        help="C source file(s), '-' for stdin (omitted with --listen)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker pool size"
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="serve over TCP instead of executing an input batch: "
        "accept length-prefixed JSON frames, route across --shards "
        "worker pools, drain gracefully on SIGTERM (port 0 = pick a "
        "free port; the bound address is printed to stderr)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="with --listen: number of independent worker-pool shards "
        "(least-queue-depth routing, per-shard breaker boards)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="with --listen: concurrent-connection cap (excess "
        "connections get a retryable server-busy error frame)",
    )
    parser.add_argument(
        "--frame-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="with --listen: a started frame must finish arriving "
        "within this window (slow-loris eviction)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="with --listen: close connections idle this long",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-attempt wall-clock deadline (overrunning workers are "
        "killed and the attempt retried)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per representation after the first attempt",
    )
    parser.add_argument(
        "--hedge-delay",
        type=float,
        metavar="SECONDS",
        help="dispatch a duplicate attempt for stragglers after this "
        "many seconds (default: hedging off)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="bounded admission: requests over this unresolved load "
        f"are shed with exit code {EXIT_UNAVAILABLE}",
    )
    parser.add_argument(
        "--mode",
        choices=("shadow", "irbuilder"),
        default="shadow",
        help="requested representation (the other serves as the "
        "graceful-degradation fallback)",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the mid-end pass pipeline",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable representation fallback: persistent failures "
        "answer ice/timeout instead of degrading",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        dest="inject_faults",
        metavar="SITE[:N]",
        help="arm this fault spec inside workers (chaos testing); "
        "see miniclang -print-fault-sites",
    )
    parser.add_argument(
        "--fault-attempts",
        type=int,
        default=1,
        metavar="N",
        help="arm --inject-fault on the first N attempts only "
        "(-1 = every attempt, simulating a poison input)",
    )
    parser.add_argument(
        "--quarantine-dir",
        default=os.environ.get(
            "MINICLANG_QUARANTINE_DIR", "service-quarantine"
        ),
        metavar="DIR",
        help="where poison-input reproducers are written "
        "('' disables quarantine reproducers; default: "
        "$MINICLANG_QUARANTINE_DIR or service-quarantine)",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        help="persist the breaker board and poison-input quarantine "
        "here; a restart restores them (quarantined inputs are "
        "rejected without re-execution, aged breakers re-enter "
        "half-open probing)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: let in-flight requests finish this "
        "long before shedding the rest (second signal exits "
        "immediately)",
    )
    parser.add_argument(
        "--worker-max-requests",
        type=int,
        metavar="N",
        help="preemptively recycle each worker after N completed "
        "attempts (zero request loss; gunicorn-style max_requests)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="liveness-check idle workers this often (0 disables)",
    )
    # -fcache[=DIR] / -fno-cache / -fcache-durable and
    # -ftrace-requests[=DIR] are pulled out of argv before parsing
    # (repro.driver.options.scan_f_flags)
    add_shared_flags(parser)
    parser.add_argument(
        "--no-single-flight",
        action="store_true",
        help="do not coalesce concurrent identical requests onto one "
        "execution",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit one JSON response object per request to stdout "
        "instead of raw payloads",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="write the service metrics snapshot (counters, gauges, "
        "latency histograms with p50/p95/p99) as JSON",
    )
    parser.add_argument(
        "--metrics-prom",
        metavar="FILE",
        help="write the service metrics in Prometheus text exposition "
        "format",
    )
    parser.add_argument(
        "--log-jsonl",
        metavar="FILE",
        help="append one JSON line per request lifecycle event "
        "(submit/dispatch/retry/.../response), keyed by request and "
        "trace ids",
    )
    return parser


#: where ``-ftrace-requests`` without an explicit directory writes
DEFAULT_TRACE_DIR = "service-traces"


class _DrainSignals:
    """SIGTERM/SIGINT -> graceful drain (systemd-style stop protocol).

    First signal: *drain* is called with the drain deadline (admission
    closes, in-flight work gets the deadline, state is snapshotted, the
    process exits 0).  Second signal: immediate exit with the
    conventional ``128 + signum``.
    """

    def __init__(
        self, drain: Callable[[float], None], drain_deadline_s: float
    ) -> None:
        self.drain = drain
        self.drain_deadline_s = drain_deadline_s
        self.triggered = False
        self._previous: dict[int, object] = {}

    def _handle(self, signum, frame) -> None:
        if self.triggered:
            os._exit(128 + signum)
        self.triggered = True
        name = signal.Signals(signum).name
        print(
            f"miniclang-serve: {name} received: draining "
            f"(deadline {self.drain_deadline_s:.1f}s; send again to "
            "exit immediately)",
            file=sys.stderr,
            flush=True,
        )
        self.drain(self.drain_deadline_s)

    def __enter__(self) -> "_DrainSignals":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(
                    signum, self._handle
                )
            except (ValueError, OSError):  # pragma: no cover
                pass  # non-main thread / unsupported platform
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _status_line(name: str, request, response: CompileResponse) -> str:
    bits = [f"miniclang-serve: {response.request_id} {name}:"]
    if response.status == STATUS_DEGRADED:
        bits.append(
            f"degraded ({request.mode}->{other_mode(request.mode)})"
        )
    elif response.status == STATUS_OK:
        bits.append(f"ok [{response.mode_used}]")
    else:
        bits.append(response.status)
    bits.append(f"attempts={response.attempts}")
    if response.retries:
        bits.append(f"retries={response.retries}")
    if response.hedged:
        bits.append("hedged")
    if response.cache_hit:
        bits.append("cached")
    if response.coalesced:
        bits.append("coalesced")
    if response.exit_code not in (None, 0):
        bits.append(f"exit={response.exit_code}")
    if response.reproducer_path:
        bits.append(f"reproducer={response.reproducer_path}")
    return " ".join(bits)


def _response_exit_code(response: CompileResponse) -> int:
    """One response -> the exit code it contributes to the batch."""
    if response.status in (STATUS_OK, STATUS_DEGRADED):
        code = response.exit_code
        return int(code) & 0xFF if isinstance(code, int) else EXIT_OK
    if response.status == STATUS_ERROR:
        code = response.exit_code
        if isinstance(code, int) and code != 0:
            return int(code) & 0xFF
        return EXIT_USER_ERROR
    if response.status == STATUS_TIMEOUT:
        return EXIT_TIMEOUT
    if response.status == STATUS_RESOURCE_EXHAUSTED:
        return EXIT_UNAVAILABLE
    # ice and circuit-open (a quarantined input is a persistent
    # internal failure) both diagnose a compiler-side defect
    return EXIT_ICE


def _event_log(args):
    """The ``--log-jsonl`` sink as a context manager (None when off)."""
    from repro.instrument.telemetry import EventLog

    if args.log_jsonl:
        return EventLog(path=args.log_jsonl)
    return contextlib.nullcontext()


def _shard_configs(args, flags, event_log) -> list[ServiceConfig]:
    """The one args -> ServiceConfig mapping: one config per shard.

    With ``--listen`` every shard gets its own state subdirectory
    (independent breaker boards persist independently) and skips
    response retention (a long-lived server answers through the
    response hook, not the batch map).  A batch is one shard that keeps
    its state directly in ``--state-dir`` and retains its responses."""
    listen = args.listen is not None
    cache_dir = flags["cache"]
    trace_dir = flags["trace-requests"]
    return [
        ServiceConfig(
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            deadline_s=args.deadline,
            retry=RetryPolicy(max_attempts=1 + max(0, args.retries)),
            hedge_delay_s=args.hedge_delay,
            allow_degraded=not args.no_degrade,
            quarantine_dir=args.quarantine_dir or None,
            enable_cache=cache_dir is not None,
            cache_dir=cache_dir,
            cache_max_entries=args.cache_max_entries,
            cache_max_bytes=args.cache_max_bytes,
            cache_durable=bool(flags["cache-durable"]),
            single_flight=not args.no_single_flight,
            state_dir=(
                os.path.join(args.state_dir, f"shard-{index}")
                if listen and args.state_dir
                else args.state_dir
            ),
            drain_deadline_s=args.drain_timeout,
            worker_max_requests=args.worker_max_requests,
            heartbeat_interval_s=args.heartbeat_interval,
            trace_requests=trace_dir is not None,
            trace_dir=trace_dir,
            event_log=event_log,
            retain_responses=not listen,
        )
        for index in range(max(1, args.shards) if listen else 1)
    ]


def _run_server(args, flags) -> int:
    """``--listen`` mode: the TCP front door over a shard router, hosted
    by :class:`~repro.service.net.NetServerThread`.  Runs until a drain
    completes (SIGTERM/SIGINT; a second signal exits immediately) and
    exits 0 on a graceful drain."""
    from repro.service.net import (
        NetServerConfig,
        NetServerThread,
        parse_address,
    )

    try:
        host, port = parse_address(args.listen)
    except ValueError as err:
        print(f"miniclang-serve: error: {err}", file=sys.stderr)
        return EXIT_USER_ERROR
    stats_before = STATS.counter_values()
    with _event_log(args) as event_log:
        server = NetServerThread(
            _shard_configs(args, flags, event_log),
            NetServerConfig(
                host=host,
                port=port,
                max_connections=args.max_connections,
                frame_timeout_s=args.frame_timeout,
                idle_timeout_s=args.idle_timeout,
                drain_deadline_s=args.drain_timeout,
            ),
        )
        try:
            bound_host, bound_port = server.start()
        except RuntimeError as err:
            print(f"miniclang-serve: error: {err}", file=sys.stderr)
            return EXIT_USER_ERROR
        try:
            with _DrainSignals(server.request_drain, args.drain_timeout):
                print(
                    "miniclang-serve: listening on "
                    f"{bound_host}:{bound_port} "
                    f"({server.router.shard_count} shard(s), "
                    f"{args.workers} worker(s) each)",
                    file=sys.stderr,
                    flush=True,
                )
                drained = server.wait()
        finally:
            server.stop()
    if not drained:
        return EXIT_ICE
    metrics = server.router.merged_metrics()
    admitted = metrics.get("service_requests_total").value
    answered = sum(
        cell.value
        for _, cell in metrics.get("service_responses_total").series()
    )
    print(
        f"miniclang-serve: drained: {int(admitted)} request(s) "
        f"admitted, {int(answered)} terminal response(s), "
        "state snapshotted; exiting 0",
        file=sys.stderr,
    )
    write_report(args, stats_before, metrics, server.router.caches)
    # A graceful drain is a successful shutdown (systemd's clean-stop
    # contract) — the accounting line above is the audit trail.
    return EXIT_OK


def _run_batch(args, flags) -> int:
    """Batch mode: every input file is one request on one service."""
    requests: list[CompileRequest] = []
    names: list[str] = []
    read_errors = 0
    for input_path in args.inputs:
        try:
            source, filename = read_source(input_path)
        except (OSError, UnicodeDecodeError) as err:
            print(f"miniclang-serve: error: {err}", file=sys.stderr)
            read_errors += 1
            continue
        requests.append(
            CompileRequest(
                source=source,
                filename=filename,
                action="run" if args.run else "compile",
                mode=args.mode,
                optimize=args.optimize,
                num_threads=args.num_threads,
                entry=args.entry,
                fuel=args.fuel,
                deadline_s=args.deadline,
                allow_degraded=not args.no_degrade,
                inject_faults=tuple(args.inject_faults),
                fault_attempts=args.fault_attempts,
            )
        )
        names.append(filename)

    stats_before = STATS.counter_values()
    code = EXIT_USER_ERROR if read_errors else EXIT_OK
    with _event_log(args) as event_log:
        (config,) = _shard_configs(args, flags, event_log)
        with CompileService(config) as service, _DrainSignals(
            service.begin_drain, args.drain_timeout
        ) as drainer:
            responses = service.process_batch(requests)
    for name, request, response in zip(names, requests, responses):
        print(_status_line(name, request, response), file=sys.stderr)
        if response.status not in (STATUS_OK, STATUS_DEGRADED):
            detail = response.diagnostics or response.detail
            if detail:
                print(detail.rstrip("\n"), file=sys.stderr)
        if args.json_output:
            print(json.dumps(response.to_dict()))
        elif response.ok and response.output:
            if request.action == "run":
                write_guest_output(response.output)
            else:
                sys.stdout.write(response.output)
            if not response.output.endswith("\n"):
                sys.stdout.write("\n")
        code = worst_exit_code(code, _response_exit_code(response))
    if drainer.triggered:
        served = sum(1 for r in responses if r.ok)
        shed = sum(
            1
            for r in responses
            if r.status == STATUS_RESOURCE_EXHAUSTED
        )
        print(
            f"miniclang-serve: drained: {served} served, {shed} shed, "
            "state snapshotted; exiting 0",
            file=sys.stderr,
        )
        # A graceful drain is a *successful* shutdown: the shed work
        # got structured answers and the supervisor must not treat the
        # stop as a crash (systemd's clean-stop contract).
        code = EXIT_OK
    traces_written = service.tracer.written
    if flags["trace-requests"] is not None and traces_written:
        print(
            f"miniclang-serve: wrote {len(traces_written)} request "
            f"trace(s) to {flags['trace-requests']}",
            file=sys.stderr,
        )
    write_report(args, stats_before, service.metrics, (service.cache,))
    return code


def _register_worker_statistics() -> None:
    """Register the statistics only workers increment.

    The parent renders every statistic its workers ship back, but an
    owner module the parent never imported leaves its counters without
    a description (``loop-unroll - copies-made``).  Imported here, not
    at ``repro.service`` import time, so library users and the import
    cost of the service package do not pay for the mid-end and the
    OpenMP runtime."""
    import repro.midend  # noqa: F401
    import repro.runtime  # noqa: F401


def main(argv: list[str] | None = None) -> int:
    _register_worker_statistics()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, flags = scan_f_flags(
        argv,
        {
            "cache": DEFAULT_CACHE_DIR,
            "cache-durable": True,
            "trace-requests": DEFAULT_TRACE_DIR,
        },
        negatable=("cache",),
    )
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.listen is not None:
        if args.inputs:
            parser.error("--listen takes no input files")
        return _run_server(args, flags)
    if not args.inputs:
        parser.error("input files required (or --listen HOST:PORT)")
    return _run_batch(args, flags)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
