#!/usr/bin/env python3
"""Service load-test harness: ``PYTHONPATH=src python tools/service_bench.py``.

Replays mixed workloads through :class:`repro.service.CompileService`
and records what the *telemetry stack* reports — the latency histograms,
throughput, and shed/degraded rates come from the service's own metrics
registry, so the benchmark doubles as an end-to-end check that the
telemetry accounting is trustworthy under load.

Workload mixes (each runs on a fresh service + registry):

* **steady** — unique programs (perfbench's compile-corpus inputs of
  workload seed ``SEED``) at batch concurrency: the baseline latency
  profile;
* **cached** — the same sources replayed round after round with the
  response cache on: hot-path latency (``cached`` outcome) vs the cold
  first round;
* **faulted** — run requests of perfbench's run-kernels kernels under
  a chaos slice (worker kills, hangs, poison inputs) with fast retries:
  latency per terminal outcome under faults;
* **overload** — a burst several times the queue capacity: load
  shedding and the tail it protects.

``--smoke`` runs the first two mixes with small batches (the CI mode);
the default runs all four.  The report lands in ``BENCH_service.json``.
Sanity gates (always enforced): every mix must achieve nonzero
throughput, record a p99 for at least one latency outcome, and lose
zero requests (submissions == terminal responses, both in the python
objects and in the metrics registry).

Usage::

    PYTHONPATH=src python tools/service_bench.py \
        [--smoke] [--batch 24] [--rounds 3] [--duration 30] \
        [--concurrency 2] [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.append(os.path.join(REPO_ROOT, "perfbench"))

from repro.service import (  # noqa: E402
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
)
import inputs  # noqa: E402
from stats import median, percentile  # noqa: E402

#: workload seed of the corpus and the kernels
SEED = 1


@functools.cache
def _sources(n: int) -> list[inputs.CorpusInput]:
    """The first *n* compile-corpus inputs, cycling when *n* exceeds
    the corpus."""
    corpus = inputs.compile_corpus(REPO_ROOT, SEED)
    return [corpus[i % len(corpus)] for i in range(n)]


def _steady_batch(args, round_index: int) -> list[CompileRequest]:
    batch = []
    for i, item in enumerate(_sources(args.batch)):
        batch.append(
            CompileRequest(
                # Unique per (round, slot): no coalescing, no cache.
                source=f"// steady r{round_index} i{i}\n" + item.source,
                filename=f"{item.name}#r{round_index}.{i}",
                mode="irbuilder" if i % 2 else "shadow",
            )
        )
    return batch


def _cached_batch(args, round_index: int) -> list[CompileRequest]:
    return [
        CompileRequest(
            # Identical across rounds: round 0 populates the response
            # cache, later rounds replay from it.
            source=item.source,
            filename=item.name,
        )
        for item in _sources(args.batch)
    ]


def _faulted_batch(args, round_index: int) -> list[CompileRequest]:
    kernels = inputs.kernels(SEED)
    batch = []
    for i in range(args.batch):
        faults: tuple[str, ...] = ()
        fault_attempts = 1
        if i % 8 == 1:
            faults = ("service-worker-exit",)
        elif i % 8 == 3:
            faults = ("service-worker-hang",)
        elif i % 8 == 5:
            faults = ("service-worker",)
            fault_attempts = -1  # poison: fails on every attempt
        batch.append(
            CompileRequest(
                # Unique per (round, slot): no coalescing.
                source=f"// faulted r{round_index} i{i}\n"
                + kernels[i % len(kernels)].source,
                filename=f"faulted-{round_index}.{i}.c",
                action="run",
                mode="irbuilder" if i % 2 else "shadow",
                deadline_s=3.0,
                inject_faults=faults,
                fault_attempts=fault_attempts,
            )
        )
    return batch


def _overload_batch(args, round_index: int) -> list[CompileRequest]:
    return [
        CompileRequest(
            source=f"// burst r{round_index} i{i}\n" + item.source,
            filename=f"burst-{round_index}.{i}.c",
        )
        # A burst several times the overload queue capacity.
        for i, item in enumerate(_sources(args.batch * 4))
    ]


def _mix_config(name: str, args, scratch: str) -> ServiceConfig:
    common = dict(
        workers=args.concurrency,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
        ),
        quarantine_dir=None,
    )
    if name == "steady":
        return ServiceConfig(queue_capacity=args.batch * 8, **common)
    if name == "cached":
        return ServiceConfig(
            queue_capacity=args.batch * 8,
            enable_cache=True,
            cache_dir=os.path.join(scratch, "cache"),
            **common,
        )
    if name == "faulted":
        return ServiceConfig(
            queue_capacity=args.batch * 8,
            deadline_s=3.0,
            breaker_threshold=3,
            **common,
        )
    if name == "overload":
        # Deliberately too small for the burst: sheds are the point.
        return ServiceConfig(
            queue_capacity=max(4, args.batch), **common
        )
    raise ValueError(f"unknown mix {name!r}")


_MIX_BUILDERS = {
    "steady": _steady_batch,
    "cached": _cached_batch,
    "faulted": _faulted_batch,
    "overload": _overload_batch,
}


def _latency_table(snapshot: dict, metric: str) -> dict:
    table = {}
    for row in snapshot.get(metric, {}).get("series", []):
        outcome = row["labels"].get("outcome", "")
        table[outcome or "_"] = {
            "count": row["count"],
            "p50_s": row["p50"],
            "p95_s": row["p95"],
            "p99_s": row["p99"],
            "mean_s": round(row["sum"] / max(row["count"], 1), 6),
        }
    return table


def run_mix(name: str, args, scratch: str) -> tuple[dict, dict]:
    """Run one workload mix to its duration/round budget; returns the
    report of what the metrics registry observed and its snapshot."""
    build = _MIX_BUILDERS[name]
    config = _mix_config(name, args, scratch)
    submitted = 0
    answered = 0
    statuses: dict[str, int] = {}
    rounds = 0
    started = time.perf_counter()
    with CompileService(config) as service:
        while rounds < args.rounds:
            batch = build(args, rounds)
            responses = service.process_batch(batch)
            submitted += len(batch)
            answered += sum(
                1 for r in responses if r is not None and r.status
            )
            for r in responses:
                statuses[r.status] = statuses.get(r.status, 0) + 1
            rounds += 1
            if time.perf_counter() - started >= args.duration:
                break
        wall_s = time.perf_counter() - started
        snapshot = service.metrics.snapshot()
    requests_in = snapshot["service_requests_total"]["series"][0][
        "value"
    ]
    responses_out = sum(
        row["value"]
        for row in snapshot["service_responses_total"]["series"]
    )
    latency = _latency_table(
        snapshot, "service_request_duration_seconds"
    )
    total = max(submitted, 1)
    report = {
        "rounds": rounds,
        "requests": submitted,
        "responses": answered,
        "lost": submitted - answered,
        "metrics_requests_in": requests_in,
        "metrics_responses_out": responses_out,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(submitted / max(wall_s, 1e-9), 2),
        "statuses": dict(sorted(statuses.items())),
        "rates": {
            "shed": round(
                statuses.get("resource-exhausted", 0) / total, 4
            ),
            "degraded": round(statuses.get("degraded", 0) / total, 4),
            "error": round(statuses.get("error", 0) / total, 4),
            "circuit_open": round(
                statuses.get("circuit-open", 0) / total, 4
            ),
        },
        "latency_by_outcome": latency,
        "queue_wait": _latency_table(
            snapshot, "service_queue_wait_seconds"
        ),
    }
    return report, snapshot


# ----------------------------------------------------------------------
# Transport comparison: the same client-side workload through the
# in-process shard router vs over TCP (NetServerThread + NetClient).
# With both transports selected they run at once and each client sends
# every request through both, one after the other, alternating which
# goes first, so the two samples of a pair see the same machine load and
# the ratio of their medians reads the transport, not the scheduler.
# Latencies here are *exact* client-wall statistics (perfbench's median
# and nearest-rank percentile of per-request wall times), not bucketed
# histogram quantiles — the 2x-overhead gate needs more resolution than
# log-spaced buckets give.
# ----------------------------------------------------------------------

TRANSPORT_MIXES = ("steady", "cached")

#: the acceptance gate: steady-state p50 over TCP must stay within
#: this factor of the in-process p50
TCP_P50_FACTOR = 2.0


def _transport_configs(
    mix: str, transport: str, args, scratch: str
) -> list[ServiceConfig]:
    common = dict(
        workers=args.concurrency,
        queue_capacity=args.batch * 8,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
        ),
        quarantine_dir=None,
        retain_responses=False,
    )
    if mix == "cached":
        return [
            ServiceConfig(
                enable_cache=True,
                cache_dir=os.path.join(
                    scratch, f"{transport}-{mix}-cache-{i}"
                ),
                **common,
            )
            for i in range(args.shards)
        ]
    return [ServiceConfig(**common) for _ in range(args.shards)]


def run_transport_mix(
    transports: list[str], mix: str, args, scratch: str
) -> dict[str, tuple[dict, dict]]:
    """One workload mix through each of *transports* at once, every
    request sent through each transport in turn; per transport, exact
    client-side wall latencies plus the merged shard-ledger accounting,
    and the merged metrics snapshot."""
    import threading

    from repro.service.net import (
        NetClient,
        NetServerConfig,
        NetServerThread,
        ShardRouter,
    )

    per_client = max(4, args.batch // max(1, args.clients))
    sources = _sources(per_client)
    # cached needs a cold round to populate before the timed rounds
    rounds = max(2, args.rounds) if mix == "cached" else 1

    endpoints = {}
    for transport in transports:
        configs = _transport_configs(mix, transport, args, scratch)
        if transport == "tcp":
            host = NetServerThread(configs, NetServerConfig())
            host.start()
            endpoints[transport] = host
        else:
            endpoints[transport] = ShardRouter(configs).start()

    durations: dict[str, list[float]] = {t: [] for t in transports}
    statuses: dict[str, dict[str, int]] = {t: {} for t in transports}
    duplicates = 0
    lock = threading.Lock()

    def build_request(transport: str, tag: int, k: int) -> CompileRequest:
        name, source = sources[k].name, sources[k].source
        if mix == "steady":
            # Unique per (transport, client, slot): no cache, no
            # coalescing — every request does the full pipeline.
            source = f"// {transport} t{tag} k{k}\n" + source
            name = f"{name}#{transport}.{tag}.{k}"
        return CompileRequest(
            source=source,
            filename=name,
            mode="irbuilder" if k % 2 else "shadow",
        )

    def submit_inproc(router, request: CompileRequest):
        done = threading.Event()
        box: list = []

        def callback(response) -> None:
            box.append(response)
            done.set()

        router.submit(request, callback)
        done.wait(timeout=120.0)
        return box[0] if box else None

    def worker(tag: int) -> None:
        nonlocal duplicates
        clients = []
        senders = {}
        for transport in transports:
            if transport == "tcp":
                client = NetClient(
                    endpoints[transport].address, deadline_s=60.0
                )
                clients.append(client)
                senders[transport] = client.request
            else:
                senders[transport] = functools.partial(
                    submit_inproc, endpoints[transport]
                )
        local = {t: [] for t in transports}
        local_statuses: dict[str, dict[str, int]] = {
            t: {} for t in transports
        }
        for rnd in range(rounds):
            for k in range(per_client):
                # Alternate which transport goes first in a pair.
                order = transports if (tag + k) % 2 else transports[::-1]
                for transport in order:
                    request = build_request(transport, tag, k)
                    t0 = time.perf_counter()
                    response = senders[transport](request)
                    elapsed = time.perf_counter() - t0
                    status = (
                        response.status
                        if response is not None
                        else "lost"
                    )
                    # cached: time only the warm rounds
                    if mix != "cached" or rnd > 0:
                        local[transport].append(elapsed)
                    counts = local_statuses[transport]
                    counts[status] = counts.get(status, 0) + 1
        with lock:
            for transport in transports:
                durations[transport].extend(local[transport])
                for status, n in local_statuses[transport].items():
                    statuses[transport][status] = (
                        statuses[transport].get(status, 0) + n
                    )
            duplicates += sum(c.duplicate_responses for c in clients)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(tag,), daemon=True)
        for tag in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    issued = args.clients * per_client * rounds
    results = {}
    for transport, endpoint in endpoints.items():
        if transport == "tcp":
            endpoint.stop(drain_deadline_s=10.0)
            merged = endpoint.router.merged_metrics().snapshot()
        else:
            endpoint.shutdown()
            merged = endpoint.merged_metrics().snapshot()
        requests_in = merged["service_requests_total"]["series"][0][
            "value"
        ]
        responses_out = sum(
            row["value"]
            for row in merged["service_responses_total"]["series"]
        )
        samples = durations[transport]
        latency = {
            "count": 0, "p50_s": 0.0, "p95_s": 0.0, "mean_s": 0.0
        }
        if samples:
            latency.update(
                count=len(samples),
                p50_s=round(median(samples), 6),
                p95_s=round(percentile(samples, 95), 6),
                mean_s=round(sum(samples) / len(samples), 6),
                max_s=round(max(samples), 6),
            )
        report = {
            "transport": transport,
            "shards": args.shards,
            "clients": args.clients,
            "requests": issued,
            # wall clock and throughput of the whole run, which every
            # transport in it shares
            "wall_s": round(wall_s, 4),
            "throughput_rps": round(issued / max(wall_s, 1e-9), 2),
            "statuses": dict(sorted(statuses[transport].items())),
            # only the TCP clients can see a second answer
            "duplicate_responses": duplicates if transport == "tcp" else 0,
            "metrics_requests_in": requests_in,
            "metrics_responses_out": responses_out,
            "client_wall_latency": latency,
        }
        results[transport] = (report, merged)
    return results


def _check_transport_mix(
    transport: str, mix: str, report: dict, merged: dict
) -> list[str]:
    problems = []
    label = f"{transport}/{mix}"
    if report["statuses"].get("lost", 0):
        problems.append(
            f"{label}: {report['statuses']['lost']} lost request(s)"
        )
    if report["statuses"].get("ok", 0) != report["requests"]:
        problems.append(
            f"{label}: not every request ok: {report['statuses']}"
        )
    if report["duplicate_responses"]:
        problems.append(
            f"{label}: {report['duplicate_responses']} "
            "double-answered request(s)"
        )
    problems.extend(
        f"{label}: merged ledger broken: {problem}"
        for problem in CompileService.ledger_problems(
            merged, report["requests"]
        )
    )
    if report["client_wall_latency"]["count"] == 0:
        problems.append(f"{label}: no latency samples")
    return problems


def _check_mix(name: str, report: dict, snapshot: dict) -> list[str]:
    """The sanity gates every mix must pass."""
    problems = []
    if report["throughput_rps"] <= 0:
        problems.append(f"{name}: zero throughput")
    if report["lost"] != 0:
        problems.append(f"{name}: lost {report['lost']} request(s)")
    problems.extend(
        f"{name}: metrics accounting broken: {problem}"
        for problem in CompileService.ledger_problems(
            snapshot, report["requests"]
        )
    )
    if not any(
        row["count"] > 0 and row["p99_s"] > 0
        for row in report["latency_by_outcome"].values()
    ):
        problems.append(f"{name}: no p99 recorded")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="service_bench",
        description="load-test the compile service and record what "
        "its telemetry reports",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: steady + cached mixes only, small batches",
    )
    parser.add_argument("--batch", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-mix wall-clock budget (stops after the round that "
        "crosses it)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="worker pool size per mix",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--transport",
        choices=("both", "inproc", "tcp", "none"),
        default="both",
        help="also run the steady+cached mixes through the shard "
        "router in-process and/or over TCP, recording exact "
        "client-wall medians; 'both' sends every request through "
        "each, in turn (default: both; 'none' skips)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for the transport comparison",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent clients for the transport comparison",
    )
    parser.add_argument(
        "--mixes",
        default=None,
        help="comma-separated subset of "
        + "/".join(_MIX_BUILDERS),
    )
    args = parser.parse_args(argv)

    if args.mixes:
        mix_names = [m.strip() for m in args.mixes.split(",") if m.strip()]
        unknown = set(mix_names) - set(_MIX_BUILDERS)
        if unknown:
            parser.error(f"unknown mixes: {sorted(unknown)}")
    elif args.smoke:
        mix_names = ["steady", "cached"]
        args.batch = min(args.batch, 8)
        args.rounds = min(args.rounds, 2)
    else:
        mix_names = list(_MIX_BUILDERS)

    scratch = tempfile.mkdtemp(prefix="miniclang-service-bench-")
    mixes: dict[str, dict] = {}
    problems: list[str] = []
    try:
        for name in mix_names:
            report, snapshot = run_mix(name, args, scratch)
            mixes[name] = report
            problems.extend(_check_mix(name, report, snapshot))
            ok_n = report["statuses"].get("ok", 0)
            print(
                f"service-bench: {name}: {report['requests']} reqs in "
                f"{report['wall_s']}s ({report['throughput_rps']} rps) "
                f"| ok={ok_n} shed={report['rates']['shed']:.0%} "
                f"degraded={report['rates']['degraded']:.0%} | "
                + " ".join(
                    f"{o}:p99={row['p99_s']}s"
                    for o, row in sorted(
                        report["latency_by_outcome"].items()
                    )
                )
            )
        transport_names = {
            "both": ["inproc", "tcp"],
            "none": [],
        }.get(args.transport, [args.transport])
        transports: dict[str, dict] = {t: {} for t in transport_names}
        if transport_names:
            for mix in TRANSPORT_MIXES:
                results = run_transport_mix(
                    transport_names, mix, args, scratch
                )
                for transport, (t_report, merged) in results.items():
                    transports[transport][mix] = t_report
                    problems.extend(
                        _check_transport_mix(
                            transport, mix, t_report, merged
                        )
                    )
                    lat = t_report["client_wall_latency"]
                    print(
                        f"service-bench: transport {transport}/{mix}: "
                        f"{t_report['requests']} reqs "
                        f"({t_report['throughput_rps']} rps) | "
                        f"p50={lat['p50_s']}s p95={lat['p95_s']}s "
                        f"(exact, n={lat['count']})"
                    )
        if "inproc" in transports and "tcp" in transports:
            inproc_p50 = transports["inproc"]["steady"][
                "client_wall_latency"
            ]["p50_s"]
            tcp_p50 = transports["tcp"]["steady"][
                "client_wall_latency"
            ]["p50_s"]
            ratio = round(tcp_p50 / max(inproc_p50, 1e-9), 3)
            transports["tcp_over_inproc_steady_p50"] = ratio
            print(
                f"service-bench: tcp/inproc steady p50 ratio: {ratio} "
                f"(gate: <= {TCP_P50_FACTOR})"
            )
            if tcp_p50 > TCP_P50_FACTOR * inproc_p50:
                problems.append(
                    f"tcp steady p50 {tcp_p50}s exceeds "
                    f"{TCP_P50_FACTOR}x in-process {inproc_p50}s"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "tool": "service_bench",
        "smoke": bool(args.smoke),
        "concurrency": args.concurrency,
        "batch": args.batch,
        "rounds": args.rounds,
        "mixes": mixes,
        "transports": transports,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"service-bench: wrote {args.out}")
    if problems:
        for problem in problems:
            print(f"service-bench: FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
