"""The three workloads, each in an untraced form (end-to-end metrics)
and a traced form (per-layer metrics).

Every operation's latency is kept as a sample; outputs are checked
against references computed off the timed path, and every mismatch,
non-ok status or lost answer counts as a failed operation.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field

import checks
import inputs
from calibrate import Probe
from stats import geomean, median, summary, tail
from spans import (
    FRONTEND_PREFIXES,
    MIDEND_PASSES,
    Tracer,
    layer_spans,
    staged_compile,
)

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPS = 5

#: serve-edit-mix: closed-loop editors (one TCP client thread each)
CLIENTS = 2

#: serve-edit-mix: requests generated per editor (more than a run uses)
STREAM_LENGTH = 4000

#: serve-edit-mix: the first round fixes how many requests each editor
#: sends; later rounds replay exactly those on a fresh server
ROUNDS = 8

#: give-up time for one closed-loop drive
DRIVE_TIMEOUT_S = 120.0

#: module name of every served and replayed edit
EDIT_FILENAME = "edit.c"


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float
    import_s: float


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable report lines
    report: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self, text: str) -> None:
        self.report.append(text)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(ctx: Context, make, discard=None):
    """Run the set-up *make* ``SETUP_REPS`` times; keep the last product
    and report the import time plus the median repetition."""
    times = []
    product = None
    for rep in range(SETUP_REPS):
        if product is not None and discard is not None:
            discard(product)
        start = time.perf_counter()
        product = make()
        times.append(time.perf_counter() - start)
    return product, ctx.import_s + median(times)


def _end_to_end(
    res: Result,
    probe: Probe,
    setup_s: float,
    p50_s: float,
    tail_s: float,
    ops_per_s: float,
    rss_mb: float,
) -> None:
    """The gated metrics.  Latencies and throughput are given in units
    of the machine-speed probe's fastest time, which cancels the shared
    machine's state; the raw figures are printed beside them."""
    unit = probe.best_s
    res.metric("setup_s", setup_s, "s")
    res.metric("op_cost.p50", p50_s / unit, "probe")
    res.metric("op_cost.tail", tail_s / unit, "probe")
    res.metric("ops_per_probe", ops_per_s * unit, "1/probe")
    res.metric("peak_rss_mb", rss_mb, "MiB")
    res.line(
        f"raw: op_ms.p50 = {p50_s * 1e3:.3f} ms, op_ms.tail = "
        f"{tail_s * 1e3:.3f} ms, ops_per_s = {ops_per_s:.3f} 1/s; probe "
        f"fastest {unit * 1e3:.4f} ms of {probe.samples} samples"
    )


def _latency_line(res: Result, name: str, samples: list[float]) -> None:
    s = summary(samples)
    res.line(
        f"{name}.p50 = {s['p50'] * 1e3:.3f} ms, "
        f"{name}.p{s['tail_level']:g} = {s['tail'] * 1e3:.3f} ms "
        f"(n = {s['n']})"
    )


# ----------------------------------------------------------------------
# compile-corpus
# ----------------------------------------------------------------------


def _corpus_setup(ctx: Context) -> list[inputs.CorpusInput]:
    from repro.pipeline import execute_request

    corpus = inputs.compile_corpus(ctx.root, ctx.seed)
    for entry in corpus[:2]:
        for mode, optimize in inputs.CONFIGS:
            execute_request(
                entry.source, action="compile", mode=mode, optimize=optimize
            )
    return corpus


def _corpus_ops(corpus, seed: int):
    """Endless shuffled passes over input x configuration."""
    ops = [(e, m, o) for e in corpus for m, o in inputs.CONFIGS]
    rng = random.Random(f"corpus-order:{seed}")
    while True:
        rng.shuffle(ops)
        yield from ops


def compile_corpus(ctx: Context, res: Result) -> None:
    from repro.pipeline import compile_source, execute_request
    from repro.midend import default_pass_pipeline
    from repro.ir.printer import print_module

    corpus, setup_s = _timed_setup(ctx, lambda: _corpus_setup(ctx))
    probe = Probe()
    first: dict = {}
    best: dict = {}
    samples: list[float] = []
    start = time.perf_counter()
    deadline = start + ctx.seconds
    for entry, mode, optimize in _corpus_ops(corpus, ctx.seed):
        if time.perf_counter() >= deadline:
            break
        if res.attempted % 8 == 0:
            probe.sample()
        t0 = time.perf_counter()
        out = execute_request(
            entry.source, action="compile", mode=mode, optimize=optimize
        )
        dt = time.perf_counter() - t0
        res.attempted += 1
        if not out.ok:
            res.fail(f"{entry.name} [{mode} O{int(optimize)}]: {out.kind}")
            continue
        samples.append(dt)
        key = (entry.name, mode, optimize)
        best[key] = min(dt, best.get(key, dt))
        reference = first.setdefault(key, out.output)
        problem = checks.ir_mismatch(out.output, reference)
        if problem:
            res.fail(f"{entry.name} [{mode}] not deterministic: {problem}")
    elapsed = time.perf_counter() - start
    rss = _self_peak_rss_mb()

    # Untimed: execute a sample of generated programs' modules from both
    # representations and compare with the generator's prediction.
    generated = [e for e in corpus if e.expected_stdout is not None]
    sample = random.Random(f"corpus-check:{ctx.seed}").sample(
        generated, min(12, len(generated))
    )
    for entry in sample:
        for mode, optimize in inputs.CONFIGS:
            key = (entry.name, mode, optimize)
            if key not in first:
                continue
            result = compile_source(
                entry.source,
                filename="<request>",
                enable_irbuilder=mode == "irbuilder",
            )
            if optimize:
                default_pass_pipeline().run(result.module)
            problem = checks.ir_mismatch(
                print_module(result.module), first[key]
            )
            stdout, code = checks.run_module(result.module)
            problem = problem or checks.stdout_mismatch(
                stdout, entry.expected_stdout, code
            )
            if problem:
                res.fail(f"{entry.name} [{mode} O{int(optimize)}]: {problem}")

    ir_insts = sum(
        checks.ir_instructions(text)
        for (name, mode, optimize), text in first.items()
        if optimize
    )
    fastest = list(best.values())
    _end_to_end(
        res,
        probe,
        setup_s,
        median(fastest),
        tail(fastest)[1],
        len(fastest) / sum(fastest),
        rss,
    )
    res.line(
        f"corpus: {len(corpus)} inputs x {len(inputs.CONFIGS)} configs; "
        f"{len(best)} compiles timed {len(samples) / len(best):.1f}x each"
    )
    _latency_line(res, "compile_ms (fastest repeat per compile)", fastest)
    _latency_line(res, "compile_ms (every sample)", samples)
    res.line(
        f"compile_per_s = {len(samples) / elapsed:.2f} 1/s "
        "(single thread, every sample)"
    )
    res.line(f"ir_insts = {ir_insts} count (O1, both representations)")


# ----------------------------------------------------------------------
# run-kernels
# ----------------------------------------------------------------------


def _kernel_setup(ctx: Context) -> list[inputs.Kernel]:
    from repro.pipeline import execute_request

    kernels = inputs.kernels(ctx.seed)
    for k in kernels:
        execute_request(
            k.source,
            action="run",
            optimize=True,
            num_threads=k.num_threads,
        )
    return kernels


def run_kernels(ctx: Context, res: Result) -> None:
    from repro.pipeline import execute_request, run_source

    kernels, setup_s = _timed_setup(ctx, lambda: _kernel_setup(ctx))
    per_kernel: dict[str, list[float]] = {k.name: [] for k in kernels}
    probe = Probe()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    runs = 0
    # Whole passes only, so every kernel is sampled equally often.
    while time.perf_counter() < deadline:
        for k in kernels:
            probe.sample()
            t0 = time.perf_counter()
            out = execute_request(
                k.source,
                action="run",
                optimize=True,
                num_threads=k.num_threads,
            )
            dt = time.perf_counter() - t0
            res.attempted += 1
            problem = (
                checks.stdout_mismatch(
                    out.output, k.expected_stdout, out.exit_code
                )
                if out.ok
                else out.kind
            )
            if problem:
                res.fail(f"{k.name}: {problem}")
                continue
            per_kernel[k.name].append(dt)
            runs += 1
    elapsed = time.perf_counter() - start
    rss = _self_peak_rss_mb()

    retired = {}
    for k in kernels:
        rr = run_source(k.source, optimize=True, num_threads=k.num_threads)
        retired[k.name] = rr.instruction_count
        problem = checks.stdout_mismatch(rr.stdout, k.expected_stdout)
        if problem:
            res.fail(f"{k.name} (untimed check): {problem}")

    fastest = [min(per_kernel[k.name]) for k in kernels]
    medians = [median(per_kernel[k.name]) for k in kernels]
    # Six kernels are too few for a percentile over kernels: the tail
    # is the slowest kernel.
    _end_to_end(
        res,
        probe,
        setup_s,
        geomean(fastest),
        max(fastest),
        len(fastest) / sum(fastest),
        rss,
    )
    res.line(
        f"kernel_ms.geomean = {geomean(fastest) * 1e3:.3f} ms "
        f"(fastest repeat per kernel); {geomean(medians) * 1e3:.3f} ms "
        "(median per kernel)"
    )
    for k in kernels:
        s = summary(per_kernel[k.name])
        res.line(
            f"kernel {k.name}: fastest {min(per_kernel[k.name]) * 1e3:.3f} "
            f"ms, p50 {s['p50'] * 1e3:.3f} ms, "
            f"p{s['tail_level']:g} {s['tail'] * 1e3:.3f} ms (n = {s['n']}), "
            f"retired {retired[k.name]} insts"
        )
    res.line(f"retired_insts = {sum(retired.values())} count")
    res.line(f"kernel runs per second = {runs / elapsed:.3f} 1/s (every sample)")


# ----------------------------------------------------------------------
# serve-edit-mix
# ----------------------------------------------------------------------

_WARMUP_SOURCE = """
int printf(const char *fmt, ...);
int main(void) {
  int s = 0;
  #pragma omp unroll partial(2)
  for (int i = 0; i < 10; i += 1) s += i;
  printf("%d\\n", s);
  return 0;
}
"""


def _spawn(ctx: Context):
    from repro.service import CompileRequest
    from repro.service.net import NetClient
    from server import ServerProcess

    shutil.rmtree(os.path.join(ctx.work, "cache"), ignore_errors=True)
    workers = max(1, (os.cpu_count() or 2) - 1)
    server = ServerProcess(ctx.root, ctx.work, workers)
    client = NetClient(server.address, deadline_s=60.0)
    if not client.ping():
        server.kill()
        raise RuntimeError("serve subprocess answers no ping")
    for action in ("compile", "run"):
        response = client.request(
            CompileRequest(
                source=_WARMUP_SOURCE, filename="warmup.c", action=action
            )
        )
        if not response.ok:
            server.kill()
            raise RuntimeError(f"warm-up {action} failed: {response.status}")
    return server


def _serve_setup(ctx: Context):
    streams = [
        inputs.edit_stream(ctx.seed, editor, STREAM_LENGTH)
        for editor in range(CLIENTS)
    ]
    return streams, _spawn(ctx)


def _drive(server, streams, seconds: float | None):
    """Closed loop: each editor sends its next request only after the
    previous answer, until *seconds* pass (``None``: to the end of its
    stream).  Returns per-editor ``[(request, wall_s, response)]``, the
    elapsed time and the duplicate-answer count."""
    from repro.service import CompileRequest
    from repro.service.net import NetClient

    records: list[list] = [[] for _ in streams]
    duplicates = [0] * len(streams)
    start = time.perf_counter()
    deadline = start + (seconds if seconds is not None else 1e9)

    def editor(index: int) -> None:
        client = NetClient(server.address, deadline_s=60.0)
        for req in streams[index]:
            if time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            response = client.request(
                CompileRequest(
                    source=req.source,
                    filename=EDIT_FILENAME,
                    action=req.action,
                    mode="shadow",
                    optimize=req.optimize,
                )
            )
            records[index].append((req, time.perf_counter() - t0, response))
        duplicates[index] = client.duplicate_responses

    threads = [
        threading.Thread(target=editor, args=(i,)) for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DRIVE_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("an editor thread did not finish")
    return records, time.perf_counter() - start, sum(duplicates)


def _check_served(res: Result, records) -> None:
    """Every answer against an uncached in-process compile of the same
    request (compiles) or the generator's stdout (runs)."""
    from repro.pipeline import execute_request

    references: dict = {}
    for stream in records:
        for req, _, response in stream:
            res.attempted += 1
            if not response.ok:
                res.fail(f"{req.cls}: status {response.status}")
                continue
            if req.action == "run":
                problem = checks.stdout_mismatch(
                    response.output, req.expected_stdout, response.exit_code
                )
            else:
                mode = response.mode_used or "shadow"
                key = (req.source, req.optimize, mode)
                if key not in references:
                    references[key] = execute_request(
                        req.source,
                        filename=EDIT_FILENAME,
                        action="compile",
                        mode=mode,
                        optimize=req.optimize,
                    ).output
                problem = checks.ir_mismatch(response.output, references[key])
            if problem:
                res.fail(f"{req.cls}: {problem}")


def _drain(res: Result, server) -> None:
    code, survivors = server.drain()
    if code != 0:
        res.fail(f"serve subprocess exited {code} after SIGTERM")
    if survivors:
        res.fail(f"worker processes survived the drain: {survivors}")
    if not any("drained:" in line for line in server.stderr_lines):
        res.fail("serve subprocess printed no drain summary")


def _class_report(res: Result, records) -> None:
    """Per-class latency populations and where the overall median falls
    relative to the class boundaries (in percentiles)."""
    by_class: dict[str, list[float]] = {c: [] for c in inputs.CLASSES}
    for stream in records:
        for req, wall, response in stream:
            by_class[req.cls].append(wall)
    total = sum(len(v) for v in by_class.values())
    ordered = sorted(
        (c for c in by_class if by_class[c]), key=lambda c: median(by_class[c])
    )
    cumulative = 0.0
    boundaries = []
    for cls in ordered:
        share = len(by_class[cls]) / total
        s = summary(by_class[cls])
        res.line(
            f"class {cls}: share {share:.3f}, p50 {s['p50'] * 1e3:.3f} ms, "
            f"p{s['tail_level']:g} {s['tail'] * 1e3:.3f} ms (n = {s['n']})"
        )
        cumulative += share
        boundaries.append(cumulative * 100.0)
    distance = min(abs(50.0 - b) for b in boundaries[:-1]) if boundaries[:-1] else 50.0
    res.line(
        "class boundaries (percentiles, by class median): "
        + ", ".join(f"{b:.1f}" for b in boundaries[:-1])
        + f"; req_ms.p50 is {distance:.1f} percentiles from the nearest"
    )


def serve_edit_mix(ctx: Context, res: Result) -> None:
    (streams, server), setup_s = _timed_setup(
        ctx, lambda: _serve_setup(ctx), lambda product: product[1].drain()
    )
    rounds: list = []
    rates: list[float] = []
    rss = 0.0
    probe = Probe()
    for index in range(ROUNDS):
        if index:
            streams = [s[: len(r)] for s, r in zip(streams, rounds[0])]
            server = _spawn(ctx)
        try:
            records, elapsed, duplicates = _drive(
                server, streams, ctx.seconds / ROUNDS if not index else None
            )
            rss = max(rss, _self_peak_rss_mb() + server.tree_peak_rss_mb())
        except BaseException:
            server.kill()
            raise
        _drain(res, server)
        for _ in range(20):
            probe.sample()
        if duplicates:
            res.fail(f"{duplicates} duplicate answers")
        if any(len(s) >= STREAM_LENGTH for s in records):
            res.line("an editor exhausted its stream")
        _check_served(res, records)
        rounds.append(records)
        rates.append(sum(len(s) for s in records) / elapsed)

    # Every round serves the same requests from the same cache state, so
    # the rounds differ only by the machine: report the best round.
    per_round = [[w for s in r for _, w, _ in s] for r in rounds]
    p50s = [median(walls) for walls in per_round]
    tails = [tail(walls)[1] for walls in per_round]
    _end_to_end(
        res, probe, setup_s, min(p50s), min(tails), max(rates), rss
    )
    for index, walls in enumerate(per_round):
        _latency_line(res, f"round {index} req_ms", walls)
    res.line(
        "req_per_s = "
        + ", ".join(f"{rate:.2f}" for rate in rates)
        + f" 1/s per round ({CLIENTS} closed-loop clients, 1 shard, "
        f"{max(1, (os.cpu_count() or 2) - 1)} worker(s))"
    )
    _class_report(res, rounds[rates.index(max(rates))])


# ----------------------------------------------------------------------
# Traced runs (per-layer metrics)
# ----------------------------------------------------------------------

#: every per-layer metric name with its unit; an idle layer reads 0
LAYER_METRICS: dict[str, str] = {
    "preprocessor.self_ms": "ms",
    "preprocessor.share": "ratio",
    "preprocessor.tokens_per_s": "1/s",
    "parse_sema.shadow.self_ms": "ms",
    "parse_sema.irbuilder.self_ms": "ms",
    "parse_sema.share": "ratio",
    "codegen.shadow.self_ms": "ms",
    "codegen.irbuilder.self_ms": "ms",
    "codegen.share": "ratio",
    "verify.self_ms": "ms",
    "print.self_ms": "ms",
    "ir.insts_O0": "count",
    "ir.insts_O1": "count",
    **{f"midend.{p}.self_ms": "ms" for p in MIDEND_PASSES},
    **{f"midend.{p}.changed": "count" for p in MIDEND_PASSES},
    "midend.share": "ratio",
    "exec.setup_ms": "ms",
    **{
        f"exec.run_ms.{name}": "ms" for name in inputs.KERNEL_SIZES
    },
    "exec.insts_per_s": "1/s",
    "exec.share": "ratio",
    "frontend.share": "ratio",
    "cache.exact_ms": "ms",
    "cache.tokens_ms": "ms",
    "cache.module_ms": "ms",
    "cache.cold_ms": "ms",
    "cache.cold_overhead_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.stores": "count",
    "service.queue_wait_ms": "ms",
    "service.server_ms": "ms",
    "service.attempt_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.response_cache_hit_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.retries": "count",
    "net.transport_ms": "ms",
    "unattributed.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer values every traced workload derives the same way."""
    total = sum(s.duration for s in tracer.roots()) or 1.0
    values = {
        "preprocessor.self_ms": tracer.p50_self_ms("preprocessor"),
        "preprocessor.share": tracer.self_total("preprocessor") / total,
        "parse_sema.shadow.self_ms": tracer.p50_self_ms("parse_sema.shadow"),
        "parse_sema.irbuilder.self_ms": tracer.p50_self_ms(
            "parse_sema.irbuilder"
        ),
        "parse_sema.share": tracer.self_total("parse_sema") / total,
        "codegen.shadow.self_ms": tracer.p50_self_ms("codegen.shadow"),
        "codegen.irbuilder.self_ms": tracer.p50_self_ms("codegen.irbuilder"),
        "codegen.share": tracer.self_total("codegen") / total,
        "verify.self_ms": tracer.p50_self_ms("verify"),
        "print.self_ms": tracer.p50_self_ms("print"),
        "midend.share": tracer.self_total("midend") / total,
        "exec.setup_ms": tracer.p50_self_ms("exec.setup"),
        "exec.share": tracer.self_total("exec") / total,
        "frontend.share": sum(tracer.self_total(p) for p in FRONTEND_PREFIXES)
        / total,
        "unattributed.share": sum(s.self_s for s in tracer.roots()) / total,
    }
    pp_s = tracer.self_total("preprocessor")
    if pp_s > 0:
        values["preprocessor.tokens_per_s"] = (
            tracer.counts["preprocessor.tokens"] / pp_s
        )
    run_s = tracer.self_total("exec.run")
    if run_s > 0:
        values["exec.insts_per_s"] = tracer.counts["exec.insts"] / run_s
    for p in MIDEND_PASSES:
        values[f"midend.{p}.self_ms"] = tracer.p50_self_ms(f"midend.{p}")
        values[f"midend.{p}.changed"] = tracer.counts[f"midend.{p}.changed"]
    if tracer.counts["cache.stores"]:
        values["cache.stores"] = tracer.counts["cache.stores"]
    return values


def _emit_layers(res: Result, values: dict[str, float]) -> None:
    for name, unit in LAYER_METRICS.items():
        res.metric(name, values.get(name, 0.0), unit)


def _ir_insts(texts: dict, optimize: bool) -> int:
    return sum(
        checks.ir_instructions(text)
        for key, text in texts.items()
        if key[-1] == optimize
    )


#: per-layer metrics that only the edit stream exercises
SERVE_LAYERS = ("cache.", "service.", "net.")


def compile_corpus_traced(ctx: Context, res: Result) -> None:
    """Half the run traces the corpus compiles (every front-end and
    mid-end layer); the other half traces the serve-edit-mix stream for
    the cache, service and net layers, which the corpus never enters."""
    from repro.pipeline import execute_request

    corpus = _corpus_setup(ctx)
    tracer = Tracer()
    deadline = time.perf_counter() + ctx.seconds / 2.0
    with layer_spans(tracer):
        for entry, mode, optimize in _corpus_ops(corpus, ctx.seed):
            if time.perf_counter() >= deadline:
                break
            res.attempted += 1
            with tracer.operation("op", input=entry.name, mode=mode):
                staged_compile(entry.source, mode, optimize)

    # Faithfulness: the staged drive must print exactly what
    # execute_request prints, for every corpus entry and configuration.
    texts: dict = {}
    untraced_s = traced_s = 0.0
    for entry in corpus:
        for mode, optimize in inputs.CONFIGS:
            t0 = time.perf_counter()
            reference = execute_request(
                entry.source, action="compile", mode=mode, optimize=optimize
            ).output
            t1 = time.perf_counter()
            with layer_spans(Tracer()) as scratch:
                with scratch.operation("op"):
                    staged, _ = staged_compile(entry.source, mode, optimize)
            traced_s += time.perf_counter() - t1
            untraced_s += t1 - t0
            problem = checks.ir_mismatch(staged, reference)
            if problem:
                res.fail(f"staged drive != execute_request on {entry.name}: {problem}")
            texts[(entry.name, mode, optimize)] = reference

    values = _layer_values(tracer)
    values["ir.insts_O0"] = _ir_insts(texts, False)
    values["ir.insts_O1"] = _ir_insts(texts, True)
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    serve_values, serve_tracer = _serve_layers(ctx, res, ctx.seconds / 2.0)
    values.update(
        {k: v for k, v in serve_values.items() if k.startswith(SERVE_LAYERS)}
    )
    _emit_layers(res, values)
    tracer.dump(os.path.join(ctx.work, "spans.jsonl"))
    serve_tracer.dump(os.path.join(ctx.work, "serve-spans.jsonl"))


def run_kernels_traced(ctx: Context, res: Result) -> None:
    import repro.exec
    from repro.pipeline import execute_request

    kernels = _kernel_setup(ctx)
    tracer = Tracer()
    op_kernel: list[str] = []
    deadline = time.perf_counter() + ctx.seconds
    with layer_spans(tracer):
        while time.perf_counter() < deadline:
            for k in kernels:
                res.attempted += 1
                op_kernel.append(k.name)
                with tracer.operation("op", kernel=k.name):
                    _, module = staged_compile(k.source, "shadow", True)
                    interp = repro.exec.create_interpreter(module)
                    interp.omp.num_threads = k.num_threads
                    code = interp.run("main", [])
                problem = checks.stdout_mismatch(
                    interp.output(), k.expected_stdout, code
                )
                if problem:
                    res.fail(f"{k.name}: {problem}")

    texts: dict = {}
    untraced: dict[str, list[float]] = {k.name: [] for k in kernels}
    for k in kernels:
        staged, _ = staged_compile(k.source, "shadow", True)
        for optimize in (False, True):
            texts[(k.name, optimize)] = execute_request(
                k.source, action="compile", optimize=optimize
            ).output
        problem = checks.ir_mismatch(staged, texts[(k.name, True)])
        if problem:
            res.fail(f"staged drive != execute_request on {k.name}: {problem}")
        for _ in range(3):
            t0 = time.perf_counter()
            execute_request(
                k.source, action="run", optimize=True, num_threads=k.num_threads
            )
            untraced[k.name].append(time.perf_counter() - t0)

    traced: dict[str, list[float]] = {k.name: [] for k in kernels}
    run_self: dict[str, dict[int, float]] = {k.name: {} for k in kernels}
    for span in tracer.spans:
        name = op_kernel[span.op]
        if span.parent is None:
            traced[name].append(span.duration)
        elif span.name == "exec.run":
            run_self[name][span.op] = span.self_s
    values = _layer_values(tracer)
    for k in kernels:
        values[f"exec.run_ms.{k.name}"] = (
            median(list(run_self[k.name].values())) * 1e3
        )
    values["ir.insts_O0"] = _ir_insts(texts, False)
    values["ir.insts_O1"] = _ir_insts(texts, True)
    values["trace.overhead_ratio"] = (
        sum(median(traced[k.name]) for k in kernels)
        / sum(median(untraced[k.name]) for k in kernels)
        - 1.0
    )
    _emit_layers(res, values)
    tracer.dump(os.path.join(ctx.work, "spans.jsonl"))


def _attempt_mean_ms(metrics_path: str) -> float:
    import json

    with open(metrics_path, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    series = snapshot.get("worker_attempt_duration_seconds", {}).get(
        "series", []
    )
    count = sum(row["count"] for row in series)
    return sum(row["sum"] for row in series) / count * 1e3 if count else 0.0


def _serve_layers(
    ctx: Context, res: Result, seconds: float
) -> tuple[dict[str, float], Tracer]:
    """Trace the edit stream for *seconds*: half over TCP for the
    service and net layers, half replayed in process for the cache,
    compile and exec layers."""
    from repro.cache import CompilationCache
    from repro.pipeline import compile_source_cached, execute_request

    streams, server = _serve_setup(ctx)
    half = seconds / 2.0

    # Service and transport layers: the production front door, split
    # with the response fields and the server's metrics at drain.
    try:
        records, _, duplicates = _drive(server, streams, half)
    except BaseException:
        server.kill()
        raise
    _drain(res, server)
    if duplicates:
        res.fail(f"{duplicates} duplicate answers")
    _check_served(res, records)
    responses = [r for stream in records for _, _, r in stream]
    dispatched = [r for r in responses if not r.cache_hit and not r.coalesced]
    n = max(1, len(responses))
    values: dict[str, float] = {
        "service.server_ms": median([r.duration_s for r in responses]) * 1e3,
        "service.response_cache_hit_ratio": sum(r.cache_hit for r in responses)
        / n,
        "service.coalesced_ratio": sum(r.coalesced for r in responses) / n,
        "service.retries": sum(r.retries for r in responses),
        "net.transport_ms": median(
            [wall - r.duration_s for s in records for _, wall, r in s]
        )
        * 1e3,
        "service.attempt_ms": _attempt_mean_ms(server.metrics_path),
    }
    if dispatched:
        values["service.queue_wait_ms"] = (
            median([r.queue_wait_s for r in dispatched]) * 1e3
        )
        values["service.dispatch_ms"] = (
            median([r.duration_s - r.queue_wait_s for r in dispatched]) * 1e3
        )

    # Cache, compile and exec layers: the same stream replayed in
    # process through compile_source_cached, classed by resumed_from.
    cache_dir = os.path.join(ctx.work, "trace-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = CompilationCache(directory=cache_dir)
    tracer = Tracer()
    by_kind: dict[str, list[float]] = {
        k: [] for k in ("exact", "tokens", "module", "cold")
    }
    cold_inputs: list = []
    texts: dict = {}
    interleaved = [req for pair in zip(*streams) for req in pair]
    deadline = time.perf_counter() + half
    with layer_spans(tracer):
        for req in interleaved:
            if time.perf_counter() >= deadline:
                break
            res.attempted += 1
            with tracer.operation("op", cls=req.cls) as span:
                if req.action == "run":
                    out = execute_request(
                        req.source,
                        filename=EDIT_FILENAME,
                        action="run",
                        optimize=req.optimize,
                    )
                else:
                    cc = compile_source_cached(
                        req.source,
                        cache,
                        filename=EDIT_FILENAME,
                        optimize=req.optimize,
                    )
            if req.action == "run":
                problem = checks.stdout_mismatch(
                    out.output, req.expected_stdout, out.exit_code
                )
                if problem:
                    res.fail(f"replayed run: {problem}")
                continue
            kind = cc.resumed_from or "cold"
            by_kind[kind].append(span.duration)
            texts[(req.source, req.optimize)] = cc.ir_text
            if kind == "cold" and len(cold_inputs) < 40:
                cold_inputs.append(req)

    # Cold-path overhead of the cache: a cold cached compile minus the
    # uncached compile of the same request, both untraced.
    overhead_dir = os.path.join(ctx.work, "overhead-cache")
    shutil.rmtree(overhead_dir, ignore_errors=True)
    fresh = CompilationCache(directory=overhead_dir)
    overheads = []
    untraced_cold = []
    for req in cold_inputs:
        t0 = time.perf_counter()
        compile_source_cached(
            req.source, fresh, filename=EDIT_FILENAME, optimize=req.optimize
        )
        t1 = time.perf_counter()
        reference = execute_request(
            req.source,
            filename=EDIT_FILENAME,
            action="compile",
            optimize=req.optimize,
        ).output
        untraced_cold.append(t1 - t0)
        overheads.append((t1 - t0) - (time.perf_counter() - t1))
        if reference != texts[(req.source, req.optimize)]:
            res.fail("replayed cold compile differs from execute_request")

    values.update(_layer_values(tracer))
    compiles = sum(len(v) for v in by_kind.values())
    for kind, samples in by_kind.items():
        if samples:
            values[f"cache.{kind}_ms"] = median(samples) * 1e3
    if compiles:
        values["cache.hit_ratio"] = (
            len(by_kind["exact"]) + len(by_kind["tokens"])
        ) / compiles
    if overheads:
        values["cache.cold_overhead_ms"] = median(overheads) * 1e3
    values["ir.insts_O0"] = _ir_insts(texts, False)
    values["ir.insts_O1"] = _ir_insts(texts, True)
    # The replay's overhead: traced cold compiles against the same
    # requests' untraced cold cached compiles above.
    if untraced_cold:
        values["trace.overhead_ratio"] = (
            sum(by_kind["cold"][: len(untraced_cold)]) / sum(untraced_cold)
            - 1.0
        )
    res.line(
        "replayed classes (resumed_from): "
        + ", ".join(f"{k} {len(v)}" for k, v in by_kind.items())
    )
    return values, tracer


def serve_edit_mix_traced(ctx: Context, res: Result) -> None:
    values, tracer = _serve_layers(ctx, res, ctx.seconds)
    _emit_layers(res, values)
    tracer.dump(os.path.join(ctx.work, "spans.jsonl"))
