"""In-memory span tracing placed around the public entry points of each
layer, from the benchmark's side of the API.

:func:`layer_spans` wraps those entry points for the duration of a
traced run and restores them afterwards, so every call into a layer --
from the staged drive below or from deep inside
``compile_source_cached`` / ``run_source`` -- becomes a span.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from stats import median

#: mid-end passes in pipeline order, as ``PassRunInfo.name`` spells them
MIDEND_PASSES = (
    "loop-unroll",
    "mem2reg",
    "constant-fold",
    "simplify-cfg",
    "dce",
)

#: spans that belong to the front end (for ``frontend.share``)
FRONTEND_PREFIXES = (
    "preprocessor",
    "parse_sema",
    "codegen",
    "verify",
    "midend",
    "print",
)


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        #: per-op counters (tokens lexed, cache stores, ...)
        self.counts: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def operation(self, name: str, **attrs):
        """Root span of one timed operation of the workload."""
        self.op += 1
        with self.span(name, **attrs) as span:
            yield span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, time.perf_counter(), parent=parent)
        span.attrs.update(attrs)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration

    def child(self, name: str, duration_s: float) -> None:
        """Record a finished child of the innermost open span whose
        timing the layer measured itself (the mid-end's per-pass
        ``PassRunInfo.duration_s``)."""
        parent = self._stack[-1]
        now = time.perf_counter()
        self.spans.append(
            Span(name, self.op, now - duration_s, now, parent=parent)
        )
        self.spans[parent].child_s += duration_s

    # ------------------------------------------------------------------
    def self_by_op(self, name: str) -> list[float]:
        """Per-operation self time of the spans called *name*, for the
        operations that entered that layer at all."""
        per_op: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                per_op[span.op] += span.self_s
        return list(per_op.values())

    def self_total(self, prefix: str) -> float:
        return sum(
            s.self_s
            for s in self.spans
            if s.name == prefix or s.name.startswith(prefix + ".")
        )

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def p50_self_ms(self, name: str) -> float:
        values = self.self_by_op(name)
        return median(values) * 1e3 if values else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": span.parent,
                            "op": span.op,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self": span.self_s,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, name_of, fn, after=None):
    """*fn* inside a span named ``name_of(*args)``; ``after(args,
    result)`` records counts while the span is still open."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name_of(*args, **kwargs)):
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

    return wrapper


@contextlib.contextmanager
def layer_spans(tracer: Tracer):
    """Trace every call into a layer entry point while the block runs."""
    import repro.exec
    import repro.pipeline
    from repro.cache.cache import CompilationCache
    from repro.codegen import CodeGenModule
    from repro.interp.interpreter import Interpreter
    from repro.midend.pass_manager import PassManager
    from repro.parse import Parser
    from repro.preprocessor import Preprocessor

    def mode_of(irbuilder: bool) -> str:
        return "irbuilder" if irbuilder else "shadow"

    def count_tokens(_args, tokens) -> None:
        tracer.counts["preprocessor.tokens"] += len(tokens)

    def record_passes(_args, result) -> None:
        for info in result.passes:
            tracer.child(f"midend.{info.name}", info.duration_s)
            tracer.counts[f"midend.{info.name}.changed"] += (
                info.functions_changed
            )

    def count_store(_args, _result) -> None:
        tracer.counts["cache.stores"] += 1

    def count_retired(args, _result) -> None:
        tracer.counts["exec.insts"] += args[0].instruction_count

    patches = [
        (
            Preprocessor,
            "lex_all",
            lambda fn: _wrap(
                tracer, lambda *a, **k: "preprocessor", fn, count_tokens
            ),
        ),
        (
            Parser,
            "parse_translation_unit",
            lambda fn: _wrap(
                tracer,
                lambda self, *a, **k: "parse_sema."
                + mode_of(self.sema.openmp.use_irbuilder),
                fn,
            ),
        ),
        (
            CodeGenModule,
            "emit_translation_unit",
            lambda fn: _wrap(
                tracer,
                lambda self, *a, **k: "codegen."
                + mode_of(self.options.enable_irbuilder),
                fn,
            ),
        ),
        (
            PassManager,
            "run",
            lambda fn: _wrap(
                tracer, lambda *a, **k: "midend", fn, record_passes
            ),
        ),
        (
            repro.pipeline,
            "verify_module",
            lambda fn: _wrap(tracer, lambda *a, **k: "verify", fn),
        ),
        (
            repro.pipeline,
            "print_module",
            lambda fn: _wrap(tracer, lambda *a, **k: "print", fn),
        ),
        (
            repro.exec,
            "create_interpreter",
            lambda fn: _wrap(tracer, lambda *a, **k: "exec.setup", fn),
        ),
        (
            Interpreter,
            "run",
            lambda fn: _wrap(
                tracer, lambda *a, **k: "exec.run", fn, count_retired
            ),
        ),
    ]
    for method in ("get_artifact", "get_alias", "get_module"):
        patches.append(
            (
                CompilationCache,
                method,
                lambda fn: _wrap(tracer, lambda *a, **k: "cache", fn),
            )
        )
    for method in (
        "put_artifact",
        "put_alias",
        "put_module",
        "put_function",
    ):
        patches.append(
            (
                CompilationCache,
                method,
                lambda fn: _wrap(
                    tracer, lambda *a, **k: "cache", fn, count_store
                ),
            )
        )
    saved = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def staged_compile(
    source: str,
    mode: str,
    optimize: bool,
    filename: str = "<request>",
) -> tuple[str, object]:
    """Drive the compile layers one public call at a time, exactly as
    ``execute_request(action="compile")`` chains them.

    Returns ``(ir_text, module)``.  Under :func:`layer_spans` each call
    below is one span."""
    from repro.astlib.context import ASTContext
    from repro.codegen import CodeGenModule, CodeGenOptions
    from repro.diagnostics import DiagnosticsEngine
    from repro.midend import default_pass_pipeline
    from repro.parse import Parser
    from repro.preprocessor import Preprocessor, PreprocessorOptions
    from repro.sema import Sema
    from repro.sourcemgr import FileManager, SourceManager

    # Looked up on the module at call time, so layer_spans sees them.
    import repro.pipeline as pipeline

    irbuilder = mode == "irbuilder"
    sm = SourceManager()
    diags = DiagnosticsEngine(sm)
    ctx = ASTContext()
    sema = Sema(ctx, diags)
    sema.openmp.use_irbuilder = irbuilder
    pp = Preprocessor(
        sm, FileManager([]), diags, PreprocessorOptions(openmp=True)
    )
    pp.enter_source(source, filename)
    tokens = pp.lex_all()
    Parser(tokens, sema, diags).parse_translation_unit()
    if diags.has_errors():
        raise RuntimeError(
            f"staged drive: front-end errors\n{diags.render_all()}"
        )
    module = CodeGenModule(
        ctx,
        diags,
        CodeGenOptions(enable_irbuilder=irbuilder, module_name=filename),
    ).emit_translation_unit(ctx.translation_unit)
    if diags.has_errors():
        raise RuntimeError(
            f"staged drive: codegen errors\n{diags.render_all()}"
        )
    pipeline.verify_module(module)
    if optimize:
        default_pass_pipeline(remarks=diags.remarks).run(module)
        pipeline.verify_module(module)
    return pipeline.print_module(module), module
