"""High-level compilation pipeline (the public library API).

Chains the layers of paper Fig. 1 — FileManager, SourceManager, Lexer,
Preprocessor, Parser, Sema, CodeGen — and the mid-end into one staged
driver: :func:`compile_source` runs the stages straight through,
:func:`compile_source_cached` runs the same stages with cache hooks
between them.  This is what the examples, tests and benchmarks use; the
CLI driver (:mod:`repro.driver.cli`) is a thin argument-parsing wrapper
around it.

Typical use::

    from repro.pipeline import compile_source, run_source

    result = compile_source(C_CODE, openmp=True)
    print(result.ast_dump())          # clang-style -ast-dump
    print(result.ir_text())           # .ll-style IR

    outcome = run_source(C_CODE, num_threads=4)
    print(outcome.stdout)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.astlib.context import ASTContext
from repro.astlib.decls import FunctionDecl, TranslationUnitDecl
from repro.astlib.dump import dump_ast
from repro.codegen import CodeGenModule, CodeGenOptions
from repro.core.crash_recovery import (
    crash_context,
    pretty_stack_entry,
    recovery_scope,
)
from repro.diagnostics import (
    Diagnostic,
    DiagnosticsEngine,
    FatalErrorOccurred,
    Severity,
    TooManyErrors,
)
from repro.instrument import (
    STATS,
    ExecutionProfile,
    PassExecution,
    PassInstrumentation,
    RemarkEmitter,
    time_trace_scope,
)
from repro.exec import create_interpreter
from repro.interp import (
    ExecutionTimeout,
    Interpreter,
    InterpreterError,
    MemoryError_,
    TeamError,
    Trap,
)
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.parse import Parser
from repro.preprocessor import Preprocessor, PreprocessorOptions
from repro.sema import Sema
from repro.sourcemgr import FileManager, SourceManager

#: the failures a guest program causes (traps, runtime errors, guest
#: memory and team errors): a run that raises one is a ``guest-error``,
#: never an internal compiler error
GUEST_ERRORS = (Trap, InterpreterError, MemoryError_, TeamError)


class CompilationError(Exception):
    """Raised when compilation produced errors; carries the rendered
    diagnostics.  ``ice=True`` marks that at least one of the errors is
    a *recovered* internal compiler error (category ``"ice"``), which
    the driver maps to the dedicated ICE exit code."""

    def __init__(self, diagnostics_text: str, ice: bool = False):
        super().__init__(diagnostics_text)
        self.diagnostics_text = diagnostics_text
        self.ice = ice


@dataclass
class CompileResult:
    """Everything produced by one compilation."""

    source_manager: SourceManager
    diagnostics: DiagnosticsEngine
    ast_context: ASTContext
    translation_unit: TranslationUnitDecl
    sema: Sema
    module: Optional[Module] = None
    #: statistics deltas attributable to this compilation (counter name
    #: -> increment observed while compiling), see repro.instrument.stats
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors()

    @property
    def remarks(self) -> RemarkEmitter:
        """Optimization remarks collected during this compilation."""
        return self.diagnostics.remarks

    def function(self, name: str) -> FunctionDecl:
        for fn in self.translation_unit.functions():
            if fn.name == name:
                return fn
        raise KeyError(f"no function '{name}'")

    def ast_dump(
        self,
        function: str | None = None,
        dump_shadow: bool = False,
    ) -> str:
        """clang-style ``-ast-dump`` of one function body or the TU."""
        if function is not None:
            fn = self.function(function)
            target = fn.body if fn.body is not None else fn
            return dump_ast(target, dump_shadow=dump_shadow)
        parts = []
        for fn in self.translation_unit.functions():
            if fn.body is not None:
                parts.append(dump_ast(fn.body, dump_shadow=dump_shadow))
        return "\n".join(parts)

    def ir_text(self) -> str:
        assert self.module is not None, "compiled with -syntax-only?"
        return print_module(self.module)

    def diagnostics_text(self) -> str:
        return self.diagnostics.render_all()


@dataclass
class RunResult:
    """Result of executing a compiled program."""

    exit_code: Any
    stdout: str
    instruction_count: int
    interpreter: Interpreter
    compile_result: CompileResult

    @property
    def profile(self) -> ExecutionProfile:
        """Dynamic execution profile (per-thread instruction counts,
        barrier waits, optional per-block attribution)."""
        return self.interpreter.profile


# ----------------------------------------------------------------------
# The staged driver.  Paper Fig. 1 as four stages, each a plain function
# over the previous stage's product:
#
#   preprocess -> parse+Sema (builds the shadow AST) -> CodeGen+verify
#              -> mid-end+verify (only with optimize)
#
# compile_source runs them straight through; compile_source_cached runs
# the same stages with cache probes and stores at their boundaries.
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _fatal_ends_stage(diags: DiagnosticsEngine):
    """A fatal error ends the running stage; the diagnostics say why."""
    try:
        yield
    except FatalErrorOccurred:
        pass
    except TooManyErrors:
        # Clang: "fatal error: too many errors emitted, stopping now".
        # Appended directly — report() would re-raise on FATAL.
        diags.diagnostics.append(
            Diagnostic(
                Severity.FATAL,
                "too many errors emitted, stopping now "
                f"[-ferror-limit={diags.error_limit}]",
            )
        )


def _preprocess(
    source: str,
    filename: str,
    openmp: bool,
    defines: dict[str, str] | None,
    include_paths: list[str] | None,
    virtual_files: dict[str, str] | None,
    error_limit: int,
    strip_omp_transforms: bool,
) -> tuple[DiagnosticsEngine, Optional[list]]:
    """Stage 1: returns ``(diags, tokens)``; ``tokens`` is None when a
    fatal error stopped preprocessing."""
    sm = SourceManager()
    fm = FileManager(include_paths or [])
    for name, text in (virtual_files or {}).items():
        fm.register_virtual_file(name, text)
    diags = DiagnosticsEngine(sm, error_limit=error_limit)
    with _fatal_ends_stage(diags):
        # Constructing the preprocessor already lexes (builtin macros,
        # -D values), so it sits inside the recovery scope too.
        with recovery_scope("preprocess", diags), pretty_stack_entry(
            f"preprocessing '{filename}'"
        ):
            pp = Preprocessor(
                sm,
                fm,
                diags,
                PreprocessorOptions(
                    defines=dict(defines or {}),
                    openmp=openmp,
                    strip_omp_transforms=strip_omp_transforms,
                ),
            )
            pp.enter_source(source, filename)
            return diags, pp.lex_all()
    return diags, None


def _parse(
    diags: DiagnosticsEngine,
    tokens: Optional[list],
    filename: str,
    enable_irbuilder: bool,
) -> CompileResult:
    """Stage 2: Parser + Sema, which builds the shadow AST."""
    ctx = ASTContext()
    sema = Sema(ctx, diags)
    sema.openmp.use_irbuilder = enable_irbuilder
    if tokens is not None:
        with _fatal_ends_stage(diags), recovery_scope(
            "parse", diags
        ), pretty_stack_entry(f"parsing '{filename}'"):
            Parser(tokens, sema, diags).parse_translation_unit()
    return CompileResult(
        source_manager=diags.source_manager,
        diagnostics=diags,
        ast_context=ctx,
        translation_unit=ctx.translation_unit,
        sema=sema,
    )


def _proceed(result: CompileResult, strict: bool) -> bool:
    """Stage boundary: may *result* go on?  Under *strict* an error
    raises :class:`CompilationError` instead."""
    if not result.diagnostics.has_errors():
        return True
    if strict:
        raise CompilationError(
            result.diagnostics_text(),
            ice=result.diagnostics.has_internal_errors(),
        )
    return False


def _verify(module: Module, filename: str) -> None:
    with time_trace_scope("Verify", filename):
        verify_module(module)


def _codegen(
    result: CompileResult,
    filename: str,
    enable_irbuilder: bool,
    strict: bool,
) -> bool:
    """Stage 3: CodeGen, then the verifier on an error-free module.
    Returns whether the module may go on to the mid-end."""
    result.module = CodeGenModule(
        result.ast_context,
        result.diagnostics,
        CodeGenOptions(
            enable_irbuilder=enable_irbuilder, module_name=filename
        ),
    ).emit_translation_unit(result.translation_unit)
    if not _proceed(result, strict):
        return False
    _verify(result.module, filename)
    return True


def _midend(
    module: Module,
    remarks: Optional[RemarkEmitter],
    instrument: Optional[PassInstrumentation],
    filename: str,
) -> None:
    """Stage 4: the mid-end pass pipeline (whose LoopUnroll does the
    paper's partial-unroll duplication), then the verifier."""
    from repro.midend import default_pass_pipeline

    default_pass_pipeline(remarks=remarks, instrument=instrument).run(
        module, instrument
    )
    _verify(module, filename)


def compile_source(
    source: str,
    filename: str = "<input>",
    openmp: bool = True,
    enable_irbuilder: bool = False,
    syntax_only: bool = False,
    defines: dict[str, str] | None = None,
    include_paths: list[str] | None = None,
    virtual_files: dict[str, str] | None = None,
    strict: bool = True,
    error_limit: int = 0,
    crash_reproducer_dir: str | None = None,
    invocation: str | None = None,
    strip_omp_transforms: bool = False,
    optimize: bool = False,
    instrument: PassInstrumentation | None = None,
) -> CompileResult:
    """Compile C source to IR.

    Parameters mirror the clang flags the paper's workflow uses:
    ``openmp`` = ``-fopenmp``, ``enable_irbuilder`` =
    ``-fopenmp-enable-irbuilder``, ``syntax_only`` = ``-fsyntax-only``,
    ``error_limit`` = ``-ferror-limit=N`` (0 = unlimited),
    ``crash_reproducer_dir`` = ``-crash-reproducer-dir``,
    ``strip_omp_transforms`` = ``--strip-omp-transforms`` (discard
    unroll/tile/reverse/interchange/fuse directives — the
    differential-testing reference configuration).
    ``optimize`` = ``-O``: the module additionally runs the mid-end
    pass pipeline (incl. the LoopUnroll pass that consumes the
    ``llvm.loop.unroll.*`` metadata emitted for the paper's unroll
    directive); ``instrument`` threads a
    :class:`~repro.instrument.PassInstrumentation` through it.
    The IR verifier runs after CodeGen and after the mid-end.

    With ``strict=True`` a :class:`CompilationError` is raised when any
    error diagnostic was produced.  Every phase runs under a crash
    recovery scope: an unexpected exception either becomes an error
    diagnostic of category ``"ice"`` (per-directive Sema, per-function
    CodeGen) or an :class:`~repro.core.crash_recovery.
    InternalCompilerError` — never a raw Python traceback.

    The result's ``stats`` are the statistics deltas of every stage
    that ran, mid-end passes included.
    """
    before = STATS.counter_values()
    with crash_context(
        source, filename, invocation, crash_reproducer_dir
    ):
        diags, tokens = _preprocess(
            source,
            filename,
            openmp,
            defines,
            include_paths,
            virtual_files,
            error_limit,
            strip_omp_transforms,
        )
        result = _parse(diags, tokens, filename, enable_irbuilder)
        if (
            _proceed(result, strict)
            and not syntax_only
            and _codegen(result, filename, enable_irbuilder, strict)
            and optimize
        ):
            _midend(
                result.module,
                result.diagnostics.remarks,
                instrument,
                filename,
            )
    result.stats = STATS.delta_since(before)
    return result


def compile_source_cached(
    source: str,
    cache,
    *,
    filename: str = "<input>",
    openmp: bool = True,
    enable_irbuilder: bool = False,
    optimize: bool = False,
    defines: dict[str, str] | None = None,
    include_paths: list[str] | None = None,
    strip_omp_transforms: bool = False,
    error_limit: int = 0,
    crash_reproducer_dir: str | None = None,
    invocation: str | None = None,
):
    """:func:`compile_source` with the cache hooked in between stages.

    *cache* is a :class:`repro.cache.CompilationCache`.  The stages are
    the ones :func:`compile_source` runs; the hooks between them probe
    and store artifacts keyed by a chain of content hashes (see
    :mod:`repro.cache.key`), so recompilation resumes downstream of the
    first divergent input:

    1. **exact** — before any stage, the raw request (source + flags)
       matches an alias: replay the final artifact, run nothing;
    2. **tokens** — after preprocessing, the token stream matches: the
       final artifact is replayed and parse/Sema/CodeGen/mid-end are
       skipped (comment and whitespace edits land here);
    3. **module** — only the ``optimize`` flag diverged: the module an
       earlier unoptimized compile memoized (deep-copied out) feeds the
       mid-end stage directly;
    4. **cold** — the remaining stages run on the tokens preprocessing
       already produced; the codegen artifact (and, without
       ``optimize``, the module) and the final artifact are stored.

    Only *successful* compiles are cached (diagnostic-error and ICE
    outcomes raise, exactly like ``compile_source(strict=True)``, and
    leave no cache entry); neither is a source whose preprocessing
    reported anything, because directives such as ``#warning`` leave no
    trace in the token stream the keys hash.  Cached diagnostics
    (warnings) embed source locations, so they are only replayed when
    the raw source text is byte-identical — a token-level hit on a
    comment-shifted file falls back to a cold compile rather than
    replaying stale line numbers.  Returns a
    :class:`repro.cache.CachedCompile`; cached and cold compiles are
    byte-identical in ``ir_text`` and ``diagnostics_text`` (the
    differential fuzzer's cache oracle enforces this).
    """
    from repro.cache.cache import STAGE_RESUMES, CachedCompile
    from repro.cache.key import (
        define_items,
        request_fingerprint,
        source_id,
        stage_key,
        token_stream_text,
    )
    from repro.midend import default_pass_pipeline

    defines = dict(defines or {})
    include_paths = list(include_paths or [])
    src_id = source_id(source)
    raw_key = request_fingerprint(
        source,
        filename=filename,
        openmp=openmp,
        enable_irbuilder=enable_irbuilder,
        optimize=optimize,
        strip_omp_transforms=strip_omp_transforms,
        defines=defines,
        include_paths=include_paths,
        error_limit=error_limit,
    )
    # The raw key hashes the main file's bytes but not the bytes of
    # any #included headers; only the token-stream key sees those.
    # With include paths in play the exact-alias fast path could
    # replay a stale artifact after a header edit, so skip it.
    allow_alias = not include_paths

    def diags_ok(artifact: dict) -> bool:
        # Rendered diagnostics embed line/column numbers, so they are
        # only valid verbatim against the exact source that produced
        # them.  Clean compiles replay anywhere.
        return (
            artifact.get("diagnostics", "") == ""
            or artifact.get("source_id") == src_id
        )

    def replay(key: str, resumed_from: str, stage_keys: dict):
        # Tier must be sampled before the lookup: a disk hit is
        # promoted into the memory tier on the way out.
        tier = "memory" if f"artifact:{key}" in cache.memory else "disk"
        artifact = cache.get_artifact(key)
        if artifact is None or not diags_ok(artifact):
            return None
        if resumed_from != "exact":
            STAGE_RESUMES.inc()
            if allow_alias:
                cache.put_alias(raw_key, key)
        return CachedCompile(
            ir_text=artifact["ir"],
            diagnostics_text=artifact.get("diagnostics", ""),
            key=key,
            hit=True,
            resumed_from=resumed_from,
            origin=tier,
            stage_keys=stage_keys,
        )

    def store(key, stage: str, ir: str, diag_text: str):
        if key is not None:
            cache.put_artifact(
                key,
                {
                    "stage": stage,
                    "ir": ir,
                    "diagnostics": diag_text,
                    "source_id": src_id,
                },
            )

    def compiled(key, ir: str, diag_text: str, resumed_from=None):
        if key is not None and allow_alias:
            cache.put_alias(raw_key, key)
        return CachedCompile(
            ir_text=ir,
            diagnostics_text=diag_text,
            key=key if key is not None else raw_key,
            hit=False,
            resumed_from=resumed_from,
            origin="compiled",
            stage_keys=stage_keys,
        )

    stage_keys: dict[str, str] = {}
    if allow_alias:
        target = cache.get_alias(raw_key)
        if target is not None:
            hit = replay(target, "exact", {"final": target})
            if hit is not None:
                return hit

    with crash_context(
        source, filename, invocation, crash_reproducer_dir
    ):
        diags, tokens = _preprocess(
            source,
            filename,
            openmp,
            defines,
            include_paths,
            None,
            error_limit,
            strip_omp_transforms,
        )
        k_cg = final_key = None
        if tokens is not None and not diags.diagnostics:
            k_pp = stage_key(
                "preprocess",
                None,
                [
                    token_stream_text(tokens),
                    filename,
                    openmp,
                    list(define_items(defines)),
                    strip_omp_transforms,
                ],
            )
            mode = "irbuilder" if enable_irbuilder else "shadow"
            k_fe = stage_key("frontend", k_pp, [mode, error_limit])
            k_cg = final_key = stage_key("codegen", k_fe, [])
            stage_keys = {
                "preprocess": k_pp,
                "frontend": k_fe,
                "codegen": k_cg,
            }
            if optimize:
                final_key = stage_keys["opt"] = stage_key(
                    "opt", k_cg, default_pass_pipeline().pass_names()
                )
            hit = replay(final_key, "tokens", stage_keys)
            if hit is not None:
                return hit
            cg_art = cache.get_artifact(k_cg) if optimize else None
            module = (
                cache.get_module(k_cg)
                if cg_art is not None and diags_ok(cg_art)
                else None
            )
            if module is not None:
                STAGE_RESUMES.inc()
                _midend(module, diags.remarks, None, filename)
                ir = print_module(module)
                diag_text = cg_art.get("diagnostics", "")
                store(final_key, "opt", ir, diag_text)
                return compiled(final_key, ir, diag_text, "module")

        # Cold: strict=True means errors and ICEs raise before any
        # store below, so failures are never cached.
        result = _parse(diags, tokens, filename, enable_irbuilder)
        _proceed(result, strict=True)
        _codegen(result, filename, enable_irbuilder, strict=True)
        diag_text = result.diagnostics_text()
        ir = result.ir_text()
        store(k_cg, "codegen", ir, diag_text)
        if optimize:
            _midend(result.module, diags.remarks, None, filename)
            ir = result.ir_text()
            store(final_key, "opt", ir, diag_text)
        elif k_cg is not None:
            # Memoize the unoptimized module for an O0 -> O1 resume;
            # nothing mutates it after this point.
            cache.put_module(k_cg, result.module)
    return compiled(final_key, ir, diag_text)


def run_source(
    source: str,
    entry: str = "main",
    args: list | None = None,
    num_threads: int = 4,
    filename: str = "<input>",
    openmp: bool = True,
    enable_irbuilder: bool = False,
    defines: dict[str, str] | None = None,
    optimize: bool = False,
    fuel: int | None = None,
    profile_detail: bool = False,
    instrument: PassInstrumentation | None = None,
    error_limit: int = 0,
    crash_reproducer_dir: str | None = None,
    invocation: str | None = None,
    timeout_s: float | None = None,
    memory_limit: int | None = None,
    max_call_depth: int = 256,
    strip_omp_transforms: bool = False,
    exec_engine: str = "closures",
) -> RunResult:
    """Compile and execute *source*; returns exit code and captured
    stdout.  ``optimize`` and ``instrument`` are
    :func:`compile_source`'s.

    Interpreter guardrails: ``fuel`` bounds retired instructions,
    ``timeout_s`` is a wall-clock deadline (both raise
    :class:`~repro.interp.ExecutionTimeout` carrying a scheduler
    snapshot), ``memory_limit`` caps guest memory and
    ``max_call_depth`` caps guest recursion.

    ``exec_engine`` selects the execution engine (``-fexec=``):
    ``"closures"`` (the default) is the closure-compiled engine,
    ``"interp"`` the reference tree-walking interpreter with identical
    observable semantics (see :mod:`repro.exec`).  When execution
    raises, the guest heap is freed before the exception propagates."""
    result = compile_source(
        source,
        filename=filename,
        openmp=openmp,
        enable_irbuilder=enable_irbuilder,
        defines=defines,
        error_limit=error_limit,
        crash_reproducer_dir=crash_reproducer_dir,
        invocation=invocation,
        strip_omp_transforms=strip_omp_transforms,
        optimize=optimize,
        instrument=instrument,
    )
    assert result.module is not None
    with crash_context(
        source, filename, invocation, crash_reproducer_dir
    ):
        interp = create_interpreter(
            result.module,
            engine=exec_engine,
            profile_detail=profile_detail,
            memory_limit=memory_limit,
            max_call_depth=max_call_depth,
        )
        interp.omp.num_threads = num_threads
        # Guest-visible failures (traps, guardrails, runtime errors)
        # pass through as themselves; anything else is an ICE.
        try:
            with recovery_scope(
                "interpret", passthrough=GUEST_ERRORS
            ), pretty_stack_entry(f"interpreting '{filename}'"):
                exit_code = interp.run(
                    entry, args or [], fuel=fuel, timeout_s=timeout_s
                )
        except BaseException:
            # No caller can reach this interpreter any more.
            interp.memory.release()
            raise
    return RunResult(
        exit_code=exit_code,
        stdout=interp.output(),
        instruction_count=interp.instruction_count,
        interpreter=interp,
        compile_result=result,
    )


@dataclass
class RequestOutcome:
    """Plain-data result of one service-scoped compile/run request.

    Unlike :class:`CompileResult`/:class:`RunResult` this carries no live
    objects (modules, interpreters, source managers), so it can cross a
    process boundary: the compile service executes requests in worker
    processes and ships the outcome back over a pipe.

    ``kind`` classifies the outcome for the service's failure policy:

    ==================  ================================================
    ``ok``              compiled (and ran); ``output`` is the IR text or
                        the guest stdout, ``exit_code`` the guest exit
    ``compile-error``   user diagnostics — deterministic, never retried
    ``guest-error``     guest trap / runtime failure — not retried
    ``ice``             internal compiler error — retry/degrade material
    ``timeout``         guest fuel/wall guardrail fired
    ==================  ================================================
    """

    kind: str
    output: str = ""
    exit_code: Optional[int] = None
    diagnostics: str = ""
    detail: str = ""
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def failure_kind(exc: BaseException) -> str:
    """The :class:`RequestOutcome` kind of a compile or run that raised
    *exc*: ``compile-error``, ``guest-error``, ``timeout`` or ``ice``."""
    if isinstance(exc, CompilationError):
        return "ice" if exc.ice else "compile-error"
    if isinstance(exc, ExecutionTimeout):
        return "timeout"
    if isinstance(exc, GUEST_ERRORS):
        return "guest-error"
    return "ice"


def execute_request(
    source: str,
    *,
    filename: str = "<request>",
    action: str = "compile",
    mode: str = "shadow",
    optimize: bool = False,
    num_threads: int = 4,
    entry: str = "main",
    defines: dict[str, str] | None = None,
    fuel: int | None = None,
    timeout_s: float | None = None,
    strip_omp_transforms: bool = False,
    exec_engine: str = "closures",
    cache=None,
) -> RequestOutcome:
    """Request-scoped pipeline entry point for the compile service.

    Executes one ``compile`` or ``run`` request on the representation
    selected by *mode* (``"shadow"`` or ``"irbuilder"``, the paper's two
    coexisting implementations) and maps every exception class the
    pipeline can produce onto a :class:`RequestOutcome` kind — the
    caller gets a terminal classification, never an exception.

    ``run`` requests execute on *exec_engine* — the closure engine
    unless the reference ``"interp"`` is asked for — and free their
    guest heap before the outcome is returned, whatever its kind.

    *cache* (a :class:`repro.cache.CompilationCache`) routes ``compile``
    actions through :func:`compile_source_cached`; output stays
    byte-identical to the uncached path.
    """
    from repro.core.crash_recovery import InternalCompilerError
    from repro.instrument.faultinject import InjectedFault

    enable_irbuilder = mode == "irbuilder"
    before = STATS.counter_values()

    def finish(kind: str, **kwargs) -> RequestOutcome:
        return RequestOutcome(
            kind, stats=STATS.delta_since(before), **kwargs
        )

    try:
        if action == "run":
            rr = run_source(
                source,
                entry=entry,
                num_threads=num_threads,
                filename=filename,
                enable_irbuilder=enable_irbuilder,
                defines=defines,
                optimize=optimize,
                fuel=fuel,
                timeout_s=timeout_s,
                strip_omp_transforms=strip_omp_transforms,
                exec_engine=exec_engine,
            )
            code = rr.exit_code if isinstance(rr.exit_code, int) else 0
            # The RunResult dies here: free its guest heap now.
            rr.interpreter.memory.release()
            return finish("ok", output=rr.stdout, exit_code=code)
        if cache is not None:
            cc = compile_source_cached(
                source,
                cache,
                filename=filename,
                enable_irbuilder=enable_irbuilder,
                optimize=optimize,
                defines=defines,
                strip_omp_transforms=strip_omp_transforms,
            )
            return finish("ok", output=cc.ir_text, exit_code=0)
        result = compile_source(
            source,
            filename=filename,
            enable_irbuilder=enable_irbuilder,
            defines=defines,
            strip_omp_transforms=strip_omp_transforms,
            optimize=optimize,
        )
        return finish("ok", output=result.ir_text(), exit_code=0)
    except CompilationError as exc:
        return finish(failure_kind(exc), diagnostics=exc.diagnostics_text)
    except InternalCompilerError as exc:
        return finish("ice", detail=exc.render())
    except InjectedFault as exc:
        # A service-level fault site fired outside any recovery scope.
        return finish("ice", detail=str(exc))
    except Exception as exc:
        kind = failure_kind(exc)
        if kind == "ice":
            return finish(kind, detail=f"{type(exc).__name__}: {exc}")
        return finish(kind, detail=str(exc))


@dataclass
class BisectResult:
    """Outcome of :func:`bisect_pipeline`.

    ``culprit_index`` is the 1-based pass-execution index (LLVM OptBisect
    numbering) of the first execution that makes the predicate fail;
    ``0`` means the predicate fails before any pass runs, ``None`` means
    it never fails.  ``culprit`` names the pass and function of that
    execution.
    """

    total_executions: int
    culprit_index: Optional[int]
    culprit: Optional[PassExecution]
    probes: int

    @property
    def found(self) -> bool:
        return self.culprit is not None

    def describe(self) -> str:
        if self.culprit is not None:
            return (
                f"first failing pass execution: {self.culprit.describe()} "
                f"[{self.probes} probes over "
                f"{self.total_executions} executions]"
            )
        if self.culprit_index == 0:
            return "predicate fails before any pass runs"
        return "predicate never fails; the pipeline is not the culprit"


def bisect_pipeline(
    source: str,
    predicate,
    *,
    filename: str = "<bisect>",
    openmp: bool = True,
    enable_irbuilder: bool = False,
    defines: dict[str, str] | None = None,
    pipeline_factory=None,
    log=None,
) -> BisectResult:
    """Binary-search ``-opt-bisect-limit`` for the first pass execution
    that breaks *predicate*.

    Recompiles *source* from scratch per probe (pass pipelines mutate the
    module in place), runs the pipeline with an increasing bisect limit
    and evaluates ``predicate(compile_result) -> bool`` (True = good).
    ``pipeline_factory(remarks, instrument) -> PassManager`` overrides
    the pipeline under test (defaults to
    :func:`repro.midend.default_pass_pipeline`); ``log`` is an optional
    stream receiving each probe's ``BISECT:`` lines.
    """
    import io

    from repro.midend import default_pass_pipeline

    if pipeline_factory is None:
        pipeline_factory = default_pass_pipeline

    probes = 0

    def probe(limit: int) -> tuple[bool, PassInstrumentation]:
        nonlocal probes
        probes += 1
        if log is not None:
            print(f"BISECT PROBE: -opt-bisect-limit={limit}", file=log)
        instrument = PassInstrumentation(
            opt_bisect_limit=limit,
            stream=log if log is not None else io.StringIO(),
        )
        result = compile_source(
            source,
            filename=filename,
            openmp=openmp,
            enable_irbuilder=enable_irbuilder,
            defines=defines,
        )
        assert result.module is not None
        pipeline_factory(
            remarks=result.diagnostics.remarks, instrument=instrument
        ).run(result.module, instrument)
        return bool(predicate(result)), instrument

    good_all, full_run = probe(-1)
    total = len(full_run.executions)
    if good_all:
        return BisectResult(total, None, None, probes)
    good_none, _ = probe(0)
    if not good_none:
        return BisectResult(total, 0, None, probes)
    lo, hi = 0, total  # invariant: limit=lo good, limit=hi bad
    while hi - lo > 1:
        mid = (lo + hi) // 2
        good, _ = probe(mid)
        if good:
            lo = mid
        else:
            hi = mid
    culprit = full_run.executions[hi - 1]
    return BisectResult(total, hi, culprit, probes)
