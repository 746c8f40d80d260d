"""High-level compilation pipeline (the public library API).

Chains the layers of paper Fig. 1 — FileManager, SourceManager, Lexer,
Preprocessor, Parser, Sema, CodeGen — into one call.  This is what the
examples, tests and benchmarks use; the CLI driver
(:mod:`repro.driver.cli`) is a thin argument-parsing wrapper around it.

Typical use::

    from repro.pipeline import compile_source, run_source

    result = compile_source(C_CODE, openmp=True)
    print(result.ast_dump())          # clang-style -ast-dump
    print(result.ir_text())           # .ll-style IR

    outcome = run_source(C_CODE, num_threads=4)
    print(outcome.stdout)
"""

from __future__ import annotations

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
from repro.interp import Interpreter, MemoryError_
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.parse import Parser
from repro.preprocessor import Preprocessor, PreprocessorOptions
from repro.sema import Sema
from repro.sourcemgr import FileManager, SourceManager


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


def _front_end(
    source: str,
    filename: str,
    openmp: bool,
    enable_irbuilder: bool,
    defines: dict[str, str] | None,
    include_paths: list[str] | None,
    virtual_files: dict[str, str] | None,
    error_limit: int = 0,
    strip_omp_transforms: bool = False,
) -> CompileResult:
    sm = SourceManager()
    fm = FileManager(include_paths or [])
    if virtual_files:
        for name, text in virtual_files.items():
            fm.register_virtual_file(name, text)
    diags = DiagnosticsEngine(sm, error_limit=error_limit)
    ctx = ASTContext()
    sema = Sema(ctx, diags)
    sema.openmp.use_irbuilder = enable_irbuilder
    try:
        tokens: list = []
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
            tokens = pp.lex_all()
        with recovery_scope("parse", diags), pretty_stack_entry(
            f"parsing '{filename}'"
        ):
            parser = Parser(tokens, sema, diags)
            parser.parse_translation_unit()
    except FatalErrorOccurred:
        pass
    except TooManyErrors:
        # Clang: "fatal error: too many errors emitted, stopping now".
        # Appended directly — report() would re-raise on FATAL.
        diags.diagnostics.append(
            Diagnostic(
                Severity.FATAL,
                "too many errors emitted, stopping now "
                f"[-ferror-limit={error_limit}]",
            )
        )
    return CompileResult(
        source_manager=sm,
        diagnostics=diags,
        ast_context=ctx,
        translation_unit=ctx.translation_unit,
        sema=sema,
    )


def compile_source(
    source: str,
    filename: str = "<input>",
    openmp: bool = True,
    enable_irbuilder: bool = False,
    syntax_only: bool = False,
    defines: dict[str, str] | None = None,
    include_paths: list[str] | None = None,
    virtual_files: dict[str, str] | None = None,
    verify: bool = True,
    strict: bool = True,
    error_limit: int = 0,
    crash_reproducer_dir: str | None = None,
    invocation: str | None = None,
    strip_omp_transforms: bool = False,
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
    With ``strict=True`` a :class:`CompilationError` is raised when any
    error diagnostic was produced.  Every phase runs under a crash
    recovery scope: an unexpected exception either becomes an error
    diagnostic of category ``"ice"`` (per-directive Sema, per-function
    CodeGen) or an :class:`~repro.core.crash_recovery.
    InternalCompilerError` — never a raw Python traceback.
    """
    before = STATS.snapshot()
    with crash_context(
        source, filename, invocation, crash_reproducer_dir
    ):
        result = _front_end(
            source,
            filename,
            openmp,
            enable_irbuilder,
            defines,
            include_paths,
            virtual_files,
            error_limit=error_limit,
            strip_omp_transforms=strip_omp_transforms,
        )
        if result.diagnostics.has_errors():
            result.stats = STATS.delta_since(before)
            if strict:
                raise CompilationError(
                    result.diagnostics_text(),
                    ice=result.diagnostics.has_internal_errors(),
                )
            return result
        if syntax_only:
            result.stats = STATS.delta_since(before)
            return result
        cgm = CodeGenModule(
            result.ast_context,
            result.diagnostics,
            CodeGenOptions(
                enable_irbuilder=enable_irbuilder,
                module_name=filename,
            ),
        )
        result.module = cgm.emit_translation_unit(
            result.translation_unit
        )
        if result.diagnostics.has_errors() and strict:
            result.stats = STATS.delta_since(before)
            raise CompilationError(
                result.diagnostics_text(),
                ice=result.diagnostics.has_internal_errors(),
            )
        if (
            verify
            and result.module is not None
            and not result.diagnostics.has_errors()
        ):
            with time_trace_scope("Verify", filename):
                verify_module(result.module)
        result.stats = STATS.delta_since(before)
        return result


def _lex_for_cache(
    source: str,
    filename: str,
    openmp: bool,
    defines: dict[str, str],
    include_paths: list[str],
    strip_omp_transforms: bool,
):
    """Preprocess *source* in isolation (the cache's stage-1 probe).

    Returns ``(tokens, diags)``; the token stream is what the
    preprocess-stage cache key hashes, so an include-file edit changes
    the key (the stream reflects post-#include content) while a comment
    or whitespace edit does not."""
    sm = SourceManager()
    fm = FileManager(include_paths or [])
    diags = DiagnosticsEngine(sm)
    pp = Preprocessor(
        sm,
        fm,
        diags,
        PreprocessorOptions(
            defines=dict(defines),
            openmp=openmp,
            strip_omp_transforms=strip_omp_transforms,
        ),
    )
    pp.enter_source(source, filename)
    return pp.lex_all(), diags


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
    """:func:`compile_source` with per-stage memoization.

    *cache* is a :class:`repro.cache.CompilationCache`.  The memoization
    hooks sit at the pipeline's stage boundaries, each keyed by a chain
    of content hashes (see :mod:`repro.cache.key`), so recompilation
    resumes downstream of the first divergent input:

    1. **exact** — the raw request (source + flags) matches an alias:
       replay the final artifact, run nothing;
    2. **tokens** — after preprocessing, the token stream matches: the
       final artifact is replayed and parse/sema/codegen/mid-end are
       skipped (comment and whitespace edits land here);
    3. **module** — only the ``optimize`` flag diverged: the memoized
       unoptimized module (deep-copied) feeds the mid-end directly;
    4. **cold** — full compile; every stage artifact is recorded on the
       way out, including per-function codegen hashes.

    Only *successful* compiles are cached (diagnostic-error and ICE
    outcomes raise, exactly like ``compile_source(strict=True)``, and
    leave no cache entry).  Cached diagnostics (warnings) embed source
    locations, so they are only replayed when the raw source text is
    byte-identical — a token-level hit on a comment-shifted file falls
    back to a cold compile rather than replaying stale line numbers.
    Returns a :class:`repro.cache.CachedCompile`; cached and cold
    compiles are byte-identical in ``ir_text`` and
    ``diagnostics_text`` (the differential fuzzer's cache oracle
    enforces this).
    """
    import copy as _copy

    from repro.cache.cache import (
        FUNCTION_HITS,
        STAGE_RESUMES,
        CachedCompile,
    )
    from repro.cache.key import (
        define_items,
        request_fingerprint,
        source_id,
        stage_key,
        token_stream_text,
    )
    from repro.ir.printer import print_function
    from repro.midend import default_pass_pipeline

    defines = dict(defines or {})
    include_paths = list(include_paths or [])
    mode = "irbuilder" if enable_irbuilder else "shadow"
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

    def _tier_of(key: str) -> str:
        return (
            "memory" if f"artifact:{key}" in cache.memory else "disk"
        )

    def _diags_ok(artifact: dict) -> bool:
        # Rendered diagnostics embed line/column numbers, so they are
        # only valid verbatim against the exact source that produced
        # them.  Clean compiles replay anywhere.
        return (
            artifact.get("diagnostics", "") == ""
            or artifact.get("source_id") == src_id
        )

    if allow_alias:
        target = cache.get_alias(raw_key)
        if target is not None:
            # Tier must be sampled before the lookup: a disk hit is
            # promoted into the memory tier on the way out.
            tier = _tier_of(target)
            artifact = cache.get_artifact(target)
            if artifact is not None and _diags_ok(artifact):
                return CachedCompile(
                    ir_text=artifact["ir"],
                    diagnostics_text=artifact.get("diagnostics", ""),
                    key=target,
                    hit=True,
                    resumed_from="exact",
                    origin=tier,
                    stage_keys={"final": target},
                )

    # Stage 1 probe: preprocess in isolation to derive the chained
    # stage keys.  Any lex-level failure (error diagnostics, fatal
    # include errors) falls through to the uncached pipeline, which
    # owns error rendering and crash recovery — nothing is cached.
    tokens = None
    try:
        tokens, pre_diags = _lex_for_cache(
            source,
            filename,
            openmp,
            defines,
            include_paths,
            strip_omp_transforms,
        )
        if pre_diags.has_errors():
            tokens = None
    except Exception:
        tokens = None

    stage_keys: dict[str, str] = {}
    k_cg = k_opt = final_key = None
    if tokens is not None:
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
        k_fe = stage_key("frontend", k_pp, [mode, error_limit])
        k_cg = stage_key("codegen", k_fe, [])
        stage_keys = {
            "preprocess": k_pp,
            "frontend": k_fe,
            "codegen": k_cg,
        }
        if optimize:
            k_opt = stage_key(
                "opt", k_cg, default_pass_pipeline().pass_names()
            )
            stage_keys["opt"] = k_opt
        final_key = k_opt if optimize else k_cg

        tier = _tier_of(final_key)  # sample before the promoting get
        artifact = cache.get_artifact(final_key)
        if artifact is not None and _diags_ok(artifact):
            STAGE_RESUMES.inc()
            if allow_alias:
                cache.put_alias(raw_key, final_key)
            return CachedCompile(
                ir_text=artifact["ir"],
                diagnostics_text=artifact.get("diagnostics", ""),
                key=final_key,
                hit=True,
                resumed_from="tokens",
                origin=tier,
                stage_keys=stage_keys,
            )

        if optimize:
            # Module resume: the unoptimized module for this token
            # stream is memoized in-process — rerun only the mid-end.
            cg_art = cache.get_artifact(k_cg)
            if cg_art is not None and _diags_ok(cg_art):
                module = cache.get_module(k_cg)
                if module is not None:
                    STAGE_RESUMES.inc()
                    with crash_context(
                        source,
                        filename,
                        invocation,
                        crash_reproducer_dir,
                    ):
                        default_pass_pipeline().run(module)
                        with time_trace_scope("Verify", filename):
                            verify_module(module)
                    diag_text = cg_art.get("diagnostics", "")
                    artifact = {
                        "stage": "opt",
                        "ir": print_module(module),
                        "diagnostics": diag_text,
                        "source_id": cg_art.get("source_id", src_id),
                    }
                    cache.put_artifact(k_opt, artifact)
                    if allow_alias:
                        cache.put_alias(raw_key, k_opt)
                    return CachedCompile(
                        ir_text=artifact["ir"],
                        diagnostics_text=diag_text,
                        key=k_opt,
                        hit=False,
                        resumed_from="module",
                        origin="compiled",
                        stage_keys=stage_keys,
                    )

    # Cold: the full pipeline.  strict=True means errors and ICEs
    # raise before any store below, so failures are never cached.
    result = compile_source(
        source,
        filename=filename,
        openmp=openmp,
        enable_irbuilder=enable_irbuilder,
        syntax_only=False,
        defines=defines,
        include_paths=include_paths,
        verify=True,
        strict=True,
        error_limit=error_limit,
        crash_reproducer_dir=crash_reproducer_dir,
        invocation=invocation,
        strip_omp_transforms=strip_omp_transforms,
    )
    assert result.module is not None
    diag_text = result.diagnostics_text()
    unopt_ir = result.ir_text()

    if k_cg is not None:
        cache.put_artifact(
            k_cg,
            {
                "stage": "codegen",
                "ir": unopt_ir,
                "diagnostics": diag_text,
                "source_id": src_id,
            },
        )
        # Per-function codegen memo: keyed by the function body's AST
        # dump, so an edit to one function registers every *other*
        # function as a codegen-level hit.  (Splicing cached function
        # text into a fresh module is unsound — module-level metadata
        # numbering is global — so this memo only feeds accounting
        # and the stored per-function IR snapshots.)
        for fn in result.translation_unit.functions():
            if fn.body is None:
                continue
            fn_key = stage_key(
                "fn-codegen",
                None,
                [mode, fn.name, dump_ast(fn.body, dump_shadow=True)],
            )
            if cache.has_function(fn_key):
                FUNCTION_HITS.inc()
            else:
                ir_fn = result.module.functions.get(fn.name)
                cache.put_function(
                    fn_key,
                    print_function(ir_fn) if ir_fn is not None else "",
                )
        # Memoize the unoptimized module for O0 -> O1 resume.  When
        # the mid-end is about to mutate it, memoize a private copy.
        cache.put_module(
            k_cg,
            _copy.deepcopy(result.module) if optimize else result.module,
        )

    if optimize:
        with crash_context(
            source, filename, invocation, crash_reproducer_dir
        ):
            default_pass_pipeline(
                remarks=result.diagnostics.remarks
            ).run(result.module)
            with time_trace_scope("Verify", filename):
                verify_module(result.module)
        final_ir = result.ir_text()
        if k_opt is not None:
            cache.put_artifact(
                k_opt,
                {
                    "stage": "opt",
                    "ir": final_ir,
                    "diagnostics": diag_text,
                    "source_id": src_id,
                },
            )
    else:
        final_ir = unopt_ir

    if final_key is not None and allow_alias:
        cache.put_alias(raw_key, final_key)
    return CachedCompile(
        ir_text=final_ir,
        diagnostics_text=diag_text,
        key=final_key if final_key is not None else raw_key,
        hit=False,
        resumed_from=None,
        origin="compiled",
        stage_keys=stage_keys,
    )


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
    stdout.  ``optimize=True`` additionally runs the mid-end pass
    pipeline (incl. the LoopUnroll pass that consumes the
    ``llvm.loop.unroll.*`` metadata emitted for the paper's unroll
    directive); ``instrument`` threads a
    :class:`~repro.instrument.PassInstrumentation` through it.

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
    from repro.exec import create_interpreter
    from repro.interp.interpreter import InterpreterError, Trap
    from repro.runtime.team import TeamError

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
    )
    assert result.module is not None
    with crash_context(
        source, filename, invocation, crash_reproducer_dir
    ):
        if optimize:
            from repro.midend import default_pass_pipeline

            default_pass_pipeline(
                remarks=result.diagnostics.remarks,
                instrument=instrument,
            ).run(result.module, instrument)
            verify_module(result.module)
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
                "interpret",
                passthrough=(
                    InterpreterError, Trap, MemoryError_, TeamError
                ),
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
    from repro.interp.interpreter import InterpreterError, Trap
    from repro.runtime.team import TeamError

    enable_irbuilder = mode == "irbuilder"
    before = STATS.snapshot()

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
        )
        if optimize and result.module is not None:
            from repro.midend import default_pass_pipeline

            default_pass_pipeline(
                remarks=result.diagnostics.remarks
            ).run(result.module)
            verify_module(result.module)
        return finish("ok", output=result.ir_text(), exit_code=0)
    except CompilationError as exc:
        kind = "ice" if exc.ice else "compile-error"
        return finish(kind, diagnostics=exc.diagnostics_text)
    except InternalCompilerError as exc:
        return finish("ice", detail=exc.render())
    except InjectedFault as exc:
        # A service-level fault site fired outside any recovery scope.
        return finish("ice", detail=str(exc))
    except Exception as exc:
        from repro.interp import ExecutionTimeout

        if isinstance(exc, ExecutionTimeout):
            return finish("timeout", detail=str(exc))
        if isinstance(
            exc, (Trap, InterpreterError, MemoryError_, TeamError)
        ):
            return finish("guest-error", detail=str(exc))
        return finish(
            "ice", detail=f"{type(exc).__name__}: {exc}"
        )


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
