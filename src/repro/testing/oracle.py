"""The differential-execution oracle.

Runs one program under several configurations and reports the first
observable divergence.  The *reference* configuration is
``--strip-omp-transforms`` (the directives removed): by the paper's
semantics-preservation claim every transformed configuration must
match it byte-for-byte on stdout and exit code.  When the generator's
python-side simulation is available it is used as an additional,
compiler-independent ground truth (including the ``sum(trip counts)``
invariant carried in the ``trips=N`` stdout line).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.pipeline import CompilationError, failure_kind, run_source
from repro.testing.generator import GeneratedProgram

#: retired-instruction budget per run; generated programs are tiny, so
#: exhausting this means the transformation manufactured a (near-)
#: infinite loop — itself a reportable divergence.
DEFAULT_FUEL = 2_000_000

_TRIPS_RE = re.compile(r"\btrips=(-?\d+)")


@dataclass(frozen=True)
class Config:
    """One way of compiling+running the program under test.

    ``via_service=True`` routes the run through the shared resilient
    compile service (worker-pool isolation) instead of the in-process
    pipeline — the service then becomes a differential configuration of
    its own: its retry/degradation machinery must be semantics-neutral.

    ``cached=True`` additionally compiles through the content-addressed
    compilation cache — cold, warm, and stage-resumed — and
    byte-compares every cached result against the uncached pipeline
    before running: the cache must be invisible to the semantics.

    ``exec_engine="closures"`` executes on the closure-compiled engine
    *and* races it against the reference interpreter on the same
    program: stdout, exit code, error classification and the execution
    profile (total/per-thread retired instructions, barrier/fork
    accounting, per-block counts) must all match, or the run reports an
    ``exec-divergence``.  Both engines then run again on a fuel drawn
    inside the reference's instruction count, and must run out of it
    on the same instruction with the same scheduler snapshot.
    """

    name: str
    enable_irbuilder: bool = False
    optimize: bool = False
    strip_omp_transforms: bool = False
    via_service: bool = False
    cached: bool = False
    exec_engine: str = "interp"

    def run(
        self,
        source: str,
        num_threads: int,
        fuel: int,
        exec_engine: str | None = None,
        profile_detail: bool = False,
    ):
        return run_source(
            source,
            num_threads=num_threads,
            enable_irbuilder=self.enable_irbuilder,
            optimize=self.optimize,
            strip_omp_transforms=self.strip_omp_transforms,
            fuel=fuel,
            exec_engine=(
                self.exec_engine if exec_engine is None else exec_engine
            ),
            profile_detail=profile_detail,
        )


#: the standing configuration matrix; "stripped" is the reference and
#: must stay last so its outcome is computed exactly once.
DEFAULT_CONFIGS: tuple[Config, ...] = (
    Config("shadow"),
    Config("irbuilder", enable_irbuilder=True),
    Config("midend-O1", optimize=True),
    Config("irbuilder-O1", enable_irbuilder=True, optimize=True),
    Config("stripped", strip_omp_transforms=True),
)


@dataclass
class Divergence:
    """One semantics divergence between configurations."""

    kind: str  # stdout / exit-code / trips / expected-stdout /
    #          # transformed-compile-error / stripped-compile-error /
    #          # timeout / ice / cache-divergence / exec-divergence
    config: str  # the configuration that disagreed
    detail: str
    source: str
    seed: Optional[int] = None
    features: tuple[str, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        head = f"[{self.kind}] config '{self.config}'"
        if self.seed is not None:
            head += f" (seed {self.seed})"
        if self.features:
            head += f" features={','.join(self.features)}"
        return head + "\n" + self.detail


@dataclass
class _Outcome:
    stdout: Optional[str] = None
    exit_code: Optional[int] = None
    #: "compile-error" / "guest-error" / "timeout" / "ice" (see
    #: :func:`repro.pipeline.failure_kind`)
    error: Optional[str] = None
    error_detail: str = ""


def _failure(exc: Exception) -> _Outcome:
    """The outcome of a configuration whose compile or run raised
    *exc*, classified as the compile service classifies it."""
    from repro.core.crash_recovery import InternalCompilerError
    from repro.interp import ExecutionTimeout

    kind = failure_kind(exc)
    if isinstance(
        exc, (CompilationError, ExecutionTimeout, InternalCompilerError)
    ):
        return _Outcome(error=kind, error_detail=str(exc))
    # a guest failure, or an escape that is itself a finding
    return _Outcome(error=kind, error_detail=f"{type(exc).__name__}: {exc}")


def _run_config(
    config: Config, source: str, num_threads: int, fuel: int
) -> _Outcome:
    if config.via_service:
        return _run_config_via_service(config, source, num_threads, fuel)
    if config.exec_engine != "interp":
        return _run_config_dual_engine(config, source, num_threads, fuel)
    try:
        if config.cached:
            mismatch = _cache_identity_mismatch(config, source)
            if mismatch is not None:
                return _Outcome(
                    error="cache-divergence", error_detail=mismatch
                )
        result = config.run(source, num_threads, fuel)
    except Exception as exc:
        return _failure(exc)
    code = result.exit_code if isinstance(result.exit_code, int) else 0
    return _Outcome(stdout=result.stdout, exit_code=code)


def _engine_outcome(
    config: Config,
    source: str,
    num_threads: int,
    fuel: int,
    engine: str,
) -> tuple[_Outcome, Optional[dict]]:
    """Run one configuration on one engine; outcome plus the execution
    profile fingerprint (None unless the run completed)."""
    from repro.exec import profile_fingerprint

    try:
        result = config.run(
            source,
            num_threads,
            fuel,
            exec_engine=engine,
            profile_detail=True,
        )
    except Exception as exc:
        return _failure(exc), None
    code = result.exit_code if isinstance(result.exit_code, int) else 0
    return (
        _Outcome(stdout=result.stdout, exit_code=code),
        profile_fingerprint(result.interpreter.profile),
    )


def _run_config_dual_engine(
    config: Config, source: str, num_threads: int, fuel: int
) -> _Outcome:
    """The engine oracle: execute the configuration under the reference
    interpreter AND the closure engine; any observable difference —
    stdout, exit code, error classification/detail, or the execution
    profile fingerprint — is an ``exec-divergence``.  When the engines
    agree the closure outcome stands in for the configuration, so it is
    additionally compared against the stripped reference like every
    other transformed config."""
    ref, ref_fp = _engine_outcome(
        config, source, num_threads, fuel, "interp"
    )
    out, out_fp = _engine_outcome(
        config, source, num_threads, fuel, config.exec_engine
    )
    if (ref.error, ref.error_detail) != (out.error, out.error_detail):
        return _Outcome(
            error="exec-divergence",
            error_detail=(
                f"error classification differs:\n"
                f"interp:   {ref.error!r} {ref.error_detail!r}\n"
                f"{config.exec_engine}: {out.error!r} "
                f"{out.error_detail!r}"
            ),
        )
    if out.error is not None:
        # both engines failed identically — report it as the underlying
        # failure so check_source's invalid-program logic applies
        return out
    if out.stdout != ref.stdout:
        return _Outcome(
            error="exec-divergence",
            error_detail=(
                f"stdout differs:\n"
                f"interp:   {ref.stdout!r}\n"
                f"{config.exec_engine}: {out.stdout!r}"
            ),
        )
    if out.exit_code != ref.exit_code:
        return _Outcome(
            error="exec-divergence",
            error_detail=(
                f"exit code differs: interp {ref.exit_code}, "
                f"{config.exec_engine} {out.exit_code}"
            ),
        )
    if out_fp != ref_fp:
        diffs = [
            f"  {key}: interp={ref_fp[key]!r} "
            f"{config.exec_engine}={out_fp[key]!r}"
            for key in ref_fp
            if ref_fp[key] != out_fp[key]
        ]
        return _Outcome(
            error="exec-divergence",
            error_detail="execution profile differs:\n"
            + "\n".join(diffs),
        )
    total = ref_fp["total_instructions"]
    if total > 1:
        # Its own stream, keyed by the program: the generator's draws
        # stay as they were.
        fuel = random.Random(f"exec-fuel:{source}").randrange(1, total)
        ref_stop = _fuel_stop(config, source, num_threads, fuel, "interp")
        out_stop = _fuel_stop(
            config, source, num_threads, fuel, config.exec_engine
        )
        if out_stop != ref_stop:
            return _Outcome(
                error="exec-divergence",
                error_detail=(
                    f"outcome at fuel {fuel} of {total} differs:\n"
                    f"interp:   {ref_stop!r}\n"
                    f"{config.exec_engine}: {out_stop!r}"
                ),
            )
    return out


def _fuel_stop(
    config: Config, source: str, num_threads: int, fuel: int, engine: str
) -> tuple:
    """How a run on *engine* ends on *fuel*: the guardrail's message
    and rendered scheduler snapshot, or whatever else happened."""
    from repro.interp import ExecutionTimeout

    try:
        result = config.run(source, num_threads, fuel, exec_engine=engine)
    except ExecutionTimeout as exc:
        snapshot = exc.snapshot.render() if exc.snapshot else None
        return ("timeout", str(exc), snapshot)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return ("completed", result.stdout, result.exit_code)


#: one cache shared across a campaign's seeds, like a developer's
#: long-lived cache directory — keys are content addresses, so reuse
#: across unrelated programs is exactly what must stay sound
_ORACLE_CACHE = None


def _cache_identity_mismatch(
    config: Config, source: str
) -> Optional[str]:
    """The cache oracle: compile *source* through the memoized pipeline
    at both optimization levels, twice each (the second compile must be
    a cache hit), and byte-compare every IR/diagnostics result against
    the uncached pipeline.  Returns a description of the first
    mismatch, None when the cache is byte-invisible.  Compilation
    errors propagate to the caller's normal error mapping.
    """
    import difflib

    global _ORACLE_CACHE
    from repro.cache import CompilationCache
    from repro.pipeline import compile_source, compile_source_cached

    if _ORACLE_CACHE is None:
        _ORACLE_CACHE = CompilationCache()
    cache = _ORACLE_CACHE

    def compile_cached(optimize: bool):
        return compile_source_cached(
            source,
            cache,
            enable_irbuilder=config.enable_irbuilder,
            optimize=optimize,
            strip_omp_transforms=config.strip_omp_transforms,
        )

    def compile_cold(optimize: bool) -> tuple[str, str]:
        result = compile_source(
            source,
            enable_irbuilder=config.enable_irbuilder,
            strip_omp_transforms=config.strip_omp_transforms,
            optimize=optimize,
        )
        return result.ir_text(), result.diagnostics_text()

    for optimize in (False, True):
        level = f"O{int(optimize)}"
        first = compile_cached(optimize)
        again = compile_cached(optimize)
        ref_ir, ref_diags = compile_cold(optimize)
        for label, cc in (("first", first), ("repeat", again)):
            if cc.ir_text != ref_ir:
                diff = "\n".join(
                    list(
                        difflib.unified_diff(
                            ref_ir.splitlines(),
                            cc.ir_text.splitlines(),
                            "cold-ir",
                            f"cached-ir[{label}]",
                            lineterm="",
                        )
                    )[:40]
                )
                return (
                    f"[{level} {label} resume={cc.resumed_from} "
                    f"origin={cc.origin}] cached IR differs from the "
                    f"uncached pipeline:\n{diff}"
                )
            if cc.diagnostics_text != ref_diags:
                return (
                    f"[{level} {label} resume={cc.resumed_from}] "
                    f"cached diagnostics differ:\n"
                    f"cached: {cc.diagnostics_text!r}\n"
                    f"cold:   {ref_diags!r}"
                )
        if not again.hit:
            return (
                f"[{level}] repeat compile missed the cache "
                f"(resume={again.resumed_from})"
            )
    return None


def _run_config_via_service(
    config: Config, source: str, num_threads: int, fuel: int
) -> _Outcome:
    """Execute one configuration on the shared compile service and map
    its terminal response onto the oracle's outcome shape."""
    from repro.service import (
        STATUS_ERROR,
        STATUS_TIMEOUT,
        CompileRequest,
        shared_service,
    )

    service = shared_service()
    [response] = service.process_batch(
        [
            CompileRequest(
                source=source,
                action="run",
                mode="irbuilder" if config.enable_irbuilder else "shadow",
                optimize=config.optimize,
                num_threads=num_threads,
                fuel=fuel,
                strip_omp_transforms=config.strip_omp_transforms,
            )
        ]
    )
    if response.ok:
        code = (
            response.exit_code
            if isinstance(response.exit_code, int)
            else 0
        )
        return _Outcome(stdout=response.output, exit_code=code)
    if response.status == STATUS_ERROR:
        # the service answers both user-side failures with an error
        kind = "compile-error" if response.diagnostics else "guest-error"
        return _Outcome(
            error=kind,
            error_detail=response.diagnostics or response.detail,
        )
    if response.status == STATUS_TIMEOUT:
        return _Outcome(error="timeout", error_detail=response.detail)
    # ice, circuit-open, resource-exhausted: all internal failures
    return _Outcome(error="ice", error_detail=response.detail)


def check_source(
    source: str,
    expected_stdout: Optional[str] = None,
    expected_trips: Optional[int] = None,
    configs: tuple[Config, ...] = DEFAULT_CONFIGS,
    num_threads: int = 3,
    fuel: int = DEFAULT_FUEL,
    seed: Optional[int] = None,
    features: tuple[str, ...] = (),
) -> Optional[Divergence]:
    """Differentially execute *source*; return the first divergence or
    None.

    A program that fails to compile in the *reference* (stripped)
    configuration AND in every transformed one is treated as invalid
    input, not as a divergence — that keeps the shrinker from walking
    into garbage programs.
    """
    reference = configs[-1]
    assert reference.strip_omp_transforms, (
        "the last config must be the stripped reference"
    )
    ref = _run_config(reference, source, num_threads, fuel)

    def make(kind: str, config: str, detail: str) -> Divergence:
        return Divergence(
            kind=kind,
            config=config,
            detail=detail,
            source=source,
            seed=seed,
            features=features,
        )

    for config in configs[:-1]:
        out = _run_config(config, source, num_threads, fuel)
        if out.error == "exec-divergence":
            # Engine disagreement is a finding regardless of whether
            # the reference configuration happens to error too.
            return make("exec-divergence", config.name, out.error_detail)
        if out.error is not None and ref.error is not None:
            continue  # invalid program everywhere: not interesting
        if out.error is not None:
            kind = (
                "transformed-compile-error"
                if out.error == "compile-error"
                else out.error
            )
            return make(kind, config.name, out.error_detail)
        if ref.error is not None:
            kind = (
                "stripped-compile-error"
                if ref.error == "compile-error"
                else f"stripped-{ref.error}"
            )
            return make(kind, reference.name, ref.error_detail)
        if out.stdout != ref.stdout:
            return make(
                "stdout",
                config.name,
                f"transformed ({config.name}): {out.stdout!r}\n"
                f"stripped reference:          {ref.stdout!r}",
            )
        if out.exit_code != ref.exit_code:
            return make(
                "exit-code",
                config.name,
                f"transformed ({config.name}) exit {out.exit_code}, "
                f"stripped exit {ref.exit_code}",
            )
        if expected_stdout is not None and out.stdout != expected_stdout:
            return make(
                "expected-stdout",
                config.name,
                f"run output:         {out.stdout!r}\n"
                f"simulation expects: {expected_stdout!r}",
            )
        if expected_trips is not None and out.stdout is not None:
            m = _TRIPS_RE.search(out.stdout)
            if m is None or int(m.group(1)) != expected_trips:
                got = m.group(1) if m else "<missing>"
                return make(
                    "trips",
                    config.name,
                    f"sum(trip counts) invariant violated: "
                    f"got trips={got}, simulation expects "
                    f"{expected_trips}",
                )
    if ref.error is not None:
        # every transformed config failed too (we'd have returned
        # otherwise only if one succeeded) — invalid program.
        return None
    if expected_stdout is not None and ref.stdout != expected_stdout:
        return make(
            "expected-stdout",
            reference.name,
            f"run output:         {ref.stdout!r}\n"
            f"simulation expects: {expected_stdout!r}",
        )
    return None


def check_program(
    program: GeneratedProgram,
    configs: tuple[Config, ...] = DEFAULT_CONFIGS,
    num_threads: int = 3,
    fuel: int = DEFAULT_FUEL,
) -> Optional[Divergence]:
    """Oracle entry point for generated programs (adds the simulation
    ground truth and the trip-count invariant)."""
    return check_source(
        program.source,
        expected_stdout=program.expected_stdout,
        expected_trips=program.expected_trips,
        configs=configs,
        num_threads=num_threads,
        fuel=fuel,
        seed=program.seed,
        features=program.features,
    )
