"""Pass manager: ordered function-pass pipeline over a module, and the
per-function analysis cache its passes share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.crash_recovery import pretty_stack_entry, recovery_scope
from repro.instrument import PassInstrumentation, get_statistic, time_trace_scope
from repro.instrument.faultinject import FAULTS
from repro.instrument.passinstrument import PassVerificationError
from repro.ir.module import BasicBlock, Function, Module, predecessor_map
from repro.midend.cfg import postorder
from repro.midend.dominators import DominatorTree
from repro.midend.loopinfo import LoopInfo

#: every analysis :class:`FunctionAnalysisManager` caches; all of them
#: are functions of the CFG alone (blocks and terminator edges)
CFG_ANALYSES = frozenset({"predecessors", "postorder", "domtree", "loops"})


@dataclass(frozen=True)
class PreservedAnalyses:
    """The analyses a pass run left valid (LLVM's ``PreservedAnalyses``).

    A pass that rewrites instructions but no block or terminator edge
    preserves :meth:`cfg`; one that adds, removes or retargets an edge
    preserves :meth:`none`; one that changed nothing, :meth:`all`.
    Every analysis cached today depends on the CFG alone, so
    :meth:`all` and :meth:`cfg` name the same set."""

    names: frozenset[str]

    @classmethod
    def all(cls) -> "PreservedAnalyses":
        return cls(CFG_ANALYSES)

    @classmethod
    def cfg(cls) -> "PreservedAnalyses":
        return cls(CFG_ANALYSES)

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        return cls(frozenset())

    def preserved(self, name: str) -> bool:
        return name in self.names


class FunctionAnalysisManager:
    """One function's analyses, each built on first request and kept
    until a pass reports it did not preserve it (LLVM's
    ``FunctionAnalysisManager``).

    The dominator tree and loop info are built from the cached
    predecessor map and postorder, so one CFG state costs at most one
    of each."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self._results: dict[str, object] = {}

    def invalidate(self, preserved: PreservedAnalyses) -> None:
        for name in list(self._results):
            if not preserved.preserved(name):
                del self._results[name]

    def predecessors(self) -> dict[int, list[BasicBlock]]:
        """:func:`~repro.ir.module.predecessor_map`; a pass that edits
        edges may keep it current in place (simplify-cfg does)."""
        preds = self._results.get("predecessors")
        if preds is None:
            preds = self._results["predecessors"] = predecessor_map(self.fn)
        return preds  # type: ignore[return-value]

    def postorder(self) -> list[BasicBlock]:
        """Reachable blocks in DFS postorder from the entry block."""
        post = self._results.get("postorder")
        if post is None:
            post = self._results["postorder"] = postorder(self.fn)
        return post  # type: ignore[return-value]

    def reachable(self) -> set[int]:
        """ids of blocks reachable from the entry block."""
        return {id(b) for b in self.postorder()}

    def domtree(self) -> DominatorTree:
        tree = self._results.get("domtree")
        if tree is None:
            tree = self._results["domtree"] = DominatorTree(
                self.fn, preds=self.predecessors(), post=self.postorder()
            )
        return tree  # type: ignore[return-value]

    def loops(self) -> LoopInfo:
        info = self._results.get("loops")
        if info is None:
            info = self._results["loops"] = LoopInfo(
                self.fn, domtree=self.domtree(), preds=self.predecessors()
            )
        return info  # type: ignore[return-value]


class FunctionPass:
    """Base class; subclasses set ``name`` and override one of:

    * :meth:`run`, which takes the function's analysis cache and
      returns whether anything changed plus which cached analyses still
      describe the function as the pass leaves it (the pipeline calls
      this).  A pass that changes the CFG and goes on using analyses
      invalidates the cache at the change, after which what it builds
      is current again;
    * :meth:`run_on_function`, which returns whether anything changed
      (the standalone entry point).

    Each default calls the other: a pass overriding only
    :meth:`run_on_function` is taken to preserve nothing when it
    changes something."""

    name = "<pass>"

    def run_on_function(self, fn: Function) -> bool:
        return self.run(fn, FunctionAnalysisManager(fn))[0]

    def run(
        self, fn: Function, analyses: FunctionAnalysisManager
    ) -> tuple[bool, PreservedAnalyses]:
        changed = self.run_on_function(fn)
        return changed, (
            PreservedAnalyses.none() if changed else PreservedAnalyses.all()
        )


@dataclass
class PassRunInfo:
    """What one pass did during one :meth:`PassManager.run`."""

    name: str
    functions_visited: int = 0
    functions_changed: int = 0
    #: executions suppressed by -opt-bisect-limit
    functions_skipped: int = 0
    duration_s: float = 0.0

    @property
    def changed(self) -> bool:
        return self.functions_changed > 0


@dataclass
class PipelineRunResult:
    """Structured outcome of one pipeline run.

    Truthy exactly when any pass changed anything, so existing
    ``if pm.run(module):`` callers keep working.  Iterates over its
    :class:`PassRunInfo` entries in pipeline order.
    """

    passes: list[PassRunInfo] = field(default_factory=list)

    def __bool__(self) -> bool:
        return any(info.functions_changed for info in self.passes)

    def __iter__(self) -> Iterator[PassRunInfo]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    @property
    def changed(self) -> bool:
        return bool(self)

    def info(self, pass_name: str) -> PassRunInfo:
        for info in self.passes:
            if info.name == pass_name:
                return info
        valid = ", ".join(repr(info.name) for info in self.passes)
        raise KeyError(
            f"no pass '{pass_name}' in this run "
            f"(valid pass names: {valid or '<none>'})"
        )

    def changes_by_pass(self) -> dict[str, int]:
        return {info.name: info.functions_changed for info in self.passes}


_FUNCTIONS_CHANGED = get_statistic(
    "midend", "pass-function-changes",
    "Function visits in which some pass made a change",
)


@dataclass
class PassManager:
    passes: list[FunctionPass] = field(default_factory=list)
    #: default instrumentation threaded through :meth:`run` (a per-call
    #: ``instrument`` argument overrides it)
    instrument: Optional[PassInstrumentation] = None

    def add(self, pass_: FunctionPass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def pass_names(self) -> list[str]:
        """Registered pass names in pipeline order
        (``-print-pipeline-passes``)."""
        return [p.name for p in self.passes]

    def run(
        self,
        module: Module,
        instrument: Optional[PassInstrumentation] = None,
    ) -> PipelineRunResult:
        instrument = instrument if instrument is not None else self.instrument
        result = PipelineRunResult(
            passes=[PassRunInfo(p.name) for p in self.passes]
        )
        infos = {info.name: info for info in result.passes}
        for fn in list(module.functions.values()):
            if fn.is_declaration or not fn.blocks:
                continue
            analyses = FunctionAnalysisManager(fn)
            for pass_ in self.passes:
                info = infos[pass_.name]
                execution = None
                detail = fn.name
                if instrument is not None:
                    execution = instrument.start(pass_.name, fn)
                    if not execution.ran:
                        # (a skipped execution preserves every analysis)
                        info.functions_skipped += 1
                        continue
                    detail = f"{fn.name} (bisect {execution.index})"
                info.functions_visited += 1
                start = time.perf_counter()
                # Propagate-mode recovery: a crashing pass is an ICE for
                # the whole module (mid-end output is all-or-nothing),
                # but -verify-each failures keep their own identity.
                with recovery_scope(
                    "midend-pass",
                    passthrough=(PassVerificationError,),
                ), pretty_stack_entry(
                    f"running pass '{pass_.name}' on function "
                    f"'@{fn.name}'"
                ), time_trace_scope(f"Pass.{pass_.name}", detail):
                    if FAULTS.armed:
                        FAULTS.hit("midend-pass")
                    changed, preserved = pass_.run(fn, analyses)
                analyses.invalidate(preserved)
                info.duration_s += time.perf_counter() - start
                if changed:
                    info.functions_changed += 1
                    _FUNCTIONS_CHANGED.inc()
                if execution is not None:
                    instrument.finish(execution, fn, changed)
        return result


def default_pass_pipeline(
    remarks=None, instrument: Optional[PassInstrumentation] = None
) -> PassManager:
    """The -O pipeline the driver uses: unroll annotated loops, then
    clean up (fold the per-copy checks full unrolling leaves behind,
    delete dead code, merge straight-line blocks).

    ``remarks`` (a :class:`~repro.instrument.RemarkEmitter`) receives the
    optimization remarks of remark-aware passes (currently LoopUnroll);
    ``instrument`` (a :class:`~repro.instrument.PassInstrumentation`) is
    threaded through every pass-on-function execution.
    """
    from repro.midend.constant_fold import ConstantFoldPass
    from repro.midend.dce import DeadCodeEliminationPass
    from repro.midend.loop_unroll import LoopUnrollPass
    from repro.midend.mem2reg import Mem2RegPass
    from repro.midend.simplify_cfg import SimplifyCFGPass

    if instrument is not None and instrument.remarks is None:
        instrument.remarks = remarks

    # LoopUnroll runs first: it pattern-matches the memory-form induction
    # variables the front-end emits; mem2reg then promotes what remains.
    return PassManager(
        passes=[
            LoopUnrollPass(remarks=remarks),
            Mem2RegPass(),
            ConstantFoldPass(),
            SimplifyCFGPass(),
            DeadCodeEliminationPass(),
        ],
        instrument=instrument,
    )
