"""Mid-end: IR analyses and transformation passes.

The piece of the paper's story that lives *after* the front-end: the
``LoopUnroll`` pass interprets the ``llvm.loop.unroll.*`` metadata that
CodeGen attached for ``LoopHintAttr`` / the OpenMPIRBuilder's
``unroll_loop_*`` — "No duplication takes place until that point"
(paper §2.1) — performing full unrolling, partial unrolling with a
**remainder loop** (paper Listing 2), or heuristic unrolling.

Supporting analyses: CFG utilities, dominator tree, natural-loop
detection, cached per function by the pass manager's
``FunctionAnalysisManager``.  Supporting cleanups: constant folding,
dead-code elimination, CFG simplification.
"""

from repro.midend.cfg import postorder, reverse_postorder
from repro.midend.dominators import DominatorTree
from repro.midend.loopinfo import Loop, LoopInfo
from repro.midend.pass_manager import (
    FunctionAnalysisManager,
    FunctionPass,
    PassManager,
    PreservedAnalyses,
    default_pass_pipeline,
)
from repro.midend.loop_unroll import LoopUnrollPass, UnrollStats
from repro.midend.mem2reg import Mem2RegPass
from repro.midend.simplify_cfg import SimplifyCFGPass
from repro.midend.constant_fold import ConstantFoldPass
from repro.midend.dce import DeadCodeEliminationPass

__all__ = [
    "ConstantFoldPass",
    "DeadCodeEliminationPass",
    "DominatorTree",
    "FunctionAnalysisManager",
    "FunctionPass",
    "Loop",
    "LoopInfo",
    "LoopUnrollPass",
    "Mem2RegPass",
    "PassManager",
    "PreservedAnalyses",
    "SimplifyCFGPass",
    "UnrollStats",
    "default_pass_pipeline",
    "postorder",
    "reverse_postorder",
]
