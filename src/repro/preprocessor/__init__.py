"""Preprocessor layer (paper Fig. 1).

Implements the subset of the C preprocessor the reproduction needs:

* ``#include`` (quoted and angled, via :class:`repro.sourcemgr.FileManager`),
* object-like and function-like ``#define`` / ``#undef`` with ``#``
  stringification and ``##`` pasting,
* conditional compilation ``#if/#ifdef/#ifndef/#elif/#else/#endif`` with a
  full constant-expression evaluator including ``defined(...)``,
* ``#line``, ``#error``, ``#warning``,
* ``#pragma omp ...`` — its tokens macro-expanded, as OpenMP specifies,
  and turned into the annotation-token sandwich
  ``ANNOT_PRAGMA_OPENMP <body tokens> ANNOT_PRAGMA_OPENMP_END`` exactly like
  clang, so that the Parser can treat an OpenMP directive as a statement
  introducer, and
* ``#pragma clang loop ...`` — turned into ``ANNOT_PRAGMA_LOOPHINT``; the
  paper's shadow-AST unroll implementation reuses this ``LoopHintAttr``
  mechanism for deferring unrolling to the mid-end.

The OpenMP `metadirective`-style per-target selection the paper motivates
(choosing different transformations per hardware) is exercised in the
examples via plain ``#if`` + ``-D`` definitions.
"""

from repro.preprocessor.macro import MacroInfo
from repro.preprocessor.preprocessor import Preprocessor, PreprocessorOptions

__all__ = ["MacroInfo", "Preprocessor", "PreprocessorOptions"]
