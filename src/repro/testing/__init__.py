"""Metamorphic differential testing of the loop transformations.

The paper's central claim is *semantics preservation*: a program
annotated with ``#pragma omp unroll`` / ``tile`` (and the 6.0
``reverse`` / ``interchange`` / ``fuse`` extensions) must behave
exactly like the same program with those directives removed.  This
package turns that claim into an executable oracle:

* :mod:`repro.testing.generator` — a seeded generator of canonical
  loop nests (affine bounds, reductions, disjoint keyed writes,
  nested/composed directives) whose observable output is iteration-
  order independent, together with a python-side simulation that
  predicts the exact expected stdout;
* :mod:`repro.testing.oracle` — runs one program under several
  configurations (shadow AST, OpenMPIRBuilder, mid-end ``-O``,
  ``--strip-omp-transforms``) and reports the first divergence in
  stdout / exit code / trip-count invariants;
* :mod:`repro.testing.shrink` — delta-debugging (ddmin over source
  lines plus integer-literal shrinking) to minimize failures;
* :mod:`repro.testing.fuzz` — the campaign driver
  (``python -m repro.testing.fuzz --count 200 --seed 1``), writing
  self-contained reproducers in the ``-crash-reproducer-dir`` layout
  of :mod:`repro.core.crash_recovery`.  It is not re-exported here:
  ``python -m`` would then find it imported before it runs as
  ``__main__`` and warn.
"""

from repro.testing.generator import (
    GeneratedProgram,
    LoopSpec,
    generate_program,
)
from repro.testing.oracle import (
    DEFAULT_CONFIGS,
    Config,
    Divergence,
    check_program,
    check_source,
)
from repro.testing.shrink import shrink_source

__all__ = [
    "GeneratedProgram",
    "LoopSpec",
    "generate_program",
    "Config",
    "DEFAULT_CONFIGS",
    "Divergence",
    "check_program",
    "check_source",
    "shrink_source",
]
