"""The paper's primary contribution: the two loop-transformation
representations.

* :mod:`repro.core.shadow` — the **shadow AST** representation (paper §2):
  tile/unroll are applied at the Sema layer producing a transformed AST
  stored as a hidden child of ``OMPTileDirective``/``OMPUnrollDirective``;
  consuming directives re-analyse ``get_transformed_stmt()``.

* :mod:`repro.core.canonical` — the **canonical loop** representation
  (paper §3): a single ``OMPCanonicalLoop`` meta-node carrying the
  distance function, the loop user value function, and the user variable
  reference; code generation happens in the OpenMPIRBuilder
  (:mod:`repro.ompirbuilder`).
"""

from repro.core.shadow import ShadowTransformBuilder
from repro.core.canonical import (
    CanonicalLoopBuilder,
    build_canonical_loop,
)

__all__ = [
    "CanonicalLoopBuilder",
    "ShadowTransformBuilder",
    "build_canonical_loop",
]
