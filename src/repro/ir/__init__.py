"""A miniature LLVM-like IR (paper Fig. 1: the layer below CodeGen).

The subset needed to make the paper's code-generation story *executable*:

* typed SSA-ish instructions grouped into explicit basic blocks — the loop
  skeleton invariants of ``CanonicalLoopInfo`` (paper Fig. 7) require
  "explicit basic blocks for preheader, header, condition check, body
  entry, latch, exit and after",
* loop metadata (``llvm.loop.unroll.count`` etc.) attached to the latch
  terminator, consumed by the mid-end ``LoopUnroll`` pass,
* an :class:`~repro.ir.irbuilder.IRBuilder` that inserts after the
  previously inserted instruction and simplifies expressions on the fly
  (constant folding), as described in §1.3,
* the one constant folder (``fold_binop``, ``fold_icmp``, ``fold_cast``,
  ``fold_select``, ``fold_instruction`` in :mod:`repro.ir.irbuilder`)
  behind both the IRBuilder and the mid-end ``constant-fold`` pass,
* a verifier and a ``.ll``-style printer.
"""

from repro.ir.types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    IRType,
    LabelType,
    PointerType,
    StructType,
    VoidType,
    double_t,
    float_t,
    i1,
    i8,
    i16,
    i32,
    i64,
    ptr,
    void_t,
)
from repro.ir.values import (
    Argument,
    Constant,
    ConstantFP,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from repro.ir.module import BasicBlock, Function, Module, predecessor_map
from repro.ir.metadata import MDNode, MDString, loop_metadata
from repro.ir.irbuilder import IRBuilder
from repro.ir.printer import print_module
from repro.ir.verifier import VerificationError, verify_module

__all__ = [
    "Argument",
    "ArrayType",
    "BasicBlock",
    "Constant",
    "ConstantFP",
    "ConstantInt",
    "ConstantPointerNull",
    "FloatType",
    "Function",
    "FunctionType",
    "GlobalVariable",
    "IRBuilder",
    "IRType",
    "IntType",
    "LabelType",
    "MDNode",
    "MDString",
    "Module",
    "PointerType",
    "StructType",
    "UndefValue",
    "Value",
    "VerificationError",
    "VoidType",
    "double_t",
    "float_t",
    "i1",
    "i16",
    "i32",
    "i64",
    "i8",
    "loop_metadata",
    "predecessor_map",
    "print_module",
    "ptr",
    "verify_module",
    "void_t",
]
