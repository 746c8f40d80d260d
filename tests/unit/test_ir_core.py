"""Unit tests: IR types, values, IRBuilder folding, verifier, printer."""

import pytest

from repro.ir import (
    ArrayType,
    ConstantInt,
    Function,
    FunctionType,
    IRBuilder,
    IntType,
    Module,
    StructType,
    VerificationError,
    double_t,
    float_t,
    i1,
    i8,
    i32,
    i64,
    loop_metadata,
    print_module,
    ptr,
    verify_module,
    void_t,
)
from repro.ir.instructions import BinOp, CastOp, ICmpPred
from repro.ir.metadata import get_unroll_count, has_flag, UNROLL_FULL


@pytest.fixture
def env():
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(i32, [i32]))
    block = fn.append_block("entry")
    b = IRBuilder(mod)
    b.set_insert_point(block)
    return mod, fn, b


class TestIRTypes:
    def test_int_types_uniqued(self):
        assert IntType(32) is IntType(32)
        assert IntType(32) is not IntType(64)

    def test_sizes(self):
        assert i32.size_bytes() == 4
        assert i64.size_bytes() == 8
        assert i1.size_bytes() == 1
        assert ptr.size_bytes() == 8
        assert double_t.size_bytes() == 8
        assert ArrayType(i32, 10).size_bytes() == 40

    def test_wrapping(self):
        assert i8.wrap(256) == 0
        assert i8.wrap(-1) == 255
        assert i8.to_signed(255) == -1
        assert i8.to_signed(127) == 127

    def test_struct_layout(self):
        st = StructType([i8, i64, i32])
        assert st.offset_of(0) == 0
        assert st.offset_of(1) == 8
        assert st.offset_of(2) == 16
        assert st.size_bytes() == 24

    def test_str_forms(self):
        assert str(i32) == "i32"
        assert str(ptr) == "ptr"
        assert str(float_t) == "float"
        assert str(ArrayType(i8, 3)) == "[3 x i8]"


class TestConstants:
    def test_constant_wraps(self):
        c = ConstantInt(i8, 300)
        assert c.value == 44

    def test_signed_value(self):
        c = ConstantInt(i32, -5)
        assert c.value == (1 << 32) - 5
        assert c.signed_value == -5

    def test_i1_prints_true_false(self):
        assert ConstantInt(i1, 1).ref() == "true"
        assert ConstantInt(i1, 0).ref() == "false"


class TestBuilderFolding:
    def test_constant_add_folds(self, env):
        _, _, b = env
        out = b.add(b.const_int(i32, 2), b.const_int(i32, 3))
        assert isinstance(out, ConstantInt) and out.value == 5

    def test_add_zero_identity(self, env):
        _, fn, b = env
        out = b.add(fn.args[0], b.const_int(i32, 0))
        assert out is fn.args[0]

    def test_mul_one_identity(self, env):
        _, fn, b = env
        out = b.mul(fn.args[0], b.const_int(i32, 1))
        assert out is fn.args[0]

    def test_mul_zero_folds(self, env):
        _, fn, b = env
        out = b.mul(fn.args[0], b.const_int(i32, 0))
        assert isinstance(out, ConstantInt) and out.value == 0

    def test_sdiv_negative(self, env):
        _, _, b = env
        out = b.binop(
            BinOp.SDIV, b.const_int(i32, -7), b.const_int(i32, 2)
        )
        assert out.signed_value == -3  # C truncation toward zero

    def test_div_by_zero_not_folded(self, env):
        _, _, b = env
        out = b.binop(
            BinOp.UDIV, b.const_int(i32, 8), b.const_int(i32, 0)
        )
        assert not isinstance(out, ConstantInt)

    def test_icmp_folds(self, env):
        _, _, b = env
        out = b.icmp(
            ICmpPred.SLT, b.const_int(i32, -1), b.const_int(i32, 1)
        )
        assert isinstance(out, ConstantInt) and out.value == 1

    def test_icmp_unsigned_vs_signed(self, env):
        _, _, b = env
        # -1 as unsigned is huge.
        out = b.icmp(
            ICmpPred.ULT, b.const_int(i32, -1), b.const_int(i32, 1)
        )
        assert out.value == 0

    def test_cast_folds(self, env):
        _, _, b = env
        out = b.cast(CastOp.SEXT, b.const_int(i8, -1), i64)
        assert isinstance(out, ConstantInt)
        assert out.signed_value == -1
        out2 = b.cast(CastOp.ZEXT, b.const_int(i8, 255), i64)
        assert out2.value == 255

    def test_cond_br_on_constant_becomes_br(self, env):
        mod, fn, b = env
        t = fn.append_block("t")
        f = fn.append_block("f")
        inst = b.cond_br(b.true(), t, f)
        from repro.ir.instructions import BranchInst

        assert isinstance(inst, BranchInst)
        assert inst.target is t

    def test_select_folds(self, env):
        _, fn, b = env
        out = b.select(
            b.false(), b.const_int(i32, 1), b.const_int(i32, 2)
        )
        assert out.value == 2

    def test_no_folding_when_disabled(self, env):
        _, _, b = env
        b.folding_enabled = False
        out = b.add(b.const_int(i32, 2), b.const_int(i32, 3))
        assert not isinstance(out, ConstantInt)

    def test_insertion_callback(self, env):
        """Paper §1.3: the IRBuilder 'offers a callback interface that
        can make modifications on just inserted instructions'."""
        _, fn, b = env
        seen = []
        b.insertion_callback = seen.append
        b.add(fn.args[0], b.const_int(i32, 7))
        assert len(seen) == 1
        assert seen[0].opcode == "binop"


class TestNaming:
    def test_unique_names(self, env):
        _, fn, b = env
        a = b.add(fn.args[0], b.const_int(i32, 1), "x")
        c = b.add(fn.args[0], b.const_int(i32, 2), "x")
        assert a.name == "x"
        assert c.name == "x.1"


class TestVerifier:
    def test_valid_function_passes(self, env):
        mod, fn, b = env
        b.ret(b.const_int(i32, 0))
        verify_module(mod)

    def test_missing_terminator(self, env):
        mod, fn, b = env
        b.add(fn.args[0], b.const_int(i32, 1))
        with pytest.raises(VerificationError, match="terminator"):
            verify_module(mod)

    def test_phi_incoming_mismatch(self, env):
        mod, fn, b = env
        other = fn.append_block("other")
        b.br(other)
        b.set_insert_point(other)
        phi = b.phi(i32)
        phi.add_incoming(b.const_int(i32, 1), other)  # wrong pred
        b.ret(phi)
        with pytest.raises(VerificationError, match="phi"):
            verify_module(mod)

    def test_condbr_requires_i1(self, env):
        mod, fn, b = env
        t = fn.append_block("t")
        f = fn.append_block("f")
        from repro.ir.instructions import CondBranchInst

        b.insert_block.append(CondBranchInst(fn.args[0], t, f))
        bt = IRBuilder(mod)
        bt.set_insert_point(t)
        bt.ret(bt.const_int(i32, 0))
        bt.set_insert_point(f)
        bt.ret(bt.const_int(i32, 0))
        with pytest.raises(VerificationError, match="i1"):
            verify_module(mod)


class TestPrinter:
    def test_prints_core_constructs(self, env):
        mod, fn, b = env
        added = b.add(fn.args[0], b.const_int(i32, 41), "x")
        b.ret(added)
        text = print_module(mod)
        assert "define i32 @f(i32 %arg0)" in text
        assert "%x = add i32 %arg0, 41" in text
        assert "ret i32 %x" in text

    def test_prints_metadata(self, env):
        mod, fn, b = env
        loop_bb = fn.append_block("loop")
        br = b.br(loop_bb)
        br.metadata["llvm.loop"] = loop_metadata(unroll_count=4)
        b.set_insert_point(loop_bb)
        b.ret(b.const_int(i32, 0))
        text = print_module(mod)
        assert "!llvm.loop" in text
        assert '!"llvm.loop.unroll.count", i32 4' in text

    def test_declarations_printed(self):
        mod = Module("m")
        mod.add_function("ext", FunctionType(void_t, [ptr, i32]))
        assert "declare void @ext(ptr, i32)" in print_module(mod)

    def test_global_with_bytes(self):
        mod = Module("m")
        gv = mod.add_global(".str", ArrayType(i8, 3), is_constant=True)
        gv.initializer_bytes = b"ab\x00"
        text = print_module(mod)
        assert '@.str = constant [3 x i8] c"ab\\00"' in text


class TestLoopMetadata:
    def test_roundtrip_count(self):
        md = loop_metadata(unroll_count=8)
        assert get_unroll_count(md) == 8

    def test_flags(self):
        md = loop_metadata(unroll_full=True)
        assert has_flag(md, UNROLL_FULL)
        assert get_unroll_count(md) is None

    def test_distinct_self_reference(self):
        md = loop_metadata(unroll_enable=True)
        assert md.distinct
        assert md.operands[0] is md


class TestConstantFPSpelling:
    """Finite constants print as ``%e``; infinities and NaNs as LLVM
    spells them, by the bits of the double."""

    @pytest.mark.parametrize("ty", [double_t, float_t], ids=str)
    def test_non_finite_constants_print_their_bits(self, ty):
        from repro.ir.values import ConstantFP

        assert ConstantFP(ty, float("inf")).ref() == "0x7FF0000000000000"
        assert ConstantFP(ty, float("-inf")).ref() == "0xFFF0000000000000"
        assert ConstantFP(ty, float("nan")).ref() == "0x7FF8000000000000"

    def test_finite_constants_keep_their_spelling(self):
        from repro.ir.values import ConstantFP

        assert ConstantFP(double_t, 0.1).ref() == "1.000000e-01"
        assert ConstantFP(double_t, -0.0).ref() == "-0.000000e+00"
        assert ConstantFP(float_t, 3.0).ref() == "3.000000e+00"

    def test_folded_inf_in_printed_ir(self):
        from repro.pipeline import compile_source

        ir = compile_source(
            "int main(void) { return (int)(1e308 * 10.0); }"
        ).ir_text()
        assert "fptosi double 0x7FF0000000000000 to i32" in ir
        assert " inf" not in ir
