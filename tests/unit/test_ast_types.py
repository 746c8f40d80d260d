"""Unit tests: the Type system and ASTContext layout (LP64)."""

import pytest

from repro.astlib.context import ASTContext
from repro.astlib.decls import EnumDecl, FieldDecl, RecordDecl, TypedefDecl
from repro.astlib import types
from repro.astlib.types import BuiltinKind, QualType, Type, desugar


@pytest.fixture
def ctx():
    return ASTContext()


class TestUniquing:
    def test_builtin_uniqued(self, ctx):
        assert ctx.int_type.type is ctx.int_type.type
        assert (
            ctx.get_builtin(BuiltinKind.INT).type
            is ctx.get_builtin(BuiltinKind.INT).type
        )

    def test_pointer_uniqued(self, ctx):
        a = ctx.get_pointer(ctx.int_type)
        b = ctx.get_pointer(ctx.int_type)
        assert a.type is b.type

    def test_pointer_qualified_pointee_distinct(self, ctx):
        a = ctx.get_pointer(ctx.int_type)
        b = ctx.get_pointer(ctx.int_type.with_const())
        assert a.type is not b.type

    def test_array_uniqued(self, ctx):
        a = ctx.get_constant_array(ctx.double_type, 8)
        b = ctx.get_constant_array(ctx.double_type, 8)
        c = ctx.get_constant_array(ctx.double_type, 9)
        assert a.type is b.type
        assert a.type is not c.type

    def test_function_uniqued(self, ctx):
        a = ctx.get_function(ctx.int_type, [ctx.int_type])
        b = ctx.get_function(ctx.int_type, [ctx.int_type])
        assert a.type is b.type


class TestClassification:
    def test_signed_unsigned(self, ctx):
        assert ctx.int_type.is_signed_integer()
        assert ctx.uint_type.is_unsigned_integer()
        assert not ctx.uint_type.is_signed_integer()
        assert ctx.double_type.is_floating()
        assert not ctx.double_type.is_integer()

    def test_scalar(self, ctx):
        assert ctx.int_type.is_scalar()
        assert ctx.get_pointer(ctx.void_type).is_scalar()
        arr = ctx.get_constant_array(ctx.int_type, 4)
        assert not arr.is_scalar()

    def test_bool_is_unsigned_integer(self, ctx):
        assert ctx.bool_type.is_unsigned_integer()


#: every classification method of Type that QualType forwards
TYPE_PREDICATES = sorted(
    name for name in vars(Type) if name.startswith("is_")
) + ["integer_rank"]


class TestPrecomputedPredicates:
    """BuiltinType computes its width, rank and classification once, in
    ``__init__``; they must agree with the tables they come from."""

    @pytest.mark.parametrize("kind", list(BuiltinKind))
    def test_builtin_predicates_match_tables(self, ctx, kind):
        ty = ctx.get_builtin(kind).type
        signed = kind in types._SIGNED_INTS
        unsigned = kind in types._UNSIGNED_INTS
        floating = kind in types._FLOATS
        assert ty.is_void() == (kind is BuiltinKind.VOID)
        assert ty.is_bool() == (kind is BuiltinKind.BOOL)
        assert ty.is_signed_integer() == signed
        assert ty.is_unsigned_integer() == unsigned
        assert ty.is_integer() == (signed or unsigned)
        assert ty.is_floating() == floating
        assert ty.is_arithmetic() == (signed or unsigned or floating)
        assert ty.is_scalar() == (signed or unsigned or floating)
        assert ty.width == types.BUILTIN_WIDTH[kind]
        if kind in types._RANK:
            assert ty.integer_rank() == types._RANK[kind]
        else:
            with pytest.raises(KeyError):
                ty.integer_rank()

    @pytest.mark.parametrize("kind", list(BuiltinKind))
    @pytest.mark.parametrize("name", TYPE_PREDICATES)
    def test_builtin_overrides_agree_with_type(self, ctx, kind, name):
        """An override answers what the generic Type method answers."""
        ty = ctx.get_builtin(kind).type
        generic = getattr(Type, name)
        if name == "integer_rank" and kind not in types._RANK:
            with pytest.raises(KeyError):
                generic(ty)
            return
        assert getattr(ty, name)() == generic(ty)

    def test_qualtype_defines_a_forwarder_for_every_predicate(self):
        assert "__getattr__" not in vars(QualType)
        missing = [n for n in TYPE_PREDICATES if n not in vars(QualType)]
        assert missing == []

    def test_forwarders_answer_what_the_type_answers(self, ctx):
        qualified = [
            ctx.int_type.with_const(),
            ctx.get_pointer(ctx.char_type),
            ctx.get_reference(ctx.int_type),
            ctx.get_constant_array(ctx.double_type, 4),
            ctx.get_function(ctx.void_type, []),
            ctx.get_record(RecordDecl("S")),
            ctx.get_enum(EnumDecl("E")),
            ctx.get_typedef(TypedefDecl("T", ctx.long_type)),
        ] + [ctx.get_builtin(kind) for kind in BuiltinKind]
        for qt in qualified:
            for name in TYPE_PREDICATES:
                if name == "integer_rank":
                    if isinstance(qt.type, types.BuiltinType) and (
                        qt.type.kind in types._RANK
                    ):
                        assert qt.integer_rank() == qt.type.integer_rank()
                    continue
                assert getattr(qt, name)() == getattr(qt.type, name)()

    def test_builtin_qualtype_is_interned(self, ctx):
        assert ctx.get_builtin(BuiltinKind.INT) is ctx.int_type
        assert ctx.int_type.with_const() is not ctx.int_type


class TestLP64Layout:
    @pytest.mark.parametrize(
        "kind,width",
        [
            (BuiltinKind.CHAR, 8),
            (BuiltinKind.SHORT, 16),
            (BuiltinKind.INT, 32),
            (BuiltinKind.LONG, 64),
            (BuiltinKind.LONGLONG, 64),
            (BuiltinKind.FLOAT, 32),
            (BuiltinKind.DOUBLE, 64),
        ],
    )
    def test_builtin_widths(self, ctx, kind, width):
        assert ctx.type_width(ctx.get_builtin(kind)) == width

    def test_pointer_width(self, ctx):
        assert ctx.type_width(ctx.get_pointer(ctx.int_type)) == 64

    def test_size_t_is_64bit_unsigned(self, ctx):
        assert ctx.type_width(ctx.size_type) == 64
        assert ctx.size_type.is_unsigned_integer()

    def test_ptrdiff_is_signed(self, ctx):
        assert ctx.ptrdiff_type.is_signed_integer()

    def test_array_size(self, ctx):
        arr = ctx.get_constant_array(ctx.int_type, 10)
        assert ctx.type_size_bytes(arr) == 40


class TestStructLayout:
    def test_padding(self, ctx):
        rec = RecordDecl("S")
        rec.add_field(FieldDecl("c", ctx.char_type))
        rec.add_field(FieldDecl("d", ctx.double_type))
        qt = ctx.get_record(rec)
        assert ctx.type_size_bytes(qt) == 16
        assert ctx.field_offset_bytes(rec, "c") == 0
        assert ctx.field_offset_bytes(rec, "d") == 8

    def test_packed_ints(self, ctx):
        rec = RecordDecl("P")
        rec.add_field(FieldDecl("a", ctx.int_type))
        rec.add_field(FieldDecl("b", ctx.int_type))
        assert ctx.type_size_bytes(ctx.get_record(rec)) == 8

    def test_union_layout(self, ctx):
        rec = RecordDecl("U", is_union=True)
        rec.add_field(FieldDecl("i", ctx.int_type))
        rec.add_field(FieldDecl("d", ctx.double_type))
        qt = ctx.get_record(rec)
        assert ctx.type_size_bytes(qt) == 8
        assert ctx.field_offset_bytes(rec, "i") == 0
        assert ctx.field_offset_bytes(rec, "d") == 0

    def test_tail_padding(self, ctx):
        rec = RecordDecl("T")
        rec.add_field(FieldDecl("d", ctx.double_type))
        rec.add_field(FieldDecl("c", ctx.char_type))
        assert ctx.type_size_bytes(ctx.get_record(rec)) == 16


class TestSpelling:
    def test_builtin_spelling(self, ctx):
        assert ctx.int_type.spelling() == "int"
        assert ctx.ulong_type.spelling() == "unsigned long"

    def test_pointer_spelling(self, ctx):
        assert ctx.get_pointer(ctx.int_type).spelling() == "int *"
        nested = ctx.get_pointer(ctx.get_pointer(ctx.int_type))
        assert nested.spelling() == "int **"

    def test_qualified_pointer_spelling_matches_clang(self, ctx):
        """Paper Listing 3: 'const int *const __restrict'."""
        inner = ctx.get_pointer(ctx.int_type.with_const())
        qt = QualType(inner.type, is_const=True, is_restrict=True)
        assert qt.spelling() == "const int *const __restrict"

    def test_reference_spelling(self, ctx):
        assert ctx.get_reference(ctx.double_type).spelling() == "double &"

    def test_array_spelling(self, ctx):
        assert (
            ctx.get_constant_array(ctx.int_type, 4).spelling()
            == "int[4]"
        )

    def test_function_spelling(self, ctx):
        fn = ctx.get_function(
            ctx.void_type, [ctx.int_type], is_variadic=False
        )
        assert fn.spelling() == "void (int)"
        variadic = ctx.get_function(
            ctx.int_type, [ctx.get_pointer(ctx.char_type)], True
        )
        assert "..." in variadic.spelling()


class TestTypedefSugar:
    def test_desugar(self, ctx):
        decl = TypedefDecl("myint", ctx.int_type)
        sugar = ctx.get_typedef(decl)
        assert sugar.spelling() == "myint"
        assert desugar(sugar).type is ctx.int_type.type

    def test_desugar_preserves_qualifiers(self, ctx):
        decl = TypedefDecl("cint", ctx.int_type.with_const())
        sugar = ctx.get_typedef(decl)
        assert desugar(sugar).is_const

    def test_is_same_type_through_typedef(self, ctx):
        decl = TypedefDecl("myint", ctx.int_type)
        sugar = ctx.get_typedef(decl)
        assert ctx.is_same_type(sugar, ctx.int_type)


class TestIntTypeOfWidth:
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    @pytest.mark.parametrize("signed", [True, False])
    def test_roundtrip(self, ctx, bits, signed):
        qt = ctx.int_type_of_width(bits, signed)
        assert ctx.type_width(qt) == bits
        assert qt.is_signed_integer() == signed
