"""Unit tests: CodeGen details — conversions, operators, aggregates,
short-circuit evaluation, bool semantics — checked by execution on
both engines (the ``exec_engine`` fixture)."""

import pytest

from tests.conftest import run_c

pytestmark = pytest.mark.exec_differential


def out_of(src: str, **kw) -> str:
    kw.setdefault("openmp", False)
    return run_c(src, **kw).stdout.strip()


class TestIntegerSemantics:
    def test_truncation_and_extension(self, exec_engine):
        src = r"""
        int main(void) {
          char c = 300;          /* truncates to 44 */
          unsigned char u = 200;
          int widened_c = c;     /* sign extend */
          int widened_u = u;     /* zero extend */
          printf("%d %d\n", widened_c, widened_u);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "44 200"

    def test_signed_division_and_modulo(self, exec_engine):
        src = r"""
        int main(void) {
          printf("%d %d %d %d\n", -7 / 2, -7 % 2, 7 / -2, 7 % -2);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "-3 -1 -3 1"

    def test_unsigned_comparison(self, exec_engine):
        src = r"""
        int main(void) {
          unsigned int big = 3000000000u;
          int winner = big > 5u ? 1 : 0;
          printf("%d\n", winner);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "1"

    def test_shift_semantics(self, exec_engine):
        src = r"""
        int main(void) {
          int neg = -16;
          unsigned int uns = 0x80000000u;
          printf("%d %u\n", neg >> 2, uns >> 28);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "-4 8"

    def test_mixed_signed_unsigned_arithmetic(self, exec_engine):
        src = r"""
        int main(void) {
          unsigned int u = 10;
          int s = -3;
          /* s converts to unsigned: huge value */
          printf("%d\n", u + s > 100u ? 1 : 0);
          return 0;
        }
        """
        # 10 + (-3 as unsigned) wraps to 7
        assert out_of(src, exec_engine=exec_engine) == "0"

    def test_long_arithmetic_width(self, exec_engine):
        src = r"""
        int main(void) {
          long big = 3000000000;
          long doubled = big * 2;
          printf("%d\n", doubled == 6000000000 ? 1 : 0);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "1"


class TestFloatSemantics:
    def test_float_vs_double_precision(self, exec_engine):
        src = r"""
        int main(void) {
          float f = 0.1f;
          double d = 0.1;
          printf("%d\n", (double)f == d ? 1 : 0);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "0"

    def test_int_float_conversions(self, exec_engine):
        src = r"""
        int main(void) {
          double x = 7;         /* int -> double */
          int y = 7.9;          /* truncates */
          int z = -7.9;         /* truncates toward zero */
          printf("%g %d %d\n", x, y, z);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "7 7 -7"

    def test_compound_assign_mixed_types(self, exec_engine):
        src = r"""
        int main(void) {
          int i = 7;
          i += 2.6;             /* computed in double, stored as int */
          double d = 1.0;
          d *= 3;
          printf("%d %g\n", i, d);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "9 3"


class TestShortCircuit:
    def test_and_skips_rhs(self, exec_engine):
        src = r"""
        int hits = 0;
        int touch(void) { hits += 1; return 1; }
        int main(void) {
          int r = 0 && touch();
          printf("%d %d\n", r, hits);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "0 0"

    def test_or_skips_rhs(self, exec_engine):
        src = r"""
        int hits = 0;
        int touch(void) { hits += 1; return 0; }
        int main(void) {
          int r = 1 || touch();
          printf("%d %d\n", r, hits);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "1 0"

    def test_ternary_evaluates_one_side(self, exec_engine):
        src = r"""
        int hits_a = 0; int hits_b = 0;
        int a(void) { hits_a += 1; return 10; }
        int b(void) { hits_b += 1; return 20; }
        int main(void) {
          int r = 1 ? a() : b();
          printf("%d %d %d\n", r, hits_a, hits_b);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "10 1 0"

    def test_comma_evaluates_both(self, exec_engine):
        src = r"""
        int hits = 0;
        int touch(void) { hits += 1; return 5; }
        int main(void) {
          int r = (touch(), touch(), 9);
          printf("%d %d\n", r, hits);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "9 2"


class TestPointersAndAggregates:
    def test_pointer_arithmetic_scaling(self, exec_engine):
        src = r"""
        int main(void) {
          double arr[4] = {1.5, 2.5, 3.5, 4.5};
          double *p = arr;
          p += 2;
          double *q = arr + 3;
          printf("%g %g %d\n", *p, *q, (int)(q - p));
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "3.5 4.5 1"

    def test_pointer_decrement_and_compare(self, exec_engine):
        src = r"""
        int main(void) {
          int arr[5] = {10, 20, 30, 40, 50};
          int *p = arr + 4;
          int total = 0;
          while (p >= arr) {
            total += *p;
            p -= 1;
          }
          printf("%d\n", total);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "150"

    def test_address_of_and_swap(self, exec_engine):
        src = r"""
        void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
        int main(void) {
          int x = 1; int y = 2;
          swap(&x, &y);
          printf("%d %d\n", x, y);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "2 1"

    def test_struct_by_value_field_access(self, exec_engine):
        src = r"""
        struct pair { int a; int b; };
        int main(void) {
          struct pair p;
          p.a = 3; p.b = 4;
          struct pair *q = &p;
          q->b = 40;
          printf("%d %d\n", p.a, p.b);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "3 40"

    def test_nested_struct_layout(self, exec_engine):
        src = r"""
        struct inner { char tag; double value; };
        struct outer { int id; struct inner payload; };
        int main(void) {
          struct outer o;
          o.id = 7;
          o.payload.tag = 'x';
          o.payload.value = 2.5;
          printf("%d %c %g %d\n", o.id, o.payload.tag,
                 o.payload.value, (int)sizeof(struct outer));
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "7 x 2.5 24"

    def test_global_array_initializer(self, exec_engine):
        src = r"""
        int table[5] = {2, 4, 6, 8};
        double weights[3] = {0.5, 1.5, 2.5};
        int main(void) {
          int s = 0;
          for (int i = 0; i < 5; i += 1) s += table[i];
          printf("%d %g\n", s, weights[1]);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "20 1.5"

    def test_2d_array_indexing(self, exec_engine):
        src = r"""
        int main(void) {
          int m[3][4];
          for (int i = 0; i < 3; i += 1)
            for (int j = 0; j < 4; j += 1)
              m[i][j] = i * 10 + j;
          printf("%d %d %d\n", m[0][0], m[1][3], m[2][2]);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "0 13 22"


class TestBoolSemantics:
    def test_bool_normalizes_to_01(self, exec_engine):
        src = r"""
        int main(void) {
          bool flag = 42;   /* any nonzero -> 1 */
          bool zero = 0;
          printf("%d %d %d\n", flag, zero, (int)sizeof(bool));
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "1 0 1"

    def test_not_operator_result(self, exec_engine):
        src = r"""
        int main(void) {
          printf("%d %d %d\n", !5, !0, !!7);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "0 1 1"


class TestEnumsAndTypedefs:
    def test_enum_values_in_arithmetic(self, exec_engine):
        src = r"""
        enum level { LOW = 1, MID = 5, HIGH = 10 };
        int main(void) {
          enum level x = MID;
          printf("%d\n", x * HIGH + LOW);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "51"

    def test_typedef_chain(self, exec_engine):
        src = r"""
        typedef unsigned int uint;
        typedef uint word;
        int main(void) {
          word w = 4294967295u;
          w += 1;              /* wraps */
          printf("%u\n", w);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "0"

    def test_size_t_from_sizeof(self, exec_engine):
        src = r"""
        int main(void) {
          size_t n = sizeof(double[10]);
          printf("%d\n", (int)n);
          return 0;
        }
        """
        assert out_of(src, exec_engine=exec_engine) == "80"
