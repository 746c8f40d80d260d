"""End-to-end program zoo: realistic C programs through the full stack.

Each test compiles, (optionally) optimizes, and executes a small but
non-trivial program, checking output against a Python reference.  These
exercise codegen paths the directive-focused tests don't: recursion,
function pointers, structs by pointer, switch, strings, floating point,
and OpenMP used the way application code uses it.  Every test runs on
both execution engines (the ``exec_engine`` fixture), so the reference
interpreter stays covered alongside the default closure engine.
"""

import pytest

from tests.conftest import run_both, run_c

pytestmark = pytest.mark.exec_differential


class TestSerialAlgorithms:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_insertion_sort(self, optimize, exec_engine):
        src = r"""
        int main(void) {
          int a[10] = {9, 3, 7, 1, 8, 2, 6, 0, 5, 4};
          for (int i = 1; i < 10; i += 1) {
            int key = a[i];
            int j = i - 1;
            while (j >= 0 && a[j] > key) {
              a[j + 1] = a[j];
              j -= 1;
            }
            a[j + 1] = key;
          }
          for (int i = 0; i < 10; i += 1) printf("%d", a[i]);
          printf("\n");
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, optimize=optimize)
        assert result.stdout == "0123456789\n"

    def test_sieve_of_eratosthenes(self, exec_engine):
        src = r"""
        int main(void) {
          int is_composite[50];
          memset(is_composite, 0, 50 * sizeof(int));
          for (int p = 2; p < 50; p += 1) {
            if (is_composite[p]) continue;
            printf("%d ", p);
            for (int m = p * p; m < 50; m += p)
              is_composite[m] = 1;
          }
          printf("\n");
          return 0;
        }
        """
        primes = [
            p
            for p in range(2, 50)
            if all(p % d for d in range(2, p))
        ]
        result = run_c(src, exec_engine=exec_engine)
        assert result.stdout.split() == [str(p) for p in primes]

    def test_recursive_gcd_and_ackermann_ish(self, exec_engine):
        src = r"""
        int gcd(int a, int b) {
          if (b == 0) return a;
          return gcd(b, a % b);
        }
        int main(void) {
          printf("%d %d %d\n", gcd(48, 36), gcd(17, 5), gcd(0, 9));
          return 0;
        }
        """
        assert run_c(src, exec_engine=exec_engine).stdout == "12 1 9\n"

    def test_function_pointer_dispatch(self, exec_engine):
        src = r"""
        int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        int apply(int (*op)(int, int), int a, int b) {
          return op(a, b);
        }
        int main(void) {
          int (*table[2])(int, int);
          table[0] = add;
          table[1] = mul;
          printf("%d %d %d\n",
                 apply(add, 3, 4),
                 apply(table[1], 3, 4),
                 table[0](10, 20));
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "7 12 30\n"

    def test_struct_linked_computation(self, exec_engine):
        src = r"""
        struct vec { double x; double y; double z; };
        double dot(struct vec *a, struct vec *b) {
          return a->x * b->x + a->y * b->y + a->z * b->z;
        }
        void scale(struct vec *v, double s) {
          v->x *= s; v->y *= s; v->z *= s;
        }
        int main(void) {
          struct vec a; struct vec b;
          a.x = 1.0; a.y = 2.0; a.z = 3.0;
          b.x = 4.0; b.y = 5.0; b.z = 6.0;
          scale(&a, 2.0);
          printf("%g\n", dot(&a, &b));
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "64\n"

    def test_string_reversal(self, exec_engine):
        src = r"""
        int main(void) {
          char buf[16];
          const char *src = "abcdefg";
          int n = 0;
          while (src[n] != '\0') n += 1;
          for (int i = 0; i < n; i += 1)
            buf[i] = src[n - 1 - i];
          buf[n] = '\0';
          printf("%s\n", buf);
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "gfedcba\n"

    def test_switch_state_machine(self, exec_engine):
        src = r"""
        int main(void) {
          /* count digits/letters/others in a string via switch */
          const char *text = "a1b2;c3!";
          int digits = 0; int letters = 0; int others = 0;
          for (int i = 0; text[i] != '\0'; i += 1) {
            int c = text[i];
            int kind;
            if (c >= '0' && c <= '9') kind = 0;
            else if (c >= 'a' && c <= 'z') kind = 1;
            else kind = 2;
            switch (kind) {
              case 0: digits += 1; break;
              case 1: letters += 1; break;
              default: others += 1; break;
            }
          }
          printf("%d %d %d\n", digits, letters, others);
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "3 3 2\n"

    def test_newton_sqrt(self, exec_engine):
        src = r"""
        int main(void) {
          double x = 2.0;
          double guess = 1.0;
          for (int it = 0; it < 20; it += 1)
            guess = 0.5 * (guess + x / guess);
          double err = guess - sqrt(2.0);
          if (err < 0.0) err = -err;
          printf("%d\n", err < 1e-9 ? 1 : 0);
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "1\n"

    def test_do_while_and_goto_free_collatz(self, exec_engine):
        src = r"""
        int main(void) {
          int n = 27;
          int steps = 0;
          do {
            if (n % 2 == 0) n /= 2;
            else n = 3 * n + 1;
            steps += 1;
          } while (n != 1);
          printf("%d\n", steps);
          return 0;
        }
        """
        result = run_c(src, exec_engine=exec_engine, openmp=False)
        assert result.stdout == "111\n"


class TestParallelApplications:
    def test_parallel_matmul(self, exec_engine):
        n = 8
        src = rf"""
        int main(void) {{
          double a[{n*n}]; double b[{n*n}]; double c[{n*n}];
          for (int k = 0; k < {n*n}; k += 1) {{
            a[k] = (double)(k % 5);
            b[k] = (double)(k % 3);
            c[k] = 0.0;
          }}
          #pragma omp parallel for collapse(2)
          for (int i = 0; i < {n}; i += 1)
            for (int j = 0; j < {n}; j += 1) {{
              double sum = 0.0;
              for (int k = 0; k < {n}; k += 1)
                sum += a[i * {n} + k] * b[k * {n} + j];
              c[i * {n} + j] = sum;
            }}
          double checksum = 0.0;
          for (int k = 0; k < {n*n}; k += 1)
            checksum += c[k] * (double)(k % 7);
          printf("%g\n", checksum);
          return 0;
        }}
        """
        # Python reference
        a = [k % 5 for k in range(n * n)]
        b = [k % 3 for k in range(n * n)]
        c = [
            sum(a[i * n + k] * b[k * n + j] for k in range(n))
            for i in range(n)
            for j in range(n)
        ]
        expected = sum(v * (k % 7) for k, v in enumerate(c))
        legacy, irb = run_both(src, exec_engine=exec_engine)
        assert float(legacy.stdout) == pytest.approx(expected)

    def test_parallel_histogram_with_critical(self, exec_engine):
        src = r"""
        int main(void) {
          int bins[4] = {0, 0, 0, 0};
          #pragma omp parallel for
          for (int i = 0; i < 64; i += 1) {
            int b = (i * 7) % 4;
            #pragma omp critical
            { bins[b] += 1; }
          }
          printf("%d %d %d %d\n", bins[0], bins[1], bins[2], bins[3]);
          return 0;
        }
        """
        from collections import Counter

        counts = Counter((i * 7) % 4 for i in range(64))
        legacy, _ = run_both(src, exec_engine=exec_engine)
        assert [int(x) for x in legacy.stdout.split()] == [
            counts[b] for b in range(4)
        ]

    @pytest.mark.parametrize("optimize", [False, True])
    def test_plain_parallel_data_sharing_clauses(
        self, optimize, exec_engine
    ):
        """``reduction``, ``private`` and ``firstprivate`` on a plain
        ``parallel`` (no worksharing loop): every team member works on
        its own copy and the partial sums are combined (GCC: 6 3 5)."""
        src = r"""
        int main(void) {
          int total = 0;
          #pragma omp parallel num_threads(3) reduction(+: total)
          total += omp_get_thread_num() + 1;
          int x = 5;
          int ids = 0;
          #pragma omp parallel num_threads(3) private(x)
          {
            x = omp_get_thread_num();
            #pragma omp critical
            ids += x;
          }
          int seed = 10;
          int seen = 0;
          #pragma omp parallel num_threads(3) firstprivate(seed)
          {
            seed += 1;
            #pragma omp critical
            seen += seed;
          }
          printf("%d %d %d %d %d\n", total, ids, x, seen, seed);
          return 0;
        }
        """
        legacy, _ = run_both(
            src, exec_engine=exec_engine, optimize=optimize
        )
        assert legacy.stdout == "6 3 5 33 10\n"

    def test_parallel_pi_estimate(self, exec_engine):
        src = r"""
        int main(void) {
          double pi = 0.0;
          int n = 5000;
          #pragma omp parallel for reduction(+: pi)
          for (int i = 0; i < n; i += 1) {
            double x = ((double)i + 0.5) / (double)n;
            pi += 4.0 / (1.0 + x * x);
          }
          pi = pi / (double)n;
          printf("%.4f\n", pi);
          return 0;
        }
        """
        legacy, _ = run_both(src, exec_engine=exec_engine)
        assert legacy.stdout == "3.1416\n"

    def test_tiled_parallel_transpose_matches_serial(self, exec_engine):
        src_tmpl = r"""
        int main(void) {
          int a[64]; int b[64];
          for (int k = 0; k < 64; k += 1) { a[k] = k * 3 + 1; b[k] = 0; }
          %s
          for (int i = 0; i < 8; i += 1)
            for (int j = 0; j < 8; j += 1)
              b[j * 8 + i] = a[i * 8 + j];
          int checksum = 0;
          for (int k = 0; k < 64; k += 1) checksum += b[k] * (k + 1);
          printf("%%d\n", checksum);
          return 0;
        }
        """
        serial = run_c(src_tmpl % "", exec_engine=exec_engine)
        tiled = run_c(
            src_tmpl
            % "#pragma omp parallel for\n#pragma omp tile sizes(4, 4)",
            exec_engine=exec_engine,
        )
        assert serial.stdout == tiled.stdout

    def test_unrolled_parallel_daxpy(self, exec_engine):
        src = r"""
        int main(void) {
          double x[100]; double y[100];
          for (int k = 0; k < 100; k += 1) {
            x[k] = (double)k;
            y[k] = (double)(100 - k);
          }
          #pragma omp parallel for
          #pragma omp unroll partial(4)
          for (int i = 0; i < 100; i += 1)
            y[i] = y[i] + 2.5 * x[i];
          double sum = 0.0;
          for (int k = 0; k < 100; k += 1) sum += y[k];
          printf("%g\n", sum);
          return 0;
        }
        """
        expected = sum((100 - k) + 2.5 * k for k in range(100))
        legacy, irb = run_both(src, exec_engine=exec_engine)
        assert float(legacy.stdout) == pytest.approx(expected)

    def test_stencil_with_barrier_phases(self, exec_engine):
        src = r"""
        int main(void) {
          double cur[32]; double nxt[32];
          for (int k = 0; k < 32; k += 1) cur[k] = (k == 16) ? 100.0 : 0.0;
          #pragma omp parallel num_threads(4)
          {
            for (int step = 0; step < 3; step += 1) {
              #pragma omp for
              for (int i = 1; i < 31; i += 1)
                nxt[i] = 0.5 * cur[i]
                       + 0.25 * (cur[i - 1] + cur[i + 1]);
              #pragma omp for
              for (int i = 1; i < 31; i += 1)
                cur[i] = nxt[i];
            }
          }
          double total = 0.0;
          for (int k = 1; k < 31; k += 1) total += cur[k];
          printf("%g\n", total);
          return 0;
        }
        """
        # Python reference
        cur = [100.0 if k == 16 else 0.0 for k in range(32)]
        for _ in range(3):
            nxt = list(cur)
            for i in range(1, 31):
                nxt[i] = 0.5 * cur[i] + 0.25 * (cur[i - 1] + cur[i + 1])
            cur = nxt
        expected = sum(cur[1:31])
        legacy, _ = run_both(src, exec_engine=exec_engine)
        assert float(legacy.stdout) == pytest.approx(expected)

    def test_reverse_time_loop_application(self, exec_engine):
        """Suffix sums need the reverse iteration order (OpenMP 6.0
        `reverse` used for a real dependency pattern, serially)."""
        src = r"""
        int main(void) {
          int a[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
          int suffix = 0;
          #pragma omp reverse
          for (int i = 0; i < 10; i += 1) {
            suffix += a[i];
            a[i] = suffix;
          }
          for (int k = 0; k < 10; k += 1) printf("%d ", a[k]);
          printf("\n");
          return 0;
        }
        """
        data = list(range(1, 11))
        suffix = 0
        out = [0] * 10
        for i in reversed(range(10)):
            suffix += data[i]
            out[i] = suffix
        legacy, _ = run_both(src, exec_engine=exec_engine)
        assert legacy.stdout.split() == [str(v) for v in out]
