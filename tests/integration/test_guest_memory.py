"""Guest memory model: what a program may touch, and what it reads there.

Guest memory has a logical size (4 MiB to start, doubling past the
break as allocations need it).  Every address in ``(0, size)`` is
valid and reads as zero until written; every access past it raises
the same ``out-of-range access`` error on both engines.  These tests
pin that contract through guest programs on both engines and through
the :class:`~repro.interp.memory.Memory` API.
"""

from __future__ import annotations

import pytest

from repro.interp.memory import Memory, MemoryError_, MemoryLimitExceeded
from repro.ir.types import double_t, i8, i32, i64, ptr
from repro.pipeline import execute_request, run_source

MIB = 1 << 20

#: every scalar load/store width the closure engine specializes, at
#: addresses between the break and the logical size
UNTOUCHED_SCALARS = r"""
int printf(const char *fmt, ...);
int main(void) {
  char *c = (char *)3000000;
  short *s = (short *)3000008;
  int *i = (int *)3000016;
  long *l = (long *)3000024;
  float *f = (float *)3000032;
  double *d = (double *)3000040;
  int **pp = (int **)3000048;
  _Bool *b = (_Bool *)3000056;
  printf("%d %d %d %ld %f %f %p %d\n", *c, *s, *i, *l, *f, *d, *pp, *b);
  *c = 7; *s = 300; *i = 70000; *l = 5000000000; *f = 1.5f; *d = 2.25;
  *pp = i; *b = 1;
  printf("%d %d %d %ld %f %f %d %d\n", *c, *s, *i, *l, *f, *d, **pp, *b);
  printf("[%s]\n", (char *)3500000);
  return 0;
}
"""


def _out_of_range(body: str) -> str:
    return "void *malloc(unsigned long n);\nint main(void) {" + body + "}"


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
class TestGuestPrograms:
    def test_untouched_memory_reads_zero_and_stores_stick(
        self, exec_engine, optimize
    ):
        result = run_source(
            UNTOUCHED_SCALARS, exec_engine=exec_engine, optimize=optimize
        )
        assert result.exit_code == 0
        assert result.stdout == (
            "0 0 0 0 0.000000 0.000000 0x0 0\n"
            "7 300 70000 5000000000 1.500000 2.250000 70000 1\n"
            "[]\n"
        )

    def test_last_word_below_logical_size(self, exec_engine, optimize):
        source = (
            "int printf(const char *fmt, ...);\n"
            "int main(void) { int *p = (int *)(4194304 - 4);"
            ' *p = 9; printf("%d\\n", *p); return 0; }'
        )
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "9\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "int *p = (int *)(4194304 - 2); return *p;",
                "out-of-range access: 4 bytes at 0x3ffffe",
            ),
            (
                "double *p = (double *)4194304; *p = 1.0; return 0;",
                "out-of-range access: 8 bytes at 0x400000",
            ),
            (
                "char *big = malloc(5 * 1024 * 1024); big[0] = 1;"
                " char *over = (char *)(8 * 1024 * 1024); return *over;",
                "out-of-range access: 1 bytes at 0x800000",
            ),
        ],
        ids=["load-straddles-size", "store-at-size", "past-grown-size"],
    )
    def test_access_past_logical_size(
        self, exec_engine, optimize, body, message
    ):
        with pytest.raises(MemoryError_) as info:
            run_source(
                _out_of_range(body),
                exec_engine=exec_engine,
                optimize=optimize,
            )
        assert str(info.value) == message

    def test_growth_doubles_the_valid_range(self, exec_engine, optimize):
        source = (
            "int printf(const char *fmt, ...);\n"
            "void *malloc(unsigned long n);\n"
            "int main(void) { char *big = malloc(5 * 1024 * 1024);"
            " big[0] = 1; char *top = (char *)(8 * 1024 * 1024 - 1);"
            ' *top = 3; printf("%d %d\\n", big[0], *top); return 0; }'
        )
        result = run_source(
            source, exec_engine=exec_engine, optimize=optimize
        )
        assert result.stdout == "1 3\n"

    def test_memory_limit_error_unchanged(self, exec_engine, optimize):
        source = _out_of_range(
            "char *big = malloc(2 * 1024 * 1024); return big[0];"
        )
        with pytest.raises(MemoryLimitExceeded) as info:
            run_source(
                source,
                exec_engine=exec_engine,
                optimize=optimize,
                memory_limit=MIB,
            )
        assert str(info.value) == (
            "guest memory ceiling exceeded: allocating 2097152 bytes "
            "needs 2621456 bytes total (limit 1048576)"
        )


def test_request_heap_is_empty_afterwards(monkeypatch, exec_engine):
    import repro.interp.interpreter as interpreter_module

    heaps: list[Memory] = []

    class RecordingMemory(Memory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            heaps.append(self)

    monkeypatch.setattr(interpreter_module, "Memory", RecordingMemory)
    outcome = execute_request(
        UNTOUCHED_SCALARS, action="run", exec_engine=exec_engine
    )
    assert outcome.ok
    (heap,) = heaps
    assert heap.data.closed
    with pytest.raises(MemoryError_, match="out-of-range access"):
        heap.load(i32, 3000016)
    assert heap.size == 0


class TestMemoryAPI:
    def test_untouched_bytes_read_zero(self):
        mem = Memory()
        assert mem.load(i64, 4 * MIB - 8) == 0
        assert mem.read_bytes(2 * MIB, 4) == bytes(4)
        assert mem.read_cstring(3 * MIB) == ""

    def test_store_then_load_far_from_the_break(self):
        mem = Memory()
        mem.store(double_t, 4 * MIB - 8, 6.5)
        mem.store(ptr, MIB, 0xBEEF)
        assert mem.load(double_t, 4 * MIB - 8) == 6.5
        assert mem.load(ptr, MIB) == 0xBEEF

    def test_cstring_runs_to_the_first_nul(self):
        mem = Memory()
        mem.write_bytes(MIB, b"far away\x00tail")
        assert mem.read_cstring(MIB) == "far away"
        assert mem.read_cstring(MIB, limit=3) == "far"

    def test_cstring_indexes_like_one_flat_bytearray(self):
        mem = Memory()
        mem.write_bytes(4 * MIB - 3, b"ab\x00")
        assert mem.read_cstring(-3) == "ab"
        assert mem.read_cstring(-4 * MIB) == ""
        with pytest.raises(IndexError, match="index out of range"):
            mem.read_cstring(4 * MIB)
        with pytest.raises(IndexError, match="cannot fit"):
            mem.read_cstring(1 << 70)

    @pytest.mark.parametrize(
        "addr, size", [(0, 1), (-8, 8), (4 * MIB - 7, 8), (4 * MIB, 1)]
    )
    def test_out_of_range_message(self, addr, size):
        mem = Memory()
        with pytest.raises(MemoryError_) as info:
            mem.read_bytes(addr, size)
        assert str(info.value) == (
            f"out-of-range access: {size} bytes at {addr:#x}"
        )
        with pytest.raises(MemoryError_) as info:
            mem.write_bytes(addr, bytes(size))
        assert str(info.value) == (
            f"out-of-range access: {size} bytes at {addr:#x}"
        )

    def test_growth_sequence(self):
        # Each growth adds max(current size, shortfall).
        mem = Memory(size=64)
        for request, grown in [(1024, 1040), (2000, 3040), (100, 6080)]:
            mem.allocate(request)
            mem.store(i8, grown - 1, 5)
            assert mem.load(i8, grown - 1) == 5
            with pytest.raises(MemoryError_, match="out-of-range"):
                mem.load(i8, grown)

    def test_release_empties_and_stays_empty(self):
        mem = Memory()
        mem.store(i32, 3 * MIB, 1)
        mem.release()
        assert mem.data.closed
        for access in (
            lambda: mem.load(i32, 16),
            lambda: mem.store(i32, 3 * MIB, 2),
            lambda: mem.zero(16, 8),
            lambda: mem.read_bytes(4 * MIB - 1, 1),
            lambda: mem.write_bytes(16, b"x"),
        ):
            with pytest.raises(MemoryError_, match="out-of-range"):
                access()
        with pytest.raises(IndexError):
            mem.read_cstring(16)
        mem.release()  # a second release is harmless
        assert mem.data.closed and mem.size == 0
