"""Run retirement stays exactly lockstep.

The closure engine retires whole runs per dispatch, each function's
runs of one kind one generated function that runs their loop nests in
place: serial code in the single-threaded loop, thread-local code ahead
of the team scheduler's lockstep clock.  These tests race it against
the reference interpreter, which steps one instruction at a time,
wherever a boundary of that code could leak: the fuel exhaustion point
and scheduler snapshot across a team's whole lifetime and inside the
run-kernels loop shapes, racy interleavings, the wall-clock deadline
inside register-only loops, errors raised inside loops and by
instructions that are deliberately not thread-local.  They also pin the two guardrail
fixes that came with it (``fuel`` bounds parallel regions, and a
region's thread stacks are freed when it ends) and which stack slots
are private enough for their loads and stores to join thread-local
runs.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.exec import create_interpreter, profile_fingerprint
from repro.exec.engine import (
    LOCAL_BURST_CAP,
    ClosureContext,
    ClosureInterpreter,
)
from repro.interp.interpreter import DeadlockError, ExecutionTimeout
from repro.ir import FunctionType, IRBuilder, Module, i8, i32, i64, ptr
from repro.ir.instructions import CastOp
from repro.ir.values import ConstantInt, ConstantPointerNull
from repro.pipeline import compile_source, run_source

pytestmark = pytest.mark.exec_differential

ENGINES = ("interp", "closures")

#: the run-kernels worksharing shape (static schedule, reduction)
WORKSHARING = r"""
int main(void) {
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(static) \
      num_threads(4)
  for (int i = 0; i < 700; i += 1)
    sum += i * 8 - 8;
  printf("%d\n", (int)(sum % 1000000));
  return 0;
}
"""

#: a dynamic schedule: each chunk's bounds come back from
#: ``__kmpc_dispatch_next_4u`` through the thread's stack slots
DYNAMIC = r"""
int main(void) {
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(dynamic, 7) \
      num_threads(3)
  for (int i = 0; i < 200; i += 1)
    sum += i * 5 - 3;
  printf("%ld\n", sum);
  return 0;
}
"""

CRITICAL = r"""
int main(void) {
  int total = 0;
  #pragma omp parallel num_threads(3)
  {
    int local = 0;
    for (int k = 0; k < 20; k += 1)
      local += k * (omp_get_thread_num() + 1);
    #pragma omp critical
    {
      total += local;
      printf("t%d %d\n", omp_get_thread_num(), total);
    }
    #pragma omp barrier
    for (int k = 0; k < 10; k += 1)
      local -= k;
    #pragma omp critical
    { total += local; }
  }
  printf("%d\n", total);
  return 0;
}
"""

#: unsynchronized read-modify-write: the lost updates depend on the
#: exact interleaving
RACY = r"""
int shared;
int main(void) {
  #pragma omp parallel
  {
    int tid = omp_get_thread_num();
    for (int k = 0; k < 25; k += 1) {
      int t = shared;
      for (int w = 0; w < tid + k % 3; w += 1)
        t = t * 3 + w;
      shared = t % 100003 + tid;
    }
  }
  printf("%d\n", shared);
  return 0;
}
"""


#: the run-kernels loop shapes at small sizes (see ``perfbench/inputs.py``)
KERNEL_SHAPES = {
    "tile-remainder": r"""
int main(void) {
  static long grid[6][6];
  long checksum = 0;
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < 6; i += 1)
    for (int j = 0; j < 6; j += 1)
      grid[i][j] = i * 7 + j;
  for (int i = 0; i < 6; i += 1)
    for (int j = 0; j < 6; j += 1)
      checksum += grid[i][j];
  printf("%d\n", (int)(checksum % 1000000));
  return 0;
}
""",
    "unroll-remainder": r"""
int main(void) {
  long acc = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < 23; i += 1)
    acc += i * 6 - 4;
  printf("%d\n", (int)(acc % 1000000));
  return 0;
}
""",
    "fuse": r"""
int main(void) {
  static int a[13], b[13];
  long sum = 0;
  #pragma omp fuse
  {
    for (int i = 0; i < 13; i += 1) a[i] = i * 7;
    for (int j = 0; j < 13; j += 1) b[j] = j - 5;
  }
  for (int i = 0; i < 13; i += 1) sum += a[i] + b[i];
  printf("%d\n", (int)(sum % 1000000));
  return 0;
}
""",
    "stencil": r"""
int main(void) {
  static double cur[9], nxt[9];
  for (int i = 0; i < 9; i += 1) cur[i] = (i % 7) * 0.75;
  for (int t = 0; t < 3; t += 1) {
    for (int i = 1; i < 9 - 1; i += 1)
      nxt[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0;
    for (int i = 1; i < 9 - 1; i += 1) cur[i] = nxt[i];
  }
  double sum = 0.0;
  for (int i = 0; i < 9; i += 1) sum += cur[i];
  printf("%f\n", sum);
  return 0;
}
""",
    "reduction": r"""
int main(void) {
  long sum = 0;
  for (int i = 0; i < 40; i += 1)
    sum += (i * 11) % 7 + (i >> 2);
  printf("%d\n", (int)(sum % 1000000));
  return 0;
}
""",
    "worksharing": r"""
int main(void) {
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(static) \
      num_threads(4)
  for (int i = 0; i < 37; i += 1)
    sum += i * 6 - 4;
  printf("%d\n", (int)(sum % 1000000));
  return 0;
}
""",
}


def outcome(module, engine: str, num_threads: int = 4, **run_kwargs):
    """Everything observable about one run: completion (stdout, return
    value, profile fingerprint) or the guardrail that fired (message,
    rendered snapshot, stdout so far)."""
    interp = create_interpreter(module, engine=engine, profile_detail=True)
    interp.omp.num_threads = num_threads
    try:
        value = interp.run("main", [], **run_kwargs)
    except (ExecutionTimeout, DeadlockError) as exc:
        return (
            type(exc).__name__,
            str(exc),
            exc.snapshot.render(),
            interp.output(),
        )
    return ("ok", value, interp.output(), profile_fingerprint(interp.profile))


def total_instructions(module, num_threads: int = 4) -> int:
    interp = create_interpreter(module, engine="interp")
    interp.omp.num_threads = num_threads
    interp.run("main", [])
    return interp.instruction_count


class TestFuelSweep:
    """Every fuel value must stop both engines on the same instruction
    with the same snapshot — including inside the team, where a member
    may be running ahead of the lockstep clock."""

    @pytest.mark.parametrize(
        "source,optimize,count",
        [
            (WORKSHARING, True, 100),
            (WORKSHARING, False, 50),
            (DYNAMIC, False, 50),
            (DYNAMIC, True, 50),
            (CRITICAL, False, 50),
            (CRITICAL, True, 50),
            (RACY, True, 50),
        ],
        ids=[
            "worksharing-O1", "worksharing-O0", "dynamic-O0", "dynamic-O1",
            "critical-O0", "critical-O1", "racy-O1",
        ],
    )
    def test_outcome_identical_at_every_fuel(self, source, optimize, count):
        module = compile_source(source, optimize=optimize).module
        total = total_instructions(module)
        stride = max(1, total // count)
        fuels = sorted(
            set(range(1, total, stride)) | set(range(total - 3, total + 2))
        )
        team_phase = 0
        for fuel in fuels:
            ref = outcome(module, "interp", fuel=fuel)
            got = outcome(module, "closures", fuel=fuel)
            assert got == ref, f"engines diverged at fuel={fuel}"
            if ref[0] == "ExecutionTimeout" and "team" in ref[1]:
                team_phase += 1
        # The sweep must actually reach into the parallel region.
        assert team_phase >= len(fuels) // 2

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    @pytest.mark.parametrize("name", sorted(KERNEL_SHAPES))
    def test_kernel_outcome_identical_at_every_fuel(self, name, optimize):
        """The run-kernels shapes: every fuel in a window wider than a
        loop iteration, so the exhaustion point falls on each op of a
        loop body (and of its unrolled or tiled copies) in turn."""
        module = compile_source(KERNEL_SHAPES[name], optimize=optimize).module
        total = total_instructions(module)
        middle = total // 2
        fuels = sorted(
            set(range(1, total, max(1, total // 40)))
            | set(range(middle, middle + 60))
            | set(range(total - 3, total + 2))
        )
        for fuel in fuels:
            ref = outcome(module, "interp", fuel=fuel)
            got = outcome(module, "closures", fuel=fuel)
            assert got == ref, f"engines diverged at fuel={fuel}"
        assert outcome(module, "closures")[0] == "ok"


class TestFuelBoundsParallelRegions:
    LONG_REGION = r"""
    int main(void) {
      long sum = 0;
      #pragma omp parallel num_threads(2) reduction(+: sum)
      {
        for (int i = 0; i < 1000000; i += 1)
          sum += i % 7;
      }
      printf("%ld\n", sum);
      return 0;
    }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_team_draws_from_the_run_budget(self, engine):
        start = time.monotonic()
        with pytest.raises(ExecutionTimeout) as exc_info:
            run_source(
                self.LONG_REGION, fuel=5000, num_threads=2,
                exec_engine=engine,
            )
        assert exc_info.value.snapshot.total_instructions == 5000
        assert time.monotonic() - start < 5

    def test_fuel_left_after_a_region_is_handed_back(self):
        source = r"""
        int main(void) {
          int x = 0;
          #pragma omp parallel num_threads(2)
          { x = 1; }
          for (int i = 0; i < 2000; i += 1) x += i;
          return 0;
        }
        """
        module = compile_source(source).module
        total = total_instructions(module, num_threads=2)
        for fuel in (total - 1, total, total + 1):
            ref = outcome(module, "interp", num_threads=2, fuel=fuel)
            got = outcome(module, "closures", num_threads=2, fuel=fuel)
            assert got == ref
            assert (ref[0] == "ok") == (fuel > total)


class TestRegionStacksReleased:
    MANY_REGIONS = r"""
    long per_thread[2];
    int main(void) {
      for (int r = 0; r < 200; r += 1) {
        #pragma omp parallel num_threads(2)
        {
          int tid = omp_get_thread_num();
          int scratch[4];
          scratch[tid] = tid + 1;
          per_thread[tid] += scratch[tid];
        }
      }
      printf("%ld\n", per_thread[0] + per_thread[1]);
      return 0;
    }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_200_regions_fit_in_64_mib(self, engine):
        result = run_source(
            self.MANY_REGIONS, num_threads=2, exec_engine=engine,
            memory_limit=64 << 20,
        )
        assert result.stdout == "600\n"

    def test_backing_store_stays_small(self):
        module = compile_source(self.MANY_REGIONS).module
        interp = create_interpreter(module)
        interp.omp.num_threads = 2
        size = interp.memory.size
        interp.run("main", [])
        assert interp.output() == "600\n"
        # 200 regions of two 512 KiB stacks each never grow the logical
        # size, nor the map behind it.
        assert interp.memory.size == size == len(interp.memory.data)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="counts the minor page faults of Linux's demand paging",
    )
    def test_region_touches_only_the_pages_it_uses(self):
        """Guest memory is demand-zero: a 4-thread region's four 512 KiB
        stacks cost the pages their threads write, not 2 MiB of
        zero-fill."""
        import resource

        source = r"""
        long cells[4];
        int main(void) {
          #pragma omp parallel num_threads(4)
          { cells[omp_get_thread_num()] = 1; }
          return 0;
        }
        """
        module = compile_source(source, optimize=True).module
        faults = []
        for _ in range(3):  # the first run also warms the allocator
            interp = create_interpreter(module)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            interp.run("main", [])
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            interp.memory.release()
            faults.append(after - before)
        assert min(faults) < 64

    def test_region_that_mallocs_keeps_its_memory(self):
        source = r"""
        int *cells[2];
        int main(void) {
          #pragma omp parallel num_threads(2)
          {
            int tid = omp_get_thread_num();
            cells[tid] = (int *)malloc(16);
            cells[tid][0] = 40 + tid;
          }
          #pragma omp parallel num_threads(2)
          { int scratch[8]; scratch[omp_get_thread_num()] = 7; }
          printf("%d %d\n", cells[0][0], cells[1][0]);
          return 0;
        }
        """
        for engine in ENGINES:
            result = run_source(source, num_threads=2, exec_engine=engine)
            assert result.stdout == "40 41\n"


def _local_ops(module: Module, fn_name: str) -> dict[str, set[int]]:
    """Block name -> indices of the ops in *fn_name*'s thread-local
    runs under the closure engine."""
    interp = ClosureInterpreter(module)
    code = interp.code_for(module.get_function(fn_name))
    local = {}
    for block in code.fn.blocks:
        runs = code.blocks[id(block)].local_runs
        local[block.name] = {
            i
            for start, run in enumerate(runs)
            if run is not None
            for i in range(start, start + run[1])
        }
    return local


def _slot_module(slot_type, escape) -> Module:
    """``@f`` stores its argument into a stack slot of *slot_type*,
    loads it back and returns it; ``escape(b, module, slot)`` adds
    one more use of the slot's address first.  The store and the load
    are the entry block's last ops but the ``ret``."""
    module = Module("slots")
    fn = module.add_function("f", FunctionType(slot_type, [slot_type]))
    b = IRBuilder(module)
    b.set_insert_point(fn.append_block("entry"))
    slot = b.alloca(slot_type, name="slot")
    escape(b, module, slot)
    b.store(fn.args[0], slot)
    b.ret(b.load(slot_type, slot, "back"))
    return module


def _declare(module, name, *params):
    return module.add_function(name, FunctionType(i32, list(params)))


def _define(module, name, *params):
    """A guest function that returns 0."""
    fn = _declare(module, name, *params)
    body = IRBuilder(module)
    body.set_insert_point(fn.append_block("entry"))
    body.ret(ConstantInt(i32, 0))
    return fn


def _store_into_memory(b, module, slot):
    cell = b.alloca(ptr, name="cell")
    b.store(slot, cell)


def _pass_to_guest(b, module, slot):
    b.call(_define(module, "sink", ptr), [slot])


def _pass_to_guest_named_like_the_runtime(b, module, slot):
    """A guest *definition* that carries a non-capturing runtime entry
    point's name is still a guest function."""
    b.call(_define(module, "__kmpc_dispatch_next_4u", ptr), [slot])


def _pass_to_fork_call(b, module, slot):
    outlined = _define(module, "outlined", ptr, ptr, ptr)
    fork = _declare(module, "__kmpc_fork_call", ptr, i32, ptr, ptr)
    b.call(fork, [ConstantPointerNull(), ConstantInt(i32, 1), outlined, slot])


def _cast(b, module, slot):
    b.cast(CastOp.PTRTOINT, slot, i64, "addr")


def _gep(b, module, slot):
    b.gep(i8, slot, [ConstantInt(i64, 0)], "same")


def _punned_load(b, module, slot):
    b.load(i8, slot, "low_byte")


def _static_init(b, module, slot):
    init = _declare(
        module, "__kmpc_for_static_init_8u",
        ptr, i32, i32, ptr, ptr, ptr, ptr, i64, i64,
    )
    null = ConstantPointerNull()
    b.call(
        init,
        [null, ConstantInt(i32, 0), ConstantInt(i32, 34), null, slot,
         null, null, ConstantInt(i64, 1), ConstantInt(i64, 1)],
    )


class TestPrivateSlots:
    """A stack slot whose address goes only to its own loads and stores
    and to non-capturing runtime entry points is private to its thread:
    those loads and stores join thread-local runs.  Any other use of
    the address keeps every access of the slot in lockstep."""

    @pytest.mark.parametrize(
        "escape",
        [
            _store_into_memory,
            _pass_to_guest,
            _pass_to_guest_named_like_the_runtime,
            _pass_to_fork_call,
            _cast,
            _gep,
            _punned_load,
        ],
        ids=[
            "stored-to-memory", "guest-function", "guest-runtime-name",
            "fork-call", "cast", "gep", "punned-load",
        ],
    )
    @pytest.mark.parametrize("slot_type", [i64, ptr], ids=["i64", "ptr"])
    def test_escaping_slot_stays_in_lockstep(self, escape, slot_type):
        module = _slot_module(slot_type, escape)
        n = len(module.get_function("f").blocks[0].instructions)
        local = _local_ops(module, "f")["entry"]
        # Neither the store nor the load.
        assert not {n - 3, n - 2} & local

    @pytest.mark.parametrize(
        "use", [lambda b, m, s: None, _static_init],
        ids=["loads-and-stores", "static-init"],
    )
    @pytest.mark.parametrize("slot_type", [i64, ptr], ids=["i64", "ptr"])
    def test_private_slot_joins_local_runs(self, use, slot_type):
        module = _slot_module(slot_type, use)
        entry = module.get_function("f").blocks[0]
        n = len(entry.instructions)
        # The store and the load, up to the ret.
        assert {n - 3, n - 2} <= _local_ops(module, "f")["entry"]

    def test_shared_reduction_variable_stays_in_lockstep(self):
        """``sum``'s address goes into the region's context: its loads
        and stores in ``main`` are not local."""
        module = compile_source(WORKSHARING, optimize=True).module
        main = module.get_function("main")
        local = _local_ops(module, "main")
        accesses = [
            (block.name, i)
            for block in main.blocks
            for i, inst in enumerate(block.instructions)
            if inst.opcode in ("load", "store") and inst.pointer.name == "sum"
        ]
        assert accesses
        for block_name, i in accesses:
            assert i not in local[block_name]

    def test_worksharing_loop_condition_is_one_local_run(self):
        """The run-kernels worksharing loop reloads ``%.omp.ub`` in its
        condition; the slot's address only goes to
        ``__kmpc_for_static_init_4u``, so the whole block after its phis
        is one thread-local run."""
        module = compile_source(WORKSHARING, optimize=True).module
        (fn,) = [
            f for f in module.functions.values()
            if any(b.name == "omp.inner.for.cond" for b in f.blocks)
        ]
        interp = ClosureInterpreter(module)
        code = interp.code_for(fn)
        (block,) = [b for b in fn.blocks if b.name == "omp.inner.for.cond"]
        bc = code.blocks[id(block)]
        assert any(
            inst.opcode == "load" for inst in block.instructions
        )
        run = bc.local_runs[bc.entry_index]
        assert run is not None
        assert run[1] == len(block.instructions) - bc.entry_index


class TestRacyInterleavings:
    @pytest.mark.parametrize("num_threads", [2, 3, 4, 5])
    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    def test_racy_program_matches_lockstep(self, num_threads, optimize):
        module = compile_source(RACY, optimize=optimize).module
        ref = outcome(module, "interp", num_threads=num_threads)
        got = outcome(module, "closures", num_threads=num_threads)
        assert ref[0] == "ok"
        assert got == ref


class TestDeadlineInRegisterLoops:
    SERIAL = r"""
    int main(void) {
      unsigned x = 1;
      while (1) x = x * 3 + 1;
      return (int)x;
    }
    """
    TEAM = r"""
    int main(void) {
      #pragma omp parallel num_threads(2)
      {
        unsigned x = omp_get_thread_num();
        while (1) x = x * 3 + 1;
      }
      return 0;
    }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("source", [SERIAL, TEAM], ids=["serial", "team"])
    def test_timeout_fires_promptly(self, engine, source):
        start = time.monotonic()
        with pytest.raises(ExecutionTimeout, match="wall-clock timeout"):
            run_source(
                source, optimize=True, num_threads=2, exec_engine=engine,
                timeout_s=0.3,
            )
        assert time.monotonic() - start < 2.0


class TestNonLocalErrors:
    def test_fp_to_int_of_inf_in_a_team(self):
        source = r"""
        int main(void) {
          #pragma omp parallel num_threads(3)
          {
            double d = omp_get_thread_num();
            double inf = 1.0 / (d - d);
            printf("t%d\n", omp_get_thread_num());
            int k = (int)inf;
            printf("k=%d\n", k);
          }
          return 0;
        }
        """
        for optimize in (False, True):
            module = compile_source(source, optimize=optimize).module
            seen = []
            for engine in ENGINES:
                interp = create_interpreter(module, engine=engine)
                interp.omp.num_threads = 3
                with pytest.raises(Exception) as exc_info:
                    interp.run("main", [])
                seen.append(
                    (
                        type(exc_info.value).__name__,
                        str(exc_info.value),
                        interp.output(),
                        interp.instruction_count,
                    )
                )
            assert seen[0] == seen[1]
            assert seen[0][:2] == (
                "Trap", "conversion of inf or NaN to an integer"
            )

    def test_error_mid_run_retires_up_to_the_raiser(self):
        source = r"""
        int main(int argc) {
          int *p = 0;
          int a = argc * 7;
          int b = a + 3;
          int c = *p;
          return a + b + c;
        }
        """
        module = compile_source(source, optimize=True).module
        seen = []
        for engine in ENGINES:
            interp = create_interpreter(module, engine=engine)
            with pytest.raises(Exception) as exc_info:
                interp.run("main", [1])
            seen.append(
                (type(exc_info.value).__name__, interp.instruction_count)
            )
        assert seen[0] == seen[1]


#: a pointer to address 0 the optimizer cannot fold (main runs with
#: argc == 1)
_NULL_FROM_ARGC = "int *p = (int *)(long)(argc - 1);"

#: (id, source, expected exception type): each raiser sits inside an
#: O1 serial run (the run after the first printf) at the position the
#: id names; the serial run of the division and cast cases holds the
#: raiser between two ops, and the last four raise inside loops
RAISE_MID_RUN = [
    (
        "load-first",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int c = *p;
          return c + argc * 3;
        }}
        """,
        "MemoryError_",
    ),
    (
        "load-middle",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int a = argc * 7;
          int c = *p;
          return a + c * 3;
        }}
        """,
        "MemoryError_",
    ),
    (
        "load-last",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int a = argc * 7;
          int b = a + 3;
          printf("%d %d\\n", b, *p);
          return 0;
        }}
        """,
        "MemoryError_",
    ),
    (
        "store-first",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          *p = argc;
          return argc * 3 + 1;
        }}
        """,
        "MemoryError_",
    ),
    (
        "store-middle",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int a = argc * 7;
          *p = a;
          return a + 5;
        }}
        """,
        "MemoryError_",
    ),
    (
        "store-last",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int a = argc * 7;
          int b = a + 3;
          *p = b;
          printf("done\\n");
          return 0;
        }}
        """,
        "MemoryError_",
    ),
    *(
        (
            f"{kind}-by-register-zero",
            f"""
            int main(int argc) {{
              {ty} z = argc - 1;
              printf("go\\n");
              {ty} a = argc * 5 + 2;
              {ty} q = a {op} z;
              return (int)(q + a);
            }}
            """,
            "Trap",
        )
        for kind, ty, op in (
            ("udiv", "unsigned", "/"),
            ("sdiv", "int", "/"),
            ("urem", "unsigned", "%"),
            ("srem", "int", "%"),
        )
    ),
    (
        "fptosi-of-inf",
        """
        int main(int argc) {
          double d = argc - 1;
          printf("go\\n");
          double inf = 1.0 / d;
          int a = argc * 9;
          int k = (int)inf;
          return k + a;
        }
        """,
        "Trap",
    ),
    # Raisers inside loops, where a run follows its branch into the
    # next block and its own back edge: in the second block of a
    # two-block loop, in a late iteration.
    (
        "sdiv-by-register-zero-at-iteration-37",
        """
        int main(int argc) {
          printf("go\\n");
          int acc = 0;
          for (int i = 0; i < 100; i += 1)
            acc += (i * 3 + argc) / (37 - i + argc - 1);
          return acc;
        }
        """,
        "Trap",
    ),
    (
        "urem-by-register-zero-at-iteration-37",
        """
        int main(int argc) {
          printf("go\\n");
          unsigned acc = 0;
          for (unsigned i = 0; i < 100; i += 1)
            acc += (i * 5u + 1u) % (37u - i + (unsigned)argc - 1u);
          return (int)acc;
        }
        """,
        "Trap",
    ),
    (
        "null-store-in-loop-body",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          printf("go\\n");
          int acc = 0;
          for (int i = 0; i < 50; i += 1) {{
            acc += i * argc;
            *p = acc;
          }}
          return acc;
        }}
        """,
        "MemoryError_",
    ),
    (
        "null-load-in-late-iteration",
        f"""
        int main(int argc) {{
          {_NULL_FROM_ARGC}
          static int buf[64];
          printf("go\\n");
          int acc = 0;
          for (int i = 0; i < 50; i += 1) {{
            int *q = i == 37 ? p : &buf[i];
            acc += *q + i;
          }}
          return acc;
        }}
        """,
        "MemoryError_",
    ),
]


class TestRaiseMidRun:
    """An op that raises inside a serial run retires exactly the ops
    before it: same exception, output, instruction count and detailed
    profile as the reference, which steps one instruction at a time."""

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    @pytest.mark.parametrize(
        "source,expected",
        [(src, exc) for _, src, exc in RAISE_MID_RUN],
        ids=[name for name, _, _ in RAISE_MID_RUN],
    )
    def test_engines_agree(self, source, expected, optimize):
        module = compile_source(source, optimize=optimize).module
        seen = []
        for engine in ENGINES:
            interp = create_interpreter(
                module, engine=engine, profile_detail=True
            )
            with pytest.raises(Exception) as exc_info:
                interp.run("main", [1])
            seen.append(
                (
                    type(exc_info.value).__name__,
                    str(exc_info.value),
                    interp.output(),
                    interp.instruction_count,
                    profile_fingerprint(interp.profile),
                )
            )
        assert seen[0] == seen[1]
        assert seen[0][0] == expected
        assert seen[0][2].startswith("go\n")


class TestTeamStepCount:
    def test_most_team_instructions_retire_in_local_runs(self, monkeypatch):
        """Call-count check: a team member retires its thread-local runs
        without a trip through ``step()``."""
        steps = [0]
        original = ClosureContext.step

        def counted(self):
            if self.team is not None:
                steps[0] += 1
            return original(self)

        monkeypatch.setattr(ClosureContext, "step", counted)
        module = compile_source(WORKSHARING, optimize=True).module
        interp = create_interpreter(module, engine="closures")
        interp.run("main", [])
        team = sum(
            ctx.instructions_retired
            for ctx in interp.profile.contexts
            if ctx.team is not None
        )
        assert team > 5000
        assert steps[0] * 4 <= team


class TestLocalRunBudget:
    """A member retires thread-local instructions ahead of the lockstep
    clock only as far as the budget proves safe: after ``T`` of them,
    ``members * (lead + T)`` must stay below the budget, and no more
    than ``LOCAL_BURST_CAP`` retire per call.  A register-only loop
    lets the member go on for thousands of instructions, so the budget
    is what stops it."""

    SPIN = r"""
    int spin(int n) {
      unsigned x = 1;
      for (int k = 0; k < n; k += 1)
        x = x * 3 + (unsigned)k;
      return (int)(x % 1000);
    }
    int main(void) { return spin(900); }
    """

    @pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
    @pytest.mark.parametrize(
        "budget,members,lead",
        [(400, 4, 0), (1000, 3, 17), (2500, 2, 5), (9, 4, 1), (10**7, 4, 0)],
    )
    def test_local_trace_stops_where_the_budget_rule_says(
        self, budget, members, lead, optimize
    ):
        module = compile_source(self.SPIN, optimize=optimize).module
        ref = create_interpreter(module, engine="interp")
        ref_ctx = ref.create_context("spin", [900])
        expected = ref_ctx.run_to_completion()
        interp = create_interpreter(module, engine="closures")
        ctx = interp.create_context("spin", [900])
        # Step over the allocas (O0) to the first thread-local op.
        stepped = 0
        while ctx.stack[-1].bc.local_runs[ctx.stack[-1].index] is None:
            ctx.step()
            stepped += 1
        retired = ctx.retire_local_runs(budget, members, lead)
        assert retired <= LOCAL_BURST_CAP
        assert members * (lead + retired) < budget
        # ... and it does not stop much before that point: at most one
        # loop iteration (under a dozen ops) early
        if budget < members * LOCAL_BURST_CAP:
            assert (members + 1) * (retired + 24) >= budget - members * lead
        else:
            assert retired + 24 >= LOCAL_BURST_CAP
        assert ctx.instructions_retired == stepped + retired
        assert ctx.run_to_completion() == expected
        assert ctx.instructions_retired == ref_ctx.instructions_retired


def test_unrolled_loop_takes_few_dispatch_trips():
    """Call-count check: the partially unrolled loop of the run-kernels
    ``unroll-remainder`` kernel guards each copy with its own
    ``land.rhs``/``land.end`` blocks of one or two ops, so a run that
    stopped at every terminator took a trip through the serial loop
    (or a single step) every three ops.  The whole nest is one
    ``while`` inside another in one generated function, entered once
    and again after each stop at a deadline poll (two calls per 4096
    instructions)."""
    source = KERNEL_SHAPES["unroll-remainder"].replace("23", "1203")
    module = compile_source(source, optimize=True).module
    create_interpreter(module, engine="closures").run("main", [])
    interp = create_interpreter(module, engine="closures")
    calls = [0]

    def count(frame, event, arg):
        # generated run functions and single-step op templates
        if event == "call" and frame.f_code.co_filename.startswith("<run"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        interp.run("main", [])
    finally:
        sys.setprofile(None)
    assert interp.output() == "333206\n"
    assert interp.instruction_count > 16000
    assert calls[0] * 1000 <= interp.instruction_count


def test_interp_contexts_have_no_local_runs():
    module = compile_source(WORKSHARING, optimize=True).module
    interp = create_interpreter(module, engine="interp")
    ctx = interp.create_context("main")
    assert ctx.local_run_retirer() is None


def test_nested_fork_keeps_team_in_lockstep():
    """A member that may fork runs its team without run-ahead: the
    nested team's instructions all retire inside one lockstep step."""
    source = r"""
    int total;
    void inner(int tid) {
      #pragma omp parallel num_threads(2)
      {
        for (int j = 0; j < 300; j += 1)
          total += tid + j;
      }
    }
    int main(void) {
      #pragma omp parallel num_threads(2)
      {
        int tid = omp_get_thread_num();
        int x = 0;
        for (int k = 0; k < 100 * tid; k += 1) x += k;
        inner(tid + x);
      }
      printf("%d\n", total);
      return 0;
    }
    """
    module = compile_source(source, optimize=True).module
    total = total_instructions(module, num_threads=2)
    for fuel in range(1, total + 2, max(1, total // 100)):
        ref = outcome(module, "interp", num_threads=2, fuel=fuel)
        got = outcome(module, "closures", num_threads=2, fuel=fuel)
        assert got == ref, f"engines diverged at fuel={fuel}"

