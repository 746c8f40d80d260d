"""Run retirement stays exactly lockstep.

The closure engine retires straight-line runs per dispatch: serial runs
in the single-threaded loop, thread-local runs ahead of the team
scheduler's lockstep clock.  These tests race it against the reference
interpreter, which steps one instruction at a time, wherever a run
boundary could leak: the fuel exhaustion point and scheduler snapshot
across a team's whole lifetime, racy interleavings, the wall-clock
deadline inside register-only loops, and errors raised by instructions
that are deliberately not thread-local.  They also pin the two guardrail
fixes that came with it: ``fuel`` bounds parallel regions, and a
region's thread stacks are freed when it ends.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import create_interpreter, profile_fingerprint
from repro.exec.engine import ClosureContext
from repro.interp.interpreter import DeadlockError, ExecutionTimeout
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
            (CRITICAL, False, 50),
            (CRITICAL, True, 50),
            (RACY, True, 50),
        ],
        ids=["worksharing-O1", "critical-O0", "critical-O1", "racy-O1"],
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
        interp.run("main", [])
        assert interp.output() == "600\n"
        assert len(interp.memory.data) < 4 << 20

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
            assert seen[0][0] == "OverflowError"

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
#: raiser between two ops
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
        "OverflowError",
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

