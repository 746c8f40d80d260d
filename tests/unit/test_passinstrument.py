"""Unit tests for the pass-pipeline introspection framework: the Myers
unified-diff engine, debug counters, PassInstrumentation hooks,
PipelineRunResult ergonomics, and printer determinism."""

import io
import random

import pytest

from repro.instrument import (
    DEBUG_COUNTERS,
    DebugCounter,
    PassInstrumentation,
    STATS,
    get_debug_counter,
    unified_diff,
)
from repro.instrument.udiff import edit_script
from repro.ir.metadata import MDNode
from repro.midend import default_pass_pipeline
from repro.midend.pass_manager import (
    FunctionPass,
    PassManager,
    PassRunInfo,
    PipelineRunResult,
)
from repro.pipeline import compile_source

UNROLL_SRC = """
int main() {
  int sum = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < 32; i++) sum += i;
  return sum % 256;
}
"""

PLAIN_SRC = """
int main() {
  int x = 1;
  int y = 2;
  return x + y;
}
"""


@pytest.fixture(autouse=True)
def _clean_debug_counters():
    yield
    DEBUG_COUNTERS.unset_all()


def optimize(source, instrument=None):
    result = compile_source(source)
    default_pass_pipeline(
        remarks=result.diagnostics.remarks, instrument=instrument
    ).run(result.module)
    return result


# ======================================================================
class TestUnifiedDiff:
    def test_equal_inputs_empty_diff(self):
        assert unified_diff(["a", "b"], ["a", "b"]) == ""

    def test_headers_and_markers(self):
        out = unified_diff(
            ["one", "two", "three"],
            ["one", "2", "three"],
            fromfile="L",
            tofile="R",
        )
        lines = out.splitlines()
        assert lines[0] == "--- L"
        assert lines[1] == "+++ R"
        assert lines[2].startswith("@@ -1,3 +1,3 @@")
        assert "-two" in lines
        assert "+2" in lines
        assert " one" in lines

    def test_pure_insert_and_delete(self):
        assert "+new" in unified_diff(["a"], ["a", "new"])
        assert "-old" in unified_diff(["a", "old"], ["a"])

    def test_distant_changes_get_separate_hunks(self):
        a = [str(i) for i in range(40)]
        b = list(a)
        b[2] = "x"
        b[35] = "y"
        out = unified_diff(a, b)
        assert out.count("@@ -") == 2

    def test_edit_script_reconstructs_both_sides(self):
        rng = random.Random(1234)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(50):
            a = [rng.choice(alphabet) for _ in range(rng.randrange(12))]
            b = [rng.choice(alphabet) for _ in range(rng.randrange(12))]
            script = edit_script(a, b)
            old = [a[i] for tag, i, _ in script if tag in (" ", "-")]
            new = [b[j] for tag, _, j in script if tag in (" ", "+")]
            assert old == a
            assert new == b
            # common lines really are common
            for tag, i, j in script:
                if tag == " ":
                    assert a[i] == b[j]


# ======================================================================
class TestDebugCounter:
    def test_unset_always_executes(self):
        c = DebugCounter("t1")
        assert all(c.should_execute() for _ in range(10))

    def test_skip_then_count_window(self):
        c = DebugCounter("t2")
        c.configure(2, 3)
        results = [c.should_execute() for _ in range(8)]
        assert results == [False, False, True, True, True, False, False, False]

    def test_skip_without_count_runs_rest(self):
        c = DebugCounter("t3")
        c.configure(1)
        assert [c.should_execute() for _ in range(4)] == [
            False, True, True, True,
        ]

    def test_registry_spec_parsing(self):
        counter = DEBUG_COUNTERS.apply_spec("my-site=3,5")
        assert counter.skip == 3 and counter.limit == 5
        assert DEBUG_COUNTERS.get("my-site") is counter

    @pytest.mark.parametrize(
        "spec", ["nope", "name=", "=1", "n=1,2,3", "n=x", "n=1,-2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            DEBUG_COUNTERS.apply_spec(spec)

    def test_get_debug_counter_registers(self):
        c = get_debug_counter("shared-site", "desc")
        assert DEBUG_COUNTERS.get("shared-site") is c


# ======================================================================
class TestPassInstrumentation:
    def test_print_changed_only_reports_changing_passes(self):
        stream = io.StringIO()
        instrument = PassInstrumentation(
            print_changed=True, stream=stream
        )
        optimize(PLAIN_SRC, instrument)
        out = stream.getvalue()
        # mem2reg promotes the allocas -> diff; loop-unroll has nothing
        # to do on the unannotated loop-free source -> silent.
        assert "*** IR Diff After mem2reg on main ***" in out
        assert "loop-unroll" not in out
        assert "\n-" in out and "\n+" in out

    def test_print_before_and_after_selection(self):
        stream = io.StringIO()
        instrument = PassInstrumentation(
            print_before=["mem2reg"], print_after=["dce"], stream=stream
        )
        optimize(PLAIN_SRC, instrument)
        out = stream.getvalue()
        assert "*** IR Dump Before mem2reg on main ***" in out
        assert "*** IR Dump After dce on main ***" in out
        assert "Dump Before dce" not in out
        assert "Dump After mem2reg" not in out

    def test_print_all_dumps_every_execution(self):
        stream = io.StringIO()
        instrument = PassInstrumentation(
            print_after_all=True, stream=stream
        )
        optimize(PLAIN_SRC, instrument)
        out = stream.getvalue()
        for name in ("loop-unroll", "mem2reg", "constant-fold",
                     "simplify-cfg", "dce"):
            assert f"*** IR Dump After {name} on main ***" in out

    def test_bisect_indices_are_monotonic_and_logged(self):
        stream = io.StringIO()
        instrument = PassInstrumentation(
            opt_bisect_limit=-1, stream=stream
        )
        optimize(PLAIN_SRC, instrument)
        assert [e.index for e in instrument.executions] == [1, 2, 3, 4, 5]
        assert all(e.ran for e in instrument.executions)
        logged = stream.getvalue().splitlines()
        assert logged[0] == (
            "BISECT: running pass (1) loop-unroll on function (main)"
        )
        assert len(logged) == 5

    def test_bisect_limit_skips_and_emits_missed_remarks(self):
        stream = io.StringIO()
        instrument = PassInstrumentation(
            opt_bisect_limit=2, stream=stream
        )
        result = optimize(PLAIN_SRC, instrument)
        ran = [e for e in instrument.executions if e.ran]
        skipped = [e for e in instrument.executions if not e.ran]
        assert [e.index for e in ran] == [1, 2]
        assert [e.index for e in skipped] == [3, 4, 5]
        assert "BISECT: NOT running pass (3)" in stream.getvalue()
        missed = [
            r
            for r in result.remarks
            if "-opt-bisect-limit=2" in r.message
        ]
        assert len(missed) == 3

    def test_skipped_executions_counted_in_stats(self):
        before = STATS.counter_values()
        instrument = PassInstrumentation(
            opt_bisect_limit=0, stream=io.StringIO()
        )
        optimize(PLAIN_SRC, instrument)
        delta = STATS.delta_since(before)
        assert delta.get("pass-instrument.executions-skipped") == 5

    def test_snapshot_and_diff_stats(self):
        before = STATS.counter_values()
        instrument = PassInstrumentation(
            print_changed=True, stream=io.StringIO()
        )
        optimize(PLAIN_SRC, instrument)
        delta = STATS.delta_since(before)
        assert delta.get("pass-instrument.ir-snapshots-taken", 0) == 5
        assert delta.get("pass-instrument.diffs-emitted", 0) >= 1

    def test_disabled_instrumentation_reports_not_enabled(self):
        assert not PassInstrumentation().enabled
        assert PassInstrumentation(print_changed=True).enabled
        assert PassInstrumentation(opt_bisect_limit=-1).enabled


# ======================================================================
class TestPipelineRunResult:
    def test_iter_and_len(self):
        result = compile_source(PLAIN_SRC)
        pm = default_pass_pipeline(remarks=result.diagnostics.remarks)
        run = pm.run(result.module)
        assert len(run) == 5
        names = [info.name for info in run]
        assert names == pm.pass_names()
        assert all(isinstance(info, PassRunInfo) for info in run)

    def test_info_keyerror_lists_valid_names(self):
        run = PipelineRunResult(
            passes=[PassRunInfo("mem2reg"), PassRunInfo("dce")]
        )
        with pytest.raises(KeyError) as exc:
            run.info("no-such-pass")
        message = str(exc.value)
        assert "'mem2reg'" in message and "'dce'" in message

    def test_info_keyerror_on_empty_run(self):
        with pytest.raises(KeyError, match="<none>"):
            PipelineRunResult().info("anything")

    def test_functions_skipped_recorded(self):
        result = compile_source(PLAIN_SRC)
        instrument = PassInstrumentation(
            opt_bisect_limit=1, stream=io.StringIO()
        )
        run = default_pass_pipeline(
            remarks=result.diagnostics.remarks, instrument=instrument
        ).run(result.module)
        assert run.info("loop-unroll").functions_skipped == 0
        assert run.info("mem2reg").functions_skipped == 1
        assert run.info("mem2reg").functions_visited == 0


# ======================================================================
class TestPrinterDeterminism:
    def test_ir_text_stable_across_metadata_churn(self):
        """Regression: metadata used process-global ids, so printing the
        same source twice differed when unrelated MDNodes were created in
        between.  Local numbering makes prints byte-equal."""
        first = compile_source(UNROLL_SRC).ir_text()
        for _ in range(11):  # churn the global metadata id counter
            MDNode([MDNode([1]), 2], distinct=True)
        second = compile_source(UNROLL_SRC).ir_text()
        assert first == second
        assert "!llvm.loop !0" in first  # locally numbered from zero

    def test_print_function_snapshots_stable(self):
        from repro.ir.printer import print_function

        result = compile_source(UNROLL_SRC)
        fn = result.module.get_function("main")
        MDNode([3], distinct=True)
        assert print_function(fn) == print_function(fn)
