"""Unit tests for the observability subsystem (repro.instrument):
time-trace, statistics registry, optimization remarks and execution
profiles, plus the structured PassManager run results."""

import json

import pytest

from repro.instrument import (
    STATS,
    RemarkKind,
    TimeTraceProfiler,
    active_time_trace,
    disable_time_trace,
    enable_time_trace,
    get_statistic,
    render_stats,
    time_trace_scope,
)
from repro.midend import default_pass_pipeline
from repro.midend.pass_manager import PipelineRunResult
from repro.pipeline import compile_source, run_source
from tests.conftest import compile_c, run_c

UNROLL_SRC = """
int main() {
  int sum = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < 16; i++) sum += i;
  return sum;
}
"""

PARALLEL_SRC = r"""
int main() {
  int acc = 0;
  #pragma omp parallel for reduction(+: acc)
  for (int i = 0; i < 64; i++) acc += i;
  printf("%d\n", acc);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled (the profiler is
    a process-global, like LLVM's TimeTraceProfilerInstance)."""
    disable_time_trace()
    yield
    disable_time_trace()


# ======================================================================
# Pillar 1: time-trace
# ======================================================================
class TestTimeTrace:
    def test_disabled_scope_is_shared_noop(self):
        assert active_time_trace() is None
        scope_a = time_trace_scope("A")
        scope_b = time_trace_scope("B", "detail")
        assert scope_a is scope_b  # one shared null object
        with scope_a:
            pass  # no-op, no error

    def test_enable_is_idempotent(self):
        first = enable_time_trace()
        second = enable_time_trace()
        assert first is second
        assert disable_time_trace() is first
        assert active_time_trace() is None

    def test_scope_records_span(self):
        profiler = enable_time_trace()
        with time_trace_scope("Phase", "input.c"):
            pass
        assert len(profiler.spans) == 1
        span = profiler.spans[0]
        assert span.name == "Phase"
        assert span.detail == "input.c"
        assert span.end_ns >= span.start_ns
        assert span.parent_id is None

    def test_scope_parent_is_the_enclosing_scope(self):
        profiler = enable_time_trace(trace_id="t1", parent_id="attempt")
        with time_trace_scope("Outer") as outer:
            with time_trace_scope("Inner"):
                pass
        inner_span, outer_span = profiler.spans
        assert outer_span.span_id == outer.span_id
        assert outer_span.parent_id == "attempt"
        assert inner_span.parent_id == outer.span_id
        assert {s.trace_id for s in profiler.spans} == {"t1"}

    def test_chrome_trace_schema(self):
        """The export must be loadable chrome://tracing JSON: an object
        with a traceEvents array of 'X' events (ts/dur in microseconds)
        plus process/thread metadata."""
        profiler = enable_time_trace()
        with time_trace_scope("Outer"):
            with time_trace_scope("Inner"):
                pass
        disable_time_trace()
        data = json.loads(profiler.to_chrome_json())
        assert isinstance(data["traceEvents"], list)
        assert isinstance(data["beginningOfTime"], int)
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"Outer", "Inner"}
        for event in complete:
            assert set(event) >= {"ph", "pid", "tid", "ts", "dur", "name"}
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        by_name = {e["name"]: e["args"] for e in complete}
        assert by_name["Outer"]["parent_id"] is None
        assert by_name["Inner"]["parent_id"] == by_name["Outer"]["span_id"]
        # Sorted by begin time so viewers reconstruct nesting.
        timestamps = [e["ts"] for e in complete]
        assert timestamps == sorted(timestamps)
        assert {e["name"] for e in meta} == {
            "process_name",
            "thread_name",
        }

    def test_granularity_filters_short_events(self):
        profiler = TimeTraceProfiler(granularity_us=10_000_000)
        with profiler.scope("tiny"):
            pass
        assert profiler.spans  # recorded...
        complete = [
            e for e in profiler.chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert complete == []  # ...but below the reporting threshold

    def test_compile_and_run_produce_phase_events(self):
        profiler = enable_time_trace()
        run_source(UNROLL_SRC, optimize=True)
        disable_time_trace()
        names = {s.name for s in profiler.spans}
        assert {
            "Preprocess",
            "Parse",
            "CodeGen",
            "CodeGen.Function",
            "Verify",
            "Pass.loop-unroll",
            "Execute",
        } <= names
        # Sema directive handling appears with the directive name.
        sema_spans = [
            s for s in profiler.spans if s.name == "Sema.OMPDirective"
        ]
        assert any(s.detail == "unroll" for s in sema_spans)


# ======================================================================
# Pillar 2: statistics
# ======================================================================
class TestStatistics:
    def test_get_statistic_returns_same_counter(self):
        a = get_statistic("test-owner", "some-counter", "desc")
        b = get_statistic("test-owner", "some-counter")
        assert a is b
        assert a.name == "test-owner.some-counter"
        assert STATS.get("test-owner.some-counter") is a

    def test_snapshot_delta(self):
        stat = get_statistic("test-owner", "delta-counter")
        before = STATS.counter_values()
        stat.inc()
        stat.inc(2)
        delta = STATS.delta_since(before)
        assert delta["test-owner.delta-counter"] == 3
        # Unchanged counters do not appear in the delta.
        assert "shadow.nodes-built" not in delta

    def test_compile_accumulates_counters(self):
        """One compile advances the front-end counters, and the delta
        attached to the result covers exactly that compile."""
        first = compile_c(UNROLL_SRC)
        second = compile_c(UNROLL_SRC)
        for result in (first, second):
            assert result.stats["shadow.nodes-built"] > 0
            assert result.stats["shadow.transforms-built"] == 1
            assert result.stats["preprocessor.tokens-lexed"] > 0
            assert result.stats["parser.external-decls-parsed"] == 1
            assert result.stats["codegen.functions-emitted"] == 1
            assert result.stats["codegen.instructions-emitted"] > 0
        # Independent deltas: the second compile is not inflated by the
        # first even though the registry is process-global.
        assert (
            second.stats["shadow.nodes-built"]
            == first.stats["shadow.nodes-built"]
        )

    def test_midend_counters_advance_under_optimize(self):
        before = STATS.counter_values()
        run_source(UNROLL_SRC, optimize=True)
        delta = STATS.delta_since(before)
        assert delta["loop-unroll.loops-unrolled"] == 1
        assert delta["loop-unroll.copies-made"] == 3  # factor 4
        assert delta["mem2reg.allocas-promoted"] > 0
        assert delta["midend.pass-function-changes"] > 0

    def test_render_text_format(self):
        stat = get_statistic(
            "test-owner", "render-counter", "Things counted"
        )
        stat.inc(7)
        text = render_stats({"test-owner.render-counter": 7})
        assert "... Statistics Collected ..." in text
        assert "7 test-owner - Things counted" in text

    def test_merged_flat_delta_renders_its_name(self):
        """A worker's statistic the parent never registered merges in
        as a counter without help text; the dump shows its name."""
        STATS.merge({"test-owner.merged-only": 4})
        text = render_stats({"test-owner.merged-only": 4})
        assert "4 test-owner - merged-only" in text


# ======================================================================
# Pillar 3: optimization remarks
# ======================================================================
class TestRemarks:
    def test_applied_transformation_emits_passed_remark(self):
        result = compile_c(UNROLL_SRC)
        passed = result.remarks.by_kind(RemarkKind.PASSED)
        unroll = [r for r in passed if r.pass_name == "unroll"]
        assert len(unroll) == 1
        remark = unroll[0]
        assert remark.args["factor"] == 4
        assert remark.location is not None
        rendered = remark.render(result.source_manager)
        assert "remark:" in rendered
        assert "[-Rpass=unroll]" in rendered
        assert "factor of 4" in rendered

    def test_midend_unroll_emits_passed_remark_naming_factor(self):
        outcome = run_c(UNROLL_SRC, optimize=True)
        remarks = outcome.compile_result.remarks.by_pass("loop-unroll")
        passed = [
            r for r in remarks if r.kind == RemarkKind.PASSED
        ]
        assert len(passed) == 1
        assert passed[0].args["factor"] == 4
        assert "factor of 4" in passed[0].message

    def test_rejected_transformation_emits_missed_remark(self):
        src = """
        int main() {
          int sum = 0;
          #pragma omp tile sizes(4, 4)
          for (int i = 0; i < 16; i++) sum += i;
          return sum;
        }
        """
        result = compile_source(src, strict=False)
        missed = result.remarks.by_kind(RemarkKind.MISSED)
        assert len(missed) == 1
        assert missed[0].pass_name == "tile"
        assert "tile not applied" in missed[0].message
        assert missed[0].args["depth"] == 2

    def test_full_unroll_unknown_trip_count_analysis_remark(self):
        """The mid-end falls back to partial unrolling when full
        unrolling is requested (``llvm.loop.unroll.full``) but the trip
        count is not a compile-time constant; the fallback is reported
        as an analysis remark."""
        from repro.instrument import RemarkEmitter
        from repro.ir.metadata import loop_metadata
        from repro.midend.loop_unroll import LoopUnrollPass

        src = """
        int work(int n) {
          int sum = 0;
          for (int i = 0; i < n; i++) sum += i;
          return sum;
        }
        """
        result = compile_source(src, openmp=False)
        fn = result.module.get_function("work")
        latch = next(b for b in fn.blocks if b.name == "for.inc")
        latch.terminator.metadata["llvm.loop"] = loop_metadata(
            unroll_full=True
        )
        remarks = RemarkEmitter()
        assert LoopUnrollPass(remarks=remarks).run_on_function(fn)
        analysis = [
            r
            for r in remarks.by_kind(RemarkKind.ANALYSIS)
            if r.pass_name == "loop-unroll"
        ]
        assert analysis, remarks.render_all()
        assert "unable to fully unroll" in analysis[0].message
        # The fallback itself is then reported as passed.
        assert remarks.by_kind(RemarkKind.PASSED)

    def test_filtered_regex_per_kind(self):
        result = compile_c(UNROLL_SRC)
        assert result.remarks.filtered(passed="unro")  # regex search
        assert not result.remarks.filtered(passed="^tile$")
        # A passed-only filter never returns missed/analysis remarks.
        for remark in result.remarks.filtered(passed=".*"):
            assert remark.kind == RemarkKind.PASSED

    def test_remarks_stay_out_of_diagnostics(self):
        result = compile_c(UNROLL_SRC)
        assert len(result.remarks) > 0
        assert len(result.diagnostics.diagnostics) == 0


# ======================================================================
# Pillar 4: execution profiles
# ======================================================================
class TestExecutionProfile:
    def test_profile_agrees_with_legacy_instruction_count(self):
        outcome = run_c(UNROLL_SRC, optimize=True)
        assert outcome.instruction_count > 0
        assert (
            outcome.profile.total_instructions
            == outcome.instruction_count
        )

    def test_parallel_per_thread_profile(self):
        outcome = run_c(PARALLEL_SRC, num_threads=4)
        profile = outcome.profile
        assert profile.fork_count == 1
        threads = profile.thread_profiles()
        # gtid 0 (serial main) + 4 team members
        assert len(threads) == 5
        workers = [tp for tp in threads if tp.gtid != 0]
        assert all(tp.instructions > 0 for tp in workers)
        assert all(tp.barrier_waits >= 1 for tp in workers)
        assert profile.barrier_episodes >= 1
        assert profile.total_barrier_waits == sum(
            tp.barrier_waits for tp in threads
        )
        utilization = profile.utilization()
        assert sum(utilization.values()) == pytest.approx(1.0)

    def test_detailed_block_attribution_and_loop_report(self):
        outcome = run_c(
            UNROLL_SRC, optimize=True, profile_detail=True
        )
        profile = outcome.profile
        # Block-level attribution covers every retired instruction.
        assert (
            sum(profile.block_counts.values())
            == profile.total_instructions
        )
        assert profile.function_counts()["main"] > 0
        loops = profile.loop_report(outcome.compile_result.module)
        assert loops
        main_loops = [lp for lp in loops if lp.function == "main"]
        assert any(lp.instructions > 0 for lp in main_loops)
        # Disjoint attribution: per-loop counts cannot exceed the total.
        assert (
            sum(lp.instructions for lp in loops)
            <= profile.total_instructions
        )

    def test_detail_off_collects_no_blocks(self):
        outcome = run_c(UNROLL_SRC, optimize=True)
        assert outcome.profile.detailed is False
        assert outcome.profile.block_counts == {}

    def test_to_json_schema(self):
        outcome = run_c(
            PARALLEL_SRC, num_threads=2, profile_detail=True
        )
        data = outcome.profile.to_json(outcome.compile_result.module)
        assert json.loads(json.dumps(data))  # serializable
        assert data["total_instructions"] > 0
        assert data["fork_count"] == 1
        assert {"gtid", "instructions", "barrier_waits"} <= set(
            data["threads"][0]
        )
        assert "functions" in data
        assert "loops" in data


# ======================================================================
# Satellite: PassManager structured run results
# ======================================================================
class TestPassManagerRunInfo:
    def test_run_returns_structured_result(self):
        result = compile_c(UNROLL_SRC)
        pm = default_pass_pipeline()
        run = pm.run(result.module)
        assert isinstance(run, PipelineRunResult)
        assert bool(run) is True  # unroll + cleanup changed things
        unroll = run.info("loop-unroll")
        assert unroll.functions_visited == 1
        assert unroll.functions_changed == 1
        assert unroll.duration_s >= 0.0
        assert run.changes_by_pass()["loop-unroll"] == 1

    def test_second_run_reports_no_changes(self):
        result = compile_c(UNROLL_SRC)
        pm = default_pass_pipeline()
        pm.run(result.module)
        again = pm.run(result.module)
        assert bool(again) is False
        assert again.info("loop-unroll").functions_changed == 0
        # Visits still happened; only the change count is zero.
        assert again.info("loop-unroll").functions_visited == 1

    def test_unknown_pass_raises(self):
        run = PipelineRunResult()
        with pytest.raises(KeyError):
            run.info("nonexistent")
