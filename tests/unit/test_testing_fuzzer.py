"""Unit tests for the metamorphic differential-testing package
(src/repro/testing/): generator determinism and prediction accuracy,
oracle divergence detection, and the ddmin shrinker."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.testing import (
    DEFAULT_CONFIGS,
    check_source,
    generate_program,
    shrink_source,
)
from repro.testing.fuzz import closure_configs, run_campaign


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in (1, 7, 42):
            a = generate_program(seed)
            b = generate_program(seed)
            assert a.source == b.source
            assert a.expected_stdout == b.expected_stdout
            assert a.expected_trips == b.expected_trips
            assert a.features == b.features

    def test_different_seeds_differ(self):
        sources = {generate_program(s).source for s in range(1, 15)}
        assert len(sources) > 1

    def test_program_shape(self):
        prog = generate_program(3)
        assert "int main" in prog.source
        assert prog.expected_trips >= 0
        assert prog.features
        assert prog.expected_stdout.endswith("\n")

    def test_prediction_matches_reference_run(self):
        """The python-side simulation agrees with actually running the
        program: check_source with the predicted stdout passes."""
        for seed in (1, 2):
            prog = generate_program(seed)
            divergence = check_source(
                prog.source,
                expected_stdout=prog.expected_stdout,
                expected_trips=prog.expected_trips,
                seed=seed,
                features=prog.features,
            )
            assert divergence is None, divergence.describe()


class TestOracle:
    def test_agreeing_program_has_no_divergence(self):
        src = (
            "int main(void) {\n"
            "  int sum = 0;\n"
            "  #pragma omp tile sizes(3)\n"
            "  for (int i = 0; i < 10; i += 1)\n"
            "    sum += i;\n"
            '  printf("%d\\n", sum);\n'
            "  return 0;\n"
            "}\n"
        )
        assert check_source(src) is None

    AGREEING_LOOP = (
        "int main(void) {\n"
        "  int sum = 0;\n"
        "  #pragma omp unroll partial(3)\n"
        "  for (int i = 0; i < 40; i += 1)\n"
        "    sum += i * 3 - 1;\n"
        '  printf("%d\\n", sum);\n'
        "  return 0;\n"
        "}\n"
    )

    def test_engine_oracle_agrees_at_a_drawn_fuel(self):
        assert check_source(
            self.AGREEING_LOOP, configs=closure_configs()
        ) is None

    def test_engine_oracle_catches_a_fuel_overrun(self, monkeypatch):
        """A closure engine that retires one instruction past its fuel
        completes the program like the reference, but stops one
        instruction later at the drawn fuel."""
        from repro.exec.engine import ClosureContext

        original = ClosureContext.run_to_completion

        def overrun(self, fuel=None):
            return original(self, None if fuel is None else fuel + 1)

        monkeypatch.setattr(ClosureContext, "run_to_completion", overrun)
        divergence = check_source(
            self.AGREEING_LOOP, configs=closure_configs()
        )
        assert divergence is not None
        assert divergence.kind == "exec-divergence"
        assert "outcome at fuel" in divergence.detail

    def test_order_sensitive_body_diverges_vs_stripped(self):
        """A 2-d tile legally reorders iterations; printing the order
        makes the transformed run differ from the stripped reference —
        exactly what the oracle must flag."""
        src = (
            "int main(void) {\n"
            "  #pragma omp tile sizes(2, 2)\n"
            "  for (int i = 0; i < 3; i += 1)\n"
            "    for (int j = 0; j < 3; j += 1)\n"
            '      printf("%d%d ", i, j);\n'
            "  return 0;\n"
            "}\n"
        )
        divergence = check_source(src)
        assert divergence is not None
        assert divergence.kind == "stdout"

    def test_expected_stdout_mismatch_is_flagged(self):
        src = (
            "int main(void) {\n"
            '  printf("1\\n");\n'
            "  return 0;\n"
            "}\n"
        )
        divergence = check_source(src, expected_stdout="2\n")
        assert divergence is not None
        assert divergence.kind == "expected-stdout"

    def test_invalid_program_everywhere_is_not_a_divergence(self):
        """Uncompilable-in-all-configs input is invalid, not a bug."""
        assert check_source("int main(void) { return $; }\n") is None

    def test_reference_config_is_stripped(self):
        assert DEFAULT_CONFIGS[-1].strip_omp_transforms

    def test_guest_failures_are_guest_errors(self):
        """A trap or runtime failure of the guest is a ``guest-error``,
        as the compile service classifies it, not an ICE; any other
        escape still is one."""
        from repro.interp import MemoryError_
        from repro.interp.interpreter import InterpreterError, Trap
        from repro.pipeline import execute_request, run_source
        from repro.runtime.team import TeamError
        from repro.testing.oracle import _failure

        for exc in (
            Trap("division by zero"),
            InterpreterError("fell off"),
            MemoryError_("out of bounds"),
            TeamError("deadlock"),
        ):
            outcome = _failure(exc)
            assert outcome.error == "guest-error"
            assert outcome.error_detail == f"{type(exc).__name__}: {exc}"
        assert _failure(ValueError("boom")).error == "ice"
        src = "int main(void) { int z = 0; return 7 / z; }\n"
        assert execute_request(src, action="run").kind == "guest-error"
        with pytest.raises(Exception) as info:
            run_source(src)
        assert _failure(info.value).error == "guest-error"

    def test_service_errors_without_diagnostics_are_guest_errors(
        self, monkeypatch
    ):
        """The service answers a guest failure with ``error`` and no
        diagnostics: the oracle reads that as a ``guest-error``, and an
        error with diagnostics as a compile error."""
        from repro import service
        from repro.service import STATUS_ERROR, CompileResponse
        from repro.testing.oracle import Config, _run_config_via_service

        for diagnostics, kind in (
            ("", "guest-error"), ("<input>:1:1: error: x", "compile-error")
        ):
            response = CompileResponse(
                request_id="r", status=STATUS_ERROR,
                diagnostics=diagnostics, detail="division by zero",
            )

            class Service:
                def process_batch(self, requests, response=response):
                    return [response]

            monkeypatch.setattr(service, "shared_service", Service)
            outcome = _run_config_via_service(
                Config("service", via_service=True), "", 1, 1000
            )
            assert outcome.error == kind


class TestShrinker:
    def test_drops_irrelevant_lines(self):
        src = "keep\nnoise\nnoise\nnoise\nkeep\n"
        out = shrink_source(src, lambda s: s.count("keep") >= 2)
        assert out.count("keep") == 2
        assert "noise" not in out

    def test_shrinks_integer_literals(self):
        out = shrink_source(
            "x = 987654\n", lambda s: "x = " in s
        )
        assert out == "x = 0\n"

    def test_predicate_false_on_entry_raises(self):
        with pytest.raises(ValueError):
            shrink_source("abc\n", lambda s: False)

    def test_respects_evaluation_budget(self):
        calls = []

        def predicate(s: str) -> bool:
            calls.append(s)
            return "keep" in s

        shrink_source(
            "keep\n" + "line\n" * 40, predicate, max_evaluations=25
        )
        # entry check + at most the budget
        assert len(calls) <= 26


class TestCampaign:
    def test_small_fixed_seed_campaign_is_clean(self, tmp_path):
        report = run_campaign(
            count=3,
            seed=1,
            reproducer_dir=str(tmp_path),
            shrink=False,
            progress=None,
        )
        assert report.count == 3
        assert report.ok
        assert report.unshrunk_count == 0
        # clean campaigns write no reproducers
        assert list(tmp_path.iterdir()) == []

    def test_python_m_fuzz_writes_nothing_to_stderr(self, tmp_path):
        """``python -m repro.testing.fuzz`` runs without runpy's "found
        in sys.modules" warning: the package does not import the
        campaign module ahead of its run as ``__main__``."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.testing.fuzz", "--count", "1",
             "--seed", "1"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
