"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, layer_spans, staged_compile  # noqa: E402
from stats import beyond, median, percentile, tail  # noqa: E402


# -- stream generator ----------------------------------------------------


def test_edit_stream_is_deterministic_per_seed():
    assert inputs.edit_stream(7, 0, 300) == inputs.edit_stream(7, 0, 300)


def test_edit_stream_differs_across_seeds_and_editors():
    base = inputs.edit_stream(7, 0, 300)
    assert inputs.edit_stream(8, 0, 300) != base
    assert inputs.edit_stream(7, 1, 300) != base


def test_edit_stream_classes_follow_their_definitions():
    stream = inputs.edit_stream(3, 0, 600)
    assert {req.cls for req in stream} == set(inputs.CLASSES)
    for prev, req in zip(stream, stream[1:]):
        if req.cls == "exact":
            assert (req.source, req.action, req.optimize) == (
                prev.source,
                prev.action,
                prev.optimize,
            )
        elif req.cls == "flip":
            assert req.optimize and req.action == "compile"
        elif req.cls == "fresh":
            assert not req.optimize
        elif req.cls == "run":
            assert req.action == "run" and req.expected_stdout


def test_corpus_and_kernels_are_seeded():
    corpus = inputs.compile_corpus(ROOT, 5)
    assert corpus == inputs.compile_corpus(ROOT, 5)
    assert corpus != inputs.compile_corpus(ROOT, 6)
    assert len({e.name for e in corpus}) == len(corpus)
    generated = [e for e in corpus if e.expected_stdout is not None]
    assert len(generated) == inputs.GENERATED_PER_CORPUS
    assert inputs.kernels(5) == inputs.kernels(5)
    assert [k.source for k in inputs.kernels(5)] != [
        k.source for k in inputs.kernels(6)
    ]


# -- percentile helper ---------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert median([3.0, 1.0, 2.0, 4.0]) == 2.5


def test_tail_keeps_at_least_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    # p95 has only 5 samples beyond it; p90 has exactly 10.
    assert beyond(samples, 95) == 5
    assert tail(samples) == (90.0, 90.0)
    many = [float(v) for v in range(1, 1001)]
    assert tail(many) == (95.0, 950.0)
    assert beyond(many, 95) >= 10


def test_tail_falls_back_to_the_median_on_few_samples():
    samples = [float(v) for v in range(1, 16)]
    level, value = tail(samples)
    assert level == 50.0 and value == median(samples)


def test_probe_keeps_its_fastest_time():
    from calibrate import Probe

    probe = Probe()
    for _ in range(3):
        probe.sample()
    assert probe.samples == 3
    assert 0 < probe.best_s < 1.0


def test_probe_uses_no_repository_code():
    import calibrate

    with open(calibrate.__file__, encoding="utf-8") as fh:
        assert "repro" not in fh.read()


# -- output checker ------------------------------------------------------


def _ir(source: str) -> str:
    from repro.pipeline import execute_request

    return execute_request(source, action="compile", optimize=True).output


def test_checker_flags_corrupted_ir():
    kernel = inputs.kernels(1)[1]
    ir = _ir(kernel.source)
    assert checks.ir_mismatch(ir, ir) is None
    corrupted = ir.replace("add ", "sub ", 1)
    assert corrupted != ir
    assert checks.ir_mismatch(corrupted, ir) is not None
    assert checks.ir_mismatch(ir + "\n", ir) is not None


def test_checker_flags_corrupted_stdout_and_exit_code():
    assert checks.stdout_mismatch("42\n", "42\n") is None
    assert checks.stdout_mismatch("43\n", "42\n") is not None
    assert checks.stdout_mismatch("42\n", "42\n", exit_code=1) is not None


def test_kernel_references_match_execution():
    from repro.pipeline import run_source

    for kernel in inputs.kernels(2):
        result = run_source(
            kernel.source, optimize=True, num_threads=kernel.num_threads
        )
        assert result.stdout == kernel.expected_stdout, kernel.name


def test_ir_instruction_count():
    ir = _ir("int main(void) { return 3; }")
    assert checks.ir_instructions(ir) == 1


# -- traced drive --------------------------------------------------------


def test_staged_drive_is_byte_identical_and_traced():
    from repro.pipeline import execute_request

    source = inputs.kernels(1)[0].source
    for mode, optimize in inputs.CONFIGS:
        tracer = Tracer()
        with layer_spans(tracer):
            with tracer.operation("op"):
                staged, _ = staged_compile(source, mode, optimize)
        reference = execute_request(
            source, action="compile", mode=mode, optimize=optimize
        ).output
        assert staged == reference
        names = {s.name for s in tracer.spans}
        assert {"preprocessor", f"parse_sema.{mode}", "print"} <= names
        assert ("midend" in names) == optimize
        root = tracer.roots()[0]
        covered = sum(
            s.duration for s in tracer.spans if s.parent == 0
        )
        assert abs(root.self_s - (root.duration - covered)) < 1e-9


def test_layer_spans_restores_entry_points():
    from repro.preprocessor import Preprocessor

    original = Preprocessor.__dict__["lex_all"]
    with layer_spans(Tracer()):
        assert Preprocessor.__dict__["lex_all"] is not original
    assert Preprocessor.__dict__["lex_all"] is original


# -- serve-edit-mix teardown ---------------------------------------------


def test_server_drains_on_sigterm_and_leaves_no_worker(tmp_path):
    from repro.service import CompileRequest
    from repro.service.net import NetClient
    from server import ServerProcess, alive, process_tree

    server = ServerProcess(ROOT, str(tmp_path), workers=2)
    try:
        workers = process_tree(server.proc.pid)[1:]
        assert workers, "the server spawned no worker process"
        client = NetClient(server.address, deadline_s=60.0)
        response = client.request(
            CompileRequest(source="int main(void) { return 0; }")
        )
        assert response.ok
        assert server.tree_peak_rss_mb() > 0
    except BaseException:
        server.kill()
        raise
    code, survivors = server.drain()
    assert code == 0
    assert survivors == []
    assert not any(alive(pid) for pid in workers)
    assert any("drained:" in line for line in server.stderr_lines)
