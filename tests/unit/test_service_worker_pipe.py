"""The worker side of the service pipe, run in-process.

``execute_payload`` is what a pool worker runs for every attempt; these
tests call it directly (no child process) and hold its outcome to the
pipeline entry point it wraps: for the same request, ``kind``,
``output``, ``exit_code``, ``diagnostics`` and ``stats`` must equal
:func:`repro.pipeline.execute_request`'s, in both representations and
for both actions.  A payload carrying a trace context must come back
with the attempt's spans hung under the parent's attempt span.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.pipeline import execute_request
from repro.service import CompileRequest
from repro.service.request import WorkPayload
from repro.service.worker import execute_payload

SOURCE = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp parallel for reduction(+: sum) num_threads(2)
  for (int i = 0; i < 8; i += 1)
    sum += i;
  #pragma omp unroll partial(2)
  for (int j = 0; j < 5; j += 1)
    sum += j;
  printf("sum=%d\\n", sum);
  return 3;
}
"""


def _payload(request: CompileRequest, **context) -> WorkPayload:
    """The payload the service dispatches for attempt 0 of *request*."""
    return WorkPayload(
        request=replace(
            request,
            request_id="w1",
            inject_faults=request.faults_for_attempt(0),
            trace_id=context.get("trace_id"),
        ),
        attempt=0,
        parent_span_id=context.get("parent_span_id"),
    )


@pytest.mark.parametrize("mode", ["shadow", "irbuilder"])
@pytest.mark.parametrize("action", ["compile", "run"])
def test_payload_outcome_equals_execute_request(action, mode):
    request = CompileRequest(
        source=SOURCE,
        filename="pipe.c",
        action=action,
        mode=mode,
        optimize=True,
        num_threads=2,
    )
    expected = execute_request(
        request.source,
        filename=request.filename,
        action=action,
        mode=mode,
        optimize=True,
        num_threads=2,
    )
    got = execute_payload(_payload(request))
    assert expected.kind == "ok"
    assert got.kind == expected.kind
    assert got.output == expected.output
    assert got.exit_code == expected.exit_code
    assert got.diagnostics == expected.diagnostics
    assert got.stats == expected.stats
    assert got.duration_s > 0
    assert got.spans == []
    if action == "run":
        assert got.output == "sum=38\n" and got.exit_code == 3


def test_compile_error_outcome_equals_execute_request():
    request = CompileRequest(source="int main() { return nope; }\n")
    expected = execute_request(request.source, filename=request.filename)
    got = execute_payload(_payload(request))
    assert got.kind == expected.kind == "compile-error"
    assert got.diagnostics == expected.diagnostics
    assert got.stats == expected.stats


def test_traced_payload_spans_hang_under_the_attempt_span():
    request = CompileRequest(source=SOURCE, action="run", num_threads=2)
    got = execute_payload(
        _payload(request, trace_id="feedc0de", parent_span_id="p.1")
    )
    assert got.kind == "ok"
    assert got.spans
    ids = {span.span_id for span in got.spans}
    assert all(span.trace_id == "feedc0de" for span in got.spans)
    assert all(
        span.parent_id == "p.1" or span.parent_id in ids
        for span in got.spans
    )
    assert any(span.parent_id == "p.1" for span in got.spans)
