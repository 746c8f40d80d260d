"""Byte-identity golden for the loop shapes CodeGen emits.

``test_midend_golden.py`` hashes the example and conformance corpus and
a slice of generator programs, none of which holds a ``while``, ``do``,
range-for, chunked or dynamic schedule, ``lastprivate``, ``collapse``,
``nowait`` or ``for simd`` loop.  The inline sources below cover those
shapes, plus ``break``/``continue``, a ``for`` without condition or
increment, a ``switch`` inside a loop and ``#pragma clang loop`` hints
on each statement loop.  Each compiles in both OpenMP representations;
``loop_shape_golden.json`` pins the digest of its O0 IR and of the
``-print-after-all`` text of the -O1 mid-end.

The loops under ``simd`` declare their variable in the ``for``, so the
variable's final value is not observable after the loop.

A deliberate output change regenerates the file with
``PYTHONPATH=src python tests/unit/test_loop_shape_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.instrument.passinstrument import PassInstrumentation
from repro.midend import default_pass_pipeline
from repro.pipeline import compile_source

GOLDEN = os.path.join(os.path.dirname(__file__), "loop_shape_golden.json")
MODES = ("shadow", "irbuilder")

SOURCES = {
    "while-break-continue": r"""
int main(void) {
  int i = 0; int sum = 0;
  while (i < 20) {
    i += 1;
    if (i % 3 == 0) continue;
    if (i > 15) break;
    sum += i;
  }
  printf("%d %d\n", i, sum);
  return 0;
}
""",
    "do-break-continue": r"""
int main(void) {
  int i = 0; int sum = 0;
  do {
    i += 1;
    if (i == 4) continue;
    if (i == 9) break;
    sum += i;
  } while (i < 12);
  printf("%d %d\n", i, sum);
  return 0;
}
""",
    "for-no-cond-no-inc": r"""
int main(void) {
  int sum = 0;
  for (int i = 0; ; ) {
    if (i >= 10) break;
    sum += i;
    i += 2;
  }
  int j = 0;
  for (;;) {
    j += 1;
    if (j < 5) continue;
    break;
  }
  printf("%d %d\n", sum, j);
  return 0;
}
""",
    "switch-in-loop": r"""
int main(void) {
  int a = 0; int b = 0; int c = 0;
  for (int i = 0; i < 12; i += 1) {
    switch (i % 4) {
    case 0:
      a += i;
      break;
    case 1:
      continue;
    case 2:
      b += i;
    default:
      c += 1;
    }
    if (i == 10) break;
  }
  printf("%d %d %d\n", a, b, c);
  return 0;
}
""",
    "range-for": r"""
int main(void) {
  int data[6];
  for (int i = 0; i < 6; i += 1) data[i] = i * i;
  int sum = 0;
  for (int &x : data) {
    if (x == 4) continue;
    if (x > 16) break;
    x += 1;
    sum += x;
  }
  for (int v : data) sum += v;
  printf("%d\n", sum);
  return 0;
}
""",
    "loop-hints": r"""
int main(void) {
  int data[8];
  int i = 0;
  #pragma clang loop unroll_count(2)
  while (i < 8) { data[i] = i; i += 1; }
  int sum = 0;
  #pragma clang loop unroll_count(4)
  for (int &x : data) sum += x;
  #pragma clang loop unroll_count(2)
  for (int k = 0; k < 8; k += 1) sum += data[k];
  printf("%d\n", sum);
  return 0;
}
""",
    "do-loop-hint": r"""
int main(void) {
  int i = 8; int sum = 0;
  #pragma clang loop unroll(enable)
  do { i -= 1; sum += i; } while (i > 0);
  printf("%d\n", sum);
  return 0;
}
""",
    "schedules": r"""
int main(void) {
  int owner[16];
  #pragma omp parallel for schedule(static, 3) num_threads(4)
  for (int i = 0; i < 16; i += 1) owner[i] = omp_get_thread_num();
  for (int i = 0; i < 16; i += 1) printf("%d", owner[i]);
  printf("\n");
  long s = 0;
  #pragma omp parallel for schedule(dynamic) reduction(+: s)
  for (int i = 0; i < 16; i += 1) s += i;
  #pragma omp parallel for schedule(dynamic, 2) reduction(+: s)
  for (int i = 16; i > 0; i -= 1) s += i;
  #pragma omp parallel for schedule(guided) reduction(+: s)
  for (long i = 0; i < 40; i += 3) s += i;
  #pragma omp parallel for schedule(guided, 4) reduction(+: s)
  for (unsigned i = 0; i < 9; i += 1) s += i;
  printf("%ld\n", s);
  return 0;
}
""",
    "lastprivate": r"""
int main(void) {
  int last = -1; int k = 0;
  #pragma omp parallel for lastprivate(last)
  for (int i = 0; i < 10; i += 1) last = i * 2;
  #pragma omp parallel for lastprivate(k) schedule(dynamic, 3)
  for (int i = 0; i < 10; i += 1) k = i + 100;
  int m = 0;
  #pragma omp simd lastprivate(m)
  for (int i = 0; i < 5; i += 1) m = i * 3;
  printf("%d %d %d\n", last, k, m);
  return 0;
}
""",
    "collapse": r"""
int main(void) {
  long s = 0;
  #pragma omp parallel for collapse(2) reduction(+: s)
  for (int i = 0; i < 4; i += 1)
    for (int j = 0; j < 5; j += 1)
      s += i * 10 + j;
  long t = 0;
  #pragma omp parallel for collapse(3) schedule(dynamic) reduction(+: t)
  for (int i = 0; i < 3; i += 1)
    for (int j = 2; j < 6; j += 2)
      for (int k = 0; k < 3; k += 1)
        t += i * j + k;
  printf("%ld %ld\n", s, t);
  return 0;
}
""",
    "nowait": r"""
int main(void) {
  int a[8]; int b[8];
  #pragma omp parallel num_threads(2)
  {
    #pragma omp for nowait
    for (int i = 0; i < 8; i += 1) a[i] = i;
    #pragma omp for schedule(dynamic) nowait
    for (int i = 0; i < 8; i += 1) b[i] = 2 * i;
    #pragma omp for
    for (int i = 0; i < 8; i += 1) a[i] += 1;
  }
  int sum = 0;
  for (int i = 0; i < 8; i += 1) sum += a[i] + b[i];
  printf("%d\n", sum);
  return 0;
}
""",
    "simd": r"""
int main(void) {
  int sum = 0;
  #pragma omp simd reduction(+: sum)
  for (int i = 0; i < 10; i += 1) sum += i;
  #pragma omp simd
  for (int i = 10; i > 2; i -= 3) sum += i;
  #pragma omp parallel for simd reduction(+: sum)
  for (int i = 0; i < 12; i += 1) sum += i;
  #pragma omp parallel
  {
    #pragma omp for simd reduction(+: sum) schedule(static, 2)
    for (int j = 0; j < 6; j += 1) sum += j;
  }
  #pragma omp simd collapse(2) reduction(+: sum)
  for (int i = 0; i < 3; i += 1)
    for (int j = 0; j < 4; j += 1) sum += i * j;
  printf("%d\n", sum);
  return 0;
}
""",
    "transforms": r"""
int main(void) {
  int data[10];
  for (int i = 0; i < 10; i += 1) data[i] = i + 1;
  long s = 0;
  #pragma omp parallel for reduction(+: s)
  for (int &x : data) s += x * x;
  #pragma omp tile sizes(4)
  for (int &x : data) s += x;
  #pragma omp parallel for reduction(+: s)
  #pragma omp unroll partial(2)
  for (int i = 0; i < 9; i += 1) s += i;
  #pragma omp fuse
  {
    for (int i = 0; i < 5; i += 1) s += i;
    for (int j = 0; j < 3; j += 1) s += 10 * j;
  }
  #pragma omp interchange
  for (int i = 0; i < 3; i += 1)
    for (int j = 0; j < 2; j += 1) s += i * j;
  #pragma omp reverse
  for (int i = 0; i < 4; i += 1) s = s * 2 + i;
  #pragma omp parallel for reduction(+: s)
  for (int i = 0; i < 4; i += 1)
    for (int j = 0; j < i; j += 1) s += j;
  printf("%ld\n", s);
  return 0;
}
""",
    "taskloop": r"""
int main(void) {
  int sum = 0;
  #pragma omp taskloop
  for (int i = 0; i < 6; i += 1) sum += i;
  printf("%d\n", sum);
  return 0;
}
""",
}

def outputs(name: str, mode: str) -> dict[str, str]:
    """The O0 IR and the -O1 ``-print-after-all`` text of source *name*."""
    result = compile_source(
        SOURCES[name],
        filename="input.c",
        enable_irbuilder=mode == "irbuilder",
    )
    o0 = result.ir_text()
    dump = io.StringIO()
    instrument = PassInstrumentation(print_after_all=True, stream=dump)
    default_pass_pipeline(instrument=instrument).run(
        result.module, instrument
    )
    return {"o0-ir": o0, "print-after-all": dump.getvalue()}


def digests(name: str, mode: str) -> dict[str, str]:
    return {
        key: hashlib.sha256(text.encode()).hexdigest()
        for key, text in outputs(name, mode).items()
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_loop_shape_matches_golden(name, mode):
    expected = _golden().get(f"{name} [{mode}]")
    assert digests(name, mode) == expected


if __name__ == "__main__":
    table = {
        f"{name} [{mode}]": digests(name, mode)
        for name in sorted(SOURCES)
        for mode in MODES
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
