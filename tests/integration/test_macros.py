"""Macro expansion end to end, against GCC.

Each program runs with ``--run`` through the CLI, in both
representations, at O0 and O1; its expected stdout is what the GCC 12.2
binary of the same program prints.  When a C compiler is on ``PATH``
(``cc``), the programs are also compiled with ``cc -fopenmp`` and run,
so the recorded outputs are checked again.

* An expansion is rescanned together with the tokens that follow it: a
  function-like macro name at its end takes its arguments from the
  source (C11 6.10.3.4p1).
* The tokens after ``#pragma omp`` are subject to macro replacement
  (OpenMP, "Directive Format"), in worksharing and loop-transformation
  clauses alike.
* ``-DX=`` defines ``X`` as empty.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from repro.driver.cli import EXIT_OK, EXIT_USER_ERROR, main

ALIAS = """\
int printf(const char *fmt, ...);
#define f(x) ((x) + 1)
#define g f
int main(void) {
  printf("%d\\n", g(2));
  return 0;
}
"""

APPLY = """\
int printf(const char *fmt, ...);
#define APPLY(m) m
#define f(x) ((x) * 2)
int main(void) {
  printf("%d\\n", APPLY(f)(4));
  return 0;
}
"""

CALL = """\
int printf(const char *fmt, ...);
#define CALL(m, v) m(v)
#define f(x) ((x) * 2)
int main(void) {
  printf("%d\\n", CALL(f, 3));
  return 0;
}
"""

MUTUAL = """\
int printf(const char *fmt, ...);
#define a(x) b(x)
#define b(x) a(x)
int a(int x) { return x + 40; }
int main(void) {
  printf("%d\\n", a(1));
  return 0;
}
"""

IF_CALL = """\
int printf(const char *fmt, ...);
#define F(x) ((x) > 0)
#if F(1)
#define PICK 1
#elif F(2)
#define PICK 2
#else
#define PICK 3
#endif
int main(void) {
  printf("%d\\n", PICK);
  return 0;
}
"""

CLAUSES = """\
int printf(const char *fmt, ...);
int omp_get_num_threads(void);
#define NT 3
#define CHUNK 2
int main(void) {
  int acc = 0, team = 0;
  #pragma omp parallel for num_threads(NT) schedule(static, CHUNK) \\
      reduction(+: acc)
  for (int i = 0; i < 10; i++) {
    acc += i;
    if (i == 0)
      team = omp_get_num_threads();
  }
  printf("%d %d\\n", acc, team);
  return 0;
}
"""

TILE = """\
int printf(const char *fmt, ...);
#define SQ(x) ((x) * (x))
int main(void) {
  int sum = 0;
  #pragma omp tile sizes(SQ(2))
  for (int i = 0; i < 10; i++)
    sum = sum * 3 + i;
  printf("%d\\n", sum);
  return 0;
}
"""

UNROLL = """\
int printf(const char *fmt, ...);
#define W 8
int main(void) {
  int sum = 0;
  #pragma omp unroll partial(W)
  for (int i = 0; i < 13; i++)
    sum = sum * 2 + i;
  printf("%d\\n", sum);
  return 0;
}
"""

EMPTY_DEFINE = """\
int printf(const char *fmt, ...);
int main(void) {
  int x = 5 X;
  printf("%d\\n", x);
  return 0;
}
"""

ARITY = """\
#define f(x, y) ((x) + (y))
#define g f(1)
int main(void) {
  return g;
}
"""

#: name -> (source, extra flags, stdout of its GCC 12.2 binary).  GCC 12
#: ignores `tile` and `unroll` (OpenMP 5.1), which do not change what a
#: program prints.
PROGRAMS = {
    "alias": (ALIAS, [], "3\n"),
    "apply": (APPLY, [], "8\n"),
    "call": (CALL, [], "6\n"),
    "mutual-recursion": (MUTUAL, [], "41\n"),
    "if-call": (IF_CALL, [], "1\n"),
    "pragma-clauses": (CLAUSES, [], "45 3\n"),
    "tile-sizes": (TILE, [], "14757\n"),
    "unroll-partial": (UNROLL, [], "8178\n"),
    "empty-define": (EMPTY_DEFINE, ["-DX="], "5\n"),
}

representations = pytest.mark.parametrize(
    "representation", ["shadow", "irbuilder"]
)
optimizations = pytest.mark.parametrize("optimize", ["-O0", "-O1"])


def run(tmp_path, capsys, source, flags, optimize, representation):
    path = tmp_path / "prog.c"
    path.write_text(source)
    argv = ["--run", optimize, *flags, str(path)]
    if representation == "irbuilder":
        argv.insert(0, "-fopenmp-enable-irbuilder")
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@representations
@optimizations
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_program_prints_what_gcc_prints(
    tmp_path, capsys, name, optimize, representation
):
    source, flags, expected = PROGRAMS[name]
    assert run(
        tmp_path, capsys, source, flags, optimize, representation
    ) == (EXIT_OK, expected, "")


@representations
@optimizations
def test_arity_error_in_a_rescan(
    tmp_path, capsys, optimize, representation
):
    code, out, err = run(
        tmp_path, capsys, ARITY, [], optimize, representation
    )
    assert (code, out) == (EXIT_USER_ERROR, "")
    assert "error: macro 'f' expects 2 argument(s), got 1" in err
    assert "undeclared identifier" not in err


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_cc_binary_prints_the_recorded_output(tmp_path, name):
    source, flags, expected = PROGRAMS[name]
    (tmp_path / "prog.c").write_text(source)
    subprocess.run(
        ["cc", "-fopenmp", *flags, "-o", "prog", "prog.c"],
        cwd=tmp_path, check=True, capture_output=True,
    )
    out = subprocess.run(
        [str(tmp_path / "prog")], check=True, capture_output=True, text=True
    )
    assert out.stdout == expected


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_cc_rejects_the_arity_error(tmp_path):
    (tmp_path / "prog.c").write_text(ARITY)
    out = subprocess.run(
        ["cc", "-fsyntax-only", "prog.c"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode != 0
    assert 'macro "f" requires 2 arguments' in out.stderr
