"""Seeded inputs of the three workloads.

Everything here is a pure function of the workload seed: the compile
corpus, the loop kernels (with their Python-computed expected stdout)
and the edit-compile request streams of serve-edit-mix.  The program
under test only ever sees the generated sources.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import random
from dataclasses import dataclass

#: (mode, optimize) configurations of one compile-corpus input
CONFIGS = (
    ("shadow", False),
    ("shadow", True),
    ("irbuilder", False),
    ("irbuilder", True),
)

#: generated programs per corpus (on top of the fixed example and
#: conformance sources)
GENERATED_PER_CORPUS = 60

#: of which drawn from the workload seed's own range
SEEDED_PER_CORPUS = 8

#: first generator seed of the fixed generated slice (workload seed s
#: draws from ``100_000 * s`` on)
FIXED_GENERATOR_START = 50_000


@dataclass(frozen=True)
class CorpusInput:
    name: str
    source: str
    #: generator-predicted stdout (None for hand-written sources)
    expected_stdout: str | None = None


def _fixed_sources(root: str) -> list[CorpusInput]:
    paths = sorted(
        glob.glob(os.path.join(root, "examples", "*.c"))
        + glob.glob(
            os.path.join(root, "tests", "conformance", "**", "*.c"),
            recursive=True,
        )
    )
    inputs = []
    for path in paths:
        # Diagnostic tests are meant to fail; the strip tests need
        # --strip-omp-transforms to compile.
        rel = os.path.relpath(path, root)
        if "/diagnostics/" in rel or "/strip/" in rel:
            continue
        with open(path, encoding="utf-8") as fh:
            inputs.append(CorpusInput(rel, fh.read()))
    return inputs


def usable(program) -> bool:
    """Generator programs the workloads use.

    Nested unrolls are left out: they multiply code size and compile
    time by an order of magnitude, so a handful of programs would decide
    the corpus total.  ``unroll-on-tile`` is left out because the
    irbuilder representation at O1 miscompiles some of those programs
    (generator seed 100026 prints a wrong sum); a benchmark workload
    must not fail."""
    return (
        sum("unroll" in p for p in program.pragmas) <= 1
        and "unroll-on-tile" not in program.features
    )


def generated_programs(start: int, count: int) -> list[CorpusInput]:
    """*count* usable generator programs from generator seed *start* on.

    A third of them use an ``unroll`` directive and the rest do not.
    Unrolled programs are the slowest to compile by far, so a fixed
    quota keeps the corpus's tail from depending on how many of them a
    seed happens to draw."""
    from repro.testing.generator import generate_program

    quota = {True: count // 3, False: count - count // 3}
    out: list[CorpusInput] = []
    candidate = start
    while len(out) < count:
        program = generate_program(candidate)
        family = any("unroll" in f for f in program.features)
        if usable(program) and quota[family] > 0:
            quota[family] -= 1
            out.append(
                CorpusInput(
                    f"gen-{candidate}",
                    program.source,
                    program.expected_stdout,
                )
            )
        candidate += 1
    return out


def compile_corpus(root: str, seed: int) -> list[CorpusInput]:
    """The fixed sources, a fixed generated slice, and a seeded slice.

    Generated programs differ in compile cost by more than 10x, so a
    corpus drawn wholly from the seed moves its p95 by a quarter from
    one seed to the next.  Most generated programs therefore come from
    one fixed range of generator seeds, which no workload seed's range
    reaches; the workload seed picks ``SEEDED_PER_CORPUS`` of them and
    the order of the compiles."""
    fixed = generated_programs(
        FIXED_GENERATOR_START, GENERATED_PER_CORPUS - SEEDED_PER_CORPUS
    )
    seeded = generated_programs(100_000 * seed, SEEDED_PER_CORPUS)
    return _fixed_sources(root) + fixed + seeded


# ----------------------------------------------------------------------
# run-kernels
# ----------------------------------------------------------------------


def _c_mod(value: int, modulus: int) -> int:
    """C's truncating ``%``."""
    rem = abs(value) % modulus
    return -rem if value < 0 else rem


@dataclass(frozen=True)
class Kernel:
    name: str
    num_threads: int
    source: str
    expected_stdout: str


#: problem size of each kernel (chosen so each run takes tens of
#: milliseconds and execution dominates its compile)
KERNEL_SIZES = {
    "tile-remainder": 20,
    "unroll-remainder": 1203,
    "fuse": 500,
    "stencil": 130,
    "reduction": 1000,
    "worksharing": 700,
}


def kernels(seed: int) -> list[Kernel]:
    """The six loop kernels of ``tools/exec_bench.py`` with seeded
    constants.  Sizes are fixed, so the work is identical across seeds;
    only the values (and so the checksums) change."""
    rng = random.Random(f"kernels:{seed}")
    a = rng.randrange(3, 38)
    b = rng.randrange(2, 10)
    c = rng.randrange(1, 10)
    q = rng.randrange(1, 8)
    out = []

    n = KERNEL_SIZES["tile-remainder"]
    total = sum(i * a + j for i in range(n) for j in range(n))
    out.append(
        Kernel(
            "tile-remainder",
            1,
            f"""
int main(void) {{
  static long grid[{n}][{n}];
  long checksum = 0;
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < {n}; i += 1)
    for (int j = 0; j < {n}; j += 1)
      grid[i][j] = i * {a} + j;
  for (int i = 0; i < {n}; i += 1)
    for (int j = 0; j < {n}; j += 1)
      checksum += grid[i][j];
  printf("%d\\n", (int)(checksum % 1000000));
  return 0;
}}
""",
            f"{_c_mod(total, 1000000)}\n",
        )
    )

    n = KERNEL_SIZES["unroll-remainder"]
    total = sum(i * b - c for i in range(n))
    out.append(
        Kernel(
            "unroll-remainder",
            1,
            f"""
int main(void) {{
  long acc = 0;
  #pragma omp unroll partial(4)
  for (int i = 0; i < {n}; i += 1)
    acc += i * {b} - {c};
  printf("%d\\n", (int)(acc % 1000000));
  return 0;
}}
""",
            f"{_c_mod(total, 1000000)}\n",
        )
    )

    n = KERNEL_SIZES["fuse"]
    total = sum(i * a + (i - b) for i in range(n))
    out.append(
        Kernel(
            "fuse",
            1,
            f"""
int main(void) {{
  static int a[{n}], b[{n}];
  long sum = 0;
  #pragma omp fuse
  {{
    for (int i = 0; i < {n}; i += 1) a[i] = i * {a};
    for (int j = 0; j < {n}; j += 1) b[j] = j - {b};
  }}
  for (int i = 0; i < {n}; i += 1) sum += a[i] + b[i];
  printf("%d\\n", (int)(sum % 1000000));
  return 0;
}}
""",
            f"{_c_mod(total, 1000000)}\n",
        )
    )

    n = KERNEL_SIZES["stencil"]
    cur = [(i % 7) * (q * 0.25) for i in range(n)]
    nxt = [0.0] * n
    for _ in range(8):
        for i in range(1, n - 1):
            nxt[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0
        for i in range(1, n - 1):
            cur[i] = nxt[i]
    fsum = 0.0
    for value in cur:
        fsum += value
    out.append(
        Kernel(
            "stencil",
            1,
            f"""
int main(void) {{
  static double cur[{n}], nxt[{n}];
  for (int i = 0; i < {n}; i += 1) cur[i] = (i % 7) * {q * 0.25!r};
  for (int t = 0; t < 8; t += 1) {{
    for (int i = 1; i < {n} - 1; i += 1)
      nxt[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0;
    for (int i = 1; i < {n} - 1; i += 1) cur[i] = nxt[i];
  }}
  double sum = 0.0;
  for (int i = 0; i < {n}; i += 1) sum += cur[i];
  printf("%f\\n", sum);
  return 0;
}}
""",
            "%f\n" % fsum,
        )
    )

    n = KERNEL_SIZES["reduction"]
    total = sum((i * a) % 7 + (i >> 2) for i in range(n))
    out.append(
        Kernel(
            "reduction",
            1,
            f"""
int main(void) {{
  long sum = 0;
  for (int i = 0; i < {n}; i += 1)
    sum += (i * {a}) % 7 + (i >> 2);
  printf("%d\\n", (int)(sum % 1000000));
  return 0;
}}
""",
            f"{_c_mod(total, 1000000)}\n",
        )
    )

    n = KERNEL_SIZES["worksharing"]
    total = sum(i * b - c for i in range(n))
    out.append(
        Kernel(
            "worksharing",
            4,
            f"""
int main(void) {{
  long sum = 0;
  #pragma omp parallel for reduction(+: sum) schedule(static) \\
      num_threads(4)
  for (int i = 0; i < {n}; i += 1)
    sum += i * {b} - {c};
  printf("%d\\n", (int)(sum % 1000000));
  return 0;
}}
""",
            f"{_c_mod(total, 1000000)}\n",
        )
    )
    return out


# ----------------------------------------------------------------------
# serve-edit-mix
# ----------------------------------------------------------------------

#: request classes of the edit-compile stream, in rising expected cost
CLASSES = ("exact", "comment", "flip", "fresh", "run")

#: draw weight of each class (each run prints the measured shares)
CLASS_WEIGHTS = {
    "exact": 0.30,
    "comment": 0.38,
    "flip": 0.10,
    "fresh": 0.12,
    "run": 0.10,
}


@dataclass(frozen=True)
class EditRequest:
    cls: str
    source: str
    action: str  # "compile" | "run"
    optimize: bool
    #: generator-predicted stdout for run requests
    expected_stdout: str | None = None


@dataclass
class _Document:
    base: str
    expected_stdout: str
    source: str = ""
    optimize: bool = False
    edits: int = 0

    def __post_init__(self) -> None:
        self.source = self.base

    def edit_comment(self, editor: int) -> None:
        """A comment-only edit: the token stream is unchanged."""
        self.edits += 1
        self.source = (
            f"// editor {editor} revision {self.edits}\n" + self.base
        )


def edit_stream(seed: int, editor: int, length: int) -> list[EditRequest]:
    """One editor's closed-loop request stream.

    The editor edits one document at a time.  Each step draws a class
    by ``CLASS_WEIGHTS``: an *exact* repeat of the previous request, a
    *comment*-only edit, an O0->O1 *flip* of a document only compiled
    at O0 so far, a *fresh* program (compiled cold at O0), or a *run*
    of the current document.  A flip drawn for a document that was
    already flipped is redrawn, so the measured flip share can fall
    below its weight."""
    from repro.testing.generator import generate_program

    rng = random.Random(f"edit-stream:{seed}:{editor}")
    next_program = 100_000 * seed + 50_000 + 10_000 * editor

    def fresh_document() -> _Document:
        nonlocal next_program
        while True:
            program = generate_program(next_program)
            next_program += 1
            if usable(program):
                return _Document(program.source, program.expected_stdout)

    names = list(CLASS_WEIGHTS)
    weights = [CLASS_WEIGHTS[n] for n in names]
    doc = fresh_document()
    stream = [EditRequest("fresh", doc.source, "compile", False)]
    while len(stream) < length:
        cls = rng.choices(names, weights)[0]
        if cls == "flip" and doc.optimize:
            continue
        if cls == "exact":
            request = dataclasses.replace(stream[-1], cls="exact")
        elif cls == "comment":
            doc.edit_comment(editor)
            request = EditRequest(
                "comment", doc.source, "compile", doc.optimize
            )
        elif cls == "flip":
            doc.optimize = True
            request = EditRequest("flip", doc.source, "compile", True)
        elif cls == "fresh":
            doc = fresh_document()
            request = EditRequest("fresh", doc.source, "compile", False)
        else:
            # Edit first, so the run never replays a cached response.
            doc.edit_comment(editor)
            request = EditRequest(
                "run",
                doc.source,
                "run",
                doc.optimize,
                doc.expected_stdout,
            )
        stream.append(request)
    return stream
