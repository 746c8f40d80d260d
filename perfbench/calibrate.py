"""A fixed pure-Python probe of the machine's speed.

The shared VM this benchmark was tuned on swings in speed by up to 1.6x
within a second and by a third between minutes.  A run therefore times
this probe between its operations and keeps the probe's fastest time.
Dividing an operation's fastest time by the probe's fastest time gives
a latency in probe units, which cancels the machine's state.  The
probe uses none of the program under test, so no change to the program
can move it.
"""

from __future__ import annotations

import time

_TEXT = (
    "for (int i = 0; i < n; i += 1) { s += a[i] * (b[i] - 3) / 7; "
    "if (s > limit) { s = s % limit; } t ^= (i << 2) + s; }"
) * 6


def _probe() -> int:
    """Tokenise, build small objects and walk them, as a compiler does."""
    tokens = []
    word = []
    for ch in _TEXT:
        if ch.isalnum() or ch == "_":
            word.append(ch)
            continue
        if word:
            tokens.append(("id", "".join(word)))
            word = []
        if not ch.isspace():
            tokens.append(("punct", ch))
    counts: dict[str, int] = {}
    tree = []
    for kind, text in tokens:
        counts[text] = counts.get(text, 0) + 1
        tree.append((kind, text, len(text), counts[text]))
    total = 0
    for kind, text, length, seen in tree:
        total += length * seen if kind == "id" else seen
    return total


#: probe calls per sample (about a millisecond on a quiet 2-vCPU VM)
CALLS_PER_SAMPLE = 10


class Probe:
    """Fastest probe time over a run."""

    def __init__(self) -> None:
        self.best_s = float("inf")
        self.samples = 0

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(CALLS_PER_SAMPLE):
            _probe()
        self.best_s = min(self.best_s, time.perf_counter() - start)
        self.samples += 1
