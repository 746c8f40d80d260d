"""Property-based tests (hypothesis) on cache-key stability.

The content address is the cache's entire correctness argument: two
requests share a key iff a compiler run could not tell them apart.  So
the properties are exactly the ones a wrong key would break:

* determinism — the same request always hashes identically, including
  in a fresh interpreter (no ``PYTHONHASHSEED`` leakage);
* sensitivity — any single-byte source change, and any semantically
  distinct flag change, produces a different key;
* insensitivity — flag-token whitespace and ordering (which the driver
  normalizes away) do not produce a different key.
"""

from __future__ import annotations

import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.cache import request_fingerprint
from repro.cache.key import (
    canonicalize_flag_tokens,
    canonicalize_source,
    source_id,
    stage_key,
)

FAST = settings(max_examples=50, deadline=None)

sources = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cs",)),
    min_size=1,
    max_size=120,
)
flag_sets = st.lists(
    st.sampled_from(
        ["-O", "-fopenmp", "-fno-cache", "-Werror", "-ftime-trace"]
    ),
    unique=True,
    max_size=5,
)


class TestDeterminism:
    @FAST
    @given(source=sources, optimize=st.booleans())
    def test_same_request_same_key(self, source, optimize):
        assert request_fingerprint(
            source, optimize=optimize
        ) == request_fingerprint(source, optimize=optimize)

    @FAST
    @given(material=st.lists(st.text(max_size=20), max_size=4))
    def test_stage_key_is_pure(self, material):
        assert stage_key("codegen", "p", material) == stage_key(
            "codegen", "p", material
        )

    def test_fingerprint_is_stable_across_processes(self):
        """The key must not depend on interpreter state: a fresh
        process (fresh ``PYTHONHASHSEED``) computes the same hash."""
        import os

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        source = "int main() { return 42; }\n"
        here = request_fingerprint(source, optimize=True)
        script = (
            f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "from repro.cache import request_fingerprint\n"
            f"print(request_fingerprint({source!r}, optimize=True))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == here


class TestSensitivity:
    @FAST
    @given(source=sources, data=st.data())
    def test_single_byte_change_alters_key(self, source, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(source) - 1)
        )
        old = source[index]
        replacement = data.draw(
            st.characters(codec="ascii").filter(lambda c: c != old)
        )
        mutated = source[:index] + replacement + source[index + 1 :]
        if mutated.replace("\r\n", "\n").replace(
            "\r", "\n"
        ) == source.replace("\r\n", "\n").replace("\r", "\n"):
            return  # e.g. a CR<->LF swap: line-ending
            # canonicalization folds these together, a shared key
            # is the *correct* answer
        assert request_fingerprint(mutated) != request_fingerprint(
            source
        )
        assert source_id(mutated) != source_id(source)

    @FAST
    @given(source=sources)
    def test_semantic_flag_changes_alter_key(self, source):
        base = request_fingerprint(source)
        assert request_fingerprint(source, optimize=True) != base
        assert request_fingerprint(source, enable_irbuilder=True) != base
        assert request_fingerprint(source, openmp=False) != base
        assert (
            request_fingerprint(source, strip_omp_transforms=True)
            != base
        )
        assert request_fingerprint(source, defines={"N": "4"}) != base
        assert request_fingerprint(source, action="run") != base

    @FAST
    @given(source=sources, a=st.text("DN14", max_size=3))
    def test_define_value_alters_key(self, source, a):
        assert request_fingerprint(
            source, defines={"X": a}
        ) != request_fingerprint(source, defines={"X": a + "1"})


class TestInsensitivity:
    @FAST
    @given(source=sources, flags=flag_sets, data=st.data())
    def test_flag_whitespace_and_order_do_not_alter_key(
        self, source, flags, data
    ):
        shuffled = data.draw(st.permutations(flags))
        padded = [
            data.draw(st.sampled_from(["", " ", "\t"]))
            + flag
            + data.draw(st.sampled_from(["", " ", "  "]))
            for flag in shuffled
        ]
        assert request_fingerprint(
            source, extra_flags=flags
        ) == request_fingerprint(source, extra_flags=padded)

    @FAST
    @given(flags=flag_sets, data=st.data())
    def test_canonical_flag_tokens_are_order_free(self, flags, data):
        shuffled = data.draw(st.permutations(flags))
        assert canonicalize_flag_tokens(
            flags
        ) == canonicalize_flag_tokens(shuffled)

    @FAST
    @given(source=sources)
    def test_line_ending_spelling_does_not_alter_key(self, source):
        """Spelling every line ending CRLF keeps the key.  A source may
        already hold bare CRs, each of which ends a line, so the lines
        are those of the canonical (LF) form: ``'\\r\\n'`` is one line
        and ``'\\r\\r\\n'`` two."""
        crlf = canonicalize_source(source).replace("\n", "\r\n")
        assert request_fingerprint(crlf) == request_fingerprint(source)
