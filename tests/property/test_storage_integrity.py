"""Property-based tests (hypothesis) on disk-cache integrity.

The self-verifying envelope is the disk tier's entire crash-safety
argument: *whatever* happens to the bytes at rest — a torn write, a
flipped bit, a truncated tail, another process scribbling over the
file — a later read must either return the original payload or a miss.
Never an exception, never wrong bytes.  So the property is exactly
that, quantified over arbitrary corruptions:

* flip any one byte of a stored entry → the read is a miss, the entry
  is deleted (self-healing), and ``cache.corrupt-entries`` counts it;
* truncate the entry at any point → same;
* splice arbitrary bytes anywhere → the read is a miss **or** the
  original payload (a corruption that keeps the digest valid can only
  be the identity).
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro.cache.disk import DiskTier
from repro.cache.integrity import IntegrityError, seal, unseal
from repro.instrument.stats import STATS

FAST = settings(max_examples=60, deadline=None)

PAYLOAD = {
    "ir": "define i32 @main() {\nentry:\n  ret i32 0\n}\n",
    "diagnostics": [],
    "stage": "codegen",
}
KEY = "artifact:" + "ab" * 32


def _tier_with_entry(tmp_path) -> tuple[DiskTier, str]:
    tier = DiskTier(str(tmp_path / "cache"))
    tier.put(KEY, PAYLOAD)
    path = tier._object_path(KEY)
    assert os.path.isfile(path)
    return tier, path


def _mangle(path: str, mutate) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(mutate(data))


@FAST
@given(offset=st.integers(min_value=0, max_value=10_000), flip=st.integers(min_value=1, max_value=255))
def test_single_byte_flip_heals(tmp_path_factory, offset, flip):
    tmp_path = tmp_path_factory.mktemp("flip")
    tier, path = _tier_with_entry(tmp_path)
    before = STATS.counter_values()

    def mutate(data: bytes) -> bytes:
        i = offset % len(data)
        return data[:i] + bytes([data[i] ^ flip]) + data[i + 1 :]

    _mangle(path, mutate)
    got = tier.get(KEY)
    delta = STATS.delta_since(before)
    if got is None:
        # Detected: the poisoned entry must be gone and counted.
        assert not os.path.exists(path)
        assert delta.get("cache.corrupt-entries", 0) == 1
        assert tier.get(KEY) is None  # and it stays a miss
    else:
        # A flip inside JSON whitespace/etc. that survives the digest
        # check can only mean the payload decoded identically.
        assert got == PAYLOAD


@FAST
@given(cut=st.integers(min_value=0, max_value=10_000))
def test_truncation_heals(tmp_path_factory, cut):
    tmp_path = tmp_path_factory.mktemp("trunc")
    tier, path = _tier_with_entry(tmp_path)
    before = STATS.counter_values()
    _mangle(path, lambda data: data[: cut % len(data)])
    got = tier.get(KEY)
    delta = STATS.delta_since(before)
    assert got is None
    assert not os.path.exists(path)
    assert delta.get("cache.corrupt-entries", 0) == 1


@FAST
@given(
    where=st.integers(min_value=0, max_value=10_000),
    junk=st.binary(min_size=1, max_size=64),
)
def test_spliced_bytes_never_served(tmp_path_factory, where, junk):
    tmp_path = tmp_path_factory.mktemp("splice")
    tier, path = _tier_with_entry(tmp_path)

    def mutate(data: bytes) -> bytes:
        i = where % (len(data) + 1)
        return data[:i] + junk + data[i:]

    _mangle(path, mutate)
    got = tier.get(KEY)
    assert got is None or got == PAYLOAD


@FAST
@given(data=st.binary(max_size=256))
def test_unseal_arbitrary_bytes_never_crashes(data):
    """unseal() totalizes: arbitrary bytes either raise IntegrityError
    or round-trip a genuinely sealed payload."""
    try:
        unseal(data)
    except IntegrityError:
        pass


@FAST
@given(
    payload=st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**31), max_value=2**31)
        | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=10,
    )
)
def test_seal_unseal_roundtrip(payload):
    assert unseal(seal(payload)) == payload
