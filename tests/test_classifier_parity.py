"""Bit-parity of the direct-address trigram lookup with the binary search
it replaced.

``ref_mean_ll`` below is a frozen copy of ``TrigramLidModel._mean_ll`` as
it was when it mapped trigrams to profile rows with ``np.searchsorted``
over the sorted vocabulary.  ``classify_full`` and ``forced_choice`` must
give the same languages and bit-identical probabilities and perplexities
through either lookup, on the corpus families, on arbitrary text and on
the edge inputs.  The table's premise is pinned too: normalized text uses
only the 62 bytes of ``_LID_BYTES``, and the table sends every vocabulary
trigram to its own row and any other trigram to the unseen row.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langfilter_ray.corpus import FAMILIES, _content_for
from langfilter_ray.functions import classifier
from langfilter_ray.functions.classifier import (
    LANGS,
    LID_MAX_CHARS,
    TrigramLidModel,
    normalize_for_lid,
)

# --------------------------------------------------------------------------
# reference copy (do not edit: it is the spec the live lookup must match)
# --------------------------------------------------------------------------


def ref_mean_ll(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Return (mean log-likelihood per lang, trigram count) per text.

    Rows with zero trigrams get mean_ll = 0 and count = 0; callers must
    mask them.
    """
    n = len(texts)
    means = np.zeros((n, len(LANGS)), dtype=np.float64)
    tri_counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return means, tri_counts

    bufs = [normalize_for_lid(t).encode("utf-8") for t in texts]
    lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=n)
    total = int(lens.sum())
    if total == 0:
        return means, tri_counts
    concat = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    tri_counts = np.maximum(lens - 2, 0)

    if total < 3:
        return means, np.zeros(n, dtype=np.int64)
    codes = (
        concat[:-2].astype(np.int32) << 16
    ) | (concat[1:-1].astype(np.int32) << 8) | concat[2:].astype(np.int32)
    idx = np.searchsorted(self._vocab, codes)
    idx[idx >= self._unseen_idx] = self._unseen_idx
    known = self._vocab[np.minimum(idx, self._unseen_idx - 1)] == codes
    idx = np.where(known, np.minimum(idx, self._unseen_idx - 1), self._unseen_idx)

    # gather into a buffer with one zero pad row (reduceat end sentinel);
    # single fancy-index write, no vstack copy
    vals = np.empty((len(idx) + 1, len(LANGS)), dtype=np.float64)
    vals[:-1] = self._logprob[idx]
    vals[-1] = 0.0
    ends = starts + tri_counts
    pairs = np.empty(2 * n, dtype=np.int64)
    pairs[0::2] = np.minimum(starts, len(vals) - 1)
    pairs[1::2] = np.minimum(ends, len(vals) - 1)
    sums = np.add.reduceat(vals, pairs, axis=0)[0::2]
    # reduceat quirk: empty segment (start==end) yields vals[start]; zero it
    empty = tri_counts <= 0
    sums[empty] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(
            tri_counts[:, None] > 0, sums / np.maximum(tri_counts, 1)[:, None], 0.0
        )
    return means, np.where(empty, 0, tri_counts)


class RefModel(TrigramLidModel):
    _mean_ll = ref_mean_ll


MODEL = TrigramLidModel()
REF = RefModel()


def assert_parity(texts: list[str]) -> None:
    """One batch of ``texts`` and each text alone score the same through
    both lookups."""
    for batch in [texts] + [[t] for t in texts]:
        langs, probs, ppls = MODEL.classify_full(batch)
        want_langs, want_probs, want_ppls = REF.classify_full(batch)
        assert langs == want_langs
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(ppls, want_ppls)
        assert MODEL.forced_choice(batch) == REF.forced_choice(batch)
        assert MODEL.forced_choice(batch, "de", "es") == REF.forced_choice(batch, "de", "es")


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

_SPECIALS = "İßÿ漢😀 "
_TEXT = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=300),
    st.text(alphabet=st.characters(max_codepoint=0xFF), max_size=300),
    st.text(
        alphabet=st.one_of(
            st.sampled_from(_SPECIALS), st.characters(max_codepoint=0xFF),
        ),
        max_size=300,
    ),
    st.text(max_size=300),
)

EDGES = [
    "",
    "a",
    "é",
    "ab",
    "ÿß",
    "!@#$%^&*()_+-=[]{};:,.<>/?|`~0123456789",
    "'",
    "''",
    "'''''''''",
    " ' ' ' ",
    "the " * LID_MAX_CHARS,
    "é" * (LID_MAX_CHARS + 1),
    "le garçon " * 100 + "漢字" * 50,
]


@pytest.mark.parametrize("family", [f for f, _ in FAMILIES])
def test_family_rows_match_reference(family):
    rows = [_content_for(family, random.Random(f"lid:{family}:{k}")) for k in range(40)]
    assert_parity(rows)


def test_edges_match_reference():
    assert_parity(EDGES)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=6))
def test_arbitrary_text_matches_reference(texts):
    assert_parity(texts)


# --------------------------------------------------------------------------
# the table's premise
# --------------------------------------------------------------------------

def test_lid_alphabet_is_62_bytes():
    assert len(classifier._LID_BYTES) == 62
    assert len(classifier._LID_BYTES) < classifier._OUTSIDE_CODE + 1


def test_every_code_point_normalizes_into_the_alphabet():
    """Each character below U+0100 alone, and every code point in one
    string (the regex path), normalize to bytes of ``_LID_BYTES`` only."""
    alphabet = set(classifier._LID_BYTES)
    for b in range(0x100):
        assert set(normalize_for_lid(chr(b)).encode("utf-8")) <= alphabet, b
    every = "".join(map(chr, range(0x110000)))
    assert set(normalize_for_lid(every, max_chars=10**9).encode("utf-8")) <= alphabet


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_normalized_bytes_stay_in_the_alphabet(text):
    assert set(normalize_for_lid(text).encode("utf-8")) <= set(classifier._LID_BYTES)


def _key(model: TrigramLidModel, trigram: bytes) -> int:
    bits = classifier._CODE_BITS
    r = model._remap
    return int(r[trigram[0]] << 2 * bits | r[trigram[1]] << bits | r[trigram[2]])


def test_every_vocabulary_trigram_maps_to_its_own_row():
    vocab = MODEL._vocab.tolist()
    rows = [MODEL._table[_key(MODEL, code.to_bytes(3, "big"))] for code in vocab]
    assert rows == list(range(len(vocab)))
    assert int((MODEL._table != MODEL._unseen_idx).sum()) == len(vocab)


def test_trigram_with_an_outside_byte_maps_to_the_unseen_row():
    outside = [b for b in range(256) if b not in classifier._LID_BYTES]
    assert set(MODEL._remap[outside].tolist()) == {classifier._OUTSIDE_CODE}
    for code in MODEL._vocab[::97].tolist():
        tri = code.to_bytes(3, "big")
        for pos in range(3):
            for b in outside:
                bad = tri[:pos] + bytes([b]) + tri[pos + 1:]
                assert MODEL._table[_key(MODEL, bad)] == MODEL._unseen_idx
