"""Property tests for the pure sketch/fingerprint math (no Ray session).

hypothesis drives the inputs; the properties are the ones the distributed
operators rely on for correctness under arbitrary batching:

  - MinHash signatures are elementwise mins, so the signature of a
    concatenation is the elementwise min of the parts' signatures.
  - Shingle hashing is deterministic and case-insensitive.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langfilter_ray.pipelines.dedup import _minhash_sig, _shingle_hashes

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")),
    max_size=200,
)


@given(texts, texts)
@settings(max_examples=50, deadline=None)
def test_minhash_concat_is_elementwise_min(a, b):
    # signature of "a b" == elementwise min of parts' signatures ONLY when
    # shingles don't straddle the boundary; use the shingle-set union
    # property directly instead, which is what LSH banding depends on.
    ha = set(_shingle_hashes(a).tolist())
    hb = set(_shingle_hashes(b).tolist())
    sig_union_manual = None
    union = np.array(sorted(ha | hb), dtype=np.int64)
    if len(union):
        from langfilter_ray.pipelines.dedup import _A, _B, _MERSENNE

        vals = (union[:, None] * _A[None, :] + _B[None, :]) % _MERSENNE
        sig_union_manual = vals.min(axis=0)
        parts_min = np.minimum(
            _minhash_sig(a) if ha else np.full(64, _MERSENNE, dtype=np.int64),
            _minhash_sig(b) if hb else np.full(64, _MERSENNE, dtype=np.int64),
        )
        assert (sig_union_manual == parts_min).all()


ascii_texts = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789 "), max_size=200
)


@given(texts)
@settings(max_examples=50, deadline=None)
def test_shingles_deterministic(t):
    assert (_shingle_hashes(t) == _shingle_hashes(t)).all()


@given(ascii_texts)
@settings(max_examples=50, deadline=None)
def test_shingles_case_insensitive_ascii(t):
    # ASCII only: Unicode case-mapping is not a round trip ('µ'.upper()
    # is Greek Mu, which lowers to a DIFFERENT codepoint), so full
    # case-insensitivity is deliberately not claimed by the operator.
    assert (_shingle_hashes(t) == _shingle_hashes(t.upper())).all()
