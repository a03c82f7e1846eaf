"""Vectorized PII/secret scrub stage (kept rows only — the cost ladder's
"heavy enrichment on survivors" step, analog of the reference running the
expensive snippet transcription only on accepted rows, runner.py:92-108).

Implementation: only the kept rows' ``content`` is taken
(``pc.filter``); no other column and no dropped row is copied.  One RE2
``match_substring_regex`` over the union of the ``SCRUB_RULES`` patterns
prefilters the kept text.  A row that matches no pattern is changed by no
rule (each rule then sees the unchanged text), so its text passes through
as is and all its flags are False.  The rows that match run the whole
rule chain through ``pyarrow.compute.replace_substring_regex`` (RE2,
fully vectorized — byte-identical to the Python ``re`` oracle, which is
asserted by tests/test_property_parity.py) with per-rule change flags (a
rule's flag is set when it changed the text, as in ``scrub_text``).
Every kept row gets a sha256 and a snippet of its scrubbed text.
``pc.replace_with_mask`` puts each column back in input row order: a
dropped row gets null text, sha256 and snippet and all-False flags.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.scrub import SCRUB_RULES
from ..functions.textproc import truncate_to_words

PII_FLAGS_TYPE = pa.struct([(name, pa.bool_()) for name, _, _ in SCRUB_RULES])

# matches a text iff at least one rule's pattern does (RE2 scopes an
# inline flag such as pii_secret's ``(?i)`` to its group)
_ANY_RULE = "|".join(f"(?:{pat})" for _, pat, _ in SCRUB_RULES)


def scrub_batch(batch: pa.Table) -> pa.Table:
    """map_batches function: append the scrub columns in input row order,
    scrubbed for kept rows, null text and False flags for dropped rows."""
    n = batch.num_rows
    keep = batch["keep"].combine_chunks()
    # large_string first: combining ``string`` chunks past 2 GiB of text
    # overflows its 32-bit offsets
    kept = pc.filter(batch["content"].cast(pa.large_string()), keep).combine_chunks()
    hit = pc.fill_null(pc.match_substring_regex(kept, _ANY_RULE), False)
    cur = pc.filter(kept, hit)
    flags = []
    for _, pat, repl in SCRUB_RULES:
        new = pc.replace_substring_regex(cur, pat, repl)
        # the spec's flag (scrub.scrub_text): the rule changed the text,
        # not merely matched it (a literal "<SECRET>" rebuilds itself)
        flags.append(pc.not_equal(cur, new))
        cur = new
    scrubbed = pc.replace_with_mask(kept, hit, cur)

    # to_numpy + tolist: to_pylist would box every element as a Scalar first
    scrubbed_texts = scrubbed.to_numpy(zero_copy_only=False).tolist()
    sha = pa.array(
        [
            hashlib.sha256(s.encode("utf-8")).hexdigest() if s is not None else None
            for s in scrubbed_texts
        ],
        pa.string(),
    )
    # snippet enrichment on kept rows only (T5 analog: the reference
    # transcribes a 15 s snippet then keeps the first 10 words,
    # runner.py:92-108 + utils.py:53-60)
    snippets = pa.array(
        [
            truncate_to_words(s) if s is not None else None
            for s in scrubbed_texts
        ],
        pa.string(),
    )

    no = pa.array(np.zeros(n, dtype=bool))
    chained = pc.replace_with_mask(no, keep, hit)   # the rows that ran the chain
    flags = [pc.replace_with_mask(no, chained, f) for f in flags]
    out = batch
    out = out.append_column(
        "scrubbed_content",
        pc.replace_with_mask(pa.nulls(n, pa.large_string()), keep, scrubbed),
    )
    out = out.append_column(
        "content_sha256", pc.replace_with_mask(pa.nulls(n, pa.string()), keep, sha)
    )
    out = out.append_column(
        "snippet", pc.replace_with_mask(pa.nulls(n, pa.string()), keep, snippets)
    )
    out = out.append_column(
        "pii_flags", pa.StructArray.from_arrays(flags, fields=list(PII_FLAGS_TYPE))
    )
    out = out.append_column("scrubbed", functools.reduce(pc.or_, flags))
    return out
