"""Vectorized PII/secret scrub stage (kept rows only — the cost ladder's
"heavy enrichment on survivors" step, analog of the reference running the
expensive snippet transcription only on accepted rows, runner.py:92-108).

Implementation: the batch is split by the ``keep`` flag; the kept slice
runs the whole rule chain through ``pyarrow.compute.replace_substring_regex``
(RE2, fully vectorized — byte-identical to the Python ``re`` oracle, which
is asserted by tests/test_property_parity.py), plus per-rule change flags
(a rule's flag is set when it changed the text, as in ``scrub_text``) and
a sha256 of the scrubbed text; the dropped slice gets null scrub columns.
The two slices are re-concatenated — row order within a batch changes, but
the pipeline is order-free (results are keyed by (repo, path, commit);
SURVEY.md §2.10).
"""

from __future__ import annotations

import functools
import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.scrub import SCRUB_RULES
from ..functions.textproc import truncate_to_words

PII_FLAGS_TYPE = pa.struct([(name, pa.bool_()) for name, _, _ in SCRUB_RULES])


def _scrub_kept(table: pa.Table) -> pa.Table:
    # large_string first: combining ``string`` chunks past 2 GiB of text
    # overflows its 32-bit offsets
    cur = table["content"].cast(pa.large_string()).combine_chunks()
    flags = []
    for _, pat, repl in SCRUB_RULES:
        new = pc.replace_substring_regex(cur, pat, repl)
        # the spec's flag (scrub.scrub_text): the rule changed the text,
        # not merely matched it (a literal "<SECRET>" rebuilds itself)
        flags.append(pc.not_equal(cur, new))
        cur = new

    # to_numpy + tolist: to_pylist would box every element as a Scalar first
    scrubbed_texts = cur.to_numpy(zero_copy_only=False).tolist()
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
    scrubbed_any = functools.reduce(pc.or_, flags)
    pii = pa.StructArray.from_arrays(flags, fields=list(PII_FLAGS_TYPE))
    out = table
    out = out.append_column("scrubbed_content", cur)
    out = out.append_column("content_sha256", sha)
    out = out.append_column("snippet", snippets)
    out = out.append_column("pii_flags", pii)
    out = out.append_column("scrubbed", scrubbed_any)
    return out


def _null_scrub(table: pa.Table) -> pa.Table:
    n = len(table)
    out = table
    out = out.append_column("scrubbed_content", pa.nulls(n, pa.large_string()))
    out = out.append_column("content_sha256", pa.nulls(n, pa.string()))
    out = out.append_column("snippet", pa.nulls(n, pa.string()))
    out = out.append_column(
        "pii_flags",
        pa.array([{name: False for name, _, _ in SCRUB_RULES}] * n, PII_FLAGS_TYPE),
    )
    out = out.append_column("scrubbed", pa.array([False] * n, pa.bool_()))
    return out


def scrub_batch(batch: pa.Table) -> pa.Table:
    """map_batches function: scrub kept rows, null columns for dropped."""
    keep = batch["keep"]
    kept = batch.filter(keep)
    dropped = batch.filter(pc.invert(keep))
    parts = []
    if len(kept):
        parts.append(_scrub_kept(kept))
    if len(dropped):
        parts.append(_null_scrub(dropped))
    if not parts:
        return _null_scrub(batch)
    return pa.concat_tables(parts)
