"""Gopher/RedPajama-style shape heuristics over source-file content.

These are the engine's pre-classifier prune rules (the analog of the
reference's upload validator, /root/reference/langid_service/app/
utils.py:13-18, which rejects oversized/wrong-shaped inputs before any
model work): cheap pure-Python/C string statistics that drop obviously
unusable files so the expensive classifier stages see monotonically fewer
rows (the cost-ladder lesson, SURVEY.md §4.2).

Rules (evaluated in FIXED order; the first firing rule names the drop):
  too_large    — content byte length over the cap (upload-size analog)
  line_len     — any line over max_line_length, or mean line length over
                 max_mean_line_length (minified / generated bundles)
  alnum_ratio  — fraction of alphanumeric chars below min (binary-ish blobs)
  repetition   — duplicate-line fraction or duplicate word-5-gram-shingle
                 fraction over the cap (Gopher repetition signals); distinct
                 shingles are counted as word tuples, so no two distinct
                 shingles can collide
"""

from __future__ import annotations

import re

from ..config import PipelineConfig
from .textproc import latin1_bytes

RULE_ORDER = ("too_large", "line_len", "alnum_ratio", "repetition")

# alphanumeric = unicode word chars minus underscore; counted by deleting
# everything else in ONE C pass (a per-character Python loop here was
# the pipeline's original hot spot): a ``bytes.translate`` deletion of the
# bytes the regex matches on text below U+0100, the regex otherwise
_NON_ALNUM_RE = re.compile(r"[\W_]+", re.UNICODE)
_NON_ALNUM_BYTES = bytes(b for b in range(256) if _NON_ALNUM_RE.fullmatch(chr(b)))


def utf8_len(text: str) -> int:
    """UTF-8 byte length (lone surrogates count 3 bytes); ``len`` on ASCII
    text, whose ``isascii()`` check is O(1)."""
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8", errors="surrogatepass"))


def content_stats(text: str, cfg: PipelineConfig) -> dict[str, float]:
    """Deterministic shape statistics for one document (probe-capped where
    noted).  All counts are exact ints; ratios are single float divisions."""
    nbytes = utf8_len(text)
    probe = text[: cfg.probe_chars]
    lines = probe.split("\n")
    n_lines = len(lines)
    n_chars = len(probe)
    max_line = max(map(len, lines))
    # the lines partition the probe minus its n_lines - 1 newlines
    mean_line = (n_chars - (n_lines - 1)) / n_lines
    raw = latin1_bytes(probe)
    if raw is None:
        n_alnum = len(_NON_ALNUM_RE.sub("", probe))
    else:
        n_alnum = len(raw.translate(None, _NON_ALNUM_BYTES))
    alnum_ratio = (n_alnum / n_chars) if n_chars else 0.0

    stripped = [s for s in map(str.strip, lines) if s]
    dup_line_frac = 0.0
    if stripped:
        dup_line_frac = 1.0 - len(set(stripped)) / len(stripped)

    words = probe.split()
    n = cfg.shingle_n
    dup_shingle_frac = 0.0
    if len(words) >= n:
        # distinct word-n-gram shingles via C-level tuple hashing (zip of
        # shifted views); same distinctness semantics as hashing joined
        # shingles, ~4x faster and collision-free
        total = len(words) - n + 1
        distinct = len(set(zip(*(words[k:] for k in range(n)))))
        dup_shingle_frac = 1.0 - distinct / total

    return {
        "n_bytes": nbytes,
        "max_line": max_line,
        "mean_line": mean_line,
        "alnum_ratio": alnum_ratio,
        "dup_line_frac": dup_line_frac,
        "dup_shingle_frac": dup_shingle_frac,
        "n_chars_probe": n_chars,
    }


def first_failing_rule(text: str, cfg: PipelineConfig) -> tuple[str | None, dict[str, bool]]:
    """Return (first rule that fires or None, {rule: fired} flags)."""
    st = content_stats(text, cfg)
    flags = {
        "too_large": st["n_bytes"] > cfg.max_content_bytes,
        "line_len": st["max_line"] > cfg.max_line_length
        or st["mean_line"] > cfg.max_mean_line_length,
        "alnum_ratio": st["n_chars_probe"] > 0
        and st["alnum_ratio"] < cfg.min_alnum_ratio,
        "repetition": st["dup_line_frac"] > cfg.max_dup_line_frac
        or st["dup_shingle_frac"] > cfg.max_dup_shingle_frac,
    }
    for rule in RULE_ORDER:
        if flags[rule]:
            return rule, flags
    return None, flags
