"""Frozen-reference parity of the cheap-feature layer.

The reference functions below are verbatim copies of the row-wise
``tokenize_text``, ``compute_stopword_ratio_from_tokens``,
``is_no_content``, ``content_stats``, ``first_failing_rule``,
``cheap_features`` and ``normalize_for_lid`` as they were before the ASCII
byte paths and the no-content prefilter went in.  The live functions must
return the same values, with the same types, on every corpus family, on
arbitrary text over an alphabet of the characters where ASCII, Latin-1,
Unicode and ``str.lower`` disagree, on every character below U+0100, and
on explicit edges.  A second test pins that
``cheap_features`` tokenizes a row once unless it may be no-content.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from langfilter_ray import oracle
from langfilter_ray.config import PipelineConfig
from langfilter_ray.corpus import FAMILIES, _content_for, gen_row
from langfilter_ray.functions import classifier, heuristics, textproc
from langfilter_ray.functions.heuristics import RULE_ORDER
from langfilter_ray.functions.textproc import (
    EN_STOPWORDS,
    FR_STOPWORDS,
    NOCONTENT_FILLERS,
    NOCONTENT_KEYWORDS,
    NOCONTENT_MARKERS,
    strip_outer_brackets,
)
from langfilter_ray.oracle import _NO_RULE_FLAGS, RowFeatures, _result

CFG = PipelineConfig()
# small probe and size caps, so generated text reaches the probe cut and
# the size prune
SMALL_CFG = PipelineConfig(probe_chars=48, max_content_bytes=96, max_line_length=20,
                           max_mean_line_length=12.0)
# set() must mean the default keywords, as ``keywords or NOCONTENT_KEYWORDS``
# does in the reference copy
CUSTOM_KEYWORDS = ({"Stub", "PLACEHOLDER"}, {"file"}, {"kelvin", "é"}, set())


# --------------------------------------------------------------------------
# reference copies (do not edit: they are the spec the live code must match)
# --------------------------------------------------------------------------

TOKEN_SPLIT_RE = re.compile(r"[^\w']+", re.UNICODE)
_NON_ALNUM_RE = re.compile(r"[\W_]+", re.UNICODE)
_NORM_RE = re.compile(r"[^a-zß-ÿ']")


def ref_tokenize_text(text: str) -> list[str]:
    """Lowercase and split on ``[^\\w']+``; drop empty tokens (lang_gate.py:95-99)."""
    if not text:
        return []
    return [token for token in TOKEN_SPLIT_RE.split(text.lower()) if token]


def ref_compute_stopword_ratio_from_tokens(tokens: list[str], stopwords: set[str]) -> float:
    """hits/len(tokens) with 0.0 on empty — lang_gate.py:102-108 semantics."""
    if not tokens:
        return 0.0
    hits = sum(1 for token in tokens if token in stopwords)
    return hits / len(tokens)


def ref_is_no_content(text: str | None, keywords: set[str] | None = None) -> bool:
    if text is None:
        return False

    working = text.strip()
    if not working:
        return False

    lowered = working.lower()
    for marker in NOCONTENT_MARKERS:
        if marker in lowered:
            lowered = lowered.replace(marker, " autogenerated ")

    working = strip_outer_brackets(lowered)
    if not working:
        return False

    tokens = ref_tokenize_text(working)
    if not tokens:
        return False

    kw = {t.lower() for t in (keywords or NOCONTENT_KEYWORDS)}
    fillers = NOCONTENT_FILLERS

    if not all(token in kw or token in fillers for token in tokens):
        return False

    filtered = [token for token in tokens if token not in fillers]
    if not filtered:
        return False
    if len(filtered) <= 2 and all(token in kw for token in filtered):
        return True
    if all(token in kw for token in filtered):
        return True
    return False


def ref_content_stats(text: str, cfg: PipelineConfig) -> dict[str, float]:
    nbytes = len(text.encode("utf-8", errors="surrogatepass"))
    probe = text[: cfg.probe_chars]
    lines = probe.split("\n")
    n_lines = len(lines)
    max_line = max((len(ln) for ln in lines), default=0)
    mean_line = (sum(len(ln) for ln in lines) / n_lines) if n_lines else 0.0
    n_chars = len(probe)
    n_alnum = n_chars - sum(len(m) for m in _NON_ALNUM_RE.findall(probe))
    alnum_ratio = (n_alnum / n_chars) if n_chars else 0.0

    stripped = [ln.strip() for ln in lines if ln.strip()]
    dup_line_frac = 0.0
    if stripped:
        dup_line_frac = 1.0 - len(set(stripped)) / len(stripped)

    words = probe.split()
    n = cfg.shingle_n
    dup_shingle_frac = 0.0
    if len(words) >= n:
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


def ref_first_failing_rule(text: str, cfg: PipelineConfig) -> tuple[str | None, dict[str, bool]]:
    st = ref_content_stats(text, cfg)
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


def ref_cheap_features(content: str, cfg: PipelineConfig):
    if len(content.encode("utf-8", errors="surrogatepass")) > cfg.max_content_bytes:
        return None, _result(
            cfg=cfg, language="none", probability=None, method="rules",
            gate_decision="dropped_rule_too_large", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=0, no_content=False,
            rule_flags=dict(_NO_RULE_FLAGS, too_large=True),
        )

    probe = content[: cfg.probe_chars]
    tokens = ref_tokenize_text(probe)
    token_count = len(tokens)

    if (not probe.strip()) or ref_is_no_content(probe):
        return None, _result(
            cfg=cfg, language="none", probability=None, method="autodetect",
            gate_decision="dropped_no_content", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=token_count,
            no_content=True, rule_flags=dict(_NO_RULE_FLAGS),
        )

    rule, rule_flags = ref_first_failing_rule(content, cfg)
    if rule is not None:
        return None, _result(
            cfg=cfg, language="none", probability=None, method="rules",
            gate_decision=f"dropped_rule_{rule}", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=token_count,
            no_content=False, rule_flags=rule_flags,
        )

    en_ratio = ref_compute_stopword_ratio_from_tokens(tokens, EN_STOPWORDS)
    fr_ratio = ref_compute_stopword_ratio_from_tokens(tokens, FR_STOPWORDS)
    return RowFeatures(probe, tokens, token_count, en_ratio, fr_ratio, rule_flags), None


def ref_normalize_for_lid(text: str, max_chars: int = classifier.LID_MAX_CHARS) -> str:
    return _NORM_RE.sub(" ", text[:max_chars].lower())


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------

def _typed(value):
    """``value`` with the type of every leaf spelled out, so ``1 == 1.0``
    or ``True == 1`` cannot pass as parity."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _typed(dataclasses.asdict(value)))
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, value)


def assert_parity(text: str) -> None:
    assert _typed(textproc.tokenize_text(text)) == _typed(ref_tokenize_text(text))
    tokens = ref_tokenize_text(text)
    for words in (EN_STOPWORDS, FR_STOPWORDS):
        assert _typed(textproc.compute_stopword_ratio_from_tokens(tokens, words)) == _typed(
            ref_compute_stopword_ratio_from_tokens(tokens, words))
    assert textproc.is_no_content(text) is ref_is_no_content(text)
    for kw in CUSTOM_KEYWORDS:
        assert textproc.is_no_content(text, keywords=kw) is ref_is_no_content(text, keywords=kw)
    for cfg in (CFG, SMALL_CFG):
        assert _typed(heuristics.content_stats(text, cfg)) == _typed(ref_content_stats(text, cfg))
        assert _typed(heuristics.first_failing_rule(text, cfg)) == _typed(
            ref_first_failing_rule(text, cfg))
        assert _typed(oracle.cheap_features(text, cfg)) == _typed(ref_cheap_features(text, cfg))
        # the byte length the Ray stage passes in from Arrow
        nbytes = len(text.encode("utf-8", errors="surrogatepass"))
        assert _typed(oracle.cheap_features(text, cfg, nbytes=nbytes)) == _typed(
            ref_cheap_features(text, cfg))
    assert classifier.normalize_for_lid(text) == ref_normalize_for_lid(text)
    assert classifier.normalize_for_lid(text, 10**9) == ref_normalize_for_lid(text, 10**9)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _family_rows(per_family: int) -> list[str]:
    return [
        _content_for(family, random.Random(f"parity:{family}:{k}"))
        for family, _ in FAMILIES
        for k in range(per_family)
    ]


# characters where ASCII, Unicode ``\w``/``isalnum``, ``str.lower`` and the
# UTF-8 byte length part ways, plus the no-content vocabulary in mixed case
_PIECES = (
    list("aZk09_' \n\t\r-;.,!=@[](){}<>")
    + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\x85", "\xa0",
       "\u2028", "\ud800", "\udfff", "\u212a", "\u0130", "Σ", "ς",
       "²", "¼", "µ", "ª", "×", "\xad", "é", "É", "ß", "ÿ", "Þ", "œ", "中", "文",
       "🚀", "😀"]
    + ["autogenerated", "AutoGenerated", "boilerplate", "@generated",
       "<<autogen>>", "<<AUTOGEN>>", "do-not-edit", "DO-NOT-EDIT", "do", "not",
       "edit", "this", "file", "stub", "placeholder", "the", "and", "le",
       "fichier", "et", "aujourd'hui", "ça", "là", "Σ"]
)
_TEXT = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
    st.text(alphabet=st.sampled_from([p for p in _PIECES if len(p) == 1]), max_size=120),
    st.text(alphabet=st.characters(max_codepoint=0xFF), max_size=120),
    st.text(max_size=80),
)

EDGES = [
    "",
    "\n\n",
    "a single line without a newline",
    "It's snake_case x_1, ISN'T\tit?",
    "[autogenerated]",
    "@generated",
    "<<AUTOGEN>> do-not-edit",
    "é" * 600_000,                      # > 1 MB of UTF-8, well under 1M chars
    "a" * 999_999 + "é",                # 1,000,001 bytes, 1,000,000 chars
]


@pytest.mark.parametrize("family", [f for f, _ in FAMILIES])
def test_family_rows_match_reference(family):
    for k in range(40):
        assert_parity(_content_for(family, random.Random(f"parity:{family}:{k}")))


def test_corpus_rows_match_reference():
    for i in range(300):
        assert_parity(gen_row(i)["content"])


@pytest.mark.parametrize("text", EDGES, ids=range(len(EDGES)))
def test_edges_match_reference(text):
    assert_parity(text)


def test_every_one_byte_character_matches_reference():
    for b in range(256):
        c = chr(b)
        for text in (c, f"Ab{c}cD {c}{c}\nx{c}'y", f"[{c}autogenerated{c}]"):
            assert_parity(text)


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_arbitrary_text_matches_reference(text):
    assert_parity(text)


def test_cheap_features_tokenizes_once_per_row(monkeypatch):
    """A row that passes the size prune and holds no no-content keyword or
    marker is tokenized exactly once by ``cheap_features``."""
    calls = []
    real = textproc.tokenize_text

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(textproc, "tokenize_text", counting)
    monkeypatch.setattr(oracle, "tokenize_text", counting)
    vocab = NOCONTENT_KEYWORDS | NOCONTENT_MARKERS
    checked = 0
    for content in _family_rows(20):
        calls.clear()
        oracle.cheap_features(content, CFG)
        if len(content.encode("utf-8", errors="surrogatepass")) > CFG.max_content_bytes:
            continue
        lowered = content[: CFG.probe_chars].strip().lower()
        if any(word in lowered for word in vocab):
            continue
        assert len(calls) == 1, (content[:80], len(calls))
        checked += 1
    assert checked >= 15 * (len(FAMILIES) - 1)
