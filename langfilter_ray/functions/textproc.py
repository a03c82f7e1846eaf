"""Pure text-processing primitives of the decision cascade.

These mirror the reference's transcript-side helpers exactly in structure
(same regex, same set-membership algorithm, same bracket-stripping loop):

- ``tokenize_text``        <- /root/reference/langid_service/app/lang_gate.py:95-99
- ``compute_stopword_ratio`` <- lang_gate.py:102-108
- ``_strip_outer_brackets``  <- lang_gate.py:111-119
- ``is_no_content``          <- ``is_music_only_transcript`` at lang_gate.py:122-162,
  retargeted from "background-music-only transcript" to "no-real-content source
  file" (auto-generated / boilerplate markers), which is the code-corpus analog
  of a document with nothing worth keeping.

All functions are deterministic pure Python over single strings; the Ray
stages call them per row inside ``map_batches`` (set membership and ``re``
scans are C-backed; there is no per-character Python work).

One-byte path: when every character of a text is below U+0100 (ASCII and
Latin-1 text, which ``str.encode("latin-1")`` copies one byte per
character), ``tokenize_text`` skips the regex and the ``lower()`` pass and
runs one ``bytes.translate`` over a 256-entry table built from the spec
itself: each byte maps to its lowercase character when that matches
``TOKEN_RE`` and to a space otherwise, then the text splits on spaces.
``str.lower`` maps each such character to one character below U+0100
without looking at its neighbours, so the table gives the regex path's
tokens exactly; other text takes the regex path.  ``is_no_content`` returns
early unless the stripped, lowered text contains a keyword or a marker as a
substring (a ``True`` result needs a keyword token, and such a token is a
substring of the lowered text or comes from a marker), so rows with neither
are not tokenized a second time.
"""

from __future__ import annotations

import re

# Tokens are the runs of word chars and apostrophes after lowercasing: the
# reference's split on ``[^\w']+`` (lang_gate.py:92) with empty pieces dropped.
TOKEN_RE = re.compile(r"[\w']+", re.UNICODE)


def latin1_bytes(text: str) -> bytes | None:
    """``text`` one byte per character when every character is below
    U+0100, else None (a copy of the string's buffer for such text)."""
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError:
        return None


def lowered_byte_table(keep: re.Pattern) -> bytes:
    """``bytes.translate`` table for ``latin1_bytes`` text: each byte becomes
    its ``str.lower()`` character when ``keep`` matches that, else a space.
    Building it fails unless each of these characters lowercases to one
    character, below U+0100 wherever ``keep`` matches it."""
    table = bytearray()
    for b in range(256):
        low = ord(chr(b).lower())
        table.append(low if keep.fullmatch(chr(low)) else 0x20)
    return bytes(table)


_TOKEN_TABLE = lowered_byte_table(TOKEN_RE)

# EN/FR function-word sets with the same role as lang_gate.py:15-50 — the
# "speechiness" / mid-zone heuristics count hits against these.  (~60 words
# each, including the ad-copy glue words the reference carries.)
EN_STOPWORDS = {
    "the", "and", "to", "of", "in", "you", "your", "for", "is", "on",
    "it", "that", "with", "this", "as", "at", "be", "are", "we", "our", "us",
    "a", "an", "if", "but", "or", "so", "from", "by", "about", "into",
    "over", "up", "down", "out", "not", "no", "yes",
    "i", "me", "my", "mine", "they", "them", "their", "theirs",
    "these", "those", "here", "there", "where", "when",
    "now", "today", "only", "more", "less", "new", "save", "sale",
    "free", "off", "extra", "plus",
}

FR_STOPWORDS = {
    "le", "la", "les", "un", "une", "des", "et", "ou", "mais", "que",
    "qui", "pour", "avec", "sur", "pas", "ce", "cette", "est", "sont",
    "je", "tu", "il", "elle", "nous", "vous", "ils", "elles",
    "de", "du", "au", "aux", "en", "dans", "par", "sous", "sans",
    "plus", "moins", "ne", "ni",
    "on", "toi", "moi", "lui", "leur", "leurs",
    "ces", "ceci", "cela", "ça", "ici", "là",
    "maintenant", "aujourd'hui", "seulement", "nouveau", "nouvelle",
    "offre", "gratuit", "gratuite", "réduction", "promo", "soldes",
}

# --- no-content detector vocabulary (music-only analog, lang_gate.py:52-75) ---
# Keywords play the role of MUSIC_KEYWORDS {"music","musique"}; marker strings
# play the role of the Unicode music glyphs; fillers are the surrounding noise
# words tolerated around the keywords (incl. FR function words, as the
# reference's filler set does at lang_gate.py:72-74).
NOCONTENT_KEYWORDS = {"autogenerated", "boilerplate"}
NOCONTENT_MARKERS = {"@generated", "<<autogen>>", "do-not-edit"}
NOCONTENT_FILLERS = {
    "do", "not", "edit", "this", "file", "is", "was", "by", "a", "an", "the",
    "code", "tool", "machine", "generator", "generated", "auto", "header",
    "notice", "stub", "placeholder", "empty", "intentionally", "left", "blank",
    "de", "du", "fichier", "ne", "pas", "modifier",
}
BRACKET_PAIRS = {"[": "]", "(": ")", "{": "}", "<": ">"}
# ``is_no_content``'s default keyword set and its substring probes
_DEFAULT_KEYWORDS = frozenset(t.lower() for t in NOCONTENT_KEYWORDS)
_DEFAULT_PROBES = tuple(NOCONTENT_MARKERS | _DEFAULT_KEYWORDS)


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on ``[^\\w']+``; drop empty tokens (lang_gate.py:95-99)."""
    if not text:
        return []
    raw = latin1_bytes(text)
    if raw is None:
        return TOKEN_RE.findall(text.lower())
    return raw.translate(_TOKEN_TABLE).decode("latin-1").split()


def compute_stopword_ratio_from_tokens(tokens: list[str], stopwords: set[str]) -> float:
    """hits/len(tokens) with 0.0 on empty — lang_gate.py:102-108 semantics."""
    if not tokens:
        return 0.0
    hits = sum(map(stopwords.__contains__, tokens))
    return hits / len(tokens)


def compute_stopword_ratio(text: str, stopwords: set[str]) -> float:
    return compute_stopword_ratio_from_tokens(tokenize_text(text), stopwords)


def strip_outer_brackets(text: str) -> str:
    """Remove matching outer brackets one layer at a time (lang_gate.py:111-119)."""
    stripped = text
    while len(stripped) >= 2 and stripped[0] in BRACKET_PAIRS:
        closing = BRACKET_PAIRS[stripped[0]]
        if stripped[-1] != closing:
            break
        stripped = stripped[1:-1].strip()
    return stripped


def is_no_content(text: str | None, keywords: set[str] | None = None) -> bool:
    """True when the text is only auto-generated/boilerplate markers.

    Same algorithm as ``is_music_only_transcript`` (lang_gate.py:122-162):
    marker normalization -> outer-bracket strip -> tokenize -> every token must
    be a keyword or filler -> after dropping fillers the remainder must be
    non-empty and all keywords.  Returns False on empty input (the *pipeline*
    short-circuits truly empty probes separately; see oracle.decide_row).
    """
    if text is None:
        return False

    working = text.strip()
    if not working:
        return False

    lowered = working.lower()
    # an empty ``keywords`` means the defaults too
    if keywords:
        kw = {t.lower() for t in keywords}
        probes = NOCONTENT_MARKERS | kw
    else:
        kw, probes = _DEFAULT_KEYWORDS, _DEFAULT_PROBES
    # a True result needs a keyword token, which is a substring of
    # ``lowered`` or comes from a marker
    if not any(word in lowered for word in probes):
        return False
    for marker in NOCONTENT_MARKERS:
        if marker in lowered:
            lowered = lowered.replace(marker, " autogenerated ")

    working = strip_outer_brackets(lowered)
    if not working:
        return False

    tokens = tokenize_text(working)
    if not tokens:
        return False

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


def filtered_text(probe: str, tokens: list[str] | None = None) -> str:
    """Second-pass "VAD filter" analog: keep only purely-alphabetic tokens of
    length >= 2 (natural-language words), dropping identifiers-with-digits,
    operators and punctuation — the way the reference's VAD pass re-decodes
    the probe with non-speech frames removed (lang_gate.py:455-470).
    ``tokens`` may be passed to reuse an existing ``tokenize_text(probe)``
    result (identical by definition)."""
    if tokens is None:
        tokens = tokenize_text(probe)
    return " ".join(t for t in tokens if len(t) >= 2 and t.isalpha())


def truncate_to_words(text: str, max_words: int = 10) -> str:
    """First N whitespace words + ' ...' when longer — utils.py:53-60 verbatim
    semantics (reference appends the ellipsis only when truncation happened)."""
    if not text:
        return text
    # at most max_words splits: the tail of a long text is never split
    words = text.split(None, max_words)
    if len(words) <= max_words:
        return text
    return " ".join(words[:max_words]) + " ..."
