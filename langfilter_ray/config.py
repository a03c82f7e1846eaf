"""Pipeline configuration.

A frozen dataclass mirroring the env-driven threshold surface of the
reference cascade (``/root/reference/langid_service/app/lang_gate.py:83-90``
and ``app/config.py:36-61``): probability bands, token minima, stopword
ratios and margins, plus the quality-rule and scrubber knobs this engine
adds on top.  The config hash goes into every partition-manifest line so a
resume can refuse to mix outputs produced under different rules
(lineage; analog of the reference embedding its thresholds into every
result's ``gate_meta.config`` at ``lang_gate.py:195-203``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

from .functions.languages import _FORMATS

_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class PipelineConfig:
    # --- language-gate thresholds (reference lang_gate.py:83-90) ---
    mid_lower: float = 0.60          # LANG_MID_LOWER
    mid_upper: float = 0.79          # LANG_MID_UPPER
    min_stopword_en: float = 0.15    # LANG_MIN_STOPWORD_EN
    min_stopword_fr: float = 0.15    # LANG_MIN_STOPWORD_FR
    stopword_margin: float = 0.05    # LANG_STOPWORD_MARGIN
    min_tokens: int = 10             # LANG_MIN_TOKENS (mid-zone heuristic)
    min_tokens_speech: int = 6       # LANG_MIN_TOKENS_SPEECH
    min_stopword_speech: float = 0.10  # LANG_MIN_STOPWORD_SPEECH
    detect_min_prob: float = 0.60    # LANG_DETECT_MIN_PROB (second pass)
    strict_reject: bool = False      # ENFR_STRICT_REJECT
    allowed_langs: tuple[str, ...] = ("en", "fr")

    # --- probe bounds (analog of PROBE_DURATION_S, lang_gate.py:12-13) ---
    probe_chars: int = 4096          # classifier/heuristics read content[:probe_chars]

    # --- quality rules (Gopher/RedPajama-style; this engine's addition) ---
    max_content_bytes: int = 1_000_000   # upload-size analog (reference config.py:39)
    max_line_length: int = 1000          # any single line longer => minified/binary-ish
    max_mean_line_length: float = 200.0
    min_alnum_ratio: float = 0.25
    max_dup_line_frac: float = 0.30      # fraction of non-unique lines
    max_dup_shingle_frac: float = 0.30   # fraction of non-unique 5-gram word shingles
    shingle_n: int = 5

    # --- perplexity gate (KenLM-style stage; 0.0 = disabled) ---
    max_ppl: float = 0.0             # drop kept rows whose char-trigram
                                     # perplexity under the winning language
                                     # profile exceeds this

    # --- output formatting (LANG_CODE_FORMAT analog, config.py:53-61) ---
    lang_code_format: str = "iso639-1"

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "PipelineConfig":
        """Build a config from LANGFILTER_* environment variables."""
        env = dict(os.environ if env is None else env)
        kwargs = {}
        for f in fields(cls):
            key = "LANGFILTER_" + f.name.upper()
            if key in env:
                kwargs[f.name] = cls.parse_field(f.name, env[key])
        return cls(**kwargs)

    @classmethod
    def parse_field(cls, name: str, raw: str):
        """The value of field ``name`` from its string form: the one
        conversion behind LANGFILTER_* env vars and the CLI's ``--set``.
        Raises KeyError for an unknown field and ValueError, naming the
        field, for a value the field cannot take."""
        kind = {f.name: f.type for f in fields(cls)}[name]
        try:
            if kind == "float":
                return float(raw)
            if kind == "int":
                return int(raw)
            if kind == "bool":
                if raw.lower() not in _BOOLS:
                    raise ValueError(f"{raw!r} is not one of {'/'.join(_BOOLS)}")
                return _BOOLS[raw.lower()]
        except ValueError as exc:
            raise ValueError(f"config field {name}: {exc}") from None
        if name == "allowed_langs":
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        if name == "lang_code_format" and raw not in _FORMATS:
            raise ValueError(
                f"config field {name}: {raw!r} is not one of {', '.join(_FORMATS)}"
            )
        return raw

    def config_hash(self) -> str:
        """Stable hash of every threshold — recorded in manifests for lineage."""
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


DEFAULT_CONFIG = PipelineConfig()
