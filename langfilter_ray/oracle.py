"""Pure-Python decision oracle — the reference-semantics spec.

This module IS the specification of the decision cascade: a structural
mirror of ``detect_lang_en_fr_only`` (/root/reference/langid_service/app/
lang_gate.py:293-546) retargeted from audio transcripts to source-file
content, plus the quality rules and scrubber the north star adds.

The cascade is factored into staged pure functions so the row-wise oracle
(this file, used to produce the committed golden labels) and the batched
Ray stage (stages/cascade.py, which scores whole Arrow batches through the
classifier) execute the SAME branch code — decision parity is structural,
not statistical:

  cheap_features()       — steps 0-2: size prune, no-content short-circuit,
                           shape rules, tokens/ratios  (no model)
  first_pass_decision()  — steps 3-4: high-conf + speechiness guard,
                           mid-zone EN/FR             (needs pass-1 scores)
  second_pass_decision() — step 5: filtered-text retry (VAD analog)
                           (needs pass-2 scores)
  residual_decision()    — step 6: strict reject / EN-FR fallback

Branch map (reference lines):
  0. too_large prune          — upload validator analog (utils.py:13-18)
  1. no-content short-circuit — music-only short-circuit (:340-352); an
     empty/whitespace-only probe is also no-content (documented divergence:
     an empty source file has nothing to keep)
  2. shape-rule prune         — engine addition (Gopher rules) placed before
     the classifier so expensive stages see fewer rows (SURVEY.md §4.2)
  3. high-conf accept w/ speechiness guard (:354-396)
  4. mid-zone EN / FR heuristics (:398-453)
  5. second pass on filtered text (:455-511); the accepted record keeps the
     FIRST-pass ratios and token count — reference quirk (:507-509)
  6. strict reject (:527-531) or EN/FR forced-choice fallback (:533-546)
     with probability=None (:538); fallback rows are DROPPED by the quality
     filter (FIXTURES.md §2 decision vocabulary)

Kept rows are scrubbed (functions/scrub.py) and get a sha256 of the
scrubbed content; dropped rows carry null scrub fields (cost ladder:
enrichment only on survivors — the T5 analog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .config import DEFAULT_CONFIG, PipelineConfig
from .functions.classifier import TrigramLidModel, get_model
from .functions.heuristics import RULE_ORDER, first_failing_rule, utf8_len
from .functions.scrub import RULE_NAMES, scrub_text, sha256_hex
from .functions.textproc import (
    EN_STOPWORDS,
    FR_STOPWORDS,
    compute_stopword_ratio_from_tokens,
    filtered_text,
    is_no_content,
    tokenize_text,
)

KEPT_DECISIONS = frozenset(
    {"kept_high_conf", "kept_mid_zone_en", "kept_mid_zone_fr", "kept_second_pass"}
)
_NO_RULE_FLAGS = {r: False for r in RULE_ORDER}


@dataclass
class RowFeatures:
    """Model-free features of one document (cheap_features output)."""

    probe: str
    tokens: list[str]
    token_count: int
    en_ratio: float
    fr_ratio: float
    rule_flags: dict[str, bool]


def _result(
    *,
    cfg: PipelineConfig,
    language: str,
    probability: float | None,
    method: str,
    gate_decision: str,
    second_pass: bool,
    en_ratio: float,
    fr_ratio: float,
    token_count: int,
    no_content: bool,
    rule_flags: dict[str, bool],
    ppl: float | None = None,
) -> dict[str, Any]:
    """Flat label record — the ``_build_gate_result`` analog
    (lang_gate.py:172-213) with the nested struct flattened into ``meta``;
    ``ppl`` is the KenLM-style perplexity of the scoring pass that decided
    the row (None on model-free paths)."""
    prob_value = float(probability) if probability is not None else 0.0
    return {
        "keep": gate_decision in KEPT_DECISIONS,
        "gate_decision": gate_decision,
        "language": language,
        "probability": probability,
        "method": method,
        "meta": {
            "mid_zone": cfg.mid_lower <= prob_value < cfg.mid_upper,
            "token_count": token_count,
            "stopword_ratio_en": en_ratio,
            "stopword_ratio_fr": fr_ratio,
            "second_pass": second_pass,
            "no_content": no_content,
            "ppl": ppl,
        },
        "rule_flags": rule_flags,
    }


# --------------------------------------------------------------------------
# staged decision functions (shared by oracle and Ray stage)
# --------------------------------------------------------------------------

def cheap_features(
    content: str, cfg: PipelineConfig, nbytes: int | None = None
) -> tuple[RowFeatures | None, dict[str, Any] | None]:
    """Steps 0-2.  Returns (features, None) when the row needs the
    classifier, or (None, record) when it was decided without any model.

    ``nbytes`` is the UTF-8 length of the whole content when the caller
    already has it (the Ray stage reads it from Arrow); a row over the cap
    is decided by it alone, so such a caller may pass only the probe."""
    if nbytes is None:
        nbytes = utf8_len(content)
    # 0. size prune on full content bytes
    if nbytes > cfg.max_content_bytes:
        return None, _result(
            cfg=cfg, language="none", probability=None, method="rules",
            gate_decision="dropped_rule_too_large", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=0, no_content=False,
            rule_flags=dict(_NO_RULE_FLAGS, too_large=True),
        )

    probe = content[: cfg.probe_chars]
    tokens = tokenize_text(probe)
    token_count = len(tokens)

    # 1. no-content short-circuit
    if (not probe.strip()) or is_no_content(probe):
        return None, _result(
            cfg=cfg, language="none", probability=None, method="autodetect",
            gate_decision="dropped_no_content", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=token_count,
            no_content=True, rule_flags=dict(_NO_RULE_FLAGS),
        )

    # 2. shape-rule prune
    rule, rule_flags = first_failing_rule(content, cfg)
    if rule is not None:
        return None, _result(
            cfg=cfg, language="none", probability=None, method="rules",
            gate_decision=f"dropped_rule_{rule}", second_pass=False,
            en_ratio=0.0, fr_ratio=0.0, token_count=token_count,
            no_content=False, rule_flags=rule_flags,
        )

    en_ratio = compute_stopword_ratio_from_tokens(tokens, EN_STOPWORDS)
    fr_ratio = compute_stopword_ratio_from_tokens(tokens, FR_STOPWORDS)
    return RowFeatures(probe, tokens, token_count, en_ratio, fr_ratio, rule_flags), None


def _ppl_gate(cfg: PipelineConfig, rec: dict[str, Any]) -> dict[str, Any]:
    """Optional KenLM-style perplexity gate: a kept row whose scoring-pass
    perplexity exceeds ``cfg.max_ppl`` (when enabled, > 0) is dropped with
    ``dropped_rule_ppl``; the language/method/meta of the scoring pass are
    retained for the report."""
    ppl = rec["meta"].get("ppl")
    if cfg.max_ppl > 0 and ppl is not None and ppl > cfg.max_ppl:
        rec = dict(rec, keep=False, gate_decision="dropped_rule_ppl")
    return rec


def first_pass_decision(
    cfg: PipelineConfig, f: RowFeatures, lang1: str, prob1: float,
    ppl1: float | None = None,
) -> dict[str, Any] | None:
    """Steps 3-4; None means undecided (second pass required).
    A kept decision is overridden to ``dropped_rule_ppl`` when the optional
    perplexity gate is enabled and exceeded (KenLM-stage analog)."""
    if lang1 in cfg.allowed_langs:
        if prob1 >= cfg.mid_upper:
            dominant_ratio = max(f.en_ratio, f.fr_ratio)
            if (
                f.token_count >= cfg.min_tokens_speech
                and dominant_ratio >= cfg.min_stopword_speech
            ):
                return _ppl_gate(cfg, _result(
                    cfg=cfg, language=lang1, probability=prob1,
                    method="autodetect", gate_decision="kept_high_conf",
                    second_pass=False, en_ratio=f.en_ratio, fr_ratio=f.fr_ratio,
                    token_count=f.token_count, no_content=False,
                    rule_flags=f.rule_flags, ppl=ppl1,
                ))
            # unspeechy high-prob deliberately falls through (:383-396)

        if prob1 >= cfg.mid_lower and lang1 in {"en", "fr"}:
            if (
                lang1 == "en"
                and f.token_count >= cfg.min_tokens
                and f.en_ratio >= cfg.min_stopword_en
                and f.en_ratio > f.fr_ratio + cfg.stopword_margin
            ):
                return _ppl_gate(cfg, _result(
                    cfg=cfg, language="en", probability=prob1,
                    method="autodetect", gate_decision="kept_mid_zone_en",
                    second_pass=False, en_ratio=f.en_ratio, fr_ratio=f.fr_ratio,
                    token_count=f.token_count, no_content=False,
                    rule_flags=f.rule_flags, ppl=ppl1,
                ))
            if (
                lang1 == "fr"
                and f.token_count >= cfg.min_tokens
                and f.fr_ratio >= cfg.min_stopword_fr
                and f.fr_ratio > f.en_ratio + cfg.stopword_margin
            ):
                return _ppl_gate(cfg, _result(
                    cfg=cfg, language="fr", probability=prob1,
                    method="autodetect", gate_decision="kept_mid_zone_fr",
                    second_pass=False, en_ratio=f.en_ratio, fr_ratio=f.fr_ratio,
                    token_count=f.token_count, no_content=False,
                    rule_flags=f.rule_flags, ppl=ppl1,
                ))
    return None


def second_pass_decision(
    cfg: PipelineConfig,
    f: RowFeatures,
    filtered: str,
    lang2: str,
    prob2: float,
    ppl2: float | None = None,
) -> dict[str, Any] | None:
    """Step 5; None means still undecided (strict/fallback required).

    ``filtered`` must be ``filtered_text(f.probe)``; callers compute the
    pass-2 classifier scores over it (batched in the Ray stage)."""
    if is_no_content(filtered):
        return _result(
            cfg=cfg, language="none", probability=None, method="autodetect-vad",
            gate_decision="dropped_no_content", second_pass=True,
            en_ratio=0.0, fr_ratio=0.0,
            token_count=len(tokenize_text(filtered)),
            no_content=True, rule_flags=f.rule_flags,
        )
    if lang2 in cfg.allowed_langs and prob2 >= cfg.detect_min_prob:
        # quirk preserved: FIRST-pass ratios/token count (:507-509)
        return _ppl_gate(cfg, _result(
            cfg=cfg, language=lang2, probability=prob2,
            method="autodetect-vad", gate_decision="kept_second_pass",
            second_pass=True, en_ratio=f.en_ratio, fr_ratio=f.fr_ratio,
            token_count=f.token_count, no_content=False,
            rule_flags=f.rule_flags, ppl=ppl2,
        ))
    return None


def residual_decision(
    cfg: PipelineConfig,
    f: RowFeatures,
    lang1: str,
    prob1: float,
    fallback_lang: str | None,
) -> dict[str, Any]:
    """Step 6.  ``fallback_lang`` is the forced-choice result; pass None only
    under strict mode (where no fallback model call happens)."""
    if cfg.strict_reject:
        return _result(
            cfg=cfg, language=lang1, probability=prob1,
            method="autodetect", gate_decision="rejected_strict",
            second_pass=True, en_ratio=f.en_ratio, fr_ratio=f.fr_ratio,
            token_count=f.token_count, no_content=False, rule_flags=f.rule_flags,
        )
    return _result(
        cfg=cfg, language=fallback_lang, probability=None, method="fallback",
        gate_decision="dropped_fallback", second_pass=True,
        en_ratio=f.en_ratio, fr_ratio=f.fr_ratio, token_count=f.token_count,
        no_content=False, rule_flags=f.rule_flags,
    )


# --------------------------------------------------------------------------
# row-wise oracle (golden-label generator; single-row model calls)
# --------------------------------------------------------------------------

def decide_row(
    content: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    model: TrigramLidModel | None = None,
) -> dict[str, Any]:
    """Run the full cascade for one document (no scrub fields)."""
    model = model or get_model()
    feats, rec = cheap_features(content, cfg)
    if rec is not None:
        return rec

    langs, probs, ppls = model.classify_full([feats.probe])
    lang1, prob1 = langs[0], float(probs[0])
    rec = first_pass_decision(cfg, feats, lang1, prob1, float(ppls[0]))
    if rec is not None:
        return rec

    filtered = filtered_text(feats.probe, feats.tokens)
    langs2, probs2, ppls2 = model.classify_full([filtered])
    rec = second_pass_decision(
        cfg, feats, filtered, langs2[0], float(probs2[0]), float(ppls2[0])
    )
    if rec is not None:
        return rec

    fallback = None if cfg.strict_reject else model.forced_choice([filtered])[0]
    return residual_decision(cfg, feats, lang1, prob1, fallback)


def label_row(
    content: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    model: TrigramLidModel | None = None,
) -> dict[str, Any]:
    """Full golden label: cascade decision + scrub fields on kept rows."""
    rec = decide_row(content, cfg, model)
    if rec["keep"]:
        scrubbed, pii_flags = scrub_text(content)
        rec["scrubbed_content"] = scrubbed
        rec["content_sha256"] = sha256_hex(scrubbed)
        rec["pii_flags"] = pii_flags
        rec["scrubbed"] = any(pii_flags.values())
    else:
        rec["scrubbed_content"] = None
        rec["content_sha256"] = None
        rec["pii_flags"] = {name: False for name in RULE_NAMES}
        rec["scrubbed"] = False
    return rec
