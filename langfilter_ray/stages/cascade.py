"""The cascade as a Ray Data stage.

``CascadeScorer`` is the engine's central stage — the analog of the
reference's per-worker-process Whisper singleton
(langid_service/app/services/detector.py:20-47).  ``__init__`` builds the
model, ``__call__`` scores a whole Arrow batch.  The pipeline hosts it in
plain tasks (``pipelines/quality_filter._cascade_task``) over a model
built once per worker process and reused by every batch, every config
and every Dataset execution that process runs.

The cost ladder of the reference cascade (cheap probe for everyone, second
pass only for the undecided, fallback only for the residual —
lang_gate.py:310/458/535, SURVEY.md §4.2) is realized *inside the batch*:

  pass 0-2  cheap_features        on all rows         (no model)
  pass 1    model.classify        on non-pruned rows  (vectorized)
  pass 2    model.classify        on undecided rows   (vectorized subset)
  fallback  model.forced_choice   on residual rows    (vectorized subset)

so each model pass sees monotonically fewer rows without any dataset-level
split/union (which would re-read blocks), and expensive work shrinks with
selectivity exactly as in the reference.

Per-row error containment: any row whose feature extraction throws gets
``gate_decision="error"`` + the exception text in an ``error`` column
instead of failing the 1000-row task (the reference retries whole jobs 3x,
runner.py:192-199; at batch granularity a poison row must not re-run its
neighbors — SURVEY.md §7.5.6).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.classifier import TrigramLidModel
from ..functions.textproc import filtered_text
from ..oracle import (
    cheap_features,
    first_pass_decision,
    residual_decision,
    second_pass_decision,
)

META_TYPE = pa.struct(
    [
        ("mid_zone", pa.bool_()),
        ("token_count", pa.int64()),
        ("stopword_ratio_en", pa.float64()),
        ("stopword_ratio_fr", pa.float64()),
        ("second_pass", pa.bool_()),
        ("no_content", pa.bool_()),
        ("ppl", pa.float64()),
    ]
)
RULE_FLAGS_TYPE = pa.struct(
    [
        ("too_large", pa.bool_()),
        ("line_len", pa.bool_()),
        ("alnum_ratio", pa.bool_()),
        ("repetition", pa.bool_()),
    ]
)

_ERROR_RECORD = {
    "keep": False,
    "gate_decision": "error",
    "language": "none",
    "probability": None,
    "method": "error",
    "meta": {
        "mid_zone": False, "token_count": 0, "stopword_ratio_en": 0.0,
        "stopword_ratio_fr": 0.0, "second_pass": False, "no_content": False,
        "ppl": None,
    },
    "rule_flags": {
        "too_large": False, "line_len": False,
        "alnum_ratio": False, "repetition": False,
    },
}


def _contents(
    column: pa.ChunkedArray, cfg: PipelineConfig
) -> tuple[list[str], list[int]]:
    """Each row's text as ``cheap_features`` reads it, and its UTF-8 byte
    length.  A null row is ``""``.  A row over ``cfg.max_content_bytes`` is
    decided by its length alone, so only its probe becomes a Python string:
    those rows can hold most of a batch's bytes."""
    nbytes = pc.fill_null(pc.binary_length(column), 0).to_numpy()
    over = nbytes > cfg.max_content_bytes
    texts = column
    if over.any():
        texts = pc.if_else(over, pa.scalar("", column.type), texts)
    if texts.null_count:
        texts = pc.fill_null(texts, "")
    # to_numpy + tolist: to_pylist would box every element as a Scalar first
    contents = texts.to_numpy(zero_copy_only=False).tolist()
    for i in np.flatnonzero(over).tolist():
        contents[i] = pc.utf8_slice_codeunits(
            column.slice(i, 1), 0, cfg.probe_chars
        ).to_pylist()[0]
    return contents, nbytes.tolist()


class CascadeScorer:
    """Scores whole batches vectorized with one model.

    With ``scrub=True`` (the default in the full pipeline) the PII scrub of
    kept rows runs inside the same call, so the decided batch never
    takes an extra trip through the object store between cascade and scrub
    (one 2 GB/500k-row hop saved); with ``drop_content=True`` the original
    ``content`` column is dropped after scrubbing — the product is the
    scrubbed content + labels, exactly like the reference stores results
    and snippets rather than input audio (runner.py:129-165).  The
    pipeline's task (``quality_filter._cascade_task``) drops it by
    default, so the raw text never leaves the scorer task; this class
    keeps it by default, for callers that score a batch in process."""

    def __init__(
        self,
        cfg: PipelineConfig = DEFAULT_CONFIG,
        scrub: bool = False,
        drop_content: bool = False,
        model_factory=None,
    ) -> None:
        self.cfg = cfg
        self.scrub = scrub
        self.drop_content = drop_content
        # ``model_factory`` is the pluggable real-model seam: any zero-arg
        # callable returning an object with classify / classify_full /
        # forced_choice (interface contract + the fastText-lid.176 plug-in
        # documented in functions/lid_adapters.py); default is the
        # deterministic trigram stand-in.
        self.model = (model_factory or TrigramLidModel)()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg, model = self.cfg, self.model
        contents, nbytes = _contents(batch["content"], cfg)
        n = len(contents)
        records: list[dict[str, Any] | None] = [None] * n
        errors: list[str | None] = [None] * n
        feats = [None] * n

        # steps 0-2: cheap features / prune (no model)
        need_pass1: list[int] = []
        for i, (content, size) in enumerate(zip(contents, nbytes)):
            try:
                f, rec = cheap_features(content, cfg, size)
                if rec is not None:
                    records[i] = rec
                else:
                    feats[i] = f
                    need_pass1.append(i)
            except Exception as exc:  # poison-row containment
                records[i] = dict(_ERROR_RECORD)
                errors[i] = f"{type(exc).__name__}: {exc}"[:500]

        # pass 1 (batched classifier over survivors)
        lang1: list[str | None] = [None] * n
        prob1: list[float | None] = [None] * n
        need_pass2: list[int] = []
        if need_pass1:
            langs, probs, ppls = model.classify_full(
                [feats[i].probe for i in need_pass1]
            )
            probs, ppls = probs.tolist(), ppls.tolist()
            for i, lang, prob, ppl in zip(need_pass1, langs, probs, ppls):
                rec = first_pass_decision(cfg, feats[i], lang, prob, ppl)
                if rec is not None:
                    records[i] = rec
                else:
                    need_pass2.append(i)
                    lang1[i], prob1[i] = lang, prob

        # pass 2 (batched over the undecided subset)
        if need_pass2:
            filtered = [
                filtered_text(feats[i].probe, feats[i].tokens) for i in need_pass2
            ]
            langs2, probs2, ppls2 = model.classify_full(filtered)
            probs2, ppls2 = probs2.tolist(), ppls2.tolist()
            residual: list[int] = []
            residual_texts: list[str] = []
            for i, text, lang, prob, ppl in zip(
                need_pass2, filtered, langs2, probs2, ppls2
            ):
                rec = second_pass_decision(cfg, feats[i], text, lang, prob, ppl)
                if rec is not None:
                    records[i] = rec
                else:
                    residual.append(i)
                    residual_texts.append(text)

            # fallback forced-choice (batched over the residual only)
            if residual:
                if cfg.strict_reject:
                    choices = [None] * len(residual)
                else:
                    choices = model.forced_choice(residual_texts)
                for i, choice in zip(residual, choices):
                    records[i] = residual_decision(
                        cfg, feats[i], lang1[i], prob1[i], choice
                    )

        out = self._append_columns(batch, records, errors)
        if self.scrub:
            from .scrub_stage import scrub_batch

            out = scrub_batch(out)
            if self.drop_content:
                out = out.drop_columns(["content"])
        return out

    @staticmethod
    def _append_columns(
        batch: pa.Table, records: list[dict[str, Any]], errors: list[str | None]
    ) -> pa.Table:
        out = batch
        out = out.append_column("keep", pa.array([r["keep"] for r in records], pa.bool_()))
        out = out.append_column(
            "gate_decision", pa.array([r["gate_decision"] for r in records], pa.string())
        )
        out = out.append_column(
            "language", pa.array([r["language"] for r in records], pa.string())
        )
        out = out.append_column(
            "probability", pa.array([r["probability"] for r in records], pa.float64())
        )
        out = out.append_column(
            "method", pa.array([r["method"] for r in records], pa.string())
        )
        out = out.append_column(
            "meta", pa.array([r["meta"] for r in records], META_TYPE)
        )
        out = out.append_column(
            "rule_flags", pa.array([r["rule_flags"] for r in records], RULE_FLAGS_TYPE)
        )
        out = out.append_column("error", pa.array(errors, pa.string()))
        return out
