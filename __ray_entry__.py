"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in langfilter_ray) calls ray.init()/ray.shutdown().

- ``entry()``       — flagship quality-filter pipeline on a deterministic
                      1k-row corpus (BASELINE.json input_hint shape).
- ``queries()``     — the driver surface: the flagship cascade, its
                      layer views and the training-data operators
                      (SURVEY.md §2 + training-data additions), at most
                      50 entries so every one is hash-checked.
- ``oracle_sql()``  — DuckDB equivalents for every SQL-expressible
                      ``queries()`` entry; the flagship cascade,
                      MinHash/SimHash/IVF, model scoring and the WAV
                      decoder are rows-only by nature (stateful classifier
                      / approximate / binary operators).

``all_queries()`` and ``all_oracle_sql()`` add the package's other
operators (length, rank and vocabulary statistics, sketches, embedding
statistics and near-duplicate variants).  They stay outside the driver
surface and are checked by the test suite alone.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from langfilter_ray.pipelines.reports import quality_filter_labels

    return quality_filter_labels("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from langfilter_ray.pipelines import (
        dedup,
        multimodal,
        relational,
        reports,
        similarity,
        text_analysis,
    )

    # Exactly ONE literal entry per query (tests/test_operators.py asserts
    # it, and that the dict fits the driver's 50-entry correctness check).
    return {
        # --- SURVEY-mapped job-table queries (A1-A4, O1-O4, J3) ------------
        "status_counts": relational.status_counts,
        "event_type_by_bucket": relational.event_type_by_bucket,
        "recent_window_count": relational.recent_window_count,
        "top50_recent": relational.top50_recent,
        "events_filtered_sorted": relational.events_filtered_sorted,
        "revenue_by_nation": relational.revenue_by_nation,
        # --- flagship cascade and its reports ------------------------------
        "quality_filter_labels": reports.quality_filter_labels,
        "gate_decision_report": reports.gate_decision_report,
        "repo_quality_report": reports.repo_quality_report,
        "corpus_clean": reports.corpus_clean,
        "translate_documents": reports.translate_documents,
        "corpus_training_manifest": reports.corpus_training_manifest,
        # --- cascade-layer views -------------------------------------------
        "token_counts": text_analysis.token_counts,
        "stopword_stats": text_analysis.stopword_stats,
        "langid_heuristic": text_analysis.langid_heuristic,
        "quality_score": text_analysis.quality_score,
        "gopher_quality": text_analysis.gopher_quality,
        "scrub_documents": text_analysis.scrub_documents,
        "doc_perplexity": text_analysis.doc_perplexity,
        "lang_distribution": text_analysis.lang_distribution,
        # --- dedup ---------------------------------------------------------
        "dedup_exact": dedup.dedup_exact,
        "dedup_minhash": dedup.minhash_candidates,
        # cached wrapper: components/survivors consume the same verified
        # pair set, so one minhash->jaccard chain serves all three queries
        "dedup_jaccard": dedup._verified_pairs,
        "dedup_components": dedup.dedup_components,
        "dedup_survivors": dedup.dedup_survivors,
        "simhash_candidates": dedup.simhash_candidates,
        "span_dedup": dedup.span_dedup,
        "dup_rate_by_source": dedup.dup_rate_by_source,
        "dedup_embedding": dedup.dedup_embedding,
        # --- embeddings ----------------------------------------------------
        "embed_documents": similarity.embed_documents,
        "ann_topk": similarity.ann_topk,
        "ann_ivf": similarity.ann_ivf,
        "kmeans_fit": similarity.kmeans_fit,
        "label_centroids": similarity.label_centroids,
        # --- training data -------------------------------------------------
        "decontaminate_overlap": text_analysis.decontaminate_overlap,
        "heavy_hitter_tokens": text_analysis.heavy_hitter_tokens,
        "ngram_novelty": text_analysis.ngram_novelty,
        "mix_rebalance": text_analysis.mix_rebalance,
        "source_quota_sample": text_analysis.source_quota_sample,
        "mix_downsample": text_analysis.mix_downsample,
        "stratified_sample": text_analysis.stratified_sample,
        "train_val_split": text_analysis.train_val_split,
        "pack_sequences": text_analysis.pack_sequences,
        "shuffle_order": text_analysis.shuffle_order,
        "length_rank_tiers": text_analysis.length_rank_tiers,
        "training_manifest": text_analysis.training_manifest,
        "bpe_train": text_analysis.bpe_train,
        "bpe_encode": text_analysis.bpe_encode,
        # --- media ---------------------------------------------------------
        "decode_wav": multimodal.decode_wav,
        "payload_stats": multimodal.payload_stats,
    }


def all_queries() -> dict[str, Callable[[str], Any]]:
    """``queries()`` plus the operators kept outside the driver surface."""
    from langfilter_ray.pipelines import dedup, similarity, text_analysis

    return {
        **queries(),
        # --- text statistics -----------------------------------------------
        "weighted_median_chars": text_analysis.weighted_median_chars,
        "percentile_rank_chars": text_analysis.percentile_rank_chars,
        "spearman_length_tokens": text_analysis.spearman_length_tokens,
        "source_token_quota": text_analysis.source_token_quota,
        "vocab_growth": text_analysis.vocab_growth,
        "source_token_divergence": text_analysis.source_token_divergence,
        "source_simpson_diversity": text_analysis.source_simpson_diversity,
        "shared_ngram_docs": text_analysis.shared_ngram_docs,
        "inverted_index_stats": text_analysis.inverted_index_stats,
        "tfidf_top_terms": text_analysis.tfidf_top_terms,
        "doc_stats_by_lang": text_analysis.doc_stats_by_lang,
        "char_class_profile": text_analysis.char_class_profile,
        "domain_mix_weights": text_analysis.domain_mix_weights,
        "dup_token_stats": text_analysis.dup_token_stats,
        "chars_percentiles": text_analysis.chars_percentiles,
        "vocab_stats": text_analysis.vocab_stats,
        "vocab_overlap": text_analysis.vocab_overlap,
        "lang_source_agg": text_analysis.lang_source_agg,
        "fingerprint": text_analysis.fingerprint,
        "token_counts_bpe": text_analysis.token_counts_bpe,
        "top_tokens": text_analysis.top_tokens,
        "top_bigrams": text_analysis.top_bigrams,
        "top_docs_per_lang": text_analysis.top_docs_per_lang,
        "distinct_sources": text_analysis.distinct_sources,
        "sample_docs": text_analysis.sample_docs,
        "weighted_sample": text_analysis.weighted_sample,
        "zscore_by_lang": text_analysis.zscore_by_lang,
        "sentence_stats": text_analysis.sentence_stats,
        "length_token_contingency": text_analysis.length_token_contingency,
        "sources_per_lang": text_analysis.sources_per_lang,
        "length_gini_by_source": text_analysis.length_gini_by_source,
        "hapax_by_source": text_analysis.hapax_by_source,
        "small_group_census": text_analysis.small_group_census,
        "cm_sketch_tokens": text_analysis.cm_sketch_tokens,
        "dict_match_census": text_analysis.dict_match_census,
        # --- embedding statistics ------------------------------------------
        "label_quant_gram": similarity.label_quant_gram,
        "embedding_top_eigval": similarity.embedding_top_eigval,
        "embedding_quant_stats": similarity.embedding_quant_stats,
        "embedding_closest_pair": similarity.embedding_closest_pair,
        # --- near-duplicate variants ---------------------------------------
        "dup_cluster_hist": dedup.dup_cluster_hist,
        "dedup_embedding_ivf": dedup.dedup_embedding_ivf,
    }


def all_oracle_sql() -> dict[str, str]:
    """DuckDB equivalents for every SQL-expressible ``all_queries()`` entry."""
    from langfilter_ray.pipelines import (
        dedup,
        multimodal,
        relational,
        reports,
        similarity,
        text_analysis,
    )

    out: dict[str, str] = {}
    for mod in (
        text_analysis,
        dedup,
        similarity,
        relational,
        multimodal,
        reports,
    ):
        out.update(mod.ORACLES)
    return out


def oracle_sql() -> dict[str, str]:
    names = queries()
    return {k: v for k, v in all_oracle_sql().items() if k in names}
