"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in langfilter_ray) calls ray.init()/ray.shutdown().

- ``entry()``       — flagship quality-filter pipeline on a deterministic
                      1k-row corpus (BASELINE.json input_hint shape).
- ``queries()``     — one callable per implemented operator/pipeline
                      (SURVEY.md §2 + training-data additions).
- ``oracle_sql()``  — DuckDB equivalents for every SQL-expressible query;
                      the flagship cascade, MinHash/SimHash/LSH and the
                      fake-decode stage are rows-only by nature (stateful
                      classifier / approximate / stubbed operators).
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

    # The driver's CORRECTNESS check covers only the FIRST 50 entries
    # (dict order), so every one of them is oracle-backed except the three
    # rows-only entries that have never had a driver row.  Exactly ONE
    # literal entry per query (tests/test_operators.py asserts both).
    return {
        # --- SURVEY-mapped job-table queries (A1-A4, O1-O4, J3) ------------
        "status_counts": relational.status_counts,
        "event_type_by_bucket": relational.event_type_by_bucket,
        "recent_window_count": relational.recent_window_count,
        "top50_recent": relational.top50_recent,
        "events_filtered_sorted": relational.events_filtered_sorted,
        "revenue_by_nation": relational.revenue_by_nation,
        # --- rows-only by nature, never driver-checked ----------------------
        "kmeans_fit": similarity.kmeans_fit,
        "decode_bmp": multimodal.decode_bmp,
        "corpus_training_manifest": reports.corpus_training_manifest,
        # --- oracle-backed training-data operators -------------------------
        "mix_rebalance": text_analysis.mix_rebalance,
        "source_quota_sample": text_analysis.source_quota_sample,
        "weighted_median_chars": text_analysis.weighted_median_chars,
        "percentile_rank_chars": text_analysis.percentile_rank_chars,
        "spearman_length_tokens": text_analysis.spearman_length_tokens,
        "source_token_quota": text_analysis.source_token_quota,
        "label_quant_gram": similarity.label_quant_gram,
        "vocab_growth": text_analysis.vocab_growth,
        "source_token_divergence": text_analysis.source_token_divergence,
        "ngram_novelty": text_analysis.ngram_novelty,
        "dup_rate_by_source": dedup.dup_rate_by_source,
        "source_simpson_diversity": text_analysis.source_simpson_diversity,
        "embedding_top_eigval": similarity.embedding_top_eigval,
        "gopher_quality": text_analysis.gopher_quality,
        "token_counts": text_analysis.token_counts,
        "langid_heuristic": text_analysis.langid_heuristic,
        "payload_stats": multimodal.payload_stats,
        "shared_ngram_docs": text_analysis.shared_ngram_docs,
        "inverted_index_stats": text_analysis.inverted_index_stats,
        "tfidf_top_terms": text_analysis.tfidf_top_terms,
        "doc_stats_by_lang": text_analysis.doc_stats_by_lang,
        "char_class_profile": text_analysis.char_class_profile,
        "stopword_stats": text_analysis.stopword_stats,
        "similar_pairs_topk": dedup.similar_pairs_topk,
        "domain_mix_weights": text_analysis.domain_mix_weights,
        "label_centroids": similarity.label_centroids,
        "dup_token_stats": text_analysis.dup_token_stats,
        "chars_percentiles": text_analysis.chars_percentiles,
        "embedding_quant_stats": similarity.embedding_quant_stats,
        "vocab_stats": text_analysis.vocab_stats,
        "vocab_overlap": text_analysis.vocab_overlap,
        "lang_source_agg": text_analysis.lang_source_agg,
        "translate_documents": reports.translate_documents,
        "dedup_exact": dedup.dedup_exact,
        "quality_score": text_analysis.quality_score,
        "fingerprint": text_analysis.fingerprint,
        "scrub_documents": text_analysis.scrub_documents,
        "ann_topk": similarity.ann_topk,
        "token_counts_bpe": text_analysis.token_counts_bpe,
        "lang_distribution": text_analysis.lang_distribution,
        "top_tokens": text_analysis.top_tokens,
        "heavy_hitter_tokens": text_analysis.heavy_hitter_tokens,
        "stratified_sample": text_analysis.stratified_sample,
        "top_bigrams": text_analysis.top_bigrams,
        "top_docs_per_lang": text_analysis.top_docs_per_lang,
        "distinct_sources": text_analysis.distinct_sources,
        "sample_docs": text_analysis.sample_docs,
        "train_val_split": text_analysis.train_val_split,
        "dedup_embedding": dedup.dedup_embedding,
        "pack_sequences": text_analysis.pack_sequences,
        "mix_downsample": text_analysis.mix_downsample,
        "shuffle_order": text_analysis.shuffle_order,
        "length_rank_tiers": text_analysis.length_rank_tiers,
        "training_manifest": text_analysis.training_manifest,
        "weighted_sample": text_analysis.weighted_sample,
        "length_trim_by_lang": text_analysis.length_trim_by_lang,
        "span_dedup": dedup.span_dedup,
        "typo_pairs": dedup.typo_pairs,
        "zscore_by_lang": text_analysis.zscore_by_lang,
        "sentence_stats": text_analysis.sentence_stats,
        "length_token_contingency": text_analysis.length_token_contingency,
        "sources_per_lang": text_analysis.sources_per_lang,
        "length_gini_by_source": text_analysis.length_gini_by_source,
        "dup_cluster_hist": dedup.dup_cluster_hist,
        "hapax_by_source": text_analysis.hapax_by_source,
        "small_group_census": text_analysis.small_group_census,
        "cm_sketch_tokens": text_analysis.cm_sketch_tokens,
        "dict_match_census": text_analysis.dict_match_census,
        "embedding_closest_pair": similarity.embedding_closest_pair,
        # --- rows-only by design (stateful / approximate / stubbed) ---------
        "multimodal_decode": multimodal.multimodal_decode,
        "multimodal_resize": multimodal.multimodal_resize,
        "frame_sample": multimodal.frame_sample,
        "decode_pgm": multimodal.decode_pgm,
        "decode_wav": multimodal.decode_wav,
        "decontaminate_overlap": text_analysis.decontaminate_overlap,
        "doc_perplexity": text_analysis.doc_perplexity,
        "winnow_fingerprints": text_analysis.winnow_fingerprints,
        "dedup_minhash": dedup.minhash_candidates,
        # cached wrapper: components/survivors consume the same verified
        # pair set, so one minhash->jaccard chain serves all three queries
        "dedup_jaccard": dedup._verified_pairs,
        "dedup_simhash": dedup.dedup_simhash,
        "simhash_candidates": dedup.simhash_candidates,
        "dedup_components": dedup.dedup_components,
        "dedup_survivors": dedup.dedup_survivors,
        "dedup_embedding_ivf": dedup.dedup_embedding_ivf,
        "ann_lsh": similarity.ann_lsh,
        "ann_ivf": similarity.ann_ivf,
        "embed_documents": similarity.embed_documents,
        # flagship cascade (stateful classifier -> rows-only check)
        "translate_kept_snippets": reports.translate_kept_snippets,
        "quality_filter_labels": reports.quality_filter_labels,
        "gate_decision_report": reports.gate_decision_report,
        "repo_quality_report": reports.repo_quality_report,
        "corpus_clean": reports.corpus_clean,
        # iterative driver-state ops like kmeans_fit
        "bpe_train": text_analysis.bpe_train,
        "bpe_encode": text_analysis.bpe_encode,
    }


def oracle_sql() -> dict[str, str]:
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
