"""The flagship pipeline: read -> one cascade task per batch -> write.

Ray-Data-first shape (SURVEY.md §7.1), three operators per wave:

    ray.data.read_parquet(corpus, columns=[...],      # prune at the read;
                          override_num_blocks=n)      # n from the footers
      .map_batches(_cascade_task, concurrency=N,      # part id, part filter,
                   batch_size=B,                      # cascade + scrub,
                   batch_format="pyarrow")            # lang codes, post_filter
      .write_datasink(_CountingSink(out))             # part=N/ layout + counters

The sink lives in ``state/checkpoint.py``: it writes the hive layout on
``part`` that resume commits part by part, and returns each part's
manifest counters from the write itself.

Everything between the read and the write runs inside ``_cascade_task``:
Ray fuses two task operators only when their concurrency caps match, so
every uncapped ``map_batches`` before or after the capped scorer would be
its own operator, with its own tasks and an object-store hop of the whole
batch.  For the same reason the task drops the raw ``content`` column
after the scrub: the write gets labels plus scrubbed text, and the input
text never crosses into it.

The cascade runs as plain tasks over a per-worker-process model cache
(``_cascade_task``), the analog of the reference's lazy per-process
Whisper singleton (detector.py:20-47).  Ray reuses task worker processes
across Dataset executions, so a checkpointed run builds the model at most
once per worker process per Ray session, not once per actor per wave.

Partitioning: ``part = crc32(repo) % num_parts`` — the repo-hash
repartition mandated by the north rule to break mega-repo skew (the
reference's analog is node ownership by job-id prefix, cluster/
router.py:8-35; here the hash spreads one mega-repo's files over all
partitions because the unit of work is the FILE row, while the partition
id keyed on repo keeps output/manifest layout stable).  crc32 stands in
for xxhash64 (not in this sandbox); it is only a bucket id, never a
content fingerprint.

Read blocks: ``wave_read_blocks`` sizes a wave's read from the parquet
footers to one block per scorer batch (``ceil(rows / batch_size)``).
Ray's default plan splits each file into several small blocks, which the
scorer re-bundles into more and shorter tasks: on a 12 x 1,000-row wave
the default plan gave 48 blocks and 10 scorer tasks, the footer count 12
blocks and 6 tasks.

Everything streams: no materialize(), no driver-side row loops; the only
full-dataset consumption is the final ``write_datasink`` (a checkpoint
wave) or ``iter_batches`` / ``write_parquet`` in the caller.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.classifier import TrigramLidModel
from ..stages.cascade import CascadeScorer

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]
DEFAULT_NUM_PARTS = 64          # ~4-8x cores at test scale; a knob at cluster scale
DEFAULT_BATCH_SIZE = 1024


def repo_partition_ids(
    repos: pa.ChunkedArray | pa.Array,
    num_parts: int,
    paths: pa.ChunkedArray | pa.Array | None = None,
    salt: int = 1,
) -> pa.Array:
    """Vectorized part id per row: crc32 over the batch's few UNIQUE repo
    strings, scattered back through the dictionary indices (a batch holds
    rows from few repos, so the Python loop is over uniques, not rows).

    ``salt > 1`` splits each repo across up to ``salt`` consecutive
    partitions using a path sub-hash — the mega-repo mitigation of
    SURVEY.md §7.5.4: COMPUTE is row-parallel regardless (the part id is
    just a column), but without salting one mega-repo makes one
    checkpoint partition hold its whole share, so a crash loses that much
    work.  The id stays a pure function of the row key either way, so
    resume stays idempotent.  A null repo or path hashes as ``""``."""
    repos = pc.fill_null(repos, "")
    if isinstance(repos, pa.ChunkedArray):
        repos = repos.combine_chunks()
    enc = repos.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    base = np.array(
        [zlib.crc32(u.encode("utf-8")) for u in uniq], dtype=np.int64
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    if salt <= 1 or paths is None:
        return pa.array((base[idx] % num_parts).astype(np.int32), pa.int32())
    paths = pc.fill_null(paths, "")
    sub = np.fromiter(
        (zlib.crc32(p.encode("utf-8")) % salt for p in paths.to_pylist()),
        dtype=np.int64,
        count=len(paths),
    )
    return pa.array(((base[idx] + sub) % num_parts).astype(np.int32), pa.int32())


def add_partition(
    batch: pa.Table, num_parts: int = DEFAULT_NUM_PARTS, salt: int = 1
) -> pa.Table:
    return batch.append_column(
        "part",
        repo_partition_ids(batch["repo"], num_parts, batch["path"], salt),
    )


def read_corpus(path: str | list[str], parallelism: int | None = None) -> ray.data.Dataset:
    """Column-pruned read of the (repo, path, commit, lang, content) table."""
    kwargs = {}
    if parallelism:
        kwargs["override_num_blocks"] = parallelism
    return ray.data.read_parquet(path, columns=CORPUS_COLUMNS, **kwargs)


def wave_read_blocks(files: list[str], batch_size: int) -> int:
    """Read blocks for one wave over ``files``: one per scorer batch of the
    rows the parquet footers count (no data is read), at least one.  More
    blocks could not give more scorer tasks: ``map_batches`` joins blocks
    until a task holds ``batch_size`` rows."""
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    return max(1, -(-rows // batch_size))


def build_pipeline(
    ds: ray.data.Dataset,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    *,
    num_parts: int = DEFAULT_NUM_PARTS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    concurrency: int | tuple[int, int] | None = None,
    parts_filter: set[int] | None = None,
    drop_content: bool = True,
    salt: int = 1,
    live_metrics: bool = False,
    model_factory=None,
    post_filter=None,
) -> ray.data.Dataset:
    """Lazy Dataset: one ``map_batches(_cascade_task)`` that computes the
    partition id, keeps only the rows of ``parts_filter`` (resume waves),
    runs the cascade with scrub over a per-process model, formats the
    language codes and applies ``post_filter`` (an optional pyarrow
    ``Table -> Table`` callable, e.g. the cross-ingest dedup anti-filter)
    last.  All of it runs inside the one scorer task.  Nothing executes
    until consumed.

    A row of the output holds the input key columns (``repo``, ``path``,
    ``commit``, ``lang``), the labels, ``part`` and the scrub columns
    (``scrubbed_content``, ``content_sha256``, ``snippet``, the flags),
    never the input text: the task drops ``content`` after the scrub, so
    the raw text never crosses into the write.  ``drop_content=False``
    keeps it, for a caller that reads the raw text downstream.

    ``concurrency`` caps the number of concurrent scorer tasks, i.e. the
    cores the cascade may use; for a ``(min, max)`` tuple the cap is
    ``max``.  ``None`` means ``_default_pool_size()``.

    ``model_factory``: the pluggable real-LID-model seam — a picklable
    zero-arg callable (module-level callable or ``functools.partial``)
    returning any object with the ``classify / classify_full /
    forced_choice`` interface; called at most once per worker process.
    Default: the deterministic trigram stand-in.  See
    ``functions/lid_adapters.py`` for the contract and the fastText-lid.176
    adapter.

    ``live_metrics=True`` has every scorer task count its gate decisions
    into the shared named counter actor (``state/live_metrics.py``) so
    they can be scraped DURING a run — the runtime Prometheus exposition
    analog.  Off by default: the committed-manifest rollup in
    ``state/metrics.py`` is the post-hoc source of truth.
    """
    metrics = None
    if live_metrics:
        # create (or look up) the named counter actor DRIVER-side, so its
        # keepalive handle outlives the run, and hand this run's handle to
        # the tasks: a handle cached in a worker could outlive the actor
        from ..state.live_metrics import get_or_create

        metrics = get_or_create()

    parts = None
    if parts_filter is not None:
        parts = np.array(sorted(parts_filter), dtype=np.int32)
    return ds.map_batches(
        _cascade_task,
        fn_kwargs={
            "cfg": cfg, "num_parts": num_parts, "salt": salt, "parts": parts,
            "drop_content": drop_content, "post_filter": post_filter,
            "metrics": metrics, "model_factory": model_factory,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=scorer_cap(concurrency),
    )


def _format_lang_codes(batch: pa.Table, fmt: str) -> pa.Table:
    """Final-projection language-code formatting (M9 / LANG_CODE_FORMAT
    analog, reference config.py:53-61, languages.py:35-47): applied through
    the dictionary of the encoded column, so the per-row work is an index
    take, not a Python loop."""
    from ..functions.languages import to_code

    col = batch["language"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    mapped = pa.array([to_code(v, fmt) for v in enc.dictionary.to_pylist()])
    out = pa.DictionaryArray.from_arrays(enc.indices, mapped).cast(pa.string())
    idx = batch.schema.get_field_index("language")
    return batch.set_column(idx, "language", out)


_MODELS: dict = {}


def _process_model(model_factory=None):
    """This worker process's model for ``model_factory``, built on first
    use.  The cache keys on the factory alone, so scorers for different
    configs share one model.  Module-level callables and functools.partial
    unpickle to equal keys; a closure or lambda unpickles to a new object
    per task and would defeat the cache — pass a named callable."""
    key = model_factory
    if isinstance(model_factory, functools.partial):
        key = (model_factory.func, model_factory.args,
               tuple(sorted(model_factory.keywords.items())))
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = (model_factory or TrigramLidModel)()
    return model


def _cascade_task(
    batch: pa.Table, cfg: PipelineConfig, num_parts: int = DEFAULT_NUM_PARTS,
    salt: int = 1, parts: np.ndarray | None = None, drop_content: bool = True,
    post_filter=None, metrics=None, model_factory=None,
) -> pa.Table:
    """A wave's whole per-batch work as one stateless task: the part id,
    the part filter (``parts``, sorted int32 ids to keep; None keeps all),
    a scrubbing ``CascadeScorer`` over this process's cached model (it
    drops ``content`` unless ``drop_content`` is False), the language-code
    projection and ``post_filter``.  ``metrics`` is the
    current run's live-metrics actor handle (or None); the batch's gate
    decisions are sent to it fire-and-forget."""
    batch = add_partition(batch, num_parts=num_parts, salt=salt)
    if parts is not None:
        batch = batch.filter(pc.is_in(batch["part"], value_set=pa.array(parts)))
    model = _process_model(model_factory)
    out = CascadeScorer(
        cfg, scrub=True, drop_content=drop_content,
        model_factory=lambda: model,
    )(batch)
    if metrics is not None:
        counts = pc.value_counts(out["gate_decision"])
        metrics.inc.remote(dict(zip(
            counts.field("values").to_pylist(),
            counts.field("counts").to_pylist(),
        )))
    if cfg.lang_code_format != "iso639-1":
        out = _format_lang_codes(out, cfg.lang_code_format)
    if post_filter is not None:
        out = post_filter(out)
    return out


def scorer_cap(concurrency: int | tuple[int, int] | None) -> int:
    """The most scorer tasks a ``concurrency`` argument lets run at once:
    ``None`` means ``_default_pool_size()``, a ``(min, max)`` tuple its
    ``max``."""
    if concurrency is None:
        return _default_pool_size()
    if isinstance(concurrency, tuple):
        return concurrency[1]
    return concurrency


def _default_pool_size() -> int:
    """Cap on concurrent cascade tasks: ~3/4 of the cluster's CPUs.
    Giving the stage every CPU starves the read and write operators — on
    32 CPUs: conc=30 -> 12.4s, conc=24 -> 8.0s for the same 500k-row job
    (measured when the scorer ran in an actor pool)."""
    import ray

    try:
        n = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    except Exception:
        n = 4
    return max(2, n - max(2, n // 4))
