"""Composed training-data preparation pipeline — the end-to-end shape
a 100 TB corpus run takes, chaining the engine's operators:

    read documents
      → boilerplate strip (text/link-density blocks)
      → annotate: language ID + quality score + token count
      → filter: keep en-classified docs with alpha_ratio ≥ 0.6
      → exact dedup (hash-partition keep-first, broadcast survivors)
      → emit (doc_id, content_text, n_tokens)

Every step is the same kernel the standalone queries use; the whole
chain is one streaming Dataset (annotate+filter fuse into one
map_batches; the dedup survivor set is a small broadcast — at corpus
scale it becomes the hash-partitioned keep-first groupby of
``stages/dedup.py`` followed by a bucket semi-join).

The pipeline is fully SQL-expressible, so the driver verifies the
composition end-to-end, not just the pieces.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import exchange
from ..stages.boilerplate import html_tokenize, strip_boilerplate
from ..stages.textstats import _LANG_PATTERNS, _LANG_PRIORITY

_MIN_ALPHA_RATIO = 0.6


def q_training_prep(sf_dir: str, budget_bytes: int | None = None):
    """Default prep path with a measured broadcast/shuffle crossover:
    the exact-dedup survivor-id set (≤ one int64 per corpus row,
    upper-bounded from the parquet footer) is collected to the driver
    and broadcast while it fits the heap budget — one shuffle total;
    past the budget the pipeline switches itself to the bucket
    semi-join twin (:func:`q_training_prep_shuffle`), where the
    survivor set never touches the driver. The switch is exercised
    both ways in ``test_new_ops.py``; both shapes share one oracle."""
    import ray

    from ..core.util import BROADCAST_BUDGET_BYTES, broadcast_build_fits
    from ..io.sources import read_parquet_clean

    if not broadcast_build_fits(
        f"{sf_dir}/documents.parquet",
        budget_bytes=BROADCAST_BUDGET_BYTES if budget_bytes is None else budget_bytes,
    ):
        return q_training_prep_shuffle(sf_dir)

    n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=n_blocks,
    )

    # Exact-dedup survivors: min doc_id per content fingerprint. The
    # corpus's id→fp pairs are tiny next to the texts; the survivor ids
    # broadcast to the filter stage (semi-join pattern).
    def fp_batch(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5((t or "").encode()).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps)})

    from ray.data.aggregate import Min

    survivors_df = (
        ds.map_batches(fp_batch, batch_format="pyarrow", batch_size=None)
        .groupby("fp")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])  # ids only — the fp strings stay distributed
        .to_pandas()
    )
    survivor_arr = np.sort(survivors_df["doc_id"].to_numpy(dtype=np.int64))

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        content = [strip_boilerplate(html_tokenize(i, t)) for i, t in zip(ids, texts)]
        carr = pa.array(content, pa.string())
        low = pc.utf8_lower(carr)
        scores = {
            lang: pc.cast(pc.count_substring_regex(low, pat), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            for lang, pat in _LANG_PATTERNS.items()
        }
        n = len(ids)
        lang = np.full(n, "und", dtype=object)
        best = np.zeros(n, dtype=np.int64)
        for lg in reversed(_LANG_PRIORITY):
            s = scores[lg]
            take = s >= best
            lang[take & (s > 0)] = lg
            best = np.maximum(best, s)
        n_chars = pc.cast(pc.utf8_length(carr), pa.int64()).to_numpy(zero_copy_only=False)
        n_alpha = pc.cast(
            pc.count_substring_regex(carr, "[A-Za-z]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        ratio = n_alpha / np.maximum(n_chars, 1)
        n_tokens = pc.cast(
            pc.count_substring_regex(carr, r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        id_arr = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(survivor_arr, id_arr)
        pos = np.clip(pos, 0, max(len(survivor_arr) - 1, 0))
        is_survivor = (
            survivor_arr[pos] == id_arr if len(survivor_arr) else np.zeros(len(ids), bool)
        )
        keep = (lang == "en") & (ratio >= _MIN_ALPHA_RATIO) & is_survivor
        return pa.table(
            {
                "doc_id": pa.array(id_arr[keep], pa.int64()),
                "content_text": pa.array([c for c, k in zip(content, keep) if k], pa.string()),
                "n_tokens": pa.array(n_tokens[keep], pa.int64()),
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow", batch_size=None)


def q_training_prep_shuffle(sf_dir: str, n_buckets: int = 32):
    """The prep pipeline's shuffle twin: identical semantics, but the
    exact-dedup survivor set never touches the driver — the
    (fp → min doc_id) aggregate stays a Dataset and joins back to the
    annotated rows with a coarse bucket semi-join (``doc_id % B``).
    This is the shape for 10^12 documents, where the survivor-id set
    no longer fits one process; the broadcast variant
    (:func:`q_training_prep`) wins while it does (no second shuffle).
    """
    import ray

    from ..io.sources import read_parquet_clean

    n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=n_blocks,
    )

    def fp_batch(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5((t or "").encode()).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps)})

    from ray.data.aggregate import Min

    survivors = (
        ds.map_batches(fp_batch, batch_format="pyarrow", batch_size=None)
        .groupby("fp")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )

    def annotate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        content = [strip_boilerplate(html_tokenize(i, t)) for i, t in zip(ids, texts)]
        carr = pa.array(content, pa.string())
        low = pc.utf8_lower(carr)
        scores = {
            lang: pc.cast(pc.count_substring_regex(low, pat), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            for lang, pat in _LANG_PATTERNS.items()
        }
        n = len(ids)
        lang = np.full(n, "und", dtype=object)
        best = np.zeros(n, dtype=np.int64)
        for lg in reversed(_LANG_PRIORITY):
            s = scores[lg]
            take = s >= best
            lang[take & (s > 0)] = lg
            best = np.maximum(best, s)
        n_chars = pc.cast(pc.utf8_length(carr), pa.int64()).to_numpy(zero_copy_only=False)
        n_alpha = pc.cast(
            pc.count_substring_regex(carr, "[A-Za-z]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        ratio = n_alpha / np.maximum(n_chars, 1)
        n_tokens = pc.cast(
            pc.count_substring_regex(carr, r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        id_arr = np.asarray(ids, dtype=np.int64)
        keep = (lang == "en") & (ratio >= _MIN_ALPHA_RATIO)
        return pa.table(
            {
                "doc_id": pa.array(id_arr[keep], pa.int64()),
                "content_text": pa.array(
                    [c for c, k in zip(content, keep) if k], pa.string()
                ),
                "n_tokens": pa.array(n_tokens[keep], pa.int64()),
            }
        )

    annotated = ds.map_batches(annotate, batch_format="pyarrow", batch_size=None)

    # bucket semi-join: annotated rows ⋉ survivor ids on doc_id
    def semi_bucket(rows: pa.Table, keep: pa.Table) -> pa.Table:
        return rows.filter(pc.is_in(rows["doc_id"], value_set=keep["doc_id"].combine_chunks()))

    return exchange(
        [
            (
                annotated,
                "doc_id",
                pa.schema({"doc_id": pa.int64(), "content_text": pa.string(), "n_tokens": pa.int64()}),
            ),
            (survivors, "doc_id", pa.schema({"doc_id": pa.int64()})),
        ],
        semi_bucket,
        n_buckets=n_buckets,
    )


_SQL_TRAINING_PREP = rf"""
WITH content AS (
    SELECT doc_id,
           array_to_string(regexp_extract_all(text, '\S+'), ' ') AS content_text,
           text
    FROM documents
), scored AS (
    SELECT doc_id, content_text,
           CAST(length(regexp_extract_all(lower(content_text), '{_LANG_PATTERNS["en"]}')) AS BIGINT) AS s_en,
           CAST(length(regexp_extract_all(lower(content_text), '{_LANG_PATTERNS["es"]}')) AS BIGINT) AS s_es,
           CAST(length(regexp_extract_all(lower(content_text), '{_LANG_PATTERNS["de"]}')) AS BIGINT) AS s_de,
           CAST(length(regexp_extract_all(lower(content_text), '{_LANG_PATTERNS["fr"]}')) AS BIGINT) AS s_fr,
           CAST(length(regexp_extract_all(content_text, '[A-Za-z]')) AS DOUBLE)
             / GREATEST(length(content_text), 1) AS alpha_ratio,
           CAST(length(regexp_extract_all(content_text, '\S+')) AS BIGINT) AS n_tokens,
           text
    FROM content
)
SELECT doc_id, content_text, n_tokens
FROM scored
WHERE (CASE WHEN s_en = 0 AND s_es = 0 AND s_de = 0 AND s_fr = 0 THEN 'und'
            WHEN s_en >= s_es AND s_en >= s_de AND s_en >= s_fr THEN 'en'
            WHEN s_es >= s_de AND s_es >= s_fr THEN 'es'
            WHEN s_de >= s_fr THEN 'de'
            ELSE 'fr' END) = 'en'
  AND alpha_ratio >= {_MIN_ALPHA_RATIO}
  AND doc_id IN (SELECT MIN(doc_id) FROM documents GROUP BY text)
"""

def q_corpus_prep_v2(sf_dir: str):
    """The round-3 composed hygiene pipeline — PII scrub → Gopher
    quality gate → corpus-wide exact substring dedup → final token
    stats, each stage the registered operator itself (``pii_batch``,
    ``gopher_batch``, ``substring_dedup_ds``), not a re-implementation.
    Demonstrates the composition property the engine is built around:
    per-row stages FUSE (scrub+gate run inside one ``map_batches``
    chain with no barrier), and only the dedup contributes its two
    bucket exchanges — so the composed pipeline's shuffle count equals
    its one shuffling stage's. Output per surviving doc: the deduped
    clean text, final token count, and words removed by dedup. One CTE
    oracle mirrors the whole chain."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.corpus import substring_dedup_ds
    from ..stages.scrub import _docs as scrub_docs
    from ..stages.scrub import gopher_batch, pii_batch

    def scrub_and_gate(batch: pa.Table) -> pa.Table:
        cleaned = pii_batch(batch)
        gate = gopher_batch(cleaned, text_col="clean_text")
        t = pa.table({"doc_id": cleaned["doc_id"], "text": cleaned["clean_text"]})
        return t.filter(pc.equal(gate["keep"], 1))

    survivors = scrub_docs(sf_dir).map_batches(
        scrub_and_gate, batch_format="pyarrow", batch_size=None
    )
    # scrub+gate only shrinks the corpus, so the source file's footer
    # estimate upper-bounds the pin (core.util.pin_fits gate).
    from ..core.util import parquet_uncompressed_bytes

    deduped = substring_dedup_ds(
        survivors,
        input_bytes_hint=parquet_uncompressed_bytes(f"{sf_dir}/documents.parquet"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(pc.count_substring_regex(batch["text"], r"\S+"), pa.int64())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": batch["text"],
                "n_tokens": n_tok,
                "removed_words": batch["removed_words"],
            }
        )

    return deduped.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def _render_prep_v2_sql() -> str:
    """Compose the oracle from the SAME constant sources the engine
    stages use (scrub thresholds/regexes, corpus ``substring_dedup_ctes``
    — the single maintained copy of the dedup CTE chain), so tuning
    any stage constant keeps engine and oracle in lockstep."""
    from ..stages.corpus import substring_dedup_ctes
    from ..stages.scrub import (
        _MAX_MEAN_WLEN_MILLI,
        _MAX_WORDS,
        _MIN_MEAN_WLEN_MILLI,
        _MIN_STOPWORD_HITS,
        _MIN_WORDS,
        _PII_EVERY,
        _RE_EMAIL,
        _RE_PHONE,
        _RE_SSN,
        _STOPWORD_SQL,
    )

    survivors = rf"""
    SELECT doc_id, text FROM (
        SELECT doc_id, text,
               CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
               CAST(length(regexp_replace(text, '\s', '', 'g')) AS BIGINT) AS n_chars,
               {_STOPWORD_SQL} AS n_stop
        FROM (
            SELECT doc_id,
                   regexp_replace(
                       regexp_replace(
                           regexp_replace(text, '{_RE_EMAIL}', '[EMAIL]', 'g'),
                           '{_RE_SSN}', '[SSN]', 'g'),
                       '{_RE_PHONE}', '[PHONE]', 'g') AS text
            FROM (
                SELECT doc_id,
                       text || CASE WHEN doc_id % {_PII_EVERY} = 0
                                    THEN printf(' contact u%d@example.com ssn 123-45-%04d phone 555-%04d',
                                                doc_id, doc_id % 10000, doc_id % 10000)
                                    ELSE '' END AS text
                FROM documents
            )
        )
    )
    WHERE n_words BETWEEN {_MIN_WORDS} AND {_MAX_WORDS}
      AND (CASE WHEN n_words > 0 THEN (1000 * n_chars) // n_words ELSE 0 END)
          BETWEEN {_MIN_MEAN_WLEN_MILLI} AND {_MAX_MEAN_WLEN_MILLI}
      AND n_stop >= {_MIN_STOPWORD_HITS}
    """
    return substring_dedup_ctes(survivors) + """
SELECT w.doc_id,
       COALESCE(r.text, '') AS text,
       CAST(COALESCE(r.kept_words, 0) AS BIGINT) AS n_tokens,
       CAST(len(w.w) - COALESCE(r.kept_words, 0) AS BIGINT) AS removed_words
FROM words w LEFT JOIN rebuilt r USING (doc_id)
"""


def q_corpus_prep_v3(sf_dir: str, n_buckets: int = 32):
    """The round-5 MODEL-BASED selection pipeline — what a mix curator
    runs AFTER hygiene (v2): CCNet perplexity bucketing drops each
    language's tail third, then the DSIR importance gate keeps only
    documents that look like the target slice (weight > 0). Both
    stages are the registered operators themselves
    (:func:`~pdf_parser_ray.stages.dsir.q_ccnet_buckets`,
    :func:`~pdf_parser_ray.stages.dsir.q_dsir_weights`) — the
    composition property again: each trains its model on the FULL
    corpus exactly as standalone (so the oracle composes the two
    published SQLs by reference), the gates are vectorized expression
    filters, and the only new plumbing is ONE doc-bucket hash join
    merging the two per-doc score streams. Output per surviving doc:
    language, NLL + bucket, DSIR weight, token count."""
    from ..stages.dsir import q_ccnet_buckets, q_dsir_weights

    cc = q_ccnet_buckets(sf_dir).filter(expr="ppl_bucket < 2")
    dw = q_dsir_weights(sf_dir).filter(expr="dsir_micro > 0")

    def merge(left: pa.Table, right: pa.Table) -> pa.Table:
        j = left.select(["doc_id", "lang", "nll_micro", "ppl_bucket"]).to_pandas().merge(
            right.select(["doc_id", "dsir_micro", "n_tokens"]).to_pandas(), on="doc_id"
        )
        return pa.table(
            {
                "doc_id": pa.array(j["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "lang": pa.array(j["lang"].tolist(), pa.string()),
                "nll_micro": pa.array(
                    j["nll_micro"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "ppl_bucket": pa.array(
                    j["ppl_bucket"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "dsir_micro": pa.array(
                    j["dsir_micro"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "n_tokens": pa.array(
                    j["n_tokens"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    cc_schema = pa.schema(
        {
            "doc_id": pa.int64(),
            "lang": pa.string(),
            "n_tokens": pa.int64(),
            "nll_micro": pa.int64(),
            "ppl_bucket": pa.int64(),
        }
    )
    dw_schema = pa.schema({"doc_id": pa.int64(), "n_tokens": pa.int64(), "dsir_micro": pa.int64()})
    return exchange(
        [(cc, "doc_id", cc_schema), (dw, "doc_id", dw_schema)], merge, n_buckets=n_buckets
    )


def _render_prep_v3_sql() -> str:
    from ..stages.dsir import _SQL_CCNET, _SQL_DSIR

    return f"""
SELECT cc.doc_id, cc.lang, cc.nll_micro, cc.ppl_bucket,
       dw.dsir_micro, dw.n_tokens
FROM (SELECT * FROM ({_SQL_CCNET}) c WHERE ppl_bucket < 2) cc
JOIN (SELECT * FROM ({_SQL_DSIR}) d WHERE dsir_micro > 0) dw
  USING (doc_id)
"""


QUERIES = {
    "training_prep": q_training_prep,
    "training_prep_shuffle": q_training_prep_shuffle,
    "corpus_prep_v2": q_corpus_prep_v2,
    "corpus_prep_v3": q_corpus_prep_v3,
}
ORACLE_SQL = {
    "training_prep": _SQL_TRAINING_PREP,
    "training_prep_shuffle": _SQL_TRAINING_PREP,
    "corpus_prep_v2": _render_prep_v2_sql(),
    "corpus_prep_v3": _render_prep_v3_sql(),
}
