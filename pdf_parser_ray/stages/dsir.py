"""Data-selection operators for training-mix curation: DSIR
importance weights and CCNet-style perplexity bucketing.

Two published selection recipes a 100 TB pretraining pipeline runs
between cleaning and sampling:

* **DSIR** (Xie et al. 2023, "Data Selection for Language Models via
  Importance Resampling") scores every raw document by the
  log-likelihood ratio of a TARGET feature distribution over the RAW
  one — documents that look like the target domain get positive
  weight and are sampled preferentially. Here the features are
  unigram terms over a shared top-V vocabulary plus one OOV bucket
  (the paper's hashed n-gram buckets with the hash replaced by the
  exact term identity, which keeps the oracle lossless), and the
  target is the ``lang == 'en'`` slice of the corpus.
* **CCNet** (Wenzek et al. 2020) buckets each document into
  head/middle/tail THIRDS of its language's perplexity distribution;
  downstream mixes keep head+middle and drop or down-weight tail.
  The engine reuses the unigram-LM NLL scorer
  (:func:`~pdf_parser_ray.stages.textstats.lm_score_ds`) and assigns
  the bucket by exact per-language rank — no quantile approximation,
  so the APPROXIMATE recipe still carries a hash-exact oracle.

Exactness discipline is the module standard: every ln is the shared
fixed IEEE polynomial (:func:`~pdf_parser_ray.stages.textstats._shared_ln`)
snapped to integer micro-units BEFORE any reduction, so sums are
order-free and DuckDB replays them bit-for-bit.

Reference parity: the reference engine (a single-machine PDF-form
parser) has no corpus-curation layer; these are engine additions for
the LLM-data-pipeline surface (SURVEY.md §2.11 extensions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import combine, exchange
from .textstats import (
    _docs,
    _term_counts,
    _shared_ln_cte,
    lm_score_ds,
    lnm_micro,
    tf_rows_vec,
    _SQL_LM_NLL,
)

_DSIR_V = 24  # top-V raw vocabulary; +1 OOV bucket = the feature space


def q_dsir_weights(
    sf_dir: str,
    vocab_size: int = _DSIR_V,
    n_buckets: int = 32,
    target_lang: str = "en",
):
    """Per-document DSIR importance weight
    ``Σ_f tf_f · (ln p_target(f) − ln p_raw(f))`` over unigram
    features with Laplace +1 smoothing — positive means "looks like
    the target slice", the resampling key of Xie et al. 2023.

    Feature space: the top-``vocab_size`` raw-corpus terms (by
    ``(count DESC, term ASC)`` — deterministic under ties) plus ONE
    out-of-vocabulary bucket holding the remaining mass, so both
    distributions normalize over the same ``V+1`` cells:
    ``p(f) = (c_f + 1) / (T + V + 1)``. The default V (24) sits below
    the synthetic corpus's 31 distinct terms ON PURPOSE: the OOV
    bucket carries real mass in every test run instead of being dead
    code until production.

    Plan (two passes, one term-partitioned exchange):

    1. **Model** — per-batch ``(term, tf, tf·is_target)`` partials →
       ``crc32(term) % B`` groupby (terms are hash-partitioned, so
       per-bucket sums are the GLOBAL per-term counts); each bucket
       emits its totals row + local top-V, the driver folds O(B·V)
       fixed-width rows — never the corpus. Per-feature weight
       ``w = (lnm(ct+1) − lnm(Tt+V+1)) − (lnm(cr+1) − lnm(Tr+V+1))``
       with every ln snapped to integer micro first (order-free).
    2. **Score** — the ``(terms, w, w_oov)`` model rides the object
       store once (``ray.put``); scoring is one shuffle-free pass:
       vectorized tokenize → ``searchsorted`` → per-doc
       ``dsir_micro = Σ tf·w`` — one int64 row per document.

    The SQL oracle replays the identical arithmetic (shared-ln CTEs on
    the four integer argument sets; OOV keyed by the empty string,
    which ``\\S+`` tokens can never be)."""
    import pandas as pd
    import ray

    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    tfv = tf_rows_vec(n_buckets)

    def tf_rows_tgt(batch: pa.Table) -> pa.Table:
        t = tfv(batch)
        # doc_id is unique within a documents batch, so a Series map
        # is a safe (and vectorized) id → is-target lookup
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flags = pc.equal(batch["lang"], target_lang).to_numpy(
            zero_copy_only=False
        )
        fmap = pd.Series(flags.astype(np.int64), index=ids)
        ttf = t["tf"].to_numpy() * fmap.loc[
            t["doc_id"].to_numpy(zero_copy_only=False)
        ].to_numpy()
        return t.append_column("ttf", pa.array(ttf.astype(np.int64), pa.int64()))

    def bucket_model(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = g.groupby("term", sort=False)[["tf", "ttf"]].sum().reset_index()
        tot_r = int(agg["tf"].sum())
        tot_t = int(agg["ttf"].sum())
        top = agg.sort_values(["tf", "term"], ascending=[False, True]).head(
            vocab_size
        )
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate([[1], np.zeros(len(top), dtype=np.int64)]),
                    pa.int64(),
                ),
                "term": pa.array([""] + top["term"].tolist(), pa.string()),
                "cr": pa.array(
                    np.concatenate([[tot_r], top["tf"].to_numpy(dtype=np.int64)]),
                    pa.int64(),
                ),
                "ct": pa.array(
                    np.concatenate([[tot_t], top["ttf"].to_numpy(dtype=np.int64)]),
                    pa.int64(),
                ),
            }
        )

    tf = ds.map_batches(tf_rows_tgt, batch_format="pyarrow", batch_size=None)
    rows = (
        exchange([(tf, "term_bucket")], bucket_model, n_buckets=n_buckets)
        .to_pandas()  # bounded: ≤ B·(V+1) fixed-width rows
    )
    tr = int(rows.loc[rows["kind"] == 1, "cr"].sum())
    tt = int(rows.loc[rows["kind"] == 1, "ct"].sum())
    vocab = (
        rows[rows["kind"] == 0]
        .sort_values(["cr", "term"], ascending=[False, True])
        .head(vocab_size)
        .sort_values("term")
    )
    n_feat = len(vocab) + 1  # vocab cells + the OOV bucket
    cr_oov = tr - int(vocab["cr"].sum())
    ct_oov = tt - int(vocab["ct"].sum())
    ln_tr = lnm_micro(tr + n_feat)
    ln_tt = lnm_micro(tt + n_feat)

    def w_of(ct: int, cr: int) -> int:
        return (lnm_micro(ct + 1) - ln_tt) - (lnm_micro(cr + 1) - ln_tr)

    w = np.array(
        [w_of(int(a), int(b)) for a, b in zip(vocab["ct"], vocab["cr"])],
        dtype=np.int64,
    )
    w_oov = w_of(ct_oov, cr_oov)
    terms = vocab["term"].to_numpy()
    model_ref = ray.put((terms, w, np.int64(w_oov)))

    def score(batch: pa.Table) -> pa.Table:
        terms_s, w_s, w_oov_s = ray.get(model_ref)
        agg = _term_counts(batch)
        tok = agg["term"].to_numpy(zero_copy_only=False)
        if len(terms_s):
            idx = np.clip(np.searchsorted(terms_s, tok), 0, len(terms_s) - 1)
            hit = terms_s[idx] == tok
            tok_w = np.where(hit, w_s[idx], w_oov_s)
        else:
            tok_w = np.full(len(tok), w_oov_s, dtype=np.int64)
        tf = agg["tf"].to_numpy()
        t = pa.table({"d": agg["d"], "n_tokens": tf, "dsir_micro": tf * tok_w})
        per_doc = combine(t, "d", "sum")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return per_doc.set_column(0, "doc_id", pa.array(ids[per_doc["d"].to_numpy()], pa.int64()))

    return ds.map_batches(score, batch_format="pyarrow", batch_size=None)


_SQL_DSIR = rf"""
WITH tf AS (
    SELECT doc_id, lang, term, CAST(COUNT(*) AS BIGINT) AS tf
    FROM (SELECT doc_id, lang, UNNEST(regexp_extract_all(text, '\S+')) AS term
          FROM documents)
    GROUP BY doc_id, lang, term
),
cnt AS (SELECT term,
               CAST(SUM(tf) AS BIGINT) AS cr,
               CAST(SUM(CASE WHEN lang = 'en' THEN tf ELSE 0 END) AS BIGINT) AS ct
        FROM tf GROUP BY term),
tot AS (SELECT CAST(SUM(cr) AS BIGINT) AS tr, CAST(SUM(ct) AS BIGINT) AS tt
        FROM cnt),
vocab AS (SELECT term, cr, ct FROM cnt ORDER BY cr DESC, term LIMIT {_DSIR_V}),
nf AS (SELECT CAST(COUNT(*) + 1 AS BIGINT) AS f FROM vocab),
vs AS (SELECT CAST(COALESCE(SUM(cr), 0) AS BIGINT) AS vcr,
              CAST(COALESCE(SUM(ct), 0) AS BIGINT) AS vct FROM vocab),
feats AS (SELECT term, cr, ct FROM vocab
          UNION ALL
          SELECT '' AS term, tr - vcr AS cr, tt - vct AS ct FROM tot, vs),
crk AS (SELECT DISTINCT cr + 1 AS kint FROM feats),
ctk AS (SELECT DISTINCT ct + 1 AS kint FROM feats),
lncr AS (SELECT kint,
                CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                     + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
         FROM {{LNCR}}),
lnct AS (SELECT kint,
                CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                     + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
         FROM {{LNCT}}),
denr AS (SELECT tr + f AS kint FROM tot, nf),
dent AS (SELECT tt + f AS kint FROM tot, nf),
lndr AS (SELECT CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
         FROM {{LNDR}}),
lndt AS (SELECT CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
         FROM {{LNDT}}),
w AS (SELECT f.term,
             (ct_ln.lnm - (SELECT lnm FROM lndt))
             - (cr_ln.lnm - (SELECT lnm FROM lndr)) AS w_micro
      FROM feats f
      JOIN lnct ct_ln ON ct_ln.kint = f.ct + 1
      JOIN lncr cr_ln ON cr_ln.kint = f.cr + 1)
SELECT tf.doc_id,
       CAST(SUM(tf.tf) AS BIGINT) AS n_tokens,
       CAST(SUM(tf.tf * COALESCE(wv.w_micro,
                (SELECT w_micro FROM w WHERE term = ''))) AS BIGINT)
           AS dsir_micro
FROM tf
LEFT JOIN (SELECT term, w_micro FROM w WHERE term <> '') wv USING (term)
GROUP BY tf.doc_id
""".replace("{LNCR}", _shared_ln_cte("crk", "kint")).replace(
    "{LNCT}", _shared_ln_cte("ctk", "kint")
).replace("{LNDR}", _shared_ln_cte("denr", "kint")).replace(
    "{LNDT}", _shared_ln_cte("dent", "kint")
)


# ---------------------------------------------------------------------------
# CCNet-style per-language perplexity thirds
# ---------------------------------------------------------------------------

def q_ccnet_buckets(sf_dir: str, vocab_size: int = 32768, n_buckets: int = 32):
    """Head/middle/tail perplexity bucket per document WITHIN its
    language — CCNet's curation grain (Wenzek et al. 2020 §4.4: keep
    head+middle, drop tail), with the Wikipedia-KenLM perplexity
    stood in by the corpus-trained unigram NLL the engine already
    scores exactly (:func:`~pdf_parser_ray.stages.textstats.q_lm_doc_nll`).

    The bucket is the exact tercile by per-language rank: documents
    sort by ``(nll_micro, doc_id)`` inside their language and row i of
    n gets bucket ``(3·i) // n`` — 0 = head (lowest perplexity).
    Rank-based (not value-threshold) bucketing is what CCNet ships:
    each language contributes exactly its thirds regardless of its
    absolute perplexity scale.

    Plan: the LM score pass (one term exchange + one broadcast-scored
    streaming pass) threads ``lang`` through
    (:func:`~pdf_parser_ray.stages.textstats.lm_score_ds` ``carry``),
    then ONE ``groupby(lang)`` exchange ranks each language partition
    vectorized. Languages are a handful of heavy groups — at corpus
    scale the per-lang rank read-off runs instead on the (lang,
    nll_micro) value-count summary exactly like the percentile family
    (`q_priority_percentiles`); the per-doc BUCKET assignment then
    joins back by nll range, same rule, same hashes."""
    scored = lm_score_ds(
        sf_dir, vocab_size=vocab_size, n_buckets=n_buckets, carry=("lang",)
    )

    def bucketize(g: "pd.DataFrame") -> pa.Table:
        g = g.sort_values(["nll_micro", "doc_id"], kind="mergesort")
        n = len(g)
        bucket = (3 * np.arange(n, dtype=np.int64)) // n
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "lang": pa.array(g["lang"].tolist(), pa.string()),
                "n_tokens": pa.array(
                    g["n_tokens"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "nll_micro": pa.array(
                    g["nll_micro"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "ppl_bucket": pa.array(bucket, pa.int64()),
            }
        )

    return scored.groupby("lang").map_groups(bucketize, batch_format="pandas")


_SQL_CCNET = f"""
WITH base AS (SELECT * FROM ({_SQL_LM_NLL}) lm),
wl AS (SELECT b.doc_id, d.lang, b.n_tokens, b.nll_micro,
              row_number() OVER (PARTITION BY d.lang
                                 ORDER BY b.nll_micro, b.doc_id) - 1 AS rn,
              COUNT(*) OVER (PARTITION BY d.lang) AS n
       FROM base b JOIN documents d USING (doc_id))
SELECT doc_id, lang, n_tokens, nll_micro,
       CAST((3*rn)//n AS BIGINT) AS ppl_bucket
FROM wl
"""


QUERIES = {
    "dsir_weights": q_dsir_weights,
    "ccnet_buckets": q_ccnet_buckets,
}

ORACLE_SQL = {
    "dsir_weights": _SQL_DSIR,
    "ccnet_buckets": _SQL_CCNET,
}
