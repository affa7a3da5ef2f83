"""Tiered main-content extraction cascade: route each document
through the extraction tiers the way a production web-extraction
stack does.

The north rule's HTML side names two block-scoring heuristics —
Readability-style DOM candidate scoring (``stages/domheur.py``) and
jusText-style stopword/link-density classification
(``stages/justext.py``). Real pipelines do not pick one: they run a
confidence-gated CASCADE (the pattern trafilatura and
readability-lxml document publicly — try the precise extractor, fall
back to the recall-oriented one, fall back to raw text). This module
composes the two existing tiers plus a raw fallback into a single
per-document router:

1. **dom** — accept the Readability winner iff its link-density-
   weighted score clears ``DOM_MIN_SCORE`` (the on-corpus median, so
   the gate provably fires both ways).
2. **justext** — else accept the jusText rollup iff the final-good
   blocks carry at least ``JX_MIN_WORDS`` words (two body chunks).
3. **raw** — else keep the document's full word count (no extractor
   was confident; downstream quality gates see everything).

Output per document: the chosen ``tier``, its content word mass
``content_words``, and the gating ``tier_score`` (the DOM final
score, the jusText good-word mass, or 0) — all exact integers, so
the SQL twin (the two tier CTE families joined on doc_id with the
same CASE routing) hash-matches bit-for-bit.

Scale shape: identical to the component tiers — ONE zero-shuffle
``map_batches`` over a (doc_id, text) read. Both tier signals are
computed inside the same batch fn (the DOM synthesis and the block
classification are both per-document expansions that never leave the
batch), so the cascade costs one pass, not three: no exchange, no
driver state, embarrassingly parallel at 10^12 docs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import combine
from .domheur import _SQL_PARA, _cand_scores, _synth_dom, _winners
from .justext import _GOOD, _SQL_BLOCKS_CTE, _block_arrays, classify_blocks

#: on-corpus median of the Readability winner's final score (measured
#: at sf0.001/sf0.01 — the md5 synthesis makes the distribution
#: sf-independent), so roughly half the corpus routes to tier 'dom'
DOM_MIN_SCORE = 180_000_000
#: two 12-word body chunks of final-good jusText content
JX_MIN_WORDS = 24

_TIER = np.array(["raw", "justext", "dom"])
_RAW, _JX, _DOM = 0, 1, 2


def _cascade_table(batch: pa.Table) -> pa.Table:
    dids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n = len(dids)
    if n == 0:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "tier": pa.array([], pa.string()),
                "content_words": pa.array([], pa.int64()),
                "tier_score": pa.array([], pa.int64()),
            }
        )
    texts = batch["text"].to_pylist()

    # tier 1: Readability winner score + word mass per document
    doc, cand, _, w, l = _synth_dom(dids)
    _, gdoc, gcand, final, gw, _, _ = _cand_scores(doc, cand, w, l)
    win = _winners(gdoc, gcand, final)
    best = np.zeros(n, dtype=np.int64)
    kept = np.zeros(n, dtype=np.int64)
    best[gdoc[win]] = final[win]
    kept[gdoc[win]] = gw[win]

    # tier 2: jusText final-good word mass per document (block stream
    # is contiguous per doc, one group per input row, in row order)
    jdoc, _, nw, nl, ns, _ = _block_arrays(dids.tolist(), texts)
    _, _, _, jfinal = classify_blocks(jdoc, nw, nl, ns)
    bounds = np.flatnonzero(np.r_[True, jdoc[1:] != jdoc[:-1]])
    good_words = np.add.reduceat(np.where(jfinal == _GOOD, nw, 0), bounds)

    # tier 3: raw word count
    raw_words = np.fromiter(
        (len((t or "").split()) for t in texts), dtype=np.int64, count=n
    )

    tier = np.where(
        best >= DOM_MIN_SCORE, _DOM, np.where(good_words >= JX_MIN_WORDS, _JX, _RAW)
    )
    content = np.choose(tier, (raw_words, good_words, kept))
    score = np.choose(tier, (np.zeros(n, dtype=np.int64), good_words, best))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tier": pa.array(_TIER[tier].tolist(), pa.string()),
            "content_words": pa.array(content, pa.int64()),
            "tier_score": pa.array(score, pa.int64()),
        }
    )


def q_extract_cascade(sf_dir: str):
    """Per-document tier routing: which extractor won, how much
    content it kept, and the score that gated it."""
    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_cascade_table, batch_format="pyarrow", batch_size=4096)


def _cascade_spans_table(batch: pa.Table) -> pa.Table:
    """Span rows from each document's WINNING tier: the north rule's
    per-row invariant shape ((kind, text, media_ref, order) in its
    deterministic numeric core — kind = the tier, order = ``pos``,
    content mass = ``n_words``). dom-routed docs emit the Readability
    winner's paragraphs, justext-routed docs their final-good blocks,
    raw-routed docs one whole-document span."""
    dids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n = len(dids)
    if n == 0:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pos": pa.array([], pa.int64()),
                "kind": pa.array([], pa.string()),
                "n_words": pa.array([], pa.int64()),
            }
        )
    texts = batch["text"].to_pylist()

    doc, cand, para, w, l = _synth_dom(dids)
    gstart, gdoc, gcand, final, gw, _, gn = _cand_scores(doc, cand, w, l)
    win = _winners(gdoc, gcand, final)
    best = np.zeros(n, dtype=np.int64)
    best[gdoc[win]] = final[win]

    jdoc, jblk, nw, nl, ns, _ = _block_arrays(dids.tolist(), texts)
    _, _, _, jfinal = classify_blocks(jdoc, nw, nl, ns)
    jbounds = np.flatnonzero(np.r_[True, jdoc[1:] != jdoc[:-1]])
    good_words = np.add.reduceat(np.where(jfinal == _GOOD, nw, 0), jbounds)

    raw_words = np.fromiter(
        (len((t or "").split()) for t in texts), dtype=np.int64, count=n
    )
    tier = np.where(
        best >= DOM_MIN_SCORE, _DOM, np.where(good_words >= JX_MIN_WORDS, _JX, _RAW)
    )

    # dom spans: the winner group's paragraph rows, for dom-routed docs
    dom_mask = tier == _DOM
    dwin = win[dom_mask[gdoc[win]]]
    take = (
        np.concatenate(
            [np.arange(gstart[g], gstart[g] + gn[g]) for g in dwin.tolist()]
        )
        if len(dwin)
        else np.empty(0, np.int64)
    )
    dom_rows = (dids[doc[take]], para[take], w[take])

    # justext spans: final-good blocks of justext-routed docs. jdoc
    # holds actual doc ids (one contiguous run per input row, in row
    # order), so map run index -> routing via jbounds.
    row_of_block = np.repeat(np.arange(n), np.diff(np.append(jbounds, len(jdoc))))
    jx_take = (jfinal == _GOOD) & (tier[row_of_block] == _JX)
    jx_rows = (jdoc[jx_take], jblk[jx_take], nw[jx_take])

    raw_mask = tier == _RAW
    raw_rows = (dids[raw_mask], np.zeros(int(raw_mask.sum()), np.int64),
                raw_words[raw_mask])

    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(
                [dom_rows[0], jx_rows[0], raw_rows[0]])),
            "pos": pa.array(np.concatenate(
                [dom_rows[1], jx_rows[1], raw_rows[1]]), pa.int64()),
            "kind": pa.array(
                ["dom"] * len(dom_rows[0])
                + ["justext"] * len(jx_rows[0])
                + ["raw"] * len(raw_rows[0]),
                pa.string(),
            ),
            "n_words": pa.array(np.concatenate(
                [dom_rows[2], jx_rows[2], raw_rows[2]]), pa.int64()),
        }
    )


def q_cascade_spans(sf_dir: str):
    """Ordered span sequence from each document's winning tier —
    same zero-shuffle single-map shape as extract_cascade."""
    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        _cascade_spans_table, batch_format="pyarrow", batch_size=4096
    )


_SQL_EXTRACT_CASCADE = f"""
WITH {_SQL_BLOCKS_CTE},
{_SQL_PARA},
dom AS (
    SELECT doc_id, CAST(final AS BIGINT) AS best_score, w AS kept_words
    FROM win WHERE rn = 1
),
jx AS (
    SELECT doc_id,
           CAST(SUM(CASE WHEN cls = 'good' THEN n_words ELSE 0 END) AS BIGINT)
               AS good_words
    FROM final GROUP BY doc_id
),
raw AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS raw_words
    FROM documents
)
SELECT r.doc_id,
       CASE WHEN d.best_score >= {DOM_MIN_SCORE} THEN 'dom'
            WHEN j.good_words >= {JX_MIN_WORDS} THEN 'justext'
            ELSE 'raw' END AS tier,
       CASE WHEN d.best_score >= {DOM_MIN_SCORE} THEN d.kept_words
            WHEN j.good_words >= {JX_MIN_WORDS} THEN j.good_words
            ELSE r.raw_words END AS content_words,
       CASE WHEN d.best_score >= {DOM_MIN_SCORE} THEN d.best_score
            WHEN j.good_words >= {JX_MIN_WORDS} THEN j.good_words
            ELSE CAST(0 AS BIGINT) END AS tier_score
FROM raw r
JOIN dom d USING (doc_id)
JOIN jx  j USING (doc_id)
"""

_SQL_CASCADE_SPANS = f"""
WITH {_SQL_BLOCKS_CTE},
{_SQL_PARA},
dom AS (
    SELECT doc_id, CAST(final AS BIGINT) AS best_score, c AS best_c
    FROM win WHERE rn = 1
),
jx AS (
    SELECT doc_id,
           CAST(SUM(CASE WHEN cls = 'good' THEN n_words ELSE 0 END) AS BIGINT)
               AS good_words
    FROM final GROUP BY doc_id
),
raw AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS raw_words
    FROM documents
),
route AS (
    SELECT r.doc_id, r.raw_words, d.best_c,
           CASE WHEN d.best_score >= {DOM_MIN_SCORE} THEN 'dom'
                WHEN j.good_words >= {JX_MIN_WORDS} THEN 'justext'
                ELSE 'raw' END AS tier
    FROM raw r JOIN dom d USING (doc_id) JOIN jx j USING (doc_id)
)
SELECT p.doc_id, CAST(p.p AS BIGINT) AS pos, 'dom' AS kind,
       CAST(p.words AS BIGINT) AS n_words
FROM para p JOIN route rt ON rt.doc_id = p.doc_id
WHERE rt.tier = 'dom' AND p.c = rt.best_c
UNION ALL
SELECT f.doc_id, f.blk AS pos, 'justext' AS kind, f.n_words
FROM final f JOIN route rt ON rt.doc_id = f.doc_id
WHERE rt.tier = 'justext' AND f.cls = 'good'
UNION ALL
SELECT doc_id, CAST(0 AS BIGINT) AS pos, 'raw' AS kind,
       raw_words AS n_words
FROM route WHERE tier = 'raw'
"""

def q_cascade_routing_by_source(sf_dir: str):
    """Tier-routing shares PER SOURCE — the production monitoring
    rollup over the cascade: a source whose dom-share collapses (or
    raw-share spikes) between crawls is the canary for a template
    change breaking extraction, long before span diffs surface it.
    One row per (source, tier) with counts, the source's routing
    share in exact ppm, and total content mass.

    Shape: the SAME zero-shuffle cascade pass with ``source`` carried
    (attached per batch by doc_id — unique within a documents batch),
    folding each batch to ≤ sources·3 cell partials → one tiny cell
    groupby; shares read off per source on the bounded cell grain."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def fn(batch: pa.Table) -> pa.Table:
        out = _cascade_table(batch)
        t = pa.table(
            {
                "source": batch["source"].take(pc.index_in(out["doc_id"], batch["doc_id"])),
                "tier": out["tier"],
                "n": np.ones(out.num_rows, np.int64),
                "cw": out["content_words"].cast(pa.int64()),
            }
        )
        return combine(t, ["source", "tier"], "sum")

    cells = (
        ds.map_batches(fn, batch_format="pyarrow", batch_size=4096)
        .groupby(["source", "tier"])
        .aggregate(Sum("n", alias_name="n_docs"), Sum("cw", alias_name="sum_content_words"))
        .to_pandas()  # bounded: sources × 3 cells
    )
    totals = cells.groupby("source")["n_docs"].transform("sum").to_numpy(dtype=np.int64)
    n = cells["n_docs"].to_numpy(dtype=np.int64)
    return pd.DataFrame(
        {
            "source": cells["source"],
            "tier": cells["tier"],
            "n_docs": pd.Series(n, dtype=np.int64),
            "share_ppm": pd.Series(n * 1_000_000 // totals, dtype=np.int64),
            "sum_content_words": pd.Series(
                cells["sum_content_words"].to_numpy(dtype=np.int64), dtype=np.int64
            ),
        }
    )


_SQL_CASCADE_ROUTING = f"""
WITH casc AS (SELECT * FROM ({_SQL_EXTRACT_CASCADE}) t),
j AS (
    SELECT d.source, c.tier,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(c.content_words) AS BIGINT) AS sum_content_words
    FROM casc c JOIN documents d USING (doc_id)
    GROUP BY d.source, c.tier
)
SELECT source, tier, n_docs,
       CAST(n_docs * 1000000 // SUM(n_docs) OVER (PARTITION BY source)
            AS BIGINT) AS share_ppm,
       sum_content_words
FROM j
"""


QUERIES = {
    "extract_cascade": q_extract_cascade,
    "cascade_spans": q_cascade_spans,
    "cascade_routing_by_source": q_cascade_routing_by_source,
}
ORACLE_SQL = {
    "extract_cascade": _SQL_EXTRACT_CASCADE,
    "cascade_spans": _SQL_CASCADE_SPANS,
    "cascade_routing_by_source": _SQL_CASCADE_ROUTING,
}
