"""Corpus-shaping operators for large-scale training-data prep:
context-window chunking, corpus-wide segment-level dedup (the C4/
RefinedWeb "line dedup" adapted to a corpus whose documents carry no
newlines), Gopher-style repetition flags, and SemDeDup-style semantic
dedup over the embedding table.

These have no counterpart in the reference repo (which processes one
PDF at a time — `extractor.py` holds no corpus-level operator); they
are the corpus-hygiene layer a 100-TB training pipeline runs between
extraction and packing, built with the same discipline as
``stages/dedup.py``: coarse-bucket exchanges with vectorized per-group
logic, no driver-side materialization, integer-exact outputs so the
DuckDB oracles hash-match bit-for-bit.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import exchange
from .dedup import _AUG_SQL, augmented_corpus, label_propagation_clusters

_CHUNK = 32  # context-window chunking: words per chunk
_STRIDE = 24  # chunk stride (overlap = _CHUNK - _STRIDE = 8 words)
_SEG = 16  # segment dedup: words per non-overlapping segment


def _documents(sf_dir: str):
    from ..io.sources import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


# ---------------------------------------------------------------------------
# Context-window chunking
# ---------------------------------------------------------------------------

def q_doc_chunks(sf_dir: str):
    """Split every document into overlapping context-window chunks of
    ``_CHUNK`` words with stride ``_STRIDE`` — the pre-tokenization
    step that turns variable-length documents into training-window
    units. Pure flat-map (one ``map_batches`` emitting more rows than
    it reads), zero shuffles, embarrassingly parallel at any corpus
    size; an empty document still emits its chunk 0 so no row
    silently vanishes."""
    ds = _documents(sf_dir)

    def chunks(batch: pa.Table) -> pa.Table:
        o_id: list[int] = []
        o_idx: list[int] = []
        o_txt: list[str] = []
        o_n: list[int] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (t or "").split()
            n = len(words)
            n_chunks = 1 if n <= _CHUNK else 1 + math.ceil((n - _CHUNK) / _STRIDE)
            for i in range(n_chunks):
                piece = words[i * _STRIDE : i * _STRIDE + _CHUNK]
                o_id.append(d)
                o_idx.append(i)
                o_txt.append(" ".join(piece))
                o_n.append(len(piece))
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "chunk_idx": pa.array(o_idx, pa.int64()),
                "chunk_text": pa.array(o_txt, pa.string()),
                "n_words": pa.array(o_n, pa.int64()),
            }
        )

    return ds.map_batches(chunks, batch_format="pyarrow", batch_size=None)


_SQL_DOC_CHUNKS = f"""
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS words FROM documents),
c AS (SELECT doc_id, words, len(words) AS n,
             CASE WHEN len(words) <= {_CHUNK} THEN 1
                  ELSE 1 + CAST(ceil((len(words) - {_CHUNK}) / {_STRIDE}.0) AS BIGINT)
             END AS n_chunks
      FROM w)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_idx,
       COALESCE(array_to_string(words[i*{_STRIDE}+1 : i*{_STRIDE}+{_CHUNK}], ' '), '') AS chunk_text,
       CAST(GREATEST(LEAST({_CHUNK}, n - i*{_STRIDE}), 0) AS BIGINT) AS n_words
FROM c, LATERAL unnest(range(n_chunks)) AS t(i)
"""


# ---------------------------------------------------------------------------
# Corpus-wide segment dedup (C4-style line dedup, newline-free corpus)
# ---------------------------------------------------------------------------

def q_segment_dedup(sf_dir: str, n_buckets: int = 64):
    """Corpus-wide exact segment dedup — the C4/RefinedWeb "drop any
    line that occurs elsewhere in the corpus" pass, with consecutive
    ``_SEG``-word segments standing in for lines (the synthetic
    documents carry no newlines). A segment instance survives iff it
    is the globally FIRST occurrence of its text, ordered by
    ``(doc_id, seg_idx)``; each document is reassembled from its
    surviving segments, and documents with nothing left (exact
    duplicates of an earlier doc) drop out entirely.

    Runs over the same deterministically augmented corpus as the
    document-level dedup family (`augmented_corpus` — exact copies
    every 10th doc, first-word mutations every 7th), so the output is
    non-trivial: exact copies lose every segment, near copies keep
    only their mutated segment 0.

    Shape: two coarse-bucket exchanges, both O(corpus text), nothing
    on the driver. (1) segments shuffle by ``crc32(seg) % B``; inside
    a bucket the keep-first decision is a vectorized sort +
    first-duplicate mask over the full segment string (hash collisions
    therefore cannot merge distinct segments). (2) flagged segments
    shuffle back by ``doc_id % B`` and each document reassembles in
    seg_idx order. Per-task memory is O(corpus/B) — B scales with the
    corpus exactly like the dedup family's fingerprint buckets."""
    ds = augmented_corpus(sf_dir)

    def segments(batch: pa.Table) -> pa.Table:
        import zlib

        o_id: list[int] = []
        o_idx: list[int] = []
        o_seg: list[str] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (t or "").split()
            for i in range(math.ceil(len(words) / _SEG)):
                o_id.append(d)
                o_idx.append(i)
                o_seg.append(" ".join(words[i * _SEG : (i + 1) * _SEG]))
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "seg_idx": pa.array(o_idx, pa.int64()),
                "seg": pa.array(o_seg, pa.string()),
                "seg_crc": pa.array([zlib.crc32(s.encode()) for s in o_seg], pa.int64()),
            }
        )

    segs = ds.map_batches(segments, batch_format="pyarrow", batch_size=None)

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["seg", "doc_id", "seg_idx"], kind="mergesort")
        kept = (~g.duplicated("seg", keep="first")).to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "seg_idx": pa.array(g["seg_idx"].to_numpy(dtype=np.int64), pa.int64()),
                "seg": pa.array(g["seg"].tolist(), pa.string()),
                "kept": pa.array(kept.astype(np.int64), pa.int64()),
            }
        )

    flagged = exchange([(segs, "seg_crc")], keep_first, n_buckets=n_buckets)

    def reassemble(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        o_id: list[int] = []
        o_txt: list[str] = []
        o_kept: list[int] = []
        o_drop: list[int] = []
        for d, sub in g.groupby("doc_id", sort=False):
            sub = sub.sort_values("seg_idx", kind="mergesort")
            kept = sub[sub["kept"] == 1]
            if len(kept) == 0:
                continue
            o_id.append(int(d))
            o_txt.append(" ".join(kept["seg"].tolist()))
            o_kept.append(len(kept))
            o_drop.append(len(sub) - len(kept))
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "clean_text": pa.array(o_txt, pa.string()),
                "n_kept": pa.array(o_kept, pa.int64()),
                "n_dropped": pa.array(o_drop, pa.int64()),
            }
        )

    return exchange([(flagged, "doc_id")], reassemble, n_buckets=n_buckets)


_SQL_SEGMENT_DEDUP = f"""
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS words FROM ({_AUG_SQL})),
c AS (SELECT doc_id, words,
             CAST(ceil(len(words) / {_SEG}.0) AS BIGINT) AS n_segs
      FROM w),
segs AS (SELECT doc_id, CAST(i AS BIGINT) AS seg_idx,
                array_to_string(words[i*{_SEG}+1 : i*{_SEG}+{_SEG}], ' ') AS seg
         FROM c, LATERAL unnest(range(n_segs)) AS t(i)),
ranked AS (SELECT *, row_number() OVER (PARTITION BY seg ORDER BY doc_id, seg_idx) AS rn
           FROM segs)
SELECT doc_id,
       COALESCE(string_agg(CASE WHEN rn = 1 THEN seg END, ' ' ORDER BY seg_idx), '') AS clean_text,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dropped
FROM ranked
GROUP BY doc_id
HAVING SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) >= 1
"""


# ---------------------------------------------------------------------------
# Gopher-style repetition flags
# ---------------------------------------------------------------------------

def q_repetition_flags(sf_dir: str):
    """Per-document repetition signals from the Gopher quality rules
    (Rae et al. 2021, §A1.1): most-frequent-2-gram fraction and the
    distinct-word ratio, with an integer-exact flag at the paper's
    0.20 top-2-gram threshold (``mx·5 > n2`` ⟺ mx/n2 > 0.2 with no
    float division on either side). Single map pass, zero shuffles;
    the per-doc Counter is bounded by document length."""
    ds = _documents(sf_dir)

    def flags(batch: pa.Table) -> pa.Table:
        o_id: list[int] = []
        o_n: list[int] = []
        o_nd: list[int] = []
        o_mx: list[int] = []
        o_frac: list[int] = []
        o_flag: list[int] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (t or "").split()
            n = len(words)
            n2 = max(n - 1, 0)
            mx = max(Counter(zip(words, words[1:])).values()) if n2 else 0
            o_id.append(d)
            o_n.append(n)
            o_nd.append(len(set(words)))
            o_mx.append(mx)
            o_frac.append(0 if n2 == 0 else mx * 1_000_000 // n2)
            o_flag.append(1 if (n2 > 0 and mx * 5 > n2) else 0)
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "n_words": pa.array(o_n, pa.int64()),
                "n_distinct_words": pa.array(o_nd, pa.int64()),
                "top_2gram_count": pa.array(o_mx, pa.int64()),
                "top_2gram_frac_micro": pa.array(o_frac, pa.int64()),
                "rep_flag": pa.array(o_flag, pa.int64()),
            }
        )

    return ds.map_batches(flags, batch_format="pyarrow", batch_size=None)


_SQL_REPETITION_FLAGS = """
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS words FROM documents),
base AS (SELECT doc_id, len(words) AS n, len(list_distinct(words)) AS nd,
                GREATEST(len(words) - 1, 0) AS n2
         FROM w),
g AS (SELECT doc_id,
             unnest(list_transform(range(1, len(words)), i -> words[i] || ' ' || words[i+1])) AS gram
      FROM w),
cnt AS (SELECT doc_id, gram, COUNT(*) AS c FROM g GROUP BY doc_id, gram),
mx AS (SELECT doc_id, MAX(c) AS mx FROM cnt GROUP BY doc_id)
SELECT b.doc_id,
       CAST(b.n AS BIGINT) AS n_words,
       CAST(b.nd AS BIGINT) AS n_distinct_words,
       CAST(COALESCE(m.mx, 0) AS BIGINT) AS top_2gram_count,
       CAST(CASE WHEN b.n2 = 0 THEN 0
                 ELSE COALESCE(m.mx, 0) * 1000000 // b.n2 END AS BIGINT) AS top_2gram_frac_micro,
       CAST(CASE WHEN b.n2 > 0 AND COALESCE(m.mx, 0) * 5 > b.n2
                 THEN 1 ELSE 0 END AS BIGINT) AS rep_flag
FROM base b LEFT JOIN mx m USING (doc_id)
"""


# ---------------------------------------------------------------------------
# SemDeDup-style semantic dedup over the embedding table
# ---------------------------------------------------------------------------

def q_semantic_dedup(sf_dir: str, threshold: float = 0.4, n_buckets: int = 16):
    """SemDeDup (Abbas et al. 2023) shaped semantic dedup: cluster the
    embedding space, drop all but one representative of every
    near-duplicate group, emit the surviving ``vec_id`` set.

    Composition of already-proven distributed pieces — multi-probe IVF
    cosine near-dup pairs (:func:`..stages.embed.q_embed_near_dup_ivf`,
    the sub-quadratic scale path), distributed min-label propagation
    (:func:`..stages.dedup.label_propagation_clusters` — no driver
    union-find), and a bucket-shuffle anti-join of the corpus ids
    against the dropped set (never a driver-side id set). The survivor
    of each cluster is its minimum vec_id; vectors in no cluster
    survive by definition."""
    import pyarrow.parquet as pq  # noqa: F401  (parity with embed readers)

    from .embed import q_embed_near_dup_ivf, _embeddings

    pairs = q_embed_near_dup_ivf(sf_dir, threshold)

    def as_edges(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_a": batch["vec_a"], "doc_b": batch["vec_b"]})

    clusters = label_propagation_clusters(
        pairs.map_batches(as_edges, batch_format="pyarrow", batch_size=None)
    )
    if isinstance(clusters, pa.Table):  # no pairs: every vector survives
        return _embeddings(sf_dir).select_columns(["vec_id"])

    # dropped = cluster members that are not their cluster's min label
    def dropped_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.not_equal(batch["doc_id"], batch["cluster_rep"]))

    def anti(corpus: pa.Table, dropped: pa.Table) -> pa.Table:
        keep = corpus["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = keep[~np.isin(keep, dropped["doc_id"].to_numpy(zero_copy_only=False))]
        return pa.table({"vec_id": pa.array(keep, pa.int64())})

    return exchange(
        [
            (
                _embeddings(sf_dir).select_columns(["vec_id"]),
                "vec_id",
                pa.schema({"vec_id": pa.int64()}),
            ),
            (
                clusters.map_batches(dropped_only, batch_format="pyarrow", batch_size=None),
                "doc_id",
                pa.schema({"doc_id": pa.int64(), "cluster_rep": pa.int64()}),
            ),
        ],
        anti,
        n_buckets=n_buckets,
    )


# DATA-DEPENDENT oracle (same caveat as near_dup_pairs): the SQL
# clusters the EXACT O(N²) cosine pairs; the engine path is multi-probe
# IVF with measured recall 1.0 at m_probe=8 on this corpus, so the two
# agree here — a future mismatch with EXTRA survivors (never missing)
# diagnoses as IVF recall on a borderline pair, not an engine bug.
_SQL_SEMANTIC_DEDUP = """
WITH RECURSIVE pairs AS (
    SELECT a.vec_id AS va, b.vec_id AS vb
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) >= 0.4
),
edges AS (SELECT va AS s, vb AS d FROM pairs UNION ALL SELECT vb, va FROM pairs),
reach(node, r) AS (
    SELECT s, s FROM edges
    UNION
    SELECT e.d, reach.r FROM reach JOIN edges e ON e.s = reach.node
),
labels AS (SELECT node, MIN(r) AS rep FROM reach GROUP BY node)
SELECT CAST(e.vec_id AS BIGINT) AS vec_id
FROM embeddings e LEFT JOIN labels l ON e.vec_id = l.node
WHERE l.node IS NULL OR l.rep = e.vec_id
"""


# ---------------------------------------------------------------------------
# Deterministic epoch shuffle (global rank in hash order)
# ---------------------------------------------------------------------------

def q_epoch_shuffle(sf_dir: str, salt: str = "epoch0", n_buckets: int = 64):
    """Deterministic training-epoch shuffle: every document gets a
    global ``epoch_rank`` — its position in ``md5(salt:doc_id)``
    order. The scalable alternative to ``Dataset.random_shuffle``
    (a full materializing all-to-all): because a hash PREFIX defines
    contiguous ranges of the hash order, bucketing on the first hash
    byte IS a range partition of the final order. One bucket exchange
    plus a tiny driver-side prefix (``n_buckets`` counts) replaces a
    global sort; ranks are then ``bucket offset + vectorized local
    sort index``. Changing ``salt`` re-deals every epoch.

    The same two-pass scan shape as :func:`..stages.textstats.
    q_pack_sequences`; hashing runs twice (count pass + rank pass),
    which at scale is noise next to the exchange it avoids."""
    return epoch_shuffle_ds(
        _documents(sf_dir).select_columns(["doc_id"]), salt=salt, n_buckets=n_buckets
    )


def epoch_shuffle_ds(ds, salt: str = "epoch0", n_buckets: int = 64):
    """The epoch-shuffle rank exchange over an arbitrary ``doc_id``
    Dataset — extra columns ride through and come out next to
    ``shuffle_key``/``epoch_rank`` (the training-ingest loader feeds
    the split-filtered corpus WITH text through here)."""
    import hashlib

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = [
            hashlib.md5(f"{salt}:{i}".encode()).hexdigest() for i in ids
        ]
        # Bucket by first-byte RANGE (// not %): bucket b must hold a
        # contiguous slice of the hash order for offsets+local-rank to
        # compose into the global rank. n_buckets must divide 256, so
        # every bucket is below n_buckets and is its own exchange bucket.
        width = 256 // n_buckets
        bucket = np.array([int(k[:2], 16) // width for k in keys], dtype=np.int64)
        return batch.append_column(
            "shuffle_key", pa.array(keys, pa.string())
        ).append_column("bucket", pa.array(bucket, pa.int64()))

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", batch_size=None)

    from ray.data.aggregate import Count

    counts = keyed_ds.groupby("bucket").aggregate(Count(alias_name="n")).to_pandas()
    counts = counts.sort_values("bucket")
    offsets = np.zeros(n_buckets, dtype=np.int64)
    run = 0
    for b, n in zip(counts["bucket"], counts["n"]):
        offsets[int(b)] = run
        run += int(n)

    def rank_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["shuffle_key", "doc_id"], kind="mergesort")
        rank = offsets[int(g["bucket"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        g = g.drop(columns=["bucket"])
        out = pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)
        return out.append_column("epoch_rank", pa.array(rank, pa.int64()))

    return exchange([(keyed_ds, "bucket")], rank_bucket, n_buckets=n_buckets)


_SQL_EPOCH_SHUFFLE = """
SELECT doc_id,
       md5('epoch0:' || CAST(doc_id AS VARCHAR)) AS shuffle_key,
       CAST(row_number() OVER (ORDER BY md5('epoch0:' || CAST(doc_id AS VARCHAR)), doc_id) - 1
            AS BIGINT) AS epoch_rank
FROM documents
"""


# ---------------------------------------------------------------------------
# Stratified hash split (train/val/test)
# ---------------------------------------------------------------------------

def q_train_split(sf_dir: str):
    """Deterministic train/val/test assignment from a content-free
    hash of the id: the last two hex digits of ``md5(split:doc_id)``
    map 90/5/5. Pure map, zero shuffles, stable under corpus growth
    (a document's split never depends on the rest of the corpus —
    the property that keeps eval sets frozen across crawls)."""
    ds = _documents(sf_dir).select_columns(["doc_id"])

    def split(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "split": pa.array(split_labels(ids).tolist(), pa.string()),
            }
        )

    return ds.map_batches(split, batch_format="pyarrow", batch_size=None)


def split_labels(ids: np.ndarray) -> np.ndarray:
    """The 90/5/5 hash-split kernel, shared with the training-ingest
    loader (``pipelines/ingest``) so both assign identical splits."""
    import hashlib

    h = np.array(
        [int(hashlib.md5(f"split:{i}".encode()).hexdigest()[-2:], 16) for i in ids],
        dtype=np.int64,
    )
    frac = h * 100 // 256  # 0..99, uniform enough for 90/5/5
    return np.where(frac < 90, "train", np.where(frac < 95, "val", "test"))


_SQL_TRAIN_SPLIT = """
WITH h AS (
    SELECT doc_id,
           CAST('0x' || right(md5('split:' || CAST(doc_id AS VARCHAR)), 2) AS BIGINT)
               * 100 // 256 AS frac
    FROM documents
)
SELECT doc_id,
       CASE WHEN frac < 90 THEN 'train'
            WHEN frac < 95 THEN 'val'
            ELSE 'test' END AS split
FROM h
"""


def q_stratified_split(sf_dir: str):
    """Per-language EXACT 80/10/10 split by hash rank — the stratified
    companion of :func:`q_train_split`. The plain hash split is
    proportion-exact only in expectation; on a skewed language mix the
    low-resource languages can lose their whole eval slice to hash
    variance. Here each language's documents rank by
    ``(md5('split:'||doc_id), doc_id)`` and the first ⌊n·80/100⌋ are
    train, through ⌊n·90/100⌋ val, rest test — every language gets its
    exact thirds-of-tail, deterministic across runs.

    The trade (stated, it is the reason BOTH splits exist): rank
    assignment depends on the language's corpus, so membership is NOT
    frozen under corpus growth — use `train_split` when eval sets must
    survive recrawls, this when per-stratum proportions must be exact.

    Shape: one ``groupby(lang)`` exchange over (doc_id, lang, hash)
    rows; per-language rank is a vectorized sort. At corpus scale the
    per-lang rank read-off moves to the value-count summary exactly
    like the percentile family."""
    import hashlib

    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def hash_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = [hashlib.md5(f"split:{i}".encode()).hexdigest() for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": batch["lang"],
                "h": pa.array(h, pa.string()),
            }
        )

    def assign(g: "pd.DataFrame") -> pa.Table:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        n = len(g)
        rn = np.arange(1, n + 1)
        k_train = n * 80 // 100
        k_val = n * 90 // 100
        split = np.where(rn <= k_train, "train", np.where(rn <= k_val, "val", "test"))
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "lang": pa.array(g["lang"].tolist(), pa.string()),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return (
        ds.map_batches(hash_rows, batch_format="pyarrow", batch_size=None)
        .groupby("lang")
        .map_groups(assign, batch_format="pandas")
    )


_SQL_STRATIFIED_SPLIT = """
WITH r AS (
    SELECT doc_id, lang,
           row_number() OVER (
               PARTITION BY lang
               ORDER BY md5('split:' || CAST(doc_id AS VARCHAR)), doc_id
           ) AS rn,
           COUNT(*) OVER (PARTITION BY lang) AS n
    FROM documents
)
SELECT doc_id, lang,
       CASE WHEN rn <= n*80//100 THEN 'train'
            WHEN rn <= n*90//100 THEN 'val'
            ELSE 'test' END AS split
FROM r
"""


# ---------------------------------------------------------------------------
# Exact duplicated-substring removal (Lee et al. 2022 style)
# ---------------------------------------------------------------------------

_KG = 8  # substring dedup: duplicated-span gram width in words


def q_substring_dedup(sf_dir: str, n_buckets: int = 64):
    """Exact duplicated-substring removal — the "Deduplicating
    Training Data Makes Language Models Better" (Lee et al., 2022)
    pass, adapted from suffix arrays to a shuffle-friendly exact
    k-gram formulation: a word instance is removed iff it is covered
    by some ``_KG``-word gram occurrence that (a) appears ≥ 2 times in
    the corpus and (b) is NOT the globally first occurrence of that
    gram (first = minimum ``(doc_id, pos)``). The first occurrence of
    every duplicated span therefore survives verbatim; later
    occurrences lose exactly the covered words, at ARBITRARY positions
    — unlike :func:`q_segment_dedup`, which only sees
    segment-aligned duplication. Fully-deduplicated documents stay in
    the output with ``text = ''`` so downstream length filters see
    them (segment dedup drops them — both conventions are pinned by
    their oracles).

    Runs over the augmented corpus: exact copies (every 10th doc) lose
    everything, near copies (every 7th, first word mutated) keep only
    the words within ``_KG - 1`` of the mutation, and ~5% of ORIGINAL
    docs lose naturally-repeated spans — the oracle checks all three.

    Shape (exactly the segment-dedup exchange pattern, at gram rather
    than segment grain): (1) gram rows ``(doc_id, pos, gram)`` shuffle
    by ``crc32(gram) % B`` — O(words × corpus) fixed-width rows, the
    same volume a suffix-array build would sort; the keep/flag
    decision inside a bucket is one vectorized sort + duplicated mask
    over the full gram string (collisions cannot merge distinct
    grams). (2) flagged occurrences shuffle back by ``doc_id % B``
    and union with the docs; each doc expands its flagged intervals
    with one numpy broadcast and rebuilds the surviving text.
    Per-task memory O(corpus/B); nothing lands on the driver."""
    from ..core.util import parquet_uncompressed_bytes

    # Footer-only pin sizing: the augmented corpus is the source file
    # plus an exact copy every 10th doc and a near copy every 7th
    # (~1.25×); 2× upper-bounds it without touching data pages.
    hint = 2 * parquet_uncompressed_bytes(f"{sf_dir}/documents.parquet")
    return substring_dedup_ds(
        augmented_corpus(sf_dir), n_buckets=n_buckets, input_bytes_hint=hint
    )


def gram_rows_loop(n_buckets: int):
    """Per-doc Python loop emitting ``(doc_id, pos, gram)`` rows — the
    ADOPTED formulation: the r4 A/B (tools/ab_text_kernels.py, sf0.1,
    best-of-7) measured it 1.35× FASTER than the vectorized twin —
    8-way ``binary_join_element_wise`` materializes every shifted
    slice while the loop's ``" ".join`` reuses the one word list, and
    crc32-per-gram dominates both. Numbers in BASELINE.md."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        o_id: list[int] = []
        o_pos: list[int] = []
        o_gram: list[str] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            words = (t or "").split()
            for i in range(len(words) - _KG + 1):
                o_id.append(d)
                o_pos.append(i)
                o_gram.append(" ".join(words[i : i + _KG]))
        bucket = np.array(
            [zlib.crc32(s.encode()) % n_buckets for s in o_gram], dtype=np.int64
        )
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "pos": pa.array(o_pos, pa.int64()),
                "gram": pa.array(o_gram, pa.string()),
                "gram_bucket": pa.array(bucket, pa.int64()),
            }
        )

    return fn


def gram_rows_vec(n_buckets: int):
    """Vectorized twin (VERDICT r3 item 6): Arrow whitespace split →
    one flat token array; the k-gram at flat position i is the
    C-level ``binary_join_element_wise`` of the k shifted slices,
    masked to positions whose k-th token is still the same document;
    per-doc positions come from a cumulative-max over doc starts. Only
    the crc32 bucket key remains a per-gram Python call (it is the
    committed partition function). Identical output to
    :func:`gram_rows_loop`; measured 0.74× (SLOWER) at sf0.1 — kept as
    the A/B counter-evidence, NOT adopted (BASELINE.md)."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "gram": pa.array([], pa.string()),
                "gram_bucket": pa.array([], pa.int64()),
            }
        )
        toks = pc.utf8_split_whitespace(batch["text"])
        flat = pc.list_flatten(toks).combine_chunks()
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # Arrow's splitter can emit empty tokens at whitespace edges
        # where str.split() drops them — filter to match the spec
        keep = pc.not_equal(flat, "")
        if len(flat) and not pc.all(keep).as_py():
            mask = keep.to_numpy(zero_copy_only=False)
            flat = flat.filter(keep)
            parent = parent[mask]
        L = len(flat)
        if L < _KG:
            return empty
        n_g = L - _KG + 1
        grams = pc.binary_join_element_wise(
            *[flat.slice(i, n_g) for i in range(_KG)], " "
        )
        valid = parent[:n_g] == parent[_KG - 1 :]
        if not valid.any():
            return empty
        # position within document: flat index − index of doc start
        starts = np.zeros(L, dtype=np.int64)
        changed = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
        starts[changed] = changed
        np.maximum.accumulate(starts, out=starts)
        pos = (np.arange(n_g, dtype=np.int64) - starts[:n_g])[valid]
        grams = grams.filter(pa.array(valid))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = ids[parent[:n_g][valid]]
        bucket = np.fromiter(
            (zlib.crc32(s.encode()) % n_buckets for s in grams.to_pylist()),
            dtype=np.int64,
            count=len(grams),
        )
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "gram": grams,
                "gram_bucket": pa.array(bucket, pa.int64()),
            }
        )

    return fn


def substring_dedup_ds(
    ds,
    *,
    input_bytes_hint: int,
    n_buckets: int = 64,
    text_col: str = "text",
    pin_budget_bytes: "int | None" = None,
):
    """The substring-dedup exchange over an arbitrary ``(doc_id,
    text)`` Dataset — reusable by composed pipelines
    (``pipelines/prep.q_corpus_prep_v2`` runs it over the
    scrubbed+gated corpus).

    The input feeds TWO branches (gram rows and the doc side of the
    reassembly union); Ray Data re-executes an upstream plan once per
    consumer, so the input is pinned with ``materialize()`` —
    one pass of the (possibly expensive) upstream stages instead of
    two, at the price of holding one corpus copy in the object store.
    The pin is SIZE-GATED (``core.util.pin_fits``, the
    broadcast_build_fits discipline applied to pins): callers MUST
    pass a footer-metadata estimate via ``input_bytes_hint`` (a
    required keyword — round-5 hardening removed the None-pins
    default so no caller can silently pin at scale); past the budget
    the pin is dropped and the upstream recomputes for the second
    consumer — linear re-read instead of pinning a corpus-scale copy
    into the object store. Output is identical either way (both paths
    exercised in ``TestSubstringDedup``)."""
    from ..core.util import PIN_BUDGET_BYTES, pin_fits

    if text_col != "text":
        ds = ds.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"], "text": b[text_col]}),
            batch_format="pyarrow",
            batch_size=None,
        )
    budget = PIN_BUDGET_BYTES if pin_budget_bytes is None else pin_budget_bytes
    if pin_fits(input_bytes_hint, budget):
        ds = ds.materialize()

    grams = ds.map_batches(
        gram_rows_loop(n_buckets), batch_format="pyarrow", batch_size=None
    )

    def flag_non_first(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["gram", "doc_id", "pos"], kind="mergesort")
        flagged = g[g.duplicated("gram", keep="first")]
        return pa.table(
            {
                "doc_id": pa.array(flagged["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "pos": pa.array(flagged["pos"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    flagged = exchange([(grams, "gram_bucket")], flag_non_first, n_buckets=n_buckets)

    def rebuild(flag_t: pa.Table, doc_t: pa.Table) -> pa.Table:
        docs = doc_t.to_pandas()
        flags = flag_t.to_pandas()
        pos_by_doc = {
            int(d): sub["pos"].to_numpy(dtype=np.int64)
            for d, sub in flags.groupby("doc_id", sort=False)
        }
        o_id: list[int] = []
        o_txt: list[str] = []
        o_nw: list[int] = []
        o_rm: list[int] = []
        for d, t in zip(docs["doc_id"].tolist(), docs["text"].tolist()):
            words = (t or "").split()
            pos = pos_by_doc.get(int(d))
            if pos is None:
                kept, removed = words, 0
            else:
                covered = np.unique(
                    (pos[:, None] + np.arange(_KG, dtype=np.int64)).ravel()
                )
                mask = np.ones(len(words), dtype=bool)
                mask[covered] = False
                kept = [w for w, m in zip(words, mask) if m]
                removed = len(words) - len(kept)
            o_id.append(int(d))
            o_txt.append(" ".join(kept))
            o_nw.append(len(words))
            o_rm.append(removed)
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "text": pa.array(o_txt, pa.string()),
                "n_words": pa.array(o_nw, pa.int64()),
                "removed_words": pa.array(o_rm, pa.int64()),
            }
        )

    return exchange(
        [
            (flagged, "doc_id", pa.schema({"doc_id": pa.int64(), "pos": pa.int64()})),
            (
                ds.select_columns(["doc_id", "text"]),
                "doc_id",
                pa.schema({"doc_id": pa.int64(), "text": pa.string()}),
            ),
        ],
        rebuild,
        n_buckets=n_buckets,
    )


def substring_dedup_ctes(source_sql: str) -> str:
    """The substring-dedup CTE chain rendered over an arbitrary
    ``(doc_id, text)`` source query — the SINGLE maintained copy of
    the SQL spec, shared by ``_SQL_SUBSTRING_DEDUP`` and the composed
    pipeline oracle (``pipelines/prep``). Callers append their own
    final SELECT over the ``words`` / ``rebuilt`` CTEs."""
    return rf"""
WITH words AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM ({source_sql})),
grams AS (
    SELECT doc_id, CAST(t.i AS BIGINT) AS pos,
           array_to_string(w[t.i+1 : t.i+{_KG}], ' ') AS gram
    FROM words, LATERAL unnest(range(greatest(len(w) - {_KG} + 1, 0))) AS t(i)
),
ranked AS (
    SELECT doc_id, pos,
           row_number() OVER (PARTITION BY gram ORDER BY doc_id, pos) AS rn,
           count(*) OVER (PARTITION BY gram) AS cnt
    FROM grams
),
covered AS (
    SELECT DISTINCT r.doc_id, r.pos + CAST(j.j AS BIGINT) AS widx
    FROM ranked r, LATERAL unnest(range({_KG})) AS j(j)
    WHERE r.cnt >= 2 AND r.rn > 1
),
allw AS (
    SELECT w.doc_id, CAST(t.i AS BIGINT) AS widx, w.w[t.i+1] AS word
    FROM words w, LATERAL unnest(range(len(w.w))) AS t(i)
),
kept AS (
    SELECT a.* FROM allw a
    WHERE NOT EXISTS (SELECT 1 FROM covered c
                      WHERE c.doc_id = a.doc_id AND c.widx = a.widx)
),
rebuilt AS (
    SELECT doc_id, array_to_string(list(word ORDER BY widx), ' ') AS text,
           count(*) AS kept_words
    FROM kept GROUP BY doc_id
)
"""


_SQL_SUBSTRING_DEDUP = substring_dedup_ctes(_AUG_SQL) + """
SELECT w.doc_id,
       COALESCE(r.text, '') AS text,
       CAST(len(w.w) AS BIGINT) AS n_words,
       CAST(len(w.w) - COALESCE(r.kept_words, 0) AS BIGINT) AS removed_words
FROM words w LEFT JOIN rebuilt r USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Temperature-scaled language resampling (α = 0.5 corpus mix)
# ---------------------------------------------------------------------------

def q_temperature_mix(sf_dir: str):
    """Square-root temperature resampling of the corpus language mix —
    the public multilingual-pretraining recipe (sampling probability
    ∝ p_lang^α with α = 0.5, cf. the mBERT/XLM-R exponent-smoothing
    scheme): head languages are down-sampled toward the tail so the
    rarest language keeps ~everything and a language k× larger keeps
    ~√k× as much, flattening the mix without starving the head.

    Two passes, both cheap: (1) exact per-language counts via
    per-batch partials + one tiny groupby (O(langs × blocks) rows);
    the per-language keep THRESHOLD is then pure integer —
    ``(isqrt(n_l · n_min) · 16⁶) // n_l`` over the first 6 hex digits
    of ``md5('mix:'||doc_id)`` — so membership is deterministic,
    cluster-size-independent, and re-derivable by the oracle (which
    corrects DuckDB's float ``SQRT`` to exact isqrt with a ±1 integer
    adjustment). (2) a pure map-batches filter — no shuffle of the
    corpus, ever. Changing the salt re-deals the subsample."""
    import hashlib
    import math

    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def lang_partial(b: pa.Table) -> pa.Table:
        lang, cnt = np.unique(
            b["lang"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "lang": pa.array(lang.tolist(), pa.string()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(lang_partial, batch_format="pyarrow", batch_size=None)
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: one row per language
    )
    n_by = dict(zip(counts["lang"], counts["n"].astype(int)))
    n_min = min(n_by.values())
    th = {
        lang: (math.isqrt(n * n_min) * 16**6) // n for lang, n in n_by.items()
    }

    def keep(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        langs = b["lang"].to_pylist()
        mask = [
            int(hashlib.md5(f"mix:{i}".encode()).hexdigest()[:6], 16) < th[lg]
            for i, lg in zip(ids, langs)
        ]
        return b.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None)


_SQL_TEMPERATURE_MIX = """
WITH n AS (
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_l FROM documents GROUP BY lang
), m AS (SELECT MIN(n_l) AS n_min FROM n),
s AS (
    SELECT lang, n_l, n_l * n_min AS x,
           CAST(FLOOR(SQRT(CAST(n_l * n_min AS DOUBLE))) AS BIGINT) AS s0
    FROM n, m
), th AS (
    -- exact integer sqrt: correct the float estimate by ±1
    SELECT lang,
           ((s0 - CASE WHEN s0*s0 > x THEN 1 ELSE 0 END
                + CASE WHEN (s0+1)*(s0+1) <= x THEN 1 ELSE 0 END)
            * 16777216) // n_l AS th
    FROM s
)
SELECT d.doc_id, d.lang
FROM documents d JOIN th ON th.lang = d.lang
WHERE CAST('0x' || substr(md5('mix:' || CAST(d.doc_id AS VARCHAR)), 1, 6)
           AS BIGINT) < th.th
"""


# ---------------------------------------------------------------------------
# Weighted sampling without replacement (priority sampling)
# ---------------------------------------------------------------------------

_PPS_K = 200
_PPS_SHIFT = 20  # priority = (h40 << 20) // weight stays far inside int64


def q_weighted_sample(sf_dir: str, k: int = _PPS_K):
    """Size-weighted sample WITHOUT replacement: the ``k`` documents
    with the smallest priority ``⌊(h · 2²⁰) / n_chars⌋`` where ``h``
    is a 40-bit id hash — Duffield–Lund–Thorup priority sampling with
    the uniform replaced by the engine's deterministic md5 stream, so
    membership is reproducible run-to-run and cluster-size-invariant
    (the property true reservoir sampling lacks). Inclusion odds rise
    with ``n_chars``: the token-budget-aware way to thin a corpus
    (long docs carry more tokens, so dropping them distorts the mix
    more — complements :func:`q_temperature_mix`'s per-LANGUAGE
    reweighting at the per-DOCUMENT grain).

    Exactness: ``h`` (40 bits) shifted 20 stays < 2⁶⁰ before the
    integer division, so numpy-side and DuckDB-side priorities are the
    same int64; ties (same floored priority) break by doc_id on both
    sides. Scale shape: one streaming pass emits each block's LOCAL
    top-k (the global winners are a subset of the per-block winners),
    then one ``sort().limit(k)`` over the ≤ k·blocks candidate rows —
    the exchange never carries the corpus."""
    import hashlib

    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.maximum(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64), 1
        )
        h = np.array(
            [
                int(hashlib.md5(f"pps:{i}".encode()).hexdigest()[:10], 16)
                for i in ids
            ],
            dtype=np.int64,
        )
        pri = (h << _PPS_SHIFT) // w
        df = (
            pd.DataFrame({"doc_id": ids, "n_chars": w, "pri": pri})
            .sort_values(["pri", "doc_id"], kind="mergesort")
            .head(k)
        )
        return pa.table(
            {
                c: pa.array(df[c].to_numpy(dtype=np.int64), pa.int64())
                for c in ("doc_id", "n_chars", "pri")
            }
        )

    return (
        ds.map_batches(local_topk, batch_format="pyarrow", batch_size=None)
        .sort(["pri", "doc_id"])
        .limit(k)
    )


_SQL_WEIGHTED_SAMPLE = f"""
SELECT doc_id,
       CAST(GREATEST(n_chars, 1) AS BIGINT) AS n_chars,
       (CAST('0x' || substr(md5('pps:' || CAST(doc_id AS VARCHAR)), 1, 10)
             AS BIGINT) * {1 << _PPS_SHIFT})
           // CAST(GREATEST(n_chars, 1) AS BIGINT) AS pri
FROM documents
ORDER BY pri, doc_id
LIMIT {_PPS_K}
"""


QUERIES = {
    "weighted_sample": q_weighted_sample,
    "doc_chunks": q_doc_chunks,
    "segment_dedup": q_segment_dedup,
    "substring_dedup": q_substring_dedup,
    "repetition_flags": q_repetition_flags,
    "semantic_dedup": q_semantic_dedup,
    "epoch_shuffle": q_epoch_shuffle,
    "train_split": q_train_split,
    "stratified_split": q_stratified_split,
    "temperature_mix": q_temperature_mix,
}

ORACLE_SQL = {
    "weighted_sample": _SQL_WEIGHTED_SAMPLE,
    "doc_chunks": _SQL_DOC_CHUNKS,
    "segment_dedup": _SQL_SEGMENT_DEDUP,
    "substring_dedup": _SQL_SUBSTRING_DEDUP,
    "repetition_flags": _SQL_REPETITION_FLAGS,
    "semantic_dedup": _SQL_SEMANTIC_DEDUP,
    "epoch_shuffle": _SQL_EPOCH_SHUFFLE,
    "train_split": _SQL_TRAIN_SPLIT,
    "stratified_split": _SQL_STRATIFIED_SPLIT,
    "temperature_mix": _SQL_TEMPERATURE_MIX,
}
