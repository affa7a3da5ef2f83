"""Deduplication operators: exact (hash-partitioned keep-first),
MinHash+LSH near-dup, an EXACT n-gram Jaccard similarity join
(prefix-filter candidates — lossless, vs the LSH sketch), and
SimHash — the corpus-dedup family a training-data pipeline needs
(SURVEY.md §2.7's cross-document analog of the reference's D1
dedup).

The driver's ``documents`` table has no duplicates, so the dedup
queries run over a deterministic *augmented* corpus: every 10th
document is duplicated verbatim (exact dups, id+1_000_000) and every
7th is duplicated with its first word rewritten (near dups,
id+2_000_000). The augmentation is pure SQL-expressible, so every
query here except the SimHash sketch has a DuckDB oracle — including
the near-dup pairs/clusters, whose oracle enumerates all pairs with
word-3-gram Jaccard in list lambdas (the spec the LSH path must
match).

Scale notes (the patterns, not the constants, are what matter at
100 TB):

* exact dedup shuffles md5 keys, never full texts;
* MinHash emits (band, band_hash, doc_id) rows — the groupby moves
  O(bands × docs) fixed-width rows; candidate verification resolves
  texts with explicit coarse-bucket hash joins (per-task memory
  O(corpus/B)); nothing materializes on the driver;
* cluster resolution is distributed min-label propagation (rounds of
  bucket-join + Min aggregate until the label sum fixpoints);
* all hashes are md5/crc-based — no process-seeded ``hash()``.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.exchange import exchange, message_round

_EXACT_EVERY = 10
_NEAR_EVERY = 7
_EXACT_BASE = 1_000_000
_NEAR_BASE = 2_000_000

_AUG_SQL = f"""
    SELECT doc_id, text FROM documents
    UNION ALL
    SELECT doc_id + {_EXACT_BASE} AS doc_id, text
    FROM documents WHERE doc_id % {_EXACT_EVERY} = 0
    UNION ALL
    SELECT doc_id + {_NEAR_BASE} AS doc_id,
           regexp_replace(text, '^\\S+', 'MUTATED') AS text
    FROM documents WHERE doc_id % {_NEAR_EVERY} = 0
"""


def augmented_corpus(sf_dir: str):
    """documents + exact copies (every 10th) + near copies (every 7th,
    first word rewritten). Pure per-row transform inside map_batches.

    Block count is floored at ~256 docs per block (footer row count —
    metadata only): the dedup chain runs FOUR sequential groupby
    barriers, and each barrier's latency scales with the partition
    count, so over-splitting a small corpus trades useful parallelism
    for pure shuffle overhead. Large corpora still get cpus×2 blocks
    (and Ray's dynamic block splitting beyond that)."""
    import ray
    import pyarrow.parquet as pq

    from ..io.sources import read_parquet_clean

    n_rows = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    cpu_blocks = int(ray.cluster_resources().get("CPU", 8)) * 2
    n_blocks = max(8, min(cpu_blocks, (n_rows + 255) // 256))
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=n_blocks,
    )

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # The augmentation encodes dup-kind in the id space
        # (+_EXACT_BASE / +_NEAR_BASE); guard the assumption instead of
        # silently colliding at larger corpora.
        if len(ids) and int(ids.max()) >= _EXACT_BASE:
            raise ValueError(
                f"augmented_corpus id-space overflow: max doc_id {int(ids.max())} "
                f">= _EXACT_BASE {_EXACT_BASE}"
            )
        texts = batch["text"].to_pylist()
        out_ids = list(ids)
        out_texts = list(texts)
        for i, t in zip(ids, texts):
            if i % _EXACT_EVERY == 0:
                out_ids.append(i + _EXACT_BASE)
                out_texts.append(t)
            if i % _NEAR_EVERY == 0:
                parts = (t or "").split(" ", 1)
                mut = "MUTATED" + (" " + parts[1] if len(parts) > 1 else "")
                out_ids.append(i + _NEAR_BASE)
                out_texts.append(mut if (t or "") else t)
        return pa.table(
            {"doc_id": pa.array(out_ids, pa.int64()), "text": pa.array(out_texts, pa.string())}
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


_FP_BUCKETS = 64


def _with_fp(ds):
    """Add the content fingerprint ``fp``. Its folds exchange on ``fp``
    into ``_FP_BUCKETS`` coarse buckets, and the per-fingerprint logic
    runs vectorized inside each bucket — hash-partition +
    per-group-first without per-tiny-group overhead."""

    def fn(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5((t or "").encode()).hexdigest() for t in batch["text"].to_pylist()]
        return batch.append_column("fp", pa.array(fps))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_dedup_exact(sf_dir: str):
    """Exact dedup over the augmented corpus: hash-partition on the
    content fingerprint (coarse bucket shuffle), keep the minimum
    doc_id per fingerprint group."""
    ds = _with_fp(augmented_corpus(sf_dir))

    def keep_first(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        idx = g.groupby("fp", sort=False)["doc_id"].idxmin()
        return g.loc[idx, ["doc_id", "text"]]

    return exchange([(ds, "fp")], keep_first, n_buckets=_FP_BUCKETS)


_SQL_DEDUP_EXACT = f"""
WITH aug AS ({_AUG_SQL})
SELECT doc_id, text FROM aug
WHERE doc_id IN (SELECT MIN(doc_id) FROM aug GROUP BY text)
"""


def q_dup_pairs_exact(sf_dir: str):
    """All exact-duplicate pairs (doc_a < doc_b) via per-fingerprint
    groups — never a cross join."""
    ds = _with_fp(augmented_corpus(sf_dir))

    def pairs(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        out_a, out_b = [], []
        for _fp, sub in g.groupby("fp", sort=False):
            if len(sub) < 2:
                continue
            ids = sorted(sub["doc_id"].tolist())
            for i, x in enumerate(ids):
                for y in ids[i + 1 :]:
                    out_a.append(x)
                    out_b.append(y)
        return pd.DataFrame(
            {"doc_a": np.array(out_a, dtype=np.int64), "doc_b": np.array(out_b, dtype=np.int64)}
        )

    return exchange([(ds, "fp")], pairs, n_buckets=_FP_BUCKETS)


_SQL_DUP_PAIRS = f"""
WITH aug AS ({_AUG_SQL})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM aug a JOIN aug b ON a.text = b.text AND a.doc_id < b.doc_id
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_N_PERM = 64
_N_BANDS = 16  # × 4 rows/band
_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(42)
_PERM_A = _rng.randint(1, _MERSENNE, size=_N_PERM, dtype=np.int64)
_PERM_B = _rng.randint(0, _MERSENNE, size=_N_PERM, dtype=np.int64)


def _shingles(text: str, k: int = 3) -> np.ndarray:
    """Word k-gram shingle hashes (crc32 of the joined gram —
    deterministic across processes)."""
    words = (text or "").split()
    if len(words) < k:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    if not grams:
        return np.zeros(0, dtype=np.int64)
    return np.unique(
        np.array([zlib.crc32(g.encode()) for g in grams], dtype=np.int64)
    )


def _minhash(sh: np.ndarray) -> np.ndarray:
    if len(sh) == 0:
        return np.full(_N_PERM, _MERSENNE, dtype=np.int64)
    # (a*x + b) mod p, min over shingles, per permutation
    vals = (sh[None, :] * _PERM_A[:, None] + _PERM_B[:, None]) % _MERSENNE
    return vals.min(axis=1)


def minhash_bands(batch: pa.Table) -> pa.Table:
    """doc → (band_id, band_hash, doc_id) rows for the LSH groupby."""
    out_band, out_hash, out_doc = [], [], []
    for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        mh = _minhash(_shingles(text))
        rows = _N_PERM // _N_BANDS
        for b in range(_N_BANDS):
            seg = mh[b * rows : (b + 1) * rows]
            h = hashlib.md5(seg.tobytes()).hexdigest()[:16]
            out_band.append(b)
            out_hash.append(h)
            out_doc.append(doc_id)
    return pa.table(
        {
            "band_id": pa.array(out_band, pa.int32()),
            "band_hash": pa.array(out_hash, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
        }
    )


def _gram_set(text: str, k: int = 3) -> set:
    """Word k-gram strings (unhashed — exact, collision-free; the
    crc32-hashed variant in :func:`_shingles` exists only for minhash)."""
    words = (text or "").split()
    if not words:
        return set()
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def jaccard_int(a: str, b: str, k: int = 3) -> tuple[int, int]:
    """(intersection, union) sizes of the word k-gram sets — all
    comparisons downstream stay in exact integer arithmetic so the
    DuckDB oracle (list_intersect/list_distinct) matches bit-for-bit."""
    sa, sb = _gram_set(a, k), _gram_set(b, k)
    return len(sa & sb), len(sa | sb)


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(_shingles(a, k).tolist()), set(_shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def candidate_pairs(corpus):
    """LSH candidate generation over ``corpus`` (an
    :func:`augmented_corpus`): band rows → coarse band_id groupby →
    within-band pairs. Everything stays a Dataset; nothing lands on
    the driver.

    The pairs are raw (possibly repeated — one hit per matching
    band): :func:`_resolve_pair_texts` dedupes them
    for free inside its existing bucket shuffle, because every
    repetition of a pair routes its halves to the same buckets. That
    keeps the chain at three all-to-all exchanges, not four; the cost
    is shipping ≤ n_bands copies of each candidate's fixed-width half
    rows through the resolve exchange instead of one."""
    bands = corpus.map_batches(minhash_bands, batch_format="pyarrow", batch_size=None)

    def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """All candidate pairs within one band partition. Grouping by
        band_id alone (16 coarse groups) keeps the shuffle coarse; the
        fine band_hash bucketing happens vectorized inside pandas —
        thousands of tiny ``map_groups`` groups would serialize on
        per-group overhead."""
        out_a, out_b = [], []
        for _h, sub in g.groupby("band_hash", sort=False):
            if len(sub) < 2:
                continue
            ids = sorted(set(sub["doc_id"].tolist()))
            for i, x in enumerate(ids):
                for y in ids[i + 1 :]:
                    out_a.append(x)
                    out_b.append(y)
        return pd.DataFrame(
            {"doc_a": np.array(out_a, dtype=np.int64), "doc_b": np.array(out_b, dtype=np.int64)}
        )

    return bands.groupby("band_id").map_groups(band_pairs, batch_format="pandas")


def _resolve_pair_texts(pairs, corpus, n_buckets: int = 16):
    """Attach both endpoint texts to every (doc_a, doc_b) pair with the
    corpus shuffled ONCE.

    Each pair emits two half rows — one keyed by each endpoint. The
    halves meet the corpus in one coarse ``doc_id % B`` exchange
    (``core.exchange.exchange``); inside each partition a pandas merge resolves the half's
    text (per-task memory O(corpus/B) — B sized so one bucket's corpus
    slice fits a worker's heap). A second, pairs-only shuffle
    recombines the two halves by pair key. At 100 TB the corpus
    exchange dominates, so one corpus pass beats the two-join
    formulation (one bucket join per side) it replaces; the pair-half
    exchanges are O(candidates), tiny.

    Contract: a pair referencing a doc_id absent from the corpus is
    dropped (its half finds no text; the final half-combine is an
    inner join). Candidates generated FROM the corpus can never hit
    this; pinned by ``TestPairTextResolve``."""

    def halves(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        n = len(a)
        return pa.table(
            {
                "key": pa.array(np.concatenate([a, b]), pa.int64()),
                "doc_a": pa.array(np.concatenate([a, a]), pa.int64()),
                "doc_b": pa.array(np.concatenate([b, b]), pa.int64()),
                "slot": pa.array(
                    np.concatenate(
                        [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
                    )
                ),
            }
        )

    def resolve_bucket(half: pa.Table, docs: pa.Table) -> pa.Table:
        # Repeated candidate pairs (one hit per matching LSH band, when
        # the caller skipped the distinct shuffle) collapse here: every
        # repetition of a pair routes identical half rows to this same
        # bucket, so a vectorized drop_duplicates is a global distinct.
        j = half.to_pandas().drop_duplicates().merge(
            docs.to_pandas(), left_on="key", right_on="doc_id", how="inner"
        )
        return pa.table(
            {
                "doc_a": pa.array(j["doc_a"].to_numpy(dtype=np.int64), pa.int64()),
                "doc_b": pa.array(j["doc_b"].to_numpy(dtype=np.int64), pa.int64()),
                "slot": pa.array(j["slot"].to_numpy(dtype=np.int8)),
                "text": pa.array(j["text"].tolist(), pa.string()),
            }
        )

    halves_resolved = exchange(
        [
            (
                pairs.map_batches(halves, batch_format="pyarrow", batch_size=None),
                "key",
                pa.schema(
                    {"key": pa.int64(), "doc_a": pa.int64(), "doc_b": pa.int64(), "slot": pa.int8()}
                ),
            ),
            (
                corpus.select_columns(["doc_id", "text"]),
                "doc_id",
                pa.schema({"doc_id": pa.int64(), "text": pa.string()}),
            ),
        ],
        resolve_bucket,
        n_buckets=n_buckets,
    )

    def combine(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        a_side = g[g["slot"] == 0][["doc_a", "doc_b", "text"]].rename(
            columns={"text": "text_a"}
        )
        b_side = g[g["slot"] == 1][["doc_a", "doc_b", "text"]].rename(
            columns={"text": "text_b"}
        )
        j = a_side.merge(b_side, on=["doc_a", "doc_b"], how="inner")
        return pa.table(
            {
                "doc_a": pa.array(j["doc_a"].to_numpy(dtype=np.int64), pa.int64()),
                "doc_b": pa.array(j["doc_b"].to_numpy(dtype=np.int64), pa.int64()),
                "text_a": pa.array(j["text_a"].tolist(), pa.string()),
                "text_b": pa.array(j["text_b"].tolist(), pa.string()),
            }
        )

    # both resolved halves of a pair carry its doc_a
    return exchange([(halves_resolved, "doc_a")], combine, n_buckets=n_buckets)


def _verify_pairs(with_ab, threshold: float):
    """Exact word-3-gram Jaccard verification of text-resolved
    candidate pairs, in integer arithmetic (keep iff
    |∩|·den ≥ num·|∪| for threshold = num/den). Emits
    ``jaccard_micro = ⌊10⁶·|∩|/|∪|⌋`` — exact integer division on both
    the Ray and SQL sides, so oracles hash-match. Shared by the LSH
    and prefix-filter candidate generators."""
    thr_num, thr_den = float(threshold).as_integer_ratio()

    def verify(batch: pa.Table) -> pa.Table:
        da = batch["doc_a"].to_pylist()
        db = batch["doc_b"].to_pylist()
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        keep_a, keep_b, keep_j = [], [], []
        for x, y, sx, sy in zip(da, db, ta, tb):
            inter, uni = jaccard_int(sx, sy)
            # inter/uni >= threshold, exactly, in integers
            if inter * thr_den >= thr_num * uni:
                keep_a.append(x)
                keep_b.append(y)
                keep_j.append(1_000_000 if uni == 0 else inter * 1_000_000 // uni)
        return pa.table(
            {
                "doc_a": pa.array(keep_a, pa.int64()),
                "doc_b": pa.array(keep_b, pa.int64()),
                "jaccard_micro": pa.array(keep_j, pa.int64()),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", batch_size=None)


def q_near_dup_pairs(sf_dir: str, threshold: float = 0.5):
    """MinHash+LSH near-dup: shingle → 64-perm minhash → 16 bands →
    bucket groupby → candidate pairs → both endpoint texts resolved
    (and the per-band pair repetitions deduplicated) in ONE corpus
    bucket-shuffle pass (:func:`_resolve_pair_texts`) → exact
    word-3-gram Jaccard verification (:func:`_verify_pairs`). Three
    all-to-all exchanges total — the standalone distinct-pairs shuffle
    is folded into the resolve exchange (see :func:`candidate_pairs`).

    Fully distributed: nothing is collected on the Ray driver — no
    ``to_pandas`` and no driver-side parquet read.

    The LSH bands and the resolve exchange both read the augmented
    corpus: it is read and augmented once and pinned for both when the
    pin fits (``core.util.pin_fits`` on the documents footer, the
    augmentation adding under a quarter of the rows), else each
    consumer recomputes it."""
    from ..core.util import parquet_uncompressed_bytes, pin_fits

    corpus = augmented_corpus(sf_dir)
    hint = parquet_uncompressed_bytes(f"{sf_dir}/documents.parquet")
    if pin_fits(hint + hint // 4 + 1):
        corpus = corpus.materialize()
    cand = candidate_pairs(corpus)
    return _verify_pairs(_resolve_pair_texts(cand, corpus), threshold)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard similarity join (prefix filtering)
# ---------------------------------------------------------------------------


def _prefix_len(n: int, thr_num: int, thr_den: int) -> int:
    """Prefix length for the prefix-filtering principle (Chaudhuri et
    al. 2006 / Bayardo et al. WWW'07 "All-Pairs"): with grams sorted
    by a fixed global total order, any pair A, B with
    Jaccard(A, B) ≥ t = num/den satisfies
    ``prefix(A) ∩ prefix(B) ≠ ∅`` where
    ``|prefix(X)| = |X| − ⌈t·|X|⌉ + 1``. Proof obligation pinned by
    ``TestNgramJaccard.test_prefix_filter_complete`` against random
    sets."""
    alpha = -((-thr_num * n) // thr_den)  # ⌈t·n⌉ exactly, in integers
    return n - alpha + 1


def prefix_gram_rows_loop(threshold: float, n_buckets: int = 32):
    """doc → one ``(gram_bucket, gram, doc_id, n_grams)`` row per
    *prefix* gram, for the inverted-index groupby. Global gram order is
    (crc32(gram), gram) — deterministic across processes with no
    global state. (The classic ascending-document-frequency order
    shrinks candidate counts by putting RARE grams in prefixes, but
    needs a DF pass plus a vocabulary-sized rank dictionary shipped to
    every task; hash order is the zero-extra-pass choice and is
    equally *correct* — any fixed total order preserves the
    completeness lemma. At 100 TB you would spend the DF pass.)

    Each row carries the gram's position ``pos`` in the doc's sorted
    gram list and the doc's gram count ``n_grams`` — the inputs to the
    PPJoin positional filter downstream.

    Docs with an empty gram set (empty/whitespace text) emit a single
    sentinel ``""`` row so empty docs still pair with each other
    (their Jaccard is defined as 1 here and in the SQL oracle); a real
    gram is always non-empty, so the sentinel cannot collide."""
    thr_num, thr_den = float(threshold).as_integer_ratio()

    def fn(batch: pa.Table) -> pa.Table:
        out_bucket, out_gram, out_doc, out_n, out_pos = [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            grams = sorted(_gram_set(text), key=lambda g: (zlib.crc32(g.encode()), g))
            n = len(grams)
            for pos, g in enumerate(grams[: _prefix_len(n, thr_num, thr_den)] if n else [""]):
                out_bucket.append(zlib.crc32(g.encode()) % n_buckets)
                out_gram.append(g)
                out_doc.append(doc_id)
                out_n.append(n)
                out_pos.append(pos)
        return pa.table(
            {
                "gram_bucket": pa.array(out_bucket, pa.int64()),
                "gram": pa.array(out_gram, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "n_grams": pa.array(out_n, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
            }
        )

    return fn


def _gram_pos_table(batch: pa.Table, k: int = 3):
    """Shared vectorized core of the gram-row emitters: flat-token
    k-gram construction via C-level ``binary_join_element_wise``,
    per-doc SET + (crc32, gram) global order — crc32 runs once per
    DISTINCT gram. Returns ``(ids, df[d, g, crc], n, pos, wc)`` with
    ``n`` = doc gram count, ``pos`` = the gram's rank in the doc's
    sorted gram list, ``wc`` = per-doc word counts (for the empty-doc
    sentinel decision, which differs per caller)."""
    import pyarrow.compute as pc

    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.utf8_split_whitespace(batch["text"])
    flat = pc.list_flatten(toks).combine_chunks()
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    if len(flat) and not pc.all(keep).as_py():
        m = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        parent = parent[m]
    L = len(flat)
    wc = np.zeros(batch.num_rows, dtype=np.int64)
    if L:
        np.add.at(wc, parent, 1)

    if L >= k:
        n_g = L - k + 1
        grams = pc.binary_join_element_wise(
            *[flat.slice(i, n_g) for i in range(k)], " "
        )
        valid = parent[:n_g] == parent[k - 1 :]
        df = pd.DataFrame(
            {"d": parent[:n_g][valid], "g": grams.filter(pa.array(valid)).to_pandas()}
        )
    else:
        df = pd.DataFrame({"d": np.array([], np.int64), "g": pd.Series([], dtype=object)})

    short = np.flatnonzero((wc > 0) & (wc < k))  # whole-doc gram
    if len(short):
        s = pd.DataFrame({"d": parent, "g": flat.to_pandas()})
        s = s[np.isin(parent, short)]
        joined = s.groupby("d", sort=False)["g"].agg(" ".join)
        df = pd.concat(
            [df, pd.DataFrame({"d": joined.index.to_numpy(), "g": joined.to_numpy()})],
            ignore_index=True,
        )

    df = df.drop_duplicates()  # gram SET per doc
    cmap = {g: zlib.crc32(g.encode()) for g in pd.unique(df["g"])}
    df = df.assign(crc=df["g"].map(cmap)).sort_values(
        ["d", "crc", "g"], kind="mergesort"
    )
    n = df.groupby("d", sort=False)["g"].transform("size").to_numpy(np.int64)
    pos = df.groupby("d", sort=False).cumcount().to_numpy(np.int64)
    return ids, df, n, pos, wc


def prefix_gram_rows_vec(threshold: float, n_buckets: int = 32, k: int = 3):
    """Vectorized twin of :func:`prefix_gram_rows_loop` (VERDICT r3
    item 6): the :func:`_gram_pos_table` core plus the Jaccard prefix
    cut. Output identical to the loop (asserted by the A/B
    tool and ``test_prefix_gram_rows_vec_equals_loop``); measured
    1.13× faster at sf0.1 (best-of-7, BASELINE.md) — the adopted
    formulation."""
    thr_num, thr_den = float(threshold).as_integer_ratio()

    def fn(batch: pa.Table) -> pa.Table:
        ids, df, n, pos, wc = _gram_pos_table(batch, k)
        alpha = -((-thr_num * n) // thr_den)  # ⌈t·n⌉
        m = pos < (n - alpha + 1)
        out_d = ids[df["d"].to_numpy()[m]]
        out_g = df["g"].to_numpy()[m]
        out_n = n[m]
        out_pos = pos[m]
        out_bucket = df["crc"].to_numpy(np.int64)[m] % n_buckets

        empties = np.flatnonzero(wc == 0)  # sentinel "" rows, n_grams=0
        if len(empties):
            out_d = np.concatenate([out_d, ids[empties]])
            out_g = np.concatenate([out_g, np.full(len(empties), "", object)])
            out_n = np.concatenate([out_n, np.zeros(len(empties), np.int64)])
            out_pos = np.concatenate([out_pos, np.zeros(len(empties), np.int64)])
            out_bucket = np.concatenate(
                [out_bucket, np.zeros(len(empties), np.int64)]  # crc32(b'') == 0
            )
        return pa.table(
            {
                "gram_bucket": pa.array(out_bucket, pa.int64()),
                "gram": pa.array(out_g.tolist(), pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "n_grams": pa.array(out_n, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
            }
        )

    return fn


# adopted formulation (see BASELINE.md A/B table)
prefix_gram_rows = prefix_gram_rows_vec


def ngram_candidate_pairs(corpus, threshold: float, n_buckets: int = 32):
    """Candidate pairs for an EXACT n-gram Jaccard join: prefix-gram
    inverted index → coarse ``crc32(gram) % B`` bucket exchange → pairs
    within each fine gram group (vectorized pandas grouping inside the
    coarse partition — the tiny-group ``map_groups`` trap again) →
    length filter (J ≥ t ⇒ t·|B| ≤ |A| for |A| ≤ |B|) pruned at pair
    time. Unlike LSH candidates these are COMPLETE: every pair at or
    above the threshold shares a prefix gram, so downstream exact
    verification yields the exact join, not a sketch approximation.

    Hot-gram blowup is tamed by two classic integer filters, both
    vectorized over ``np.triu_indices`` (no Python pair loop):

    * **length**: J ≥ t ⇒ t·max(|A|,|B|) ≤ min(|A|,|B|);
    * **positional** (PPJoin, Xiao et al.): at a shared prefix gram
      with positions (p_a, p_b), ``1 + min(|A|−p_a−1, |B|−p_b−1)`` is
      a valid upper bound on |A∩B| *at the pair's earliest shared
      prefix gram* (no common gram can precede it — see the proof in
      the docstring test), so requiring it ≥
      ⌈t·(|A|+|B|)/(1+t)⌉ at ANY shared gram never drops a true pair.

    Survivors are deduplicated once per partition (``np.unique`` on a
    packed pair key), capping cross-partition repetitions at
    ``n_buckets``; the remaining repeats collapse for free inside
    :func:`_resolve_pair_texts`'s bucket shuffle — same folded-distinct
    design as the LSH path. The exchange moves O(Σ prefix_len)
    fixed-width rows ≈ (1−t)·total-grams."""
    thr_num, thr_den = float(threshold).as_integer_ratio()
    rows = corpus.map_batches(
        prefix_gram_rows(threshold, n_buckets), batch_format="pyarrow", batch_size=None
    )
    pairs = _make_gram_pairs(thr_num, thr_den)
    return exchange([(rows, "gram_bucket")], pairs, n_buckets=n_buckets)


def _make_gram_pairs(thr_num: int, thr_den: int):
    """Per-gram-bucket candidate stage shared by the hash-ordered and
    DF-ordered prefix variants (the filters only need SOME fixed
    global gram order, applied consistently to both docs of a pair)."""

    def gram_pairs(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        # Fine grouping WITHOUT pandas groupby: factorize + stable sort
        # + boundary slicing, visiting only multi-row groups — a pandas
        # groupby loop here pays ~100 µs × tens of thousands of
        # singleton gram groups (the tiny-group trap, partition-local
        # edition).
        codes, _ = pd.factorize(g["gram"], sort=False)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        all_ids = g["doc_id"].to_numpy(dtype=np.int64)[order]
        all_ns = g["n_grams"].to_numpy(dtype=np.int64)[order]
        all_ps = g["pos"].to_numpy(dtype=np.int64)[order]
        bounds = np.flatnonzero(np.diff(codes)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(codes)]])
        keys = []
        for s, e in zip(starts, ends):
            m = int(e - s)
            if m < 2:
                continue
            ids = all_ids[s:e]
            ns = all_ns[s:e]
            ps = all_ps[s:e]
            i, j = np.triu_indices(m, 1)
            na, nb = ns[i], ns[j]
            lo_n = np.minimum(na, nb)
            hi_n = np.maximum(na, nb)
            len_ok = hi_n * thr_num <= lo_n * thr_den
            ub = 1 + np.minimum(na - ps[i] - 1, nb - ps[j] - 1)
            alpha = (thr_num * (na + nb) + thr_den + thr_num - 1) // (
                thr_den + thr_num
            )
            keep = len_ok & (ub >= alpha) & (ids[i] != ids[j])
            a = np.minimum(ids[i][keep], ids[j][keep])
            b = np.maximum(ids[i][keep], ids[j][keep])
            keys.append((a << np.int64(32)) | b)
        if not keys:
            return pd.DataFrame(
                {
                    "doc_a": np.zeros(0, dtype=np.int64),
                    "doc_b": np.zeros(0, dtype=np.int64),
                }
            )
        uniq = np.unique(np.concatenate(keys))
        return pd.DataFrame(
            {"doc_a": uniq >> np.int64(32), "doc_b": uniq & np.int64(0xFFFFFFFF)}
        )

    return gram_pairs


def ngram_candidate_pairs_df(corpus, threshold: float, n_buckets: int = 32):
    """DF-ordered twin of :func:`ngram_candidate_pairs` — the Vernica
    et al. (SIGMOD'10) order: each doc's prefix holds its RAREST grams
    (ascending document frequency), so hot grams fall out of prefixes
    and the per-gram candidate groups shrink on skewed corpora. This
    is the 'documented next lever' SCALE.md's join row named, built:

    1. full gram-set rows shuffle by ``crc32(gram) % B``; every
       instance of a gram lands in one bucket, so its GLOBAL df is an
       in-partition ``factorize`` + ``bincount`` — no vocabulary
       dictionary is ever broadcast;
    2. rows (now carrying df) shuffle back by ``doc_id % B``; each doc
       sorts its grams by the total order ``(df, crc32, gram)`` and
       keeps the prefix — one vectorized lexsort + boundary-slice per
       partition;
    3. the prefix rows re-shuffle by gram into the SAME pair stage as
       the hash-ordered variant (the filters hold for any shared total
       order).

    Price vs the base variant: the first two exchanges carry the FULL
    gram volume (not just prefixes) — spend it when hot grams dominate;
    the hash-ordered variant stays the default. Candidates remain
    COMPLETE (the prefix-filtering lemma needs only a fixed total
    order), so exact verification still yields the exact join —
    equality with the hash-ordered pairs is pinned in tests and by the
    shared oracle."""
    thr_num, thr_den = float(threshold).as_integer_ratio()

    def gram_doc_rows(batch: pa.Table) -> pa.Table:
        out_crc, out_gram, out_doc = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            grams = _gram_set(text) or {""}  # sentinel: empty docs still pair
            for g in grams:
                out_crc.append(zlib.crc32(g.encode()))
                out_gram.append(g)
                out_doc.append(doc_id)
        return pa.table(
            {
                "gram": pa.array(out_gram, pa.string()),
                # hashed ONCE here and carried through the exchanges —
                # the gram routing, the per-doc prefix sort and the
                # final re-bucketing reuse it instead of re-running a
                # Python crc loop over the full gram volume
                "crc": pa.array(out_crc, pa.int64()),
                "doc_id": pa.array(out_doc, pa.int64()),
            }
        )

    rows = corpus.map_batches(gram_doc_rows, batch_format="pyarrow", batch_size=None)

    def attach_df(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        codes, _ = pd.factorize(g["gram"], sort=False)
        df_col = np.bincount(codes)[codes]
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "gram": pa.array(g["gram"].tolist(), pa.string()),
                "crc": pa.array(g["crc"].to_numpy(dtype=np.int64), pa.int64()),
                "df": pa.array(df_col.astype(np.int64), pa.int64()),
            }
        )

    with_df = exchange([(rows, "crc")], attach_df, n_buckets=n_buckets)

    def prefix_per_doc(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        grams = np.asarray(g["gram"].tolist(), dtype=object)
        crc = g["crc"].to_numpy(dtype=np.int64)
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        dfs = g["df"].to_numpy(dtype=np.int64)
        order = np.lexsort((grams, crc, dfs, ids))
        ids, grams, crc = ids[order], grams[order], crc[order]
        bounds = np.flatnonzero(np.diff(ids)) + 1
        starts = np.concatenate([[0], bounds])
        sizes = np.diff(np.concatenate([starts, [len(ids)]]))
        n = np.repeat(sizes, sizes)
        pos = np.arange(len(ids), dtype=np.int64) - np.repeat(starts, sizes)
        # sentinel docs carry n_grams = 0 (matches the base variant and
        # the Jaccard(∅,∅)=1 convention in _verify_pairs)
        n = np.where(grams == "", 0, n)
        alpha = -((-thr_num * n) // thr_den)
        keep = pos < (n - alpha + 1)
        return pa.table(
            {
                "crc": pa.array(crc[keep], pa.int64()),
                "gram": pa.array(grams[keep].tolist(), pa.string()),
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_grams": pa.array(n[keep], pa.int64()),
                "pos": pa.array(pos[keep], pa.int64()),
            }
        )

    pref = exchange([(with_df, "doc_id")], prefix_per_doc, n_buckets=n_buckets)
    return exchange([(pref, "crc")], _make_gram_pairs(thr_num, thr_den), n_buckets=n_buckets)


def q_ngram_dedup_pairs_df(sf_dir: str, threshold: float = 0.5):
    """The DF-ordered n-gram Jaccard join exposed as a query — same
    exact-join semantics and oracle as ``ngram_dedup_pairs`` (both
    candidate generations are complete; verification is identical)."""
    corpus = augmented_corpus(sf_dir)
    cand = ngram_candidate_pairs_df(corpus, threshold)
    return _verify_pairs(_resolve_pair_texts(cand, corpus), threshold)


def q_ngram_dedup_pairs(sf_dir: str, threshold: float = 0.5):
    """Exact n-gram Jaccard near-dup join over the augmented corpus —
    the explicit n-gram-Jaccard dedup flavor (vs the MinHash *sketch*
    in :func:`q_near_dup_pairs`): prefix-filter candidate generation
    (:func:`ngram_candidate_pairs`, complete by the prefix-filtering
    lemma) → one-pass text resolve → exact integer Jaccard
    verification. Same output schema and SQL spec as
    ``near_dup_pairs``, but the oracle equality is GUARANTEED, not
    data-dependent: no sketch recall in the path."""
    corpus = augmented_corpus(sf_dir)
    cand = ngram_candidate_pairs(corpus, threshold)
    return _verify_pairs(_resolve_pair_texts(cand, corpus), threshold)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def _simhash_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, simhash) — the single spelling of the
    64-bit SimHash (md5 word features, sign-sum per bit), shared by
    :func:`q_simhash` and :func:`q_simhash_dup_pairs`."""
    out = []
    for text in batch["text"].to_pylist():
        words = (text or "").split()
        if not words:
            out.append(0)
            continue
        digests = b"".join(hashlib.md5(w.encode()).digest()[:8] for w in words)
        bits = np.unpackbits(
            np.frombuffer(digests, dtype=np.uint8).reshape(len(words), 8), axis=1
        ).astype(np.int32)
        acc = (bits * 2 - 1).sum(axis=0)
        sign_bits = np.packbits((acc > 0).astype(np.uint8))
        sh = int.from_bytes(sign_bits.tobytes(), "big")
        if sh >= 1 << 63:
            sh -= 1 << 64  # two's-complement into signed int64
        out.append(sh)
    return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(out, pa.int64())})


def q_simhash(sf_dir: str):
    """64-bit SimHash per document (word-feature md5 hashes, sign-sum
    per bit). Deterministic AND exactly SQL-replayable — the md5 word
    features let DuckDB re-derive every bit (``_SQL_SIMHASH``), so
    this sketch carries a full hash-equality oracle."""
    return augmented_corpus(sf_dir).map_batches(
        _simhash_batch, batch_format="pyarrow", batch_size=None
    )


SIMHASH_BANDS = 4  # 4 disjoint 16-bit bands
SIMHASH_MAX_HAMMING = 3  # pigeonhole: ≤3 differing bits ⇒ ≥1 band identical


def q_simhash_dup_pairs(sf_dir: str, n_buckets: int = 32):
    """SimHash near-dup pairs at Hamming distance ≤ 3 — the Manku,
    Jain, Das Sarma WWW 2007 web-dedup construction (public paper).

    Candidate generation is the pigeonhole banding: split each 64-bit
    fingerprint into 4 disjoint 16-bit bands; two fingerprints within
    Hamming 3 differ in at most 3 bands, so they COLLIDE on at least
    one — grouping by (band, band value) is therefore LOSSLESS for
    the ≤3 threshold and the O(N²) SQL twin is a full oracle, not a
    recall-dependent one (contrast ``near_dup_pairs``' MinHash note).

    Scale shape: the exchange carries (band, band_value, doc_id,
    simhash) fixed-width rows — 4 rows/doc, like MinHash's 16; pairs
    verify inside the band bucket with a vectorized byte-table
    popcount and dedup globally by pair bucket (a pair can collide in
    up to 4 bands)."""
    ds = augmented_corpus(sf_dir).map_batches(
        _simhash_batch, batch_format="pyarrow", batch_size=None
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        sh = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = sh.view(np.uint64)
        dids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(u)
        out_bucket, out_doc, out_sh = [], [], []
        for b in range(SIMHASH_BANDS):
            bv = ((u >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            out_bucket.append(b * 65536 + bv)
            out_doc.append(dids)
            out_sh.append(sh)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(out_bucket), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "simhash": pa.array(np.concatenate(out_sh), pa.int64()),
            }
        )

    _POP = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    ).astype(np.int64)

    def pairs(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        out_a, out_b = [], []
        for _k, sub in g.groupby("band_key", sort=False):
            if len(sub) < 2:
                continue
            sub = sub.drop_duplicates("doc_id").sort_values("doc_id")
            ids = sub["doc_id"].to_numpy(dtype=np.int64)
            sh = sub["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
            for i in range(len(ids) - 1):
                x = np.bitwise_xor(sh[i + 1 :], sh[i])
                ham = _POP[x.view(np.uint8).reshape(-1, 8)].sum(axis=1)
                hit = ham <= SIMHASH_MAX_HAMMING
                out_a.extend([int(ids[i])] * int(hit.sum()))
                out_b.extend(ids[i + 1 :][hit].tolist())
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
            }
        )

    keyed = ds.map_batches(band_rows, batch_format="pyarrow", batch_size=None)
    cand = exchange([(keyed, "band_key")], pairs, n_buckets=n_buckets)

    # a pair collides in up to 4 bands → global pair dedup, exchanged
    # on doc_a (fixed-width rows only, the near_dup_pairs pattern)
    def dedup(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        u = g.drop_duplicates(["doc_a", "doc_b"])
        return pa.table(
            {
                "doc_a": pa.array(u["doc_a"].to_numpy(dtype=np.int64), pa.int64()),
                "doc_b": pa.array(u["doc_b"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return exchange([(cand, "doc_a")], dedup, n_buckets=n_buckets)


def label_propagation_clusters(edges, max_rounds: int = 32):
    """Connected components over an edge Dataset ``(doc_a, doc_b)`` via
    distributed min-label propagation: each round
    (:func:`~pdf_parser_ray.core.exchange.message_round` over the
    undirected adjacency) every node takes the minimum label among
    itself and its neighbours, until the global label sum stops
    decreasing (labels only ever decrease, so equal sums ⟺ fixpoint).
    Rounds needed = component diameter + 1 — dup clusters are shallow,
    so a handful; running out of ``max_rounds`` raises ``RuntimeError``.
    Per-round state is the small ``(node, val)`` label table, at most 16
    blocks and materialized so round k doesn't re-execute rounds
    1..k-1; the adjacency is materialized once. Returns a Dataset
    ``(doc_id, cluster_rep)``, or with no edges at all the empty
    ``pa.Table`` of those two int64 columns: a Ray Dataset with no rows
    hands ``to_pandas()`` a frame with no columns."""

    def undirect(b: pa.Table) -> pa.Table:
        a, d = b["doc_a"].cast(pa.int64()), b["doc_b"].cast(pa.int64())
        return pa.concat_tables([pa.table({"src": a, "dst": d}), pa.table({"src": d, "dst": a})])

    adj = edges.map_batches(undirect, batch_format="pyarrow", batch_size=None).materialize()

    def send(adj_g: pa.Table, labels_g: pa.Table | None) -> pa.Table:
        # every node sends its label to itself and to its neighbours;
        # in the first round every node labels itself
        if labels_g is None:
            label = adj_g["src"]
        else:
            adj_g = adj_g.join(labels_g, keys="src", right_keys="node")
            label = adj_g["val"]
        return pa.concat_tables(
            [pa.table({"node": adj_g["src"], "val": label}), pa.table({"node": adj_g["dst"], "val": label})]
        )

    labels, prev_sum = None, None
    for _ in range(max_rounds):
        labels = message_round(adj, "src", labels, send, "min", n_buckets=16)
        new_sum = labels.sum("val")
        if new_sum is None:  # no edges at all → no clustered documents
            return pa.table({"doc_id": pa.array([], pa.int64()), "cluster_rep": pa.array([], pa.int64())})
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    else:
        # exhausted max_rounds while labels were still decreasing:
        # emitting partial labels would silently split components
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds "
            "(component diameter exceeds the bound); raise max_rounds"
        )

    def emit(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["node"], "cluster_rep": batch["val"]})

    return labels.map_batches(emit, batch_format="pyarrow", batch_size=None)


def q_near_dup_clusters(sf_dir: str, threshold: float = 0.5):
    """Near-dup cluster resolution: verified MinHash pairs → connected
    components via distributed min-label propagation
    (:func:`label_propagation_clusters` — no driver-side union-find,
    no pair materialization) → ``(doc_id, cluster_rep)`` with
    ``cluster_rep`` = min doc_id of the component. Unit tests assert
    equality with a reference union-find."""
    return label_propagation_clusters(q_near_dup_pairs(sf_dir, threshold))


# Word-3-gram Jaccard pairs in pure SQL (list lambdas), mirroring the
# Ray side exactly: same tokenization (\S+), same <3-word fallback,
# integer-exact threshold (2·|∩| ≥ |∪| ⟺ jaccard ≥ 0.5) and
# jaccard_micro = ⌊10⁶·|∩|/|∪|⌋ via integer division on both sides.
# NOTE: the oracle enumerates all O(N²) pairs — it is the *spec*; the
# Ray pipeline reaches the same answer via LSH candidates (recall of
# the 16-band/4-row sketch at j ≥ 0.5 is 1 − (1−j⁴)¹⁶ ≥ 0.645 per
# pair in theory, but the corpus's near-dups are first-word mutations
# with j ≈ 1 where recall is ≈ 1; verified empirically at every sf).
_SQL_GRAMS = f"""
    SELECT doc_id, CASE
        WHEN len(words) = 0 THEN CAST([] AS VARCHAR[])
        WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
        ELSE list_distinct(list_transform(range(1, len(words) - 1),
               i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
        END AS grams
    FROM (SELECT doc_id, regexp_extract_all(text, '\\S+') AS words
          FROM ({_AUG_SQL}))
"""

_SQL_NEAR_DUP_PAIRS = f"""
WITH sh AS ({_SQL_GRAMS}),
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           len(list_intersect(a.grams, b.grams)) AS inter,
           len(list_distinct(a.grams || b.grams)) AS uni
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b,
       CAST(CASE WHEN uni = 0 THEN 1000000
                 ELSE (inter * 1000000) // uni END AS BIGINT) AS jaccard_micro
FROM pairs
WHERE 2 * inter >= uni
"""

# Connected components over the verified pairs via a recursive
# reachability CTE; cluster_rep = min reachable node.
_SQL_NEAR_DUP_CLUSTERS = f"""
WITH RECURSIVE sh AS ({_SQL_GRAMS}),
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           len(list_intersect(a.grams, b.grams)) AS inter,
           len(list_distinct(a.grams || b.grams)) AS uni
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
),
edges AS (
    SELECT doc_a AS s, doc_b AS d FROM pairs WHERE 2 * inter >= uni
    UNION ALL
    SELECT doc_b AS s, doc_a AS d FROM pairs WHERE 2 * inter >= uni
),
reach(node, r) AS (
    SELECT s, s FROM edges
    UNION
    SELECT e.d, reach.r FROM reach JOIN edges e ON e.s = reach.node
)
SELECT node AS doc_id, CAST(MIN(r) AS BIGINT) AS cluster_rep
FROM reach GROUP BY node
"""


# ---------------------------------------------------------------------------
# Edit-distance near-dup pairs — blocked exact Levenshtein join
# ---------------------------------------------------------------------------

_EDIT_LEN_BUCKET = 16


def _levenshtein_bytes(a: bytes, b: bytes) -> int:
    """Unit-cost Levenshtein over UTF-8 BYTES — DuckDB's
    ``levenshtein`` is byte-based (pinned empirically: 'café'→'cafe'
    is 2, CJK one-byte substitutions are 1), so the engine matches
    that convention exactly. Wagner–Fischer with the inner
    cur[j] = min(m[j], cur[j-1]+1) recurrence solved as a vectorized
    prefix-min over (m[k] − k): one numpy pass per row instead of a
    Python cell loop."""
    if a == b:
        return 0
    pa_ = np.frombuffer(a, dtype=np.uint8)
    pb = np.frombuffer(b, dtype=np.uint8)
    if not len(pa_) or not len(pb):
        return max(len(pa_), len(pb))
    idx = np.arange(1, len(pb) + 1, dtype=np.int64)
    prev = np.arange(len(pb) + 1, dtype=np.int64)
    for i, ca in enumerate(pa_, 1):
        sub = prev[:-1] + (pb != ca)
        m = np.minimum(prev[1:] + 1, sub)
        t = np.minimum.accumulate(np.concatenate(([np.int64(i)], m - idx)))
        prev = t + np.arange(len(pb) + 1, dtype=np.int64)
    return int(prev[-1])


def q_edit_dup_pairs(sf_dir: str):
    """Near-duplicate pairs by EXACT edit distance: docs in the same
    (lang, ⌊n_chars/16⌋) block whose byte-level Levenshtein distance is
    ≤ 20 % of their combined length (``lev·10 ≤ la+lb``). The blocking
    IS the operator's contract — near-dups that straddle a length
    bucket or differ in language are out of scope by definition, and
    the oracle applies the identical blocking — which is what makes an
    exact-quadratic-verification operator scale: candidate pairs are
    all-pairs only WITHIN a block, O(Σ block²) with block sizes bounded
    by the (lang × length) histogram, never O(corpus²). The per-pair
    verification is the vectorized byte-DP above; a length prefilter
    (|la−lb|·10 > la+lb ⇒ impossible) drops pairs before any DP
    runs."""
    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "n_chars"],
    )

    def tag(batch: pa.Table) -> pa.Table:
        n = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("len_band", pa.array(n // _EDIT_LEN_BUCKET))

    def block_pairs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        lens = g["n_chars"].to_numpy(dtype=np.int64)
        texts = [t.encode("utf-8") for t in g["text"].tolist()]
        i, j = np.triu_indices(len(ids), 1)
        # length prefilter: lev ≥ |la−lb|, so |la−lb|·10 > la+lb is out
        ok = np.abs(lens[i] - lens[j]) * 10 <= lens[i] + lens[j]
        i, j = i[ok], j[ok]
        out_a, out_b, out_lev = [], [], []
        for ii, jj in zip(i, j):
            lev = _levenshtein_bytes(texts[ii], texts[jj])
            if lev * 10 <= lens[ii] + lens[jj]:
                out_a.append(ids[ii])
                out_b.append(ids[jj])
                out_lev.append(lev)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "lev": pa.array(out_lev, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
        .groupby(["lang", "len_band"])
        .map_groups(block_pairs, batch_format="pandas")
    )


_SQL_EDIT_DUP_PAIRS = f"""
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.text, b.text) AS BIGINT) AS lev
FROM documents a
JOIN documents b
  ON a.lang = b.lang
 AND a.n_chars // {_EDIT_LEN_BUCKET} = b.n_chars // {_EDIT_LEN_BUCKET}
 AND a.doc_id < b.doc_id
WHERE levenshtein(a.text, b.text) * 10 <= a.n_chars + b.n_chars
"""

# ---------------------------------------------------------------------------
# Incremental snapshot dedup (recurring-crawl anti join)
# ---------------------------------------------------------------------------


def q_dedup_incremental(sf_dir: str, snapshot_mod: int = 3, budget_bytes: "int | None" = None):
    """Dedup a NEW shard against a prior SNAPSHOT — the operation a
    recurring crawl pipeline runs on every ingest (CCNet/RefinedWeb
    style: never re-admit content the corpus already holds). The
    augmented corpus stands in for the lake; documents with
    ``doc_id % snapshot_mod == 0`` are the prior snapshot, the rest
    the incoming shard. A new document survives iff its exact content
    fingerprint (md5 of the text) appears nowhere in the snapshot.
    Output: ``(doc_id, content_sha)`` of the admitted documents.

    Scale shape — the ``customers_without_orders`` anti-join
    discipline applied at corpus grain, fingerprints only on the wire
    (never text): when the snapshot fingerprint set fits the broadcast
    budget (``core.util.broadcast_build_fits`` on the footer row
    count), the snapshot side collapses to a driver-built set shipped
    once via ``ray.put`` and the shard streams through one vectorized
    ``isin`` filter — zero shuffles. Past the budget, BOTH sides ship
    fixed-width ``(fp, side, doc_id)`` rows into one ``fp``
    exchange and the anti join runs vectorized per bucket (the twin;
    forced in tests via ``budget_bytes=1``, hash-identical output).
    The twin's two row kinds travel as one lone exchange side told
    apart by ``side``: both come from one corpus read, which a
    two-sided exchange would run twice. They share every column, so
    nothing is padded.
    In production the snapshot side is a persisted fingerprint index —
    this operator IS that index's build + probe in one plan."""
    import ray

    from ..core.util import BROADCAST_BUDGET_BYTES, broadcast_build_fits

    def tag_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "side",
            pa.array((ids % snapshot_mod == 0).astype(np.int8)),
        )

    tagged = _with_fp(augmented_corpus(sf_dir)).map_batches(
        tag_rows, batch_format="pyarrow", batch_size=None
    )

    fits = broadcast_build_fits(
        f"{sf_dir}/documents.parquet",
        bytes_per_key=64,  # 32-hex fp + set overhead; aug ≈ 1.25× rows
        budget_bytes=BROADCAST_BUDGET_BYTES if budget_bytes is None else budget_bytes,
    )
    if fits:
        # broadcast plan: snapshot fps → one driver set, shipped once
        snap = (
            tagged.filter(expr="side == 1")
            .select_columns(["fp"])
            .to_pandas()
        )
        snap_ref = ray.put(set(snap["fp"]))

        def admit(batch: pa.Table) -> pa.Table:
            import pandas as pd

            snap_set = ray.get(snap_ref)
            keep = (
                (batch["side"].to_numpy(zero_copy_only=False) == 0)
                & ~pd.Series(batch["fp"].to_pylist()).isin(snap_set).to_numpy()
            )
            kept = batch.filter(pa.array(keep))
            return pa.table(
                {"doc_id": kept["doc_id"], "content_sha": kept["fp"]}
            )

        return tagged.map_batches(admit, batch_format="pyarrow", batch_size=None)

    # shuffle twin: one fp exchange, vectorized per-bucket anti join
    def anti(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        new = g[g["side"] == 0]
        kept = new[~new["fp"].isin(g.loc[g["side"] == 1, "fp"])]
        return pa.table(
            {
                "doc_id": pa.array(kept["doc_id"].to_numpy(dtype=np.int64)),
                "content_sha": pa.array(kept["fp"].tolist(), pa.string()),
            }
        )

    keyed = tagged.select_columns(["fp", "side", "doc_id"])
    return exchange([(keyed, "fp")], anti, n_buckets=_FP_BUCKETS)


_SQL_DEDUP_INCREMENTAL = f"""
WITH aug AS ({_AUG_SQL}),
snap AS (SELECT DISTINCT md5(COALESCE(text, '')) AS h FROM aug WHERE doc_id % 3 = 0),
newdocs AS (SELECT doc_id, md5(COALESCE(text, '')) AS h
            FROM aug WHERE doc_id % 3 <> 0)
SELECT n.doc_id, n.h AS content_sha
FROM newdocs n LEFT JOIN snap s ON s.h = n.h
WHERE s.h IS NULL
"""


def q_near_dup_incremental(sf_dir: str, threshold: float = 0.5, snapshot_mod: int = 3):
    """NEAR-dup twin of :func:`q_dedup_incremental`: which incoming
    documents are near-duplicates of content the lake ALREADY holds?
    Exact-fingerprint admission (``dedup_incremental``) only rejects
    byte-identical recrawls; a recurring crawl also needs to catch the
    boilerplate-shifted / lightly-edited recrawl, which is this
    operator. Same split convention — ``doc_id % snapshot_mod == 0``
    is the prior snapshot, the rest the incoming shard. Output: one
    row per verified cross pair ``(doc_id, dup_of, jaccard_micro)``
    with ``doc_id`` the new document, ``dup_of`` the snapshot document
    it duplicates, word-3-gram Jaccard ≥ ``threshold`` exact-verified
    in integer arithmetic.

    Scale shape — the whole :func:`q_near_dup_pairs` discipline reused
    with one change in the band kernel: within an LSH bucket only
    new × snapshot pairs are emitted (the new×new and snap×snap
    quadrants are skipped entirely, which on a steady-state lake —
    |shard| ≪ |snapshot| — cuts candidate volume to the cross term).
    Three all-to-all exchanges, fingerprint/fixed-width rows on the
    wire, per-band repetitions collapsed for free inside the
    text-resolve exchange (:func:`_resolve_pair_texts`). In production
    the snapshot's band table is a persisted LSH index; this plan IS
    that index's build + probe fused."""
    corpus = augmented_corpus(sf_dir)
    bands = corpus.map_batches(minhash_bands, batch_format="pyarrow", batch_size=None)

    def cross_band_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """New × snapshot candidates within one band partition —
        same coarse-groupby / fine-vectorized discipline as
        ``band_pairs`` in :func:`candidate_pairs`."""
        out_a, out_b = [], []
        for _h, sub in g.groupby("band_hash", sort=False):
            ids = sub["doc_id"].to_numpy()
            snap_mask = ids % snapshot_mod == 0
            new_ids = np.unique(ids[~snap_mask])
            snap_ids = np.unique(ids[snap_mask])
            if len(new_ids) and len(snap_ids):
                out_a.append(np.repeat(new_ids, len(snap_ids)))
                out_b.append(np.tile(snap_ids, len(new_ids)))
        if out_a:
            a = np.concatenate(out_a).astype(np.int64)
            b = np.concatenate(out_b).astype(np.int64)
        else:
            a = b = np.zeros(0, dtype=np.int64)
        return pd.DataFrame({"doc_a": a, "doc_b": b})

    cand = bands.groupby("band_id").map_groups(cross_band_pairs, batch_format="pandas")
    verified = _verify_pairs(_resolve_pair_texts(cand, corpus), threshold)

    def orient(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_a"],
                "dup_of": batch["doc_b"],
                "jaccard_micro": batch["jaccard_micro"],
            }
        )

    return verified.map_batches(orient, batch_format="pyarrow", batch_size=None)


# Cross-side restriction of the exact O(N_new × N_snap) 3-gram Jaccard
# spec — same DATA-DEPENDENT recall note as _SQL_NEAR_DUP_PAIRS: the
# engine's 16-band/4-row sketch has recall ≈ 1 on this corpus's
# near-dups (j ≈ 0.8–1.0); a mismatch with MISSING rows on other data
# is sketch recall on a borderline pair, not an engine bug.
_SQL_NEAR_DUP_INCREMENTAL = f"""
WITH sh AS ({_SQL_GRAMS}),
pairs AS (
    SELECT a.doc_id AS doc_id, b.doc_id AS dup_of,
           len(list_intersect(a.grams, b.grams)) AS inter,
           len(list_distinct(a.grams || b.grams)) AS uni
    FROM sh a JOIN sh b ON a.doc_id % 3 <> 0 AND b.doc_id % 3 = 0
)
SELECT doc_id, dup_of,
       CAST(CASE WHEN uni = 0 THEN 1000000
                 ELSE (inter * 1000000) // uni END AS BIGINT) AS jaccard_micro
FROM pairs
WHERE 2 * inter >= uni
"""


# Exact SQL replay of the 64-bit SimHash: per word, the first 8 md5
# bytes expand to 64 bits (nibble lookup, MSB-first within nibble —
# the unpackbits order); per (doc, bit) the ±1 sign sum reduces; the
# 64 sign bits repack via HUGEINT shifts (integer-exact where ** would
# round through DOUBLE above 2^53) and drop into signed int64 range.
_SQL_SIMHASH_CHAIN = f"""
aug AS ({_AUG_SQL}),
w AS (SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS wrd FROM aug),
h AS (SELECT doc_id, md5(wrd) AS hx FROM w),
bits AS (
  SELECT doc_id, CAST(t.b AS BIGINT) AS b,
         (strpos('0123456789abcdef', substr(hx, 1 + CAST(t.b // 4 AS INT), 1)) - 1)
           // CASE CAST(t.b % 4 AS INT)
              WHEN 0 THEN 8 WHEN 1 THEN 4 WHEN 2 THEN 2 ELSE 1 END % 2 AS bit
  FROM h, LATERAL unnest(range(64)) AS t(b)
),
acc AS (SELECT doc_id, b, SUM(2 * bit - 1) AS s FROM bits GROUP BY doc_id, b),
sh AS (
  SELECT doc_id,
         SUM(CASE WHEN s > 0
             THEN (CAST(1 AS HUGEINT) << CAST(63 - b AS INT))
             ELSE CAST(0 AS HUGEINT) END) AS u
  FROM acc GROUP BY doc_id
),
shfinal AS (
  SELECT a.doc_id AS doc_id,
         CAST(CASE WHEN COALESCE(sh.u, 0) >= (CAST(1 AS HUGEINT) << 63)
              THEN COALESCE(sh.u, 0) - (CAST(1 AS HUGEINT) << 64)
              ELSE COALESCE(sh.u, 0) END AS BIGINT) AS simhash
  FROM aug a LEFT JOIN sh ON sh.doc_id = a.doc_id
)"""

_SQL_SIMHASH = f"""
WITH {_SQL_SIMHASH_CHAIN}
SELECT doc_id, simhash FROM shfinal
"""

# Full oracle (NOT recall-dependent): the banding is lossless for
# Hamming ≤ 3, so the engine must return exactly these pairs.
_SQL_SIMHASH_PAIRS = f"""
WITH {_SQL_SIMHASH_CHAIN}
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM shfinal a JOIN shfinal b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {SIMHASH_MAX_HAMMING}
"""


# ---------------------------------------------------------------------------
# Asymmetric containment join (sub-document duplication)
# ---------------------------------------------------------------------------

# Containment threshold as an exact rational (4/5) — float 0.8 is not
# exactly representable, so both sides compare with these integers.
_CONTAIN_NUM, _CONTAIN_DEN = 4, 5


def _containment_gram_rows(k: int = 3):
    """doc → one ``(crc, gram, doc_id, n_grams, in_prefix)``
    row per gram (ALL grams, not just the prefix): asymmetric
    containment needs the full inverted index on the CONTAINING side,
    while the prefix-filtering lemma applies only on the CONTAINED
    side — ``in_prefix`` marks the rows eligible to SEED a directed
    pair. Built on the shared :func:`_gram_pos_table` vectorized core
    (same (crc32, gram) global order as the Jaccard path). Empty docs
    emit nothing (documented precondition: containment over empty
    gram sets is excluded on both sides)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids, df, n, pos, _wc = _gram_pos_table(batch, k)
        # C(A→B) ≥ t ⇒ A shares ≥ ⌈t·n⌉ grams with B ⇒ at least one
        # shared gram among A's first n − ⌈t·n⌉ + 1 grams.
        alpha = -((-_CONTAIN_NUM * n) // _CONTAIN_DEN)  # ⌈t·n⌉
        in_prefix = pos < (n - alpha + 1)
        return pa.table(
            {
                "crc": pa.array(df["crc"].to_numpy(np.int64), pa.int64()),
                "gram": pa.array(df["g"].tolist(), pa.string()),
                "doc_id": pa.array(ids[df["d"].to_numpy()], pa.int64()),
                "n_grams": pa.array(n, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "in_prefix": pa.array(in_prefix, pa.bool_()),
            }
        )

    return fn


def _containment_pairs_bucket(g: pa.Table) -> pd.DataFrame:
    """Per-gram-bucket DIRECTED candidate pairs (contained → containing):
    for each fine gram group, prefix-flagged rows seed pairs against
    every row of the group, pruned by two integer filters — length
    (``t·n_a ≤ n_b``) and the positional upper bound
    ``1 + min(n_a−p_a−1, n_b−p_b−1) ≥ ⌈t·n_a⌉`` (valid at the pair's
    EARLIEST shared gram, where no common gram precedes either
    position; a pair seeded at a later gram may be dropped there but
    always survives its earliest-gram emission — the same argument as
    the Jaccard path's PPJoin filter). Vectorized per group via
    broadcasted index grids; pair keys dedup once per partition."""
    g = g.to_pandas()
    codes, _ = pd.factorize(g["gram"], sort=False)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    all_ids = g["doc_id"].to_numpy(dtype=np.int64)[order]
    all_ns = g["n_grams"].to_numpy(dtype=np.int64)[order]
    all_ps = g["pos"].to_numpy(dtype=np.int64)[order]
    all_pfx = g["in_prefix"].to_numpy()[order]
    bounds = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(codes)]])
    keys = []
    for s, e in zip(starts, ends):
        m = int(e - s)
        if m < 2:
            continue
        ids = all_ids[s:e]
        ns = all_ns[s:e]
        ps = all_ps[s:e]
        seed = np.flatnonzero(all_pfx[s:e])
        if not len(seed):
            continue
        # directed grid: contained index i (prefix rows) × containing j
        i = np.repeat(seed, m)
        j = np.tile(np.arange(m), len(seed))
        na, nb = ns[i], ns[j]
        alpha = (_CONTAIN_NUM * na + _CONTAIN_DEN - 1) // _CONTAIN_DEN
        ub = 1 + np.minimum(na - ps[i] - 1, nb - ps[j] - 1)
        keep = (
            (ids[i] != ids[j])
            & (_CONTAIN_NUM * na <= _CONTAIN_DEN * nb)
            & (ub >= alpha)
        )
        keys.append((ids[i][keep] << np.int64(32)) | ids[j][keep])
    if not keys:
        return pd.DataFrame(
            {
                "doc_a": np.zeros(0, dtype=np.int64),
                "doc_b": np.zeros(0, dtype=np.int64),
            }
        )
    uniq = np.unique(np.concatenate(keys))
    return pd.DataFrame(
        {"doc_a": uniq >> np.int64(32), "doc_b": uniq & np.int64(0xFFFFFFFF)}
    )


def q_containment_dup_pairs(sf_dir: str):
    """Asymmetric n-gram CONTAINMENT join: every directed pair
    (contained, containing) with ``|grams(A) ∩ grams(B)| ≥ ⅘·|grams(A)|``
    — the sub-document duplication detector symmetric Jaccard misses
    by construction (a paragraph quoted inside a 100× larger page has
    J ≈ 0.01 but containment ≈ 1; Broder's "roughly contained"
    relation, the curation rule for quote-farms and scraped-into-
    aggregator content).

    Complete, not a sketch: candidates come from a prefix-filtered
    inverted index where the prefix lemma is applied on the CONTAINED
    side only (pigeonhole over ⌈t·|A|⌉ required shared grams) and the
    containing side indexes ALL grams — every qualifying directed pair
    shares a contained-prefix gram, then exact integer verification
    (``|∩|·5 ≥ 4·|A|``) decides. Same three-exchange shape as the
    Jaccard path: gram-bucket candidates → one-corpus-pass text
    resolve (:func:`_resolve_pair_texts`) → vectorized verify. Empty
    docs are excluded on both sides (precondition, mirrored in SQL).

    Emits ``containment_micro = ⌊10⁶·|∩|/|A|⌋`` per surviving directed
    pair — both directions appear when two docs mutually contain each
    other (exact copies)."""
    corpus = augmented_corpus(sf_dir)
    rows = corpus.map_batches(
        _containment_gram_rows(), batch_format="pyarrow", batch_size=None
    )
    cand = exchange([(rows, "crc")], _containment_pairs_bucket, n_buckets=32)

    def verify(batch: pa.Table) -> pa.Table:
        da = batch["doc_a"].to_pylist()
        db = batch["doc_b"].to_pylist()
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        keep_a, keep_b, keep_c = [], [], []
        # Candidate pairs heavily share endpoints (one doc pairs with
        # many); build each doc's gram set once per batch, not once
        # per pair — same results, ~pairs/docs fewer set builds.
        cache: dict[int, frozenset] = {}

        def grams_of(doc: int, text: str) -> frozenset:
            s = cache.get(doc)
            if s is None:
                s = frozenset(_gram_set(text))
                cache[doc] = s
            return s

        for x, y, sx, sy in zip(da, db, ta, tb):
            sa, sb = grams_of(x, sx), grams_of(y, sy)
            if not sa or not sb:
                continue
            inter = len(sa & sb)
            if inter * _CONTAIN_DEN >= _CONTAIN_NUM * len(sa):
                keep_a.append(x)
                keep_b.append(y)
                keep_c.append(inter * 1_000_000 // len(sa))
        return pa.table(
            {
                "doc_a": pa.array(keep_a, pa.int64()),
                "doc_b": pa.array(keep_b, pa.int64()),
                "containment_micro": pa.array(keep_c, pa.int64()),
            }
        )

    return _resolve_pair_texts(cand, corpus).map_batches(
        verify, batch_format="pyarrow", batch_size=None
    )


# Directed containment pairs in pure SQL — the spec twin: same grams,
# same exact-rational threshold, same empty-doc exclusion. Guaranteed
# equality (prefix-filter candidates are complete), no recall caveat.
_SQL_CONTAINMENT_PAIRS = f"""
WITH sh AS ({_SQL_GRAMS}),
pairs AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           len(list_intersect(a.grams, b.grams)) AS inter,
           len(a.grams) AS na
    FROM sh a JOIN sh b ON a.doc_id != b.doc_id
    WHERE len(a.grams) > 0 AND len(b.grams) > 0
)
SELECT doc_a, doc_b,
       CAST((inter * 1000000) // na AS BIGINT) AS containment_micro
FROM pairs
WHERE {_CONTAIN_DEN} * inter >= {_CONTAIN_NUM} * na
"""


def q_dup_cluster_histogram(sf_dir: str):
    """Size distribution of exact-duplicate clusters — the dedup
    family's SUMMARY view: per cluster size k, how many fingerprint
    clusters and how many documents sit in k-fold duplication. Corpus
    reports lead with exactly this table ("X% of docs are in 2+
    clusters; the largest cluster has k copies") before any dedup
    pass runs; the singleton row doubles as the unique-content count.

    Shape: the shared fingerprint bucket exchange (md5 keys on the
    wire, never text) → per-bucket cluster sizes fold to (size →
    count) partials → ONE tiny (≤ max-cluster-size) exchange → the
    bounded histogram. Same grain class as the sketch read-offs."""
    from ray.data.aggregate import Sum

    ds = _with_fp(augmented_corpus(sf_dir))

    def size_partials(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        sizes = g.groupby("fp", sort=False).size()
        hist = sizes.value_counts()
        k = hist.index.to_numpy(np.int64)
        return pa.table(
            {
                "cluster_size": pa.array(k),
                "n_clusters": pa.array(hist.to_numpy(np.int64)),
            }
        )

    out = (
        exchange([(ds, "fp")], size_partials, n_buckets=_FP_BUCKETS)
        .groupby("cluster_size")
        .aggregate(Sum("n_clusters", alias_name="n_clusters"))
        .to_pandas()  # bounded: one row per distinct cluster size
        .sort_values("cluster_size")
        .reset_index(drop=True)
    )
    out["n_docs"] = out["cluster_size"] * out["n_clusters"]
    return out.astype(np.int64)


_SQL_DUP_CLUSTER_HISTOGRAM = f"""
WITH aug AS ({_AUG_SQL}),
c AS (SELECT text, CAST(COUNT(*) AS BIGINT) AS k FROM aug GROUP BY text)
SELECT k AS cluster_size,
       CAST(COUNT(*) AS BIGINT) AS n_clusters,
       CAST(k * COUNT(*) AS BIGINT) AS n_docs
FROM c GROUP BY k
"""


QUERIES = {
    "dedup_exact": q_dedup_exact,
    "dup_cluster_histogram": q_dup_cluster_histogram,
    "dedup_incremental": q_dedup_incremental,
    "dup_pairs_exact": q_dup_pairs_exact,
    "near_dup_incremental": q_near_dup_incremental,
    "near_dup_pairs": q_near_dup_pairs,
    "ngram_dedup_pairs": q_ngram_dedup_pairs,
    "ngram_dedup_pairs_df": q_ngram_dedup_pairs_df,
    "near_dup_clusters": q_near_dup_clusters,
    "simhash": q_simhash,
    "simhash_dup_pairs": q_simhash_dup_pairs,
    "edit_dup_pairs": q_edit_dup_pairs,
    "containment_dup_pairs": q_containment_dup_pairs,
}

ORACLE_SQL = {
    "dup_cluster_histogram": _SQL_DUP_CLUSTER_HISTOGRAM,
    "dedup_exact": _SQL_DEDUP_EXACT,
    "dedup_incremental": _SQL_DEDUP_INCREMENTAL,
    "dup_pairs_exact": _SQL_DUP_PAIRS,
    "near_dup_incremental": _SQL_NEAR_DUP_INCREMENTAL,
    "edit_dup_pairs": _SQL_EDIT_DUP_PAIRS,
    # DATA-DEPENDENT oracle: the SQL computes the EXACT O(N²) 3-gram
    # Jaccard pairs, while the engine path is MinHash-LSH-banded
    # (16 bands × 4 rows) + exact verification of candidates. Equality
    # therefore requires LSH recall = 1 on the corpus — guaranteed
    # for the synthetic near-dup pairs (j ≈ 0.8–1.0) but ~0.65 in
    # theory for a pair sitting just above j = 0.5. If this row ever
    # mismatches with MISSING pairs (never extra), diagnose as sketch
    # recall on a borderline pair, not an engine bug —
    # tests/test_ray_integration.py::test_lsh_recall_on_corpus pins
    # the distinction.
    "near_dup_pairs": _SQL_NEAR_DUP_PAIRS,
    # Same SQL spec, but equality is GUARANTEED here: the prefix-filter
    # candidate generation is complete (lossless), so this row is a
    # full oracle with no sketch-recall caveat.
    "ngram_dedup_pairs": _SQL_NEAR_DUP_PAIRS,
    # DF-ordered prefixes: same completeness lemma, same guarantee.
    "ngram_dedup_pairs_df": _SQL_NEAR_DUP_PAIRS,
    # same candidate generation feeds the clustering — same caveat
    "near_dup_clusters": _SQL_NEAR_DUP_CLUSTERS,
    # simhash: md5 word features make the sketch exactly SQL-replayable
    # (upgraded from rows-only in round 5): DuckDB re-derives each
    # word's 64 leading md5 bits nibble-by-nibble, sign-sums per bit
    # position, repacks the sign vector with exact HUGEINT shifts, and
    # folds into two's-complement int64 — bit-identical to numpy's
    # unpackbits/packbits path.
    "simhash": _SQL_SIMHASH,
    "simhash_dup_pairs": _SQL_SIMHASH_PAIRS,
    # Guaranteed-equality oracle (complete prefix-filter candidates):
    # exact O(N²) directed containment spec.
    "containment_dup_pairs": _SQL_CONTAINMENT_PAIRS,
}
