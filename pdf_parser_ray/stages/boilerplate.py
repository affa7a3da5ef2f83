"""HTML boilerplate stripping via text-density + link-density block
scoring (Readability/jusText-style — north-star component 1).

The tokenizer turns an HTML-ish document into blocks of ``word`` /
``link`` spans; the classifier keeps blocks whose link density and
length mark them as content and drops navigation/footer chrome. Both
steps are pure per-document batch transforms.

Sandbox corpus: each ``documents`` row is wrapped into a deterministic
page — nav header (all links), the text as content blocks, a
link-dense "related articles" box, and a footer — so the stripped
output must equal the whitespace-normalized original text. That gives
this operator a *real* SQL oracle: the classifier must drop exactly
the injected chrome and keep every content block.

Classifier rule (jusText-inspired, simplified to be deterministic):
a block is boilerplate iff ``link_density > 0.33`` or it contains
links and fewer than 5 words; all-text blocks are content.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.exchange import exchange

_NAV = ["Home", "About", "Contact", "Login", "Register"]
_RELATED = ["Related", "articles:", "Top", "stories", "Trending", "now"]
_FOOTER = ["Privacy", "Policy", "Terms", "Copyright", "2024"]
_CHUNK = 12


def html_tokenize(doc_id: int, text: str) -> list[dict]:
    """Deterministic HTML-ish span stream for one document: nav links,
    content word blocks (12 words per block), a link-dense related box,
    footer links. ``block`` groups spans; kind ∈ {word, link}."""
    spans = []
    block = 0

    def emit_block(words: list[str], kind: str) -> None:
        nonlocal block
        block += 1
        for w in words:
            spans.append({"block": block, "kind": kind, "text": w})

    emit_block(_NAV, "link")
    words = (text or "").split()
    for i in range(0, len(words), _CHUNK):
        emit_block(words[i : i + _CHUNK], "word")
    # link-dense box: links + one stray word (link_density 6/7 > 0.33)
    emit_block(_RELATED[:3], "link")
    spans.append({"block": block, "kind": "word", "text": "ad"})
    emit_block(_FOOTER, "link")
    return spans


def score_blocks(spans: list[dict]) -> list[dict]:
    """Per-block text/link densities (the jusText-style features)."""
    blocks: dict[int, dict] = {}
    for s in spans:
        b = blocks.setdefault(
            s["block"], {"block": s["block"], "n_words": 0, "n_links": 0, "words": []}
        )
        if s["kind"] == "link":
            b["n_links"] += 1
        else:
            b["n_words"] += 1
            b["words"].append(s["text"])
    out = []
    for b in sorted(blocks.values(), key=lambda x: x["block"]):
        total = b["n_words"] + b["n_links"]
        b["link_density"] = b["n_links"] / total if total else 0.0
        out.append(b)
    return out


def strip_boilerplate(spans: list[dict]) -> str:
    """Keep content blocks, join their words in order."""
    kept: list[str] = []
    for b in score_blocks(spans):
        if b["link_density"] > 0.33:
            continue
        if b["n_links"] > 0 and b["n_words"] < 5:
            continue
        kept.extend(b["words"])
    return " ".join(kept)


def q_boilerplate_strip(sf_dir: str):
    """documents → HTML-ish span stream → block scoring → content
    text. Oracle: content must equal the whitespace-normalized source
    text (the injected chrome — nav/related/footer — must all go)."""
    from ..io.sources import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        content = [strip_boilerplate(html_tokenize(i, t)) for i, t in zip(ids, texts)]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "content_text": pa.array(content, pa.string())}
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


_SQL_BOILERPLATE = r"""
SELECT doc_id,
       array_to_string(regexp_extract_all(text, '\S+'), ' ') AS content_text
FROM documents
"""

# ---------------------------------------------------------------------------
# chrome_strip — per-source frequency-based repeated-segment removal
# ---------------------------------------------------------------------------

CHROME_K = 8  # a segment repeated ≥K times within one source is chrome
_CHUNK_W = 16  # body words per segment (matches corpus._SEG convention)
_PROMO_MOD = 16  # promo-box key cycle: freq flips across the K line per sf
_AD_MOD = 128  # ad-box key cycle: stays under K at every test sf


def _chrome_h6(s: str) -> int:
    import hashlib

    return int(hashlib.md5(s.encode()).hexdigest()[:6], 16)


def synth_page_segments(doc_id: int, source: str, text: str) -> list[str]:
    """Deterministic segment list for one page: source-level nav
    header, a promo box shared by every ``doc_id % 16`` cohort of the
    source, an ad box on a 128 cycle, the body in 16-word chunks, and
    a source-level footer. The nav/footer repeat across ALL pages of a
    source (freq = docs-per-source ≫ K → always chrome); the promo's
    frequency crosses the K=8 line between sf0.001 (~25/16 < K, kept)
    and sf0.1 (~250/16 ≥ K, dropped) so the threshold is exercised in
    both directions by the committed two-sf evidence; the ad stays
    under K everywhere; body chunks are effectively unique."""
    segs = [
        f"nav {_chrome_h6(f'chr:{source}:h')} home login",
        f"promo {_chrome_h6(f'chr:{source}:{doc_id % _PROMO_MOD}:p')} click",
        f"ad {_chrome_h6(f'chr:{source}:{doc_id % _AD_MOD}:q')} buy",
    ]
    words = (text or "").split()
    for i in range(math.ceil(len(words) / _CHUNK_W)):
        segs.append(" ".join(words[i * _CHUNK_W : (i + 1) * _CHUNK_W]))
    segs.append(f"footer {_chrome_h6(f'chr:{source}:f')} copyright")
    return segs


def q_chrome_strip(sf_dir: str, n_buckets: int = 64):
    """Cross-page chrome removal, the CCNet/RefinedWeb companion to
    the per-page jusText classifier above: a segment is boilerplate
    iff it occurs ≥ CHROME_K times across its SOURCE's pages (site
    headers, footers, promo boxes repeat across a host's pages; real
    content does not). Where ``segment_dedup`` keeps the globally
    first instance, this drops EVERY instance of a frequent segment —
    the correct semantics for chrome, which has no "first" worth
    keeping.

    Shape (mirrors segment_dedup's two coarse-bucket exchanges):
    (1) segments shuffle by ``crc32(source|seg) % B`` and each bucket
    counts exact (source, seg) frequencies vectorized — the count is
    exact because one (source, seg) maps to one bucket; (2) flagged
    segments shuffle back by ``doc_id % B`` and documents reassemble
    in seg_idx order. Per-task memory is O(corpus/B); only segment
    rows ride the exchanges, and B scales with the corpus exactly like
    the dedup family's fingerprint buckets. At 10^12 docs the
    (source, seg) count grain is the corpus's distinct-chrome
    vocabulary — far smaller than the corpus itself."""
    from ..io.sources import read_parquet_clean, sized_blocks

    path = f"{sf_dir}/documents.parquet"
    ds = read_parquet_clean(
        path,
        columns=["doc_id", "source", "text"],
        override_num_blocks=sized_blocks(path),
    )

    def segments(batch: pa.Table) -> pa.Table:
        import zlib

        o_id: list[int] = []
        o_src: list[str] = []
        o_idx: list[int] = []
        o_seg: list[str] = []
        for d, s, t in zip(
            batch["doc_id"].to_pylist(),
            batch["source"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            for i, seg in enumerate(synth_page_segments(d, s, t)):
                o_id.append(d)
                o_src.append(s)
                o_idx.append(i)
                o_seg.append(seg)
        # the (source, seg) key packed into one int for the exchange
        seg_key = [zlib.crc32(f"{s}|{g}".encode()) for s, g in zip(o_src, o_seg)]
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "source": pa.array(o_src, pa.string()),
                "seg_idx": pa.array(o_idx, pa.int64()),
                "seg": pa.array(o_seg, pa.string()),
                "seg_key": pa.array(seg_key, pa.int64()),
            }
        )

    segs = ds.map_batches(segments, batch_format="pyarrow", batch_size=None)

    def flag_chrome(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        freq = g.groupby(["source", "seg"])["doc_id"].transform("size")
        keep = (freq < CHROME_K).to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "seg_idx": pa.array(g["seg_idx"].to_numpy(dtype=np.int64), pa.int64()),
                "seg": pa.array(g["seg"].tolist(), pa.string()),
                "kept": pa.array(keep.astype(np.int64), pa.int64()),
            }
        )

    flagged = exchange([(segs, "seg_key")], flag_chrome, n_buckets=n_buckets)

    def reassemble(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        o_id: list[int] = []
        o_txt: list[str] = []
        o_kept: list[int] = []
        o_chrome: list[int] = []
        for d, sub in g.groupby("doc_id", sort=False):
            sub = sub.sort_values("seg_idx", kind="mergesort")
            kept = sub[sub["kept"] == 1]
            o_id.append(int(d))
            o_txt.append(" ".join(kept["seg"].tolist()))
            o_kept.append(len(kept))
            o_chrome.append(len(sub) - len(kept))
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "clean_text": pa.array(o_txt, pa.string()),
                "n_kept": pa.array(o_kept, pa.int64()),
                "n_chrome": pa.array(o_chrome, pa.int64()),
            }
        )

    return exchange([(flagged, "doc_id")], reassemble, n_buckets=n_buckets)


_C_H6 = "CAST(CAST('0x' || substr(md5({e}), 1, 6) AS BIGINT) AS VARCHAR)"
_SRC_KEY = "'chr:' || source"

_SQL_CHROME_STRIP = f"""
WITH w AS (
    SELECT doc_id, source, regexp_extract_all(text, '\\S+') AS words
    FROM documents
),
c AS (
    SELECT doc_id, source, words,
           CAST(ceil(len(words) / {_CHUNK_W}.0) AS BIGINT) AS n_body
    FROM w
),
segs AS (
    SELECT doc_id, source, CAST(0 AS BIGINT) AS seg_idx,
           'nav ' || {_C_H6.format(e=_SRC_KEY + " || ':h'")} || ' home login' AS seg
    FROM c
    UNION ALL
    SELECT doc_id, source, 1,
           'promo ' || {_C_H6.format(e=_SRC_KEY + " || ':' || CAST(doc_id % " + str(_PROMO_MOD) + " AS VARCHAR) || ':p'")} || ' click'
    FROM c
    UNION ALL
    SELECT doc_id, source, 2,
           'ad ' || {_C_H6.format(e=_SRC_KEY + " || ':' || CAST(doc_id % " + str(_AD_MOD) + " AS VARCHAR) || ':q'")} || ' buy'
    FROM c
    UNION ALL
    SELECT doc_id, source, 3 + CAST(i AS BIGINT),
           array_to_string(words[i*{_CHUNK_W}+1 : i*{_CHUNK_W}+{_CHUNK_W}], ' ')
    FROM c, LATERAL unnest(range(n_body)) AS t(i)
    UNION ALL
    SELECT doc_id, source, 3 + n_body,
           'footer ' || {_C_H6.format(e=_SRC_KEY + " || ':f'")} || ' copyright'
    FROM c
),
f AS (
    SELECT *, COUNT(*) OVER (PARTITION BY source, seg) AS freq FROM segs
)
SELECT doc_id,
       COALESCE(string_agg(CASE WHEN freq < {CHROME_K} THEN seg END,
                           ' ' ORDER BY seg_idx), '') AS clean_text,
       CAST(SUM(CASE WHEN freq < {CHROME_K} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_kept,
       CAST(SUM(CASE WHEN freq >= {CHROME_K} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_chrome
FROM f
GROUP BY doc_id
"""

QUERIES = {
    "boilerplate_strip": q_boilerplate_strip,
    "chrome_strip": q_chrome_strip,
}
ORACLE_SQL = {
    "boilerplate_strip": _SQL_BOILERPLATE,
    "chrome_strip": _SQL_CHROME_STRIP,
}
