"""Multimodal (image/audio/video) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata;
decode / feature-extract stages are actor-pool ``map_batches`` stages
whose *plumbing* (schema, batch sizing, actor signature, output
layout) is real while the codec itself is stubbed — the image/audio
libraries are not in this container, so ``use_real_codecs=True``
raises ``NotImplementedError`` at the exact point a production build
would call the decoder.

Batch-size note: binary rows are wide — the media stages default to
small ``batch_size`` so batch × concurrency stays inside a worker's
heap; blocks of large payloads should flow with
``DataContext.target_max_block_size`` raised rather than split into
absurdly small chunks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..core.exchange import exchange

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("media_type", pa.string()),
        pa.field("payload", pa.large_binary()),
    ]
)


def docs_to_media_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) rows → synthetic binary media rows — the single
    copy of the payload/typing rule, shared by
    :func:`synth_media_corpus` and :func:`q_media_dedup`."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    payloads = [(t or "").encode("utf-8") for t in texts]
    types = ["image" if i % 3 else "audio" for i in ids]
    return pa.Table.from_pydict(
        {"doc_id": ids, "media_type": types, "payload": payloads},
        schema=MEDIA_SCHEMA,
    )


def synth_media_corpus(sf_dir: str):
    """Deterministic binary payloads derived from each document's text
    (stand-in for real image bytes; built inside map_batches)."""
    from ..io.sources import read_parquet_clean, sized_blocks

    path = f"{sf_dir}/documents.parquet"
    ds = read_parquet_clean(
        path, columns=["doc_id", "text"], override_num_blocks=sized_blocks(path)
    )
    return ds.map_batches(docs_to_media_batch, batch_format="pyarrow", batch_size=1024)


class MediaDecodeStub:
    """Actor-pool decode/feature stage. ``__init__`` is where a real
    build loads codecs/models once per actor; ``__call__`` extracts
    per-payload features. The stub derives deterministic pseudo
    dimensions from the payload; the real path raises at the decoder
    call site."""

    def __init__(self, use_real_codecs: bool = False):
        self.use_real_codecs = use_real_codecs
        if use_real_codecs:
            # Production: import PIL / torchaudio / decord here.
            raise NotImplementedError(
                "real media codecs are not available in this environment; "
                "run with use_real_codecs=False for the deterministic stub"
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        sha = [hashlib.sha256(p).hexdigest() for p in payloads]
        width = (n_bytes % 64 + 1).astype(np.int64)
        height = (n_bytes % 48 + 1).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media_type": batch["media_type"],
                "n_bytes": pa.array(n_bytes),
                "sha256": pa.array(sha, pa.string()),
                "width": pa.array(width),
                "height": pa.array(height),
            }
        )


class MediaResizeStub:
    """Actor-pool resize stage: same plumbing contract as decode —
    binary in, binary out plus target dims. The stub truncates/pads the
    payload deterministically in place of a real resample."""

    def __init__(self, width: int = 32, height: int = 24, use_real_codecs: bool = False):
        if use_real_codecs:
            raise NotImplementedError("image codecs unavailable in this environment")
        self.width = width
        self.height = height

    def __call__(self, batch: pa.Table) -> pa.Table:
        target = self.width * self.height
        resized = [
            (p[:target] if len(p) >= target else p + b"\x00" * (target - len(p)))
            for p in batch["payload"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(resized, pa.large_binary()),
                "width": pa.array([self.width] * len(batch), pa.int64()),
                "height": pa.array([self.height] * len(batch), pa.int64()),
            }
        )


class FrameSampleStub:
    """Actor-pool frame sampler for video-typed payloads: emits every
    k-th fixed-size chunk of the payload as one "frame" row (flat_map
    layout — one input row fans out to n frames). The chunking stands
    in for a real demuxer; the fan-out schema and batch sizing are the
    production contract."""

    def __init__(self, frame_bytes: int = 16, stride: int = 4, use_real_codecs: bool = False):
        if use_real_codecs:
            raise NotImplementedError("video codecs unavailable in this environment")
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_frame = [], [], []
        for doc_id, p in zip(batch["doc_id"].to_pylist(), batch["payload"].to_pylist()):
            n_frames = max(1, len(p) // self.frame_bytes)
            for fi in range(0, n_frames, self.stride):
                out_doc.append(doc_id)
                out_idx.append(fi)
                out_frame.append(p[fi * self.frame_bytes : (fi + 1) * self.frame_bytes])
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "frame_index": pa.array(out_idx, pa.int64()),
                "frame": pa.array(out_frame, pa.large_binary()),
            }
        )


def decode_media(ds):
    """Run ``ds``'s media rows through the :class:`MediaDecodeStub`
    actor pool. The actors reserve no CPU: a pool actor holding a
    reserved CPU waits for rows from the read task upstream of it, and
    in a 1- or 2-CPU session no CPU is left for that task to start, so
    the query never finishes."""
    return ds.map_batches(
        MediaDecodeStub,
        fn_constructor_kwargs={"use_real_codecs": False},
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=2,
        num_cpus=0,
    )


def q_media_features(sf_dir: str):
    """Binary corpus → actor-pool decode stub → per-item features.
    The sha256/width/height derivations are SQL-reproducible, giving
    the media plumbing a full oracle even though decode is stubbed."""
    return decode_media(synth_media_corpus(sf_dir))


_SQL_MEDIA = """
SELECT doc_id,
       CASE WHEN doc_id % 3 <> 0 THEN 'image' ELSE 'audio' END AS media_type,
       CAST(strlen(text) AS BIGINT) AS n_bytes,
       sha256(text) AS sha256,
       CAST(strlen(text) % 64 + 1 AS BIGINT) AS width,
       CAST(strlen(text) % 48 + 1 AS BIGINT) AS height
FROM documents
"""

def q_media_dedup(sf_dir: str, n_buckets: int = 32):
    """Content-hash dedup of a BINARY media column — the CommonCrawl
    image-dedup pass (drop payloads whose bytes hash-match an earlier
    item), run through the real multimodal plumbing: augmented binary
    corpus → actor-pool decode stub (sha256 happens where a real build
    would also extract features, one codec init per actor) → coarse
    hash-bucket shuffle carrying (doc_id, type, sha256) rows, never
    payloads → vectorized keep-min-doc per digest. The text-side twin
    is :func:`~.dedup.q_dedup_exact`; this one exists because binary
    columns can't reuse the text path's fingerprint kernels and the
    exchange discipline (hash rows, not blobs) is the 100-TB-critical
    part."""
    from .dedup import augmented_corpus

    docs = augmented_corpus(sf_dir)

    feats = decode_media(
        docs.map_batches(docs_to_media_batch, batch_format="pyarrow", batch_size=1024)
    ).select_columns(["doc_id", "media_type", "sha256"])

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        idx = g.groupby("sha256", sort=False)["doc_id"].idxmin()
        kept = g.loc[idx]
        return pa.table(
            {
                "doc_id": pa.array(kept["doc_id"].to_numpy(dtype="int64"), pa.int64()),
                "media_type": pa.array(kept["media_type"].tolist(), pa.string()),
                "sha256": pa.array(kept["sha256"].tolist(), pa.string()),
            }
        )

    return exchange([(feats, "sha256")], keep_first, n_buckets=n_buckets)


def q_resolve_media_refs(sf_dir: str, n_buckets: int = 32):
    """Ordered span sequences with media refs RESOLVED — the north
    star's step (3): the flagship's ``media://`` spans (checkbox /
    highlight hits, reference `response_extractor.py` emits these as
    debug-image side effects) join the per-document media feature
    table (decode-stub sha256/dims — where a real build carries the
    decoded figure/table attributes) so downstream consumers get the
    span sequence *plus* the media payload metadata in one table.

    Scale shape: BOTH sides are corpus-scale at 10^12 docs (spans:
    many per doc; features: one per doc), so no broadcast — the ref
    parse (page / element class / element index) is vectorized Arrow
    regex inside the extraction stream, then ONE tagged-union bucket
    exchange keyed on the source doc (``core.exchange.exchange``)
    meets the two sides; only fixed-width
    rows (refs, sha, dims) travel, never payloads. The feature side is
    unique per doc_id, satisfying the join-then-X invariant."""
    import pyarrow.compute as pc

    from ..pipelines.extract import flagship

    spans = flagship(sf_dir)

    def media_hits(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.starts_with(batch["media_ref"], "media://"))
        # span doc ids are "doc-{source:08d}" (sandbox corpus synth);
        # the slice-parse below is the inverse of that formatting
        src = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 12), pa.int64())
        ex = pc.extract_regex(b["media_ref"], r"/p(?P<page>\d+)/(?P<elem>cb|hl)-(?P<idx>\d+)$")
        return pa.table(
            {
                "src_doc": src,
                "kind": b["kind"],
                "media_ref": b["media_ref"],
                "offset": pc.cast(b["offset"], pa.int64()),
                "page": pc.cast(pc.struct_field(ex, "page"), pa.int64()),
                "elem": pc.struct_field(ex, "elem"),
                "elem_idx": pc.cast(pc.struct_field(ex, "idx"), pa.int64()),
            }
        )

    hits = spans.map_batches(media_hits, batch_format="pyarrow", batch_size=None)
    feats = q_media_features(sf_dir).select_columns(
        ["doc_id", "media_type", "sha256", "width", "height"]
    )

    def post(refs: pa.Table, feat: pa.Table) -> pa.Table:
        df = refs.to_pandas().merge(feat.to_pandas(), left_on="src_doc", right_on="doc_id")
        return pa.table(
            {
                "doc_id": pa.array(df["src_doc"].to_numpy(dtype="int64"), pa.int64()),
                "kind": pa.array(df["kind"].tolist(), pa.string()),
                "media_ref": pa.array(df["media_ref"].tolist(), pa.string()),
                "offset": pa.array(df["offset"].to_numpy(dtype="int64"), pa.int64()),
                "page": pa.array(df["page"].to_numpy(dtype="int64"), pa.int64()),
                "elem": pa.array(df["elem"].tolist(), pa.string()),
                "elem_idx": pa.array(df["elem_idx"].to_numpy(dtype="int64"), pa.int64()),
                "media_type": pa.array(df["media_type"].tolist(), pa.string()),
                "sha256": pa.array(df["sha256"].tolist(), pa.string()),
                "width": pa.array(df["width"].to_numpy(dtype="int64"), pa.int64()),
                "height": pa.array(df["height"].to_numpy(dtype="int64"), pa.int64()),
            }
        )

    i64, utf8 = pa.int64(), pa.string()
    hits_schema = pa.schema({"src_doc": i64, "kind": utf8, "media_ref": utf8, "offset": i64,
                             "page": i64, "elem": utf8, "elem_idx": i64})
    feats_schema = pa.schema({"doc_id": i64, "media_type": utf8, "sha256": utf8, "width": i64,
                              "height": i64})
    return exchange(
        [(hits, "src_doc", hits_schema), (feats, "doc_id", feats_schema)], post, n_buckets=n_buckets
    )


def _resolve_oracle_sql() -> str | None:
    """Fixture-gated oracle: the span side is the frozen extraction
    fixture (self-gating per-sf UNION — pipelines/extract), the media
    side is the SQL twin of the decode stub; DuckDB replays the ref
    parse with regexp_extract and the join on the slice-parsed source
    doc."""
    from ..pipelines.extract import _guarded_fixture_sql, fixture_manifest

    if not fixture_manifest():
        return None
    spans_sql = _guarded_fixture_sql('doc_id, kind, media_ref, "offset"')
    return f"""
WITH spans AS ({spans_sql}),
hits AS (
    SELECT CAST(substr(doc_id, 5, 8) AS BIGINT) AS doc_id,
           kind, media_ref,
           CAST("offset" AS BIGINT) AS "offset",
           CAST(regexp_extract(media_ref, '/p(\\d+)/', 1) AS BIGINT) AS page,
           regexp_extract(media_ref, '/(cb|hl)-(\\d+)$', 1) AS elem,
           CAST(regexp_extract(media_ref, '/(cb|hl)-(\\d+)$', 2) AS BIGINT) AS elem_idx
    FROM spans
    WHERE media_ref LIKE 'media://%'
),
media AS (
    SELECT doc_id,
           CASE WHEN doc_id % 3 <> 0 THEN 'image' ELSE 'audio' END AS media_type,
           sha256(text) AS sha256,
           CAST(strlen(text) % 64 + 1 AS BIGINT) AS width,
           CAST(strlen(text) % 48 + 1 AS BIGINT) AS height
    FROM documents
)
SELECT h.doc_id, h.kind, h.media_ref, h."offset", h.page, h.elem, h.elem_idx,
       m.media_type, m.sha256, m.width, m.height
FROM hits h JOIN media m USING (doc_id)
"""


from .dedup import _AUG_SQL as _DEDUP_AUG_SQL

_SQL_MEDIA_DEDUP = f"""
WITH aug AS ({_DEDUP_AUG_SQL}),
h AS (SELECT doc_id, sha256(text) AS sha256 FROM aug)
SELECT doc_id,
       CASE WHEN doc_id % 3 <> 0 THEN 'image' ELSE 'audio' END AS media_type,
       sha256
FROM h
WHERE doc_id IN (SELECT MIN(doc_id) FROM h GROUP BY sha256)
"""


QUERIES = {
    "media_features": q_media_features,
    "media_dedup": q_media_dedup,
    "resolve_media_refs": q_resolve_media_refs,
}
ORACLE_SQL = {"media_features": _SQL_MEDIA, "media_dedup": _SQL_MEDIA_DEDUP}
_resolve_sql = _resolve_oracle_sql()
if _resolve_sql is not None:
    ORACLE_SQL["resolve_media_refs"] = _resolve_sql
