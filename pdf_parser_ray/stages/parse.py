"""The document parse stage — the engine's flagship actor-pool
``map_batches`` stage (operator slots S1/S2, M1/M2, V1-V6, C1-C6).

``DocumentExtractor`` is a callable CLASS: constructed once per actor
(the sections config — the broadcast small side of every matching step,
J3 — is bound in ``__init__``, exactly as the reference
loads ``sections.json`` + templates once per ``CheckboxExtractor``
instance, reference ``extractor.py:88-106`` / ``948-951``), then invoked
per Arrow batch. Each row's page fold runs independently — Ray
parallelizes across documents, never across pages of one document.

Usage::

    ds.map_batches(
        DocumentExtractor,
        fn_constructor_kwargs={"config": cfg},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=8,           # actor pool size
        num_cpus=1,
    )

Output is the exploded span table ``(doc_id, kind, text, media_ref,
offset)``, or with ``explode=False`` one ``(doc_id, spans)`` row per
document.

Input is read column-wise: the batch's ``spans`` list array is sliced
once into its ``kind``, ``text`` and ``media_ref`` columns, and each
document gets its runs of those columns as a
:class:`~pdf_parser_ray.kernels.document.SpanColumns`, with no per-span
dict. The geometry of every ``tok://`` word ref in the batch is decoded
here, in Arrow, once per batch: one ``pc.split_pattern`` over the refs
and one int64 cast of their first eight fields, handed to each document
as the columns' ``geometry``. Arrow's cast is stricter than ``int()``
(it rejects blanks, ``+``, ``_``, non-ASCII digits and values beyond
int64). When it rejects a field, the batch's fields are checked one by
one: a document holding a ``tok://`` ref with fewer than eight fields,
or a field that is not a run of at most 18 ASCII digits, gets no
``geometry`` and is decoded by ``decode_spans``'s scalar ``int()`` path,
so its values and errors are the row path's. :func:`extract_spans` is
the one per-document entry point (decode → classify → fold → flatten);
``decode_spans`` accepts the columns and the span dicts alike.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.config import FormConfig
from ..core.schema import DOCUMENT_SCHEMA, explode_spans
from ..kernels.document import (
    SpanColumns,
    classify_form_type,
    decode_spans,
    extract_document,
    flatten_to_spans,
)


def span_columns(spans: pa.ChunkedArray | pa.Array) -> list[SpanColumns | list | None]:
    """Each document's input spans from a ``list<span struct>`` column,
    as column slices with their word geometry decoded in Arrow.

    ``StructArray.field()`` ignores validity bitmaps, so a null span
    would read as its child values and a null list as an empty one. A
    document with either keeps its ``to_pylist()`` value (``None``, or
    a list holding ``None``) instead, and fails in ``decode_spans``
    exactly as the row path does."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    offsets = spans.offsets.to_numpy()
    base = int(offsets[0])  # non-zero for a slice
    values = spans.values.slice(base, int(offsets[-1]) - base)
    offsets = (offsets - base).tolist()
    # the same str/None lists as to_pylist(), an order of magnitude faster
    cols = [
        values.field(f).to_numpy(zero_copy_only=False).tolist()
        for f in ("kind", "text", "media_ref")
    ]
    geometry, scalar_spans = _word_geometry(values)
    scalar_docs = set(np.searchsorted(offsets, scalar_spans, side="right").tolist())
    docs: list[SpanColumns | list | None] = [
        SpanColumns(
            *(c[a:b] for c in cols),
            geometry=None if d in scalar_docs else [c[a:b] for c in geometry],
        )
        for d, (a, b) in enumerate(zip(offsets, offsets[1:]), start=1)
    ]
    if spans.null_count or values.null_count:
        for i, row in enumerate(spans.to_pylist()):
            if row is None or None in row:
                docs[i] = row
    return docs


def _word_geometry(values: pa.StructArray) -> tuple[list[list[int]], np.ndarray]:
    """The columns ``x, y, w, h, block, par, line`` of every span, from
    its ``tok://p/x/y/w/h/block/par/line`` ref, parsed for all spans at
    once; zeros for spans that are not ``tok://`` words. Also returns
    the positions of the word spans whose ref Arrow cannot parse (see
    the module docstring), for their documents to decode on the scalar
    path."""
    kind, ref = values.field("kind"), values.field("media_ref")
    is_tok = pc.and_kleene(pc.equal(kind, "word"), pc.starts_with(ref, "tok://"))
    rows = np.flatnonzero(is_tok.fill_null(False).to_numpy(zero_copy_only=False))
    # "tok:", "", p, x, y, w, h, block, par, line[, the rest]
    parts = pc.split_pattern(ref, "/", max_splits=9)
    whole = pc.list_value_length(parts).fill_null(0).to_numpy()[rows] >= 10
    starts = parts.offsets.to_numpy()[rows[whole]] + 2
    fields = parts.values.take(pa.array((starts[:, None] + np.arange(8)).ravel()))
    clean = np.ones(len(starts), dtype=bool)
    try:
        ints = pc.cast(fields, pa.int64())
    except pa.ArrowInvalid:
        # Arrow's cast is stricter than int(): cast the plain digit runs
        digits = pc.and_(
            pc.ascii_is_decimal(fields), pc.less_equal(pc.binary_length(fields), 18)
        )
        ints = pc.cast(pc.if_else(digits, fields, "0"), pa.int64())
        clean = digits.to_numpy(zero_copy_only=False).reshape(-1, 8).all(axis=1)
    whole[whole] = clean
    geometry = np.zeros((7, len(values)), dtype=np.int64)
    geometry[:, rows[whole]] = ints.to_numpy().reshape(-1, 8)[clean, 1:].T
    return [c.tolist() for c in geometry], rows[~whole]


def extract_spans(
    doc_id: str, spans: SpanColumns | list[dict], config: FormConfig
) -> list[dict]:
    """One document end to end: decode → classify (selects the config
    variant, reference ``extractor.py:1202-1238``) → page fold →
    flatten. Returns the document's ordered output spans."""
    pages = decode_spans(doc_id, spans)
    sections = config.select(classify_form_type(pages))
    return flatten_to_spans(extract_document(pages, sections))


class DocumentExtractor:
    """Actor-pool parse stage (stateful stage ST1-ST3 analog).

    ``quarantine=True`` catches per-document failures (malformed media
    refs, corrupt span streams) and emits a single ``error`` span for
    that document instead of failing the task — at corpus scale one
    corrupt row must not kill (or infinitely retry) a multi-day job;
    the error spans are queryable like any other output and carry the
    exception text. Default ``False`` preserves strict fail-fast
    semantics (and golden bit-compatibility) for trusted corpora."""

    def __init__(
        self,
        config: FormConfig | None = None,
        explode: bool = True,
        quarantine: bool = False,
    ):
        if config is None:
            from ..io.synth import DEFAULT_CONFIG

            config = DEFAULT_CONFIG
        self.config = config
        self.explode = explode
        self.quarantine = quarantine

    def _extract_one(self, doc_id: str, spans: SpanColumns | list[dict]) -> list[dict]:
        try:
            return extract_spans(doc_id, spans, self.config)
        except Exception as e:  # noqa: BLE001 — quarantine IS the contract
            if not self.quarantine:
                raise
            return [
                {
                    "kind": "error",
                    "text": f"{type(e).__name__}: {e}",
                    "media_ref": "",
                    "offset": 0,
                }
            ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        out_spans = [
            self._extract_one(d, s) for d, s in zip(doc_ids, span_columns(batch["spans"]))
        ]
        if self.explode:
            return explode_spans(doc_ids, out_spans)
        return pa.Table.from_pydict(
            {"doc_id": doc_ids, "spans": out_spans}, schema=DOCUMENT_SCHEMA
        )
