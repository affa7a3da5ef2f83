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
        batch_size=PARSE_BATCH,
        concurrency=8,           # actor pool size
        num_cpus=1,
    )

Output is the exploded span table ``(doc_id, kind, text, media_ref,
offset)``, or with ``explode=False`` one ``(doc_id, spans)`` row per
document.

Input is read column-wise, one pass per batch, with no per-span or
per-word dict. The geometry of every ``tok://`` word ref in the batch
is decoded in Arrow: one ``pc.split_pattern`` over the refs and one
int64 cast of their first eight fields. Then one numpy pass
(:func:`_page_columns`) gives every word its page, strips its text
with ``str.strip``, orders the non-blank words into lines with one
``np.lexsort`` and all words into reading order with another (the
rules of ``kernels.lines``), and slices the result into each page's
:class:`~pdf_parser_ray.kernels.lines.PageModel`. Each document gets
its pages and its spans that are not words as a
:class:`~pdf_parser_ray.kernels.document.SpanColumns`.

Arrow's cast is stricter than ``int()`` (it rejects blanks, ``+``,
``_``, non-ASCII digits and values beyond int64). When it rejects a
field, the batch's fields are checked one by one: a document holding a
``tok://`` ref with fewer than eight fields, or a field that is not a
run of at most 18 ASCII digits, gets all of its spans and no pages,
and is decoded by ``decode_spans``'s scalar ``int()`` path, so its
values and errors are the row path's; its token dicts get their
columns from ``PageModel(tokens)``. :func:`extract_spans` is the one
per-document entry point (decode → classify → fold → flatten);
``decode_spans`` accepts the columns and the span dicts alike.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

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
from ..kernels.lines import Lines, PageModel

PARSE_BATCH = 32  # documents per DocumentExtractor call, on every parse path


def span_columns(spans: pa.ChunkedArray | pa.Array) -> list[SpanColumns | list | None]:
    """Each document's input spans from a ``list<span struct>`` column,
    as column slices with the columns of its pages built for the whole
    batch (:func:`_page_columns`).

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
    offsets = offsets - base
    is_word = pc.equal(values.field("kind"), "word").fill_null(False)
    geometry, scalar_spans = _word_geometry(values)
    scalar_docs = set(np.searchsorted(offsets, scalar_spans, side="right").tolist())
    pages = _page_columns(values, is_word, geometry, offsets)
    # with its pages built, a document's words are read: decode_spans
    # reads only its other spans
    others = values.filter(pc.invert(is_word))
    other_cols = [_strs(others.field(f)) for f in _FIELDS]
    other_bounds = np.searchsorted(
        np.flatnonzero(~is_word.to_numpy(zero_copy_only=False)), offsets
    ).tolist()
    bounds = offsets.tolist()
    docs: list[SpanColumns | list | None] = []
    for d in range(len(bounds) - 1):
        if d + 1 in scalar_docs:
            a, b = bounds[d], bounds[d + 1]
            docs.append(SpanColumns(*(_strs(values.field(f).slice(a, b - a)) for f in _FIELDS)))
        else:
            a, b = other_bounds[d], other_bounds[d + 1]
            docs.append(SpanColumns(*(c[a:b] for c in other_cols), pages=pages[d]))
    if spans.null_count or values.null_count:
        for i, row in enumerate(spans.to_pylist()):
            if row is None or None in row:
                docs[i] = row
    return docs


_FIELDS = ("kind", "text", "media_ref")


def _strs(column: pa.Array) -> list[str | None]:
    """The same str/None list as ``to_pylist()``, an order of magnitude
    faster."""
    return column.to_numpy(zero_copy_only=False).tolist()


def _word_geometry(values: pa.StructArray) -> tuple[np.ndarray, np.ndarray]:
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
    return geometry, rows[~whole]


def _page_columns(
    values: pa.StructArray, is_word: pa.Array, geometry: np.ndarray, offsets: np.ndarray
) -> list[Callable[[], list[PageModel]]]:
    """Every document's page columns, built for the whole batch at
    once: each word's page, its stripped text, the line order and the
    reading order (the rules of ``kernels.lines``), as numpy sorts over
    the batch's words. Returns, per document, the call that slices its
    pages' models out.

    A word belongs to the page of the last ``page`` span before it in
    its document, or to the implicit first page that a document gets
    when any span that is not a page marker comes before its first one
    (``decode_spans``). Documents decoded on the scalar path get
    columns here too, which they do not read."""
    raw = [t or "" for t in _strs(values.field("text").filter(is_word))]
    is_word = is_word.to_numpy(zero_copy_only=False)
    is_page = pc.equal(values.field("kind"), "page").fill_null(False)
    is_page = is_page.to_numpy(zero_copy_only=False)
    n_docs = len(offsets) - 1
    doc = np.repeat(np.arange(n_docs), np.diff(offsets))
    marks = np.concatenate([[0], np.cumsum(is_page)])
    before = marks[offsets[:-1]]
    seen = marks[1:] - before[doc]  # page markers of the document so far
    implicit = np.zeros(n_docs, dtype=np.int64)
    implicit[doc[~is_page & (seen == 0)]] = 1
    n_pages = marks[offsets[1:]] - before + implicit
    first_page = np.concatenate([[0], np.cumsum(n_pages)])
    page = first_page[doc] + seen - 1 + implicit[doc]

    rows = np.flatnonzero(is_word)
    wpage = page[rows]
    x, y, w, h, block, par, line = geometry[:, rows]
    text = [t.strip() for t in raw]
    nb = np.flatnonzero(np.fromiter(map(len, text), dtype=np.int64, count=len(text)))

    # lines: one per (page, block, par, line) key; its y is its first
    # word's; lines by (y, first word), words by (x, position)
    npage, nx, ny = wpage[nb], x[nb], y[nb]
    keys = (npage, block[nb], par[nb], line[nb])
    grouped = np.lexsort((nb,) + keys[::-1])
    new_key = np.zeros(len(nb), dtype=bool)
    new_key[:1] = True
    for key in keys:
        k = key[grouped]
        new_key[1:] |= k[1:] != k[:-1]
    first = np.empty(len(nb), dtype=np.int64)
    first[grouped] = grouped[new_key][np.cumsum(new_key) - 1]
    by_line = np.lexsort((nb, nx, first, ny[first], npage))
    line_first = first[by_line]
    new_line = np.ones(len(nb), dtype=bool)
    new_line[1:] = line_first[1:] != line_first[:-1]
    line_starts = np.flatnonzero(new_line)

    # page bounds: in the line-ordered words, in the lines, in all words
    page_ids = np.arange(first_page[-1] + 1)
    word_bounds = np.searchsorted(npage[by_line], page_ids)
    line_bounds = np.searchsorted(line_starts, word_bounds)
    all_bounds = np.searchsorted(wpage, page_ids)

    # each non-blank word's index in its page's line order
    rank = np.empty(len(nb), dtype=np.int64)
    rank[by_line] = np.arange(len(nb))
    rank -= word_bounds[npage]
    # reading order of all words by (page, y, x, position)
    order = np.lexsort((rows, x, y, wpage))
    in_lines = np.full(len(rows), -1, dtype=np.int64)
    in_lines[nb] = rank
    yx = in_lines[order]
    yx = yx[yx >= 0]
    order -= all_bounds[wpage[order]]

    sel = nb[by_line]
    text_col = np.array(text, dtype=object)[sel].tolist() if len(sel) else []
    xs, ys, ws, hs = (c[sel].tolist() for c in (x, y, w, h))
    starts = (line_starts - word_bounds[npage[by_line][line_starts]]).tolist()
    line_ys = ny[line_first[line_starts]].tolist()
    emit, yx, order = rank.tolist(), yx.tolist(), order.tolist()
    pages = _BatchPages(
        (text_col, xs, ys, ws, hs, starts, line_ys, emit, yx, raw, order),
        (word_bounds.tolist(), line_bounds.tolist(), all_bounds.tolist()),
    )
    fp = first_page.tolist()
    return [partial(pages.models, fp[d], fp[d + 1]) for d in range(n_docs)]


class _BatchPages:
    """A batch's page columns, flat, and where each page's run of them
    starts: in the line-ordered words, in the lines and in all words.
    :meth:`models` slices a document's pages out when it is decoded, so
    each page's lists live only while its document is folded (built
    for the whole batch up front, they outlived enough collections to
    set off full garbage-collector passes)."""

    __slots__ = ("cols", "bounds")

    def __init__(self, cols: tuple, bounds: tuple):
        self.cols, self.bounds = cols, bounds

    def models(self, first: int, last: int) -> list[PageModel]:
        """The models of the pages ``first..last-1``."""
        text, xs, ys, ws, hs, starts, line_ys, emit, yx, raw, order = self.cols
        wb, lb, ab = self.bounds
        out = []
        for p in range(first, last):
            a, b, la, lb_, aa, ab_ = wb[p], wb[p + 1], lb[p], lb[p + 1], ab[p], ab[p + 1]
            lines = Lines(
                text[a:b], xs[a:b], ys[a:b], ws[a:b], hs[a:b],
                starts[la:lb_] + [b - a], line_ys[la:lb_],
            )
            out.append(PageModel.of(lines, emit[a:b], yx[a:b], raw[aa:ab_], order[aa:ab_]))
        return out


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
