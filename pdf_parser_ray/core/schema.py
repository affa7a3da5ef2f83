"""Arrow schemas and media-ref conventions for the span data model.

Input table (the ``input_hint`` shape — one row per document):

.. code-block::

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

Span kinds on the *input* side:

* ``page`` — page boundary; ``media_ref = "page://{doc}/p{n}#w/h"``
  carries the page geometry (the sandbox stand-in for a 300-DPI render,
  reference ``extractor.py:956``).
* ``word`` — an OCR token; ``media_ref = "tok://p/x/y/w/h/block/par/line"``
  carries the token geometry (stand-in for the pytesseract
  ``Output.DICT`` row, reference ``extractor.py:989``).
* ``checkbox`` — a template-match hit;
  ``media_ref = "media://{doc}/p{n}/cb-{i}#x/y/w/h/score_centi/{t|e}"``
  (stand-in for ``cv2.matchTemplate`` output, reference
  ``extractor.py:139-153``).
* ``highlight`` — a highlighter mark; ``text`` holds the covered
  Yes/No text, ``media_ref = "media://{doc}/p{n}/hl-{i}#x/y/w/h"``
  (stand-in for the yellow-highlight OCR recovery input, reference
  ``response_extractor.py:822-869``).

Everything before ``#`` is the media identity (what the output spans
reference); the fragment is the geometry sidecar consumed by the parse
stage. Output spans use kinds ``section`` / ``label`` / ``qsection`` /
``question`` / ``answer``; ``label`` spans encode the checkbox status
as ``"{label}={status}"`` and reference the assigned checkbox's media
id; ``answer`` spans reference the highlight media id when the answer
was recovered from a highlight mark.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np
import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

DOCUMENT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# Exploded (one row per span) layout, used by sinks / correctness checks.
EXPLODED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)


def explode_spans(doc_ids: list[str], span_lists: list[list[dict]]) -> pa.Table:
    """The :data:`EXPLODED_SCHEMA` table of per-document span lists: one
    row per span, in document order then span order."""
    spans = [s for doc_spans in span_lists for s in doc_spans]
    doc_rows = np.repeat(np.arange(len(doc_ids)), [len(s) for s in span_lists])
    cols = list(zip(*map(_SPAN_FIELDS, spans))) or [(), (), (), ()]
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, pa.string()).take(doc_rows),
            pa.array(cols[0], pa.string()),
            pa.array(cols[1], pa.string()),
            pa.array(cols[2], pa.string()),
            pa.array(cols[3], pa.int32()),
        ],
        schema=EXPLODED_SCHEMA,
    )


_SPAN_FIELDS = itemgetter("kind", "text", "media_ref", "offset")


TOKEN_STRUCT = pa.struct(
    [
        pa.field("text", pa.string()),
        pa.field("x", pa.int32()),
        pa.field("y", pa.int32()),
        pa.field("w", pa.int32()),
        pa.field("h", pa.int32()),
        pa.field("block", pa.int32()),
        pa.field("par", pa.int32()),
        pa.field("line", pa.int32()),
    ]
)

OUTPUT_KINDS = ("section", "label", "qsection", "question", "answer")


def media_id(ref: str) -> str:
    """Strip the geometry fragment from a media ref."""
    return ref.split("#", 1)[0]


def make_word_ref(page: int, x: int, y: int, w: int, h: int, block: int, par: int, line: int) -> str:
    return f"tok://{page}/{x}/{y}/{w}/{h}/{block}/{par}/{line}"


def parse_word_ref(ref: str) -> tuple[int, int, int, int, int, int, int, int]:
    parts = ref[6:].split("/")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def make_page_ref(doc_id: str, page: int, width: int, height: int) -> str:
    return f"page://{doc_id}/p{page}#{width}/{height}"


def make_checkbox_ref(
    doc_id: str, page: int, i: int, x: int, y: int, w: int, h: int, score_centi: int, status: str
) -> str:
    st = "t" if status == "ticked" else "e"
    return f"media://{doc_id}/p{page}/cb-{i}#{x}/{y}/{w}/{h}/{score_centi}/{st}"


def make_highlight_ref(doc_id: str, page: int, i: int, x: int, y: int, w: int, h: int) -> str:
    return f"media://{doc_id}/p{page}/hl-{i}#{x}/{y}/{w}/{h}"
