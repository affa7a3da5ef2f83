"""Property tests for the parse stage's two shortcuts:

* a band crop sliced from the page's lines (``PageIndex.band``) equals
  regrouping the band's tokens, lines and candidate index alike, and
  the question matcher's output does not depend on which path a crop
  took;
* the columnar span decode (``span_columns`` → ``decode_spans``) equals
  ``decode_spans`` on the ``to_pylist()`` span dicts, for sliced batches
  and multi-chunk columns, errors included.
"""

from unittest import mock

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA
from pdf_parser_ray.kernels.document import decode_spans
from pdf_parser_ray.kernels.lines import group_lines
from pdf_parser_ray.kernels.normalize import expected
from pdf_parser_ray.kernels.questions import (
    NextHead,
    PageIndex,
    band_tokens,
    match_sections_and_questions,
)
from pdf_parser_ray.stages.parse import span_columns

WORDS = ["", " ", "Would", " you ", "like", "reminders?", "Yes", "No", "1l", "-"]

token = st.fixed_dictionaries(
    {
        # blank texts (skipped), strip-needed ones, and repeated keys
        # whose words spread over many y, so lines straddle band edges
        "text": st.sampled_from(WORDS),
        "x": st.integers(0, 300),
        "y": st.integers(0, 400),
        "w": st.integers(0, 40),
        "h": st.integers(0, 40),
        "block": st.integers(0, 2),
        "par": st.integers(0, 1),
        "line": st.integers(0, 2),
    }
)
# lines whose words share one y: the common case, where crops slice
flat_token = token.flatmap(
    lambda t: st.just(dict(t, y=130 * t["block"] + 40 * t["line"] + t["par"]))
)
tokens_st = st.one_of(
    st.lists(token, min_size=1, max_size=50), st.lists(flat_token, min_size=1, max_size=50)
)
# mostly proper bands over the tokens' y range, some empty or inverted
band_st = st.one_of(
    st.tuples(st.integers(-10, 400), st.integers(1, 250)).map(lambda b: (b[0], b[0] + b[1])),
    st.tuples(st.integers(-10, 420), st.integers(-10, 420)),
)
EXPS = [expected(w) for w in ("Would", "you", "YES", "no", "il", "")]


def _shape(lines):
    return [
        (
            ln["block"], ln["par"], ln["line_num"], ln["y"],
            [(w["text"], w["x"], w["y"], w["w"], w["h"]) for w in ln["words"]],
        )
        for ln in lines
    ]


@settings(max_examples=500, deadline=None)
@given(tokens_st, band_st)
def test_band_slice_equals_regroup(tokens, band):
    y1, y2 = band
    page = PageIndex(group_lines([dict(t) for t in tokens]))
    want_lines = group_lines(band_tokens([dict(t) for t in tokens], y1, y2))
    got = page.band(y1, y2)
    if got is None:
        # a line has words on both sides of an edge: the caller regroups
        assert any(
            min(w["y"] for w in ln["words"]) < e <= max(w["y"] for w in ln["words"])
            for ln in page.lines
            for e in (y1, y2)
        )
        return
    lines, window = got
    assert _shape(lines) == _shape(want_lines)
    want_index = PageIndex(want_lines)
    for exp in EXPS:
        assert window.candidates(exp) == want_index.candidates(exp)
        # the page's memoized scan gives the same answer twice
        assert window.candidates(exp) == want_index.candidates(exp)


@settings(max_examples=150, deadline=None)
@given(
    tokens_st,
    st.lists(band_st, min_size=1, max_size=2),
    st.lists(token, max_size=8),
)
def test_matcher_same_with_and_without_slicing(tokens, bands, next_tokens):
    names = ["ALPHA", "BETA"][: len(bands)]
    sections = [
        {"section_name": n, "questions": ["Would you like", "Yes No", "reminders?"]}
        for n in names
    ]
    regions = {
        n: {"x1": 0, "y1": a, "x2": 2000, "y2": b} for n, (a, b) in zip(names, bands)
    }

    def run():
        page = [dict(t) for t in tokens]
        return match_sections_and_questions(
            page,
            sections,
            regions,
            page_height=400,
            next_head=NextHead(group_lines(page), [dict(t) for t in next_tokens], 400),
        )

    sliced = run()
    with mock.patch.object(PageIndex, "band", lambda self, y1, y2: None):
        regrouped = run()
    assert sliced == regrouped


# ---- columnar decode ----------------------------------------------

_int = st.integers(0, 3000).map(str)
_ref = st.one_of(
    st.none(),
    st.just(""),
    st.builds(lambda w, h: f"page://d/p1#{w}/{h}", _int, _int),
    st.builds(lambda *v: "tok://" + "/".join(v), *[_int] * 8),
    st.builds(lambda *v: "media://d/p1/cb-0#" + "/".join(v), *[_int] * 5, st.sampled_from("te")),
    st.builds(lambda *v: "media://d/p1/hl-0#" + "/".join(v), *[_int] * 4),
    st.just("tok://1/NOT/AN/INT/0/0/0/0"),
)
span = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from([None, "page", "word", "checkbox", "highlight", "header"]),
            "text": st.sampled_from([None, "", "Yes", " ab "]),
            "media_ref": _ref,
            "offset": st.integers(0, 5),
        }
    ),
)
doc_spans = st.one_of(st.none(), st.lists(span, max_size=12), st.lists(span.filter(bool), max_size=12))


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as e:  # noqa: BLE001 — the error is the outcome
        return ("error", type(e).__name__, str(e))


@settings(max_examples=200, deadline=None)
@given(st.lists(doc_spans, min_size=1, max_size=6), st.data())
def test_columnar_decode_equals_dict_decode(docs, data):
    table = pa.Table.from_pydict(
        {"doc_id": [f"d{i}" for i in range(len(docs))], "spans": docs},
        schema=DOCUMENT_SCHEMA,
    )
    # a slice starting at a non-zero offset, its spans column split
    # into several chunks
    start = data.draw(st.integers(0, len(docs) - 1))
    cuts = sorted(data.draw(st.lists(st.integers(start, len(docs)), max_size=3)))
    bounds = [start] + cuts + [len(docs)]
    column = pa.chunked_array(
        [table["spans"].chunk(0).slice(a, b - a) for a, b in zip(bounds, bounds[1:])],
        type=table.schema.field("spans").type,
    )
    want = [_outcome(lambda r=r: decode_spans("d", r)) for r in column.to_pylist()]
    # a chunked column, and the one-chunk slice as a plain array
    for spans in (column, table["spans"].chunk(0).slice(start)):
        got = [_outcome(lambda c=c: decode_spans("d", c)) for c in span_columns(spans)]
        assert got == want
