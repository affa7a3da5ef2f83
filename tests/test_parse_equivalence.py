"""Property tests for the parse stage's shortcuts:

* a band crop sliced from the page's lines (``PageIndex.band``) equals
  regrouping the band's tokens, lines and candidate index alike, and
  the question matcher's output does not depend on which path a crop
  took;
* the next page's head cut from its own lines and the extended index
  of :class:`NextHead` equal regrouping and re-indexing them;
* the matcher's per-line and per-question memos, the bisected answer
  windows and the page's shared (y, x) order change no output;
* the columnar span decode (``span_columns`` → ``decode_spans``, word
  geometry parsed in Arrow) equals ``decode_spans`` on the
  ``to_pylist()`` span dicts, for sliced batches, multi-chunk columns
  and refs Arrow cannot parse, errors included.
"""

from unittest import mock

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA
from pdf_parser_ray.kernels import questions
from pdf_parser_ray.kernels.answers import augment_answers, collect_answer_lines
from pdf_parser_ray.kernels.document import PageModel, decode_spans
from pdf_parser_ray.kernels.lines import group_lines, group_lines_with_height
from pdf_parser_ray.kernels.normalize import expected
from pdf_parser_ray.kernels.questions import (
    NextHead,
    PageIndex,
    band_tokens,
    find_all_full_in_line,
    match_sections_and_questions,
    try_multiline,
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


@settings(max_examples=300, deadline=None)
@given(tokens_st, tokens_st, st.integers(0, 3), st.integers(0, 500))
def test_next_head_from_next_lines_equals_regroup(tokens, next_tokens, n_groups, height):
    page_lines = group_lines([dict(t) for t in tokens])
    page_index = PageIndex(page_lines)
    next_lines = group_lines([dict(t) for t in next_tokens])
    shared = NextHead(
        page_lines, next_tokens, height, n_groups, page_index=page_index,
        next_lines=lambda: next_lines,
    )
    regrouped = NextHead(page_lines, [dict(t) for t in next_tokens], height, n_groups)
    assert _shape(shared.lines) == _shape(regrouped.lines)
    got, want = shared.index, PageIndex(regrouped.lines)
    assert (got.blob, got.g_offs, got.g_line, got.g_tok) == (
        want.blob, want.g_offs, want.g_line, want.g_tok,
    )
    for exp in EXPS:
        # the page's candidates scanned first, or not
        assert got.candidates(exp) == want.candidates(exp)
        assert NextHead(
            page_lines, next_tokens, height, n_groups, page_index=PageIndex(page_lines),
            next_lines=lambda: next_lines,
        ).index.candidates(exp) == want.candidates(exp)
        assert page_index.candidates(exp) == PageIndex(page_lines).candidates(exp)


def _unmemoized(line, q, q_words, candidates):
    return find_all_full_in_line(line["words"], q_words, line=line, candidates=candidates)


def _multiline_unmemoized(index, q, q_words, cand_by_line):
    lines = index.lines if isinstance(index, PageIndex) else index.page.lines[index.a : index.b]
    return try_multiline(lines, q_words, cand_by_line)


@settings(max_examples=150, deadline=None)
@given(
    tokens_st,
    st.lists(band_st, min_size=1, max_size=3),
    st.lists(token, max_size=8),
)
@example(  # a line holding two questions that share their first words
    [
        {"text": t, "x": x, "y": 100, "w": 10, "h": 10, "block": 0, "par": 0, "line": 0}
        for t, x in (("Would", 0), ("you", 20), ("like", 40))
    ],
    [(50, 300)],
    [],
)
@example(  # a two-line question below ALPHA's band that only its widened crop finds
    [
        {"text": t, "x": x, "y": y, "w": 10, "h": 10, "block": 0, "par": 0, "line": ln}
        for t, x, y, ln in (("Would", 0, 100, 0), ("you", 20, 100, 0), ("like", 0, 130, 1))
    ],
    [(0, 50), (300, 350)],
    [],
)
def test_matcher_same_with_and_without_memos(tokens, bands, next_tokens):
    names = ["ALPHA", "BETA", "GAMMA"][: len(bands)]
    sections = [
        {
            "section_name": n,
            # two questions share a first word, two a last one
            "questions": ["Would you like", "Yes No", "reminders?", "you like", "Would you"],
        }
        for n in names
    ]
    regions = {
        n: {"x1": 0, "y1": a, "x2": 2000, "y2": b} for n, (a, b) in zip(names, bands)
    }

    def run():
        page = PageModel([dict(t) for t in tokens])
        head = page.next_head(PageModel([dict(t) for t in next_tokens]), 400)
        # the same page matched twice, as the page-shard artifacts do
        return [
            match_sections_and_questions(
                page.tokens, secs, regions, page_height=400, lines=page.lines,
                page_index=page.index, next_head=head,
            )
            for secs in (sections, sections[::-1])
        ]

    memoized = run()
    with mock.patch.object(questions, "line_full_matches", _unmemoized), \
            mock.patch.object(PageIndex, "multiline", _multiline_unmemoized), \
            mock.patch.object(questions._LineWindow, "multiline", _multiline_unmemoized):
        plain = run()
    assert memoized == plain


def _full_scan(line_list, *args, line_ys=None, **kwargs):
    return collect_answer_lines(line_list, *args, **kwargs)


# lines crowding the answer band and its continuation window below a
# question at y 100
near_token = token.flatmap(lambda t: st.just(dict(t, y=100 + 10 * t["line"] + 30 * t["block"])))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(tokens_st, st.lists(near_token, min_size=1, max_size=50)),
    st.integers(0, 300),
    st.integers(90, 110),
    st.lists(st.integers(90, 130), max_size=3),
    st.integers(0, 400),
)
def test_bisected_answer_window_equals_full_scan(tokens, qx, qy, seg_ys, right_x):
    lines = group_lines_with_height([dict(t) for t in tokens])
    segments = [{"line_y": y} for y in seg_ys] or None
    qset = {"yes", "would you"}
    want = collect_answer_lines(lines, qx, qy, segments, right_x, qset)
    got = collect_answer_lines(
        lines, qx, qy, segments, right_x, qset, line_ys=[ln["y"] for ln in lines]
    )
    assert got == want


@settings(max_examples=150, deadline=None)
@given(tokens_st, st.lists(st.tuples(st.integers(0, 300), st.integers(0, 400)), max_size=4))
def test_answers_same_with_shared_views(tokens, positions):
    def matches():
        return [
            {
                "section": "S",
                "anchor_y": 0,
                "questions": [
                    {"question": f"Would you like {i}?", "position": [x, y],
                     "segments": [{"line_y": y, "tokens": ["Would", "you"]}]}
                    for i, (x, y) in enumerate(positions)
                ],
            }
        ]

    page = [dict(t) for t in tokens]
    lines = group_lines(page)
    shared = augment_answers(matches(), page, [], [], 300, 400, lines=lines, page=PageModel(page))
    with mock.patch("pdf_parser_ray.kernels.answers.collect_answer_lines", _full_scan):
        plain = augment_answers(matches(), [dict(t) for t in tokens], [], [], 300, 400)
    assert shared == plain


# ---- columnar decode ----------------------------------------------

_int = st.integers(0, 3000).map(str)
# fields Python's int() reads and Arrow's int cast rejects, or neither
_odd_int = st.sampled_from(
    [" 12", "1_0", "+5", "-5", "\u0663", "12345678901234567890", "9" * 19, "", "x", "007"]
)
_tok_field = st.one_of(_int, _int, _int, _odd_int)
_ref = st.one_of(
    st.none(),
    st.just(""),
    st.builds(lambda w, h: f"page://d/p1#{w}/{h}", _int, _int),
    st.builds(lambda *v: "tok://" + "/".join(v), *[_int] * 8),
    # 7 to 9 fields, some of them odd
    st.lists(_tok_field, min_size=7, max_size=9).map(lambda v: "tok://" + "/".join(v)),
    st.builds(lambda *v: "media://d/p1/cb-0#" + "/".join(v), *[_int] * 5, st.sampled_from("te")),
    st.builds(lambda *v: "media://d/p1/hl-0#" + "/".join(v), *[_int] * 4),
    st.just("tok://1/NOT/AN/INT/0/0/0/0"),
    # a word whose ref is not tok://
    st.builds(lambda *v: "media://d/p1/w#" + "/".join(v), *[_int] * 8),
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
# mostly clean word documents, mixed in one batch with odd ones
_clean_word = st.fixed_dictionaries(
    {
        "kind": st.just("word"),
        "text": st.sampled_from(["Yes", " ab "]),
        "media_ref": st.builds(lambda *v: "tok://" + "/".join(v), *[_int] * 8),
        "offset": st.integers(0, 5),
    }
)
_odd_word = _clean_word.flatmap(
    lambda s: st.lists(_tok_field, min_size=7, max_size=9).map(
        lambda v: dict(s, media_ref="tok://" + "/".join(v))
    )
)
doc_spans = st.one_of(
    st.none(),
    st.lists(span, max_size=12),
    st.lists(span.filter(bool), max_size=12),
    st.lists(st.one_of(_clean_word, _clean_word, _odd_word, span.filter(bool)), max_size=12),
    st.lists(_clean_word, max_size=12),
)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as e:  # noqa: BLE001 — the error is the outcome
        return ("error", type(e).__name__, str(e))


@settings(max_examples=300, deadline=None)
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
