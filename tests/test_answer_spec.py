"""The one-pass answer phase (``kernels.answers.augment_answers``) gives
what the reference's eight page passes, kept as spec in
``answer_rules``, give: the same match dicts, key order included, on
hand-made pages that reach each rule and on generated ones."""

import copy
import json

import pytest
from conftest import make_box, make_tokens
from hypothesis import example, given, settings
from hypothesis import strategies as st

import answer_rules
from pdf_parser_ray.kernels.answers import augment_answers
from pdf_parser_ray.kernels.lines import PageModel


def _q(question, x, y, tokens=None, second=None):
    """A matched question at ``(x, y)``; ``second`` is the line y of a
    second segment holding the question's last word."""
    tokens = tokens or question.split()
    segs = [{"line_y": y, "start_x": x, "end_x": x + 100, "count": len(tokens), "tokens": tokens}]
    if second is not None and len(tokens) > 1:
        segs = [
            dict(segs[0], count=len(tokens) - 1, tokens=tokens[:-1]),
            {"line_y": second, "start_x": x, "end_x": x + 60, "count": 1, "tokens": tokens[-1:]},
        ]
    return {"question": question, "position": [x, y], "segments": segs, "skipped": None}


def _both(matches, tokens, marks, boxes, width=2000, height=3000):
    """The spec's output and the one pass's, each as JSON (key order
    kept)."""
    want = answer_rules.augment_answers(
        copy.deepcopy(matches), [dict(t) for t in tokens], marks, boxes, width, height
    )
    got = augment_answers(
        copy.deepcopy(matches), PageModel([dict(t) for t in tokens]), marks, boxes, width, height
    )
    return json.dumps(want), json.dumps(got), want


def _w(text, x, y, block):
    """A word of line ``block``: the line's y is its first word's."""
    return {"text": text, "x": x, "y": y, "w": 60, "h": 28, "block": block, "par": 0, "line": 0}


def _mark(x, y, text, i=0):
    return {"x": x, "y": y, "w": 80, "h": 30, "text": text, "ref": f"m://h{i}"}


SMOKE = "Do you smoke?"
REMIND = "Would you like automatic appointment reminders?"
REMIND_TOKS = ["Would", "you", "like", "automatic", "appointment", "reminders?"]


def _sec(name, *qs):
    return {"section": name, "anchor_y": 0, "questions": list(qs)}


# name -> ((matches, tokens, marks, boxes[, width, height]), what the spec
# output must show for the case to reach its rule)
CASES = {
    "same_row_in_section": (
        ([_sec("S", _q("First Name", 100, 500), _q("Last Name", 1000, 508))],
         make_tokens([(["Ann"], 110, 545), (["Lee"], 1010, 545)]), [], []),
        lambda m: m[0]["questions"][0]["answer"] == "Ann",
    ),
    "same_row_across_sections": (
        ([_sec("S1", _q("Email Address", 100, 500)), _sec("S2", _q("Provider Name", 1000, 510))],
         make_tokens([(["me@x.com"], 110, 545), (["Verizon"], 1010, 550)]), [], []),
        lambda m: m[0]["questions"][0]["answer"] == "me@x.com",
    ),
    # dy 20 across sections: the row band is twice the tolerance, and the
    # window ends short of the next window's start, 970
    "global_trim_band": (
        ([_sec("S1", _q("Email Address", 100, 500)), _sec("S2", _q("Provider Name", 1000, 520))],
         make_tokens([(["me@x.com"], 110, 545)]), [], []),
        lambda m: m[0]["questions"][0]["answer_window"]["x_end"] == 965,
    ),
    "narrative_row": (
        ([_sec("S", _q("Medical Conditions", 100, 500), _q("Last Name", 1000, 500))],
         make_tokens([(["Asthma", "since", "2001"], 110, 545)]), [], []),
        lambda m: m[0]["questions"][0]["answer"] == "Asthma since 2001",
    ),
    "highlight_base_window": (
        ([_sec("S", _q(SMOKE, 100, 500))], [], [_mark(150, 550, "No")], []),
        lambda m: m[0]["questions"][0]["answer_method"] == "highlight_fallback",
    ),
    # the padded base window [528, 592] misses a mark at 596; the window
    # slid 44 px below the question's line, [544, 584], padded reads it
    "highlight_slide": (
        ([_sec("S", _q(SMOKE, 100, 500))], [], [_mark(150, 596, "Yes")], []),
        lambda m: m[0]["questions"][0]["answer_method"] == "highlight_slide_44",
    ),
    "highlight_probe": (
        ([_sec("S", _q(SMOKE, 100, 500))], [], [_mark(150, 640, "Yes")], []),
        lambda m: m[0]["questions"][0]["answer_method"] == "highlight_probe_2",
    ),
    # the first mark in (y, x) order is read, not the leftmost
    "highlight_reading_order": (
        ([_sec("S", _q(SMOKE, 100, 500))], [],
         [_mark(300, 545, "No", 1), _mark(150, 560, "Yes", 2)], []),
        lambda m: m[0]["questions"][0]["answer"] == "No",
    ),
    # the neighbour at dy 20 trims the window to 395 after the fallback
    # read the mark at x 600 through the untrimmed one
    "highlight_before_trim": (
        ([_sec("S", _q(SMOKE, 100, 500), _q("Last Name", 400, 520))], [],
         [_mark(600, 550, "Yes")], []),
        lambda m: m[0]["questions"][0]["answer"] == "Yes",
    ),
    "checkbox_one_ticked": (
        ([_sec("S", _q(REMIND, 100, 500, REMIND_TOKS))], [], [],
         [make_box(150, 530, 0.9, "empty"), make_box(400, 530, 0.9, "ticked")]),
        lambda m: m[0]["questions"][0]["answer"] == "No",
    ),
    "checkbox_both_ticked": (
        ([_sec("S", _q(REMIND, 100, 500, REMIND_TOKS))], [], [],
         [make_box(150, 530, 0.9, "ticked"), make_box(400, 530, 0.9, "ticked")]),
        lambda m: m[0]["questions"][0]["answer_confidence"] == 0.5,
    ),
    # boxes 3 px apart are one box: the pair is 150 and 400
    "checkbox_close_boxes": (
        ([_sec("S", _q(REMIND, 100, 500, REMIND_TOKS))], [], [],
         [make_box(150, 530, 0.9, "empty"), make_box(153, 540, 0.9, "ticked"),
          make_box(400, 530, 0.9, "ticked")]),
        lambda m: m[0]["questions"][0]["answer"] == "No",
    ),
    "followup": (
        ([_sec("S", _q(REMIND, 100, 500, REMIND_TOKS), _q("If yes, which provider?", 100, 700))],
         make_tokens([(["Sprint"], 110, 745)]), [], []),
        lambda m: m[0]["questions"][0]["answer_source"] == "followup_inference",
    ),
    "zip": (
        ([_sec("S", _q("Zip Code", 100, 500))],
         make_tokens([(["12345-6789", "leak@x.com"], 110, 545)]), [], []),
        lambda m: m[0]["questions"][0]["answer"] == "12345-6789",
    ),
    # the neighbour at dy 20 trims the window to 395 after collection
    # read "Sprint" at 500; the pruned window then reads "qmail" (a word
    # of a line that starts below the band) where the answer read
    # "gmail", and the answer is kept
    "gmail_guard": (
        ([_sec("S", _q("Email Address", 100, 500), _q("Phone", 300, 520))],
         [_w("me@gmail.com", 110, 545, 1), _w("Sprint", 500, 545, 1),
          _w("x", 1500, 600, 2), _w("qmail", 150, 570, 2)], [], []),
        lambda m: m[0]["questions"][0]["answer"] == "me@gmail.com Sprint",
    ),
    "days_guard": (
        ([_sec("S", _q("How many days?", 100, 500), _q("Phone", 300, 520))],
         [_w("3", 110, 545, 1), _w("days", 160, 545, 1), _w("Sprint", 500, 545, 1),
          _w("x", 1500, 600, 2), _w("davs", 150, 570, 2)], [], []),
        lambda m: m[0]["questions"][0]["answer"] == "3 days Sprint",
    ),
    # the same page without the misread: the window's words replace the
    # answer
    "pruning": (
        ([_sec("S", _q("How many days?", 100, 500), _q("Phone", 300, 520))],
         [_w("3", 110, 545, 1), _w("days", 160, 545, 1), _w("Sprint", 500, 545, 1),
          _w("x", 1500, 600, 2), _w("weeks", 150, 570, 2)], [], []),
        lambda m: m[0]["questions"][0]["answer"] == "3 days weeks",
    ),
    "continuation_skips_question_line": (
        ([_sec("S", _q("Last Name", 100, 500), _q("First Name", 100, 600))],
         make_tokens([(["Lee"], 110, 545), (["First", "Name"], 110, 590)]), [], []),
        lambda m: m[0]["questions"][0]["answer"] == "Lee",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_equals_spec(name):
    args, reaches = CASES[name]
    want, got, spec_out = _both(*args)
    assert reaches(spec_out), name
    assert got == want


# ---- generated pages ------------------------------------------------

QUESTIONS = [
    (SMOKE, SMOKE.split()),
    ("Are you pregnant?", ["Are", "you", "pregnant?"]),
    (REMIND, REMIND_TOKS),
    ("If yes, which provider?", ["If", "yes,", "which", "provider?"]),
    ("Zip Code", ["Zip", "Code"]),
    ("Medical Conditions", ["Medical", "Conditions"]),
    ("Email Address", ["Email", "Address"]),
    ("How many days?", ["How", "many", "days?"]),
    ("Last Name", ["Last", "Name"]),
]
WORDS = [
    "Sprint", "me@gmail.com", "qmail", "days", "davs", "12345-6789", "12345", "leak@x.com",
    "Yes", "No", "Not", "at", "all", "Last", "Name", "x",
]
MARK_TEXTS = ["Yes", "No", "yes please", "N", "y", "Maybe", ""]


@st.composite
def pages(draw):
    """Sections of questions on three row bands, words, highlight marks
    and boxes placed relative to the questions, so that bands, windows,
    neighbours and box pairs meet."""
    qs = []
    for _ in range(draw(st.integers(1, 6))):
        text, toks = draw(st.sampled_from(QUESTIONS))
        x = draw(st.integers(0, 1400))
        y = draw(st.sampled_from([100, 300, 500])) + draw(st.integers(0, 30))
        second = draw(st.one_of(st.none(), st.integers(25, 45).map(lambda d: y + d)))
        qs.append(_q(text, x, y, toks, second))
    cuts = sorted(draw(st.lists(st.integers(1, len(qs)), max_size=2)))
    sections = [
        _sec(f"S{i}", *qs[a:b])
        for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(qs)]))
        if a < b
    ]

    def near(dx, dy):
        q = draw(st.sampled_from(qs))
        last = max(s["line_y"] for s in q["segments"])
        return q["position"][0] + draw(dx), last + draw(dy)

    tokens = []
    for i in range(draw(st.integers(0, 14))):
        x, y = near(st.integers(-40, 900), st.integers(20, 140))
        tokens.append({
            "text": draw(st.sampled_from(WORDS)), "x": x, "y": y,
            "w": 60, "h": draw(st.integers(10, 40)),
            "block": draw(st.integers(0, 3)), "par": 0, "line": draw(st.integers(0, 2)),
        })
    marks = []
    for i in range(draw(st.integers(0, 3))):
        x, y = near(st.integers(-60, 900), st.integers(0, 200))
        marks.append(_mark(x, y, draw(st.sampled_from(MARK_TEXTS)), i))
    boxes = []
    for i in range(draw(st.integers(0, 4))):
        x, y = near(st.sampled_from([0, 2, 4, 6, 250, 300]), st.integers(-30, 80))
        boxes.append(make_box(x, y, 0.9, draw(st.sampled_from(["ticked", "empty"])), f"cb{i}"))
    width = draw(st.sampled_from([1000, 2000]))
    height = draw(st.sampled_from([650, 3000]))
    return sections, tokens, marks, boxes, width, height


@settings(max_examples=400, deadline=None)
@given(pages())
@example(CASES["highlight_before_trim"][0] + (2000, 3000))
@example(CASES["global_trim_band"][0] + (2000, 3000))
@example(CASES["highlight_reading_order"][0] + (2000, 3000))
def test_one_pass_equals_spec(page):
    want, got, _ = _both(*page)
    assert got == want
