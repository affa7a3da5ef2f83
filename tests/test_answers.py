"""Unit tests for answer collection (C4), window trims (J4), the
highlight/checkbox/follow-up inference chain (C5) and sanitizers (M10)."""

from conftest import make_box, make_tokens

from pdf_parser_ray.kernels.answers import (
    augment_answers,
    collect_answer_lines,
    compute_right_bound,
    highlight_recover,
    looks_yes_no_question,
)
from pdf_parser_ray.kernels.lines import PageModel


def _q(question, x, y, segments=None):
    return {
        "question": question,
        "position": [x, y],
        "segments": segments
        or [{"line_y": y, "start_x": x, "end_x": x + 100, "count": 1, "tokens": question.split()}],
    }


class TestRightBound:
    def test_same_row_neighbor(self):
        q1 = _q("First Name", 100, 500)
        q2 = _q("Last Name", 1000, 508)  # Δy=8 <= 12
        assert compute_right_bound([q1, q2], q1, 2000) == 995

    def test_different_row_full_width(self):
        q1 = _q("First Name", 100, 500)
        q2 = _q("Last Name", 1000, 513)  # Δy=13 > 12
        assert compute_right_bound([q1, q2], q1, 2000) == 1980

    def test_narrative_exception(self):
        q1 = _q("Medical Conditions", 100, 500)
        q2 = _q("Last Name", 1000, 500)
        assert compute_right_bound([q1, q2], q1, 2000) == 1980


class TestCollectAnswerLines:
    def _lines(self, specs):
        return PageModel(make_tokens(specs)).lines

    def test_band_capture(self):
        lines = self._lines([(["hello"], 110, 545)])  # in [540, 580]
        ans, y1, y2 = collect_answer_lines(lines, 100, 500, None, 900)
        assert ans == "hello"
        assert (y1, y2) == (540, 580)

    def test_below_band_missed(self):
        lines = self._lines([(["hello"], 110, 581)])
        ans, _, _ = collect_answer_lines(lines, 100, 500, None, 900)
        assert ans == ""

    def test_left_margin_window(self):
        lines = self._lines([(["in"], 72, 545), (["out"], 65, 545)])
        ans, _, _ = collect_answer_lines(lines, 100, 500, None, 900)
        # left bound = 70: token at 72 kept, token at 65 dropped
        assert ans == "in"

    def test_continuation_window(self):
        lines = self._lines([(["first"], 110, 545), (["wrap"], 110, 590)])
        # y_answer=545; cont (555, 595]: 590 qualifies
        ans, _, y2 = collect_answer_lines(lines, 100, 500, None, 900)
        assert ans == "first wrap"
        assert y2 == 590 + 28  # dynamic extension beyond band bottom

    def test_continuation_skips_question_line(self):
        lines = self._lines([(["first"], 110, 545), (["Last", "Name"], 110, 590)])
        ans, _, _ = collect_answer_lines(
            lines, 100, 500, None, 900, question_line_token_set={"last name"}
        )
        assert ans == "first"

    def test_consecutive_duplicate_collapse(self):
        lines = self._lines([(["Not", "at", "all"], 110, 545), (["Not", "at", "all"], 110, 575)])
        ans, _, _ = collect_answer_lines(lines, 100, 500, None, 900)
        assert ans == "Not at all"

    def test_last_segment_baseline(self):
        # Multi-line question: band starts from the LAST segment line.
        segs = [
            {"line_y": 500, "start_x": 100, "end_x": 300, "count": 2, "tokens": ["a", "b"]},
            {"line_y": 540, "start_x": 100, "end_x": 300, "count": 1, "tokens": ["c"]},
        ]
        lines = self._lines([(["ans"], 110, 585)])
        ans, y1, _ = collect_answer_lines(lines, 100, 500, segs, 900)
        assert ans == "ans" and y1 == 580


class TestHighlightRecover:
    def test_inside_padded_window(self):
        box = {"x_start": 100, "y_start": 500, "x_end": 400, "y_end": 540}
        marks = [{"x": 90, "y": 492, "w": 80, "h": 30, "text": "Yes", "ref": "m://h"}]
        assert highlight_recover(marks, box) == ("Yes", "m://h")

    def test_outside_padded_window(self):
        box = {"x_start": 100, "y_start": 500, "x_end": 400, "y_end": 540}
        marks = [{"x": 84, "y": 492, "w": 80, "h": 30, "text": "Yes", "ref": "m://h"}]
        assert highlight_recover(marks, box) == ("", "")

    def test_non_yesno_text(self):
        box = {"x_start": 100, "y_start": 500, "x_end": 400, "y_end": 540}
        marks = [{"x": 200, "y": 510, "w": 80, "h": 30, "text": "Maybe", "ref": "m://h"}]
        assert highlight_recover(marks, box) == ("", "")

    def test_yes_no_question_predicate(self):
        assert looks_yes_no_question("Do you smoke?")
        assert not looks_yes_no_question("Do you smoke")
        assert not looks_yes_no_question("Favorite color?")


class TestAugmentAnswers:
    def test_highlight_fallback_base_window(self):
        tokens = make_tokens([(["Do", "you", "smoke?"], 100, 500)])
        matches = [
            {"section": "S", "anchor_y": 400, "questions": [_q("Do you smoke?", 100, 500)]}
        ]
        marks = [{"x": 150, "y": 550, "w": 80, "h": 30, "text": "No", "ref": "m://h1"}]
        out = augment_answers(matches, tokens, marks, [], 2000, 3000)
        q = out[0]["questions"][0]
        assert q["answer"] == "No"
        assert q["answer_method"] == "highlight_fallback"

    def test_highlight_slide(self):
        tokens = make_tokens([(["Do", "you", "smoke?"], 100, 500)])
        matches = [
            {"section": "S", "anchor_y": 400, "questions": [_q("Do you smoke?", 100, 500)]}
        ]
        # base window [540,580] padded ±12 → y<=592; mark at 640 missed.
        # slide: offsets from last_seg_y=500 → e.g. 500+44..+band_h(40)
        # band [544,584]... mark y=640: slide off=44 → [544,584]? no.
        # probes: probe1=[580,620] pad→632 no; probe2=[620,660] → hit.
        marks = [{"x": 150, "y": 640, "w": 80, "h": 30, "text": "Yes", "ref": "m://h2"}]
        out = augment_answers(matches, tokens, marks, [], 2000, 3000)
        q = out[0]["questions"][0]
        assert q["answer"] == "Yes"
        assert q["answer_method"].startswith("highlight_probe")
        assert q["answer_confidence"] == 0.95

    def test_checkbox_pair_inference(self):
        qtext = "Would you like automatic appointment reminders?"
        seg = [{"line_y": 500, "start_x": 100, "end_x": 700, "count": 6,
                "tokens": ["Would", "you", "like", "automatic", "appointment", "reminders?"]}]
        for left, right, expect in [
            ("ticked", "empty", "Yes"),
            ("empty", "ticked", "No"),
            ("ticked", "ticked", "Yes"),
            ("empty", "empty", None),
        ]:
            matches = [{"section": "S", "anchor_y": 400,
                        "questions": [_q(qtext, 100, 500, seg)]}]
            boxes = [make_box(150, 530, 0.9, left), make_box(400, 530, 0.9, right)]
            out = augment_answers(matches, [], [], boxes, 2000, 3000)
            q = out[0]["questions"][0]
            assert q.get("answer") == expect, (left, right)
            if expect:
                assert q["answer_source"] == "checkbox"

    def test_followup_inference(self):
        q1 = _q("Would you like automatic appointment reminders?", 100, 500)
        q2 = _q("If yes, which provider?", 100, 700)
        tokens = make_tokens([(["Sprint"], 110, 745)])
        matches = [{"section": "S", "anchor_y": 400, "questions": [q1, q2]}]
        out = augment_answers(matches, tokens, [], [], 2000, 3000)
        qs = out[0]["questions"]
        assert qs[1]["answer"] == "Sprint"
        assert qs[0]["answer"] == "Yes"
        assert qs[0]["answer_source"] == "followup_inference"
        assert qs[0]["answer_confidence"] == 0.8

    def test_zip_sanitizer(self):
        q1 = _q("Zip Code", 100, 500)
        tokens = make_tokens([(["12345-6789", "leak@x.com"], 110, 545)])
        matches = [{"section": "S", "anchor_y": 400, "questions": [q1]}]
        out = augment_answers(matches, tokens, [], [], 2000, 3000)
        assert out[0]["questions"][0]["answer"] == "12345-6789"

    def test_global_window_trim_and_pruning(self):
        # Two questions on the same row band in DIFFERENT sections; the
        # left answer window initially spans full width and captures the
        # right column's answer too; the global trim + strict pruning
        # must cut it back.
        qa = _q("Email Address", 100, 500)
        qb = _q("Provider Name", 1000, 510)  # Δy=10 > 12? no: same-sec rule needs <=12 — use cross-section global (tol 24)
        tokens = make_tokens(
            [(["me@x.com"], 110, 545), (["Verizon"], 1010, 550)]
        )
        matches = [
            {"section": "S1", "anchor_y": 400, "questions": [qa]},
            {"section": "S2", "anchor_y": 400, "questions": [qb]},
        ]
        out = augment_answers(matches, tokens, [], [], 2000, 3000)
        a = out[0]["questions"][0]
        b = out[1]["questions"][0]
        # Without trimming, qa's window would reach page right and its
        # answer would include 'Verizon'; the global pass trims x_end to
        # 1000-30-5=965 and pruning drops the stray token.
        assert a["answer"] == "me@x.com"
        assert b["answer"] == "Verizon"
        assert a["answer_window"]["x_end"] == 965
