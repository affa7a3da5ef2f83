"""Unit tests for the question matcher (C3) and assignment (J1)."""

from conftest import make_box, make_tokens

from pdf_parser_ray.kernels.assign import assign_checkboxes_sectionwise
from pdf_parser_ray.kernels.lines import PageModel
from pdf_parser_ray.kernels.questions import (
    NextHead,
    find_all_full_in_line,
    match_questions_like_labels,
    match_sections_and_questions,
)


class TestAssign:
    def _setup(self, box_y, label_y=300):
        boxes = [make_box(90, box_y, 0.9, "ticked", ref="media://d/p1/cb-0")]
        sections = [{"section_name": "S", "labels": ["Diabetes"]}]
        label_positions = {"Diabetes": [(150, label_y)]}
        regions = {"S": {"x1": 0, "y1": 200, "x2": 2000, "y2": 400}}
        return assign_checkboxes_sectionwise(boxes, sections, label_positions, regions)

    def test_assigns_nearest(self):
        out = self._setup(box_y=296)
        assert out[0]["checkboxes"][0]["status"] == "ticked"
        assert out[0]["checkboxes"][0]["ref"] == "media://d/p1/cb-0"

    def test_delta_y_cutoff(self):
        # row mean y = box y; |row_y - label_y| = 61 > 60 → missing →
        # section dropped (no non-missing box).
        out = self._setup(box_y=361)
        assert out == []

    def test_delta_y_at_60_ok(self):
        out = self._setup(box_y=360)
        assert out[0]["checkboxes"][0]["status"] == "ticked"

    def test_label_outside_anchor_offset_missing(self):
        # label y 230 < y1+40=240 → not considered → missing
        out = self._setup(box_y=296, label_y=230)
        assert out == []

    def test_used_box_exclusivity(self):
        boxes = [make_box(90, 300, 0.9, "ticked")]
        sections = [{"section_name": "S", "labels": ["A", "B"]}]
        label_positions = {"A": [(150, 300)], "B": [(150, 320)]}
        regions = {"S": {"x1": 0, "y1": 200, "x2": 2000, "y2": 400}}
        out = assign_checkboxes_sectionwise(boxes, sections, label_positions, regions)
        cbs = out[0]["checkboxes"]
        assert [c["status"] for c in cbs] == ["ticked", "missing"]


class TestQuestionMatching:
    def test_startswith_blocks_mid_token(self):
        tokens = make_tokens([(["CARE", "you"], 100, 100)])
        hits = match_questions_like_labels(tokens, ["Are you"])
        assert hits == {}

    def test_joined_token_allowed(self):
        tokens = make_tokens([(["AREYOU", "ok"], 100, 100)])
        hits = match_questions_like_labels(tokens, ["Are you"])
        assert hits["Are you"][0]["x"] == 100

    def test_merged_phrase_fast_path(self):
        segs = find_all_full_in_line(
            PageModel([{"text": "FirstName", "x": 10, "y": 20, "w": 100, "h": 28}]).lines,
            0,
            ["First", "Name"],
        )
        assert len(segs) == 1 and segs[0]["count"] == 2

    def test_all_same_line_occurrences(self):
        tokens = make_tokens(
            [(["First", "Name"], 100, 100), (["First", "Name"], 1000, 100)]
        )
        hits = match_questions_like_labels(tokens, ["First Name"])
        assert len(hits["First Name"]) == 2


class TestSectionsAndQuestions:
    def test_duplicate_question_kth_occurrence(self):
        tokens = make_tokens(
            [
                (["FAMILY", "HISTORY"], 50, 100),
                (["Medical", "Conditions"], 150, 200),
                (["Medical", "Conditions"], 150, 400),
            ]
        )
        sections = [
            {"section_name": "FAMILY HISTORY", "questions": ["Medical Conditions"] * 2}
        ]
        regions = {"FAMILY HISTORY": {"x1": 0, "y1": 100, "x2": 2000, "y2": 900}}
        out = match_sections_and_questions(tokens, sections, regions, page_height=3000)
        qs = out[0]["questions"]
        assert [q["position"][1] for q in qs] == [200, 400]

    def test_band_and_min_start_y(self):
        # Hit above anchor+40 must be rejected.
        tokens = make_tokens(
            [(["CONSENT"], 50, 100), (["Provider", "Name"], 150, 120)]
        )
        sections = [{"section_name": "CONSENT", "questions": ["Provider Name"]}]
        regions = {"CONSENT": {"x1": 0, "y1": 100, "x2": 2000, "y2": 600}}
        out = match_sections_and_questions(tokens, sections, regions, page_height=3000)
        assert out == []

    def test_band_clamped_by_next_anchor(self):
        # Question inside the next section's band is not attributed to
        # the previous section even if its region.y2 extends past it.
        tokens = make_tokens(
            [
                (["ALPHA"], 50, 100),
                (["BETA"], 50, 500),
                (["Provider", "Name"], 150, 600),
            ]
        )
        sections = [
            {"section_name": "ALPHA", "questions": ["Provider Name"]},
            {"section_name": "BETA", "questions": ["Provider Name"]},
        ]
        regions = {
            "ALPHA": {"x1": 0, "y1": 100, "x2": 2000, "y2": 800},
            "BETA": {"x1": 0, "y1": 500, "x2": 2000, "y2": 800},
        }
        out = match_sections_and_questions(tokens, sections, regions, page_height=3000)
        by_sec = {o["section"]: o for o in out}
        assert "ALPHA" not in by_sec
        assert by_sec["BETA"]["questions"][0]["position"][1] == 600


class TestCrossPageQuestion:
    def test_question_wraps_onto_next_page_head(self):
        """A question starting near the page bottom with its tail on
        the next page's head must match via the cross-page fallback
        (response_extractor.py:751-766): start position stays on this
        page, continuation tokens live in the virtual space below."""
        tokens = make_tokens(
            [(["CONSENT"], 50, 2500), (["Would", "you", "like"], 150, 2950)]
        )
        next_tokens = make_tokens([(["reminders?"], 160, 40)])
        sections = [
            {"section_name": "CONSENT", "questions": ["Would you like reminders?"]}
        ]
        regions = {"CONSENT": {"x1": 0, "y1": 2500, "x2": 2000, "y2": 2990}}
        out = match_sections_and_questions(
            tokens, sections, regions, page_height=3000,
            next_head=NextHead(tokens, next_tokens, page_height=3000),
        )
        q = out[0]["questions"][0]
        assert q["position"] == [150, 2950]
        # continuation segment lives in virtual next-page space
        assert q["segments"][-1]["line_y"] == 3040

    def test_no_match_without_next_page(self):
        tokens = make_tokens(
            [(["CONSENT"], 50, 2500), (["Would", "you", "like"], 150, 2950)]
        )
        sections = [
            {"section_name": "CONSENT", "questions": ["Would you like reminders?"]}
        ]
        regions = {"CONSENT": {"x1": 0, "y1": 2500, "x2": 2000, "y2": 2990}}
        out = match_sections_and_questions(tokens, sections, regions, page_height=3000)
        assert out == []
