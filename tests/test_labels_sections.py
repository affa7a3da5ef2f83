"""Unit tests for the label matcher (C1) and section detector (C2/A2/A3)."""

from conftest import make_box, make_tokens

from pdf_parser_ray.kernels.labels import get_label_positions, try_multiline_on_lines
from pdf_parser_ray.kernels.lines import PageModel
from pdf_parser_ray.kernels.questions import NextHead
from pdf_parser_ray.kernels.sections import detect_section_regions


class TestLabelSingleLine:
    def test_exact_match_position(self):
        tokens = make_tokens([(["Liver", "Problems"], 150, 300)])
        pos = get_label_positions(tokens, ["Liver Problems"])
        assert pos["Liver Problems"] == [(150, 300)]

    def test_il1_ocr_noise(self):
        tokens = make_tokens([(["L1ver", "Problems"], 150, 300)])
        pos = get_label_positions(tokens, ["Liver Problems"])
        assert pos["Liver Problems"] == [(150, 300)]

    def test_no_match(self):
        tokens = make_tokens([(["Heart", "Murmur"], 150, 300)])
        pos = get_label_positions(tokens, ["Liver Problems"])
        assert "Liver Problems" not in pos

    def test_skip_k_matches_suffix_only(self):
        # Faithful reference quirk: the skip-k fallback
        # (extractor.py:502-510) lets 'Liver Problems' bind to a lone
        # 'Problems' token when the first word is absent.
        tokens = make_tokens([(["Kidney", "Problems"], 150, 300)])
        pos = get_label_positions(tokens, ["Liver Problems"])
        assert pos["Liver Problems"] == [(256, 300)]

    def test_multiple_occurrences_all_recorded(self):
        tokens = make_tokens(
            [(["Diabetes"], 150, 300), (["Diabetes"], 1050, 300)]
        )
        pos = get_label_positions(tokens, ["Diabetes"])
        assert len(pos["Diabetes"]) == 2


class TestLabelMultiline:
    def test_wrap_within_x_tolerance(self):
        lines = PageModel(
            make_tokens([(["High", "Blood"], 150, 300), (["Pressure"], 200, 340)])
        ).lines
        assert try_multiline_on_lines(lines, ["High", "Blood", "Pressure"]) == (150, 300)

    def test_wrap_relaxes_outside_tolerance(self):
        # 161px > LABEL_MULTILINE_BASE_X_TOLERANCE, but the reference
        # relaxes to scanning the whole line (extractor.py:435-437).
        lines = PageModel(
            make_tokens([(["High", "Blood"], 150, 300), (["Pressure"], 150 + 161, 340)])
        ).lines
        assert try_multiline_on_lines(lines, ["High", "Blood", "Pressure"]) == (150, 300)

    def test_skip_k_fallback(self):
        # First word garbled beyond IL1 flexibility → skip-1 suffix match
        tokens = make_tokens([(["###", "Blood", "Pressure"], 150, 300)])
        pos = get_label_positions(tokens, ["High Blood Pressure"])
        assert pos["High Blood Pressure"] == [(214, 300)]  # x of 'Blood'

    def test_cross_page_continuation(self):
        tokens = make_tokens([(["Kidney"], 150, 2950)])
        next_tokens = make_tokens([(["Disease"], 160, 40)])
        pos = get_label_positions(
            tokens,
            ["Kidney Disease"],
            next_head=NextHead(tokens, next_tokens, page_height=3000),
        )
        assert pos["Kidney Disease"] == [(150, 2950)]


class TestSectionDetect:
    def test_basic_anchor_and_growth(self):
        tokens = make_tokens([(["MEDICAL", "HISTORY"], 50, 500)])
        boxes = [make_box(100, 560), make_box(100, 640), make_box(100, 780)]
        regions = detect_section_regions(
            tokens, [{"section_name": "MEDICAL HISTORY"}], boxes, page_width=2000
        )
        # 560→640 gap 80 (<=100, chained); 640→780 gap 140 (>100, stop)
        assert regions["MEDICAL HISTORY"] == {"x1": 0, "y1": 500, "x2": 2000, "y2": 640 + 50}

    def test_anchor_requires_first_10pct(self):
        tokens = make_tokens([(["MEDICAL", "HISTORY"], 300, 500)])
        regions = detect_section_regions(
            tokens, [{"section_name": "MEDICAL HISTORY"}], [], page_width=2000
        )
        assert regions == {}

    def test_multiword_needs_two_matches(self):
        tokens = make_tokens([(["MEDICAL", "Xxx"], 50, 500)])
        regions = detect_section_regions(
            tokens, [{"section_name": "MEDICAL HISTORY"}], [], page_width=2000
        )
        assert regions == {}

    def test_single_word_header(self):
        tokens = make_tokens([(["CONSENT"], 50, 500)])
        regions = detect_section_regions(
            tokens, [{"section_name": "CONSENT"}], [], page_width=2000
        )
        assert regions["CONSENT"]["y1"] == 500

    def test_claimed_y_exclusion(self):
        # Two sections whose headers would bind the same line: the
        # second must not claim the same y (extractor.py:787).
        tokens = make_tokens([(["HISTORY", "NOTES"], 50, 500), (["HISTORY"], 60, 700)])
        regions = detect_section_regions(
            tokens,
            [{"section_name": "HISTORY"}, {"section_name": "HISTORY"}],
            [],
            page_width=2000,
        )
        # dict key collapses same-named sections; use distinct names
        tokens = make_tokens([(["ALPHA"], 50, 500), (["ALPHA"], 60, 700)])
        regions = detect_section_regions(
            tokens,
            [{"section_name": "ALPHA"}, {"section_name": "ALPHA BETA"}],
            [],
            page_width=2000,
        )
        assert regions["ALPHA"]["y1"] == 500

    def test_merged_token_fast_path(self):
        tokens = make_tokens([(["MEDICALHISTORY", "extra"], 50, 500)])
        regions = detect_section_regions(
            tokens, [{"section_name": "MEDICAL HISTORY"}], [], page_width=2000
        )
        assert regions["MEDICAL HISTORY"]["y1"] == 500

    def test_multiline_header_continuation(self):
        tokens = make_tokens(
            [(["FAMILY"], 50, 500), (["HISTORY"], 70, 540)]
        )
        regions = detect_section_regions(
            tokens, [{"section_name": "FAMILY HISTORY"}], [], page_width=2000
        )
        assert regions["FAMILY HISTORY"]["y1"] == 500
