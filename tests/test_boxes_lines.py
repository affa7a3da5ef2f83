"""Unit tests for line grouping (M3/O5) and box kernels (D1/A1/M9)."""

from conftest import make_box, make_tokens

from pdf_parser_ray.kernels.boxes import (
    cluster_checkboxes_by_rows,
    deduplicate_matches,
    filter_checkboxes_in_region,
)
from pdf_parser_ray.kernels.lines import PageModel
from pdf_parser_ray.kernels.questions import NextHead


class TestGroupLines:
    def test_sorted_words_and_lines(self):
        tokens = make_tokens([(["b", "a"], 100, 200), (["top"], 50, 100)])
        # scramble x of the first line: swap manually
        tokens[0]["x"], tokens[1]["x"] = 300, 100
        lines = PageModel(tokens).lines
        assert lines.ys == [100, 200]
        assert [lines.text[k] for k in lines.line_words(1)] == ["a", "b"]

    def test_blank_tokens_skipped(self):
        tokens = make_tokens([(["x"], 10, 10)]) + [
            {"text": "  ", "x": 5, "y": 5, "w": 1, "h": 1, "block": 9, "par": 1, "line": 1}
        ]
        assert len(PageModel(tokens).lines) == 1

    def test_height_variant_carries_max_h_and_text(self):
        tokens = make_tokens([(["hello", "world"], 10, 50)])
        tokens[1]["h"] = 40
        lines = PageModel(tokens).lines
        assert max(lines.h[k] for k in lines.line_words(0)) == 40
        assert " ".join(lines.text[k] for k in lines.line_words(0)) == "hello world"


class TestHeadLineGroups:
    def test_shared_y_counts_as_one_group(self):
        tokens = make_tokens(
            [(["a"], 10, 100), (["b"], 500, 100), (["c"], 10, 200), (["d"], 10, 300)]
        )
        lines = PageModel(tokens).lines
        assert lines.ys[: lines.head(2)] == [100, 100, 200]

    def test_next_head_offsets_by_page_height(self):
        cur = make_tokens([(["a"], 10, 100)])
        nxt = make_tokens([(["n1"], 10, 50), (["n2"], 10, 90)])
        out = NextHead(cur, nxt, page_height=3000, n_groups=1).lines
        assert out.ys == [100, 3050]


class TestDedup:
    def test_within_5px_dropped_keep_best(self):
        t = [make_box(100, 100, 0.95)]
        e = [make_box(103, 102, 0.80)]
        out = deduplicate_matches(t, e)
        assert len(out) == 1
        assert out[0]["status"] == "ticked"

    def test_at_5px_kept(self):
        t = [make_box(100, 100, 0.95)]
        e = [make_box(105, 100, 0.80)]
        out = deduplicate_matches(t, e)
        assert len(out) == 2

    def test_tie_prefers_ticked_listed_first(self):
        # Equal scores: stable sort keeps ticked (listed first) ahead.
        t = [make_box(100, 100, 0.90)]
        e = [make_box(101, 101, 0.90)]
        out = deduplicate_matches(t, e)
        assert len(out) == 1 and out[0]["status"] == "ticked"

    def test_output_sorted_by_y_then_x(self):
        t = [make_box(500, 300, 0.9), make_box(100, 100, 0.7)]
        out = deduplicate_matches(t, [])
        assert [(b["y"], b["x"]) for b in out] == [(100, 100), (300, 500)]


class TestCluster:
    def test_gap_boundary_50_51(self):
        boxes = [make_box(0, 100), make_box(0, 150), make_box(0, 201)]
        rows = cluster_checkboxes_by_rows(boxes)
        # 100→150 gap 50 (<=50, same row); 150→201 gap 51 (>50, split)
        assert len(rows) == 2
        assert rows[0]["y"] == 125.0

    def test_filter_region_inclusive(self):
        boxes = [make_box(0, 99), make_box(0, 100), make_box(0, 200), make_box(0, 201)]
        region = {"y1": 100, "y2": 200}
        out = filter_checkboxes_in_region(boxes, region)
        assert [b["y"] for b in out] == [100, 200]
