"""Property test: the page's lines, which the answer collector reads
as is, must agree with the collector's own grouping
(``group_lines_with_height(tokens)``, kept as spec in ``line_rules``)
on every consumed field, the line height being the tallest word's, for
arbitrary token streams — the bit-equivalence claim behind one set of
lines per page."""

from hypothesis import given, settings
from hypothesis import strategies as st

from line_rules import group_lines_with_height

from pdf_parser_ray.kernels.lines import PageModel

token = st.fixed_dictionaries(
    {
        # include empty/whitespace texts (skipped) and strip-needed ones
        "text": st.sampled_from(["", " ", "ab", " cd ", "x", "Yes", "No 1"]),
        "x": st.integers(0, 300),
        "y": st.integers(0, 300),
        "w": st.integers(0, 40),
        "h": st.integers(0, 40),
        "block": st.integers(0, 3),
        "par": st.integers(0, 3),
        "line": st.integers(0, 3),
    }
)


@settings(max_examples=200, deadline=None)
@given(st.lists(token, max_size=60))
def test_derived_lines_equal_regrouped(tokens):
    want = group_lines_with_height([dict(t) for t in tokens])
    lines = PageModel([dict(t) for t in tokens]).lines
    assert len(lines) == len(want)
    for i, w in enumerate(want):
        ks = lines.line_words(i)
        assert lines.ys[i] == w["y"]
        assert max(lines.h[k] for k in ks) == w["h"]
        assert " ".join(lines.text[k] for k in ks) == w["text"]
        assert [lines.x[k] for k in ks] == [t["x"] for t in w["words"]]
        assert [lines.y[k] for k in ks] == [t["y"] for t in w["words"]]
