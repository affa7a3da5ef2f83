"""Property test: the page's :func:`group_lines` result, which the
answer collector reads as is, must agree with the collector's own
grouping (`group_lines_with_height(tokens)`) on every consumed field,
the line height being the tallest word's, for arbitrary token streams
— the bit-equivalence claim behind skipping one grouping pass per
page."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.kernels.lines import group_lines, group_lines_with_height

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
    got = group_lines([dict(t) for t in tokens])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g["y"] == w["y"]
        assert max(int(t["h"]) for t in g["words"]) == w["h"]
        assert [t["text"] for t in g["words"]] == [t["text"] for t in w["words"]]
        assert [t["x"] for t in g["words"]] == [t["x"] for t in w["words"]]
        assert [t["y"] for t in g["words"]] == [t["y"] for t in w["words"]]
