"""The reference's token-dict line rules, kept as executable spec for
the page columns of ``pdf_parser_ray.kernels.lines``:

* :func:`group_lines` — reference ``response_extractor.py:262-291``:
  key = ``(block, par, line)``, blank words skipped, words sorted by x
  within a line, lines sorted by the y of their first word (stable);
* :func:`group_lines_with_height` — the answer collector's grouping
  (reference ``response_extractor.py:879-898``), with each line's
  tallest word and joined text;
* :func:`reading_order` — tokens stably sorted by (y, x);
* :func:`head_line_groups` and :func:`offset_tokens` — the next page's
  head (reference ``extractor.py:331-375``);
* :func:`band_tokens` — the tokens of a band crop;
* :func:`shape` — :class:`~pdf_parser_ray.kernels.lines.Lines` in the
  shape of these dict lines, for comparing the two, and :func:`line_run`,
  a run of their lines as lines of their own.
"""

from __future__ import annotations

from operator import itemgetter

_BY_X = itemgetter("x")
_BY_Y = itemgetter("y")


def _clean(tok, word):
    return {
        "text": word,
        "x": int(tok.get("x", 0)),
        "y": int(tok.get("y", 0)),
        "w": int(tok.get("w", 0)),
        "h": int(tok.get("h", 0)),
    }


def group_lines(tokens):
    lines = {}
    for tok in tokens:
        word = (tok.get("text") or "").strip()
        if not word:
            continue
        key = (tok.get("block", 0), tok.get("par", 0), tok.get("line", 0))
        w = _clean(tok, word)
        entry = lines.get(key)
        if entry is None:
            lines[key] = {"words": [w], "y": w["y"]}
        else:
            entry["words"].append(w)
    out = list(lines.values())
    for ln in out:
        ln["words"].sort(key=_BY_X)
    out.sort(key=_BY_Y)
    return out


def group_lines_with_height(tokens):
    out = group_lines(tokens)
    for ln in out:
        ln["h"] = max(w["h"] for w in ln["words"])
        ln["text"] = " ".join(w["text"] for w in ln["words"])
    return out


def reading_order(tokens):
    return sorted(tokens, key=lambda t: (int(t.get("y", 0)), int(t.get("x", 0))))


def head_line_groups(lines, n_groups):
    kept = []
    seen_groups = 0
    i = 0
    n = max(0, int(n_groups))
    while i < len(lines) and seen_groups < n:
        group_y = lines[i]["y"]
        while i < len(lines) and lines[i]["y"] == group_y:
            kept.append(lines[i])
            i += 1
        seen_groups += 1
    return kept


def offset_tokens(tokens, y_offset):
    return [dict(t, y=int(t.get("y", 0)) + int(y_offset)) for t in tokens]


def band_tokens(tokens, y1, y2):
    return [t for t in tokens if y1 <= int(t.get("y", 0)) < y2]


def shape(lines):
    """Page columns as ``group_lines``' dict lines."""
    out = []
    for i in range(len(lines)):
        ks = lines.line_words(i)
        words = [
            {"text": lines.text[k], "x": lines.x[k], "y": lines.y[k], "w": lines.w[k],
             "h": lines.h[k]}
            for k in ks
        ]
        out.append({"words": words, "y": lines.ys[i]})
    return out


def line_run(lines, a, b):
    """The lines ``a..b-1`` of page columns as lines of their own."""
    from pdf_parser_ray.kernels.lines import Lines

    s, e = lines.starts[a], lines.starts[b]
    return Lines(
        lines.text[s:e], lines.x[s:e], lines.y[s:e], lines.w[s:e], lines.h[s:e],
        [v - s for v in lines.starts[a : b + 1]], lines.ys[a:b],
    )
