"""OCR token → line-group kernels (operator M3 + O5 in SURVEY.md §2).

The reference builds "lines" — tokens grouped by
``(block_num, par_num, line_num)``, words sorted by x, lines sorted by
y — in five near-identical clones (``extractor.py:304-322`` /
``546-567``, ``response_extractor.py:103-133`` / ``262-291`` /
``879-898``). Implemented once here, parameterized by which token
fields are kept.

Tokens are plain dicts ``{text, x, y, w, h, block, par, line}``, one
per OCR word. The parse stage decodes their geometry for a whole batch
in Arrow and builds each page's token dicts in one pass
(``kernels.document.decode_spans``); the page's lines, and the shifted
head lines its predecessor reads across the page break
(:func:`offset_lines`), are grouped once per page and shared by every
fold phase (``kernels.document.PageModel``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable

Token = dict[str, Any]
Line = dict[str, Any]

# C-level sort keys (itemgetter beats a Python lambda per comparison)
_BY_X = itemgetter("x")
_BY_Y = itemgetter("y")


def group_lines(tokens: Iterable[Token]) -> list[Line]:
    """Group tokens into reading-order lines.

    Mirrors ``response_extractor.py:262-291``: key =
    ``(block, par, line)``, words sorted by x within a line, lines
    sorted by y (stable). Empty-text tokens are skipped (the reference
    strips and skips blanks).
    """
    lines: dict[tuple, Line] = {}
    for tok in tokens:
        text = tok.get("text") or ""
        word = text.strip()
        if not word:
            continue
        key = (tok.get("block", 0), tok.get("par", 0), tok.get("line", 0))
        entry = lines.get(key)
        if word is text:
            # already-clean token dicts are reused as-is (never mutated
            # downstream) — avoids one dict per token per grouping pass
            w = tok
        else:
            w = {
                "text": word,
                "x": int(tok.get("x", 0)),
                "y": int(tok.get("y", 0)),
                "w": int(tok.get("w", 0)),
                "h": int(tok.get("h", 0)),
            }
        if entry is None:
            lines[key] = {
                "block": key[0],
                "par": key[1],
                "line_num": key[2],
                "words": [w],
                "y": int(w["y"]),
            }
        else:
            entry["words"].append(w)
    out = list(lines.values())
    for ln in out:
        ln["words"].sort(key=_BY_X)
    out.sort(key=_BY_Y)
    return out


def group_lines_with_height(tokens: Iterable[Token]) -> list[Line]:
    """Line grouping for the answer collector
    (reference ``response_extractor.py:879-898``): carries a per-line
    max height ``h`` and a precomputed joined ``text``.
    """
    lines: dict[tuple, Line] = {}
    for tok in tokens:
        text = tok.get("text") or ""
        word = text.strip()
        if not word:
            continue
        key = (tok.get("block", 0), tok.get("par", 0), tok.get("line", 0))
        if word is text:
            w = tok
        else:
            w = {
                "text": word,
                "x": int(tok.get("x", 0)),
                "y": int(tok.get("y", 0)),
                "w": int(tok.get("w", 0)),
                "h": int(tok.get("h", 0)),
            }
        entry = lines.get(key)
        if entry is None:
            lines[key] = {"words": [w], "y": int(w["y"]), "h": int(w.get("h", 0))}
        else:
            entry["words"].append(w)
            entry["h"] = max(entry["h"], int(w.get("h", 0)))
    out = sorted(lines.values(), key=_BY_Y)
    for ln in out:
        ln["words"].sort(key=_BY_X)
        ln["text"] = " ".join(w["text"] for w in ln["words"])
    return out


def head_line_groups(lines: list[Line], n_groups: int) -> list[Line]:
    """Keep the first ``n_groups`` distinct-y line groups.

    Mirrors the next-page head-limit loop (reference
    ``extractor.py:362-373``, ``response_extractor.py:332-343``):
    consecutive lines sharing the same y count as one group.
    """
    kept: list[Line] = []
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


def _yx(tok: Token) -> tuple[int, int]:
    return int(tok.get("y", 0)), int(tok.get("x", 0))


def reading_order(tokens: Iterable[Token]) -> list[Token]:
    """Tokens stably sorted by (y, x), the order OCR reads them."""
    return sorted(tokens, key=_yx)


def offset_lines(lines: list[Line], y_offset: int) -> list[Line]:
    """``lines`` moved down by ``y_offset``: equal to grouping their
    tokens after :func:`offset_tokens`. The grouping keys, the word
    order and the stable y-sort do not change under a common shift,
    so only each word's and line's ``y`` moves (as ``int(y) + y_offset``,
    what :func:`offset_tokens` writes)."""
    dy = int(y_offset)
    return [
        {
            "block": ln["block"],
            "par": ln["par"],
            "line_num": ln["line_num"],
            "words": [dict(w, y=int(w["y"]) + dy) for w in ln["words"]],
            "y": ln["y"] + dy,
        }
        for ln in lines
    ]


def offset_tokens(tokens: Iterable[Token], y_offset: int) -> list[Token]:
    """Shift token y into the virtual space below the current page
    (reference ``extractor.py:343``, ``response_extractor.py:308``)."""
    out = []
    for tok in tokens:
        t = dict(tok)
        t["y"] = int(t.get("y", 0)) + int(y_offset)
        out.append(t)
    return out

