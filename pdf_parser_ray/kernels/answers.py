"""Answer collection, window geometry, and the yes/no inference chain
(operators C4/C5 + J2/J4 + M10/M13 + V2-V6 analogs, SURVEY.md §2).

Mirrors the answer half of ``extract_responses_from_page`` (reference
``response_extractor.py:796-1634``). The reference makes eight passes
over a page's questions; :func:`augment_answers` reads each question's
facts once and makes one pass per question, in the reference's order:

1. per section, each question's facts: position, last segment ``y``,
   lowered segment tokens and its question-line keys (the lowered words
   of each segment; the continuation window skips lines equal to one);
2. per question of the section:

   * the right bound (J2, ``response_extractor.py:901-932``: nearest
     same-row neighbour to the right, or the page's width for the
     "Medical Conditions" narrative row) and the per-section trim (J4,
     ``response_extractor.py:1323-1352``), one scan of the section's
     positions, since both read only positions;
   * collection (C4/M13/D6, ``response_extractor.py:935-1155``): fixed
     band ``[last_seg_y+40, +80]``, window ``[q_x-30, right_bound]``,
     continuation lines in ``(y_answer+10, y_answer+50]``, whitespace
     squeeze and consecutive-duplicate collapse;
   * the highlight fallback for an empty yes/no window on the untrimmed
     window (V2-V4 analog, ``response_extractor.py:1203-1322``): the
     reference crops the padded window, masks yellow highlighter and
     re-OCRs with a YES/NO whitelist; here highlight *marks* —
     ``kind='highlight'`` spans with geometry — stand in for the CV
     kernel: a mark whose top-left falls inside the padded window is
     "recovered". Base window → sliding offsets → downward band
     probes, identical geometry;
   * then the trimmed window;

3. the global cross-section row-band trim (J4,
   ``response_extractor.py:1356-1397``);
4. per question, strict horizontal pruning (V6 analog,
   ``response_extractor.py:1450-1489``: the page's words filtered to
   the final window stand in for the re-OCR of the exact crop, with the
   same degradation guard), or, for a question still unanswered, the
   checkbox-pair inference of the reminder opt-in question
   (``response_extractor.py:1490-1593``);
5. per question of each section, the follow-up "If yes…" inference
   (``response_extractor.py:1594-1612``) and the zip-code sanitizer
   (M10, ``response_extractor.py:1613-1633``).

The reference's order is kept as executable spec in
``tests/answer_rules.py``.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any

from .boxes import Box
from .lines import Lines, PageModel, Token, as_page

from ..core.constants import (
    ANCHOR_OFFSET_PX,
    ANSWER_COL_GAP_PX,
    ANSWER_CONTINUATION_MAX_DELTA_Y,
    ANSWER_CONTINUATION_MIN_DELTA_Y,
    ANSWER_LEFT_MARGIN_PX,
    ANSWER_PAGE_RIGHT_MARGIN_PX,
    ANSWER_ROW_Y_TOLERANCE_PX,
    YESNO_HIGHLIGHT_CONFIDENCE,
    YESNO_INFERRED_CONFIDENCE,
    YESNO_PAD_X,
    YESNO_PAD_Y,
    YESNO_PROBE_MAX_BANDS,
    YESNO_SLIDE_OFFSETS,
)

_ZIP_RE = re.compile(r"^\d{5}(-\d{4})?$")
_SLIDES = sorted(YESNO_SLIDE_OFFSETS)
_NOT_READ = ("", "")
_BY_X = itemgetter("x")
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)

Highlight = dict[str, Any]  # {x, y, w, h, text, ref}


def looks_yes_no_question(q_text: str) -> bool:
    """Reference ``response_extractor.py:814-820``."""
    return bool(q_text) and _yes_no(q_text.lower())


def _yes_no(lower: str) -> bool:
    trig = (
        "would you" in lower
        or "do you" in lower
        or "are you" in lower
        or "have you" in lower
        or "yes" in lower
        or "no" in lower
    )
    return trig and lower.strip().endswith("?")


def highlight_recover(highlights: list[Highlight], box: dict[str, int]) -> tuple[str, str]:
    """Deterministic analog of ``_yellow_highlight_ocr`` (reference
    ``response_extractor.py:822-869``): pad the window by (15, 12) and
    "read" any highlight mark whose top-left lies inside. Marks are
    scanned in (y, x) order — the order OCR would read them. Returns
    ``(normalized_text, media_ref)``; empty strings when nothing
    recovered.
    """
    return _recover(_marks(highlights), box["x_start"], box["y_start"], box["x_end"], box["y_end"])


def _marks(highlights: list[Highlight]) -> list[tuple[int, int, tuple[str, str]]]:
    """The marks in (y, x) order as ``(y, x, read)``, ``read`` being
    what the mark recovers when it is the first inside a window."""
    out = []
    for mark in sorted(highlights, key=lambda m: (m.get("y", 0), m.get("x", 0))):
        txt = (mark.get("text") or "").strip()
        ref = mark.get("ref", "")
        low = txt.lower()
        if low.startswith("yes") or txt in ("Y", "y"):
            read = ("Yes", ref)
        elif low.startswith("no") or txt in ("N", "n"):
            read = ("No", ref)
        else:
            read = _NOT_READ
        out.append((int(mark.get("y", 0)), int(mark.get("x", 0)), read))
    return out


def _recover(marks, x0: int, y0: int, x1: int, y1: int) -> tuple[str, str]:
    """What the first mark of ``marks`` (:func:`_marks`) inside the
    window padded by (15, 12) reads."""
    x0 -= YESNO_PAD_X
    x1 += YESNO_PAD_X
    y0 -= YESNO_PAD_Y
    y1 += YESNO_PAD_Y
    for my, mx, read in marks:
        if my > y1:
            break
        if my >= y0 and x0 <= mx <= x1:
            return read
    return _NOT_READ


def _segment_facts(segments: list[dict] | None) -> tuple[int | None, list[str], list[str]]:
    """A question's last segment ``line_y`` (``None`` without
    segments), its lowered segment tokens, and its question-line keys:
    each segment's lowered words joined by a space."""
    last = None
    toks: list[str] = []
    keys: list[str] = []
    for seg in segments or ():
        ly = seg["line_y"]
        if last is None or ly > last:
            last = ly
        words = [t.lower() for t in seg.get("tokens", ()) if t]
        if words:
            toks += words
            keys.append(" ".join(words))
    return last, toks, keys


def _row_bounds(q: dict, x: int, y: int, narrative: bool, spots, full_right: int) -> tuple[int, int]:
    """The answer window's right bound and its x end after the
    per-section trim, from the other questions' positions ``spots``
    (``(question, x, y)``): the nearest neighbour right of ``q`` within
    the row tolerance bounds the window (not for a narrative row); any
    neighbour within twice the tolerance whose left edge, less the
    column gap, stays right of the window's start trims it."""
    left = max(0, x - ANSWER_LEFT_MARGIN_PX)
    near = cut = None
    for o, ox, oy in spots:
        if o is q:
            continue
        dy = abs(oy - y)
        if dy > 2 * ANSWER_ROW_Y_TOLERANCE_PX:
            continue
        end = ox - ANSWER_COL_GAP_PX
        if end >= left and (cut is None or end < cut):
            cut = end
        if dy <= ANSWER_ROW_Y_TOLERANCE_PX and ox > x and (near is None or ox < near):
            near = ox
    right = full_right if near is None or narrative else near - ANSWER_COL_GAP_PX
    return right, cut if cut is not None and cut < right else right


def compute_right_bound(
    section_questions: list[dict], current_q: dict, page_width: int
) -> int:
    """Reference ``response_extractor.py:901-932``."""
    x, y = current_q["position"]
    toks = _segment_facts(current_q.get("segments"))[1]
    spots = [(q, *q["position"]) for q in section_questions]
    narrative = "medical" in toks and "conditions" in toks
    return _row_bounds(
        current_q, x, y, narrative, spots, page_width - ANSWER_PAGE_RIGHT_MARGIN_PX
    )[0]


def collect_answer_lines(
    lines: Lines,
    q_start_x: int,
    q_start_y: int,
    q_segments: list[dict] | None,
    right_x: int,
    question_line_token_set: set[str] | None = None,
) -> tuple[str, int, int]:
    """Reference ``response_extractor.py:935-1155`` (fixed-offset band +
    continuation window + assembly). Returns
    ``(answer_text, window_y_start, dynamic_y_end)``."""
    last = _segment_facts(q_segments)[0]
    return _collect(
        lines,
        max(0, q_start_x - ANSWER_LEFT_MARGIN_PX),
        right_x,
        q_start_y if last is None else last,
        question_line_token_set or (),
    )


def _collect(lines: Lines, left: int, right: int, last_y: int, qline_keys) -> tuple[str, int, int]:
    """:func:`collect_answer_lines` for the window ``[left, right]``
    below the question's last line ``last_y``.

    The lines are sorted by ``y``, so the band and the continuation
    window are found by bisection instead of scanning every line: each
    window is a y-range, and a scan in y order visits exactly its run
    of lines. Line words are stripped and non-blank, so a line's joined
    window words need no further strip."""
    y_start = last_y + ANCHOR_OFFSET_PX
    band_end = y_start + ANCHOR_OFFSET_PX
    ys, starts, xs, texts = lines.ys, lines.starts, lines.x, lines.text
    lo = bisect_left(ys, y_start)
    answers: list[str] = []
    captured: list[int] = []
    for i in range(lo, bisect_right(ys, band_end, lo)):
        words = [texts[k] for k in range(starts[i], starts[i + 1]) if left <= xs[k] <= right]
        if words:
            answers.append(" ".join(words))
            captured.append(ys[i])
    if not captured:
        return "", y_start, band_end
    # Continuation capture (reference response_extractor.py:1052-1090).
    y_answer = captured[0]
    cont_end = y_answer + ANSWER_CONTINUATION_MAX_DELTA_Y
    n = len(ys)
    i = bisect_right(ys, y_answer + ANSWER_CONTINUATION_MIN_DELTA_Y)
    while i < n and ys[i] <= cont_end:
        ly = ys[i]
        if ly not in captured:
            words = [texts[k] for k in range(starts[i], starts[i + 1]) if left <= xs[k] <= right]
            if words:
                joined = " ".join(words)
                if joined.lower() not in qline_keys:
                    answers.append(joined)
                    captured.append(ly)
        i += 1
    # Assembly (M13/D6, reference response_extractor.py:1091-1106).
    kept: list[str] = []
    for a in answers:
        cl = " ".join(a.split())
        if not kept or kept[-1] != cl:
            kept.append(cl)
    # Dynamic y_end extension (reference response_extractor.py:1107-1128).
    y_end = band_end
    last_captured = max(captured)
    if last_captured > band_end:
        i = bisect_left(ys, last_captured)
        # a line's height is its tallest word's
        y_end = last_captured + max(max(lines.h[starts[i] : starts[i + 1]], default=0), 0)
    return " ".join(kept), y_start, y_end


def _highlight_fallback(q: dict, aw: dict, marks, last_y: int | None, page_height: int) -> None:
    """Answer an empty yes/no window from the highlight marks: the
    base window, then the window slid down from the question's last
    line, then the bands below it (reference
    ``response_extractor.py:1203-1322``)."""
    x0, y0, x1, y1 = aw["x_start"], aw["y_start"], aw["x_end"], aw["y_end"]
    text, ref = _recover(marks, x0, y0, x1, y1)
    if text:
        q["answer"] = text
        q["answer_inferred"] = False
        q["answer_method"] = "highlight_fallback"
        q["answer_ref"] = ref
        return
    band_h = y1 - y0
    method = None
    # Sliding offset probes (V3 analog).
    if last_y is not None and band_h > 0:
        for off in _SLIDES if band_h in _SLIDES else sorted([*_SLIDES, band_h]):
            s0 = last_y + off
            if s0 + band_h > page_height:
                break
            text, ref = _recover(marks, x0, s0, x1, s0 + band_h)
            if text:
                method = f"highlight_slide_{off}"
                break
    # Downward band probes (V4 analog).
    if method is None:
        for k in range(1, YESNO_PROBE_MAX_BANDS + 1):
            text, ref = _recover(marks, x0, y0 + k * band_h, x1, y0 + (k + 1) * band_h)
            if text:
                method = f"highlight_probe_{k}"
                break
        else:
            return
    q["answer"] = text
    q["answer_inferred"] = False
    q["answer_method"] = method
    q["answer_confidence"] = YESNO_HIGHLIGHT_CONFIDENCE
    q["answer_ref"] = ref


def _is_reminder(toks: list[str]) -> bool:
    """The reminder opt-in question: two of its keywords, one a
    "reminder…" word."""
    hits = ("reminders" in toks) + ("automatic" in toks) + ("appointment" in toks) + (
        "messages" in toks
    )
    return hits >= 2 and any(t.startswith("reminder") for t in toks)


def _checkbox_pair(checkboxes: list[Box], last_y: int) -> tuple[str, float] | None:
    """The answer read from the two leftmost boxes at least 5 px apart
    in ``[last_y-20, last_y+70]``: one ticked reads Yes (left) or No
    (right), both Yes; with its confidence."""
    nearby = sorted(
        (cb for cb in checkboxes if last_y - 20 <= cb["y"] <= last_y + 70), key=_BY_X
    )
    if not nearby:
        return None
    first = nearby[0]
    second = next((cb for cb in nearby if cb["x"] - first["x"] >= 5), None)
    if second is None:
        return None
    left = first.get("status") == "ticked"
    right = second.get("status") == "ticked"
    if left:
        return "Yes", 0.5 if right else 0.6
    if right:
        return "No", 0.5
    return None


def augment_answers(
    matches: list[dict],
    page: PageModel | list[Token],
    highlights: list[Highlight],
    checkboxes: list[Box],
    page_width: int = 2000,
    page_height: int = 3000,
) -> list[dict]:
    """Run the full post-matching answer phase on ``matches`` in place
    (reference ``extract_responses_from_page`` body,
    ``response_extractor.py:870-1634``; module docstring). Returns
    ``matches``. Each question carries its ``position`` ``[x, y]`` and
    ``segments`` (dicts with ``line_y`` and ``tokens``), as
    :func:`~.questions.match_sections_and_questions` emits them.
    ``page`` is the page's :class:`~.lines.PageModel` (or its token
    list): the answer collector reads its lines, which group and order
    like the reference's answer grouping, and the strict pruning its
    reading order."""
    if not matches:
        return matches
    page = as_page(page)
    lines = page.lines
    full_right = page_width - ANSWER_PAGE_RIGHT_MARGIN_PX
    marks = None
    # per section, each question's (question, window, lowered tokens,
    # last line y or its own y, lowered text); and every window's row
    # for the global trim
    sections: list[list[tuple]] = []
    rows: list[tuple[int, int, dict]] = []
    for sec in matches:
        qlist = sec.get("questions", [])
        facts = []
        spots = []
        qline_keys: set[str] = set()
        for q in qlist:
            x, y = q["position"]
            last, toks, keys = _segment_facts(q.get("segments"))
            qline_keys.update(keys)
            facts.append((q, x, y, last, toks))
            spots.append((q, x, y))
        recs = []
        for q, x, y, last, toks in facts:
            narrative = "medical" in toks and "conditions" in toks
            right, end = _row_bounds(q, x, y, narrative, spots, full_right)
            left = max(0, x - ANSWER_LEFT_MARGIN_PX)
            base = y if last is None else last
            text, y0, y1 = _collect(lines, left, right, base, qline_keys)
            aw = q["answer_window"] = {"x_start": left, "y_start": y0, "x_end": right, "y_end": y1}
            lower = (q.get("question") or "").lower()
            if text:
                q["answer"] = text
            elif highlights and not q.get("answer") and _yes_no(lower):
                if marks is None:
                    marks = _marks(highlights)
                _highlight_fallback(q, aw, marks, last, page_height)
            aw["x_end"] = end
            rows.append((y, left, aw))
            recs.append((q, aw, toks, base, lower))
        sections.append(recs)

    # Global pass: cross-section row-band overlap trim
    # (reference response_extractor.py:1356-1397). Rows in y order join
    # the first group whose first row lies within twice the row
    # tolerance; the groups' first rows ascend, so a group the rows have
    # passed is never joined again.
    rows.sort(key=_FIRST)
    groups: list[list[tuple[int, int, dict]]] = []
    live = 0
    for row in rows:
        while live < len(groups) and row[0] - groups[live][0][0] > 2 * ANSWER_ROW_Y_TOLERANCE_PX:
            live += 1
        if live < len(groups):
            groups[live].append(row)
        else:
            groups.append([row])
    for g in groups:
        if len(g) < 2:
            continue
        g.sort(key=_SECOND)
        for (_y, x_start, aw), (_y2, x_next, _aw2) in zip(g, g[1:]):
            if aw["x_end"] >= x_next:
                aw["x_end"] = max(x_next - ANSWER_COL_GAP_PX, x_start)
    # (The reference's row-group multi-line collapse at
    # response_extractor.py:1399-1447 is dead code under space-joined
    # assembly — answers never contain "\n" — and is omitted.)

    # Strict horizontal pruning (V6 analog): the page's non-blank words
    # in (y, x) reading order; each window is a bisected y-slice + x
    # filter (already in OCR reading order). A question left unanswered
    # tries the checkbox pair instead.
    yx = page.yx
    xs, texts = lines.x, lines.text
    tok_ys: list[int] | None = None
    for recs in sections:
        for q, aw, toks, last_y, _lower in recs:
            ans = q.get("answer")
            if ans:
                if tok_ys is None:
                    ys = lines.y
                    tok_ys = [ys[k] for k in yx]
                lo = bisect_left(tok_ys, aw["y_start"])
                hi = bisect_right(tok_ys, aw["y_end"], lo)
                x0, x1 = aw["x_start"], aw["x_end"]
                kept = [texts[k] for k in yx[lo:hi] if x0 <= xs[k] <= x1]
                if not kept:
                    continue
                joined = " ".join(kept)
                # an answer equal to its window's words is left as it is
                if joined != ans and not set(ans.split()).issubset(kept):
                    ans_l, new_l = ans.lower(), joined.lower()
                    degraded = ("gmail" in ans_l and "qmail" in new_l) or (
                        "days" in ans_l and "davs" in new_l
                    )
                    if not degraded:
                        q["answer"] = joined
            elif checkboxes and _is_reminder(toks):
                read = _checkbox_pair(checkboxes, last_y)
                if read is not None:
                    q["answer"] = read[0]
                    q["answer_inferred"] = True
                    q["answer_source"] = "checkbox"
                    q["answer_confidence"] = read[1]

    # Follow-up inference and the zip-code sanitizer.
    for recs in sections:
        for i, (q, _aw, _toks, _last_y, lower) in enumerate(recs):
            if (
                "appointment" in lower
                and "reminder" in lower
                and not q.get("answer")
                and i + 1 < len(recs)
            ):
                next_q, next_lower = recs[i + 1][0], recs[i + 1][4]
                if next_q.get("answer") and next_lower.startswith("if yes"):
                    q["answer"] = "Yes"
                    q["answer_inferred"] = True
                    q["answer_source"] = "followup_inference"
                    q["answer_confidence"] = YESNO_INFERRED_CONFIDENCE
            if "zip" in lower and "code" in lower:
                ans = q.get("answer")
                if ans:
                    for tok in ans.split():
                        if _ZIP_RE.match(tok):
                            if tok != ans:
                                q["answer"] = tok
                            break

    return matches
