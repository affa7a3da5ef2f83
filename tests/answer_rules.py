"""Today's answer phase, kept as executable spec for the one-pass
``pdf_parser_ray.kernels.answers.augment_answers``: the reference's
eight page passes (``extract_responses_from_page``,
``response_extractor.py:870-1634``) in their order, each over the match
dicts:

* collection, with :func:`compute_right_bound` and
  :func:`collect_answer_lines`, per section;
* the yes/no highlight fallback on the untrimmed window
  (:func:`highlight_recover`: base window, slide offsets, probe bands);
* the per-section trim, then the global cross-section trim;
* strict pruning, the checkbox pair, the follow-up and the zip
  sanitizer.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from typing import Any

from pdf_parser_ray.core.constants import (
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
from pdf_parser_ray.kernels.boxes import Box
from pdf_parser_ray.kernels.lines import Lines, PageModel, Token, as_page

_ZIP_RE = re.compile(r"^\d{5}(-\d{4})?$")

Highlight = dict[str, Any]  # {x, y, w, h, text, ref}


def looks_yes_no_question(q_text: str) -> bool:
    """Reference ``response_extractor.py:814-820``."""
    if not q_text:
        return False
    lower = q_text.lower()
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
    xs2 = box["x_start"] - YESNO_PAD_X
    ys2 = box["y_start"] - YESNO_PAD_Y
    xe2 = box["x_end"] + YESNO_PAD_X
    ye2 = box["y_end"] + YESNO_PAD_Y
    for mark in sorted(highlights, key=lambda m: (m.get("y", 0), m.get("x", 0))):
        mx, my = int(mark.get("x", 0)), int(mark.get("y", 0))
        if xs2 <= mx <= xe2 and ys2 <= my <= ye2:
            txt = (mark.get("text") or "").strip()
            ref = mark.get("ref", "")
            if txt.lower().startswith("yes"):
                return "Yes", ref
            if txt.lower().startswith("no"):
                return "No", ref
            if txt in {"Y", "y"}:
                return "Yes", ref
            if txt in {"N", "n"}:
                return "No", ref
            return "", ""
    return "", ""


def compute_right_bound(
    section_questions: list[dict], current_q: dict, page_width: int
) -> int:
    """Reference ``response_extractor.py:901-932``."""
    cx = current_q["position"][0]
    cy = current_q["position"][1]
    segments = current_q.get("segments") or []
    seg_tokens_lower: list[str] = []
    for seg in segments:
        if isinstance(seg, dict):
            seg_tokens_lower.extend(t.lower() for t in seg.get("tokens", []))
    is_narrative = "medical" in seg_tokens_lower and "conditions" in seg_tokens_lower
    candidates = []
    for q in section_questions:
        if q is current_q:
            continue
        qx, qy = q.get("position", [None, None])
        if qx is None or qy is None:
            continue
        if abs(qy - cy) <= ANSWER_ROW_Y_TOLERANCE_PX and qx > cx:
            candidates.append(qx)
    if candidates and not is_narrative:
        return min(candidates) - ANSWER_COL_GAP_PX
    return page_width - ANSWER_PAGE_RIGHT_MARGIN_PX


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
    ``(answer_text, window_y_start, dynamic_y_end)``.

    The lines are sorted by ``y``, so the band and the continuation
    window are found by bisection instead of scanning every line: each
    window is a y-range, and a scan in y order visits exactly its run
    of lines.
    """
    last_seg_y = q_start_y
    if q_segments:
        seg_ys = [int(seg.get("line_y", last_seg_y)) for seg in q_segments if isinstance(seg, dict)]
        if seg_ys:
            last_seg_y = max(seg_ys)
    start_collect_y = last_seg_y + ANCHOR_OFFSET_PX
    band_bottom_y = start_collect_y + ANCHOR_OFFSET_PX
    answers: list[str] = []
    left_bound = max(0, q_start_x - ANSWER_LEFT_MARGIN_PX)
    captured_any = False
    captured_line_ys: list[int] = []
    line_ys, starts, xs, texts = lines.ys, lines.starts, lines.x, lines.text

    def window_words(i: int) -> list[str]:
        return [texts[k] for k in range(starts[i], starts[i + 1]) if left_bound <= xs[k] <= right_x]

    for i in range(bisect_left(line_ys, start_collect_y), bisect_right(line_ys, band_bottom_y)):
        ly = line_ys[i]
        if ly <= last_seg_y:
            continue
        window_tokens = window_words(i)
        if window_tokens:
            answers.append(" ".join(t for t in window_tokens if t))
            captured_any = True
            captured_line_ys.append(ly)
    # Continuation capture (reference response_extractor.py:1052-1090).
    if captured_any and captured_line_ys:
        y_answer = min(captured_line_ys)
        cont_start = y_answer + ANSWER_CONTINUATION_MIN_DELTA_Y
        cont_end = y_answer + ANSWER_CONTINUATION_MAX_DELTA_Y
        for i in range(bisect_right(line_ys, cont_start), len(line_ys)):
            ly2 = line_ys[i]
            if ly2 <= y_answer:
                continue
            if ly2 > cont_end:
                break
            if ly2 in captured_line_ys:
                continue
            c_tokens = window_words(i)
            if not c_tokens:
                continue
            if question_line_token_set:
                joined_lower = " ".join(c_tokens).strip().lower()
                if joined_lower in question_line_token_set:
                    continue
            answers.append(" ".join(t for t in c_tokens if t))
            captured_line_ys.append(ly2)
    # Assembly (M13/D6, reference response_extractor.py:1091-1106).
    if answers:
        cleaned_lines = [" ".join(a.split()) for a in answers if a]
        deduped_lines: list[str] = []
        for cl in cleaned_lines:
            if not deduped_lines or deduped_lines[-1] != cl:
                deduped_lines.append(cl)
        if len(deduped_lines) == 2 and deduped_lines[0] == deduped_lines[1]:
            deduped_lines = [deduped_lines[0]]
        ans_text = " ".join(deduped_lines).strip()
    else:
        ans_text = ""
    # Dynamic y_end extension (reference response_extractor.py:1107-1128).
    dynamic_y_end = band_bottom_y
    if captured_line_ys:
        last_captured_y = max(captured_line_ys)
        i = bisect_left(line_ys, last_captured_y)
        # a line's height is its tallest word's
        last_h = max(lines.h[starts[i] : starts[i + 1]], default=0)
        if last_captured_y > band_bottom_y:
            dynamic_y_end = last_captured_y + max(last_h, 0)
    return ans_text, start_collect_y, dynamic_y_end


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
    ``response_extractor.py:870-1634``). Returns ``matches``.
    ``page`` is the page's :class:`~.lines.PageModel` (or its token
    list): the answer collector reads its lines, which group and order
    like the reference's answer grouping, and the strict pruning its
    reading order."""
    if not matches:
        return matches
    page = as_page(page)
    line_list = page.lines

    for sec in matches:
        qlist = sec.get("questions", [])
        question_line_token_set: set[str] = set()
        for q_line in qlist:
            for seg in q_line.get("segments") or []:
                if isinstance(seg, dict):
                    toks = [t.lower() for t in seg.get("tokens", []) if t]
                    if toks:
                        question_line_token_set.add(" ".join(toks))
        # Answers per question.
        for q in qlist:
            q_start_x, q_start_y = q.get("position", [None, None])
            if q_start_x is None:
                continue
            right_bound = compute_right_bound(qlist, q, page_width)
            ans_text, win_y1, win_y2 = collect_answer_lines(
                line_list,
                q_start_x,
                q_start_y,
                q.get("segments"),
                right_bound,
                question_line_token_set=question_line_token_set,
            )
            expanded_x_start = max(0, int(q_start_x) - ANSWER_LEFT_MARGIN_PX)
            q["answer_window"] = {
                "x_start": expanded_x_start,
                "y_start": int(win_y1),
                "x_end": int(right_bound),
                "y_end": int(win_y2),
            }
            if ans_text:
                q["answer"] = ans_text
        # Pass 1.5: highlight fallback for empty yes/no windows
        # (reference response_extractor.py:1203-1322).
        for q in qlist:
            if q.get("answer"):
                continue
            aw = q.get("answer_window")
            if not aw:
                continue
            if not looks_yes_no_question(q.get("question", "")):
                continue
            recovered, ref = highlight_recover(highlights, aw)
            if recovered in ("Yes", "No"):
                q["answer"] = recovered
                q["answer_inferred"] = False
                q["answer_method"] = "highlight_fallback"
                q["answer_ref"] = ref
            else:
                # Sliding offset probes (V3 analog).
                segs = q.get("segments") or []
                last_seg_y = None
                for s in segs:
                    ly = s.get("line_y")
                    if isinstance(ly, (int, float)):
                        last_seg_y = ly if last_seg_y is None else max(last_seg_y, ly)
                band_h = aw["y_end"] - aw["y_start"]
                if last_seg_y is not None and band_h > 0 and not q.get("answer"):
                    slide_offsets = list(YESNO_SLIDE_OFFSETS)
                    if band_h not in slide_offsets:
                        slide_offsets.append(band_h)
                    slide_offsets = sorted(slide_offsets)
                    for off in slide_offsets:
                        y1 = int(last_seg_y + off)
                        y2 = y1 + band_h
                        if y2 > page_height:
                            break
                        slide_box = {
                            "x_start": aw["x_start"],
                            "y_start": y1,
                            "x_end": aw["x_end"],
                            "y_end": y2,
                        }
                        rec_slide, ref_s = highlight_recover(highlights, slide_box)
                        if rec_slide in ("Yes", "No"):
                            q["answer"] = rec_slide
                            q["answer_inferred"] = False
                            q["answer_method"] = f"highlight_slide_{off}"
                            q["answer_confidence"] = YESNO_HIGHLIGHT_CONFIDENCE
                            q["answer_ref"] = ref_s
                            break
                # Downward band probes (V4 analog).
                if not q.get("answer"):
                    band_h = aw["y_end"] - aw["y_start"]
                    for probe_idx in range(1, YESNO_PROBE_MAX_BANDS + 1):
                        if q.get("answer"):
                            break
                        probe_box = {
                            "x_start": aw["x_start"],
                            "y_start": aw["y_start"] + probe_idx * band_h,
                            "x_end": aw["x_end"],
                            "y_end": aw["y_start"] + (probe_idx + 1) * band_h,
                        }
                        rec2, ref2 = highlight_recover(highlights, probe_box)
                        if rec2 in ("Yes", "No"):
                            q["answer"] = rec2
                            q["answer_inferred"] = False
                            q["answer_method"] = f"highlight_probe_{probe_idx}"
                            q["answer_confidence"] = YESNO_HIGHLIGHT_CONFIDENCE
                            q["answer_ref"] = ref2
                            break
        # Second pass: per-section x_end overlap trim
        # (reference response_extractor.py:1323-1352).
        for q in qlist:
            aw = q.get("answer_window")
            if not aw:
                continue
            qx = aw.get("x_start")
            q_end = aw.get("x_end")
            qy = q.get("position", [0, 0])[1]
            if qx is None or q_end is None:
                continue
            min_end = q_end
            for other in qlist:
                if other is q:
                    continue
                ox, oy = other.get("position", [None, None])
                if ox is None:
                    continue
                if ox <= qx:
                    continue
                if abs(oy - qy) <= ANSWER_ROW_Y_TOLERANCE_PX * 2:
                    candidate = ox - ANSWER_COL_GAP_PX
                    if candidate < min_end and candidate >= qx:
                        min_end = candidate
            if min_end < q_end:
                aw["x_end"] = max(qx, min_end)

    # Global pass: cross-section row-band overlap trim
    # (reference response_extractor.py:1356-1397).
    all_entries: list[tuple[dict, int, int]] = []
    for sec in matches:
        for q in sec.get("questions", []):
            aw = q.get("answer_window")
            pos = q.get("position", [None, None])
            if aw and pos and pos[0] is not None and pos[1] is not None:
                all_entries.append((q, int(pos[1]), int(aw.get("x_start", pos[0]))))
    all_entries.sort(key=lambda t: t[1])
    groups: list[list[tuple[dict, int, int]]] = []
    for entry in all_entries:
        placed = False
        for g in groups:
            if abs(g[0][1] - entry[1]) <= ANSWER_ROW_Y_TOLERANCE_PX * 2:
                g.append(entry)
                placed = True
                break
        if not placed:
            groups.append([entry])
    for g in groups:
        g.sort(key=lambda t: t[2])
        for i in range(len(g) - 1):
            q_curr, _y_curr, x_curr = g[i]
            _q_next, _y_next, x_next = g[i + 1]
            aw_curr = q_curr.get("answer_window")
            aw_next = g[i + 1][0].get("answer_window")
            if not aw_curr or not aw_next:
                continue
            x_end_curr = aw_curr.get("x_end")
            if x_end_curr is None:
                continue
            if x_end_curr >= x_next:
                new_end = x_next - ANSWER_COL_GAP_PX
                if new_end < aw_curr.get("x_start", x_curr):
                    new_end = aw_curr.get("x_start", x_curr)
                aw_curr["x_end"] = new_end
    # (The reference's row-group multi-line collapse at
    # response_extractor.py:1399-1447 is dead code under space-joined
    # assembly — answers never contain "\n" — and is omitted.)

    # Strict horizontal pruning (V6 analog,
    # reference response_extractor.py:1450-1489): tokens of the page
    # filtered to the final window stand in for the re-OCR of the crop.
    # The page's non-blank words in (y, x) reading order; each window
    # is a bisected y-slice + x filter (already in OCR reading order).
    yx = page.yx
    xs, texts = line_list.x, line_list.text
    tok_ys: list[int] | None = None
    for sec in matches:
        for q in sec.get("questions", []):
            aw = q.get("answer_window")
            ans = q.get("answer")
            if not aw or not ans:
                continue
            x0, x1 = aw.get("x_start"), aw.get("x_end")
            y0, y1 = aw.get("y_start"), aw.get("y_end")
            if None in (x0, x1, y0, y1):
                continue
            if tok_ys is None:
                ys = line_list.y
                tok_ys = [ys[k] for k in yx]
            lo = bisect_left(tok_ys, y0)
            hi = bisect_right(tok_ys, y1)
            kept_tokens = [texts[k] for k in yx[lo:hi] if x0 <= xs[k] <= x1]
            if not kept_tokens:
                continue
            orig_tokens = ans.split()
            removed = [tok for tok in orig_tokens if tok not in kept_tokens]
            joined_new = " ".join(kept_tokens)
            degraded = False
            if "gmail" in ans.lower() and "qmail" in joined_new.lower():
                degraded = True
            if "days" in ans.lower() and "davs" in joined_new.lower():
                degraded = True
            if removed and not degraded:
                q["answer"] = joined_new

    # Checkbox-pair inference for the reminder opt-in question
    # (reference response_extractor.py:1490-1593).
    if checkboxes:
        cb_list = [cb for cb in checkboxes if isinstance(cb, dict)]
        for sec in matches:
            for q in sec.get("questions", []):
                if q.get("answer"):
                    continue
                segments = q.get("segments") or []
                tokens_flat: list[str] = []
                for seg in segments:
                    if isinstance(seg, dict):
                        tokens_flat.extend(t.lower() for t in seg.get("tokens", []))
                if not tokens_flat:
                    continue
                key_hits = 0
                for kw in ("reminders?", "automatic", "appointment", "messages."):
                    if kw.rstrip("?").rstrip(".").lower() in tokens_flat:
                        key_hits += 1
                is_reminder = key_hits >= 2 and (
                    "reminders" in tokens_flat
                    or any(t.startswith("reminder") for t in tokens_flat)
                )
                if not is_reminder:
                    continue
                last_seg_y = None
                for seg in segments:
                    if isinstance(seg, dict) and seg.get("line_y") is not None:
                        ly = seg.get("line_y")
                        if last_seg_y is None or ly > last_seg_y:
                            last_seg_y = ly
                if last_seg_y is None:
                    last_seg_y = q.get("position", [0, 0])[1]
                y_low = last_seg_y - 20
                y_high = last_seg_y + 70
                nearby = [cb for cb in cb_list if y_low <= cb["y"] <= y_high]
                nearby.sort(key=lambda c: c["x"])
                pair: list[Box] = []
                seen_x: set[int] = set()
                for cb in nearby:
                    x = cb["x"]
                    if all(abs(x - ex) >= 5 for ex in seen_x):
                        pair.append(cb)
                        seen_x.add(x)
                    if len(pair) == 2:
                        break
                if len(pair) != 2:
                    continue
                statuses = [cb.get("status") for cb in pair]
                ticked_indices = [i for i, s in enumerate(statuses) if s == "ticked"]
                inferred_answer = None
                reason = None
                if len(ticked_indices) == 1:
                    inferred_answer = "Yes" if ticked_indices[0] == 0 else "No"
                    reason = f"single_ticked_index={ticked_indices[0]}"
                elif len(ticked_indices) == 2:
                    inferred_answer = "Yes"
                    reason = "both_ticked"
                if inferred_answer:
                    q["answer"] = inferred_answer
                    q["answer_inferred"] = True
                    q["answer_source"] = "checkbox"
                    q["answer_confidence"] = 0.6 if reason == "single_ticked_index=0" else 0.5

    # Follow-up inference (reference response_extractor.py:1594-1612).
    for sec in matches:
        qs = sec.get("questions", [])
        for i, q in enumerate(qs):
            text = (q.get("question") or "").lower()
            if "appointment" in text and "reminder" in text and not q.get("answer"):
                if i + 1 < len(qs):
                    next_q = qs[i + 1]
                    next_text = (next_q.get("question") or "").lower()
                    if next_q.get("answer") and next_text.startswith("if yes"):
                        q["answer"] = "Yes"
                        q["answer_inferred"] = True
                        q["answer_source"] = "followup_inference"
                        q["answer_confidence"] = YESNO_INFERRED_CONFIDENCE

    # Zip-code sanitizer (M10, reference response_extractor.py:1613-1633).
    for sec in matches:
        for q in sec.get("questions", []):
            qtext = (q.get("question") or "").lower()
            ans = q.get("answer")
            if not ans:
                continue
            if "zip" in qtext and "code" in qtext:
                for tok in ans.split():
                    if _ZIP_RE.match(tok):
                        if tok != ans:
                            q["answer"] = tok
                        break

    return matches
