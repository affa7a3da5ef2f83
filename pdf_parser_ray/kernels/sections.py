"""Section region detector (operator C2 + A2/A3, SURVEY.md §2.10).

Faithful reimplementation of
``CheckboxExtractor.detect_section_regions`` (reference
``extractor.py:534-829``): per-section best anchor line (start token
within the first 10% of page width, ≥2 words matched for multi-word
headers, claimed-y dedup), multiline continuation across sibling
y-groups, then checkbox-gap region growth.
"""

from __future__ import annotations


from .boxes import Box
from .lines import Lines, PageModel, Token, as_page
from .normalize import expected

from ..core.constants import (
    LABEL_MULTILINE_BASE_X_TOLERANCE,
    LABEL_MULTILINE_MAX_LOOKAHEAD,
    SECTION_BOTTOM_BUFFER_PX,
    SECTION_CB_MAX_GAP_PX,
    SECTION_X1,
    SECTION_X2,
)

Region = dict[str, int]


def best_span_in_line(
    lines: Lines, li: int, name_words: list[str]
) -> tuple[int | None, int]:
    """Longest contiguous expected-word match starting at any word of
    line ``li`` (reference ``extractor.py:619-646``).

    First word requires a startswith match; later words use
    containment. Fast path: the whole phrase merged into one OCR token.
    """
    best_start = None
    best_matched = 0
    exp_concat = expected(" ".join(name_words))
    exps = [expected(w) for w in name_words]
    norms = lines.norm
    end = lines.starts[li + 1]
    for start_idx in range(lines.starts[li], end):
        tok0_clean = norms[start_idx]
        if exp_concat.startswith(tok0_clean):
            return start_idx, len(name_words)
        matched_here = 0
        k = start_idx
        for lbl_idx in range(len(name_words)):
            if k >= end:
                break
            tok_clean = norms[k]
            ok = (
                exps[lbl_idx].startswith(tok_clean)
                if lbl_idx == 0
                else exps[lbl_idx].contains(tok_clean)
            )
            if ok:
                matched_here += 1
                k += 1
            else:
                break
        if matched_here > best_matched:
            best_matched = matched_here
            best_start = start_idx
    return best_start, best_matched


def continue_multiline_from(
    lines: Lines,
    i_start: int,
    start_idx: int,
    name_words: list[str],
    matched_here: int,
) -> tuple[int, list[dict]]:
    """Continue matching expected words onto subsequent sibling
    y-groups with x-alignment tolerance
    (reference ``extractor.py:648-734``). Returns the total matched
    word count and the matched segments.
    """
    base_x_tolerance = LABEL_MULTILINE_BASE_X_TOLERANCE
    max_lookahead = LABEL_MULTILINE_MAX_LOOKAHEAD
    starts, ys, xs, norms = lines.starts, lines.ys, lines.x, lines.norm
    n_lines = len(ys)
    curr_idx = i_start
    curr_lbl_idx = matched_here
    end0 = starts[i_start + 1]
    x_ref = xs[start_idx]
    last = max(start_idx, start_idx + matched_here - 1)
    if last >= end0:
        # the merged-phrase fast path counts words the line may not hold
        raise IndexError("list index out of range")
    segments = [
        {
            "line_y": int(lines.y[start_idx]),
            "start_x": x_ref,
            "end_x": xs[last] + lines.w[last],
            "count": matched_here,
            "tokens": lines.text[start_idx : min(start_idx + matched_here, end0)],
        }
    ]
    lookahead_used = 0
    n_words = len(name_words)
    while curr_lbl_idx < n_words and lookahead_used < max_lookahead:
        # First y strictly greater than current, then all siblings at it.
        j = curr_idx + 1
        curr_y = ys[curr_idx]
        while j < n_lines and ys[j] <= curr_y:
            j += 1
        if j >= n_lines:
            break
        next_y = ys[j]
        sibling_indices = []
        kidx = j
        while kidx < n_lines and ys[kidx] == next_y:
            sibling_indices.append(kidx)
            kidx += 1
        exp_next = expected(name_words[curr_lbl_idx])
        best_overall = 0
        best_overall_idx = None
        best_overall_seg = None
        for li in sibling_indices:
            ls, le = starts[li], starts[li + 1]
            if ls == le:
                continue
            # Tiered candidates (reference extractor.py:687-695):
            # startswith within tolerance → startswith anywhere →
            # contains within tolerance.
            candidates = [
                idx
                for idx in range(ls, le)
                if abs(xs[idx] - x_ref) <= base_x_tolerance and exp_next.startswith(norms[idx])
            ]
            if not candidates:
                candidates = [idx for idx in range(ls, le) if exp_next.startswith(norms[idx])]
            if not candidates:
                candidates = [
                    idx
                    for idx in range(ls, le)
                    if abs(xs[idx] - x_ref) <= base_x_tolerance and exp_next.contains(norms[idx])
                ]
            if not candidates:
                continue
            best_line_match = 0
            best_line_seg = None
            for ci in candidates:
                matched_in_line = 0
                k = ci
                while k < le and (curr_lbl_idx + matched_in_line) < n_words:
                    exp2 = expected(name_words[curr_lbl_idx + matched_in_line])
                    tok_clean = norms[k]
                    ok2 = (
                        exp2.startswith(tok_clean)
                        if matched_in_line == 0
                        else exp2.contains(tok_clean)
                    )
                    if ok2:
                        matched_in_line += 1
                        k += 1
                    else:
                        break
                if matched_in_line > best_line_match:
                    best_line_match = matched_in_line
                    best_line_seg = ci
            if best_line_match > best_overall:
                best_overall = best_line_match
                best_overall_idx = li
                best_overall_seg = best_line_seg
        if not best_overall or best_overall_seg is None or best_overall_idx is None:
            break
        a, b = best_overall_seg, best_overall_seg + best_overall
        segments.append(
            {
                "line_y": int(min(lines.y[a:b])),
                "start_x": xs[a],
                "end_x": xs[b - 1] + lines.w[b - 1],
                "count": best_overall,
                "tokens": lines.text[a:b],
            }
        )
        curr_lbl_idx += best_overall
        curr_idx = best_overall_idx
        x_ref = xs[a]
        lookahead_used += 1
    return curr_lbl_idx, segments


def detect_section_regions(
    page: PageModel | list[Token],
    sections: list[dict],
    checkboxes: list[Box],
    page_width: int = 2000,
    max_gap: int = SECTION_CB_MAX_GAP_PX,
) -> dict[str, Region]:
    """Detect per-section vertical regions
    (reference ``extractor.py:534-829``).

    Anchor selection: best ``(matched_count, start_y, start_x)`` tuple
    over candidate lines whose start token sits within the first 10% of
    the page width and whose y is unclaimed; multi-word headers need ≥2
    matched words. The region grows downward while consecutive checkbox
    gaps stay ≤ ``max_gap``, plus a 50-px buffer.
    """
    page = as_page(page)
    sorted_lines = page.lines
    page_idx = page.index
    starts = sorted_lines.starts
    anchor_x_threshold = int(0.10 * page_width)
    checkbox_y_positions = sorted(cb["y"] for cb in checkboxes)
    section_regions: dict[str, Region] = {}
    claimed_anchor_ys: set[int] = set()

    for section in sections:
        section_name = section["section_name"]
        name_words = [w for w in section_name.split() if w]
        if not name_words:
            continue
        best_candidate = None  # (matched_count, start_y, start_x)
        # Lines without a first-word (or merged-concat — its prefix IS
        # the first word) candidate give matched_here == 0 in the
        # reference loop; the page-level scan skips them outright.
        cand_by_line = page_idx.candidates(expected(name_words[0]))
        for i in sorted(cand_by_line):
            if starts[i] == starts[i + 1]:
                continue
            start_idx, matched_here = best_span_in_line(sorted_lines, i, name_words)
            if matched_here == 0 or start_idx is None:
                continue
            start_x = int(sorted_lines.x[start_idx])
            start_y = int(sorted_lines.y[start_idx])
            if start_x > anchor_x_threshold:
                continue
            if start_y in claimed_anchor_ys:
                continue
            total_matched, _segments = continue_multiline_from(
                sorted_lines, i, start_idx, name_words, matched_here
            )
            cand = (int(total_matched), start_y, start_x)
            if best_candidate is None or cand > best_candidate:
                best_candidate = cand
            if total_matched >= len(name_words):
                break
        if best_candidate is None:
            continue
        min_required = 1 if len(name_words) == 1 else 2
        if int(best_candidate[0]) < min_required:
            continue
        _, anchor_y, _ = best_candidate
        claimed_anchor_ys.add(anchor_y)

        # Extend downward until checkbox silence (reference 809-826).
        y2 = anchor_y
        last_cb_y = None
        for cb_y in checkbox_y_positions:
            if cb_y < anchor_y:
                continue
            if last_cb_y is None or cb_y - last_cb_y <= max_gap:
                y2 = cb_y
                last_cb_y = cb_y
            else:
                break

        section_regions[section_name] = {
            "x1": SECTION_X1,
            "y1": anchor_y,
            "x2": SECTION_X2,
            "y2": y2 + SECTION_BOTTOM_BUFFER_PX,
        }

    return section_regions
