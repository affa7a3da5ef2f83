"""Label position matcher (operator C1, SURVEY.md §2.10).

Faithful reimplementation of ``CheckboxExtractor.get_label_positions``
(reference ``extractor.py:194-532``):

* Pass 1 (single-line): token-window scan — first/last configured word
  contained in the first/last OCR token, then IL1-flex containment of
  the concatenated cleaned sequence (``extractor.py:484-493``).
* Pass 1b (multiline): lookahead ≤5 lines with a 160-px x tolerance,
  best-start selection per line, relax-to-whole-line fallback
  (``extractor.py:378-470``); skip-k-leading-words fallback for noisy
  starts, k ≤ 4 (``extractor.py:502-510``).
* Pass 2 (cross-page): for labels still unfound, append ≤5 head
  line-groups of the next page (y-offset by page height) and retry
  (``extractor.py:512-528``).

Pure per-document function — runs inside ``map_batches`` on one row's
page columns; no cross-row state.
"""

from __future__ import annotations

from bisect import bisect_right

from .lines import Lines, PageModel, Token, as_page
from .normalize import clean_label_sequence, expected, normalize_text, token_blob
from .questions import NextHead

from ..core.constants import (
    LABEL_MULTILINE_BASE_X_TOLERANCE,
    LABEL_MULTILINE_MAX_LOOKAHEAD,
)


def try_multiline_on_lines(lines: Lines, lbl_words_seq: list[str]) -> tuple[int, int] | None:
    """Multiline label search (reference ``extractor.py:378-470``).

    Returns the (x, y) of the start token of a full multi-line match, or
    None. Continuation steps onto the *next line* only (not next
    y-group — that variant belongs to the section detector).
    """
    base_x_tolerance = LABEL_MULTILINE_BASE_X_TOLERANCE
    max_lookahead = LABEL_MULTILINE_MAX_LOOKAHEAD
    n_lbl = len(lbl_words_seq)
    exps = [expected(w) for w in lbl_words_seq]
    starts, xs, norms = lines.starts, lines.x, lines.lnorm
    n_lines = len(lines)

    for i in range(n_lines):
        s, e = starts[i], starts[i + 1]
        if s == e:
            continue
        # Best contiguous leading-word match starting at any token.
        best_start = None
        best_matched_here = 0
        for start_idx in range(s, e):
            matched_here = 0
            k = start_idx
            for lbl_idx in range(n_lbl):
                if k >= e:
                    break
                if exps[lbl_idx].contains(norms[k]):
                    matched_here += 1
                    k += 1
                else:
                    break
            if matched_here > best_matched_here:
                best_matched_here = matched_here
                best_start = start_idx
            if matched_here == n_lbl:
                break
        if best_matched_here == 0:
            continue
        start_x = xs[best_start]
        start_y = lines.y[best_start]
        x_ref = start_x
        curr_lbl_idx = best_matched_here
        curr_idx = i
        matched_all = curr_lbl_idx == n_lbl
        lookahead_used = 0
        while not matched_all and lookahead_used < max_lookahead:
            if curr_idx + 1 >= n_lines:
                break
            ns, ne = starts[curr_idx + 1], starts[curr_idx + 2]
            if ns == ne:
                break
            exp_next = exps[curr_lbl_idx]
            candidate_indices = [
                idx
                for idx in range(ns, ne)
                if abs(xs[idx] - x_ref) <= base_x_tolerance and exp_next.contains(norms[idx])
            ]
            if not candidate_indices:
                # Relax: scan the whole line (reference extractor.py:435-437)
                candidate_indices = [idx for idx in range(ns, ne) if exp_next.contains(norms[idx])]
            if not candidate_indices:
                break
            best_line_match = 0
            best_line_start = None
            for ci in candidate_indices:
                matched_in_line = 0
                k = ci
                for lbl_idx in range(curr_lbl_idx, n_lbl):
                    if k >= ne:
                        break
                    if exps[lbl_idx].contains(norms[k]):
                        matched_in_line += 1
                        k += 1
                    else:
                        break
                if matched_in_line > best_line_match:
                    best_line_match = matched_in_line
                    best_line_start = ci
            if best_line_match == 0:
                break
            curr_lbl_idx += best_line_match
            curr_idx += 1
            lookahead_used += 1
            x_ref = xs[best_line_start]
            matched_all = curr_lbl_idx == n_lbl
        if matched_all:
            return (start_x, start_y)
    return None


def get_label_positions(
    page: PageModel | list[Token],
    expected_labels: list[str],
    next_head: NextHead | None = None,
) -> dict[str, list[tuple[int, int]]]:
    """Locate label anchor positions (reference ``extractor.py:194-532``).

    ``page`` is the page's :class:`~.lines.PageModel` (or its token
    list); the single-line pass scans its words in OCR emission order,
    exactly like the reference, and the multiline passes its lines.
    ``next_head`` (the page's lines plus the next page's head, see
    :class:`~.questions.NextHead`) enables cross-page continuation for
    labels not found in-page.
    """
    label_positions: dict[str, list[tuple[int, int]]] = {}
    if not expected_labels:
        return label_positions

    # The page's non-blank words in OCR emission order, by their index
    # in the lines, and their normalized text.
    page = as_page(page)
    lines, emit = page.lines, page.emit
    lnorm = lines.lnorm
    norms = [lnorm[k] for k in emit]

    # One newline-joined blob of the normalized tokens: finding every
    # token that *contains* a label's first word (the reference's
    # `first_word in normalize_text(...)` gate, extractor.py:489) is a
    # C-level substring sweep instead of a per-(label, token) Python
    # loop. Normalized tokens hold no '\n', so hits never cross tokens.
    flat_blob, _offs = token_blob(norms)
    n = len(norms)

    def first_word_candidates(first_word: str) -> list[int]:
        if not first_word:
            return list(range(n))
        out: list[int] = []
        start = 0
        last_tok = -1
        while True:
            hit = flat_blob.find(first_word, start)
            if hit == -1:
                break
            tok = bisect_right(_offs, hit) - 1
            if tok != last_tok:
                out.append(tok)
                last_tok = tok
            start = hit + 1
        return out

    # Pass 1: in-page search.
    for lbl in expected_labels:
        lbl_words = lbl.split()
        if not lbl_words:
            continue
        first_word = normalize_text(lbl_words[0])
        last_word = normalize_text(lbl_words[-1])
        exp_full = expected(lbl)
        max_len = len(lbl_words)
        found = False
        # Single-line token-window scan (reference extractor.py:484-493);
        # outer loop restricted to tokens containing the first word —
        # the same set the reference's `in` gate admits.
        for i in first_word_candidates(first_word):
            for j in range(i, min(i + max_len, n)):
                if first_word in norms[i] and last_word in norms[j]:
                    seq_clean = clean_label_sequence(
                        [lines.text[k] for k in emit[i : j + 1]]
                    )
                    if exp_full.contains(seq_clean):
                        k = emit[i]
                        label_positions.setdefault(lbl, []).append((lines.x[k], lines.y[k]))
                        found = True
        if not found:
            pos = try_multiline_on_lines(lines, lbl_words)
            if pos is not None:
                label_positions.setdefault(lbl, []).append(pos)
            else:
                # Skip-k fallback for noisy line starts (extractor.py:502-510).
                for skip in range(1, min(5, len(lbl_words))):
                    pos2 = try_multiline_on_lines(lines, lbl_words[skip:])
                    if pos2 is not None:
                        label_positions.setdefault(lbl, []).append(pos2)
                        break

    # Pass 2: cross-page continuation for still-unfound labels
    # (reference extractor.py:512-528).
    if next_head is not None:
        for lbl in expected_labels:
            if label_positions.get(lbl):
                continue
            lbl_words = lbl.split()
            lines_next = next_head.lines
            pos = try_multiline_on_lines(lines_next, lbl_words)
            if pos is not None:
                label_positions.setdefault(lbl, []).append(pos)
                continue
            for skip in range(1, min(5, len(lbl_words))):
                pos2 = try_multiline_on_lines(lines_next, lbl_words[skip:])
                if pos2 is not None:
                    label_positions.setdefault(lbl, []).append(pos2)
                    break

    return label_positions
