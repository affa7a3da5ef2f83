"""Question prompt matcher (operator C3, SURVEY.md §2.10).

Faithful reimplementation of ``_match_questions_like_labels`` and the
question half of ``match_sections_and_questions`` (reference
``response_extractor.py:238-612`` and ``618-790``):

* all same-line full matches per question (``find_all_full_in_line``),
  with a startswith rule on the first expected word so matches cannot
  start mid-token (``response_extractor.py:382-386``);
* one multiline hit via sibling-y-group lookahead (``try_multiline``);
* y-band attribution with a post-anchor minimum start y;
* band-crop retry for missed questions (V5 analog — the reference
  re-OCRs the section band; here the band's lines are re-matched, the
  deterministic stand-in for that second OCR pass);
* cross-page fallback appending the next page's head line-groups;
* k-th-occurrence claiming for duplicated question texts (D4).

Neither retry regroups the page. A band crop ``[y1, y2)`` is the run of
the page's lines whose ``y`` lies in the band, found by bisection, with
the page's candidate index restricted to that run
(:meth:`PageIndex.band`). That equals regrouping the band's tokens
whenever every line lies wholly inside or wholly outside the band; only
when a line has words on both sides of a band edge are the band's
tokens regrouped (:func:`band_tokens`). The cross-page lines are one
:class:`NextHead` per page, cut on first use from the next page's own
lines, indexed by extending the page's index, and shared with the
label matcher's cross-page pass.

Neither retry re-matches what the page pass matched: a line's
same-line full matches are memoized on the line per question
(:func:`line_full_matches`) and read by the page pass, both crops and
the cross-page pass alike, and a crop's multiline search starts at the
page's first multiline hit (:meth:`PageIndex.multiline`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable

from .lines import Line, Token, group_lines, head_line_groups, offset_lines, offset_tokens
from .normalize import expected, ocr_norm, token_blob

from ..core.constants import (
    ANCHOR_OFFSET_PX,
    LABEL_MULTILINE_BASE_X_TOLERANCE,
    LABEL_MULTILINE_MAX_LOOKAHEAD,
)

Hit = dict[str, Any]


def _line_norms(line: Line) -> list[str]:
    """Per-line cache of OCR-normalized token strings. Normalization is
    pure (and ``ocr_norm`` memoized per string), so caching on the line
    dict is semantics-preserving (the reference re-normalizes every
    probe)."""
    norms = line.get("_norms")
    if norms is None:
        norms = line["_norms"] = [ocr_norm(w["text"]) for w in line["words"]]
    return norms


def _candidate_starts(line: Line, first_exp) -> list[int]:
    """Token indices where the first expected word (or the merged
    concat — whose prefix is the first word) can start. Equals the set
    of start indices the reference's per-token loop can accept, found
    with one regex scan of the line's blob (cached on the line) instead
    of len(words) Python probes."""
    blob = line.get("_blob")
    if blob is None:
        blob, line["_offs"] = token_blob(_line_norms(line))
        line["_blob"] = blob
    positions = first_exp.prefix_positions(blob)
    if not positions:
        return []
    offs = line["_offs"]
    return [bisect_left(offs, p) for p in positions]


class PageIndex:
    """Page-level candidate index: all lines' normalized-token blobs
    concatenated, so locating every possible start of a question is ONE
    regex scan over the page instead of one per (question, line). The
    candidate sets are identical to the per-line scans — lines appear
    in list order in the blob, so iteration order is preserved.

    With ``base`` (the index of a prefix of ``lines``) the index extends
    it: the base's blob and token offsets are copied, not rebuilt, and
    a scan covers only the lines past the base, its hits appended to
    the base's memoized candidates. No match crosses a line, as ``\\n``
    matches no pattern class, so the result equals a scan of the whole
    blob."""

    __slots__ = (
        "lines", "blob", "g_offs", "g_line", "g_tok", "_cands", "_extents", "_line_ys", "_base",
        "_tail", "_multi",
    )

    def __init__(self, lines: list[Line], base: "PageIndex | None" = None):
        self.lines = lines
        if base is None:
            first, pos, blob = 0, 0, ""
            g_offs: list[int] = []
            g_line: list[int] = []
            g_tok: list[int] = []
        else:
            first, pos, blob = len(base.lines), len(base.blob), base.blob
            g_offs, g_line, g_tok = base.g_offs[:], base.g_line[:], base.g_tok[:]
        self._base = base
        self._tail = pos
        # the lines' blobs concatenated are one blob of all their tokens
        norms: list[str] = []
        for li in range(first, len(lines)):
            line_norms = _line_norms(lines[li])
            norms.extend(line_norms)
            g_line.extend([li] * len(line_norms))
            g_tok.extend(range(len(line_norms)))
        tail, offsets = token_blob(norms, pos)
        g_offs.extend(offsets)
        self.blob = blob + tail
        self.g_offs = g_offs
        self.g_line = g_line
        self.g_tok = g_tok
        self._cands: dict = {}
        self._extents: list[tuple[int, int]] | None = None
        self._line_ys: list[int] | None = None
        self._multi: dict[str, dict | None] = {}

    @property
    def line_ys(self) -> list[int]:
        """Each line's ``y``: ascending for grouped lines."""
        if self._line_ys is None:
            self._line_ys = [ln["y"] for ln in self.lines]
        return self._line_ys

    def candidates(self, exp) -> dict[int, list[int]]:
        """line_idx → [token_idx] of possible starts for ``exp``.
        Memoized per ``exp``; callers must not mutate the result."""
        out = self._cands.get(exp)
        if out is None:
            if self._base is None:
                out, hits = {}, exp.prefix_positions(self.blob)
            else:
                out = dict(self._base.candidates(exp))
                hits = exp.prefix_positions(self.blob, self._tail)
            for p in hits:
                k = bisect_left(self.g_offs, p)
                out.setdefault(self.g_line[k], []).append(self.g_tok[k])
            self._cands[exp] = out
        return out

    def multiline(self, q: str, q_words: list[str], cand_by_line: dict) -> dict | None:
        """:func:`try_multiline` over this index's lines for question
        ``q`` (``cand_by_line`` its first word's candidates), memoized
        per question. Callers must not mutate the result."""
        if q not in self._multi:
            self._multi[q] = try_multiline(self.lines, q_words, cand_by_line)
        return self._multi[q]

    def band(self, y1: int, y2: int) -> "tuple[list[Line], _LineWindow] | None":
        """The crop ``[y1, y2)`` as a slice of this index's lines, with
        its candidate index, or ``None`` when a line has words on both
        sides of ``y1`` or ``y2``.

        With every line wholly inside or wholly outside the band, the
        lines inside are those whose ``y`` lies in ``[y1, y2)``: a
        contiguous run ``lines[a:b]`` of the y-sorted list. They keep
        their keys, words, word order and ``y``, and the stable y-sort
        keeps their relative order, so the run equals
        ``group_lines(band_tokens(tokens, y1, y2))``. Its candidates
        are this index's, restricted to ``[a, b)`` and renumbered."""
        if self._extents is None:
            self._extents = [
                (min(ys), max(ys))
                for ys in ([int(w["y"]) for w in ln["words"]] for ln in self.lines)
            ]
        for lo, hi in self._extents:
            if lo < y1 <= hi or lo < y2 <= hi:
                return None
        line_ys = self.line_ys
        a, b = bisect_left(line_ys, y1), bisect_left(line_ys, y2)
        return self.lines[a:b], _LineWindow(self, a, b)


class _LineWindow:
    """The candidate index of the line run ``[a, b)`` of a
    :class:`PageIndex`, with line indices counted from ``a``."""

    __slots__ = ("page", "a", "b")

    def __init__(self, page: PageIndex, a: int, b: int):
        self.page, self.a, self.b = page, a, b

    def candidates(self, exp) -> dict[int, list[int]]:
        a, b = self.a, self.b
        return {
            li - a: toks
            for li, toks in self.page.candidates(exp).items()
            if a <= li < b
        }

    def multiline(self, q: str, q_words: list[str], cand_by_line: dict) -> dict | None:
        """:func:`try_multiline` over the run. A band never splits the
        lines of one ``y``, so from a start line in the run the search
        reads the same lines as over the page's, or runs out of them
        sooner. Start lines before the page's first hit fail over the
        page's lines, so they fail in the run too, and the run's search
        starts at that hit."""
        page = self.page
        hit = page.multiline(q, q_words, page.candidates(expected(q_words[0])))
        if hit is None:
            return None
        first = max(hit["line"], self.a) - self.a
        return try_multiline(
            page.lines[self.a : self.b],
            q_words,
            {li: toks for li, toks in cand_by_line.items() if li >= first},
        )


class NextHead:
    """A page's lines followed by the first ``n_groups`` line groups
    of the next page, y-offset by the page height (reference
    ``extractor.py:331-375``, ``response_extractor.py:300-343``), with
    their :class:`PageIndex`. Both are built on first use, so a page
    reads its successor at most once, however many label and question
    cross-page passes read them.

    ``next_lines`` (a callable returning the next page's
    :func:`group_lines`) lets the head be cut from the next page's own
    lines and shifted (:func:`offset_lines`) instead of regrouping its
    tokens.
    ``page_index`` (the :class:`PageIndex` of ``page_lines``) is
    extended by the head lines instead of re-indexing the page."""

    __slots__ = (
        "_page_lines", "_next_tokens", "_page_height", "_n_groups", "_lines", "_index",
        "_page_index", "_next_lines",
    )

    def __init__(
        self,
        page_lines: list[Line],
        next_tokens: list[Token],
        page_height: int,
        n_groups: int = 5,
        page_index: PageIndex | None = None,
        next_lines: Callable[[], list[Line]] | None = None,
    ):
        self._page_lines = page_lines
        self._next_tokens = next_tokens
        self._page_height = page_height
        self._n_groups = n_groups
        self._lines: list[Line] | None = None
        self._index: PageIndex | None = None
        self._page_index = page_index if page_index and page_index.lines is page_lines else None
        self._next_lines = next_lines

    @property
    def lines(self) -> list[Line]:
        if self._lines is None:
            if self._next_lines is None:
                next_lines = group_lines(offset_tokens(self._next_tokens, self._page_height))
                head = head_line_groups(next_lines, self._n_groups)
            else:
                head = offset_lines(
                    head_line_groups(self._next_lines(), self._n_groups), self._page_height
                )
            self._lines = self._page_lines + head
        return self._lines

    @property
    def index(self) -> PageIndex:
        if self._index is None:
            self._index = PageIndex(self.lines, base=self._page_index)
        return self._index


def _best_span_in_line(
    words: list[dict],
    lbl_words: list[str],
    line: Line | None = None,
    candidates: list[int] | None = None,
) -> tuple[int | None, int]:
    """Reference ``response_extractor.py:365-397``."""
    exp_concat = expected(" ".join(lbl_words))
    exps = [expected(w) for w in lbl_words]
    if line is not None:
        norms = _line_norms(line)
        if candidates is None:
            candidates = _candidate_starts(line, exps[0])
    else:
        norms = [ocr_norm(w["text"]) for w in words]
        candidates = [i for i in range(len(words)) if exps[0].startswith(norms[i])]
    best_start = None
    best_matched_here = 0
    n = len(words)
    for start_idx in candidates:
        tok0_clean = norms[start_idx]
        if exp_concat.startswith(tok0_clean):
            return start_idx, len(lbl_words)
        matched_here = 1  # first word matched by candidacy
        k = start_idx + 1
        for lbl_idx in range(1, len(lbl_words)):
            if k >= n:
                break
            if exps[lbl_idx].contains(norms[k]):
                matched_here += 1
                k += 1
            else:
                break
        if matched_here > best_matched_here:
            best_matched_here = matched_here
            best_start = start_idx
        if matched_here == len(lbl_words):
            break
    return best_start, best_matched_here


def find_all_full_in_line(
    words: list[dict],
    lbl_words: list[str],
    line: Line | None = None,
    candidates: list[int] | None = None,
) -> list[dict]:
    """All same-line full matches on one line
    (reference ``response_extractor.py:399-445``)."""
    segments: list[dict] = []
    if not words:
        return segments
    exp_concat = expected(" ".join(lbl_words))
    exps = [expected(w) for w in lbl_words]
    if line is not None:
        norms = _line_norms(line)
        if candidates is None:
            candidates = _candidate_starts(line, exps[0])
    else:
        norms = [ocr_norm(w["text"]) for w in words]
        candidates = [i for i in range(len(words)) if exps[0].startswith(norms[i])]
    n = len(words)
    for start_idx in candidates:
        tok0_clean = norms[start_idx]
        if exp_concat.startswith(tok0_clean):
            seg_tokens = [words[start_idx]]
            segments.append(_segment(seg_tokens, len(lbl_words)))
            continue
        matched_here = 1
        k = start_idx + 1
        for lbl_idx in range(1, len(lbl_words)):
            if k >= n:
                matched_here = 0
                break
            if exps[lbl_idx].contains(norms[k]):
                matched_here += 1
                k += 1
            else:
                matched_here = 0
                break
        if matched_here == len(lbl_words):
            seg_tokens = words[start_idx : start_idx + matched_here]
            segments.append(_segment(seg_tokens, matched_here))
    return segments


def line_full_matches(
    line: Line, q: str, q_words: list[str], candidates: list[int]
) -> list[dict]:
    """:func:`find_all_full_in_line` for question ``q`` on one grouped
    line, memoized on the line. Every index a line is read through
    (the page's, a band window of it, a :class:`NextHead` extending it)
    gives the line the same candidates, as they are scanned from the
    line's own blob; so the page pass, the band-crop retries and the
    cross-page pass share one result per (line, question). Callers
    must not mutate it."""
    memo = line.get("_full")
    if memo is None:
        memo = line["_full"] = {}
    segs = memo.get(q)
    if segs is None:
        segs = memo[q] = find_all_full_in_line(
            line["words"], q_words, line=line, candidates=candidates
        )
    return segs


def _segment(seg_tokens: list[dict], count: int) -> dict:
    return {
        "line_y": int(min(t["y"] for t in seg_tokens)),
        "start_x": seg_tokens[0]["x"],
        "end_x": seg_tokens[-1]["x"] + seg_tokens[-1].get("w", 0),
        "count": count,
        "tokens": [t["text"] for t in seg_tokens],
    }


def try_multiline(
    lines: list[Line],
    lbl_words_seq: list[str],
    cand_by_line: dict[int, list[int]] | None = None,
) -> dict | None:
    """Multiline question search over sibling y-groups
    (reference ``response_extractor.py:450-570``). ``cand_by_line``
    (from :class:`PageIndex`) restricts the start-line scan to lines
    that can match the first expected word — lines without a candidate
    yield ``matched_here == 0`` in the reference loop and are skipped
    there too. A hit is ``{start, segments, line}``, ``line`` the index
    of its start line in ``lines``: the first start line that matches."""
    base_x_tolerance = LABEL_MULTILINE_BASE_X_TOLERANCE
    max_lookahead = LABEL_MULTILINE_MAX_LOOKAHEAD
    n_lbl = len(lbl_words_seq)
    # resolve the per-word Expected objects once (the lookahead loop
    # probes them per token; the lru_cache lookup per probe adds up)
    exps_seq = [expected(w) for w in lbl_words_seq]
    if cand_by_line is not None:
        start_iter = [(i, lines[i]) for i in sorted(cand_by_line)]
    else:
        start_iter = list(enumerate(lines))
    for i, line in start_iter:
        words = line["words"]
        if not words:
            continue
        best_start, matched_here = _best_span_in_line(
            words,
            lbl_words_seq,
            line=line,
            candidates=cand_by_line.get(i) if cand_by_line is not None else None,
        )
        if matched_here == 0:
            continue
        start_x = words[best_start]["x"]
        start_y = words[best_start]["y"]
        x_ref = start_x
        curr_lbl_idx = matched_here
        curr_idx = i
        matched_all = curr_lbl_idx == n_lbl
        lookahead_used = 0
        seg_words = words[best_start : best_start + matched_here]
        last_idx = min(best_start + max(0, matched_here - 1), len(words) - 1)
        segments = [
            {
                "line_y": int(
                    min(t["y"] for t in seg_words) if matched_here > 0 else line.get("y", 0)
                ),
                "start_x": start_x,
                "end_x": words[last_idx]["x"] + words[last_idx].get("w", 0),
                "count": matched_here,
                "tokens": [t["text"] for t in seg_words],
            }
        ]
        while not matched_all and lookahead_used < max_lookahead:
            j = curr_idx + 1
            curr_y = lines[curr_idx]["y"] if curr_idx < len(lines) else None
            while j < len(lines) and curr_y is not None and lines[j]["y"] <= curr_y:
                j += 1
            if j >= len(lines):
                break
            next_y = lines[j]["y"]
            group_indices = []
            kidx = j
            while kidx < len(lines) and lines[kidx]["y"] == next_y:
                group_indices.append(kidx)
                kidx += 1
            exp_next = exps_seq[curr_lbl_idx]
            best_overall = 0
            best_overall_idx = None
            best_overall_segtoks = None
            for li in group_indices:
                line_tokens = lines[li]["words"]
                if not line_tokens:
                    continue
                lnorms = _line_norms(lines[li])
                starters = _candidate_starts(lines[li], exp_next)
                candidate_indices = [
                    idx for idx in starters
                    if abs(line_tokens[idx]["x"] - x_ref) <= base_x_tolerance
                ]
                if not candidate_indices:
                    candidate_indices = starters
                if not candidate_indices:
                    candidate_indices = [
                        idx
                        for idx, tok in enumerate(line_tokens)
                        if abs(tok["x"] - x_ref) <= base_x_tolerance
                        and exp_next.contains(lnorms[idx])
                    ]
                if not candidate_indices:
                    continue
                best_line_match = 0
                best_line_segtoks = None
                for ci in candidate_indices:
                    matched_in_line = 0
                    k = ci
                    while k < len(line_tokens) and (curr_lbl_idx + matched_in_line) < n_lbl:
                        exp2 = exps_seq[curr_lbl_idx + matched_in_line]
                        tok_clean = lnorms[k]
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
                        best_line_segtoks = line_tokens[ci : ci + matched_in_line]
                if best_line_match > best_overall:
                    best_overall = best_line_match
                    best_overall_idx = li
                    best_overall_segtoks = best_line_segtoks
            if best_overall == 0 or best_overall_idx is None or best_overall_segtoks is None:
                break
            seg_tokens = best_overall_segtoks
            next_line = lines[best_overall_idx]
            segments.append(
                {
                    "line_y": int(
                        min(t["y"] for t in seg_tokens) if seg_tokens else next_line.get("y", 0)
                    ),
                    "start_x": seg_tokens[0]["x"],
                    "end_x": seg_tokens[-1]["x"] + seg_tokens[-1].get("w", 0),
                    "count": best_overall,
                    "tokens": [t["text"] for t in seg_tokens],
                }
            )
            curr_lbl_idx += best_overall
            curr_idx = best_overall_idx
            lookahead_used += 1
            x_ref = seg_tokens[0]["x"]
            matched_all = curr_lbl_idx == n_lbl
        if matched_all:
            return {"start": (start_x, start_y), "segments": segments, "line": i}
    return None


def match_questions_like_labels(
    tokens: list[Token], questions: list[str]
) -> dict[str, list[Hit]]:
    """Reference ``response_extractor.py:238-612``. Returns, per unique
    question text, the list of match hits ``{x, y, segments}``."""
    lines = group_lines(tokens)
    return match_questions_in_lines(lines, questions, PageIndex(lines))


def match_questions_in_lines(
    lines: list[Line], questions: list[str], index: "PageIndex | _LineWindow"
) -> dict[str, list[Hit]]:
    """:func:`match_questions_like_labels` on grouped ``lines`` with
    their candidate ``index``, the index built over exactly ``lines``
    (grouping is pure, so the per-section calls share the page's lines
    — the reference regroups on every call)."""
    results: dict[str, list[Hit]] = {}
    unique_questions: list[str] = []
    seen_qtexts: set[str] = set()
    for q in questions:
        if q not in seen_qtexts:
            unique_questions.append(q)
            seen_qtexts.add(q)
    for q in unique_questions:
        q_words = [w for w in q.split() if w]
        if not q_words:
            continue
        cand_by_line = index.candidates(expected(q_words[0]))
        seen_starts: set[tuple[int, int]] = set()
        for li in sorted(cand_by_line):
            for seg in line_full_matches(lines[li], q, q_words, cand_by_line[li]):
                key = (int(seg["start_x"]), int(seg["line_y"]))
                if key in seen_starts:
                    continue
                seen_starts.add(key)
                results.setdefault(q, []).append(
                    {"x": key[0], "y": key[1], "segments": [seg]}
                )
        hit = index.multiline(q, q_words, cand_by_line)
        if hit is not None:
            key = (int(hit["start"][0]), int(hit["start"][1]))
            if key not in seen_starts:
                results.setdefault(q, []).append(
                    {"x": key[0], "y": key[1], "segments": hit["segments"]}
                )
    return results


def band_tokens(tokens: list[Token], y1: int, y2: int) -> list[Token]:
    """The tokens of the band ``[y1, y2)``, for a crop that
    :meth:`PageIndex.band` cannot slice from the page's lines (a line
    straddles a band edge). Zero-copy: the matcher's geometry is
    shift-invariant (grouping/order by relative y, lookahead by line
    index and x tolerance, no absolute-y constants), so the crop keeps
    the original token dicts with absolute y instead of shifting them
    into crop space, and hits need no shift back."""
    return [t for t in tokens if y1 <= int(t.get("y", 0)) < y2]


def match_sections_and_questions(
    tokens: list[Token],
    sections: list[dict],
    section_regions: dict[str, dict[str, int]],
    page_width: int = 2000,
    page_height: int = 3000,
    lines: list[Line] | None = None,
    page_index: "PageIndex | None" = None,
    next_head: NextHead | None = None,
) -> list[dict[str, Any]]:
    """Reference ``match_sections_and_questions``
    (``response_extractor.py:618-790``), regions-provided path (the
    extractor always passes ``section_regions``).

    ``next_head`` (built over ``lines``) enables the cross-page
    fallback; the last page has none."""
    anchors: dict[str, int] = {}
    bands: dict[str, tuple[int, int]] = {}
    for sec in sections:
        name = sec["section_name"]
        reg = section_regions.get(name)
        if not reg:
            continue
        anchors[name] = reg.get("y1")
    ordered = sorted(
        [(n, y) for n, y in anchors.items() if y is not None], key=lambda t: t[1]
    )
    name_to_next_anchor: dict[str, int] = {}
    for idx, (name, y1) in enumerate(ordered):
        next_y = ordered[idx + 1][1] - 1 if (idx + 1) < len(ordered) else page_height
        name_to_next_anchor[name] = next_y
    for name, anchor_y in ordered:
        reg = section_regions.get(name) or {}
        region_y2 = reg.get("y2")
        next_anchor_bottom = name_to_next_anchor.get(name, page_height)
        if isinstance(region_y2, (int, float)):
            bands[name] = (anchor_y, min(int(region_y2), next_anchor_bottom))
        else:
            bands[name] = (anchor_y, next_anchor_bottom)

    page_lines = lines if lines is not None else group_lines(tokens)
    page_idx = page_index if page_index is not None else PageIndex(page_lines)
    # Band-crop retries for questions in the same section share the
    # same (y1, y2) crop; each crop's lines and candidate index are
    # built once per call. A crop is a slice of the page's lines unless
    # a line straddles a band edge; only then are the band's tokens
    # regrouped.
    crop_cache: dict[tuple[int, int], tuple[list[Line], PageIndex | _LineWindow]] = {}

    def cropped(y1c: int, y2c: int) -> tuple[list[Line], PageIndex | _LineWindow]:
        key = (y1c, y2c)
        hit = crop_cache.get(key)
        if hit is None:
            hit = page_idx.band(y1c, y2c)
            if hit is None:
                band_lines = group_lines(band_tokens(tokens, y1c, y2c))
                hit = (band_lines, PageIndex(band_lines))
            crop_cache[key] = hit
        return hit

    out: list[dict[str, Any]] = []
    for sec in sections:
        sec_name = sec["section_name"]
        qs = sec.get("questions") or []
        if not qs:
            continue
        qhits = match_questions_in_lines(page_lines, qs, page_idx)
        sec_hits: list[dict[str, Any]] = []
        claimed_by_q: dict[str, set[tuple[int, int]]] = {}
        yband = bands.get(sec_name)
        sec_anchor_y = anchors.get(sec_name)
        min_start_y = (
            int(sec_anchor_y) + ANCHOR_OFFSET_PX
            if isinstance(sec_anchor_y, (int, float))
            else None
        )
        for q in qs:
            hits = [h for h in qhits.get(q, []) if not h.get("skipped")]
            if yband:
                y1, y2 = yband
                hits = [
                    h
                    for h in hits
                    if y1 <= h.get("y", 0) <= y2
                    and (min_start_y is None or h.get("y", 0) >= min_start_y)
                ]
            # Band-crop retry (V5 analog, response_extractor.py:700-748).
            if not hits and yband:
                y1, y2 = yband
                y1_effective = int(y1)
                if isinstance(sec_anchor_y, (int, float)):
                    y1_effective = max(y1_effective, int(sec_anchor_y) + ANCHOR_OFFSET_PX)
                y1c = max(0, y1_effective)
                y2c_primary = max(y1c + 1, int(min(page_height, y2)))

                def try_crop(y2c_local: int) -> list[Hit]:
                    # crop lines keep absolute y, so hits need no
                    # crop-space shift-back
                    local_hits = []
                    band_lines, band_idx = cropped(y1c, y2c_local)
                    bhits = match_questions_in_lines(band_lines, [q], band_idx).get(q, [])
                    for bh in bhits:
                        if (min_start_y is None) or (bh.get("y", 0) >= min_start_y):
                            local_hits.append(bh)
                    return local_hits

                band_hits = try_crop(y2c_primary)
                if not band_hits and section_regions and sec_name in anchors:
                    idx = next(
                        (i for i, (n, _) in enumerate(ordered) if n == sec_name), None
                    )
                    if idx is not None:
                        next_anchor_bottom = (
                            ordered[idx + 1][1] - 1
                            if (idx + 1) < len(ordered)
                            else page_height
                        )
                        y2c_wide = max(y1c + 1, int(min(page_height, next_anchor_bottom)))
                        if y2c_wide > y2c_primary:
                            band_hits = try_crop(y2c_wide)
                hits.extend(band_hits)
            # Cross-page fallback (response_extractor.py:751-766).
            if not hits and next_head is not None:
                xhits = match_questions_in_lines(
                    next_head.lines, [q], next_head.index
                ).get(q, [])
                if yband:
                    y1, y2 = yband
                    xhits = [
                        h
                        for h in xhits
                        if y1 <= h.get("y", 0) <= y2
                        and (min_start_y is None or h.get("y", 0) >= min_start_y)
                    ]
                hits.extend(xhits)
            if not hits:
                continue
            # K-th occurrence claiming (D4, response_extractor.py:770-782).
            claimed = claimed_by_q.setdefault(q, set())
            for chosen in sorted(hits, key=lambda h: (h.get("y", 0), h.get("x", 0))):
                key = (int(chosen.get("x", 0)), int(chosen.get("y", 0)))
                if key in claimed:
                    continue
                claimed.add(key)
                sec_hits.append(
                    {
                        "question": q,
                        "position": [key[0], key[1]],
                        "segments": chosen.get("segments", []),
                        "skipped": chosen.get("skipped"),
                    }
                )
                break
        if sec_hits:
            out.append(
                {
                    "section": sec_name,
                    "anchor_y": anchors.get(sec_name),
                    "questions": sec_hits,
                }
            )
    return out
