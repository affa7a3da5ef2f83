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

Each page's questions are matched once. A page's :class:`PageIndex`
keeps its question table: one row per distinct question text, built
on first use, holding

* the same-line full matches of every line that has one, and the
  page's hits (``{x, y, segments}``), computed once per page however
  many sections list the question;
* one multiline outcome per start line: the hit or none, and the first
  line of the last line group the search read (:func:`multiline_from`).
  :func:`try_multiline` is the first start line whose outcome is a hit.

A band crop ``[y1, y2)`` is the run ``lines[a:b]`` of the page's
y-sorted lines whose ``y`` lies in the band (:meth:`PageIndex.band`),
unless a line has words on both sides of a band edge; only then are
the band's words regrouped (:meth:`~.lines.PageModel.band`) and indexed
afresh.
A run's hits are read from the page's table: its full matches are the
page's on lines ``a..b-1``, and its multiline hit is the first start
line at or past ``max(a, page's first hit)`` whose page outcome is a
hit that read no line group at or past ``b``. That is exact because a
band never splits the lines of one ``y``: a search that stays inside
the run reads the same lines as on the page, and one that would leave
it fails inside it.

The cross-page lines are one :class:`NextHead` per page, cut on first
use from the next page's own lines, and indexed by extending the
page's index; the extended index keeps its own outcome table (a search
that ran out of the page's lines can succeed across the page break)
and reuses the page's full matches.

:func:`match_sections_and_questions` reads a section's hits of a
question (page pass, both band crops, cross-page pass) once per call
and ranks them once, so a question its section lists several times
(k-th-occurrence claiming) only claims the next of them; each band
crop's window or regrouped index is built once per call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable

from .lines import Lines, PageModel, Token, as_page
from .normalize import expected

from ..core.constants import (
    ANCHOR_OFFSET_PX,
    LABEL_MULTILINE_BASE_X_TOLERANCE,
    LABEL_MULTILINE_MAX_LOOKAHEAD,
)

Hit = dict[str, Any]


def _candidate_starts(lines: Lines, li: int, first_exp) -> list[int]:
    """The words of line ``li`` where the first expected word (or the
    merged concat — whose prefix is the first word) can start. Equals
    the set of start words the reference's per-token loop can accept,
    found with one regex scan of the line's run of the lines' blob
    instead of one Python probe per word."""
    s, e = lines.starts[li], lines.starts[li + 1]
    if s == e:
        return []
    blob, offs = lines.blob
    # the line's run of the blob ends where the next word's "\n" is
    end = offs[e] - 1 if e < len(offs) else len(blob)
    return [bisect_left(offs, p) for p in first_exp.prefix_positions(blob, offs[s] - 1, end)]


class PageIndex:
    """Page-level candidate index over the blob of the lines' words
    (:attr:`Lines.blob`), so locating every possible start of a
    question is ONE regex scan over the page instead of one per
    (question, line). The candidate sets are identical to the per-line
    scans — lines appear in order in the blob, so iteration order is
    preserved.

    The index also keeps the page's question table (module docstring):
    one :class:`_Question` row per question text, each built on first
    use, read by :meth:`hits` and, for a band window, :meth:`window_hits`.
    The rows hold no reference back to the index, so a page's views are
    freed by reference counting once its document is done; a cycle
    would leave every page to the garbage collector.

    With ``base`` (the index of a prefix of ``lines``) the index extends
    it: a scan covers only the blob past the base's, its hits appended
    to the base's memoized candidates. No match crosses a word, as
    ``\\n`` matches no pattern class, so the result equals a scan of the
    whole blob. The base lines' full matches are read from the base's
    rows."""

    __slots__ = ("lines", "_cands", "_tall", "_base", "_tail", "_rows")

    def __init__(self, lines: Lines, base: "PageIndex | None" = None):
        self.lines = lines
        self._base = base
        self._tail = len(base.lines.blob[0]) if base is not None else 0
        self._cands: dict = {}
        self._tall: list[tuple[int, int]] | None = None
        self._rows: dict[str, _Question] = {}

    def candidates(self, exp) -> dict[int, list[int]]:
        """line → [word] of possible starts for ``exp``, words by their
        index in the lines. Memoized per ``exp``; callers must not
        mutate the result."""
        out = self._cands.get(exp)
        if out is None:
            blob, offs = self.lines.blob
            starts = self.lines.starts
            if self._base is None:
                out, hits = {}, exp.prefix_positions(blob)
            else:
                out = dict(self._base.candidates(exp))
                hits = exp.prefix_positions(blob, self._tail)
            for p in hits:
                k = bisect_left(offs, p)
                out.setdefault(bisect_right(starts, k) - 1, []).append(k)
            self._cands[exp] = out
        return out

    def _row(self, q: str) -> _Question:
        row = self._rows.get(q)
        if row is None:
            row = self._rows[q] = _Question(q.split())
            if not row.words:
                row.hits = []
                return row
            lines = self.lines
            row.cands = self.candidates(row.exps[0])
            row.starts = sorted(row.cands)
            first = 0
            if self._base is not None:
                base = self._base._row(q)
                first = len(self._base.lines)
                row.full_lines, row.full_segs = base.full_lines[:], base.full_segs[:]
            for li in row.starts[bisect_left(row.starts, first) :]:
                segs = find_all_full_in_line(lines, li, row.words, candidates=row.cands[li])
                if segs:
                    row.full_lines.append(li)
                    row.full_segs.append(segs)
        return row

    def _outcome(self, row: _Question, i: int) -> tuple[dict | None, int]:
        out = row.outcomes.get(i)
        if out is None:
            out = row.outcomes[i] = multiline_from(
                self.lines, i, row.words, row.exps, row.cands[i]
            )
        return out

    def _first(self, row: _Question) -> int:
        """The position in ``row.starts`` of the first start line whose
        outcome is a hit, ``len(row.starts)`` when none is."""
        if row.first is None:
            k = 0
            while k < len(row.starts) and self._outcome(row, row.starts[k])[0] is None:
                k += 1
            row.first = k
        return row.first

    def hits(self, q: str) -> list[Hit]:
        """Question ``q``'s hits on these lines: every same-line full
        match, then the multiline hit unless it starts where one of them
        does. Memoized per ``q``; callers must not mutate the result."""
        row = self._row(q)
        if row.hits is None:
            k = self._first(row)
            hit = self._outcome(row, row.starts[k])[0] if k < len(row.starts) else None
            row.hits = _collect(row.full_segs, hit)
        return row.hits

    def window_hits(self, q: str, a: int, b: int) -> list[Hit]:
        """Question ``q``'s hits on the line run ``[a, b)``, a band that
        splits no line group (:meth:`band`): :meth:`hits` of the run's
        own index."""
        row = self._row(q)
        if not row.words:
            return []
        lo, hi = bisect_left(row.full_lines, a), bisect_left(row.full_lines, b)
        return _collect(row.full_segs[lo:hi], self.window_multiline(q, a, b))

    def window_multiline(self, q: str, a: int, b: int) -> dict | None:
        """:func:`try_multiline` on the line run ``[a, b)``: the first
        start line in the run, at or past the page's first hit, whose
        page outcome is a hit that read no line group at or past ``b``."""
        row = self._row(q)
        starts = row.starts
        for k in range(max(self._first(row), bisect_left(starts, a)), len(starts)):
            i = starts[k]
            if i >= b:
                break
            hit, last = self._outcome(row, i)
            if hit is not None and last < b:
                return hit
        return None

    def band(self, y1: int, y2: int) -> "_LineWindow | None":
        """The crop ``[y1, y2)`` as a window of this index's lines, or
        ``None`` when a line has words on both sides of ``y1`` or
        ``y2``. Only lines whose words span several ``y`` can, so only
        those are checked.

        With every line wholly inside or wholly outside the band, the
        lines inside are those whose ``y`` lies in ``[y1, y2)``: a
        contiguous run ``a..b-1`` of the y-sorted lines. They keep
        their keys, words, word order and ``y``, and the line order
        keeps their relative order, so the run equals
        :meth:`PageModel.band` of the page."""
        if self._tall is None:
            self._tall = []
            ys, starts = self.lines.y, self.lines.starts
            for i in range(len(self.lines)):
                s, e = starts[i], starts[i + 1]
                if e - s > 1:
                    lo, hi = min(ys[s:e]), max(ys[s:e])
                    if lo != hi:
                        self._tall.append((lo, hi))
        for lo, hi in self._tall:
            if lo < y1 <= hi or lo < y2 <= hi:
                return None
        line_ys = self.lines.ys
        return _LineWindow(self, bisect_left(line_ys, y1), bisect_left(line_ys, y2))


class _LineWindow:
    """The line run ``[a, b)`` of a :class:`PageIndex`, matched from the
    page's question table."""

    __slots__ = ("page", "a", "b")

    def __init__(self, page: PageIndex, a: int, b: int):
        self.page, self.a, self.b = page, a, b

    def hits(self, q: str) -> list[Hit]:
        """Question ``q``'s hits on the run's lines."""
        return self.page.window_hits(q, self.a, self.b)


class _Question:
    """One question's row of a page's question table."""

    __slots__ = (
        "words", "exps", "cands", "starts", "full_lines", "full_segs", "outcomes", "first", "hits",
    )

    def __init__(self, words: list[str]):
        self.words = words
        self.exps = [expected(w) for w in words]
        self.cands: dict[int, list[int]] = {}
        # candidate start lines, ascending
        self.starts: list[int] = []
        # the lines with a same-line full match, ascending, and their matches
        self.full_lines: list[int] = []
        self.full_segs: list[list[dict]] = []
        # start line -> (multiline hit or None, last line group read)
        self.outcomes: dict[int, tuple[dict | None, int]] = {}
        # position in ``starts`` of the first multiline hit, once known
        self.first: int | None = None
        self.hits: list[Hit] | None = None


def _collect(line_segs: list[list[dict]], hit: dict | None) -> list[Hit]:
    """The hits of the full matches ``line_segs`` (line by line) and the
    multiline ``hit``, the first at each start ``(x, y)`` kept."""
    out: list[Hit] = []
    seen: set[tuple[int, int]] = set()
    for segs in line_segs:
        for seg in segs:
            key = (int(seg["start_x"]), int(seg["line_y"]))
            if key not in seen:
                seen.add(key)
                out.append({"x": key[0], "y": key[1], "segments": [seg]})
    if hit is not None:
        key = (int(hit["start"][0]), int(hit["start"][1]))
        if key not in seen:
            out.append({"x": key[0], "y": key[1], "segments": hit["segments"]})
    return out


class NextHead:
    """A page's lines followed by the first ``n_groups`` line groups
    of the next page, y-offset by the page height (reference
    ``extractor.py:331-375``, ``response_extractor.py:300-343``), with
    their :class:`PageIndex`. Both are built on first use, so a page
    reads its successor at most once, however many label and question
    cross-page passes read them. The head is cut from the next page's
    own lines and shifted (:meth:`Lines.extended`), and its index
    extends the page's."""

    __slots__ = ("_page", "_next", "_page_height", "_n_groups", "_lines", "_index")

    def __init__(
        self,
        page: PageModel | Iterable[Token],
        next_page: PageModel | Iterable[Token],
        page_height: int,
        n_groups: int = 5,
    ):
        self._page = as_page(page)
        self._next = as_page(next_page)
        self._page_height = page_height
        self._n_groups = n_groups
        self._lines: Lines | None = None
        self._index: PageIndex | None = None

    @property
    def lines(self) -> Lines:
        if self._lines is None:
            nxt = self._next.lines
            self._lines = self._page.lines.extended(
                nxt, nxt.head(self._n_groups), self._page_height
            )
        return self._lines

    @property
    def index(self) -> PageIndex:
        if self._index is None:
            self._index = PageIndex(self.lines, base=self._page.index)
        return self._index


def _best_span_in_line(
    lines: Lines, li: int, lbl_words: list[str], candidates: list[int] | None = None
) -> tuple[int | None, int]:
    """Reference ``response_extractor.py:365-397``."""
    exp_concat = expected(" ".join(lbl_words))
    exps = [expected(w) for w in lbl_words]
    norms = lines.norm
    if candidates is None:
        candidates = _candidate_starts(lines, li, exps[0])
    best_start = None
    best_matched_here = 0
    n = lines.starts[li + 1]
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
    lines: Lines, li: int, lbl_words: list[str], candidates: list[int] | None = None
) -> list[dict]:
    """All same-line full matches on line ``li``
    (reference ``response_extractor.py:399-445``)."""
    segments: list[dict] = []
    n = lines.starts[li + 1]
    if lines.starts[li] == n:
        return segments
    exp_concat = expected(" ".join(lbl_words))
    exps = [expected(w) for w in lbl_words]
    norms = lines.norm
    if candidates is None:
        candidates = _candidate_starts(lines, li, exps[0])
    for start_idx in candidates:
        tok0_clean = norms[start_idx]
        if exp_concat.startswith(tok0_clean):
            segments.append(_segment(lines, start_idx, start_idx + 1, len(lbl_words)))
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
            segments.append(_segment(lines, start_idx, start_idx + matched_here, matched_here))
    return segments


def _segment(lines: Lines, a: int, b: int, count: int) -> dict:
    """The segment of the words ``a..b-1`` of one line."""
    return {
        "line_y": int(min(lines.y[a:b])),
        "start_x": lines.x[a],
        "end_x": lines.x[b - 1] + lines.w[b - 1],
        "count": count,
        "tokens": lines.text[a:b],
    }


def multiline_from(
    lines: Lines,
    i: int,
    lbl_words_seq: list[str],
    exps_seq: list,
    candidates: list[int] | None = None,
) -> tuple[dict | None, int]:
    """The multiline question search from start line ``i``
    (reference ``response_extractor.py:450-570``), ``exps_seq`` the
    words' :func:`expected` and ``candidates`` the line's first-word
    candidates (scanned from the line when ``None``). Returns the hit
    ``{start, segments}`` or ``None``, and the first line of the last
    sibling y-group the search read (``i`` when it read none)."""
    starts, ys = lines.starts, lines.ys
    xs, norms = lines.x, lines.norm
    end = starts[i + 1]
    if starts[i] == end:
        return None, i
    best_start, matched_here = _best_span_in_line(lines, i, lbl_words_seq, candidates)
    if matched_here == 0:
        return None, i
    base_x_tolerance = LABEL_MULTILINE_BASE_X_TOLERANCE
    n_lbl = len(lbl_words_seq)
    n_lines = len(ys)
    start_x = xs[best_start]
    start_y = lines.y[best_start]
    x_ref = start_x
    curr_lbl_idx = matched_here
    curr_idx = i
    last_group = i
    matched_all = curr_lbl_idx == n_lbl
    lookahead_used = 0
    # the merged-phrase fast path counts words the line may not hold
    seg_end = min(best_start + matched_here, end)
    last_idx = min(best_start + max(0, matched_here - 1), end - 1)
    segments = [
        {
            "line_y": int(min(lines.y[best_start:seg_end])),
            "start_x": start_x,
            "end_x": xs[last_idx] + lines.w[last_idx],
            "count": matched_here,
            "tokens": lines.text[best_start:seg_end],
        }
    ]
    while not matched_all and lookahead_used < LABEL_MULTILINE_MAX_LOOKAHEAD:
        j = curr_idx + 1
        curr_y = ys[curr_idx]
        while j < n_lines and ys[j] <= curr_y:
            j += 1
        if j >= n_lines:
            break
        last_group = j
        next_y = ys[j]
        group_indices = []
        kidx = j
        while kidx < n_lines and ys[kidx] == next_y:
            group_indices.append(kidx)
            kidx += 1
        exp_next = exps_seq[curr_lbl_idx]
        best_overall = 0
        best_overall_idx = None
        best_overall_seg = None
        for li in group_indices:
            ls, le = starts[li], starts[li + 1]
            if ls == le:
                continue
            starters = _candidate_starts(lines, li, exp_next)
            candidate_indices = [
                idx for idx in starters if abs(xs[idx] - x_ref) <= base_x_tolerance
            ]
            if not candidate_indices:
                candidate_indices = starters
            if not candidate_indices:
                candidate_indices = [
                    idx
                    for idx in range(ls, le)
                    if abs(xs[idx] - x_ref) <= base_x_tolerance
                    and exp_next.contains(norms[idx])
                ]
            if not candidate_indices:
                continue
            best_line_match = 0
            best_line_seg = None
            for ci in candidate_indices:
                matched_in_line = 0
                k = ci
                while k < le and (curr_lbl_idx + matched_in_line) < n_lbl:
                    exp2 = exps_seq[curr_lbl_idx + matched_in_line]
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
        if best_overall == 0 or best_overall_idx is None or best_overall_seg is None:
            break
        a = best_overall_seg
        segments.append(_segment(lines, a, a + best_overall, best_overall))
        curr_lbl_idx += best_overall
        curr_idx = best_overall_idx
        lookahead_used += 1
        x_ref = xs[a]
        matched_all = curr_lbl_idx == n_lbl
    if matched_all:
        return {"start": (start_x, start_y), "segments": segments}, last_group
    return None, last_group


def try_multiline(
    lines: Lines,
    lbl_words_seq: list[str],
    cand_by_line: dict[int, list[int]] | None = None,
) -> dict | None:
    """Multiline question search over sibling y-groups: the hit of the
    first start line whose :func:`multiline_from` finds one.
    ``cand_by_line`` (from :class:`PageIndex`) restricts the start
    lines to those that can match the first expected word — lines
    without a candidate yield ``matched_here == 0`` in the reference
    loop and are skipped there too."""
    # resolve the per-word Expected objects once (the lookahead loop
    # probes them per token; the lru_cache lookup per probe adds up)
    exps_seq = [expected(w) for w in lbl_words_seq]
    if cand_by_line is None:
        starts: Any = range(len(lines))
    else:
        starts = sorted(cand_by_line)
    for i in starts:
        hit, _ = multiline_from(
            lines, i, lbl_words_seq, exps_seq,
            cand_by_line[i] if cand_by_line is not None else None,
        )
        if hit is not None:
            return hit
    return None


def match_questions_like_labels(
    tokens: PageModel | list[Token], questions: list[str]
) -> dict[str, list[Hit]]:
    """Reference ``response_extractor.py:238-612``. Returns, per unique
    question text with a hit, the list of match hits
    ``{x, y, segments}``."""
    index = as_page(tokens).index
    results: dict[str, list[Hit]] = {}
    for q in questions:
        hits = index.hits(q)
        if hits:
            results[q] = hits
    return results


def match_sections_and_questions(
    page: PageModel | list[Token],
    sections: list[dict],
    section_regions: dict[str, dict[str, int]],
    page_width: int = 2000,
    page_height: int = 3000,
    next_head: NextHead | None = None,
) -> list[dict[str, Any]]:
    """Reference ``match_sections_and_questions``
    (``response_extractor.py:618-790``), regions-provided path (the
    extractor always passes ``section_regions``).

    ``page`` is the page's :class:`~.lines.PageModel` (or its token
    list); ``next_head`` (built over the page) enables the cross-page
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

    page = as_page(page)
    page_index = page.index
    # A band crop is a window of the page's lines, matched from the
    # page's question table, unless a line straddles a band edge; only
    # then are the band's words regrouped.
    crops: dict[tuple[int, int], PageIndex | _LineWindow] = {}

    def crop(y1c: int, y2c: int) -> PageIndex | _LineWindow:
        view = crops.get((y1c, y2c))
        if view is None:
            view = page_index.band(y1c, y2c)
            if view is None:
                view = PageIndex(page.band(y1c, y2c))
            crops[(y1c, y2c)] = view
        return view

    out: list[dict[str, Any]] = []
    for sec in sections:
        sec_name = sec["section_name"]
        qs = sec.get("questions") or []
        if not qs:
            continue
        yband = bands.get(sec_name)
        sec_anchor_y = anchors.get(sec_name)
        min_start_y = (
            int(sec_anchor_y) + ANCHOR_OFFSET_PX
            if isinstance(sec_anchor_y, (int, float))
            else None
        )

        def in_band(hits: list[Hit]) -> list[Hit]:
            y1, y2 = yband
            return [
                h
                for h in hits
                if y1 <= h["y"] <= y2 and (min_start_y is None or h["y"] >= min_start_y)
            ]

        def section_hits(q: str) -> list[Hit]:
            """``q``'s hits for this section, in (y, x) order."""
            hits = page_index.hits(q)
            if yband:
                hits = in_band(hits)
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
                    return [
                        bh
                        for bh in crop(y1c, y2c_local).hits(q)
                        if min_start_y is None or bh["y"] >= min_start_y
                    ]

                hits = try_crop(y2c_primary)
                if not hits and section_regions and sec_name in anchors:
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
                            hits = try_crop(y2c_wide)
            # Cross-page fallback (response_extractor.py:751-766).
            if not hits and next_head is not None:
                hits = next_head.index.hits(q)
                if yband:
                    hits = in_band(hits)
            return sorted(hits, key=lambda h: (h["y"], h["x"]))

        # A question listed k times claims its k first hits
        # (D4, response_extractor.py:770-782); its hits are read once.
        ranked: dict[str, list[Hit]] = {}
        claimed_by_q: dict[str, set[tuple[int, int]]] = {}
        sec_hits: list[dict[str, Any]] = []
        for q in qs:
            hits = ranked.get(q)
            if hits is None:
                hits = ranked[q] = section_hits(q)
            claimed = claimed_by_q.setdefault(q, set())
            for chosen in hits:
                key = (chosen["x"], chosen["y"])
                if key in claimed:
                    continue
                claimed.add(key)
                sec_hits.append(
                    {
                        "question": q,
                        "position": [key[0], key[1]],
                        "segments": chosen["segments"],
                        "skipped": None,
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
