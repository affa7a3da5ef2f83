"""OCR words as page columns: lines and reading order (operator M3 +
O5 in SURVEY.md §2).

The reference builds "lines" — tokens grouped by
``(block_num, par_num, line_num)``, words sorted by x, lines sorted by
y — in five near-identical clones (``extractor.py:304-322`` /
``546-567``, ``response_extractor.py:103-133`` / ``262-291`` /
``879-898``). Here a page's lines are built once, as columns, and
every fold phase indexes them.

The line rule: blank words (empty after ``str.strip``) are skipped;
a line is one ``(block, par, line)`` key; its ``y`` is the y of its
first-emitted word; lines are ordered by ``(y, first word's position)``
and the words of a line by ``(x, position)``. Reading order is all of
the page's words by ``(y, x, position)``.

:class:`Lines` holds words in line order as parallel columns (stripped
text, x, y, w, h), the line bounds and each line's ``y``; word ``k``
of line ``i`` is ``starts[i] + k``, and kernels address words by that
page index. :class:`PageModel` adds the page's emission and reading
orders. The parse stage builds every page's columns for a whole batch
in one numpy pass (``stages.parse``); token dicts (the span-by-span
decode, callers' token lists) go through :meth:`PageModel.__init__`,
which applies the same rules in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from .normalize import normalize_text, ocr_norm, token_blob

if TYPE_CHECKING:
    from .questions import PageIndex

Token = dict[str, Any]


class Lines:
    """Words in line order as parallel columns: stripped ``text``,
    ``x``, ``y``, ``w``, ``h``; line ``i`` holds the words
    ``starts[i]:starts[i + 1]`` and has y ``ys[i]`` (ascending).
    ``norm`` (:func:`ocr_norm` of each word), ``lnorm``
    (:func:`normalize_text`) and the candidate ``blob`` over ``norm``
    are built on first use."""

    __slots__ = ("text", "x", "y", "w", "h", "starts", "ys", "_norm", "_lnorm", "_blob")

    def __init__(self, text, x, y, w, h, starts, ys, norm=None):
        self.text: list[str] = text
        self.x: list[int] = x
        self.y: list[int] = y
        self.w: list[int] = w
        self.h: list[int] = h
        self.starts: list[int] = starts
        self.ys: list[int] = ys
        self._norm: list[str] | None = norm
        self._lnorm: list[str] | None = None
        self._blob: tuple[str, list[int]] | None = None

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def norm(self) -> list[str]:
        if self._norm is None:
            self._norm = list(map(ocr_norm, self.text))
        return self._norm

    @property
    def lnorm(self) -> list[str]:
        if self._lnorm is None:
            self._lnorm = list(map(normalize_text, self.text))
        return self._lnorm

    @property
    def blob(self) -> tuple[str, list[int]]:
        """``"\\n" + "\\n".join(norm)`` and where each word begins in
        it, one past its ``\\n`` (:func:`~.normalize.token_blob`)."""
        if self._blob is None:
            self._blob = token_blob(self.norm)
        return self._blob

    def head(self, n_groups: int) -> int:
        """How many leading lines the first ``n_groups`` distinct-y
        line groups hold (reference ``extractor.py:362-373``,
        ``response_extractor.py:332-343``: consecutive lines sharing
        one y count as one group)."""
        ys = self.ys
        i = groups = 0
        n = max(0, int(n_groups))
        while i < len(ys) and groups < n:
            y = ys[i]
            while i < len(ys) and ys[i] == y:
                i += 1
            groups += 1
        return i

    def extended(self, other: "Lines", n_lines: int, dy: int) -> "Lines":
        """These lines followed by ``other``'s first ``n_lines`` lines
        moved down by ``dy`` (the next page's head below this page).
        The grouping keys, the word order and the line order do not
        change under a common shift, so only ``y`` moves."""
        e = other.starts[n_lines]
        base = self.starts[-1]
        dy = int(dy)
        out = Lines(
            self.text + other.text[:e],
            self.x + other.x[:e],
            self.y + [v + dy for v in other.y[:e]],
            self.w + other.w[:e],
            self.h + other.h[:e],
            self.starts + [s + base for s in other.starts[1 : n_lines + 1]],
            self.ys + [v + dy for v in other.ys[:n_lines]],
            norm=self.norm + other.norm[:e],
        )
        if self._blob is not None:
            blob, offs = self._blob
            tail, tail_offs = token_blob(out.norm[base:], len(blob))
            out._blob = (blob + tail, offs + tail_offs)
        return out

    def line_words(self, i: int) -> range:
        return range(self.starts[i], self.starts[i + 1])


class PageModel:
    """One page's words: its :class:`Lines`, ``emit`` (the line-order
    index of each non-blank word, in emission order), ``yx`` (the same
    indices in reading order), and for the form classifier ``raw``
    (every word's text as emitted, blank ones included) with ``order``
    (the positions in ``raw`` in reading order). The candidate
    :class:`~.questions.PageIndex` over the lines is built on first
    use.

    ``PageModel(tokens)`` builds the columns from token dicts
    ``{text, x, y, w, h, block, par, line}`` in emission order
    (missing fields read as 0); ``tokens`` keeps that list."""

    __slots__ = ("lines", "emit", "yx", "raw", "order", "tokens", "_index")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self._index = None
        raw = [t.get("text") or "" for t in tokens]
        keys = [(t.get("block", 0), t.get("par", 0), t.get("line", 0)) for t in tokens]
        cols = [[int(t.get(f, 0)) for t in tokens] for f in ("x", "y", "w", "h")]
        self.lines, self.emit, self.yx, self.raw, self.order = _build(raw, keys, *cols)

    @classmethod
    def of(cls, lines: Lines, emit, yx, raw, order) -> "PageModel":
        """A model from columns built elsewhere."""
        self = cls.__new__(cls)
        self.lines, self.emit, self.yx, self.raw, self.order = lines, emit, yx, raw, order
        self.tokens = None
        self._index = None
        return self

    @property
    def index(self) -> "PageIndex":
        if self._index is None:
            from .questions import PageIndex

            self._index = PageIndex(self.lines)
        return self._index

    def band(self, y1: int, y2: int) -> Lines:
        """The lines of the page's words whose y lies in ``[y1, y2)``,
        grouped afresh: what OCR of the band crop would group. Each
        page line is one grouping key, so the band keeps the page's
        line keys."""
        lines, emit = self.lines, self.emit
        line_of = [0] * len(lines.text)
        for i in range(len(lines)):
            for k in lines.line_words(i):
                line_of[k] = i
        ks = [k for k in emit if y1 <= lines.y[k] < y2]
        return _build(
            [lines.text[k] for k in ks], [line_of[k] for k in ks],
            *([col[k] for k in ks] for col in (lines.x, lines.y, lines.w, lines.h)),
        )[0]


def as_page(page: PageModel | Iterable[Token]) -> PageModel:
    """``page`` itself, or the model of a token list."""
    return page if isinstance(page, PageModel) else PageModel(list(page))


def _build(raw, keys, xs, ys, ws, hs) -> tuple[Lines, list[int], list[int], list[str], list[int]]:
    """The line and reading-order rules (module docstring) over words
    in emission order: a page's lines, ``emit``, ``yx``, ``raw`` and
    ``order`` (:class:`PageModel`)."""
    text = [r.strip() for r in raw]
    first: dict = {}  # key -> position of its first non-blank word
    for i, (t, k) in enumerate(zip(text, keys)):
        if t and k not in first:
            first[k] = i
    nb = [i for i, t in enumerate(text) if t]
    line_first = {i: first[keys[i]] for i in nb}
    by_line = sorted(nb, key=lambda i: (ys[line_first[i]], line_first[i], xs[i], i))
    starts: list[int] = []
    lys: list[int] = []
    prev = None
    for j, i in enumerate(by_line):
        f = line_first[i]
        if f != prev:
            starts.append(j)
            lys.append(ys[f])
            prev = f
    starts.append(len(by_line))
    rank = [-1] * len(text)
    for j, i in enumerate(by_line):
        rank[i] = j
    order = sorted(range(len(text)), key=lambda i: (ys[i], xs[i], i))
    lines = Lines(
        [text[i] for i in by_line],
        *([col[i] for i in by_line] for col in (xs, ys, ws, hs)),
        starts,
        lys,
    )
    return lines, [rank[i] for i in nb], [rank[i] for i in order if rank[i] >= 0], raw, order
