"""Text normalization + IL1-flexible matching kernels.

Semantics mirror the reference parser's normalizers and comparators
(operators M4-M8 in SURVEY.md §2.2):

* :func:`normalize_text` — label-side normalizer, reference
  ``extractor.py:218-225``: NFKD → drop control chars → drop ``/``,
  space, ``-`` → strip non-alpha edges → upper.
* :func:`clean_label_sequence` — reference ``extractor.py:227-233``.
* :func:`ocr_norm` — OCR-side normalizer made symmetric with the
  expected side (reference ``response_extractor.py:348-363``,
  ``extractor.py:600-606``).
* :func:`letters_only` — short-header cleaner, reference
  ``extractor.py:593-596`` / ``response_extractor.py:185-187``
  (keeps ``isalpha()`` only, case preserved).
* :class:`Expected` — precompiled expected-side pattern implementing the
  IL1-flex comparators (reference ``extractor.py:236-269``,
  ``extractor.py:736-761``, ``response_extractor.py:47-100``): every
  ``I`` in the uppercased expected string accepts ``I/L/l/1`` in the
  candidate; all other characters compare case-insensitively.

The reference implements the comparators as per-character Python loops;
here each expected string compiles once to a regex (cached), which makes
``contains`` a C-level scan — the hot inner loop of label/question
matching at scale.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from itertools import accumulate

_EDGE_LEAD = re.compile(r"^[^a-zA-Z]+")
_EDGE_TRAIL = re.compile(r"[^a-zA-Z]+$")


@lru_cache(maxsize=65536)
def _drop_control(text: str) -> str:
    """NFKD-normalize and remove Unicode control-category characters."""
    t = unicodedata.normalize("NFKD", text)
    return "".join(c for c in t if unicodedata.category(c)[0] != "C")


@lru_cache(maxsize=65536)
def normalize_text(text: str) -> str:
    """Label-side normalizer (reference ``extractor.py:218-225``)."""
    t = _drop_control(text)
    t = t.replace("/", "").replace(" ", "").replace("-", "")
    t = _EDGE_LEAD.sub("", t)
    t = _EDGE_TRAIL.sub("", t)
    return t.upper()


def clean_label_sequence(seq: list[str]) -> str:
    """Join normalized tokens (reference ``extractor.py:227-233``)."""
    joined = "".join(normalize_text(s) for s in seq)
    joined = _drop_control(joined)
    return joined.replace(" ", "")


def clean_question_sequence(seq: list[str]) -> str:
    """Question-side concatenation that preserves punctuation
    (reference ``response_extractor.py:254-260``)."""
    joined = _drop_control(" ".join(seq))
    return joined.replace(" ", "")


@lru_cache(maxsize=65536)
def ocr_norm(text: str) -> str:
    """OCR-side normalizer, symmetric with the expected side
    (reference ``response_extractor.py:348-363``)."""
    t = _drop_control(text)
    t = t.replace("/", "").replace(" ", "").replace("-", "")
    return t.upper()


@lru_cache(maxsize=65536)
def letters_only(text: str) -> str:
    """Keep ``isalpha()`` characters only, case preserved
    (reference ``extractor.py:593-596``)."""
    t = unicodedata.normalize("NFKD", text)
    return "".join(c for c in t if c.isalpha())


def letters_only_upper(text: str) -> str:
    """Reference ``response_extractor.py:136-138``."""
    return letters_only(text).upper()


class Expected:
    """A precompiled expected-side string with IL1-flex semantics.

    ``expected_s`` is the normalized uppercased expected string; every
    position holding ``I`` accepts ``I``, ``L``, ``l`` or ``1`` in the
    candidate (reference ``_build_expected_masked_upper`` +
    ``flex_equal/contains/startswith``, ``response_extractor.py:47-100``).
    Letters elsewhere compare case-insensitively; digits/punctuation
    compare exactly — identical to the reference's
    ``e != c.upper()`` per-character rule.
    """

    __slots__ = ("expected_s", "i_mask", "_full", "_search", "_prefix", "_pat_src", "_nl_prefix")

    def __init__(self, text: str):
        t = _drop_control(text)
        t = t.replace("/", "").replace(" ", "").replace("-", "")
        t = t.upper()
        self.expected_s = t
        self.i_mask = frozenset(i for i, ch in enumerate(t) if ch == "I")
        parts: list[str] = []
        for ch in t:
            if ch == "I":
                parts.append("[IL1l]")
            elif ch.isalpha():
                low = ch.lower()
                if low != ch:
                    parts.append(f"[{re.escape(ch)}{re.escape(low)}]")
                else:
                    parts.append(re.escape(ch))
            else:
                parts.append(re.escape(ch))
        pat = "".join(parts)
        self._pat_src = pat
        self._full = re.compile(pat + r"\Z")
        self._search = re.compile(pat)
        self._prefix = re.compile(pat)
        self._nl_prefix = None

    def equal(self, candidate: str) -> bool:
        """``flex_equal`` (reference ``response_extractor.py:65-76``)."""
        if len(candidate) != len(self.expected_s):
            return False
        return self._full.match(candidate) is not None

    def contains(self, haystack: str) -> bool:
        """``flex_contains`` (reference ``response_extractor.py:79-86``)."""
        if not self.expected_s:
            return True
        return self._search.search(haystack) is not None

    def startswith(self, haystack: str) -> bool:
        """``flex_startswith`` (reference ``response_extractor.py:89-100``)."""
        if not self.expected_s:
            return True
        return self._prefix.match(haystack) is not None

    def prefix_positions(self, blob: str, start: int = 0, end: int | None = None) -> list[int]:
        """Char positions in a ``"\\n" + "\\n".join(tokens)`` blob where a
        token whose leading ``\\n`` lies in ``[start, end)`` and which
        ends by ``end`` (a token boundary) *starts with* this expected
        string — one C-level regex scan replacing a
        per-token Python ``startswith`` loop. Patterns cannot cross
        token boundaries (``\\n`` matches no pattern class), so each hit
        is a token-start prefix match, exactly the set of candidate
        starts the matchers consider. The pattern consumes the token's
        leading ``\\n``, a literal prefix the regex engine seeks fast,
        and each hit is one past it."""
        if self._nl_prefix is None:
            self._nl_prefix = re.compile("\n" + self._pat_src)
        if end is None:
            end = len(blob)
        return [m.start() + 1 for m in self._nl_prefix.finditer(blob, start, end)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Expected({self.expected_s!r})"


def token_blob(tokens: list[str], start: int = 0) -> tuple[str, list[int]]:
    """The blob ``"\\n" + "\\n".join(tokens)`` that the C-level scans
    (:meth:`Expected.prefix_positions`, ``str.find``) search, and where
    each token begins in it, one past its ``\\n``, with the blob placed
    at ``start``."""
    if not tokens:
        return "", []
    offsets = list(accumulate([len(t) + 1 for t in tokens[:-1]], initial=start + 1))
    return "\n" + "\n".join(tokens), offsets


@lru_cache(maxsize=65536)
def expected(text: str) -> Expected:
    """Cached constructor — one compiled pattern per configured word."""
    return Expected(text)
