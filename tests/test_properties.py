"""Property-based equivalence tests (hypothesis).

The engine's IL1-flex comparators are compiled regexes and the
candidate scans are page-blob regex sweeps — both optimizations over
the reference's per-character / per-token Python loops. These tests
pit them against straight-line transcriptions of the reference loops
(``response_extractor.py:47-100``) on arbitrary inputs, so any
divergence in the optimized kernels is a bug by construction.
"""

from __future__ import annotations

import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_parser_ray.kernels.normalize import expected, normalize_text, ocr_norm
from pdf_parser_ray.kernels.questions import _candidate_starts
from pdf_parser_ray.kernels.lines import PageModel


# --- straight-line reference transcriptions ---------------------------------

def _ref_build_expected_masked_upper(text: str):
    """Reference response_extractor.py:47-62, verbatim logic."""
    t = unicodedata.normalize("NFKD", text)
    t = "".join(c for c in t if unicodedata.category(c)[0] != "C")
    t = t.replace("/", "").replace(" ", "").replace("-", "")
    t = t.upper()
    i_mask = set()
    for idx, ch in enumerate(t):
        if ch == "I":
            i_mask.add(idx)
    return t, i_mask


def _ref_flex_equal(expected_s: str, i_mask: set, candidate_s: str) -> bool:
    """Reference response_extractor.py:65-76, verbatim logic."""
    if len(expected_s) != len(candidate_s):
        return False
    for i, (e, c) in enumerate(zip(expected_s, candidate_s)):
        if i in i_mask and e == "I":
            if c not in ("I", "L", "l", "1"):
                return False
        else:
            if e != c.upper():
                return False
    return True


def _ref_flex_contains(expected_s: str, i_mask: set, haystack_s: str) -> bool:
    m, n = len(expected_s), len(haystack_s)
    if m == 0:
        return True
    for i in range(0, n - m + 1):
        if _ref_flex_equal(expected_s, i_mask, haystack_s[i : i + m]):
            return True
    return False


def _ref_flex_startswith(expected_s: str, i_mask: set, haystack_s: str) -> bool:
    m = len(expected_s)
    if m == 0:
        return True
    if len(haystack_s) < m:
        return False
    return _ref_flex_equal(expected_s, i_mask, haystack_s[:m])


# --- strategies -------------------------------------------------------------

# Word-ish text: letters incl. I/L/l/1 confusions, digits, light punct.
word_text = st.text(
    alphabet="ILl1iAaBbZz09/- .?:()é",
    min_size=0,
    max_size=12,
)


# --- properties -------------------------------------------------------------

class TestFlexEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(exp=word_text, cand=word_text)
    def test_equal_matches_reference(self, exp, cand):
        e_s, mask = _ref_build_expected_masked_upper(exp)
        # candidate side as the matchers feed it: ocr_norm or raw.
        for c in (cand, ocr_norm(cand), normalize_text(cand)):
            assert expected(exp).equal(c) == _ref_flex_equal(e_s, mask, c), (exp, c)

    @settings(max_examples=400, deadline=None)
    @given(exp=word_text, hay=word_text)
    def test_contains_matches_reference(self, exp, hay):
        e_s, mask = _ref_build_expected_masked_upper(exp)
        for h in (hay, ocr_norm(hay)):
            assert expected(exp).contains(h) == _ref_flex_contains(e_s, mask, h), (exp, h)

    @settings(max_examples=400, deadline=None)
    @given(exp=word_text, hay=word_text)
    def test_startswith_matches_reference(self, exp, hay):
        e_s, mask = _ref_build_expected_masked_upper(exp)
        for h in (hay, ocr_norm(hay)):
            assert expected(exp).startswith(h) == _ref_flex_startswith(e_s, mask, h), (exp, h)

    @settings(max_examples=200, deadline=None)
    @given(exp=word_text)
    def test_expected_s_matches_reference_normalization(self, exp):
        e_s, mask = _ref_build_expected_masked_upper(exp)
        obj = expected(exp)
        assert obj.expected_s == e_s
        assert set(obj.i_mask) == mask


class TestCandidateScanEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(word_text.filter(lambda s: s.strip()), min_size=1, max_size=8),
        first=word_text,
    )
    def test_candidates_equal_bruteforce(self, words, first):
        tokens = [
            {"text": w, "x": 10 + 50 * i, "y": 100, "w": 40, "h": 20,
             "block": 1, "par": 1, "line": 1}
            for i, w in enumerate(words)
        ]
        lines = PageModel(tokens).lines
        assert len(lines) == 1
        exp = expected(first)
        norms = lines.norm
        brute = [i for i in range(len(norms)) if exp.startswith(norms[i])]
        assert _candidate_starts(lines, 0, exp) == brute


class TestDocumentInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seed_i=st.integers(min_value=1000, max_value=99999))
    def test_extraction_invariants_on_arbitrary_docs(self, seed_i):
        """For any generated document: extraction never crashes,
        offsets are a 0..n-1 sequence, label spans carry a checkbox
        media id that exists in the input, answer media refs (when
        present) are highlight ids, and every output kind is legal."""
        from pdf_parser_ray.core.schema import OUTPUT_KINDS, media_id
        from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
        from pdf_parser_ray.stages.parse import extract_spans

        doc_id = f"doc-{seed_i:08d}"
        spans = gen_document(doc_id, 42)
        input_media = {media_id(s["media_ref"]) for s in spans if s["media_ref"]}
        out = extract_spans(doc_id, spans, DEFAULT_CONFIG)
        assert [s["offset"] for s in out] == list(range(len(out)))
        for s in out:
            assert s["kind"] in OUTPUT_KINDS
            if s["kind"] == "label":
                assert s["media_ref"] in input_media
                assert "=" in s["text"]
            if s["kind"] == "answer" and s["media_ref"]:
                assert "/hl-" in s["media_ref"]
                assert s["media_ref"] in input_media


class TestTokenizerInvariants:
    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=60))
    def test_greedy_scan_reconstructs_and_cache_is_transparent(self, text):
        """For ANY text: concatenated pieces reconstruct each word
        exactly (the greedy scan never drops or duplicates a char),
        ids obey the spec (bigram ids in vocab range, char ids =
        codepoints), and the actor's memo cache returns the same
        result on a repeat call (cache transparency — the property
        that guards the per-word memo against aliasing bugs)."""
        from pdf_parser_ray.stages.tokenize import (
            _BIGRAM_ID_BASE,
            BIGRAMS,
            TokenizerActor,
        )

        tok = TokenizerActor()
        for w in text.split():
            first = tok._word(w)
            again = tok._word(w)  # memoized path
            assert first == again
            assert "".join(p for _, p in first) == w
            for tid, piece in first:
                if len(piece) == 2:
                    assert tid == _BIGRAM_ID_BASE + BIGRAMS.index(piece)
                else:
                    assert tid == ord(piece)


class TestPartitionRouting:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.one_of(st.none(), st.text(max_size=12)), max_size=60),
        n_partitions=st.integers(min_value=1, max_value=64),
        split=st.integers(min_value=0, max_value=60),
    )
    def test_hash_once_per_key_equals_hash_bucket(self, keys, n_partitions, split):
        """The sink's routing hashes each distinct key once and takes
        the ids back out by dictionary index; for any keys (repeats and
        nulls included) and any chunking it must give ``hash_bucket``
        of every row."""
        import pyarrow as pa

        from pdf_parser_ray.core.util import hash_bucket
        from pdf_parser_ray.io.checkpoint import _partition_of

        want = [hash_bucket(k, n_partitions) for k in keys]
        keys = keys + keys[: len(keys) // 2]  # repeats across chunks
        want = want + want[: len(want) // 2]
        chunked = pa.chunked_array(
            [pa.array(keys[:split], pa.string()), pa.array(keys[split:], pa.string())]
        )
        for arr in (pa.array(keys, pa.string()), chunked):
            got = _partition_of(arr, n_partitions)
            assert got.type == pa.int32()
            assert got.to_pylist() == want
