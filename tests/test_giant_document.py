"""Giant documents and config variants on the one per-document fold.

Every case parses through ``DocumentExtractor(config)(table)``, the
Arrow batch decode the ``extract`` CLI runs, and must equal
``extract_spans`` over the same documents' span dicts. A giant
document is one row like any other: its pages fold in order, and the
fold stops reading once no label or question section is open."""

import contextlib
from unittest import mock

import pyarrow as pa
import pytest

from pdf_parser_ray.core.config import FormConfig
from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA, explode_spans
from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
from pdf_parser_ray.kernels import document
from pdf_parser_ray.kernels.document import classify_form_type, decode_spans
from pdf_parser_ray.stages.parse import DocumentExtractor, extract_spans

NEVER = "Zqxj Vwkp"  # a label and a question no synthesized page holds
VARIANT_IDS = [f"doc-{i:08d}" for i in range(12)]


@pytest.fixture(scope="module")
def thousand_pages():
    """One document of at least 1,000 pages: seeded documents
    concatenated until their page markers reach 1,000."""
    spans: list[dict] = []
    i = n_pages = 0
    while n_pages < 1000:
        doc = gen_document(f"doc-{i:08d}", 42)
        n_pages += sum(1 for s in doc if s["kind"] == "page")
        spans.extend(doc)
        i += 1
    return spans, n_pages


@contextlib.contextmanager
def _pages_read():
    """Counts the pages the fold reads (one section search per page)."""
    calls: list[int] = []
    search = document.detect_section_regions

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    with mock.patch.object(document, "detect_section_regions", counting):
        yield calls


def _fold(ids: list[str], span_lists: list[list[dict]], config: FormConfig) -> dict:
    """Each document's output spans; the batch parse of the Arrow table
    must equal ``extract_spans`` over the span dicts."""
    want = [extract_spans(d, s, config) for d, s in zip(ids, span_lists)]
    table = pa.Table.from_pydict({"doc_id": ids, "spans": span_lists}, schema=DOCUMENT_SCHEMA)
    assert DocumentExtractor(config)(table).equals(explode_spans(ids, want))
    return dict(zip(ids, want))


def _never_done(config: FormConfig) -> FormConfig:
    """``config`` with a label that is never found added to every label
    section and a question that is never found to every question
    section, in the base sections and every variant: no section ever
    closes, so the fold reads every page."""

    def widen(sections) -> list[dict]:
        out = []
        for sec in sections:
            sec = dict(sec)
            for key in ("labels", "questions"):
                if sec.get(key):
                    sec[key] = [*sec[key], NEVER]
            out.append(sec)
        return out

    return FormConfig.from_sections(
        widen(config.sections), {k: widen(v) for k, v in config.variants.items()}
    )


class TestGiantDocument:
    def test_thousand_page_document(self, thousand_pages):
        spans, n_pages = thousand_pages
        with _pages_read() as read:
            out = _fold(["bigdoc"], [spans], DEFAULT_CONFIG)["bigdoc"]
        assert out and [s["offset"] for s in out] == list(range(len(out)))
        pages = len(read) // 2  # two folds: the batch parse, extract_spans
        assert 0 < pages < n_pages

    def test_thousand_page_document_read_to_the_end(self, thousand_pages):
        spans, n_pages = thousand_pages
        config = _never_done(DEFAULT_CONFIG)
        with _pages_read() as read:
            out = _fold(["bigdoc"], [spans], config)["bigdoc"]
        assert len(read) == 2 * n_pages
        assert out and NEVER not in {s["text"] for s in out}

    def test_mixed_mega_document(self):
        # a giant (sections repeated) and normal documents in one: the
        # label and question sections close at staggered pages
        spans = []
        for did in ["doc-00000041", "doc-00000007", "doc-00000116", "doc-00000002"]:
            spans.extend(gen_document(did, 42))
        assert _fold(["mega"], [spans], DEFAULT_CONFIG)["mega"]


class TestVariantSelection:
    """Page 1's classified form type picks the config variant; a type
    without a variant falls back to the base sections."""

    @pytest.fixture(scope="class")
    def corpus(self):
        spans = [gen_document(d, 42) for d in VARIANT_IDS]
        forms = {d: classify_form_type(decode_spans(d, s)) for d, s in zip(VARIANT_IDS, spans)}
        assert set(forms.values()) == {"female", "male"}, "need both form types"
        return spans, forms

    @staticmethod
    def _female_without_first_lifestyle_question() -> tuple[list[dict], str]:
        female = DEFAULT_CONFIG.select("female")
        (lifestyle,) = [s for s in female if s["section_name"] == "LIFESTYLE"]
        dropped, *kept = lifestyle["questions"]
        assert dropped not in kept
        lifestyle["questions"] = kept
        return female, dropped

    def test_question_dropped_from_one_variant(self, corpus):
        spans, forms = corpus
        female, dropped = self._female_without_first_lifestyle_question()
        config = FormConfig.from_sections(
            list(DEFAULT_CONFIG.sections),
            {"female": female, "male": DEFAULT_CONFIG.select("male")},
        )
        got = _fold(VARIANT_IDS, spans, config)
        base = _fold(VARIANT_IDS, spans, DEFAULT_CONFIG)
        changed = 0
        for d, form in forms.items():
            if form == "male":
                assert got[d] == base[d], d
            else:
                assert ("question", dropped) not in {(s["kind"], s["text"]) for s in got[d]}, d
                changed += got[d] != base[d]
        assert changed

    def test_type_without_variant_uses_base_sections(self, corpus):
        # DEFAULT_CONFIG's female sections equal its base sections, so
        # the female variant here drops a question: a male document
        # folded under it would differ from the base output
        spans, forms = corpus
        female, _ = self._female_without_first_lifestyle_question()
        female_only = FormConfig.from_sections(list(DEFAULT_CONFIG.sections), {"female": female})
        got = _fold(VARIANT_IDS, spans, female_only)
        base = _fold(VARIANT_IDS, spans, FormConfig.from_sections(DEFAULT_CONFIG.sections))
        males = [d for d, form in forms.items() if form == "male"]
        assert all(got[d] == base[d] for d in males)
        assert any(got[d] != base[d] for d in forms if d not in males)
