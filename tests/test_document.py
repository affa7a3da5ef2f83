"""End-to-end per-document fold tests: golden span-sequence equality
(the engine's core invariant — BASELINE.json: span-sequence equality on
(kind, text, media_ref, order)) plus targeted fold-state cases."""

import contextlib
import json
import os

from conftest import make_tokens

from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
from pdf_parser_ray.kernels.document import (
    classify_form_type,
    decode_spans,
    extract_document,
    flatten_to_spans,
)
from pdf_parser_ray.stages.parse import extract_spans

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden_spans.json")


class TestGolden:
    def test_span_sequence_equality(self):
        with open(GOLDEN) as f:
            golden = json.load(f)
        for doc_id, expected in golden.items():
            spans = gen_document(doc_id, 42)
            out = extract_spans(doc_id, spans, DEFAULT_CONFIG)
            got = [[s["kind"], s["text"], s["media_ref"], s["offset"]] for s in out]
            assert got == expected, f"span mismatch for {doc_id}"


class TestDecode:
    def test_roundtrip_geometry(self):
        spans = gen_document("doc-00000000", 42)
        pages = decode_spans("doc-00000000", spans)
        assert pages[0]["width"] == 2000 and pages[0]["height"] == 3000
        assert all(t["text"] for t in pages[0]["tokens"])

    def test_classifier(self):
        spans = gen_document("doc-00000001", 42)  # seeded male
        pages = decode_spans("doc-00000001", spans)
        assert classify_form_type(pages) in ("male", "female")
        # explicit marker
        pages = [{"page": 1, "width": 2000, "height": 3000, "highlights": [],
                  "ticked": [], "empty": [],
                  "tokens": make_tokens([(["Male", "Patient", "Information"], 600, 40)])}]
        assert classify_form_type(pages) == "male"
        pages[0]["tokens"] = make_tokens([(["Female", "Patient", "Information"], 600, 40)])
        assert classify_form_type(pages) == "female"
        pages[0]["tokens"] = []
        assert classify_form_type(pages) == "female"


class TestFoldState:
    def test_label_found_once_not_searched_again(self):
        """A label found in-region on page 1 is not re-reported from
        page 2 (remaining-label bookkeeping, extractor.py:1034-1053)."""
        sections = [{"section_name": "MEDICAL HISTORY", "labels": ["Diabetes"]}]
        page = {
            "page": 1, "width": 2000, "height": 3000, "highlights": [],
            "ticked": [{"x": 90, "y": 396, "w": 37, "h": 37, "score": 0.9,
                        "status": "ticked", "ref": "m://1"}],
            "empty": [],
            "tokens": make_tokens(
                [(["MEDICAL", "HISTORY"], 50, 300), (["Diabetes"], 150, 400)]
            ),
        }
        page2 = dict(page, page=2, ticked=[
            {"x": 90, "y": 396, "w": 37, "h": 37, "score": 0.9,
             "status": "ticked", "ref": "m://2"}])
        out = extract_document([page, page2], sections)
        p1 = out["pages"][0]["sections"]
        p2 = out["pages"][1]["sections"]
        assert p1[0]["checkboxes"][0]["status"] == "ticked"
        assert p2 == []  # section complete → not searched on page 2

    def test_duplicate_questions_span_pages(self):
        """Remaining-question bookkeeping: a duplicate question matched
        once on page 1 leaves one occurrence for page 2."""
        sections = [{"section_name": "FAMILY HISTORY",
                     "questions": ["Medical Conditions"] * 2}]
        mk = lambda: {"page": 1, "width": 2000, "height": 3000,
                      "highlights": [], "ticked": [], "empty": []}
        p1 = dict(mk(), tokens=make_tokens(
            [(["FAMILY", "HISTORY"], 50, 300), (["Medical", "Conditions"], 150, 400)]))
        p2 = dict(mk(), page=2, tokens=make_tokens(
            [(["FAMILY", "HISTORY"], 50, 300), (["Medical", "Conditions"], 150, 400)]))
        out = extract_document([p1, p2], sections)
        r1 = out["pages"][0]["responses"]
        r2 = out["pages"][1]["responses"]
        assert len(r1[0]["questions"]) == 1
        assert len(r2[0]["questions"]) == 1

    def test_flatten_offsets_sequential(self):
        spans = gen_document("doc-00000003", 42)
        out = extract_spans("doc-00000003", spans, DEFAULT_CONFIG)
        assert [s["offset"] for s in out] == list(range(len(out)))

    def test_flatten_prunes_missing(self):
        structured = {"pages": [{"page_number": 1, "sections": [
            {"section": "S", "checkboxes": [
                {"label": "A", "status": "ticked", "ref": "m://1"},
                {"label": "B", "status": "missing", "ref": ""},
            ]}], "responses": []}]}
        spans = flatten_to_spans(structured)
        assert [s["text"] for s in spans] == ["S", "A=ticked"]


class TestGiantDoc:
    def test_giant_doc_multi_page_fold(self):
        """doc-00000041 draws the 'giant' knob (7 pages, section list
        repeated ×6). The fold must stay bounded: once every configured
        label/question is satisfied, later repeats are not searched and
        produce no output (remaining-state bookkeeping,
        extractor.py:998-1014/1065-1087) — so output size matches a
        normal document's, not the input's."""
        spans = gen_document("doc-00000041", 42)
        n_pages = sum(1 for s in spans if s["kind"] == "page")
        assert n_pages >= 5
        out = extract_spans("doc-00000041", spans, DEFAULT_CONFIG)
        assert 20 <= len(out) <= 60
        assert [s["offset"] for s in out] == list(range(len(out)))


class TestEarlyStop:
    def test_fold_stops_once_nothing_is_open(self):
        """Labels and questions all resolve on page 1: the later pages
        get empty records without being read, as the full page loop
        gives them."""
        from unittest import mock

        from pdf_parser_ray.kernels import document

        sections = [{"section_name": "MEDICAL HISTORY", "labels": ["Diabetes"],
                     "questions": ["Last Name"]}]

        def pages():
            return [
                {"page": n, "width": 2000, "height": 3000, "highlights": [], "empty": [],
                 "ticked": [{"x": 90, "y": 396, "w": 37, "h": 37, "score": 0.9,
                             "status": "ticked", "ref": f"m://{n}"}],
                 "tokens": make_tokens([(["MEDICAL", "HISTORY"], 50, 300),
                                        (["Diabetes"], 150, 400), (["Last", "Name"], 600, 420),
                                        (["Smith"], 600, 465)])}
                for n in (1, 2, 3, 4)
            ]

        def run():
            calls = []
            orig = document.detect_section_regions

            def counting(*args, **kwargs):
                calls.append(1)
                return orig(*args, **kwargs)

            with mock.patch.object(document, "detect_section_regions", counting):
                return extract_document(pages(), sections), len(calls)

        stopped, n_stopped = run()
        with mock.patch.object(document.FoldState, "done", lambda self, n: False):
            full, n_full = run()
        assert stopped == full
        assert (n_stopped, n_full) == (1, 4)
        first = stopped["pages"][0]
        assert first["sections"] and first["responses"]
        assert [p["page_number"] for p in stopped["pages"]] == [1, 2, 3, 4]


class TestTracedNames:
    def test_traced_layer_names_are_called(self):
        """perfbench's traced run replaces these module attributes with
        timing wrappers and divides by the pages ``decode_spans``
        returns: each must still be called through its module name."""
        from unittest import mock

        import pyarrow as pa

        from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA
        from pdf_parser_ray.kernels import document
        from pdf_parser_ray.stages import parse

        names = [
            (parse, "decode_spans"), (parse, "classify_form_type"),
            (parse, "extract_document"), (parse, "flatten_to_spans"),
            (document, "get_label_positions"), (document, "detect_section_regions"),
            (document, "assign_checkboxes_sectionwise"),
            (document, "match_sections_and_questions"), (document, "augment_answers"),
        ]
        ids = [f"doc-{i:08d}" for i in range(6)]
        batch = pa.Table.from_pydict(
            {"doc_id": ids, "spans": [gen_document(d, 42) for d in ids]}, schema=DOCUMENT_SCHEMA
        )
        bare = parse.DocumentExtractor()(batch)
        calls = {name: 0 for _, name in names}
        pages = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if name == "decode_spans":
                    pages.append(len(out))
                return out
            return wrapper

        with contextlib.ExitStack() as stack:
            for mod, name in names:
                stack.enter_context(
                    mock.patch.object(mod, name, counting(name, getattr(mod, name)))
                )
            traced = parse.DocumentExtractor()(batch)
        assert all(calls.values()), calls
        assert sum(pages) > 0
        assert traced.equals(bare)
