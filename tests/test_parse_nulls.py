"""Null handling in the parse stage's input: a null ``spans`` list and a
null span element fail the document (``TypeError``) in strict mode and
become its one ``error`` span under quarantine; a span with a null
``kind`` is an unknown kind and decodes to nothing. The rest of the
batch is unaffected either way."""

import pyarrow as pa
import pytest

from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA
from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
from pdf_parser_ray.stages.parse import DocumentExtractor

GOOD_IDS = ["doc-00000000", "doc-00000001", "doc-00000002"]


def _good_spans():
    return [gen_document(d, 42) for d in GOOD_IDS]


def _batch(bad_spans):
    """Four documents, the second ``bad-doc``, sliced off a five-row
    table so the batch starts at a non-zero offset."""
    good = _good_spans()
    table = pa.Table.from_pydict(
        {
            "doc_id": ["pad"] + GOOD_IDS[:1] + ["bad-doc"] + GOOD_IDS[1:],
            "spans": [good[0]] + good[:1] + [bad_spans] + good[1:],
        },
        schema=DOCUMENT_SCHEMA,
    )
    return table.slice(1)


def _by_doc(out: pa.Table) -> dict[str, list[tuple]]:
    docs: dict[str, list[tuple]] = {}
    for r in out.to_pylist():
        docs.setdefault(r["doc_id"], []).append(
            (r["kind"], r["text"], r["media_ref"], r["offset"])
        )
    return docs


def _good_output():
    table = pa.Table.from_pydict(
        {"doc_id": GOOD_IDS, "spans": _good_spans()}, schema=DOCUMENT_SCHEMA
    )
    return _by_doc(DocumentExtractor(config=DEFAULT_CONFIG)(table))


def _with_null_element():
    spans = gen_document("bad-doc", 42)
    return spans[:3] + [None] + spans[3:]


@pytest.mark.parametrize(
    "bad_spans",
    [None, _with_null_element()],
    ids=["null_list", "null_element"],
)
class TestNullSpans:
    def test_strict_raises_type_error(self, bad_spans):
        with pytest.raises(TypeError):
            DocumentExtractor(config=DEFAULT_CONFIG)(_batch(bad_spans))

    def test_quarantine_emits_one_error_span(self, bad_spans):
        out = DocumentExtractor(config=DEFAULT_CONFIG, quarantine=True)(_batch(bad_spans))
        docs = _by_doc(out)
        assert [k for k, *_ in docs.pop("bad-doc")] == ["error"]
        assert out.filter(pa.compute.equal(out["doc_id"], "bad-doc"))["text"][
            0
        ].as_py().startswith("TypeError: ")
        assert docs == _good_output()


@pytest.mark.parametrize("quarantine", [False, True], ids=["strict", "quarantine"])
def test_null_kind_is_an_unknown_kind(quarantine):
    spans = gen_document("bad-doc", 42)
    nulled = spans[:3] + [dict(spans[3], kind=None)] + spans[4:]
    dropped = spans[:3] + spans[4:]
    extractor = DocumentExtractor(config=DEFAULT_CONFIG, quarantine=quarantine)
    got = _by_doc(extractor(_batch(nulled)))
    want = _by_doc(extractor(_batch(dropped)))
    assert got == want
    assert all(k != "error" for span_list in got.values() for k, *_ in span_list)
