"""The document parse stage — the engine's flagship actor-pool
``map_batches`` stage (operator slots S1/S2, M1/M2, V1-V6, C1-C6).

``DocumentExtractor`` is a callable CLASS: constructed once per actor
(the sections config — the broadcast small side of every matching step,
J3 — is validated and bound in ``__init__``, exactly as the reference
loads ``sections.json`` + templates once per ``CheckboxExtractor``
instance, reference ``extractor.py:88-106`` / ``948-951``), then invoked
per Arrow batch. Each row's page fold runs independently — Ray
parallelizes across documents, never across pages of one document.

Usage::

    ds.map_batches(
        DocumentExtractor,
        fn_constructor_kwargs={"config": cfg},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=8,           # actor pool size
        num_cpus=1,
    )

Output is the exploded span table ``(doc_id, kind, text, media_ref,
offset)``, or with ``explode=False`` one ``(doc_id, spans)`` row per
document.
"""

from __future__ import annotations


import pyarrow as pa

from ..core.config import FormConfig
from ..kernels.document import classify_form_type, decode_spans, extract_document, flatten_to_spans


class DocumentExtractor:
    """Actor-pool parse stage (stateful stage ST1-ST3 analog).

    ``quarantine=True`` catches per-document failures (malformed media
    refs, corrupt span streams) and emits a single ``error`` span for
    that document instead of failing the task — at corpus scale one
    corrupt row must not kill (or infinitely retry) a multi-day job;
    the error spans are queryable like any other output and carry the
    exception text. Default ``False`` preserves strict fail-fast
    semantics (and golden bit-compatibility) for trusted corpora."""

    def __init__(
        self,
        config: FormConfig | dict | list | None = None,
        explode: bool = True,
        quarantine: bool = False,
    ):
        if config is None:
            from ..io.synth import DEFAULT_CONFIG

            config = DEFAULT_CONFIG
        if isinstance(config, list):
            config = FormConfig.from_sections(config)
        elif isinstance(config, dict):
            config = FormConfig.from_sections(
                config["sections"], config.get("variants")
            )
        self.config = config
        self.explode = explode
        self.quarantine = quarantine

    def _extract_one(self, doc_id: str, spans: list[dict]) -> list[dict]:
        try:
            pages = decode_spans(doc_id, spans)
            form_type = classify_form_type(pages)
            sections = self.config.select(form_type)
            structured = extract_document(pages, sections)
            return flatten_to_spans(structured)
        except Exception as e:  # noqa: BLE001 — quarantine IS the contract
            if not self.quarantine:
                raise
            return [
                {
                    "kind": "error",
                    "text": f"{type(e).__name__}: {e}",
                    "media_ref": "",
                    "offset": 0,
                }
            ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()
        if self.explode:
            out_doc, out_kind, out_text, out_ref, out_off = [], [], [], [], []
            for doc_id, spans in zip(doc_ids, spans_col):
                for s in self._extract_one(doc_id, spans):
                    out_doc.append(doc_id)
                    out_kind.append(s["kind"])
                    out_text.append(s["text"])
                    out_ref.append(s["media_ref"])
                    out_off.append(s["offset"])
            return pa.table(
                {
                    "doc_id": pa.array(out_doc, pa.string()),
                    "kind": pa.array(out_kind, pa.string()),
                    "text": pa.array(out_text, pa.string()),
                    "media_ref": pa.array(out_ref, pa.string()),
                    "offset": pa.array(out_off, pa.int32()),
                }
            )
        out_spans = [self._extract_one(d, s) for d, s in zip(doc_ids, spans_col)]
        from ..core.schema import DOCUMENT_SCHEMA

        return pa.Table.from_pydict(
            {"doc_id": doc_ids, "spans": out_spans}, schema=DOCUMENT_SCHEMA
        )
