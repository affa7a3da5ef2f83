"""Deterministic synthetic form-document corpus (FIXTURES.md F1-F5).

Generates interleaved text+media span documents shaped exactly like the
``input_hint`` table: ``(doc_id, spans: list<struct<kind, text,
media_ref, offset>>)``. Each document is a synthetic "intake form":
section headers, label words with checkbox media spans, question
prompts, free-text answers, highlight marks — in reading order, with
geometry carried in media-ref fragments (see
:mod:`pdf_parser_ray.core.schema`).

Everything is seeded per ``doc_id`` — the same ``(seed, doc_id)`` pair
always yields the same document, so the corpus can be regenerated
shard-by-shard on any worker without materializing it anywhere
(generation happens *inside* ``map_batches``, which is what makes the
bench corpus scale: no driver-side loop, no broadcast of data).

Skew knobs per FIXTURES.md F1: ~1% of docs are "giant" (many pages),
~5% are media-heavy (≥40% checkbox/highlight spans).
"""

from __future__ import annotations

import random
from typing import Any

import pyarrow as pa

from ..core.config import FormConfig
from ..core.schema import (
    DOCUMENT_SCHEMA,
    make_checkbox_ref,
    make_highlight_ref,
    make_page_ref,
    make_word_ref,
)

PAGE_W = 2000
PAGE_H = 3000

# Default form schema, mirroring the shape of the reference's
# sections.json (labels + questions; duplicated question texts are
# meaningful — reference sections.json:197-220).
BASE_SECTIONS: list[dict[str, Any]] = [
    {
        "section_name": "PATIENT INFORMATION",
        "questions": ["First Name", "Last Name", "Zip Code", "Email Address"],
    },
    {
        "section_name": "MEDICAL HISTORY",
        "labels": [
            "Diabetes",
            "High Blood Pressure",
            "Liver Problems",
            "Asthma",
            "Heart Disease",
            "Kidney Disease",
        ],
    },
    {
        "section_name": "LIFESTYLE",
        "labels": ["Smoking", "Alcohol", "Exercise"],
        "questions": ["Packs/Day", "Drinks Per Week"],
    },
    {
        "section_name": "FAMILY HISTORY",
        "questions": ["Medical Conditions"] * 4,
    },
    {
        "section_name": "CONSENT",
        "questions": [
            "Would you like to receive automatic appointment reminders?",
            "If yes, which provider do you prefer?",
        ],
    },
]

MALE_SECTIONS: list[dict[str, Any]] = [
    BASE_SECTIONS[0],
    {
        "section_name": "MEDICAL HISTORY",
        "labels": ["Diabetes", "Prostate Problems", "Heart Disease", "Asthma"],
    },
    BASE_SECTIONS[2],
    BASE_SECTIONS[3],
    BASE_SECTIONS[4],
]

DEFAULT_CONFIG = FormConfig.from_sections(
    BASE_SECTIONS, variants={"female": BASE_SECTIONS, "male": MALE_SECTIONS}
)

_ANSWER_WORDS = [
    "Alice", "Brown", "Carter", "Davis", "Evans", "Flores", "Garcia",
    "Hughes", "Irving", "Jones", "none", "mild", "severe", "occasional",
    "daily", "weekly", "2", "3", "former", "quit", "2019",
]
_NARRATIVE_WORDS = [
    "diabetes", "in", "maternal", "grandmother", "heart", "disease",
    "father", "hypertension", "mother", "asthma", "brother", "none",
    "reported", "history", "of", "stroke",
]
_NOISE_WORDS = ["Please", "complete", "all", "fields", "Form", "Rev", "2024"]


class _PageBuilder:
    """Accumulates one page's tokens/boxes/highlights with a y cursor."""

    def __init__(self, doc_id: str, page_no: int):
        self.doc_id = doc_id
        self.page_no = page_no
        self.tokens: list[dict] = []
        self.boxes: list[dict] = []
        self.highlights: list[dict] = []
        self.line_no = 0
        self.y = 100

    def add_line(self, words: list[str], x: int, y: int | None = None) -> tuple[int, int]:
        """Place words on one visual line; returns (x, y) of first word."""
        if y is None:
            y = self.y
        self.line_no += 1
        cx = x
        for w in words:
            tw = 14 * len(w) + 8
            self.tokens.append(
                {
                    "text": w,
                    "x": cx,
                    "y": y,
                    "w": tw,
                    "h": 28,
                    "block": self.line_no,
                    "par": 1,
                    "line": 1,
                }
            )
            cx += tw + 14
        return (x, y)

    def add_box(self, x: int, y: int, score: float, status: str) -> None:
        self.boxes.append(
            {
                "x": x,
                "y": y,
                "w": 37,
                "h": 37,
                "score": round(score, 2),
                "status": status,
            }
        )

    def add_highlight(self, x: int, y: int, text: str) -> None:
        self.highlights.append({"x": x, "y": y, "w": 90, "h": 30, "text": text})

    def advance(self, dy: int) -> None:
        self.y += dy


def _emit_spans(doc_id: str, pages: list[_PageBuilder]) -> list[dict]:
    spans: list[dict] = []
    off = 0

    def emit(kind: str, text: str, ref: str) -> None:
        nonlocal off
        spans.append({"kind": kind, "text": text, "media_ref": ref, "offset": off})
        off += 1

    for pb in pages:
        emit("page", "", make_page_ref(doc_id, pb.page_no, PAGE_W, PAGE_H))
        items: list[tuple[tuple[int, int, int], str, dict]] = []
        for t in pb.tokens:
            items.append(((t["y"], t["x"], 0), "word", t))
        for i, b in enumerate(pb.boxes):
            b = dict(b, i=i)
            items.append(((b["y"], b["x"], 1), "checkbox", b))
        for i, h in enumerate(pb.highlights):
            h = dict(h, i=i)
            items.append(((h["y"], h["x"], 2), "highlight", h))
        items.sort(key=lambda it: it[0])
        for _key, kind, obj in items:
            if kind == "word":
                emit(
                    "word",
                    obj["text"],
                    make_word_ref(
                        pb.page_no, obj["x"], obj["y"], obj["w"], obj["h"],
                        obj["block"], obj["par"], obj["line"],
                    ),
                )
            elif kind == "checkbox":
                emit(
                    "checkbox",
                    "",
                    make_checkbox_ref(
                        doc_id, pb.page_no, obj["i"], obj["x"], obj["y"],
                        obj["w"], obj["h"], int(round(obj["score"] * 100)),
                        obj["status"],
                    ),
                )
            else:
                emit(
                    "highlight",
                    obj["text"],
                    make_highlight_ref(
                        doc_id, pb.page_no, obj["i"], obj["x"], obj["y"],
                        obj["w"], obj["h"],
                    ),
                )
    return spans


def gen_document(doc_id: str, seed: int = 42, vocab: list[str] | None = None) -> list[dict]:
    """Generate one synthetic form document's span sequence.

    ``vocab`` (e.g. the words of a source document's text) replaces the
    default answer/narrative word pools, making the generated form —
    and therefore the extraction output — depend on the source row's
    content, not just its id.
    """
    return _emit_spans(doc_id, _gen_builders(doc_id, seed, vocab))


def _gen_builders(
    doc_id: str, seed: int = 42, vocab: list[str] | None = None
) -> list[_PageBuilder]:
    rng = random.Random(f"{seed}:{doc_id}")
    form_type = "male" if rng.random() < 0.4 else "female"
    sections = MALE_SECTIONS if form_type == "male" else BASE_SECTIONS
    giant = rng.random() < 0.01
    media_heavy = rng.random() < 0.05

    pages: list[_PageBuilder] = []
    pb = _PageBuilder(doc_id, 1)
    pages.append(pb)
    marker = ("Female" if form_type == "female" else "Male")
    pb.add_line([marker, "Patient", "Information"], x=600, y=40)
    if rng.random() < 0.5:
        pb.add_line(rng.sample(_NOISE_WORDS, 3), x=700, y=70)

    def new_page() -> _PageBuilder:
        nonlocal pb
        pb = _PageBuilder(doc_id, len(pages) + 1)
        pages.append(pb)
        return pb

    section_list = list(sections) * (6 if giant else 1)
    for sec in section_list:
        name = sec["section_name"]
        # Page break if the section wouldn't fit.
        est = 60 + 90 * (len(sec.get("labels", [])) // 2 + 1) + 170 * len(
            sec.get("questions", [])
        )
        if pb.y + est > PAGE_H - 200:
            new_page()
        pb.add_line(name.split(), x=50)
        anchor_y = pb.y
        pb.advance(70)

        labels = sec.get("labels") or []
        for row_start in range(0, len(labels), 2):
            row = labels[row_start : row_start + 2]
            for col, lbl in enumerate(row):
                lx = 150 if col == 0 else 1050
                pb.add_line(lbl.split(), x=lx)
                status = "ticked" if rng.random() < 0.45 else "empty"
                score = 0.62 + 0.37 * rng.random()
                bx = lx - 60
                pb.add_box(bx, pb.y - 4, score, status)
                if media_heavy and rng.random() < 0.5:
                    # near-duplicate hit within 5px (exercises dedup D1)
                    pb.add_box(bx + rng.randint(1, 4), pb.y - 4 + rng.randint(0, 3),
                               score - 0.05, status)
            pb.advance(90)
        pb.advance(30)

        questions = sec.get("questions") or []
        qi = 0
        while qi < len(questions):
            q = questions[qi]
            two_cols = (
                qi + 1 < len(questions)
                and len(questions[qi + 1].split()) <= 3
                and len(q.split()) <= 3
                and rng.random() < 0.6
            )
            if two_cols:
                q2 = questions[qi + 1]
                (qx1, qy1) = pb.add_line(q.split(), x=150)
                (qx2, qy2) = pb.add_line(q2.split(), x=1100, y=qy1)
                pb.advance(40)
                _gen_answer(pb, rng, q, qx1, qy1, right=1000, vocab=vocab)
                _gen_answer(pb, rng, q2, qx2, qy2, right=PAGE_W - 40, vocab=vocab)
                pb.advance(130)
                qi += 2
            else:
                (qx, qy) = pb.add_line(q.split(), x=150)
                pb.advance(40)
                _gen_answer(pb, rng, q, qx, qy, right=PAGE_W - 40, vocab=vocab)
                pb.advance(130)
                qi += 1
        pb.advance(60)

    return pages


def _gen_answer(
    pb: _PageBuilder, rng: random.Random, q: str, qx: int, qy: int, right: int,
    vocab: list[str] | None = None,
) -> None:
    """Place an answer for question ``q`` whose prompt line sits at
    ``(qx, qy)`` — inside the band ``[qy+40, qy+80]`` the collector
    scans, within the ``[qx-30, right]`` window."""
    answer_words = vocab if vocab else _ANSWER_WORDS
    narrative_words = vocab if vocab else _NARRATIVE_WORDS
    ay = qy + 40 + rng.randint(0, 35)
    ql = q.lower()
    r = rng.random()
    if "zip" in ql and "code" in ql:
        words = ["12345" if r < 0.5 else "98765-4321"]
        if r < 0.25:
            words.append("x@y.com")
        pb.add_line(words, x=qx + 10, y=ay)
    elif "medical conditions" in ql:
        n = rng.randint(3, 6)
        words = [rng.choice(narrative_words) for _ in range(n)]
        pb.add_line(words, x=qx + 10, y=ay)
        if rng.random() < 0.5:
            # wrapped continuation inside (ay+10, ay+50]
            cont = [rng.choice(narrative_words) for _ in range(rng.randint(2, 4))]
            pb.add_line(cont, x=qx + 10, y=ay + 45)
    elif "reminders" in ql:
        if r < 0.3:
            pb.add_line(["Yes" if rng.random() < 0.6 else "No"], x=qx + 20, y=ay)
        elif r < 0.55:
            pb.add_highlight(qx + 30, ay, "Yes" if rng.random() < 0.5 else "No")
        elif r < 0.8:
            # checkbox pair: left=Yes right=No (inference C5)
            tick = rng.random()
            pb.add_box(qx + 40, qy + 25, 0.9, "ticked" if tick < 0.45 else "empty")
            pb.add_box(qx + 240, qy + 25, 0.9, "ticked" if 0.45 <= tick < 0.9 else "empty")
        # else: unanswered
    elif ql.endswith("?") or "yes" in ql:
        if r < 0.5:
            pb.add_line(["Yes" if rng.random() < 0.5 else "No"], x=qx + 20, y=ay)
        elif r < 0.75:
            pb.add_highlight(qx + 30, ay, "Yes" if rng.random() < 0.5 else "No")
    else:
        n = rng.randint(1, 3)
        words = [rng.choice(answer_words) for _ in range(n)]
        pb.add_line(words, x=qx + 10, y=ay)
        if rng.random() < 0.15:
            # duplicate consecutive line (exercises D6 collapse)
            pb.add_line(words, x=qx + 10, y=ay + 30)


def build_corpus_table(doc_ids: list[str], seed: int = 42) -> pa.Table:
    """Build an Arrow table of synthetic documents (input_hint shape)."""
    rows_spans = [gen_document(d, seed) for d in doc_ids]
    return pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": rows_spans}, schema=DOCUMENT_SCHEMA
    )


def corpus_dataset(n_docs: int, seed: int = 42, override_num_blocks: int | None = None):
    """A Ray Dataset of synthetic documents, generated *inside*
    ``map_batches`` (distributed, no driver materialization)."""
    import ray.data as rd

    def gen_batch(batch: pa.Table) -> pa.Table:
        ids = [f"doc-{int(i):08d}" for i in batch["id"].to_pylist()]
        return build_corpus_table(ids, seed)

    ds = rd.range(n_docs, override_num_blocks=override_num_blocks)
    return ds.map_batches(gen_batch, batch_format="pyarrow", batch_size=64)
