"""Per-document extraction fold (operator C6, SURVEY.md §2.10) and the
span decode/flatten that bracket it.

``extract_document`` mirrors ``extract_pdf_with_sections`` (reference
``extractor.py:947-1126``): a strictly ordered page loop carrying
remaining/completed label and question state (:class:`FoldState`),
with next-page lookahead limited to the following page's head line
groups. The whole fold runs inside ONE ``map_batches`` task per
document row, giant documents included — documents are independent,
so Ray parallelizes across documents and never across the pages of one
document (the only ordering dependency in the pipeline). Once no label
or question section is open the fold stops reading pages, so a giant
document costs what its open pages cost, not its page count.
The per-document entry that brackets it with decode, classify and
flatten is ``stages.parse.extract_spans``.

``decode_spans`` is the sandbox stand-in for the render/OCR/template
stages (S1/S2, M1/M2, V1 slots): it reads the geometry fragments of
``page`` / ``word`` / ``checkbox`` / ``highlight`` spans. In production
these slots are stateful actor stages (pdfium render + Tesseract +
template match); the surrounding plumbing is identical. It reads span
dicts or, from the parse stage, :class:`SpanColumns` column slices whose
pages' word columns the stage already built for the whole batch; then
only checkbox, highlight and page refs are parsed here. Columns without
``pages`` (a document whose refs Arrow cannot parse) and span dicts
take the span-by-span path, which gives each page its token dicts.

The fold reads every page through one :class:`~.lines.PageModel`: its
words as columns in line, emission and reading order, their candidate
index and the next page's head (:class:`~.questions.NextHead`) are
each built once and shared by the classifier and every fold phase
(labels, sections, questions, answers), which index the columns; a
page of token dicts gets its model from them.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .answers import augment_answers
from .assign import assign_checkboxes_sectionwise
from .boxes import deduplicate_matches
from .labels import get_label_positions
from .lines import PageModel, Token
from .questions import NextHead, match_sections_and_questions
from .sections import detect_section_regions
from ..core.constants import ANCHOR_OFFSET_PX, DEFAULT_PAGE_HEIGHT, DEFAULT_PAGE_WIDTH

Span = dict[str, Any]
Page = dict[str, Any]


class SpanColumns(NamedTuple):
    """One document's input spans as parallel column slices, the shape
    the parse stage reads from Arrow without building span dicts.
    ``pages`` returns the :class:`~.lines.PageModel` of each of the
    document's pages, from columns the parse stage built for the whole
    batch; the columns then hold only the spans that are not words.
    Without ``pages`` they hold every span, and word refs are parsed
    one by one."""

    kind: list[str | None]
    text: list[str | None]
    media_ref: list[str | None]
    pages: Callable[[], list[PageModel]] | None = None


def _new_page(number: int, width: int, height: int) -> Page:
    return {
        "page": number,
        "width": width,
        "height": height,
        "tokens": [],
        "ticked": [],
        "empty": [],
        "highlights": [],
    }


def _box_geometry(ref: str) -> tuple[str, list[str]]:
    """A media ref's identity and its geometry fragment's fields."""
    media, _, frag = ref.partition("#")
    return media, frag.split("/") if frag else []


def _box_ints(parts: list[str], n: int) -> list[int]:
    """The first ``n`` geometry fields as ints, zeros for missing ones."""
    ints = [int(p) for p in parts[:n]]
    return ints + [0] * (n - len(ints))


def _word_geometry(ref: str) -> tuple[int, ...]:
    """A word's ``(x, y, w, h, block, par, line)`` from its
    ``tok://p/x/y/w/h/block/par/line`` ref; zeros for any other ref."""
    if not ref.startswith("tok://"):
        return (0,) * 7
    _p, x, y, w, h, block, par, line = map(int, ref[6:].split("/")[:8])
    return x, y, w, h, block, par, line


def _token(text: str | None, x, y, w, h, block, par, line) -> Token:
    return {
        "text": text or "",
        "x": x,
        "y": y,
        "w": w,
        "h": h,
        "block": block,
        "par": par,
        "line": line,
    }


def _page_for(pages: list[Page], current: Page | None) -> Page:
    if current is None:
        # Implicit first page for span streams without page markers.
        current = _new_page(1, DEFAULT_PAGE_WIDTH, DEFAULT_PAGE_HEIGHT)
        pages.append(current)
    return current


def _decode_other(
    pages: list[Page], current: Page | None, kind: str | None, text: str | None, ref: str
) -> Page:
    """Decode one span that is not a word into ``pages``; returns the
    page that later spans belong to."""
    if kind == "page":
        w, h = DEFAULT_PAGE_WIDTH, DEFAULT_PAGE_HEIGHT
        parts = _box_geometry(ref)[1]
        if len(parts) >= 2:
            w, h = int(parts[0]), int(parts[1])
        current = _new_page(len(pages) + 1, w, h)
        pages.append(current)
        return current
    current = _page_for(pages, current)
    if kind == "checkbox":
        media, parts = _box_geometry(ref)
        x, y, w, h, score = _box_ints(parts, 5)
        status = "ticked" if (len(parts) > 5 and parts[5] == "t") else "empty"
        box = {
            "x": x,
            "y": y,
            "w": w,
            "h": h,
            "score": round(score / 100.0, 2),
            "status": status,
            "ref": media,
        }
        (current["ticked"] if status == "ticked" else current["empty"]).append(box)
    elif kind == "highlight":
        media, parts = _box_geometry(ref)
        x, y, w, h = _box_ints(parts, 4)
        current["highlights"].append(
            {
                "x": x,
                "y": y,
                "w": w,
                "h": h,
                "text": text or "",
                "ref": media,
            }
        )
    # other kinds (header/image/link/...) carry no geometry to decode
    return current


def decode_spans(doc_id: str, spans: list[Span] | SpanColumns) -> list[Page]:
    """Decode an input span sequence into per-page token/box/highlight
    structures (geometry read from media-ref fragments).

    ``spans`` is either a list of span dicts or a :class:`SpanColumns`
    (the parse stage's columnar input). Spans are read strictly in
    order, so a malformed span raises the same error at the same point
    either way. With the ``pages`` built no word can raise, and only
    the other spans are read one by one."""
    if isinstance(spans, SpanColumns) and spans.pages is not None:
        return _decode_runs(spans)
    if isinstance(spans, SpanColumns):
        rows = zip(spans.kind, spans.text, spans.media_ref)
    else:
        rows = ((s["kind"], s.get("text"), s.get("media_ref")) for s in spans)
    pages: list[Page] = []
    current: Page | None = None
    for kind, text, ref in rows:
        if kind == "word":
            current = _page_for(pages, current)
            current["tokens"].append(_token(text, *_word_geometry(ref or "")))
        else:
            current = _decode_other(pages, current, kind, text, ref or "")
    return pages


def _decode_runs(spans: SpanColumns) -> list[Page]:
    """:func:`decode_spans` of columns with their ``pages`` built: the
    spans that are not words are read here, and each page gets its
    model. A page more than the page markers is the implicit first
    page, opened before the first marker."""
    models = spans.pages()
    pages: list[Page] = []
    current: Page | None = None
    if len(models) > spans.kind.count("page"):
        current = _page_for(pages, current)
    for kind, text, ref in zip(spans.kind, spans.text, spans.media_ref):
        current = _decode_other(pages, current, kind, text, ref or "")
    for page, model in zip(pages, models):
        del page["tokens"]
        page["model"] = model
    return pages


def page_model(page: Page) -> PageModel:
    """The :class:`~.lines.PageModel` of a decoded page, or of
    ``page["tokens"]``, kept on the page (a page whose tokens were
    replaced gets a new one)."""
    model = page.get("model")
    tokens = page.get("tokens")
    if model is None or (tokens is not None and model.tokens is not tokens):
        model = page["model"] = PageModel(tokens or [])
    return model


def classify_form_type(pages: list[Page]) -> str:
    """Form-type classifier (operator M14, reference
    ``extractor.py:1204-1238``): scan page 1's text for
    "female patient information" / "male patient information"; earliest
    match wins, default female.
    """
    if not pages:
        return "female"
    model = page_model(pages[0])
    raw = model.raw
    text = " ".join([raw[i] for i in model.order]).lower()
    fi = text.find("female patient information")
    mi = text.find("male patient information")
    # "male patient information" is a substring of the female marker —
    # mirror the reference's index comparison (first occurrence wins).
    if fi != -1 and (mi == -1 or fi <= mi):
        return "female"
    if mi != -1:
        return "male"
    return "female"


class FoldState:
    """The fold's remaining/completed label and question bookkeeping
    (reference ``extractor.py:998-1014``, ``1034-1053``, ``1065-1114``),
    driven by :func:`extract_document`. Per page: :meth:`label_search`,
    then :meth:`labels_found`; :meth:`open_questions` (page 1 starts
    every question list), then :meth:`questions_answered`."""

    def __init__(self, sections: list[dict]):
        self.sections = sections
        self.label_sections = [
            sec
            for sec in sections
            if isinstance(sec.get("labels"), list) and sec.get("labels")
        ]
        self.remaining_labels: dict[str, set[str]] = {
            sec["section_name"]: set(sec["labels"]) for sec in self.label_sections
        }
        self.completed_labels: set[str] = set()
        self.remaining_questions: dict[str, list[str]] = {}
        self.completed_questions: set[str] = set()

    def label_search(self) -> tuple[list[dict], list[str]]:
        """The label sections still open, and their remaining labels
        (sorted per section) to search this page for."""
        active: list[dict] = []
        labels: list[str] = []
        for sec in self.label_sections:
            name = sec["section_name"]
            if name in self.completed_labels:
                continue
            rem = self.remaining_labels.get(name, set())
            if not rem:
                self.completed_labels.add(name)
                continue
            active.append(sec)
            labels.extend(sorted(rem))
        return active, labels

    def labels_found(
        self, active: list[dict], regions: dict, label_positions: dict
    ) -> None:
        """Drop the labels seen inside their section's region."""
        for sec in active:
            sname = sec["section_name"]
            region = regions.get(sname)
            if not region:
                continue
            y1_effective = region["y1"] + ANCHOR_OFFSET_PX
            y2 = region["y2"]
            still_needed: set[str] = set()
            for lbl in self.remaining_labels.get(sname, set()):
                found_in_region = any(
                    y1_effective <= ly <= y2 for (_lx, ly) in label_positions.get(lbl, [])
                )
                if not found_in_region:
                    still_needed.add(lbl)
            self.remaining_labels[sname] = still_needed
            if not still_needed:
                self.completed_labels.add(sname)

    def open_questions(self, page_number: int) -> list[dict]:
        """The question sections still open on this page, in config
        order; their questions left are ``remaining_questions[name]``."""
        if page_number == 1:
            for sec in self.sections:
                qs = sec.get("questions") or []
                if qs:
                    self.remaining_questions[sec["section_name"]] = list(qs)
        active: list[dict] = []
        for sec in self.sections:
            sname = sec["section_name"]
            if not sec.get("questions"):
                continue
            if sname in self.completed_questions:
                continue
            if not self.remaining_questions.get(sname, []):
                self.completed_questions.add(sname)
                continue
            active.append(sec)
        return active

    def done(self, page_number: int) -> bool:
        """True when no label section and no question section is open
        on this page after page 1: the state only shrinks, so no later
        page finds anything either."""
        return (
            page_number > 1
            and not self.label_search()[0]
            and not self.open_questions(page_number)
        )

    def questions_answered(self, responses: list[dict] | None) -> None:
        """Drop the questions this page's responses matched."""
        for sec in responses or []:
            sname = sec.get("section")
            for q in sec.get("questions", []):
                qt = q.get("question")
                rem_list = self.remaining_questions.get(sname, [])
                if qt in rem_list:
                    rem_list.remove(qt)
                    self.remaining_questions[sname] = rem_list
            if not self.remaining_questions.get(sname):
                self.completed_questions.add(sname)


def extract_document(pages: list[Page], sections: list[dict]) -> dict[str, Any]:
    """The per-document page fold (reference ``extractor.py:947-1126``).

    Returns ``{"pages": [{page_number, sections, responses}, ...]}``.
    Once nothing is left to find (:meth:`FoldState.done`), the rest of
    the pages get empty records without being read: every phase's
    result there would be empty.
    """
    structured_data: dict[str, Any] = {"pages": []}
    state = FoldState(sections)

    models = [page_model(page) for page in pages]
    for idx, (page, model) in enumerate(zip(pages, models)):
        page_number = idx + 1
        if state.done(page_number):
            structured_data["pages"].extend(
                {"page_number": n, "sections": [], "responses": []}
                for n in range(page_number, len(pages) + 1)
            )
            break
        page_w, page_h = page["width"], page["height"]
        checkboxes = deduplicate_matches(page["ticked"], page["empty"])
        active_label_sections, labels_to_search = state.label_search()

        # One set of page columns, shared by the label, section,
        # question and answer phases (the reference regroups in each —
        # SURVEY.md M3 notes the five clones), and the next page's head
        # cut from that page's own lines, shared by the cross-page
        # passes.
        next_head = NextHead(model, models[idx + 1], page_h) if idx + 1 < len(models) else None
        label_positions = get_label_positions(model, labels_to_search, next_head=next_head)
        section_regions = detect_section_regions(model, sections, checkboxes, page_width=page_w)
        state.labels_found(active_label_sections, section_regions, label_positions)

        sections_data = assign_checkboxes_sectionwise(
            checkboxes, active_label_sections, label_positions, section_regions
        )

        question_sections_active = [
            dict(sec, questions=list(state.remaining_questions[sec["section_name"]]))
            for sec in state.open_questions(page_number)
        ]
        matches = match_sections_and_questions(
            model,
            question_sections_active,
            section_regions,
            page_width=page_w,
            page_height=page_h,
            next_head=next_head,
        )
        responses_data = augment_answers(
            matches,
            model,
            page["highlights"],
            checkboxes,
            page_width=page_w,
            page_height=page_h,
        )
        state.questions_answered(responses_data)

        structured_data["pages"].append(
            {
                "page_number": page_number,
                "sections": sections_data,
                "responses": responses_data,
            }
        )

    return structured_data


def flatten_to_spans(structured: dict[str, Any]) -> list[Span]:
    """Flatten the nested page records into the ordered output span
    sequence (the engine's output contract — FIXTURES.md F4).

    Per page, checkbox sections come first, then response sections —
    the order the reference assembles its page record
    (``extractor.py:1118-1122``). ``label`` spans encode status as
    ``"{label}={status}"`` and reference the assigned checkbox's media
    id; missing labels are pruned. ``answer`` spans reference the
    highlight media id when recovered from a highlight mark.
    """
    spans: list[Span] = []
    off = 0

    def emit(kind: str, text: str, media_ref: str = "") -> None:
        nonlocal off
        spans.append({"kind": kind, "text": text, "media_ref": media_ref, "offset": off})
        off += 1

    for page in structured.get("pages", []):
        for sec in page.get("sections", []):
            emit("section", sec["section"])
            for cb in sec.get("checkboxes", []):
                if cb.get("status") == "missing":
                    continue
                emit("label", f"{cb['label']}={cb['status']}", cb.get("ref", ""))
        for rsec in page.get("responses", []) or []:
            emit("qsection", rsec.get("section", ""))
            for q in rsec.get("questions", []):
                emit("question", q.get("question", ""))
                ans = q.get("answer")
                if ans:
                    emit("answer", ans, q.get("answer_ref", "") or "")
    return spans

