"""Giant-document page-sharding with lead(1) carry (SURVEY.md
§4.2/§4.3; reference coupling spec ``extractor.py:331-375``).

The per-document fold (:func:`~.document.extract_document`) is
order-dependent: each page consumes the remaining-label/question state
produced by earlier pages, and looks ahead at the next page's head
line groups. A 10k-page document therefore runs as one task — the
single worst skew case the north rule calls out. This module splits
the fold into:

1. **Parallel per-shard artifact phase** — everything whose result is
   independent of the fold state: span decode, checkbox dedup, line
   grouping, section-region detection, label-position search over the
   FULL label set (label matching is per-label independent — each
   label's scan in ``get_label_positions`` never consults another
   label), and question matching over the FULL question lists. Each
   shard carries the next shard's first page so the lead(1) lookahead
   (labels pass 2, question cross-page fallback — ≤5 head line groups)
   is preserved at shard boundaries.

   Question matching *is* coupled across sections through the section
   band bottom: an active section's band ends at the next active
   section's anchor (``match_sections_and_questions``'s
   ``name_to_next_anchor``), and which sections are active depends on
   the fold state. The coupling is only through the IMMEDIATE next
   active section, so the artifact phase enumerates it: for every
   question section s and every candidate next section t (those after
   s in the page's (anchor_y, config-order) sequence, plus "s is
   last"), it runs the matcher on ``[s, t-with-questions-stripped]`` —
   t contributes its anchor (band bottom + band-crop widening bound)
   but no matches. The replay then picks the records for the actual
   next active section.

2. **Sequential per-doc replay** — the cheap state machine plus the
   genuinely order-dependent tail: remaining/completed bookkeeping,
   checkbox assignment, and answer augmentation (answers trim against
   *each other's* windows — reference ``response_extractor.py``'s
   interval self-join — so the matched-question set must be exact
   before augmentation runs). The bookkeeping is the unsharded fold's
   own :class:`~.document.FoldState`; what the replay adds is the
   restriction of the full-set artifacts to the labels and questions
   that state leaves open. Restriction arguments used by the replay,
   each verified by the bit-identity test:

   * label positions for a subset S of labels = the full-set result
     filtered to S (per-label loop, no cross-label state);
   * question claims for m remaining instances of question q = the
     first m instance records of the full-list run (instance j always
     claims the j-th distinct (x, y) hit in sorted order);
   * sections absent from the active set only affect others via the
     next-anchor value — covered by the candidate enumeration.

Reassembly is an ordered ``groupby(doc_id)`` (shards sorted by index)
— the §4.3 shuffle. The artifact blob rides the exchange as an opaque
pickled binary column: it is an engine-internal exchange (tokens,
hits, regions), not a user-facing table.
"""

from __future__ import annotations

import pickle
from typing import Any

from .answers import augment_answers
from .assign import assign_checkboxes_sectionwise
from .boxes import deduplicate_matches
from .document import FoldState, classify_form_type, decode_spans, flatten_to_spans, page_model
from .labels import get_label_positions
from .questions import NextHead, match_sections_and_questions
from .sections import detect_section_regions

Span = dict[str, Any]


def make_shards(
    spans: list[Span], pages_per_shard: int
) -> list[tuple[int, int, list[Span], list[Span] | None]]:
    """Split a document's span stream into page-range shards at page
    markers. Returns ``(shard_idx, page_offset, shard_spans, carry)``
    where ``carry`` is the next shard's first page (the lead(1)
    lookahead), ``None`` for the last shard."""
    starts = [i for i, s in enumerate(spans) if s["kind"] == "page"]
    if not starts or starts[0] != 0:
        starts = [0] + [i for i in starts if i != 0]
    bounds = starts + [len(spans)]
    pages = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    shards = []
    for k in range(0, len(pages), pages_per_shard):
        chunk = pages[k : k + pages_per_shard]
        s0, s1 = chunk[0][0], chunk[-1][1]
        if k + pages_per_shard < len(pages):
            c0, c1 = pages[k + pages_per_shard]
            carry: list[Span] | None = spans[c0:c1]
        else:
            carry = None
        shards.append((k // pages_per_shard, k, spans[s0:s1], carry))
    return shards


def _has_band(regions: dict, name: str) -> bool:
    reg = regions.get(name)
    return bool(reg) and reg.get("y1") is not None


def _sec_records(result: list[dict], name: str) -> list[dict]:
    for entry in result:
        if entry.get("section") == name:
            return entry.get("questions", [])
    return []


def compute_shard_artifacts(
    doc_id: str,
    shard_spans: list[Span],
    carry_spans: list[Span] | None,
    config,
    page_offset: int,
) -> list[dict[str, Any]]:
    """The parallel phase: one artifact dict per page of the shard."""
    pages = decode_spans(doc_id, shard_spans)
    models = [page_model(page) for page in pages]
    if carry_spans is not None:
        cpages = decode_spans(doc_id, carry_spans)
        if cpages:
            models.append(page_model(cpages[0]))

    # always include the base (None) variant: config.select falls back
    # to base sections for a classified form type that has no variant,
    # and the replay must have artifacts for that case too
    variants = list(config.variants.keys()) + [None]
    all_labels = sorted(
        {
            lbl
            for v in variants
            for sec in config.select(v)
            if isinstance(sec.get("labels"), list)
            for lbl in (sec.get("labels") or [])
        }
    )

    arts: list[dict[str, Any]] = []
    for idx, page in enumerate(pages):
        page_w, page_h = page["width"], page["height"]
        checkboxes = deduplicate_matches(page["ticked"], page["empty"])
        model = models[idx]
        next_head = NextHead(model, models[idx + 1], page_h) if idx + 1 < len(models) else None

        label_positions = get_label_positions(model, all_labels, next_head=next_head)

        per_variant: dict[Any, dict[str, Any]] = {}
        by_sections: dict[bytes, dict[str, Any]] = {}
        for v in variants:
            sections = config.select(v)
            key = pickle.dumps(sections)
            cached = by_sections.get(key)
            if cached is not None:
                per_variant[v] = cached
                continue
            regions = detect_section_regions(model, sections, checkboxes, page_width=page_w)
            q_secs = [sec for sec in sections if sec.get("questions")]
            banded = [
                (pos, sec)
                for pos, sec in enumerate(q_secs)
                if _has_band(regions, sec["section_name"])
            ]
            # stable (anchor_y, config-position) order — exactly the
            # matcher's `ordered` over any active subset
            banded.sort(key=lambda t: regions[t[1]["section_name"]]["y1"])
            order_names = [sec["section_name"] for _pos, sec in banded]

            records: dict[str, dict[Any, list[dict]]] = {}
            for sec in q_secs:
                sname = sec["section_name"]
                if not _has_band(regions, sname):
                    res = match_sections_and_questions(
                        model,
                        [sec],
                        regions,
                        page_width=page_w,
                        page_height=page_h,
                        next_head=next_head,
                    )
                    records[sname] = {None: _sec_records(res, sname)}
                    continue
                my_pos = order_names.index(sname)
                entry: dict[Any, list[dict]] = {}
                for cand in [t[1] for t in banded[my_pos + 1 :]] + [None]:
                    if cand is None:
                        pair = [sec]
                        cand_name = None
                    else:
                        stub = dict(cand)
                        stub["questions"] = []
                        pair = [sec, stub]
                        cand_name = cand["section_name"]
                    res = match_sections_and_questions(
                        model,
                        pair,
                        regions,
                        page_width=page_w,
                        page_height=page_h,
                        next_head=next_head,
                    )
                    entry[cand_name] = _sec_records(res, sname)
                records[sname] = entry
            val = {"regions": regions, "records": records, "order_names": order_names}
            per_variant[v] = val
            by_sections[key] = val

        arts.append(
            {
                "page_number": page_offset + idx + 1,
                "width": page_w,
                "height": page_h,
                "tokens": page["tokens"],
                "highlights": page["highlights"],
                "checkboxes": checkboxes,
                "label_positions": label_positions,
                "variants": per_variant,
            }
        )
    return arts


def replay_document(arts: list[dict[str, Any]], config) -> list[Span]:
    """The sequential phase: run the fold's state machine over the
    per-page artifacts and emit the output span list — bit-identical
    to ``stages.parse.extract_spans`` on the unsharded document."""
    arts = sorted(arts, key=lambda a: a["page_number"])
    if not arts:
        return []
    form_type = classify_form_type([{"tokens": arts[0]["tokens"]}])
    if form_type not in config.variants:
        form_type = None  # config.select's base-sections fallback
    sections = config.select(form_type)

    structured: dict[str, Any] = {"pages": []}
    state = FoldState(sections)

    for art in arts:
        page_number = art["page_number"]
        checkboxes = art["checkboxes"]
        va = art["variants"][form_type]
        section_regions = va["regions"]
        full_positions = art["label_positions"]
        active_label_sections, labels_to_search = state.label_search()

        # restriction of the full-set search — exact (per-label independence)
        label_positions = {
            l: full_positions[l] for l in labels_to_search if l in full_positions
        }
        state.labels_found(active_label_sections, section_regions, label_positions)

        sections_data = assign_checkboxes_sectionwise(
            checkboxes, active_label_sections, label_positions, section_regions
        )

        # reconstruct the matcher output for the ACTIVE section subset
        open_sections = state.open_questions(page_number)
        active_names = [sec["section_name"] for sec in open_sections]
        order_names = va["order_names"]
        active_banded = [n for n in order_names if n in active_names]
        matches: list[dict[str, Any]] = []
        for sec in open_sections:
            sname = sec["section_name"]
            rem = state.remaining_questions[sname]
            if sname in order_names:
                pos = active_banded.index(sname)
                next_name = active_banded[pos + 1] if pos + 1 < len(active_banded) else None
                records = va["records"][sname].get(next_name)
                if records is None:  # defensive: candidate not enumerated
                    records = va["records"][sname][None]
            else:
                records = va["records"][sname][None]
            by_q: dict[str, list[dict]] = {}
            for r in records:
                by_q.setdefault(r["question"], []).append(r)
            counters: dict[str, int] = {}
            sec_hits: list[dict] = []
            for q in rem:
                i = counters.get(q, 0)
                recs_q = by_q.get(q, [])
                if i < len(recs_q):
                    sec_hits.append(recs_q[i])
                    counters[q] = i + 1
            if sec_hits:
                reg = section_regions.get(sname) or {}
                matches.append(
                    {"section": sname, "anchor_y": reg.get("y1"), "questions": sec_hits}
                )

        responses_data = augment_answers(
            matches,
            art["tokens"],
            art["highlights"],
            checkboxes,
            page_width=art["width"],
            page_height=art["height"],
        )

        state.questions_answered(responses_data)

        structured["pages"].append(
            {
                "page_number": page_number,
                "sections": sections_data,
                "responses": responses_data,
            }
        )

    return flatten_to_spans(structured)
