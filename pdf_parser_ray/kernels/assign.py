"""Label→checkbox assignment (operator J1, SURVEY.md §2.4).

Faithful reimplementation of
``CheckboxExtractor.assign_checkboxes_sectionwise`` (reference
``extractor.py:863-945``): a greedy exclusive nearest-neighbor spatial
join. For each label position inside a section region (post-anchor
offset +40 px), the closest checkbox by L1 distance is taken unless its
row center is more than 60 px away or the box was already claimed
(``used_boxes`` — an anti-join against claimed boxes). Unmatched labels
get status ``missing``; a section is emitted only if at least one label
resolved (``extractor.py:939-944``).

Per-document pure function: all of a document's labels and boxes live in
one row, so this "join" never shuffles.
"""

from __future__ import annotations

from typing import Any

from .boxes import Box, cluster_checkboxes_by_rows, filter_checkboxes_in_region
from ..core.constants import ANCHOR_OFFSET_PX, LABEL_CB_ASSIGN_MAX_DELTA_Y


def assign_checkboxes_sectionwise(
    checkboxes: list[Box],
    sections: list[dict],
    label_positions: dict[str, list[tuple[int, int]]],
    section_regions: dict[str, dict[str, int]],
) -> list[dict[str, Any]]:
    output_sections: list[dict[str, Any]] = []
    used_boxes: set[int] = set()

    for sec in sections:
        sec_name = sec["section_name"]
        sec_checkboxes: list[dict[str, Any]] = []
        region = section_regions.get(sec_name)
        if region is None:
            continue
        y1_effective = region["y1"] + ANCHOR_OFFSET_PX
        section_boxes = filter_checkboxes_in_region(checkboxes, region)
        # each box with its row's mean y: the nearest box carries the
        # row it was found in
        row_boxes = [
            (row["y"], cb) for row in cluster_checkboxes_by_rows(section_boxes) for cb in row["boxes"]
        ]
        for lbl in sec.get("labels", []):
            assigned = False
            positions = label_positions.get(lbl)
            if not positions:
                sec_checkboxes.append(_missing(lbl))
                continue
            for lx, ly in positions:
                if not (y1_effective <= ly <= region["y2"]):
                    continue
                best_distance = None
                best_box = None
                for row_y, cb in row_boxes:
                    dist = abs(cb["y"] - ly) + abs(cb["x"] - lx)
                    if best_distance is None or dist < best_distance:
                        best_distance = dist
                        best_box = cb
                        best_row_y = row_y
                if best_box is not None:
                    if abs(best_row_y - ly) > LABEL_CB_ASSIGN_MAX_DELTA_Y:
                        continue
                    if id(best_box) in used_boxes:
                        continue
                    used_boxes.add(id(best_box))
                    sec_checkboxes.append(
                        {
                            "label": lbl,
                            "status": best_box["status"],
                            "score": best_box["score"],
                            "confidence": best_box.get("score", 0.0),
                            "x": best_box["x"],
                            "y": best_box["y"],
                            "w": best_box.get("w", 0),
                            "h": best_box.get("h", 0),
                            "ref": best_box.get("ref", ""),
                        }
                    )
                    assigned = True
                    break
            if not assigned:
                sec_checkboxes.append(_missing(lbl))
        if any(cb.get("status") != "missing" for cb in sec_checkboxes):
            output_sections.append({"section": sec_name, "checkboxes": sec_checkboxes})
    return output_sections


def _missing(lbl: str) -> dict[str, Any]:
    return {
        "label": lbl,
        "status": "missing",
        "score": 0.0,
        "confidence": 0.0,
        "x": 0,
        "y": 0,
        "w": 0,
        "h": 0,
        "ref": "",
    }
