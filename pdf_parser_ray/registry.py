"""Single registry of every query surface and its DuckDB oracle.

``__ray_entry__`` (the driver contract) and the ``query`` CLI both
read from here, so a query registered once is reachable from the
driver harness, `tools/check_oracle.py`, and the command line alike.
Module imports are individually guarded: a stage with an unmet
optional dependency drops its queries instead of taking down the
whole surface.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_QUERY_MODULES = (
    "pdf_parser_ray.pipelines.prep",
    "pdf_parser_ray.stages.textstats",
    "pdf_parser_ray.stages.dedup",
    "pdf_parser_ray.stages.embed",
    "pdf_parser_ray.stages.boilerplate",
    "pdf_parser_ray.stages.justext",
    "pdf_parser_ray.stages.cascade",
    "pdf_parser_ray.stages.cetr",
    "pdf_parser_ray.stages.bte",
    "pdf_parser_ray.stages.tieragree",
    "pdf_parser_ray.stages.tiereval",
    "pdf_parser_ray.stages.boilerpipe",
    "pdf_parser_ray.stages.nbclassifier",
    "pdf_parser_ray.stages.c4",
    "pdf_parser_ray.stages.layout",
    "pdf_parser_ray.stages.domheur",
    "pdf_parser_ray.stages.media",
    "pdf_parser_ray.stages.scrub",
    "pdf_parser_ray.stages.corpus",
    "pdf_parser_ray.stages.tokenize",
    "pdf_parser_ray.stages.dsir",
    "pdf_parser_ray.stages.zorder",
    "pdf_parser_ray.stages.watermark",
    "pdf_parser_ray.stages.placement",
    "pdf_parser_ray.relational.ranks",
    "pdf_parser_ray.pipelines.ingest",
    "pdf_parser_ray.stages.graph",
    "pdf_parser_ray.stages.linkpred",
    "pdf_parser_ray.relational.analytics",
    "pdf_parser_ray.relational.analytics2",
    "pdf_parser_ray.relational.analytics3",
    "pdf_parser_ray.relational.analytics4",
    "pdf_parser_ray.relational.analytics5",
)


def _collect(attr: str) -> dict:
    import importlib

    out: dict = {}
    for mod_name in _QUERY_MODULES:
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            continue
        out.update(getattr(mod, attr, {}))
    return out


def all_queries() -> dict[str, Callable[[str], Any]]:
    from pdf_parser_ray.relational.ops import QUERIES as REL
    from pdf_parser_ray.pipelines.extract import (
        extract_kind_stats,
        extract_kind_transitions,
        extract_offset_audit,
        extract_span_length_stats,
        flagship,
    )

    out: dict[str, Callable[[str], Any]] = dict(REL)
    out["extract_spans"] = lambda sf_dir: flagship(sf_dir)
    # The same plan with the parse stage in a DocumentExtractor actor
    # pool instead of tasks; row-for-row equal to extract_spans (pinned
    # by TestEntry.test_fused_equals_two_stage). The pool autoscales
    # from 1 — a fixed pool equal to the session's CPU count starves the
    # upstream read task and backpressure-deadlocks small sessions.
    out["extract_spans_staged"] = lambda sf_dir: flagship(sf_dir, concurrency=(1, 8))
    out["extract_kind_stats"] = extract_kind_stats
    out["extract_kind_transitions"] = extract_kind_transitions
    out["extract_span_length_stats"] = extract_span_length_stats
    out["extract_offset_audit"] = extract_offset_audit
    out.update(_collect("QUERIES"))
    return out


def all_oracle_sql() -> dict[str, str]:
    from pdf_parser_ray.relational.ops import ORACLE_SQL as REL
    from pdf_parser_ray.pipelines.extract import ORACLE_SQL as EXTRACT

    out = dict(REL)
    # flagship extraction family: frozen-fixture oracles (the pipeline
    # is pure geometry; see pipelines/extract.py ORACLE_SQL note)
    out.update(EXTRACT)
    out.update(_collect("ORACLE_SQL"))
    return out
