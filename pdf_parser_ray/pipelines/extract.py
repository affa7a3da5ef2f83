"""Extraction plans over the span table: one row per document,
``(doc_id, spans)``.

The production plan (north star)::

    read_corpus(corpus)                     # one row per document
      → map_batches(DocumentExtractor, …)  # tasks or actor pool, Arrow in/out

:func:`extract_pipeline` attaches the parse stage to any span-table
Dataset. The ``extract`` CLI runs the same ``DocumentExtractor`` inside
``io/checkpoint.py`` ``slice_write``: one task per run of input
slices reads, parses and commits each partition, with no exchange. The registered ``extract_spans*`` queries (:func:`flagship`)
run the same stage over :func:`corpus_from_documents`, which
synthesizes the span table from the input tables' ``documents.parquet``
(ids + text → seeded span documents) inside ``map_batches``: the
sandbox stand-in for the Lance read of a real interleaved corpus, and
the source perfbench writes its corpus from. Every document, giant or
not, is one row folded by one task: its pages run in order.
"""

from __future__ import annotations

import pyarrow as pa

from ..core.config import FormConfig
from ..core.exchange import combine, exchange
from ..stages.parse import PARSE_BATCH, DocumentExtractor


def corpus_from_documents(sf_dir: str, seed: int = 42, multiplier: int = 1):
    """Synthesize the span corpus from the driver's documents table.

    Reads only ``doc_id`` and ``text`` (prune at the read); each row
    becomes one deterministic form document whose answer vocabulary is
    drawn from the row's text — output depends on input content.
    ``multiplier`` emits that many distinct documents per source row
    (suffixed ids, different seeds) — used by the bench to measure
    steady-state throughput at a corpus size where executor ramp-up
    amortizes.
    """
    import ray

    from ..core.schema import DOCUMENT_SCHEMA
    from ..io.sources import read_parquet_clean
    from ..io.synth import gen_document

    def synth_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        doc_ids, spans = [], []
        for i, text in zip(ids, texts):
            vocab = [w for w in (text or "").split() if w][:48] or None
            for k in range(multiplier):
                did = f"doc-{int(i):08d}" if k == 0 else f"doc-{int(i):08d}-{k}"
                doc_ids.append(did)
                spans.append(gen_document(did, seed, vocab=vocab))
        return pa.Table.from_pydict(
            {"doc_id": doc_ids, "spans": spans}, schema=DOCUMENT_SCHEMA
        )

    # The sandbox corpus is ONE parquet file; without an explicit block
    # count the read+synth+parse chain can collapse into one serial
    # task. A production corpus is thousands of Lance fragments and
    # parallelizes at the read; two blocks per CPU (at least 8) restore
    # that shape here (split at the read — no repartition barrier).
    n_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=n_blocks,
    )
    return ds.map_batches(synth_batch, batch_format="pyarrow", batch_size=64)


def extract_pipeline(
    ds,
    config: FormConfig | None = None,
    concurrency: int | tuple[int, int] | None = None,
):
    """Attach the parse stage to a span-corpus Dataset.

    ``concurrency=None`` uses stateless tasks (fully elastic — right
    when the config is cheap to construct, as here); set an int for a
    fixed actor pool of one CPU per actor (right when per-worker setup
    is expensive, e.g. real OCR engines)."""
    kwargs = dict(batch_format="pyarrow", batch_size=PARSE_BATCH)
    if concurrency is not None:
        return ds.map_batches(
            DocumentExtractor,
            fn_constructor_kwargs={"config": config},
            concurrency=concurrency,
            num_cpus=1,
            **kwargs,
        )
    return ds.map_batches(DocumentExtractor(config=config), **kwargs)


def flagship(sf_dir: str, seed: int = 42, concurrency=None, multiplier: int = 1):
    """documents.parquet → synthesized span table → parse stage →
    exploded output span table (doc_id, kind, text, media_ref, offset).

    The ``extract`` CLI's plan (:func:`extract_pipeline`) over
    :func:`corpus_from_documents` instead of ``read_corpus``.
    ``concurrency`` is :func:`extract_pipeline`'s: ``None`` parses in
    stateless tasks (the ``extract_spans`` query), a size or
    ``(min, max)`` range in an actor pool (``extract_spans_staged``).
    ``seed`` and ``multiplier`` are :func:`corpus_from_documents`'.
    """
    corpus = corpus_from_documents(sf_dir, seed, multiplier=multiplier)
    return extract_pipeline(corpus, concurrency=concurrency)


def _fixtures_dir() -> str:
    import os

    return os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "tests", "fixtures")
    )


def fixture_manifest() -> dict:
    """Committed extract-fixture manifest: sf tag → {fixture file,
    corpus signature (n_docs, sum_len_text)}. Written by
    tools/freeze_extract_fixture.py alongside each frozen fixture."""
    import json
    import os

    p = os.path.join(_fixtures_dir(), "extract_fixtures.json")
    if not os.path.exists(p):
        return {}
    with open(p) as f:
        return json.load(f)


def corpus_signature(documents_path: str) -> "tuple[int, int]":
    """(n_docs, sum_len_text) of a documents.parquet — the signature
    that keys fixture selection. sum(length(text)) distinguishes sfs
    whose row counts coincide (sf0.001 and sf0.01 are both 500 docs)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(documents_path, columns=["text"])
    total = pc.sum(pc.utf8_length(pc.coalesce(t["text"], ""))).as_py() or 0
    return t.num_rows, int(total)


def fixture_tag_for(sf_dir: str) -> "str | None":
    """The manifest tag whose frozen corpus signature matches
    ``sf_dir``'s documents table, or None (no committed fixture)."""
    n, s = corpus_signature(f"{sf_dir}/documents.parquet")
    for tag, m in fixture_manifest().items():
        if m["n_docs"] == n and m["sum_len_text"] == s:
            return tag
    return None


def _guarded_fixture_sql(cols: str) -> str:
    """Self-gating fixture oracle: UNION ALL over every committed
    fixture, each branch guarded by the LIVE ``documents`` view's
    corpus signature, so whichever sf the consumer registered selects
    exactly its own fixture. A corpus matching no committed signature
    yields ZERO rows — a loud red row, never a silent comparison
    against the wrong corpus (ADVICE r3, medium). Signature
    uniqueness across tags is asserted at freeze time."""
    import os

    branches = []
    for tag, m in sorted(fixture_manifest().items()):
        path = os.path.join(_fixtures_dir(), m["fixture"])
        if not os.path.exists(path):
            continue
        guard = (
            f"(SELECT COUNT(*) FROM documents) = {m['n_docs']} AND "
            f"(SELECT COALESCE(SUM(LENGTH(text)), 0) FROM documents)"
            f" = {m['sum_len_text']}"
        )
        branches.append(f"SELECT {cols} FROM read_parquet('{path}') WHERE {guard}")
    return " UNION ALL ".join(branches)


# Oracles for the flagship extraction family. The pipeline is pure
# geometry — not SQL-expressible from the base tables — so the oracle
# is a frozen output fixture per sf, produced by
# tools/freeze_extract_fixture.py and selected at query time by the
# live corpus signature (see _guarded_fixture_sql). Semantic
# correctness is pinned independently by the 40-doc golden (strict
# span-sequence equality, tests/test_document.py) and the hypothesis
# equivalence suites; the fixtures extend that pin to the full graded
# corpus, so any kernel drift turns the CORRECTNESS row red instead of
# passing silently as rows-only. Regenerate ONLY after re-validating
# the golden.
_FIXTURE_COLS = 'doc_id, kind, text, media_ref, "offset"'
ORACLE_SQL = (
    {
        "extract_spans": _guarded_fixture_sql(_FIXTURE_COLS),
        # the actor-pool path is row-for-row equal to the task path
        # (pinned by TestEntry.test_fused_equals_two_stage)
        "extract_spans_staged": _guarded_fixture_sql(_FIXTURE_COLS),
        "extract_kind_stats": (
            "SELECT kind, COUNT(*) AS n_spans FROM ("
            + _guarded_fixture_sql(_FIXTURE_COLS)
            + ") GROUP BY kind"
        ),
        "extract_span_length_stats": (
            """
WITH fx AS ("""
            + _guarded_fixture_sql(_FIXTURE_COLS)
            + """),
l AS (SELECT kind, LENGTH(COALESCE(text, '')) AS ln FROM fx),
k AS (SELECT kind, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(ln) AS BIGINT) AS s, CAST(MAX(ln) AS BIGINT) AS mx
      FROM l GROUP BY 1),
r AS (SELECT kind, ln,
             row_number() OVER (PARTITION BY kind ORDER BY ln) AS rn
      FROM l)
SELECT k.kind, k.n AS n_spans, k.s AS sum_len, k.mx AS max_len,
       CAST(MAX(CASE WHEN rn = (k.n - 1) // 2 + 1 THEN ln END) AS BIGINT)
           AS median_len
FROM r JOIN k USING (kind)
GROUP BY k.kind, k.n, k.s, k.mx
"""
        ),
        "extract_kind_transitions": (
            """
WITH fx AS ("""
            + _guarded_fixture_sql(_FIXTURE_COLS)
            + """),
lagged AS (
    SELECT kind,
           LAG(kind) OVER (PARTITION BY doc_id ORDER BY "offset") AS prev
    FROM fx)
SELECT prev AS kind_from, kind AS kind_to,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM lagged WHERE prev IS NOT NULL
GROUP BY 1, 2
"""
        ),
        "extract_offset_audit": (
            """
WITH fx AS ("""
            + _guarded_fixture_sql(_FIXTURE_COLS)
            + """),
per AS (
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n,
           MIN("offset") AS mn, MAX("offset") AS mx
    FROM fx GROUP BY doc_id)
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n) AS BIGINT) AS n_spans,
       CAST(SUM(CASE WHEN mn = 0 AND n = mx + 1 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_dense_docs,
       CAST(SUM(CASE WHEN mn = 0 AND n = mx + 1 THEN 0 ELSE 1 END)
            AS BIGINT) AS n_sparse_docs
FROM per
"""
        ),
    }
    if fixture_manifest()
    else {}
)


def extract_kind_stats(sf_dir: str):
    """Metrics rollup over the flagship output: span counts per output
    kind — the queryable replacement for the reference's stdout
    diagnostics (SURVEY.md §2.5 note), implemented as the standard
    partial-agg pattern over the streaming output."""
    from ray.data.aggregate import Count

    return flagship(sf_dir).groupby("kind").aggregate(Count(alias_name="n_spans"))


def extract_offset_audit(sf_dir: str, n_buckets: int = 32, _spans=None):
    """Span-sequence integrity monitor over the flagship output — the
    north rule's ordering invariant (kind, text, media_ref, ORDER) as
    a production data-quality check: per document, is the ``offset``
    column a dense 0..n−1 sequence? Emits one row:
    ``(n_docs, n_spans, n_dense_docs, n_sparse_docs)``. A non-zero
    sparse count after any pipeline change means span identity or
    ordering drifted — the first alarm a span-consuming trainer needs
    (offset uniqueness per doc is a pipeline construction invariant;
    this audits density: min = 0 and count = max + 1).

    Shape: per-batch per-doc (n, min, max) partials → ONE coarse
    doc-bucket exchange (a doc's spans normally sit in one task's
    output, but the audit must not ASSUME that, so partials re-merge
    per doc) → per-bucket density verdicts pre-aggregated → a ≤
    buckets-row final fold. Span text never moves — only three ints
    per (doc, block)."""
    import numpy as np
    import pandas as pd

    # _spans: test injection point — a (doc_id, offset, ...) Dataset
    # standing in for the flagship output, so the SPARSE detection
    # path is exercisable without corrupting a real pipeline.
    spans = flagship(sf_dir) if _spans is None else _spans

    def partial(batch: pa.Table) -> pa.Table:
        off = batch["offset"].cast(pa.int64())
        t = pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.string()),
                "n": np.ones(batch.num_rows, np.int64),
                "mn": off,
                "mx": off,
            }
        )
        return combine(t, "doc_id", {"n": "sum", "mn": "min", "mx": "max"})

    def verdicts(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        per = g.groupby("doc_id", sort=False).agg(
            n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max")
        )
        dense = (per["mn"] == 0) & (per["n"] == per["mx"] + 1)
        return pa.table(
            {
                "n_docs": pa.array([len(per)], pa.int64()),
                "n_spans": pa.array([int(per["n"].sum())], pa.int64()),
                "n_dense_docs": pa.array([int(dense.sum())], pa.int64()),
                "n_sparse_docs": pa.array([int((~dense).sum())], pa.int64()),
            }
        )

    keyed = spans.map_batches(partial, batch_format="pyarrow", batch_size=None)
    per_bucket = (
        exchange([(keyed, "doc_id")], verdicts, n_buckets=n_buckets)
        .to_pandas()  # bounded: ≤ n_buckets verdict rows
    )
    return pd.DataFrame(
        {c: [int(per_bucket[c].sum())] for c in
         ("n_docs", "n_spans", "n_dense_docs", "n_sparse_docs")}
    ).astype(np.int64)


def extract_kind_transitions(sf_dir: str, n_buckets: int = 32, _spans=None):
    """Reading-order span-KIND transition matrix over the flagship
    output: counts of (kind → next kind) over offset-adjacent span
    pairs within each document — the structural profile of extracted
    documents (how often text flows into a table, a figure interrupts
    prose, media runs back-to-back). A drifting matrix after a parser
    change flags layout-recovery regressions that per-kind COUNTS
    (:func:`extract_kind_stats`) cannot see, because it audits the
    north rule's ORDER dimension, not just span identity.

    Shape: spans exchange on doc_id into B coarse buckets carrying
    only (doc_id, kind, offset) — text/media_ref never move —
    each bucket sorts (doc, offset) once and counts its same-doc
    shifted pairs vectorized into ≤ kinds² cells; a tiny (from, to)
    groupby merges buckets. Oracle: ``LAG(kind) OVER (PARTITION BY
    doc_id ORDER BY offset)`` over the frozen fixture.
    """
    import numpy as np
    import pandas as pd
    from ray.data.aggregate import Sum

    spans = flagship(sf_dir) if _spans is None else _spans

    def rekey(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"], "kind": batch["kind"], "off": batch["offset"]})

    _cell_schema = pa.schema(
        [("kind_from", pa.string()), ("kind_to", pa.string()),
         ("n", pa.int64())]
    )

    def cells_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["doc_id", "off"], kind="stable")
        doc = g["doc_id"].to_numpy()
        kind = g["kind"].to_numpy()
        same = doc[1:] == doc[:-1]
        agg = (
            pd.DataFrame(
                {"kind_from": kind[:-1][same], "kind_to": kind[1:][same]}
            )
            .groupby(["kind_from", "kind_to"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "kind_from": pa.array(agg["kind_from"].tolist(), pa.string()),
                "kind_to": pa.array(agg["kind_to"].tolist(), pa.string()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            },
            schema=_cell_schema,
        )

    keyed = spans.map_batches(rekey, batch_format="pyarrow", batch_size=None)
    return (
        exchange([(keyed, "doc_id")], cells_bucket, n_buckets=n_buckets)
        .groupby(["kind_from", "kind_to"])
        .aggregate(Sum("n", alias_name="n_pairs"))
    )


def extract_span_length_stats(sf_dir: str, _spans=None):
    """Per-KIND span text-length profile over the flagship output:
    count, total/max length and the lower-median length — the size
    fingerprint of extracted structure (text spans shrinking while
    media refs grow means boilerplate leaking into spans; a median
    collapse flags truncation bugs the per-kind counts miss). Third
    flagship monitor beside :func:`extract_kind_stats` (identity) and
    :func:`extract_kind_transitions` (order).

    Shape: per-batch (kind, length → n) value-count partials — span
    text reduces to its length before anything ships — then ONE
    (kind, length) groupby whose key space is bounded by kinds ×
    distinct lengths, and a driver fold over those cells (the
    trimmed-mean value-count pattern). Oracle: row_number window over
    the frozen fixture.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    spans = flagship(sf_dir) if _spans is None else _spans

    def partial(batch: pa.Table) -> pa.Table:
        # a block whose texts are all null types the column null
        ln = pc.fill_null(pc.utf8_length(batch["text"].cast(pa.string())), 0).cast(pa.int64())
        t = pa.table(
            {"kind": batch["kind"].cast(pa.string()), "ln": ln, "n": np.ones(batch.num_rows, np.int64)}
        )
        return combine(t, ["kind", "ln"], "sum")

    cells = (
        spans.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["kind", "ln"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤ kinds × distinct-lengths rows
    )
    out = []
    for kind, g in cells.groupby("kind", sort=True):
        g = g.sort_values("ln", kind="stable")
        ln = g["ln"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        total = int(n.sum())
        cum = np.cumsum(n)
        med = int(ln[np.searchsorted(cum, (total - 1) // 2, side="right")])
        out.append(
            (str(kind), total, int((ln * n).sum()), int(ln.max()), med)
        )
    return pd.DataFrame(
        out, columns=["kind", "n_spans", "sum_len", "max_len", "median_len"]
    ).astype({c: np.int64 for c in ("n_spans", "sum_len", "max_len",
                                    "median_len")})
