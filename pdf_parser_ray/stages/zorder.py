"""Z-order (Morton-curve) layout clustering — the storage-layout
optimizer lakehouse engines ship as ``OPTIMIZE ... ZORDER BY`` (Delta)
or ``rewrite_data_files(strategy='sort', sort_order=zorder(...))``
(Iceberg).

At 100 TB the single biggest lever on scan cost is not the scan — it
is what the scan can SKIP. Z-ordering co-locates rows that are close
in a multi-dimensional key space into the same file, so per-file
zone maps (min/max per column) become selective for predicates on ANY
of the interleaved dimensions, not just the leading sort key. This
module computes exactly that artifact: the per-cell zone-map table
(row count + min/max of each dimension per Z-cell), i.e. the pruning
statistics a Z-ordered rewrite of ``lineitem`` on
``(l_partkey, l_suppkey)`` would produce, one cell per output file.

Scale shape (two passes, both cheap):

1. **Domain probe** — one ``Max`` aggregate per dimension (a
   column-pruned scan; at production scale this comes free from the
   Parquet/Lance footer statistics instead).
2. **Zone-map build** — per-batch vectorized grid-normalize +
   bit-interleave (numpy magic-mask spreading, no Python loop), then a
   per-batch partial aggregate so the single ``groupby(cell)``
   exchange carries at most ``cells × blocks`` fixed-width rows —
   never lineitems. With ``CELL_BITS = 5`` per dimension that is a
   1,024-cell table regardless of input size.

The module does not rewrite the table: it surfaces the deterministic,
oracle-checkable part (the layout statistics), which is what an
operator would inspect to decide whether a rewrite pays.

Reference parity: the reference engine (a single-machine PDF-form
parser, ``/root/reference``) has no storage layer; this is an engine
addition for the 100 TB lakehouse surface (SURVEY.md §2.11
extensions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.exchange import combine
from ..io.sources import read_table

_BITS = 16  # per-dimension grid resolution (2^16 cells per axis)
_CELL_BITS = 5  # top bits per dimension that define a layout cell
_CELL_SHIFT = 2 * (_BITS - _CELL_BITS)  # zval >> 22 → 10-bit cell id


def _footer_max(path: str, columns: list[str]) -> list | None:
    """Exact per-column max from the Parquet footer (row-group
    statistics), no data scan — the production domain probe (Lance
    fragments carry the same stats). Numeric column statistics are
    exact by the format spec and returned UNCONVERTED (int columns
    yield ints, double columns doubles — callers own the rounding
    direction; truncating a double max here would understate the
    domain). Returns ``None`` if any statistic is absent so the
    caller can fall back to a real aggregate."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
    maxes: list = []
    for name in columns:
        best = None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx[name]).statistics
            if st is None or not st.has_min_max:
                return None
            best = st.max if best is None else max(best, st.max)
        if best is None:
            return None
        maxes.append(best)
    return maxes


def _footer_min(path: str, columns: list[str]) -> list | None:
    """Exact per-column MIN from the Parquet footer — the mirror of
    :func:`_footer_max` (same statistics contract, same ``None``
    fallback signal)."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
    mins: list = []
    for name in columns:
        best = None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx[name]).statistics
            if st is None or not st.has_min_max:
                return None
            best = st.min if best is None else min(best, st.min)
        if best is None:
            return None
        mins.append(best)
    return mins


def _spread16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of ``v`` onto the even bit positions of
    a 32-bit lane (classic Morton magic masks) — fully vectorized."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def morton16(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit grid coordinates into the 32-bit Morton
    (Z-order) value; ``gx`` occupies even bits, ``gy`` odd bits."""
    return (_spread16(gx) | (_spread16(gy) << np.uint64(1))).astype(np.int64)


def q_zorder_layout(sf_dir: str):
    """Zone-map table of a Z-ordered layout of ``lineitem`` on
    ``(l_partkey, l_suppkey)``: one row per Z-cell with the row count
    and per-dimension min/max — the statistics that make multi-column
    predicate pruning work after a ZORDER rewrite.

    Grid-normalize each key to 16 bits via
    ``g = (key << 16) // (max_key + 1)`` (exact integer scaling so the
    SQL oracle replays it bit-for-bit), interleave with magic-mask
    spreading, and take the top ``2 × 5`` interleaved bits as the cell
    id. Output columns: ``cell, n_rows, min_partkey, max_partkey,
    min_suppkey, max_suppkey``."""
    from ray.data.aggregate import Max, Min, Sum

    ds = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    stats = _footer_max(
        f"{sf_dir}/lineitem.parquet", ["l_partkey", "l_suppkey"]
    )
    if stats is not None:
        max_pk, max_sk = int(stats[0]), int(stats[1])  # int columns
    else:  # footer lacks statistics — pay one column-pruned scan
        mx = ds.aggregate(Max("l_partkey"), Max("l_suppkey"))
        max_pk = int(mx["max(l_partkey)"])
        max_sk = int(mx["max(l_suppkey)"])

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = (pk << _BITS) // (max_pk + 1)
        gy = (sk << _BITS) // (max_sk + 1)
        cell = morton16(gx, gy) >> _CELL_SHIFT
        t = pa.table(
            {
                "cell": cell.astype(np.int64),
                "n_rows": np.ones(len(pk), np.int64),
                "min_partkey": pk,
                "max_partkey": pk,
                "min_suppkey": sk,
                "max_suppkey": sk,
            }
        )
        how = {
            "n_rows": "sum",
            "min_partkey": "min",
            "max_partkey": "max",
            "min_suppkey": "min",
            "max_suppkey": "max",
        }
        return combine(t, "cell", how)

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("cell")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Min("min_partkey", alias_name="min_partkey"),
            Max("max_partkey", alias_name="max_partkey"),
            Min("min_suppkey", alias_name="min_suppkey"),
            Max("max_suppkey", alias_name="max_suppkey"),
        )
    )


# The bit interleave as pure integer SQL: positive disjoint summands,
# so `+` equals `|`; `//` on non-negatives matches numpy's shifts.
_ZEXPR = " + ".join(
    f"(((gx >> {i}) & 1) << {2 * i}) + (((gy >> {i}) & 1) << {2 * i + 1})"
    for i in range(_BITS)
)

_SQL_ZORDER = f"""
WITH mx AS (SELECT CAST(MAX(l_partkey) AS BIGINT) AS mp,
                   CAST(MAX(l_suppkey) AS BIGINT) AS ms
            FROM lineitem),
g AS (SELECT l_partkey, l_suppkey,
             (l_partkey * {1 << _BITS}) // (mp + 1) AS gx,
             (l_suppkey * {1 << _BITS}) // (ms + 1) AS gy
      FROM lineitem, mx),
z AS (SELECT l_partkey, l_suppkey, ({_ZEXPR}) AS zval FROM g)
SELECT CAST(zval // {1 << _CELL_SHIFT} AS BIGINT) AS cell,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(MIN(l_partkey) AS BIGINT) AS min_partkey,
       CAST(MAX(l_partkey) AS BIGINT) AS max_partkey,
       CAST(MIN(l_suppkey) AS BIGINT) AS min_suppkey,
       CAST(MAX(l_suppkey) AS BIGINT) AS max_suppkey
FROM z
GROUP BY 1
"""


def q_zorder_prune_stats(sf_dir: str):
    """Pruning effectiveness of the Z-ordered layout: for a uniformly
    random point predicate on EACH dimension, the expected number of
    cells a zone-map-pruned scan must read is
    ``Σ_cells (max_d − min_d + 1) / |domain_d|`` — the sum of each
    cell's chance of covering the probe value. Emitted per dimension
    in exact ppm of the total cell count (``expected_cells_ppm =
    Σ_cells ⌊(span·10⁶)/domain⌋ // n_cells``, every step integer so
    the oracle replays it bit-for-bit), alongside the cell and row
    counts. This single table is the evidence a ZORDER rewrite pays:
    BOTH dimensions land far below 10⁶ ppm, where a single-column sort
    leaves the non-leading dimension at ~10⁶ (every cell spans the
    full domain).

    Plan: one bounded fold over :func:`q_zorder_layout`'s ≤1,024-cell
    output (per-batch integer partials → a 2-row read-off); the SQL
    twin composes the full zorder layout query as a CTE (the house
    oracle-composition pattern)."""
    from ray.data.aggregate import Sum

    cells = q_zorder_layout(sf_dir)
    stats = _footer_max(
        f"{sf_dir}/lineitem.parquet", ["l_partkey", "l_suppkey"]
    )
    if stats is not None:
        max_pk, max_sk = int(stats[0]), int(stats[1])  # int columns
    else:  # pragma: no cover - fixture footers always carry stats
        from ray.data.aggregate import Max

        li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
        mx = li.aggregate(Max("l_partkey"), Max("l_suppkey"))
        max_pk, max_sk = int(mx["max(l_partkey)"]), int(mx["max(l_suppkey)"])

    def partials(batch: pa.Table) -> pa.Table:
        n = len(batch)
        rows = batch["n_rows"].to_numpy(zero_copy_only=False)
        out = []
        for dim, lo, hi, dom in (
            ("l_partkey", "min_partkey", "max_partkey", max_pk),
            ("l_suppkey", "min_suppkey", "max_suppkey", max_sk),
        ):
            span = (
                batch[hi].to_numpy(zero_copy_only=False)
                - batch[lo].to_numpy(zero_copy_only=False)
                + 1
            )
            out.append(
                (dim, int((span * 1_000_000 // dom).sum()), n, int(rows.sum()))
            )
        return pa.table(
            {
                "dim": pa.array([r[0] for r in out], pa.string()),
                "cover_ppm_sum": pa.array([r[1] for r in out], pa.int64()),
                "n_cells": pa.array([r[2] for r in out], pa.int64()),
                "n_rows": pa.array([r[3] for r in out], pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        cover = batch["cover_ppm_sum"].to_numpy(zero_copy_only=False)
        nc = batch["n_cells"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dim": batch["dim"],
                "n_cells": batch["n_cells"],
                "n_rows": batch["n_rows"],
                "expected_cells_ppm": pa.array(cover // nc, pa.int64()),
            }
        )

    return (
        cells.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("dim")
        .aggregate(
            Sum("cover_ppm_sum", alias_name="cover_ppm_sum"),
            Sum("n_cells", alias_name="n_cells"),
            Sum("n_rows", alias_name="n_rows"),
        )
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
        .select_columns(["dim", "n_cells", "n_rows", "expected_cells_ppm"])
    )


_SQL_PRUNE = f"""
WITH cells AS ({_SQL_ZORDER}),
mx AS (SELECT CAST(MAX(l_partkey) AS BIGINT) AS mp,
              CAST(MAX(l_suppkey) AS BIGINT) AS ms
       FROM lineitem),
d AS (SELECT 'l_partkey' AS dim,
             CAST(SUM((max_partkey - min_partkey + 1) * 1000000 // mp)
                  AS BIGINT) AS cover_ppm_sum,
             CAST(COUNT(*) AS BIGINT) AS n_cells,
             CAST(SUM(n_rows) AS BIGINT) AS n_rows
      FROM cells, mx GROUP BY mp
      UNION ALL
      SELECT 'l_suppkey' AS dim,
             CAST(SUM((max_suppkey - min_suppkey + 1) * 1000000 // ms)
                  AS BIGINT) AS cover_ppm_sum,
             CAST(COUNT(*) AS BIGINT) AS n_cells,
             CAST(SUM(n_rows) AS BIGINT) AS n_rows
      FROM cells, mx GROUP BY ms)
SELECT dim, n_cells, n_rows,
       CAST(cover_ppm_sum // n_cells AS BIGINT) AS expected_cells_ppm
FROM d
"""


QUERIES = {
    "zorder_layout": q_zorder_layout,
    "zorder_prune_stats": q_zorder_prune_stats,
}

ORACLE_SQL = {
    "zorder_layout": _SQL_ZORDER,
    "zorder_prune_stats": _SQL_PRUNE,
}
