"""The keyed join: the one way a query joins a Dataset to a parquet table.

A relational query joins its fact Dataset to a table by one integer
key through :func:`keyed_join`, and the join, not the query, picks
the plan from the table's parquet footer:

* **Broadcast.** While the columns the join reads fit the budget, the
  table is read once on the driver, filtered, sorted by key and shipped
  to every task with the map; each fact batch probes it with one
  ``searchsorted`` (:func:`probe`). No rows cross an exchange.
* **Exchange.** Past the budget the filtered table and the fact meet in
  one :func:`~.exchange.exchange` on the key, and each bucket joins its
  rows in Arrow.

Both plans keep the same rows and give the same columns: the fact's,
then the attached ones. The size is read from the footer alone, no
data page: for each fixed-width column read, row count × width (and a
validity bit), the Arrow size the driver reads and every task gets;
for each variable-width one, the footer's uncompressed bytes. A
footer's "uncompressed" size keeps parquet's dictionary and RLE
encodings applied, so it understates a fixed-width column: 0.38 MB
against 1.22 MB in Arrow for sf0.1's ``o_custkey``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import util
from .exchange import _has_barrier, exchange

_HOWS = ("inner", "semi", "anti")


def _bits_per_row(schema: pa.Schema, name: str) -> int:
    """Bits per row of a fixed-width Arrow column as the parquet reader
    builds it (the value, plus a validity bit if the field is
    nullable: the reader allocates that bitmap even with no nulls), 0
    for any other column."""
    i = schema.get_field_index(name)
    field = schema.field(i) if i >= 0 else None
    if field is None or pa.types.is_dictionary(field.type):
        return 0
    try:
        return field.type.bit_width + field.nullable
    except ValueError:  # variable width
        return 0


def build_bytes(path: str, columns: Sequence[str]) -> int:
    """Footer-only size of a parquet file's ``columns``, summed over the
    row groups: row count × width for a fixed-width column, the
    footer's uncompressed bytes for any other."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    meta, schema = pf.metadata, pf.schema_arrow
    wanted = set(columns)
    total = 0
    for g in range(meta.num_row_groups):
        rg = meta.row_group(g)
        for i in range(rg.num_columns):
            col = rg.column(i)
            if col.path_in_schema not in wanted:
                continue
            bits = _bits_per_row(schema, col.path_in_schema)
            total += (rg.num_rows * bits + 7) // 8 if bits else col.total_uncompressed_size
    return total


def probe(keys: np.ndarray, fk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``fk`` sits in the sorted ``keys`` and whether it is
    there: ``keys[idx[hit]] == fk[hit]``."""
    if not len(keys):
        return np.zeros(len(fk), np.int64), np.zeros(len(fk), bool)
    idx = np.clip(np.searchsorted(keys, fk), 0, len(keys) - 1)
    return idx, keys[idx] == fk


def session_buckets() -> int:
    """Exchange bucket count sized to the session's CPUs."""
    import ray

    return max(2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2))


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def keyed_join(
    fact,
    sf_dir: str,
    table: str,
    *,
    fact_key: str,
    dim_key: str,
    how: str = "inner",
    cols: Sequence[str] = (),
    dim_filter: Callable[[pa.Table], pa.Table] | None = None,
    filter_cols: Sequence[str] = (),
    budget_bytes: int | None = None,
    n_buckets: int | None = None,
):
    """Join ``fact`` to ``{sf_dir}/{table}.parquet`` on
    ``fact[fact_key] == table[dim_key]`` (integer keys).

    ``how``:

    * ``"inner"`` keeps the fact rows with a match and attaches the
      table's ``cols`` to them. ``dim_key`` must be unique in the
      (filtered) table, as a dimension's key is.
    * ``"semi"`` keeps the fact rows with a match, ``"anti"`` those
      without; neither attaches a column, and the table's key may
      repeat.

    ``dim_filter`` (``pa.Table → pa.Table``, a row filter) runs on the
    table before it meets the fact; ``filter_cols`` names columns it
    reads that are not attached. The table broadcasts while the footer
    size of the columns read is below ``budget_bytes`` (``None`` means
    ``core.util.BROADCAST_BUDGET_BYTES``; ``0`` always exchanges), and
    otherwise meets the fact in an exchange of ``n_buckets`` buckets
    (``None`` sizes it to the session).

    An empty fact or a table filtered empty gives an empty result, not
    an error. The exchange hands each bucket the table's schema from its
    footer and the fact's as Ray knows it: a fact holding a barrier is
    materialized first, and Ray runs a fact built by a map up to its
    first block to learn it."""
    if how not in _HOWS:
        raise ValueError(f"how must be one of {_HOWS}, not {how!r}")
    if how != "inner" and cols:
        raise ValueError(f"a {how} join attaches no columns")
    cols = list(cols)
    read_cols = [dim_key, *cols, *(c for c in filter_cols if c not in cols)]
    path = f"{sf_dir}/{table}.parquet"
    budget = util.BROADCAST_BUDGET_BYTES if budget_bytes is None else budget_bytes
    import pyarrow.parquet as pq

    if build_bytes(path, read_cols) < budget:
        dim = pq.read_table(path, columns=read_cols)
        if dim_filter is not None:
            dim = dim_filter(dim)
        keys = _int64(dim[dim_key])
        if how == "inner":
            order = np.argsort(keys, kind="stable")
            keys, attached = keys[order], dim.select(cols).take(pa.array(order))
        else:
            keys = np.unique(keys)

        def gather(batch: pa.Table) -> pa.Table:
            idx, hit = probe(keys, _int64(batch[fact_key]))
            batch = batch.filter(pa.array(~hit if how == "anti" else hit))
            if cols:
                rows = attached.take(pa.array(idx[hit]))
                for c in cols:
                    batch = batch.append_column(c, rows[c])
            return batch

        return fact.map_batches(gather, batch_format="pyarrow", batch_size=None)

    from ..io.sources import read_table

    footer = pq.read_schema(path)
    kept = [dim_key, *cols]
    dim_schema = pa.schema([pa.field(c, footer.field(c).type) for c in kept])

    def build(b: pa.Table) -> pa.Table:
        if dim_filter is not None:
            b = dim_filter(b)
        if how != "inner":  # only the distinct keys meet the fact
            return pa.table({dim_key: pc.unique(b[dim_key])})
        return b.select(kept)

    def meet(f: pa.Table, d: pa.Table) -> pa.Table:
        # the key types may differ in width; the table's key is not kept
        key = d[dim_key].cast(f.schema.field(fact_key).type)
        if how == "inner":
            d = d.set_column(0, dim_key, key)
            joined = f.join(d, keys=fact_key, right_keys=dim_key, join_type="inner")
            return joined.select(f.column_names + cols)
        hit = pc.is_in(f[fact_key], value_set=key.combine_chunks())
        return f.filter(hit if how == "semi" else pc.invert(hit))

    if _has_barrier(fact):
        fact = fact.materialize()
    known = fact.schema()
    if known is None:  # the fact has no rows: nothing to join
        return fact
    dim = read_table(sf_dir, table, read_cols).map_batches(
        build, batch_format="pyarrow", batch_size=None
    )
    return exchange(
        [(fact, fact_key, known.base_schema), (dim, dim_key, dim_schema)],
        meet,
        n_buckets=session_buckets() if n_buckets is None else n_buckets,
    )

