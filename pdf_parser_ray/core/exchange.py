"""The co-partitioned exchange: the one place two or more Datasets meet.

Every wide join, semi join and co-grouped fold in the engine moves its
sides through :func:`exchange`. One module decides the routing (an
integer key goes to ``key % n_buckets``, any other key to
``core.util.hash_bucket``), how the sides are told apart on the wire,
and what a fold sees when a side has no rows in a bucket.

On the wire each input batch becomes ``n_buckets`` rows
``(bucket, side, rows)``: ``rows`` holds the batch's rows for that
bucket as one Arrow IPC stream, its own schema included. One sort-based
``groupby(bucket).map_groups`` barrier moves them, and the fold gets
one Arrow table per side rebuilt from its own streams. No side's
columns are ever padded into another side's schema, so an int64
payload stays int64 — a null-padded pandas column would float and
corrupt wide ints — and a side with no rows in a bucket still arrives
as an empty table with that side's schema.

A side with no rows anywhere sends no stream, so the fold gets that
side's schema from the driver: the schema the side states as the
third element of its tuple, or else the one Ray knows without running
the side (a plain read's, or a materialized side's that has rows).
Ray knows none of a side built by a map or a fold, and running the
side would not tell it either: Ray Data never hands an empty batch to
a UDF, so a map over an input that was filtered empty leaves no block
behind. Such a side therefore states its schema. A side that states
none and of which Ray knows none raises ``ValueError`` while the
exchange is built; a side whose rows do not carry the column names
it states raises in the fold's task.

Building a multi-sided exchange executes part of its inputs: a side
whose plan already holds a barrier (a sort, groupby or repartition)
is materialized, on the driver, before the sides are unioned. Ray
Data runs a barrier's sample/map/reduce tasks synchronously inside
the executor's scheduling loop; with another side still streaming,
that side's task can hold the session's last CPU while it waits for
the loop to take its output, and the barrier's tasks never start. In
a 1-CPU session ``near_dup_pairs`` hung exactly so: the LSH band
groupby sat in one branch of the union while the corpus read held
the CPU in the other.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa


def _route(key: pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    if pa.types.is_integer(key.type):
        k = key.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        return k % n_buckets
    from .util import hash_bucket

    return np.fromiter(
        (hash_bucket(v, n_buckets) for v in key.to_pylist()), np.int64, len(key)
    )


def _has_barrier(ds) -> bool:
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll,
    )

    ops = [ds._logical_plan.dag]
    while ops:
        op = ops.pop()
        if isinstance(op, AbstractAllToAll):
            return True
        ops.extend(op.input_dependencies)
    return False


def _schema(ds, side: int) -> pa.Schema:
    """The Arrow schema of ``ds``'s rows, if Ray knows it without
    running ``ds``."""
    s = ds.schema(fetch_if_missing=False)
    if s is None or not isinstance(s.base_schema, pa.Schema):
        raise ValueError(
            f"Ray knows no Arrow schema of exchange side {side} without running it: "
            "give the side as (dataset, key, schema)"
        )
    return s.base_schema


def _to_ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _from_ipc(blob: bytes) -> pa.Table:
    return pa.ipc.open_stream(blob).read_all()


def exchange(
    sides: Sequence[tuple],
    fold: Callable[..., object],
    *,
    n_buckets: int = 32,
):
    """Co-partition ``sides`` by key and fold each bucket once.

    ``sides`` is a sequence of ``(dataset, key_column)`` or
    ``(dataset, key_column, schema)`` tuples; ``schema`` is the
    ``pa.Schema`` of the side's rows (see the module docstring for
    when a side must state it). Rows of every side whose keys share a
    bucket meet in one call ``fold(t0, t1, ...)``, one ``pa.Table`` per
    side in ``sides`` order, each with only that side's columns and
    types. A bucket where a side has no rows hands that side an empty
    table of its schema, also when the side has no rows anywhere.
    ``fold`` returns a block (``pa.Table`` or pandas frame); it is also
    called for buckets where every side is empty, so it must give empty
    output explicit column types. With more than one side, building
    the exchange materializes each side that holds a barrier.

    A caller whose bucket is not a function of one key column packs
    the extra part into the key it hands over (a salted join routes on
    ``(key % B) * S + salt`` with ``n_buckets = B * S``)."""
    n_sides = len(sides)
    buckets = pa.array(np.arange(n_buckets, dtype=np.int64))

    def tagger(side: int, key: str):
        tag = pa.array(np.full(n_buckets, side, np.int8))

        def split(b: pa.Table) -> pa.Table:
            bucket = _route(b[key], n_buckets)
            order = np.argsort(bucket, kind="stable")
            bounds = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
            b = b.take(pa.array(order))
            rows = [_to_ipc(b.slice(lo, hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:])]
            return pa.table(
                {"bucket": buckets, "side": tag, "rows": pa.array(rows, pa.large_binary())}
            )

        return split

    stated = [s[2] if len(s) > 2 else None for s in sides]
    sides = [(s[0], s[1]) for s in sides]
    # a lone side is folded only in the buckets it sends rows to
    schemas = stated
    if n_sides > 1:
        sides = [(ds.materialize() if _has_barrier(ds) else ds, key) for ds, key in sides]
        schemas = [
            schema if schema is not None else _schema(ds, i)
            for i, ((ds, _), schema) in enumerate(zip(sides, stated))
        ]
    tagged = [
        ds.map_batches(tagger(i, key), batch_format="pyarrow", batch_size=None)
        for i, (ds, key) in enumerate(sides)
    ]
    wire = tagged[0].union(*tagged[1:]) if n_sides > 1 else tagged[0]

    def meet(g: pa.Table):
        side = g["side"].to_numpy(zero_copy_only=False)
        rows = g["rows"].to_pylist()
        tables = []
        for i in range(n_sides):
            parts = [_from_ipc(rows[j]) for j in np.flatnonzero(side == i)]
            if parts and stated[i] is not None and parts[0].column_names != stated[i].names:
                raise ValueError(
                    f"exchange side {i} sends columns {parts[0].column_names}, "
                    f"states {stated[i].names}"
                )
            tables.append(
                pa.concat_tables(parts, promote_options="permissive")
                if parts
                else schemas[i].empty_table()
            )
        return fold(*tables)

    return wire.groupby("bucket").map_groups(meet, batch_format="pyarrow")
