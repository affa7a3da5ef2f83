"""The keyed exchange: the one path by which rows move to a bucket fold.

Every wide join, semi join and co-grouped fold in the engine moves its
sides through :func:`exchange`, and so does every single-sided fold
over coarse key buckets (a per-user window scan, a per-term count, a
dedup by fingerprint): one side, one key, one fold per bucket. One
module decides the routing (an integer key goes to ``key % n_buckets``,
any other key to ``core.util.hash_bucket`` of each distinct value), how
the sides are told apart on the wire, and what a fold sees when a side
has no rows in a bucket. A fold keyed on a natural value that must see
one group alone (a priority, a year, one global group) stays a plain
``groupby(column).map_groups``.

On the wire each input batch becomes one row ``(bucket, side, rows)``
per bucket it has rows for: ``rows`` holds the batch's rows for that
bucket as one Arrow IPC stream, its own schema included. A bucket
slice with no rows sends nothing, so a fold is called only for
buckets where some side has rows, and every call holds at least one
row. One sort-based ``groupby(bucket).map_groups`` barrier moves the
streams, and the fold gets one Arrow table per side rebuilt from its
own streams. No side's columns are ever padded into another side's
schema, so an int64 payload stays int64 — a null-padded pandas column
would float and corrupt wide ints — and a side with no rows in a
bucket that another side has rows in arrives as an empty table with
that side's schema.

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

An iterative query (label propagation, PageRank, HITS) runs each of
its rounds as one :func:`message_round`: two exchanges over a
materialized static side and a small ``(node, val)`` state.

Every per-batch partial aggregate, the map-side combiner in front of
an exchange or a ``groupby``, is one :func:`combine` call: it folds
the batch to one row per key in Arrow before the batch's rows ship.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _route(key: pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    if pa.types.is_integer(key.type):
        k = key.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        return k % n_buckets
    from .util import hash_bucket

    # hash each distinct value once, then spread the hashes to the rows
    d = pc.dictionary_encode(key.combine_chunks(), null_encoding="encode")
    values = d.dictionary.to_pylist()
    per_value = np.fromiter((hash_bucket(v, n_buckets) for v in values), np.int64, len(values))
    return per_value[d.indices.to_numpy(zero_copy_only=False)]


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
    types. ``fold`` is called only for buckets where some side has
    rows; a side with no rows in such a bucket gets an empty table of
    its schema, also when the side has no rows anywhere. A lone side's
    fold therefore always gets at least one row, as
    ``groupby().map_groups`` gives. ``fold`` returns a block
    (``pa.Table``, pandas frame or dict of columns); a fold that works
    in pandas calls ``.to_pandas()`` on its table. With more than one
    side, building the exchange materializes each side that holds a
    barrier.

    A caller whose bucket is not a function of one key column packs
    the extra part into the key it hands over (a salted join routes on
    ``(key % B) * S + salt`` with ``n_buckets = B * S``; a fold over
    (source, segment) pairs hands over one crc32 of both). A key that
    already names a bucket below ``n_buckets`` (a value-range bucket,
    a crc32 bucket a shared helper emits) is its own bucket."""
    n_sides = len(sides)

    def tagger(side: int, key: str):
        def split(b: pa.Table) -> pa.Table:
            bucket = _route(b[key], n_buckets)
            order = np.argsort(bucket, kind="stable")
            bounds = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
            b = b.take(pa.array(order))
            # an empty slice sends no stream: a fold is called only for
            # buckets where some side has rows
            sent = np.flatnonzero(bounds[1:] > bounds[:-1])
            rows = [_to_ipc(b.slice(bounds[i], bounds[i + 1] - bounds[i])) for i in sent]
            return pa.table(
                {
                    "bucket": pa.array(sent, pa.int64()),
                    "side": pa.array(np.full(len(sent), side, np.int8)),
                    "rows": pa.array(rows, pa.large_binary()),
                }
            )

        return split

    stated = [s[2] if len(s) > 2 else None for s in sides]
    sides = [(s[0], s[1]) for s in sides]
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


_STATE = pa.schema({"node": pa.int64(), "val": pa.int64()})


def combine(table: pa.Table, keys: str | Sequence[str], how: str | dict[str, str]) -> pa.Table:
    """Fold ``table`` to one row per distinct key: the partial aggregate
    a task takes of its batch before the batch's rows ship.

    Every non-key column is aggregated by ``how``, one Arrow hash
    aggregation name (``"sum"``, ``"min"``, ``"max"``) or a column →
    name map. Each column keeps its name, the keys come first, and a
    row whose key is null is dropped (pandas' ``groupby`` default). The
    fold runs on one thread, so groups come out in first-seen order."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    for k in keys:
        if table[k].null_count:
            table = table.filter(pc.is_valid(table[k]))
    values = [c for c in table.column_names if c not in keys]
    hows = how if isinstance(how, dict) else dict.fromkeys(values, how)
    g = table.group_by(keys, use_threads=False).aggregate([(c, hows[c]) for c in values])
    return pa.table({**{k: g[k] for k in keys}, **{c: g[f"{c}_{hows[c]}"] for c in values}})


def message_round(static, key: str, state, send, how: str, *, n_buckets: int):
    """One synchronous message-passing round of an iterative query.

    ``static`` is a materialized Dataset every round reuses (an edge
    set, an adjacency), keyed by its integer column ``key``; ``state``
    is the current ``(node, val)`` int64 table, one row per node, or
    ``None`` in the first round. One exchange meets each bucket's
    static rows with the state rows whose ``node`` equals their
    ``key``, and ``send(static_rows, state_rows)`` (``state_rows`` is
    ``None`` in the first round) turns them into ``(node, val)`` int64
    messages. :func:`combine` by ``how`` (``"sum"`` or ``"min"``)
    folds each task's messages per node before they ship, as a Pregel
    combiner does, and again where a second exchange meets them by
    ``node``. The result, the next state, is capped at ``n_buckets``
    blocks and materialized: a shuffle emits one block per input
    block, so an uncapped state would feed its block count into the
    next round and compound it.

    k-core and BFS keep their own loops: their state is the edge set
    itself, or a frontier on the driver, not a value per node."""
    if how not in ("sum", "min"):
        raise ValueError(f"message_round combines by 'sum' or 'min', not {how!r}")
    sides = [(static, key)] + ([(state, "node", _STATE)] if state is not None else [])

    def emit(rows: pa.Table, *st: pa.Table) -> pa.Table:
        return combine(send(rows, st[0] if st else None), "node", how)

    msgs = exchange(sides, emit, n_buckets=n_buckets)
    return (
        exchange([(msgs, "node")], lambda m: combine(m, "node", how), n_buckets=n_buckets)
        .repartition(n_buckets)
        .materialize()
    )
