"""Iterative graph analytics over relational link data.

The engine already covers iterative-broadcast learning (k-means,
``stages/embed.py``); this module adds the OTHER iterative shape a
100 TB pipeline needs: **edge-partitioned message passing**, where
per-iteration state lives in the object store as a Dataset (never on
the driver). PageRank and HITS run every round as one
:func:`~pdf_parser_ray.core.exchange.message_round`: the edge set is
materialized once, and each round's two exchanges carry a per-node
state and pre-combined messages, never the graph; the state stays at
most ``n_buckets`` blocks. k-core keeps its own loop, because its
state is the edge set itself.

PageRank is the canonical instance — and a real training-data signal:
link-graph centrality is a classic web-corpus quality prior (pages
with high rank are crawled deeper and weighted higher in public
corpus recipes). Here the graph is the customer↔supplier purchase
graph induced by ``lineitem ⋈ orders``, so the whole computation
carries an exact DuckDB oracle (the recursion unrolled as one CTE per
iteration).

All rank arithmetic is int64 fixed-point micro-units with floor
division — bit-identical on numpy and DuckDB, so an ITERATIVE
approximate algorithm still hash-matches its oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import exchange, message_round
from ..io.sources import read_table

N_ITER = 5
DAMP_NUM = 850_000  # 0.85 in micro-units
BASE = 150_000      # (1 − 0.85) in micro-units
R0 = 1_000_000      # initial rank: 1.0 per node (unnormalised)


# the exchange schemas of the order-supplier pair side and of a
# wedge or edge key side
_ORDER_SUPP = pa.schema({"l_orderkey": pa.int64(), "l_suppkey": pa.int64()})
_KEY = pa.schema({"key": pa.int64()})


def _distinct_order_supp(lineitem):
    """Per-batch distinct ``(l_orderkey, l_suppkey)`` pairs: the
    lineitem side of the orderkey exchange carries pairs, never
    lines."""

    def distinct(b: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(b.to_pandas().drop_duplicates(), preserve_index=False)

    return lineitem.map_batches(distinct, batch_format="pyarrow", batch_size=None)


def q_purchase_pagerank(sf_dir: str, n_buckets: int = 16):
    """PageRank (damping 0.85, 5 synchronous iterations) over the
    bipartite purchase graph: customer node ``2·custkey`` ↔ supplier
    node ``2·suppkey + 1`` whenever a line item links them through an
    order, symmetrised to an undirected graph.

    Stage shape, built for a graph that doesn't fit anywhere:

    1. **Edge build** — the ``q_customer_supplier_reach`` fact-to-fact
       template: lineitem batches emit per-batch-distinct
       ``(orderkey, suppkey)``, orders emit ``(orderkey, custkey)``,
       one orderkey-bucket exchange rewrites to ``(cust, supp)``.
    2. **Adjacency finalise** — a src-bucket exchange dedups each
       ``(src, dst)`` globally (both directions of a pair land in
       their own src bucket) and computes ``deg(src)`` in the same
       partition. The result is materialized ONCE — the adjacency is
       reused by all iterations, and the pin is O(edges), spillable.
    3. **Per iteration (×5)** — one
       :func:`~pdf_parser_ray.core.exchange.message_round`: ranks meet
       the adjacency by src (the first iteration needs no rank side:
       every node starts at ``R0``), and the per-edge ``contrib =
       (r·850000) // (1000000·deg)`` messages, summed per dst inside
       each task, meet by dst and sum into the next rank vector
       (materialized, at most ``n_buckets`` blocks, never
       driver-side); ``BASE`` is added as the next round reads it.
       Every exchanged message is two int64s — at web scale the
       shuffle carries messages, never the graph.

    Returns one row per node: ``(node, rank_micro)`` after 5
    iterations. Every node of the symmetric graph has in-edges, so the
    ``BASE`` term needs no dangling-mass correction."""
    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def to_edges(li: pa.Table, o: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(o.to_pandas(), left_on="l_orderkey", right_on="o_orderkey")
        j = j[["o_custkey", "l_suppkey"]].drop_duplicates()
        c = j["o_custkey"].to_numpy(dtype=np.int64) * 2
        s = j["l_suppkey"].to_numpy(dtype=np.int64) * 2 + 1
        src = np.concatenate([c, s])
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(np.concatenate([s, c])),
            }
        )

    sym = exchange(
        [(_distinct_order_supp(lineitem), "l_orderkey", _ORDER_SUPP), (orders, "o_orderkey")],
        to_edges,
        n_buckets=n_buckets,
    )

    def adjacency(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        e = g.drop_duplicates(["src", "dst"])
        deg = e.groupby("src", sort=False)["dst"].transform("size")
        return pa.table(
            {
                "src": pa.array(e["src"].to_numpy(dtype=np.int64)),
                "dst": pa.array(e["dst"].to_numpy(dtype=np.int64)),
                "deg": pa.array(deg.to_numpy(dtype=np.int64)),  # deg(src)
            }
        )

    edges = exchange([(sym, "src")], adjacency, n_buckets=n_buckets).materialize()

    def send(e: pa.Table, r: pa.Table | None) -> pa.Table:
        # the first iteration has no rank side: every node starts at R0
        rank = R0
        if r is not None:
            e = e.join(r, keys="src", right_keys="node")
            rank = e["val"].to_numpy()
        c = (rank * DAMP_NUM) // (1_000_000 * e["deg"].to_numpy())
        return pa.table({"node": e["dst"], "val": pa.array(c, pa.int64())})

    def add_base(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "val": pc.add(b["val"], BASE)})

    ranks = None
    for _ in range(N_ITER):
        contrib = message_round(edges, "src", ranks, send, "sum", n_buckets=n_buckets)
        ranks = contrib.map_batches(add_base, batch_format="pyarrow", batch_size=None)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "rank_micro": b["val"]})

    return ranks.map_batches(finish, batch_format="pyarrow", batch_size=None)


def _render_pagerank_sql() -> str:
    head = """
WITH pairs AS (
    SELECT DISTINCT o.o_custkey * 2 AS c, l.l_suppkey * 2 + 1 AS s
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
),
edges AS (SELECT c AS src, s AS dst FROM pairs
          UNION ALL SELECT s AS src, c AS dst FROM pairs),
deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS d FROM edges GROUP BY src),
pr0 AS (SELECT src AS node, CAST(1000000 AS BIGINT) AS r FROM deg)"""
    steps = []
    for i in range(1, N_ITER + 1):
        steps.append(
            f""",
pr{i} AS (
    SELECT e.dst AS node,
           CAST(150000 + SUM((p.r * 850000) // (1000000 * d.d)) AS BIGINT) AS r
    FROM edges e
    JOIN pr{i - 1} p ON e.src = p.node
    JOIN deg d ON d.src = e.src
    GROUP BY e.dst
)"""
        )
    return (
        head
        + "".join(steps)
        + f"\nSELECT node, r AS rank_micro FROM pr{N_ITER}\n"
    )


_SQL_PAGERANK = _render_pagerank_sql()


def q_triangle_count(
    sf_dir: str, n_buckets: int = 32, broadcast_probe: bool | None = None
):
    """Exact triangle count of the co-purchase part graph (parts are
    adjacent when some order contains both) — the canonical
    local-clustering / community-density graph statistic, and the
    engine's wedge-join shape: unlike PageRank (iterative message
    passing) this is ONE structural join of the graph against itself.

    Built as the degree-ordered wedge-check algorithm (the
    MapReduce-era standard, cf. Suri & Vassilvitskii WWW'11 /
    Cohen's MapReduce graph patterns — public literature):

    1. **Edge build** — lineitem batches emit per-batch-distinct
       ``(orderkey, partkey)``; one orderkey-bucket exchange expands
       each basket to id-ordered part pairs (vectorized self-merge,
       basket-bounded), and one edge-hash exchange dedups pairs
       globally. The edge set is materialized once (O(edges),
       spillable) — reused by the degree pass and the wedge join.
    2. **Degrees + orientation** — per-batch partial counts of both
       endpoints, one node groupby; the (node → degree) table is
       dimension-bounded (parts), so it rides to workers as a
       broadcast dict and every edge re-orients src→dst by ascending
       ``(degree, id)`` key. Degree orientation caps out-degree at
       O(√edges) — the hot-node wedge explosion a pure id orientation
       would suffer on power-law graphs. (With an unbounded node
       universe the dict becomes one more node-bucket exchange
       joining degrees onto edges; the broadcast is the
       dimension-table special case.)
    3. **Wedge close** — a src-bucket exchange groups each node's
       out-neighbors; per node, ordered neighbor pairs (u,v) are the
       wedges (packed into one int64 key each). The wedge set is
       QUADRATIC in out-degree, so it is the one thing worth never
       shipping: when the edge-key set fits the broadcast budget
       (``broadcast_probe=None`` auto-gates on
       ``BROADCAST_BUDGET_BYTES``, the join family's crossover rule),
       every wedge task closes its wedges in place against one sorted
       broadcast key array — ZERO wedge exchange. Past the budget the
       fallback ships 8-byte wedge keys through a key-hash exchange
       and closes them against co-located edges. Each triangle is
       counted exactly once — at its lowest-(deg,id) vertex.

    Returns one row: ``(n_edges, n_triangles)``."""
    edges = _copurchase_edges(sf_dir, n_buckets)
    deg_nodes, deg_vals = _degree_arrays(edges)
    oriented = _orient_edges(edges, deg_nodes, deg_vals)
    return _triangle_count_from(
        edges, oriented, n_buckets, broadcast_probe=broadcast_probe
    )


def _copurchase_edges(sf_dir: str, n_buckets: int):
    """The co-purchase part graph's distinct undirected edge set
    (id-ordered ``a < b``), materialized once — shared by the
    triangle count and the clustering coefficient. Two exchanges:
    orderkey-bucket basket expansion, then edge-hash global dedup."""
    import pandas as pd

    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def op_rows(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                "p": b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        ).drop_duplicates()
        return pa.table({"o": pa.array(df["o"].to_numpy()), "p": pa.array(df["p"].to_numpy())})

    def basket_pairs(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        df = g[["o", "p"]].drop_duplicates()
        j = df.merge(df, on="o")
        j = j[j["p_x"] < j["p_y"]][["p_x", "p_y"]].drop_duplicates()
        return pa.table(
            {
                "a": pa.array(j["p_x"].to_numpy(dtype=np.int64)),
                "b": pa.array(j["p_y"].to_numpy(dtype=np.int64)),
            }
        )

    def distinct_edges(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        e = g[["a", "b"]].drop_duplicates()
        return pa.table(
            {
                "a": pa.array(e["a"].to_numpy(dtype=np.int64)),
                "b": pa.array(e["b"].to_numpy(dtype=np.int64)),
            }
        )

    keyed = lineitem.map_batches(op_rows, batch_format="pyarrow", batch_size=None)
    pairs = exchange([(keyed, "o")], basket_pairs, n_buckets=n_buckets)
    # every copy of an edge shares its ``a``; an O(edges) pin, reused
    # by degrees + wedge join
    return exchange([(pairs, "a")], distinct_edges, n_buckets=n_buckets).materialize()


def _degree_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """Node degrees as two sorted numpy arrays (nodes, degrees) —
    dimension-bounded (one row per part), so they broadcast as a
    vectorized ``searchsorted`` lookup, never a per-edge dict probe.
    (With an unbounded node universe this becomes one more node-bucket
    exchange joining degrees onto edges.)"""

    def deg_partials(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["a"].to_numpy(zero_copy_only=False),
                b["b"].to_numpy(zero_copy_only=False),
            ]
        )
        node, cnt = np.unique(n, return_counts=True)
        return pa.table(
            {
                "node": pa.array(node.astype(np.int64)),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    deg_df = (
        edges.map_batches(deg_partials, batch_format="pyarrow", batch_size=None)
        .groupby("node")
        .aggregate(Sum("cnt", alias_name="deg"))
        .to_pandas()  # dimension-bounded: one row per part
    )
    deg_nodes = deg_df["node"].to_numpy(dtype=np.int64)
    deg_order = np.argsort(deg_nodes)
    return deg_nodes[deg_order], deg_df["deg"].to_numpy(dtype=np.int64)[deg_order]


def _orient_edges(edges, deg_nodes: np.ndarray, deg_vals: np.ndarray):
    """Re-orient every edge src→dst by ascending ``(degree, id)`` key —
    caps out-degree at O(√edges), the hot-node wedge-explosion guard."""

    def orient(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        b_ = b["b"].to_numpy(zero_copy_only=False)
        da = deg_vals[np.searchsorted(deg_nodes, a)]
        db = deg_vals[np.searchsorted(deg_nodes, b_)]
        ka = da << 32 | a
        kb = db << 32 | b_
        lo = ka < kb
        src = np.where(lo, a, b_)
        dst = np.where(lo, b_, a)
        dkey = np.where(lo, kb, ka)
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "dkey": pa.array(dkey),
            }
        )

    return edges.map_batches(orient, batch_format="pyarrow", batch_size=None)


# Wedge keys pack both endpoints into one int64 (u << 32 | v, in
# (deg,id) order) — membership tests become a sorted searchsorted,
# never a pandas merge. Part keys stay < 2^31 at every TPC-H scale;
# a wider id universe would move the pack to two columns.
def _wedges(g) -> tuple[np.ndarray, np.ndarray]:
    """All wedges of an oriented src-bucket partition as
    ``(centers, packed endpoint keys)`` — the center is the wedge's
    apex node (lowest (deg,id) vertex of any triangle it closes).

    Enumeration is a stride-offset sweep instead of a per-src Python
    loop: after sorting by (src, dkey), positions ``t`` and ``t+d``
    belong to the same src run iff ``src[t] == src[t+d]``, so ONE
    vectorized comparison per offset d emits every wedge at that
    stride, and the sweep stops at the longest run (degree
    orientation caps that at O(√edges)). ≤ max-out-degree vector
    passes (97 at sf0.1) replace one Python iteration per src
    (~600k at sf0.1); measured at parity with the triu loop on this
    box (the edge-build exchanges dominate both) and strictly less
    Python in the hot path."""
    g2 = g.sort_values(["src", "dkey"], kind="stable")
    src = g2["src"].to_numpy(dtype=np.int64)
    dst = g2["dst"].to_numpy(dtype=np.int64)
    n = len(src)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    out_c, out_k = [], []
    d = 1
    while d < n:
        same = src[:-d] == src[d:]
        if not same.any():
            break  # sorted runs: no run exceeds length d anywhere
        idx = np.flatnonzero(same)
        out_c.append(src[idx])
        out_k.append((dst[idx] << 32) | dst[idx + d])
        d += 1
    if not out_k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(out_c), np.concatenate(out_k)


def _wedge_keys(g) -> np.ndarray:
    return _wedges(g)[1]


def _member_mask(wedge_keys: np.ndarray, sorted_edge_keys: np.ndarray) -> np.ndarray:
    if not len(wedge_keys) or not len(sorted_edge_keys):
        return np.zeros(len(wedge_keys), dtype=bool)
    pos = np.searchsorted(sorted_edge_keys, wedge_keys)
    ok = pos < len(sorted_edge_keys)
    pos_c = np.where(ok, pos, 0)
    return (sorted_edge_keys[pos_c] == wedge_keys) & ok


def _edge_keys(b: pa.Table) -> pa.Table:
    """``src << 32 | dst`` keys of an oriented edge batch."""
    k = (b["src"].to_numpy(zero_copy_only=False) << 32) | b["dst"].to_numpy(zero_copy_only=False)
    return pa.table({"key": pa.array(k)})


def _count_members(wedge_keys: np.ndarray, sorted_edge_keys: np.ndarray) -> int:
    return int(_member_mask(wedge_keys, sorted_edge_keys).sum())


def _triangle_count_from(
    edges, oriented, n_buckets: int, broadcast_probe: bool | None
):
    """Close wedges against the edge-key set and tally — the shared
    tail of :func:`q_triangle_count` (see its docstring for the
    broadcast-vs-exchange gate)."""
    import pandas as pd

    n_edges_total = edges.count()  # materialized → metadata read

    from ..core.util import BROADCAST_BUDGET_BYTES

    if broadcast_probe is None:
        broadcast_probe = n_edges_total * 8 <= BROADCAST_BUDGET_BYTES

    if broadcast_probe:
        # the whole edge-key set fits the broadcast budget: wedges are
        # counted WHERE THEY ARE GENERATED — zero wedge exchange (the
        # wedge set is quadratic in out-degree; the edge set is not)
        ekeys = np.sort(
            oriented.map_batches(
                lambda b: pa.table(
                    {
                        "key": pa.array(
                            (b["src"].to_numpy(zero_copy_only=False) << 32)
                            | b["dst"].to_numpy(zero_copy_only=False)
                        )
                    }
                ),
                batch_format="pyarrow",
                batch_size=None,
            )
            .to_pandas()["key"]
            .to_numpy(dtype=np.int64)
        )

        def count_local(g: pa.Table) -> pa.Table:
            g = g.to_pandas()
            tri = _count_members(_wedge_keys(g), ekeys)
            return pa.table(
                {
                    "one": pa.array([0], pa.int64()),
                    "tri": pa.array([tri], pa.int64()),
                }
            )

        def finish_broadcast(g: pd.DataFrame) -> pa.Table:
            return pa.table(
                {
                    "n_edges": pa.array([int(n_edges_total)], pa.int64()),
                    "n_triangles": pa.array([int(g["tri"].sum())], pa.int64()),
                }
            )

        return (
            exchange([(oriented, "src")], count_local, n_buckets=n_buckets)
            .groupby("one")
            .map_groups(finish_broadcast, batch_format="pandas")
        )

    # unbounded-edge fallback: ship wedge KEYS (one int64 each) through
    # a key-hash exchange and close them against the co-located edges
    def wedge_rows(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        return pa.table({"key": pa.array(_wedge_keys(g))})

    def close_wedges(wedges: pa.Table, edge: pa.Table) -> pa.Table:
        w = wedges["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = np.sort(edge["key"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table(
            {
                "one": pa.array([0], pa.int64()),
                "tri": pa.array([_count_members(w, e)], pa.int64()),
                "ec": pa.array([len(e)], pa.int64()),
            }
        )

    def finish(g: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "n_edges": pa.array([int(g["ec"].sum())], pa.int64()),
                "n_triangles": pa.array([int(g["tri"].sum())], pa.int64()),
            }
        )

    return (
        exchange(
            [
                (
                    exchange([(oriented, "src")], wedge_rows, n_buckets=n_buckets),
                    "key",
                    _KEY,
                ),
                (
                    oriented.map_batches(_edge_keys, batch_format="pyarrow", batch_size=None),
                    "key",
                    _KEY,
                ),
            ],
            close_wedges,
            n_buckets=n_buckets,
        )
        .groupby("one")
        .map_groups(finish, batch_format="pandas")
    )


_SQL_TRIANGLES = """
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT a.p AS u, b.p AS v
      FROM op a JOIN op b ON a.o = b.o AND a.p < b.p)
SELECT CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_edges,
       CAST((SELECT COUNT(*) FROM e e1
             JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
             JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v) AS BIGINT)
           AS n_triangles
"""


def q_clustering_coeff(
    sf_dir: str, n_buckets: int = 32, broadcast_probe: bool | None = None
):
    """Local clustering coefficient per part — how close each node's
    co-purchase neighborhood is to a clique, ``2·tri(v) / (deg(v)·
    (deg(v)−1))`` in exact ppm for every node with degree ≥ 2. The
    per-NODE refinement of :func:`q_triangle_count` (one global count
    → a per-vertex community-density signal; Watts–Strogatz's local
    measure, the standard "is this node in a tight cluster" prior).

    Reuses the whole triangle machinery (shared helpers): edge build,
    degree-ordered orientation, wedge generation at the lowest-(deg,
    id) vertex. The one difference: a closed wedge ``(c; u, v)`` is
    the triangle ``{c, u, v}``, and every triangle must credit ALL
    THREE vertices — so instead of a scalar tally, each wedge task
    unpacks its members' endpoints and emits pre-aggregated
    ``(node, tri)`` partials into one node groupby. The same
    broadcast-vs-exchange gate as the count applies (auto on the
    edge-key budget); past the budget, wedge keys ship WITH their
    8-byte center through the key-hash exchange.

    Output is dimension-bounded (one row per part with deg ≥ 2), so
    the degree join runs on the driver against the already-broadcast
    degree arrays — zero additional exchanges."""
    import pandas as pd
    from ray.data.aggregate import Sum

    edges = _copurchase_edges(sf_dir, n_buckets)
    deg_nodes, deg_vals = _degree_arrays(edges)
    oriented = _orient_edges(edges, deg_nodes, deg_vals)

    from ..core.util import BROADCAST_BUDGET_BYTES

    n_edges_total = edges.count()
    if broadcast_probe is None:
        broadcast_probe = n_edges_total * 8 <= BROADCAST_BUDGET_BYTES

    # dense-id fast path: part keys are dimension-bounded, so a
    # bincount over the id range beats np.unique's O(n log n) sort on
    # the 3·triangles member array (measured 21.5 s → bincount cuts
    # the credit pass; the sparse fallback keeps an unbounded id
    # universe correct)
    id_span = int(deg_nodes[-1]) + 1 if len(deg_nodes) else 1
    dense_ids = id_span <= 4_000_000

    def _node_partials(centers: np.ndarray, keys: np.ndarray, mask: np.ndarray):
        hit = keys[mask]
        u = hit >> 32
        v = hit & 0xFFFFFFFF
        c = centers[mask]
        if dense_ids:
            cnt_all = (
                np.bincount(c, minlength=id_span)
                + np.bincount(u, minlength=id_span)
                + np.bincount(v, minlength=id_span)
            )
            nd = np.flatnonzero(cnt_all)
            cnt = cnt_all[nd]
        else:
            nd, cnt = np.unique(np.concatenate([c, u, v]), return_counts=True)
        return pa.table(
            {
                "node": pa.array(nd.astype(np.int64)),
                "tri": pa.array(cnt.astype(np.int64)),
            }
        )

    if broadcast_probe:
        ekeys = np.sort(
            oriented.map_batches(
                lambda b: pa.table(
                    {
                        "key": pa.array(
                            (b["src"].to_numpy(zero_copy_only=False) << 32)
                            | b["dst"].to_numpy(zero_copy_only=False)
                        )
                    }
                ),
                batch_format="pyarrow",
                batch_size=None,
            )
            .to_pandas()["key"]
            .to_numpy(dtype=np.int64)
        )

        def credit_local(g: pa.Table) -> pa.Table:
            g = g.to_pandas()
            centers, keys = _wedges(g)
            return _node_partials(centers, keys, _member_mask(keys, ekeys))

        tri_rows = exchange([(oriented, "src")], credit_local, n_buckets=n_buckets)
    else:

        def wedge_rows(g: pa.Table) -> pa.Table:
            g = g.to_pandas()
            centers, k = _wedges(g)
            return pa.table({"key": pa.array(k), "center": pa.array(centers)})

        def credit_bucket(w: pa.Table, edge: pa.Table) -> pa.Table:
            keys = w["key"].to_numpy(zero_copy_only=False).astype(np.int64)
            centers = w["center"].to_numpy(zero_copy_only=False).astype(np.int64)
            e = np.sort(edge["key"].to_numpy(zero_copy_only=False).astype(np.int64))
            return _node_partials(centers, keys, _member_mask(keys, e))

        tri_rows = exchange(
            [
                (
                    exchange([(oriented, "src")], wedge_rows, n_buckets=n_buckets),
                    "key",
                    pa.schema({"key": pa.int64(), "center": pa.int64()}),
                ),
                (
                    oriented.map_batches(_edge_keys, batch_format="pyarrow", batch_size=None),
                    "key",
                    _KEY,
                ),
            ],
            credit_bucket,
            n_buckets=n_buckets,
        )

    tri = (
        tri_rows.groupby("node")
        .aggregate(Sum("tri", alias_name="n_tri"))
        .to_pandas()  # dimension-bounded: ≤ one row per part
    )
    keep = deg_vals >= 2
    out = pd.DataFrame(
        {"part": deg_nodes[keep], "deg": deg_vals[keep]}
    ).merge(tri.rename(columns={"node": "part"}), on="part", how="left")
    n_tri = out["n_tri"].fillna(0).to_numpy(dtype=np.int64)
    deg = out["deg"].to_numpy(dtype=np.int64)
    return pd.DataFrame(
        {
            "part": pd.Series(out["part"].to_numpy(dtype=np.int64), dtype=np.int64),
            "deg": pd.Series(deg, dtype=np.int64),
            "n_tri": pd.Series(n_tri, dtype=np.int64),
            "coeff_ppm": pd.Series(
                (2 * n_tri * 1_000_000) // (deg * (deg - 1)), dtype=np.int64
            ),
        }
    )


def q_degree_assortativity(sf_dir: str, n_buckets: int = 32):
    """Degree assortativity of the co-purchase graph — Newman's "do
    hubs connect to hubs" coefficient, the Pearson correlation of
    endpoint degrees over every edge counted in both directions (the
    standard symmetrization). Negative assortativity is the web-graph
    signature (hubs attach to leaves); a corpus-QA suite tracks it per
    snapshot as a cheap structural-drift scalar next to the triangle
    density.

    Exactness: the convention of the correlation family
    (:func:`~pdf_parser_ray.relational.analytics2.q_discount_qty_correlation`)
    — report ``r²`` in exact ppm plus the covariance sign, since r
    itself needs a square root. With symmetrized pairs Σx = Σy and
    Σx² = Σy² identically, so ``r² = (n·Σxy − (Σx)²)² / (n·Σx² −
    (Σx)²)²`` — nested nonnegative floor divisions, bit-identical in
    Python bignums and HUGEINT.

    Shape: degrees ride the already-broadcast sorted arrays
    (:func:`_degree_arrays`); ONE shuffle-free pass over the
    materialized edge set folds each batch to a single (n, Σx, Σxy,
    Σx²) row; one trivial Sum exchange; bignum read-off on one row."""
    import pandas as pd
    from ray.data.aggregate import Sum

    edges = _copurchase_edges(sf_dir, n_buckets)
    deg_nodes, deg_vals = _degree_arrays(edges)

    def partials(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        b_ = b["b"].to_numpy(zero_copy_only=False)
        dx = deg_vals[np.searchsorted(deg_nodes, a)]
        dy = deg_vals[np.searchsorted(deg_nodes, b_)]
        return pa.table(
            {
                "one": pa.array([0], pa.int64()),
                "n": pa.array([2 * len(a)], pa.int64()),
                "sx": pa.array([int(dx.sum()) + int(dy.sum())], pa.int64()),
                "sxy": pa.array([2 * int((dx * dy).sum())], pa.int64()),
                "sxx": pa.array(
                    [int((dx * dx).sum()) + int((dy * dy).sum())], pa.int64()
                ),
            }
        )

    g = (
        edges.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("one")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sxy", "sxx")])
        .to_pandas()  # exactly one row
    )
    n, sx = int(g["n"].iloc[0]), int(g["sx"].iloc[0])
    sxy, sxx = int(g["sxy"].iloc[0]), int(g["sxx"].iloc[0])
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n // 2], dtype=np.int64),
            "assort_sign": pd.Series(
                [0 if num == 0 else (1 if num > 0 else -1)], dtype=np.int64
            ),
            "r2_ppm": pd.Series(
                [0 if den == 0 else (num * num * 1_000_000) // den // den],
                dtype=np.int64,
            ),
        }
    )


_SQL_ASSORTATIVITY = """
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT a.p AS u, b.p AS v
      FROM op a JOIN op b ON a.o = b.o AND a.p < b.p),
deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
        GROUP BY node),
p AS (SELECT da.deg AS x, db.deg AS y
      FROM e JOIN deg da ON da.node = e.u JOIN deg db ON db.node = e.v
      UNION ALL
      SELECT db.deg, da.deg
      FROM e JOIN deg da ON da.node = e.u JOIN deg db ON db.node = e.v),
a AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(x AS HUGEINT)) AS sx,
             SUM(CAST(x AS HUGEINT)*y) AS sxy,
             SUM(CAST(x AS HUGEINT)*x) AS sxx
      FROM p)
SELECT CAST(n // 2 AS BIGINT) AS n_edges,
       CAST(CASE WHEN n*sxy - sx*sx > 0 THEN 1
                 WHEN n*sxy - sx*sx < 0 THEN -1 ELSE 0 END
            AS BIGINT) AS assort_sign,
       CAST(CASE WHEN (n*sxx - sx*sx) = 0 THEN 0
                 ELSE ((n*sxy - sx*sx)*(n*sxy - sx*sx)*1000000)
                      // (n*sxx - sx*sx) // (n*sxx - sx*sx) END
            AS BIGINT) AS r2_ppm
FROM a
"""


_SQL_CLUSTERING = """
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT a.p AS u, b.p AS v
      FROM op a JOIN op b ON a.o = b.o AND a.p < b.p),
deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
        GROUP BY node),
t AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
      FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
                JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v),
tri AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
        FROM (SELECT a AS node FROM t
              UNION ALL SELECT b FROM t
              UNION ALL SELECT c FROM t)
        GROUP BY node)
SELECT d.node AS part, d.deg,
       CAST(COALESCE(tri.n_tri, 0) AS BIGINT) AS n_tri,
       CAST((2*COALESCE(tri.n_tri, 0)*1000000) // (d.deg*(d.deg-1))
            AS BIGINT) AS coeff_ppm
FROM deg d LEFT JOIN tri ON tri.node = d.node
WHERE d.deg >= 2
"""


# ---------------------------------------------------------------------------
# Multi-source BFS — bounded-hop shortest distances over the part graph
# ---------------------------------------------------------------------------

_BFS_MAX_HOPS = 3


def q_part_hops(sf_dir: str, seed_size: int = 1, n_buckets: int = 32):
    """Minimum co-purchase hop distance from the seed set (parts with
    ``p_size == seed_size``) to every reachable part, capped at
    {_BFS_MAX_HOPS} hops — multi-source BFS, the bounded-depth member
    of the iterative-graph family (PageRank = fixpoint message
    passing, label propagation = unbounded min spread, this =
    level-synchronous frontier expansion).

    Plan: the adjacency list is built once from lineitem (per-batch
    distinct (order, part) rows → orderkey-bucket exchange → per-basket
    directed pairs, deduped per bucket — duplicate edges across buckets
    are harmless for reachability and not worth a second global
    exchange) and materialized (O(edges), spillable — the same pin
    class as the triangle query's edge set). Each BFS round is ONE
    scan of that adjacency: the frontier rides to workers as a sorted
    broadcast array (the node universe is the bounded part dimension —
    with unbounded nodes the frontier/visited sets become node-bucket
    exchanges, the same note as the triangle degree dict), workers emit
    the distinct neighbors of frontier members, and the driver folds
    the node-grain result into visited/next-frontier. First-reach
    level = minimum distance, so no min-reduction is needed."""
    import pandas as pd
    import pyarrow.parquet as pq

    seeds_tbl = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filters=[("p_size", "=", seed_size)],
    )
    seeds = np.unique(seeds_tbl["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64))

    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def op_rows(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                "p": b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        ).drop_duplicates()
        return pa.table({"o": pa.array(df["o"].to_numpy()), "p": pa.array(df["p"].to_numpy())})

    def basket_adj(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        df = g[["o", "p"]].drop_duplicates()
        j = df.merge(df, on="o")
        j = j[j["p_x"] != j["p_y"]][["p_x", "p_y"]].drop_duplicates()
        return pa.table(
            {
                "src": pa.array(j["p_x"].to_numpy(dtype=np.int64)),
                "dst": pa.array(j["p_y"].to_numpy(dtype=np.int64)),
            }
        )

    adj = exchange(
        [(lineitem.map_batches(op_rows, batch_format="pyarrow", batch_size=None), "o")],
        basket_adj,
        n_buckets=n_buckets,
    ).materialize()  # reused once per BFS round

    rows_node = [seeds]
    rows_hops = [np.zeros(len(seeds), dtype=np.int64)]
    visited = seeds
    frontier = seeds
    for r in range(1, _BFS_MAX_HOPS + 1):
        if not len(frontier):
            break
        fr = frontier  # captured (sorted) — rides to every task once

        def expand(batch: pa.Table, fr=fr) -> pa.Table:
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            idx = np.clip(np.searchsorted(fr, src), 0, len(fr) - 1)
            hit = fr[idx] == src
            return pa.table({"node": pa.array(np.unique(dst[hit]))})

        reached = (
            adj.map_batches(expand, batch_format="pyarrow", batch_size=None)
            .to_pandas()["node"]  # node-grain: bounded by the part dimension
            .to_numpy(dtype=np.int64)
        )
        new = np.setdiff1d(np.unique(reached), visited, assume_unique=True)
        if not len(new):
            break
        rows_node.append(new)
        rows_hops.append(np.full(len(new), r, dtype=np.int64))
        visited = np.union1d(visited, new)
        frontier = new
    return pd.DataFrame(
        {
            "partkey": np.concatenate(rows_node),
            "hops": np.concatenate(rows_hops),
        }
    )


if q_part_hops.__doc__:  # absent under python -OO — must not break import
    q_part_hops.__doc__ = q_part_hops.__doc__.format(_BFS_MAX_HOPS=_BFS_MAX_HOPS)

_SQL_PART_HOPS = f"""
WITH RECURSIVE pp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
    SELECT a.l_partkey AS src, b.l_partkey AS dst
    FROM pp a JOIN pp b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey),
d(node, hops) AS (
    SELECT p_partkey, 0 FROM part WHERE p_size = 1
    UNION
    SELECT e.dst, d.hops + 1 FROM d JOIN e ON e.src = d.node
    WHERE d.hops < {_BFS_MAX_HOPS})
SELECT node AS partkey, CAST(MIN(hops) AS BIGINT) AS hops
FROM d GROUP BY node
"""

# ---------------------------------------------------------------------------
# copurchase_components — connected components of the co-purchase graph
# ---------------------------------------------------------------------------

# Driver union-find bound for component resolution: below this edge
# count the support-filtered pair graph is folded driver-side (the
# recompute-upstream twin of the repo's size-gated pins — ~16 B/edge,
# so the default bounds driver memory at ~32 MB); above it the
# distributed min-label propagation runs. Co-purchase graphs are NOT
# shallow like dup clusters (the sf0.01 giant component already has
# eccentricity 10 → ~12 propagation rounds), so the driver fold is
# also the latency-correct branch wherever it fits.
_CC_DRIVER_MAX_EDGES = 2_000_000


def q_copurchase_components(
    sf_dir: str, min_support: int = 2, driver_max_edges: int | None = None
):
    """Connected components of the part co-purchase graph (nodes =
    parts, edges = pairs bought together in ≥ ``min_support`` orders)
    — the product-affinity clusters behind "frequently bought
    together" families, and the graph twin of the dedup family's
    cluster resolution. Output is (part_id, component_rep = min part
    in the component), one row per part in a qualifying edge.

    Shape: the edge list comes from
    :func:`~pdf_parser_ray.relational.ops.q_copurchase_pairs`' basket
    exchange (orderkey-bucket pair expansion, support filter applied
    before anything ships) — already the REDUCED grain. Component
    resolution is size-gated on the edge count (the repo's standing
    gate-with-recompute pattern): under ``driver_max_edges`` the
    edges stream to a driver union-find with path halving (exact,
    O(E·α)); above it the distributed min-label propagation of
    :func:`~pdf_parser_ray.stages.dedup.label_propagation_clusters`
    runs with rounds sized to the measured depth of purchase graphs
    (``max_rounds=64`` — unlike dup clusters these are NOT shallow;
    the guard still raises rather than emit split components).
    Oracle: recursive reachability CTE over the same pairs.
    """
    import pandas as pd

    from ..relational.ops import q_copurchase_pairs

    bound = _CC_DRIVER_MAX_EDGES if driver_max_edges is None else driver_max_edges
    pairs = q_copurchase_pairs(sf_dir, min_support=min_support)

    # driver branch first: stream the support-filtered edges into a
    # union-find WHILE counting (one plan execution, never more than a
    # block held beyond the find maps); only if the stream exceeds the
    # bound mid-flight does the distributed branch run — the one case
    # that pays the plan twice, exactly when a driver fold was never
    # an option anyway.
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_edges = 0
    for batch in pairs.iter_batches(batch_format="pyarrow"):
        n_edges += batch.num_rows
        if n_edges > bound:
            break
        for a, b in zip(
            batch["part_a"].to_numpy(zero_copy_only=False),
            batch["part_b"].to_numpy(zero_copy_only=False),
        ):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    if n_edges > bound:  # pragma: no cover - corpus-scale branch
        from .dedup import label_propagation_clusters

        def as_edges(b: pa.Table) -> pa.Table:
            return pa.table({"doc_a": b["part_a"], "doc_b": b["part_b"]})

        comp = label_propagation_clusters(
            pairs.map_batches(as_edges, batch_format="pyarrow", batch_size=None),
            max_rounds=64,
        )

        def rename(b: pa.Table) -> pa.Table:
            return pa.table(
                {"part_id": b["doc_id"], "component_rep": b["cluster_rep"]}
            )

        return comp.map_batches(rename, batch_format="pyarrow", batch_size=None)

    nodes = sorted(parent)
    return pd.DataFrame(
        {
            "part_id": pd.Series(nodes, dtype=np.int64),
            "component_rep": pd.Series(
                [find(n) for n in nodes], dtype=np.int64
            ),
        }
    )


_SQL_COPURCHASE_COMPONENTS = """
WITH RECURSIVE pp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
    SELECT a.l_partkey AS pa, b.l_partkey AS pb
    FROM pp a JOIN pp b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    GROUP BY 1, 2 HAVING COUNT(*) >= 2),
edges AS (
    SELECT pa AS s, pb AS d FROM pairs
    UNION ALL
    SELECT pb AS s, pa AS d FROM pairs),
reach(node, r) AS (
    SELECT s, s FROM edges
    UNION
    SELECT e.d, reach.r FROM reach JOIN edges e ON e.s = reach.node)
SELECT node AS part_id, CAST(MIN(r) AS BIGINT) AS component_rep
FROM reach GROUP BY node
"""


# ---------------------------------------------------------------------------
# k_core — iterative peeling to the k-core of the co-purchase graph
# ---------------------------------------------------------------------------

_KCORE_K = 3
_KCORE_MAX_ROUNDS = 12


def q_k_core(sf_dir: str, k: int = _KCORE_K, n_buckets: int = 32):
    """The ``k``-core of the co-purchase part graph — the maximal
    subgraph where every node keeps degree ≥ k, found by the standard
    peeling fixpoint (Seidman 1983; the Batagelj–Zaveršnik sequential
    algorithm's synchronous bulk variant): repeatedly delete all
    nodes of degree < k until none remain. Corpus-QA reads the core
    as the graph's "dense backbone" (nodes surviving a 3-core are in
    genuinely clustered purchase behavior, not pendant noise) — the
    subgraph-extraction complement of the per-node
    :func:`q_clustering_coeff` signal.

    Shape (the engine's third iterative-graph discipline after
    PageRank's message passing and the components' label
    propagation): the edge set materializes once (the shared
    ``_copurchase_edges`` pin); each round is ONE degree aggregate —
    per-batch endpoint partials into a node groupby whose result is
    dimension-bounded (one row per part) and broadcasts back as a
    sorted survivor array — and ONE vectorized edge filter,
    materialized as next round's state. Synchronous peeling converges
    in ≤ max-degeneracy-layer rounds (3–5 on every tested corpus);
    the engine asserts convergence within ``_KCORE_MAX_ROUNDS`` so
    the unrolled oracle (same bound) is exact by construction.

    Returns one row per core node: ``(part, deg)`` — its degree
    INSIDE the core (all ≥ k when the core is non-empty)."""
    import pandas as pd

    edges = _copurchase_edges(sf_dir, n_buckets)
    for round_no in range(_KCORE_MAX_ROUNDS + 1):
        if edges.count() == 0:  # everything peeled away: empty core
            return pd.DataFrame(
                {
                    "part": pd.Series([], dtype=np.int64),
                    "deg": pd.Series([], dtype=np.int64),
                }
            )
        deg_nodes, deg_vals = _degree_arrays(edges)
        weak = deg_vals < k
        if not weak.any() or not len(deg_nodes):
            return pd.DataFrame(
                {
                    "part": pd.Series(deg_nodes, dtype=np.int64),
                    "deg": pd.Series(deg_vals, dtype=np.int64),
                }
            )
        alive = np.sort(deg_nodes[~weak])

        def keep_edges(b: pa.Table, alive=alive) -> pa.Table:
            a = b["a"].to_numpy(zero_copy_only=False)
            bb = b["b"].to_numpy(zero_copy_only=False)
            ok = np.isin(a, alive) & np.isin(bb, alive)
            return pa.table({"a": pa.array(a[ok]), "b": pa.array(bb[ok])})

        edges = edges.map_batches(
            keep_edges, batch_format="pyarrow", batch_size=None
        ).materialize()  # O(edges), shrinking every round
    raise RuntimeError(
        f"k-core peeling did not converge in {_KCORE_MAX_ROUNDS} rounds; "
        "raise _KCORE_MAX_ROUNDS (and regenerate the unrolled oracle)"
    )


def _sql_k_core(k: int = _KCORE_K, rounds: int = _KCORE_MAX_ROUNDS) -> str:
    steps = []
    for j in range(1, rounds + 1):
        prev = f"e{j - 1}"
        steps.append(f""",
d{j - 1} AS MATERIALIZED (SELECT n, CAST(COUNT(*) AS BIGINT) AS d FROM
    (SELECT a AS n FROM {prev} UNION ALL SELECT b FROM {prev}) GROUP BY n),
e{j} AS MATERIALIZED (SELECT e.a, e.b FROM {prev} e
         JOIN d{j - 1} da ON da.n = e.a JOIN d{j - 1} db ON db.n = e.b
         WHERE da.d >= {k} AND db.d >= {k})"""
        )
    return f"""
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e0 AS MATERIALIZED (SELECT DISTINCT a.p AS a, b.p AS b
       FROM op a JOIN op b ON a.o = b.o AND a.p < b.p){"".join(steps)},
df AS (SELECT n, CAST(COUNT(*) AS BIGINT) AS d FROM
    (SELECT a AS n FROM e{rounds} UNION ALL SELECT b FROM e{rounds}) GROUP BY n)
SELECT n AS part, d AS deg FROM df WHERE d >= {k}
"""


_SQL_K_CORE = _sql_k_core()


# ---------------------------------------------------------------------------
# hits_scores — hubs & authorities on the directed purchase graph
# ---------------------------------------------------------------------------

_HITS_ITER = 5


def _hits_envelope(mx: int) -> None:
    """Raise ``OverflowError`` when a half-step's max raw score ``mx``
    passes (2⁶³−1) // 10⁶, past which the scale's int64 product
    ``v·10⁶`` (``v ≤ mx``) would wrap silently; DuckDB's BIGINT product
    raises at the same point. A raw score is at most 10⁶ × degree, so a
    node of degree over about 9.2·10⁶ can reach it."""
    if mx > (2**63 - 1) // 1_000_000:
        raise OverflowError(f"hits_scores: max raw score {mx} times 10^6 passes 2^63 (int64)")


def q_hits_scores(sf_dir: str, n_buckets: int = 16):
    """HITS (Kleinberg JACM'99) over the directed customer→supplier
    purchase graph: customers are HUBS (their score flows to the
    suppliers they buy from), suppliers are AUTHORITIES. Five
    synchronous iterations of ``a = Eᵀh``, ``h = E a`` with an exact
    integer max-normalization after every half-step — ``x' = x·10⁶ //
    max(x)`` replaces the classic L2 normalization (same fixpoint
    direction, and floor-exact on both engines where an L2 norm would
    need a square root). PageRank ranks by random-surfer mass; HITS
    separates "buys broadly" from "is bought broadly" — the two-sided
    importance signal a marketplace-quality pipeline wants.

    Shape (the PageRank message-passing discipline on a DIRECTED
    graph): the distinct edge set materializes once; each half-step
    is ONE :func:`~pdf_parser_ray.core.exchange.message_round` keyed
    on ``c`` (hubs → authorities) or ``s`` (authorities → hubs),
    whose messages are summed per destination inside each task before
    they ship, plus a Max read-off of the materialized raw scores for
    the normalizer; the scale itself stays lazy. The first half-step
    has no hub side: every customer starts at 10⁶. Per-iteration
    state is O(nodes), at most ``n_buckets`` blocks, in the object
    store, never on the driver. A half-step whose max raw score would
    take ``v·10⁶`` past int64 raises ``OverflowError``
    (:func:`_hits_envelope`).

    Returns one row per node: ``(node_type, node, score_micro)`` with
    node_type 0 = customer hub, 1 = supplier authority."""
    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def to_edges(li: pa.Table, o: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(o.to_pandas(), left_on="l_orderkey", right_on="o_orderkey")
        j = j.rename(columns={"o_custkey": "c", "l_suppkey": "s"})[["c", "s"]].drop_duplicates()
        return pa.table(
            {
                "c": pa.array(j["c"].to_numpy(dtype=np.int64)),
                "s": pa.array(j["s"].to_numpy(dtype=np.int64)),
            }
        )

    def dedup_edges(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        # the orderkey buckets dedup only within an order — the same
        # (c, s) pair recurs across orders, so one exchange on c
        # dedups globally (all copies share c, hence the bucket)
        d = g.drop_duplicates(["c", "s"])
        return pa.table(
            {
                "c": pa.array(d["c"].to_numpy(np.int64)),
                "s": pa.array(d["s"].to_numpy(np.int64)),
            }
        )

    pairs = exchange(
        [(_distinct_order_supp(lineitem), "l_orderkey", _ORDER_SUPP), (orders, "o_orderkey")],
        to_edges,
        n_buckets=n_buckets,
    )
    # O(edges) pin, reused by all 2·ITER half-steps
    edges = exchange([(pairs, "c")], dedup_edges, n_buckets=n_buckets).materialize()

    def half_step(state, join_key, emit_key):
        """One E/Eᵀ application and its max-normalization."""

        def send(e: pa.Table, st: pa.Table | None) -> pa.Table:
            if st is None:  # h₀ = 10⁶ per customer
                val = pa.array(np.full(e.num_rows, 1_000_000, np.int64))
                return pa.table({"node": e[emit_key], "val": val})
            j = e.join(st, keys=join_key, right_keys="node")
            return pa.table({"node": j[emit_key], "val": j["val"]})

        raw = message_round(edges, join_key, state, send, "sum", n_buckets=n_buckets)
        mx = int(raw.max("val"))
        _hits_envelope(mx)

        def scale(b: pa.Table) -> pa.Table:  # v ≥ 0: Arrow's truncation is floor
            return pa.table({"node": b["node"], "val": pc.divide(pc.multiply(b["val"], 1_000_000), mx)})

        # the scale map stays LAZY: raw is already materialized (the
        # Max read-off executed it), and the next half-step is the
        # single consumer — pinning it again would double the
        # per-iteration object-store writes
        return raw.map_batches(scale, batch_format="pyarrow", batch_size=None)

    h = a = None
    for _ in range(_HITS_ITER):
        a = half_step(h, "c", "s")
        h = half_step(a, "s", "c")

    def finish(node_type: int):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node_type": pa.array(
                        np.full(b.num_rows, node_type, np.int64)
                    ),
                    "node": b["node"],
                    "score_micro": b["val"],
                }
            )

        return fn

    return h.map_batches(finish(0), batch_format="pyarrow", batch_size=None).union(
        a.map_batches(finish(1), batch_format="pyarrow", batch_size=None)
    )


def _render_hits_sql() -> str:
    head = """
WITH e AS MATERIALIZED (
    SELECT DISTINCT o.o_custkey AS c, l.l_suppkey AS s
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey),
h0 AS MATERIALIZED (SELECT DISTINCT c AS node,
                    CAST(1000000 AS BIGINT) AS v FROM e)"""
    steps = []
    for i in range(1, _HITS_ITER + 1):
        steps.append(f""",
ar{i} AS MATERIALIZED (
    SELECT e.s AS node, CAST(SUM(h.v) AS BIGINT) AS v
    FROM e JOIN h{i - 1} h ON h.node = e.c GROUP BY e.s),
a{i} AS MATERIALIZED (
    SELECT node, v * 1000000 // (SELECT MAX(v) FROM ar{i}) AS v FROM ar{i}),
hr{i} AS MATERIALIZED (
    SELECT e.c AS node, CAST(SUM(a.v) AS BIGINT) AS v
    FROM e JOIN a{i} a ON a.node = e.s GROUP BY e.c),
h{i} AS MATERIALIZED (
    SELECT node, v * 1000000 // (SELECT MAX(v) FROM hr{i}) AS v FROM hr{i})"""
        )
    n = _HITS_ITER
    return (
        head
        + "".join(steps)
        + f"""
SELECT CAST(0 AS BIGINT) AS node_type, node, v AS score_micro FROM h{n}
UNION ALL
SELECT CAST(1 AS BIGINT) AS node_type, node, v AS score_micro FROM a{n}
"""
    )


_SQL_HITS = _render_hits_sql()



QUERIES = {
    "k_core": q_k_core,
    "hits_scores": q_hits_scores,
    "copurchase_components": q_copurchase_components,
    "purchase_pagerank": q_purchase_pagerank,
    "triangle_count": q_triangle_count,
    "clustering_coeff": q_clustering_coeff,
    "degree_assortativity": q_degree_assortativity,
    "part_hops": q_part_hops,
}

ORACLE_SQL = {
    "k_core": _SQL_K_CORE,
    "hits_scores": _SQL_HITS,
    "copurchase_components": _SQL_COPURCHASE_COMPONENTS,
    "purchase_pagerank": _SQL_PAGERANK,
    "triangle_count": _SQL_TRIANGLES,
    "clustering_coeff": _SQL_CLUSTERING,
    "degree_assortativity": _SQL_ASSORTATIVITY,
    "part_hops": _SQL_PART_HOPS,
}
