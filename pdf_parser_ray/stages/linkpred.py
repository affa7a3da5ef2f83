"""Link prediction over the co-purchase part graph — Adamic–Adar.

The classic "which edges are missing" scorer (Adamic & Adar 2003;
Liben-Nowell & Kleinberg CIKM'03): for a non-adjacent pair ``(u, v)``
the score is ``Σ_{w ∈ N(u)∩N(v)} 1/ln(deg(w))`` — shared *rare*
neighbors are strong evidence, shared hubs are weak evidence. In a
recommender / retrieval pipeline this is the standard co-occurrence
prior ("parts bought together but never in one basket yet"); in a
corpus-QA suite it doubles as a structural-drift probe next to the
triangle count. Every common neighbor of ``(u, v)`` is exactly a
wedge centered at ``w``, so the operator is one more instance of the
engine's wedge machinery (`stages/graph.py`): generate neighbor pairs
at each center, aggregate per pair, anti-join the existing edge set.

Exactness: weights are integer micro-units ``w(d) = 10¹² //
lnm_micro(d)`` over the shared IEEE ln expression tree
(`stages/textstats.py:_shared_ln`), so the iterative-free sum is
order-free and the DuckDB oracle hash-matches bit-for-bit.

Scale shape (wedge generation is QUADRATIC in center degree):
centers are capped at ``deg ≤ max_center_deg`` — an explicit,
oracle-mirrored semantic parameter, not a silent truncation. The cap
is also the honest production knob: Adamic–Adar itself discounts hubs
by ``1/ln(d)``, and the public link-prediction literature drops
top-degree centers for exactly this cost reason. Three exchanges
total: the shared edge build's two (orderkey basket expansion +
edge-hash dedup, reused materialized from `_copurchase_edges`) plus
ONE pair-key exchange that carries per-bucket pre-aggregated
``(pair, Σw, cn)`` partials — never raw wedges. The existing-edge
anti-join rides the triangle-family broadcast gate: within the
budget the sorted 8-byte edge-key set ships once and closed pairs
die at the wedge task, so the pair exchange carries survivors only
(at sf0.1 the two paths measure at parity — 12.5 vs 12.8 s
steady-state, the shared edge build dominates and eligible-center
wedges are few; the gate pays when hub-free wedge volume is large);
past the budget, edge keys ride the pair-key exchange for a
co-located check. Degrees are
dimension-bounded (one row per part) and broadcast; the final top-k
is a per-bucket top-k merged on the driver (≤ n_buckets·k rows).

Reference parity: no counterpart in the reference (a single-machine
PDF-form parser); engine addition for the graph family
(SURVEY.md §2.11 extensions), sibling of `stages/graph.py`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.exchange import exchange

_W_SCALE = 1_000_000_000_000  # 10¹² — micro·micro: w(d) = 10¹² // lnm(d)


def q_adamic_adar(
    sf_dir: str,
    n_buckets: int = 32,
    max_center_deg: int = 64,
    top_k: int = 100,
    broadcast_probe: bool | None = None,
):
    """Top-``top_k`` non-adjacent part pairs by Adamic–Adar score.

    Returns one row per predicted link: ``(u, v, cn, score_micro,
    jaccard_ppm)`` where ``cn`` is the number of (cap-eligible)
    common neighbors, ``score_micro = Σ 10¹² // lnm_micro(deg(w))``
    over those neighbors, and ``jaccard_ppm = cn·10⁶ // (deg(u) +
    deg(v) − cn)`` is the companion neighborhood-Jaccard signal
    (full degrees — the denominator is the true union bound).
    Ordered by ``(score_micro DESC, u, v)``; ties are total because
    pairs are unique."""
    import pandas as pd

    from ..stages.textstats import lnm_micro
    from .graph import _copurchase_edges, _degree_arrays

    edges = _copurchase_edges(sf_dir, n_buckets)
    deg_nodes, deg_vals = _degree_arrays(edges)

    # per-node center weight: 10¹² // lnm(deg) for 2 ≤ deg ≤ cap,
    # else 0 (ineligible center). Dimension-bounded → plain numpy LUT
    # captured by the worker closures (ray.put happens once per task
    # graph via closure serialization of the small arrays).
    w_vals = np.zeros(len(deg_vals), dtype=np.int64)
    for i, d in enumerate(deg_vals):
        if 2 <= d <= max_center_deg:
            w_vals[i] = _W_SCALE // lnm_micro(int(d))

    def center_rows(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        b_ = b["b"].to_numpy(zero_copy_only=False)
        wa = w_vals[np.searchsorted(deg_nodes, a)]
        wb = w_vals[np.searchsorted(deg_nodes, b_)]
        ma, mb = wa > 0, wb > 0
        c = np.concatenate([a[ma], b_[mb]])
        n = np.concatenate([b_[ma], a[mb]])
        w = np.concatenate([wa[ma], wb[mb]])
        return pa.table(
            {
                "c": pa.array(c),
                "n": pa.array(n),
                "w": pa.array(w),
            }
        )

    # anti-join gate (the triangle_count crossover rule): when the
    # 8-byte edge-key set fits the broadcast budget, ship it ONCE to
    # the wedge tasks — existing-edge pairs die where they are born
    # and the pair exchange carries only surviving partials; past the
    # budget, edge keys ride the pair-key exchange for a co-located
    # anti-join instead.
    from ..core.util import BROADCAST_BUDGET_BYTES

    n_edges_total = edges.count()  # materialized → metadata read
    if broadcast_probe is None:
        broadcast_probe = n_edges_total * 8 <= BROADCAST_BUDGET_BYTES
    if broadcast_probe:
        bkeys = np.sort(
            edges.map_batches(
                lambda b: pa.table(
                    {
                        "key": pa.array(
                            (b["a"].to_numpy(zero_copy_only=False) << 32)
                            | b["b"].to_numpy(zero_copy_only=False)
                        )
                    }
                ),
                batch_format="pyarrow",
                batch_size=None,
            )
            .to_pandas()["key"]
            .to_numpy(dtype=np.int64)
        )
    else:
        bkeys = None

    def pair_partials(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        # stride-offset wedge sweep (see graph._wedges): after sorting
        # by (c, n), positions t and t+d share a center iff
        # c[t] == c[t+d]; n ascending within a center makes u < v free.
        g2 = g.sort_values(["c", "n"], kind="stable")
        c = g2["c"].to_numpy(dtype=np.int64)
        n = g2["n"].to_numpy(dtype=np.int64)
        w = g2["w"].to_numpy(dtype=np.int64)
        rows = len(c)
        keys, ws = [], []
        d = 1
        while d < rows:
            same = c[:-d] == c[d:]
            if not same.any():
                break  # sorted runs: no center run exceeds length d
            idx = np.flatnonzero(same)
            keys.append((n[idx] << 32) | n[idx + d])
            ws.append(w[idx])
            d += 1
        if not keys:
            key = np.empty(0, dtype=np.int64)
            score = cn = key
        else:
            key_all = np.concatenate(keys)
            w_all = np.concatenate(ws)
            if bkeys is not None:
                # broadcast anti-join at the source: drop wedges that
                # close an existing edge before anything ships
                pos = np.searchsorted(bkeys, key_all)
                ok = pos < len(bkeys)
                is_edge = np.zeros(len(key_all), dtype=bool)
                if len(bkeys):
                    is_edge[ok] = bkeys[np.where(ok, pos, 0)][ok] == key_all[ok]
                key_all, w_all = key_all[~is_edge], w_all[~is_edge]
            # in-bucket pre-aggregation: the exchange carries pair
            # partials, never wedges
            agg = pd.DataFrame({"k": key_all, "w": w_all}).groupby("k", sort=False)[
                "w"
            ].agg(["sum", "size"])
            key = agg.index.to_numpy(dtype=np.int64)
            score = agg["sum"].to_numpy(dtype=np.int64)
            cn = agg["size"].to_numpy(dtype=np.int64)
        return pa.table({"key": pa.array(key), "score": pa.array(score), "cn": pa.array(cn)})

    def edge_keys(b: pa.Table) -> pa.Table:
        k = (b["a"].to_numpy(zero_copy_only=False) << 32) | b["b"].to_numpy(
            zero_copy_only=False
        )
        return pa.table({"key": pa.array(k)})

    keyed = edges.map_batches(center_rows, batch_format="pyarrow", batch_size=None)
    pairs = exchange([(keyed, "c")], pair_partials, n_buckets=n_buckets)
    sides = [(pairs, "key", pa.schema({"key": pa.int64(), "score": pa.int64(), "cn": pa.int64()}))]
    if bkeys is None:
        sides.append(
            (
                edges.map_batches(edge_keys, batch_format="pyarrow", batch_size=None),
                "key",
                pa.schema({"key": pa.int64()}),
            )
        )

    def resolve_bucket(part: pa.Table, *edge: pa.Table) -> pa.Table:
        if not part.num_rows:
            e = np.empty(0, dtype=np.int64)
            return pa.table(
                {
                    "u": pa.array(e), "v": pa.array(e), "cn": pa.array(e),
                    "score_micro": pa.array(e), "jaccard_ppm": pa.array(e),
                }
            )
        agg = part.to_pandas().groupby("key", sort=False)[["score", "cn"]].sum()
        key = agg.index.to_numpy(dtype=np.int64)
        score = agg["score"].to_numpy(dtype=np.int64)
        cn = agg["cn"].to_numpy(dtype=np.int64)
        if edge:
            ekeys = np.sort(edge[0]["key"].to_numpy(zero_copy_only=False).astype(np.int64))
            pos = np.searchsorted(ekeys, key)
            ok = pos < len(ekeys)
            is_edge = np.zeros(len(key), dtype=bool)
            if len(ekeys):
                is_edge[ok] = ekeys[np.where(ok, pos, 0)][ok] == key[ok]
            key, score, cn = key[~is_edge], score[~is_edge], cn[~is_edge]
        u = key >> 32
        v = key & 0xFFFFFFFF
        du = deg_vals[np.searchsorted(deg_nodes, u)]
        dv = deg_vals[np.searchsorted(deg_nodes, v)]
        jac = cn * 1_000_000 // (du + dv - cn)
        # per-bucket top-k: (score DESC, u, v) — lexsort keys reversed
        order = np.lexsort((v, u, -score))[:top_k]
        return pa.table(
            {
                "u": pa.array(u[order]),
                "v": pa.array(v[order]),
                "cn": pa.array(cn[order]),
                "score_micro": pa.array(score[order]),
                "jaccard_ppm": pa.array(jac[order]),
            }
        )

    tops = exchange(
        sides, resolve_bucket, n_buckets=n_buckets
    ).to_pandas()  # bounded: ≤ n_buckets·top_k rows
    cols = ["u", "v", "cn", "score_micro", "jaccard_ppm"]
    if tops.empty:
        # every wedge closed an existing edge: the sort shuffle emits
        # schema-less empty blocks, so rebuild the typed empty frame
        tops = pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    out = tops.sort_values(
        ["score_micro", "u", "v"], ascending=[False, True, True], kind="stable"
    ).head(top_k)
    return pd.DataFrame(
        {c: pd.Series(out[c].to_numpy(dtype=np.int64), dtype=np.int64) for c in cols}
    )


def _sql_adamic_adar(max_center_deg: int = 64, top_k: int = 100) -> str:
    from ..stages.textstats import _shared_ln_cte

    lnm = "CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE) + CAST(0.5 AS DOUBLE)) AS BIGINT)"
    ln_tbl = _shared_ln_cte(
        "(SELECT DISTINCT CAST(d AS BIGINT) AS k FROM deg WHERE d >= 2)", "k"
    )
    return f"""
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (SELECT DISTINCT a.p AS u, b.p AS v
      FROM op a JOIN op b ON a.o = b.o AND a.p < b.p),
adj AS (SELECT u AS c, v AS n FROM e UNION ALL SELECT v AS c, u AS n FROM e),
deg AS (SELECT c, CAST(COUNT(*) AS BIGINT) AS d FROM adj GROUP BY c),
lk AS (SELECT k, CAST({_W_SCALE} AS BIGINT) // {lnm} AS w FROM {ln_tbl}),
cw AS (SELECT deg.c, deg.d, lk.w FROM deg JOIN lk ON lk.k = deg.d
       WHERE deg.d BETWEEN 2 AND {max_center_deg}),
wedge AS (SELECT a1.n AS u, a2.n AS v, cw.w
          FROM adj a1 JOIN adj a2 ON a1.c = a2.c AND a1.n < a2.n
          JOIN cw ON cw.c = a1.c),
s AS (SELECT u, v, CAST(COUNT(*) AS BIGINT) AS cn,
             CAST(SUM(w) AS BIGINT) AS score_micro
      FROM wedge GROUP BY u, v),
ne AS (SELECT s.* FROM s LEFT JOIN e ON e.u = s.u AND e.v = s.v
       WHERE e.u IS NULL)
SELECT ne.u, ne.v, ne.cn, ne.score_micro,
       CAST(ne.cn * 1000000 // (d1.d + d2.d - ne.cn) AS BIGINT) AS jaccard_ppm
FROM ne JOIN deg d1 ON d1.c = ne.u JOIN deg d2 ON d2.c = ne.v
ORDER BY ne.score_micro DESC, ne.u, ne.v
LIMIT {top_k}
"""


QUERIES = {"adamic_adar": q_adamic_adar}

ORACLE_SQL = {"adamic_adar": _sql_adamic_adar()}
