"""Decision-support analytics, part 2 — the remaining classic TPC-H
query shapes (Q6, Q7, Q8, Q9, Q10, Q12, Q15, Q20), each re-expressed
as an idiomatic Ray Data pipeline with an exact DuckDB oracle.

Shapes covered here (TPC-H number → engine capability):

* Q6  — predicate-only scan aggregate: no join at all, the whole query
  is one pruned read + per-batch partial sums (``discount_revenue``).
* Q7  — two-sided dimension qualification of a fact table (supplier
  nation × customer nation) with a grouped revenue roll-up
  (``nation_trade_volume``).
* Q8  — market-share ratio: a conditional numerator over a
  multi-dimension join, read off as exact ppm in Python bignums
  (``market_share``).
* Q9  — profit expression combining fact measures with a dimension
  attribute (retail price as the cost analog — this corpus has no
  partsupp table, so ``ps_supplycost`` is replaced by
  ``p_retailprice × qty``), grouped by supplier nation × order year
  (``product_profit``).
* Q10 — returned-revenue top-k: fact-side filter, order-grain join,
  customer-grain roll-up, deterministic ORDER BY ... LIMIT
  (``returned_item_revenue``).
* Q12 — two conditional counts in one pass (CASE WHEN priority class)
  grouped by line status; the corpus has no l_shipmode/l_receiptdate,
  so the group key is ``l_linestatus`` and the date predicate is a
  ship-year window (``priority_line_mix``).
* Q15 — view-equals-global-max: per-supplier revenue in a window,
  then the supplier(s) achieving the maximum (``top_supplier``).
* Q20 — nested qualification chain: parts by name prefix → shipped
  quantity per supplier → scale-free threshold (Q11's bignum
  ``floor+1`` rewrite reused) → suppliers in one region
  (``prolific_part_suppliers``).

Design rules are those of ``relational/ops.py`` / ``analytics.py``:
prune at the read, exact integer arithmetic end to end (cents ×
(100 − discount-percent) products, µs timestamps, integer quantities)
so distributed sums are order-free and hash-identical to the oracle,
pre-aggregate to the coarsest sufficient grain before every exchange,
and attach every dimension through :func:`~..core.join.keyed_join`.

Reference parity: the reference engine's extraction pipelines
(``extractor.py``, ``response_extractor.py``) have no relational
layer; this suite exists for the engine's own query surface, mirroring
the public TPC-H specification shapes only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ops import _cents
from .analytics import _qty_int
from ..core.exchange import combine, exchange
from ..core.join import keyed_join, session_buckets
from ..io.sources import read_table

_US = np.int64(86_400_000_000)


def _day_us(day: str) -> int:
    """'YYYY-MM-DD' → µs since epoch (matches the timestamp[us]
    encoding the parquet dates decode to)."""
    return int(np.datetime64(day, "us").astype(np.int64))


def _ts_us(col) -> np.ndarray:
    return (
        col.to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
    )


def _year_of(us: np.ndarray) -> np.ndarray:
    """µs since epoch → calendar year, vectorized."""
    return (
        us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64) + 1970
    )


def _nation_maps(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """nationkey-indexed (n_name, r_name) arrays. nation/region are
    spec-bounded (25 / 5 rows at every TPC-H scale), so this driver
    read is constant-size and ships in every closure for free."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rk = region["r_regionkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    rname = region["r_name"].to_numpy(zero_copy_only=False)
    rmap = np.empty(int(rk.max()) + 1 if len(rk) else 0, dtype=object)
    rmap[rk] = rname
    nk = nation["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    size = int(nk.max()) + 1 if len(nk) else 0
    names = np.empty(size, dtype=object)
    regions = np.empty(size, dtype=object)
    names[nk] = nation["n_name"].to_numpy(zero_copy_only=False)
    regions[nk] = rmap[
        nation["n_regionkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ]
    return names, regions


def _rev2(batch: pa.Table) -> np.ndarray:
    """Exact line revenue in cents×100: price_cents × (100 − disc_pct)."""
    price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
    disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
    return price_c * (100 - disc_c)


# ---------------------------------------------------------------------------
# Q6 shape — predicate-only scan aggregate
# ---------------------------------------------------------------------------

def q_discount_revenue(sf_dir: str):
    """Revenue that would be recovered by dropping mid-range discounts
    on small-quantity 1996 lines (TPC-H Q6 shape): a pure
    filter-and-sum with no join. The read is pruned to four columns,
    every batch folds to one (revenue, count) partial row, and the
    only "exchange" is the scalar sum of those partials — the shape a
    100 TB scan-aggregate should have."""
    import pandas as pd

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo, hi = _day_us("1996-01-01"), _day_us("1997-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch["l_shipdate"])
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        qty = _qty_int(batch["l_quantity"])
        keep = (ship >= lo) & (ship < hi) & (disc_c >= 5) & (disc_c <= 7) & (qty < 24)
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        rev = price_c[keep] * disc_c[keep]
        return pa.table(
            {
                "revenue_cents2": pa.array([int(rev.sum())]),
                "qualifying_lines": pa.array([int(keep.sum())]),
            }
        )

    sums = li.map_batches(partial, batch_format="pyarrow", batch_size=None).sum(
        ["revenue_cents2", "qualifying_lines"]
    )
    return pd.DataFrame(
        {
            "revenue_cents2": [int(sums["sum(revenue_cents2)"])],
            "qualifying_lines": [int(sums["sum(qualifying_lines)"])],
        }
    )


_SQL_DISCOUNT_REVENUE = """
SELECT CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                * CAST(ROUND(l_discount*100) AS BIGINT)) AS BIGINT) AS revenue_cents2,
       CAST(COUNT(*) AS BIGINT) AS qualifying_lines
FROM lineitem
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
  AND CAST(ROUND(l_discount*100) AS BIGINT) BETWEEN 5 AND 7
  AND CAST(ROUND(l_quantity) AS BIGINT) < 24
"""


# ---------------------------------------------------------------------------
# Q7 shape — two-sided dimension qualification with grouped roll-up
# ---------------------------------------------------------------------------

def q_nation_trade_volume(sf_dir: str, budget_bytes: int | None = None):
    """Shipped revenue between EUROPE suppliers and ASIA customers by
    (supplier nation, customer nation, ship year), 1996–1997 (TPC-H Q7
    shape, widened from one nation pair to region×region so the result
    is non-empty at every sf).

    Scale plan: the supplier attach is footer-gated broadcast (zero
    exchange) or an exchange join; lineitem then pre-reduces to (orderkey,
    supp-nation, year) grain per batch, so the order-grain exchange
    carries partial sums, never lines. The customer side reduces
    orders to (orderkey, cust-nation) the same way. ONE tagged-union
    bucket exchange (:func:`~..core.exchange.exchange`) meets the two and folds the
    pair sums in place — the customer side is unique per orderkey, so
    per-batch partials join-then-sum exactly — and the final group-by
    runs on a ≤ nations² × years key space."""
    from ray.data.aggregate import Sum

    names, regions = _nation_maps(sf_dir)
    n_keys = len(names)
    euro = np.array([regions[i] == "EUROPE" for i in range(n_keys)], dtype=bool)
    asia = np.array([regions[i] == "ASIA" for i in range(n_keys)], dtype=bool)
    lo, hi = _day_us("1996-01-01"), _day_us("1998-01-01")

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )
    li = keyed_join(
        li,
        sf_dir,
        "supplier",
        fact_key="l_suppkey",
        dim_key="s_suppkey",
        cols=["s_nationkey"],
        budget_bytes=budget_bytes,
    )

    def reduce_lines(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch["l_shipdate"])
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (ship >= lo) & (ship < hi) & euro[nk]
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        year = _year_of(ship[keep])
        # years are four-digit (< 4096): pack (nation, year) into one key
        t = pa.table(
            {"l_orderkey": ok, "sn_year": (nk[keep] << 12) | year, "revenue_cents2": _rev2(batch)[keep]}
        )
        return combine(t, ["l_orderkey", "sn_year"], "sum")

    # per-batch partials flow straight into the bucket exchange: the
    # customer side is unique per orderkey, so join-then-sum equals
    # sum-then-join and the (orderkey, nation, year) pre-merge groupby
    # folds away — one all-to-all saved
    supp_side = li.map_batches(reduce_lines, batch_format="pyarrow", batch_size=None)

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    orders = keyed_join(
        orders,
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        cols=["c_nationkey"],
        budget_bytes=budget_bytes,
    )

    def asia_orders(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = asia[nk]
        return pa.table(
            {
                "o_orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[
                        keep
                    ],
                    pa.int64(),
                ),
                "cust_nk": pa.array(nk[keep], pa.int64()),
            }
        )

    cust_side = orders.map_batches(asia_orders, batch_format="pyarrow", batch_size=None)

    def pair_fold(supp: pa.Table, cust: pa.Table) -> pa.Table:
        j = supp.to_pandas().merge(
            cust.to_pandas(), left_on="l_orderkey", right_on="o_orderkey"
        )
        agg = (
            j.groupby(["sn_year", "cust_nk"], sort=False)["revenue_cents2"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "sn_year": pa.array(agg["sn_year"].to_numpy(dtype=np.int64)),
                "cust_nk": pa.array(agg["cust_nk"].to_numpy(dtype=np.int64)),
                "revenue_cents2": pa.array(
                    agg["revenue_cents2"].to_numpy(dtype=np.int64)
                ),
            }
        )

    final = (
        exchange(
            [
                (
                    supp_side,
                    "l_orderkey",
                    pa.schema(
                        {"l_orderkey": pa.int64(), "sn_year": pa.int64(), "revenue_cents2": pa.int64()}
                    ),
                ),
                (
                    cust_side,
                    "o_orderkey",
                    pa.schema({"o_orderkey": pa.int64(), "cust_nk": pa.int64()}),
                ),
            ],
            pair_fold,
        )
        .groupby(["sn_year", "cust_nk"])
        .aggregate(Sum("revenue_cents2", alias_name="revenue_cents2"))
    )

    def label(batch: pa.Table) -> pa.Table:
        sn_year = batch["sn_year"].to_numpy(zero_copy_only=False)
        cnk = batch["cust_nk"].to_numpy(zero_copy_only=False).astype(np.int64)
        snk = (sn_year >> 12).astype(np.int64)
        return pa.table(
            {
                "supp_nation": pa.array(names[snk], pa.string()),
                "cust_nation": pa.array(names[cnk], pa.string()),
                "ship_year": pa.array(sn_year & 0xFFF, pa.int64()),
                "revenue_cents2": batch["revenue_cents2"],
            }
        )

    return final.map_batches(label, batch_format="pyarrow", batch_size=None)


_SQL_NATION_TRADE = """
WITH j AS (
    SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
           CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS ship_year,
           CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount*100) AS BIGINT)) AS rev
    FROM lineitem
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation ns ON s_nationkey = ns.n_nationkey
    JOIN region rs ON ns.n_regionkey = rs.r_regionkey AND rs.r_name = 'EUROPE'
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation nc ON c_nationkey = nc.n_nationkey
    JOIN region rc ON nc.n_regionkey = rc.r_regionkey AND rc.r_name = 'ASIA'
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1998-01-01')
SELECT supp_nation, cust_nation, ship_year,
       CAST(SUM(rev) AS BIGINT) AS revenue_cents2
FROM j GROUP BY supp_nation, cust_nation, ship_year
"""


# ---------------------------------------------------------------------------
# Q8 shape — market-share ratio by year
# ---------------------------------------------------------------------------

def q_market_share(sf_dir: str, budget_bytes: int | None = None):
    """NATION_7's share of PROMO-part revenue ordered by ASIA
    customers, per order year, in exact ppm (TPC-H Q8 shape).

    The part attach is pre-filtered to PROMO before it ships (a
    selective dimension predicate shrinks the broadcast/join side),
    supplier nationality rides the same gated attach, and lineitem
    folds to one (orderkey, total, target) row per order per batch
    before the single order-grain bucket exchange
    (:func:`~..core.exchange.exchange` — the ASIA-orders side is unique per
    orderkey, so per-batch partials need no pre-merge). The
    per-year read-off happens on ≤ #years rows driver-side in Python
    bignums, so no ppm product can overflow at any corpus size."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    names, regions = _nation_maps(sf_dir)
    asia = np.array([regions[i] == "ASIA" for i in range(len(names))], dtype=bool)
    target_keys = [i for i in range(len(names)) if names[i] == "NATION_7"]
    target_nk = target_keys[0] if target_keys else -1

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    li = _promo_parts(li, sf_dir, budget_bytes)
    li = keyed_join(
        li,
        sf_dir,
        "supplier",
        fact_key="l_suppkey",
        dim_key="s_suppkey",
        cols=["s_nationkey"],
        budget_bytes=budget_bytes,
    )

    def per_order(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = _rev2(batch)
        target = np.where(nk == target_nk, rev, 0)
        t = pa.table({"l_orderkey": ok, "target_cents2": target, "total_cents2": rev})
        return combine(t, "l_orderkey", "sum")

    # per-batch partials ride straight into the bucket exchange (the
    # ASIA-orders side is unique per orderkey)
    per_order_ds = li.map_batches(per_order, batch_format="pyarrow", batch_size=None)

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = keyed_join(
        orders,
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        cols=["c_nationkey"],
        budget_bytes=budget_bytes,
    )

    def asia_years(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = asia[nk]
        year = _year_of(_ts_us(batch["o_orderdate"]))[keep]
        return pa.table(
            {
                "o_orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[
                        keep
                    ],
                    pa.int64(),
                ),
                "o_year": pa.array(year, pa.int64()),
            }
        )

    cust_side = orders.map_batches(asia_years, batch_format="pyarrow", batch_size=None)

    def year_fold(lines: pa.Table, cust: pa.Table) -> pa.Table:
        j = lines.to_pandas().merge(
            cust.to_pandas(), left_on="l_orderkey", right_on="o_orderkey"
        )
        agg = (
            j.groupby("o_year", sort=False)[["target_cents2", "total_cents2"]]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "o_year": pa.array(agg["o_year"].to_numpy(dtype=np.int64)),
                "target_cents2": pa.array(
                    agg["target_cents2"].to_numpy(dtype=np.int64)
                ),
                "total_cents2": pa.array(agg["total_cents2"].to_numpy(dtype=np.int64)),
            }
        )

    per_year = (
        exchange(
            [
                (
                    per_order_ds,
                    "l_orderkey",
                    pa.schema(
                        {"l_orderkey": pa.int64(), "target_cents2": pa.int64(), "total_cents2": pa.int64()}
                    ),
                ),
                (
                    cust_side,
                    "o_orderkey",
                    pa.schema({"o_orderkey": pa.int64(), "o_year": pa.int64()}),
                ),
            ],
            year_fold,
        )
        .groupby("o_year")
        .aggregate(
            Sum("target_cents2", alias_name="target_cents2"),
            Sum("total_cents2", alias_name="total_cents2"),
        )
    )
    # ≤ #calendar-years rows: bounded at any corpus size — driver
    # read-off in Python ints so 2·10⁶·target never overflows.
    df = per_year.to_pandas()
    t = df["target_cents2"].astype(object)
    v = df["total_cents2"].astype(object)
    df["share_ppm"] = [
        (2 * 1_000_000 * int(ti) + int(vi)) // (2 * int(vi)) if int(vi) else 0
        for ti, vi in zip(t, v)
    ]
    df["share_ppm"] = df["share_ppm"].astype(np.int64)
    return df.sort_values("o_year").reset_index(drop=True)


def _promo_parts(li, sf_dir: str, budget_bytes: int | None):
    """PROMO-part semi filter on lineitem (the Q8 part attach): the
    dimension predicate runs before the gated broadcast/join so only
    PROMO keys ship."""
    return keyed_join(
        li,
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        how="semi",
        dim_filter=_promo_only,
        filter_cols=["p_type"],
        budget_bytes=budget_bytes,
    )


def _promo_only(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["p_type"], "PROMO"))


_SQL_MARKET_SHARE = """
WITH j AS (
    SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
           CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount*100) AS BIGINT)) AS rev,
           CASE WHEN ns.n_name = 'NATION_7' THEN 1 ELSE 0 END AS is_target
    FROM lineitem
    JOIN part ON l_partkey = p_partkey AND p_type = 'PROMO'
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation ns ON s_nationkey = ns.n_nationkey
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation nc ON c_nationkey = nc.n_nationkey
    JOIN region rc ON nc.n_regionkey = rc.r_regionkey AND rc.r_name = 'ASIA')
SELECT o_year,
       CAST(SUM(is_target * rev) AS BIGINT) AS target_cents2,
       CAST(SUM(rev) AS BIGINT) AS total_cents2,
       CAST(CASE WHEN SUM(rev) = 0 THEN 0
            ELSE (2 * 1000000 * SUM(is_target * rev) + SUM(rev)) // (2 * SUM(rev))
       END AS BIGINT) AS share_ppm
FROM j GROUP BY o_year
"""


# ---------------------------------------------------------------------------
# Q9 shape — profit expression over a multi-dimension join
# ---------------------------------------------------------------------------

def q_product_profit(sf_dir: str, token: str = "bolt", budget_bytes: int | None = None):
    """Profit on parts whose name contains ``token``, by supplier
    nation and order year (TPC-H Q9 shape). This corpus has no
    partsupp table, so the cost term is ``p_retailprice × quantity``
    (the public Q9 expression with retail price as the supply-cost
    analog); profit is exact in cents×100 units:
    ``price_c·(100−disc_c) − 100·retail_c·qty``.

    The part attach ships only name-matching keys (+ retail cents),
    supplier nationality rides the same gated attach, and profit folds
    to (orderkey, nation) grain per batch before the order-grain
    exchange that picks up the order year."""
    from ray.data.aggregate import Sum

    names, _ = _nation_maps(sf_dir)

    def name_match(t: pa.Table) -> pa.Table:
        return t.filter(pc.match_substring(t["p_name"], token))

    li = read_table(
        sf_dir,
        "lineitem",
        [
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    li = keyed_join(
        li,
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_name", "p_retailprice"],
        dim_filter=name_match,
        budget_bytes=budget_bytes,
    )
    li = keyed_join(
        li,
        sf_dir,
        "supplier",
        fact_key="l_suppkey",
        dim_key="s_suppkey",
        cols=["s_nationkey"],
        budget_bytes=budget_bytes,
    )

    def per_order_nation(batch: pa.Table) -> pa.Table:
        rev = _rev2(batch)
        retail_c = _cents(batch["p_retailprice"]).to_numpy(zero_copy_only=False)
        qty = _qty_int(batch["l_quantity"])
        profit = rev - 100 * retail_c * qty
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
                "s_nationkey": batch["s_nationkey"].cast(pa.int64()),
                "profit_e4": profit,
            }
        )
        return combine(t, ["l_orderkey", "s_nationkey"], "sum")

    # per-batch (orderkey, nation) partials flow straight into the
    # bucket exchange — orders are unique per key
    per_order = li.map_batches(
        per_order_nation, batch_format="pyarrow", batch_size=None
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def order_years(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_year": pa.array(_year_of(_ts_us(batch["o_orderdate"])), pa.int64()),
            }
        )

    def nation_year_fold(lines: pa.Table, years: pa.Table) -> pa.Table:
        j = lines.to_pandas().merge(
            years.to_pandas(), left_on="l_orderkey", right_on="o_orderkey"
        )
        agg = (
            j.groupby(["s_nationkey", "o_year"], sort=False)["profit_e4"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "s_nationkey": pa.array(agg["s_nationkey"].to_numpy(dtype=np.int64)),
                "o_year": pa.array(agg["o_year"].to_numpy(dtype=np.int64)),
                "profit_e4": pa.array(agg["profit_e4"].to_numpy(dtype=np.int64)),
            }
        )

    final = (
        exchange(
            [
                (
                    per_order,
                    "l_orderkey",
                    pa.schema(
                        {"l_orderkey": pa.int64(), "s_nationkey": pa.int64(), "profit_e4": pa.int64()}
                    ),
                ),
                (
                    orders.map_batches(order_years, batch_format="pyarrow", batch_size=None),
                    "o_orderkey",
                    pa.schema({"o_orderkey": pa.int64(), "o_year": pa.int64()}),
                ),
            ],
            nation_year_fold,
        )
        .groupby(["s_nationkey", "o_year"])
        .aggregate(Sum("profit_e4", alias_name="profit_e4"))
    )

    def label(batch: pa.Table) -> pa.Table:
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "nation": pa.array(names[nk], pa.string()),
                "o_year": batch["o_year"],
                "profit_e4": batch["profit_e4"],
            }
        )

    return final.map_batches(label, batch_format="pyarrow", batch_size=None)


_SQL_PRODUCT_PROFIT = """
WITH j AS (
    SELECT n_name AS nation,
           CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
           CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount*100) AS BIGINT))
           - 100 * CAST(ROUND(p_retailprice*100) AS BIGINT)
                 * CAST(ROUND(l_quantity) AS BIGINT) AS profit
    FROM lineitem
    JOIN part ON l_partkey = p_partkey AND p_name LIKE '%bolt%'
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    JOIN orders ON l_orderkey = o_orderkey)
SELECT nation, o_year, CAST(SUM(profit) AS BIGINT) AS profit_e4
FROM j GROUP BY nation, o_year
"""


# ---------------------------------------------------------------------------
# Q10 shape — returned-revenue top-k with deterministic order
# ---------------------------------------------------------------------------

def q_returned_item_revenue(
    sf_dir: str, k: int = 20, budget_bytes: int | None = None
):
    """Top-k customers by revenue on RETURNED lines of orders placed in
    1996 H1 (TPC-H Q10 shape). Returned lines fold to order grain per
    batch, one order-grain bucket exchange (:func:`~..core.exchange.exchange`)
    attaches custkey from the date-filtered orders side and folds the
    roll-up to customer grain in place, and only then do
    name/nation attach and the bounded top-k sort run — the fact table
    never crosses an exchange at line grain. Tie-break is (revenue
    DESC, custkey ASC): total, so LIMIT is deterministic on both
    engines."""
    from ray.data.aggregate import Sum

    names, _ = _nation_maps(sf_dir)
    lo, hi = _day_us("1996-01-01"), _day_us("1996-07-01")

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def returned_per_order(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["l_returnflag"], "R").to_numpy(zero_copy_only=False)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        rev = _rev2(batch)[keep]
        return combine(pa.table({"l_orderkey": ok, "revenue_cents2": rev}), "l_orderkey", "sum")

    # per-batch partials ride into the bucket exchange directly (the
    # date-filtered orders side is unique per orderkey)
    per_order = li.map_batches(
        returned_per_order, batch_format="pyarrow", batch_size=None
    )

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def window(batch: pa.Table) -> pa.Table:
        od = _ts_us(batch["o_orderdate"])
        keep = (od >= lo) & (od < hi)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)[
                        keep
                    ],
                    pa.int64(),
                ),
                "o_custkey": pa.array(
                    batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)[
                        keep
                    ],
                    pa.int64(),
                ),
            }
        )

    def cust_fold(lines: pa.Table, window_orders: pa.Table) -> pa.Table:
        j = lines.to_pandas().merge(
            window_orders.to_pandas(), left_on="l_orderkey", right_on="o_orderkey"
        )
        agg = j.groupby("o_custkey", sort=False)["revenue_cents2"].sum().reset_index()
        return pa.table(
            {
                "o_custkey": pa.array(agg["o_custkey"].to_numpy(dtype=np.int64)),
                "revenue_cents2": pa.array(
                    agg["revenue_cents2"].to_numpy(dtype=np.int64)
                ),
            }
        )

    per_customer = (
        exchange(
            [
                (
                    per_order,
                    "l_orderkey",
                    pa.schema({"l_orderkey": pa.int64(), "revenue_cents2": pa.int64()}),
                ),
                (
                    orders.map_batches(window, batch_format="pyarrow", batch_size=None),
                    "o_orderkey",
                    pa.schema({"o_orderkey": pa.int64(), "o_custkey": pa.int64()}),
                ),
            ],
            cust_fold,
        )
        .groupby("o_custkey")
        .aggregate(Sum("revenue_cents2", alias_name="revenue_cents2"))
    )
    with_dim = keyed_join(
        per_customer,
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        cols=["c_name", "c_nationkey"],
        budget_bytes=budget_bytes,
    )

    def label(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "c_custkey": batch["o_custkey"],
                "c_name": pa.array(
                    batch["c_name"].to_numpy(zero_copy_only=False), pa.string()
                ),
                "n_name": pa.array(names[nk], pa.string()),
                "revenue_cents2": batch["revenue_cents2"],
            }
        )

    return (
        with_dim.map_batches(label, batch_format="pyarrow", batch_size=None)
        .sort(["revenue_cents2", "c_custkey"], descending=[True, False])
        .limit(k)
    )


_SQL_RETURNED_REVENUE = """
WITH per_cust AS (
    SELECT o_custkey AS c_custkey,
           SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS rev
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_returnflag = 'R'
      AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1996-07-01'
    GROUP BY o_custkey)
SELECT p.c_custkey, c_name, n_name, CAST(rev AS BIGINT) AS revenue_cents2
FROM per_cust p
JOIN customer ON p.c_custkey = customer.c_custkey
JOIN nation ON c_nationkey = n_nationkey
ORDER BY rev DESC, p.c_custkey
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q12 shape — two conditional counts in one pass
# ---------------------------------------------------------------------------

def q_priority_line_mix(sf_dir: str):
    """Per line status, how many 1997-shipped lines belong to
    critical-priority (1-URGENT / 2-HIGH) orders vs the rest (TPC-H
    Q12's CASE-WHEN double count; this corpus has no l_shipmode, so
    the group key is ``l_linestatus``). Lines fold to (orderkey,
    status, count) per batch, the priority attach happens at that
    grain against the orders side, and the final table is ≤ #statuses
    rows."""
    import pandas as pd
    from ray.data.aggregate import Sum

    lo, hi = _day_us("1997-01-01"), _day_us("1998-01-01")
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"])

    def per_order_status(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch["l_shipdate"])
        keep = (ship >= lo) & (ship < hi)
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"].cast(pa.int64()),
                "l_linestatus": batch["l_linestatus"],
                "cnt": np.ones(len(keep), np.int64),
            }
        ).filter(keep)
        return combine(t, ["l_orderkey", "l_linestatus"], "sum")

    # per-batch (orderkey, status) count partials flow straight into
    # the bucket exchange — orders are unique per key
    per_order = li.map_batches(
        per_order_status, batch_format="pyarrow", batch_size=None
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def split_fold(lines: pa.Table, prio: pa.Table) -> pa.Table:
        j = lines.to_pandas().merge(
            prio.to_pandas(), left_on="l_orderkey", right_on="o_orderkey"
        )
        high = j["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy()
        cnt = j["cnt"].to_numpy()
        df = pd.DataFrame(
            {
                "s": j["l_linestatus"].to_numpy(),
                "h": np.where(high, cnt, 0),
                "l": np.where(high, 0, cnt),
            }
        )
        agg = df.groupby("s", sort=False)[["h", "l"]].sum().reset_index()
        return pa.table(
            {
                "l_linestatus": pa.array(agg["s"].astype(str), pa.string()),
                "high_line_count": pa.array(agg["h"].to_numpy().astype(np.int64)),
                "low_line_count": pa.array(agg["l"].to_numpy().astype(np.int64)),
            }
        )

    return (
        exchange(
            [
                (
                    per_order,
                    "l_orderkey",
                    pa.schema(
                        {"l_orderkey": pa.int64(), "l_linestatus": pa.string(), "cnt": pa.int64()}
                    ),
                ),
                (orders, "o_orderkey"),
            ],
            split_fold,
        )
        .groupby("l_linestatus")
        .aggregate(
            Sum("high_line_count", alias_name="high_line_count"),
            Sum("low_line_count", alias_name="low_line_count"),
        )
    )


_SQL_PRIORITY_LINE_MIX = """
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= DATE '1997-01-01' AND l_shipdate < DATE '1998-01-01'
GROUP BY l_linestatus
"""


# ---------------------------------------------------------------------------
# Q15 shape — group sums equal to the global maximum
# ---------------------------------------------------------------------------

def q_top_supplier(sf_dir: str, budget_bytes: int | None = None):
    """The supplier(s) with the highest shipped revenue in 1996 Q1
    (TPC-H Q15's view-equals-max shape). One lineitem pass builds
    per-supplier exact revenue (per-batch partials → groupby SUM);
    that supplier-grain table is dimension-sized, so — the Q11
    discipline — it is materialized once and consumed twice: a scalar
    MAX, then the equality filter. Name attach happens on the
    (typically single-row) winners only. Ties: every supplier at the
    maximum is returned, deterministically on both engines."""
    from ray.data.aggregate import Sum

    lo, hi = _day_us("1996-01-01"), _day_us("1996-04-01")
    li = read_table(
        sf_dir,
        "lineitem",
        ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def per_supp(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch["l_shipdate"])
        keep = (ship >= lo) & (ship < hi)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        rev = _rev2(batch)[keep]
        return combine(pa.table({"l_suppkey": sk, "total_revenue_cents2": rev}), "l_suppkey", "sum")

    agg = (
        li.map_batches(per_supp, batch_format="pyarrow", batch_size=None)
        .groupby("l_suppkey")
        .aggregate(Sum("total_revenue_cents2", alias_name="total_revenue_cents2"))
        .materialize()  # supplier-grain (dimension-sized): scalar MAX + filter
    )
    if agg.count() == 0:
        return agg
    mx = int(agg.max("total_revenue_cents2"))
    winners = agg.map_batches(
        lambda b: b.filter(pc.equal(b["total_revenue_cents2"], mx)),
        batch_format="pyarrow",
        batch_size=None,
    )
    # Winner set is tiny (ties at the max): one exchange bucket is the
    # right plan at this cardinality.
    named = keyed_join(
        winners,
        sf_dir,
        "supplier",
        fact_key="l_suppkey",
        dim_key="s_suppkey",
        cols=["s_name"],
        budget_bytes=budget_bytes,
        n_buckets=1,
    )

    def label(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": batch["l_suppkey"],
                "s_name": pa.array(
                    batch["s_name"].to_numpy(zero_copy_only=False), pa.string()
                ),
                "total_revenue_cents2": batch["total_revenue_cents2"],
            }
        )

    return named.map_batches(label, batch_format="pyarrow", batch_size=None)


_SQL_TOP_SUPPLIER = """
WITH r AS (
    SELECT l_suppkey,
           SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS rev
    FROM lineitem
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
    GROUP BY l_suppkey)
SELECT l_suppkey AS s_suppkey, s_name, CAST(rev AS BIGINT) AS total_revenue_cents2
FROM r JOIN supplier ON l_suppkey = s_suppkey
WHERE rev = (SELECT MAX(rev) FROM r)
"""


# ---------------------------------------------------------------------------
# Q20 shape — nested qualification chain
# ---------------------------------------------------------------------------

def q_prolific_part_suppliers(sf_dir: str, budget_bytes: int | None = None):
    """AFRICA suppliers who shipped disproportionately many 'small…'
    parts in 1996 (TPC-H Q20's nested-IN chain; this corpus has no
    partsupp availqty, so the qualifying predicate is a scale-free
    mean multiple — shipped quantity > 5/4 of the mean over shipping
    suppliers — reusing Q11's exact ``floor+1`` bignum rewrite).

    Chain: name-prefix part filter ships as a semi-join key set into
    the lineitem scan → per-supplier quantity partials → one
    supplier-grain groupby (materialized once, dimension-sized) →
    threshold filter → gated supplier attach → region filter via the
    spec-bounded nation map."""
    from ray.data.aggregate import Sum

    names, regions = _nation_maps(sf_dir)
    africa = np.array(
        [regions[i] == "AFRICA" for i in range(len(names))], dtype=bool
    )
    lo, hi = _day_us("1996-01-01"), _day_us("1997-01-01")

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_shipdate", "l_quantity"])
    li = keyed_join(
        li,
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        how="semi",
        dim_filter=lambda t: t.filter(pc.starts_with(t["p_name"], "small")),
        filter_cols=["p_name"],
        budget_bytes=budget_bytes,
    )

    def per_supp(batch: pa.Table) -> pa.Table:
        ship = _ts_us(batch["l_shipdate"])
        keep = (ship >= lo) & (ship < hi)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        qty = _qty_int(batch["l_quantity"])[keep]
        return combine(pa.table({"s_suppkey": sk, "shipped_qty": qty}), "s_suppkey", "sum")

    agg = (
        li.map_batches(per_supp, batch_format="pyarrow", batch_size=None)
        .groupby("s_suppkey")
        .aggregate(Sum("shipped_qty", alias_name="shipped_qty"))
        .materialize()  # supplier-grain: total+count scalar, then filter
    )
    n = int(agg.count())
    if n == 0:
        return agg
    total = int(agg.sum("shipped_qty"))
    # 4·n·q > 5·total  ⇔  q ≥ floor(5·total/(4·n)) + 1  (q integer)
    threshold = (5 * total) // (4 * n) + 1
    qualified = agg.map_batches(
        lambda b: b.filter(pc.greater_equal(b["shipped_qty"], threshold)),
        batch_format="pyarrow",
        batch_size=None,
    )
    # The qualified set is a filtered slice of the (materialized)
    # supplier-grain table: re-counting it is a cheap second read of
    # the pin, and sizes the exchange's buckets to it, fanning out
    # when many suppliers qualify.
    n_qual = int(qualified.count())
    if n_qual == 0:
        return qualified
    named = keyed_join(
        qualified,
        sf_dir,
        "supplier",
        fact_key="s_suppkey",
        dim_key="s_suppkey",
        cols=["s_name", "s_nationkey"],
        budget_bytes=budget_bytes,
        n_buckets=max(1, min(session_buckets(), n_qual // 1024 + 1)),
    )

    def africa_only(batch: pa.Table) -> pa.Table:
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(africa[nk]))
        return pa.table(
            {
                "s_suppkey": batch["s_suppkey"],
                "s_name": pa.array(
                    batch["s_name"].to_numpy(zero_copy_only=False), pa.string()
                ),
                "shipped_qty": batch["shipped_qty"],
            }
        )

    return named.map_batches(africa_only, batch_format="pyarrow", batch_size=None)


_SQL_PROLIFIC_SUPPLIERS = """
WITH s AS (
    SELECT l_suppkey, SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
    FROM lineitem
    JOIN part ON l_partkey = p_partkey AND p_name LIKE 'small%'
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
    GROUP BY l_suppkey)
SELECT l_suppkey AS s_suppkey, s_name, CAST(q AS BIGINT) AS shipped_qty
FROM s
JOIN supplier ON l_suppkey = supplier.s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey AND r_name = 'AFRICA'
WHERE q * 4 * (SELECT COUNT(*) FROM s) > 5 * (SELECT SUM(q) FROM s)
"""


# ---------------------------------------------------------------------------
# Grouped exact OLS slope — SQL REGR_SLOPE with hash-exact semantics
# ---------------------------------------------------------------------------

def q_revenue_trend(sf_dir: str):
    """Per-priority linear trend of order value over time (SQL
    ``REGR_SLOPE(o_totalprice, day)`` shape), exact: the slope
    ``(n·Σxy − Σx·Σy) / (n·Σxx − Σx²)`` is a ratio of integers when x
    is whole days since a fixed epoch and y is cents, so the µ-cents/
    day read-off is one signed half-away rational rounding in Python
    bignums — no float ever enters, and the distributed sum order
    cannot change the answer.

    Each batch folds to one (n, Σx, Σy, Σxy, Σxx) row per priority;
    the groupby moves O(groups × blocks) partials. Σxy is the widest
    sum (day·cents ≈ 2⁴⁷ per row → past int64 near 10⁹ rows/group), so
    it ships as two int64 limbs (hi = v>>31, lo = v&(2³¹−1)) summed
    independently and reassembled driver-side — the spend_gini limb
    transport. The ≤ #priorities result rows are driver-bounded."""
    import pandas as pd
    from ray.data.aggregate import Sum

    epoch = _day_us("1995-01-01")
    orders = read_table(
        sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = (_ts_us(batch["o_orderdate"]) - epoch) // _US
        y = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n": np.ones(len(x), np.int64),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
            }
        )
        agg = combine(t, "o_orderpriority", "sum")
        sxy = agg["sxy"].to_numpy()
        return (
            agg.drop_columns("sxy")
            .append_column("sxy_hi", pa.array(sxy >> 31))
            .append_column("sxy_lo", pa.array(sxy & ((1 << 31) - 1)))
        )

    g = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy_hi", alias_name="sxy_hi"),
            Sum("sxy_lo", alias_name="sxy_lo"),
            Sum("sxx", alias_name="sxx"),
        )
    )
    df = g.to_pandas()  # ≤ #priorities rows
    out_n, out_slope = [], []
    for _, r in df.iterrows():
        n, sx, sy, sxx = int(r["n"]), int(r["sx"]), int(r["sy"]), int(r["sxx"])
        sxy = (int(r["sxy_hi"]) << 31) + int(r["sxy_lo"])
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        if den == 0:
            slope = 0
        elif num >= 0:
            slope = (2 * 1_000_000 * num + den) // (2 * den)
        else:
            slope = -((2 * 1_000_000 * (-num) + den) // (2 * den))
        out_n.append(n)
        out_slope.append(slope)
    return pd.DataFrame(
        {
            "o_orderpriority": df["o_orderpriority"].astype(str),
            "n_orders": pd.Series(out_n, dtype=np.int64),
            "slope_micro": pd.Series(out_slope, dtype=np.int64),
        }
    ).reset_index(drop=True)


_SQL_REVENUE_TREND = """
WITH b AS (
    SELECT o_orderpriority,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS y,
           CAST(DATEDIFF('day', DATE '1995-01-01', CAST(o_orderdate AS DATE))
                AS BIGINT) AS x
    FROM orders),
s AS (
    SELECT o_orderpriority, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
           SUM(x*y) AS sxy, SUM(x*x) AS sxx
    FROM b GROUP BY o_orderpriority)
SELECT o_orderpriority,
       CAST(n AS BIGINT) AS n_orders,
       CAST(CASE
            WHEN (n*sxx - sx*sx) = 0 THEN 0
            WHEN (n*sxy - sx*sy) >= 0
            THEN (2*1000000*(n*sxy - sx*sy) + (n*sxx - sx*sx))
                 // (2*(n*sxx - sx*sx))
            ELSE -((2*1000000*(sx*sy - n*sxy) + (n*sxx - sx*sx))
                 // (2*(n*sxx - sx*sx)))
       END AS BIGINT) AS slope_micro
FROM s
"""


# ---------------------------------------------------------------------------
# Distribution drift — exact two-sample Kolmogorov–Smirnov distance
# ---------------------------------------------------------------------------


def _expedited_price_hist(sf_dir: str):
    """Shared two-sample value-count summary for the drift family
    (:func:`q_order_price_drift`, :func:`q_order_price_ranksum`):
    per-batch ``np.unique`` counts of order-total cents per sample
    (A = expedited priorities, B = rest) → ONE ``groupby(cents)`` Sum
    exchange carrying two int64 counters per distinct price. Returns
    the aggregated (cents, cnt_a, cnt_b) pandas frame sorted by value —
    bounded by the price domain, tiny next to the data."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", ["o_totalprice", "o_orderpriority"])

    def counts(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        is_a = pc.is_in(
            batch["o_orderpriority"],
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        ).to_numpy(zero_copy_only=False)
        vals, inv = np.unique(cents, return_inverse=True)
        ca = np.bincount(inv[is_a], minlength=len(vals)).astype(np.int64)
        cb = np.bincount(inv[~is_a], minlength=len(vals)).astype(np.int64)
        return pa.table(
            {"cents": pa.array(vals), "cnt_a": pa.array(ca), "cnt_b": pa.array(cb)}
        )

    return (
        ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
        .groupby("cents")
        .aggregate(Sum("cnt_a", alias_name="cnt_a"), Sum("cnt_b", alias_name="cnt_b"))
        .to_pandas()
        .sort_values("cents")
    )


def q_order_price_drift(sf_dir: str):
    """Exact two-sample Kolmogorov–Smirnov distance between the
    order-total distributions of expedited orders (priority 1-URGENT /
    2-HIGH, sample A) and the rest (sample B) — the data-quality /
    drift monitor a training pipeline runs between corpus snapshots or
    source shards before mixing them.

    Distributed shape (the Q17 value-count-summary discipline,
    :func:`~.ops.q_price_percentiles`): per-batch ``np.unique`` counts
    per (cents, sample) → ONE ``groupby(cents)`` Sum exchange carrying
    two int64 counters per distinct price — the (distinct value,
    count_a, count_b) table is bounded by the value domain, tiny next
    to the data — then the cumulative scan and the max-gap read-off run
    on that aggregated grain. The statistic is computed in Python
    bignums over integers only (the ``market_share`` ppm discipline):

        d_num    = max over distinct values v of
                   |cum_a(v)·n_b − cum_b(v)·n_a|
        ks_micro = ⌊d_num · 10⁶ / (n_a·n_b)⌋      (= ⌊D·10⁶⌋ exactly)
        at_cents = smallest v attaining the max

    so the result is hash-identical to the SQL oracle on any engine —
    no float CDFs, no libm. Reference parity: the reference engine has
    no statistics layer; this is an engine addition for corpus QA."""
    import pandas as pd

    hist = _expedited_price_hist(sf_dir)
    n_a = int(hist["cnt_a"].sum())
    n_b = int(hist["cnt_b"].sum())
    cum_a = hist["cnt_a"].cumsum().to_numpy()
    cum_b = hist["cnt_b"].cumsum().to_numpy()
    vals = hist["cents"].to_numpy()
    # bignum-safe gap scan on the aggregated grain: cum·n products
    # overflow int64 past ~sf10, so the read-off stays in Python ints
    d_num, at_cents = 0, 0
    for v, ca, cb in zip(vals.tolist(), cum_a.tolist(), cum_b.tolist()):
        gap = abs(ca * n_b - cb * n_a)
        if gap > d_num:
            d_num, at_cents = gap, v
    ks_micro = (d_num * 1_000_000) // (n_a * n_b) if n_a and n_b else 0
    return pd.DataFrame(
        {
            "n_a": pd.Series([n_a], dtype=np.int64),
            "n_b": pd.Series([n_b], dtype=np.int64),
            "d_num": pd.Series([d_num], dtype=np.int64),
            "ks_micro": pd.Series([ks_micro], dtype=np.int64),
            "at_cents": pd.Series([at_cents], dtype=np.int64),
        }
    )


_SQL_ORDER_PRICE_DRIFT = """
WITH s AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END AS a
    FROM orders),
h AS (
    SELECT cents, SUM(a) AS ca, SUM(1 - a) AS cb
    FROM s GROUP BY cents),
c AS (
    SELECT cents,
           SUM(ca) OVER (ORDER BY cents) AS cum_a,
           SUM(cb) OVER (ORDER BY cents) AS cum_b
    FROM h),
t AS (SELECT SUM(ca) AS na, SUM(cb) AS nb FROM h),
d AS (SELECT c.cents, ABS(c.cum_a * t.nb - c.cum_b * t.na) AS gap FROM c, t),
m AS (SELECT MAX(gap) AS mx FROM d)
SELECT CAST(t.na AS BIGINT) AS n_a,
       CAST(t.nb AS BIGINT) AS n_b,
       CAST(m.mx AS BIGINT) AS d_num,
       CAST(CASE WHEN t.na = 0 OR t.nb = 0 THEN 0
                 ELSE (m.mx * 1000000) // (t.na * t.nb) END
            AS BIGINT) AS ks_micro,
       CAST((SELECT MIN(cents) FROM d WHERE d.gap = m.mx) AS BIGINT) AS at_cents
FROM t, m
"""


# ---------------------------------------------------------------------------
# Distribution drift — exact Mann–Whitney U (rank-sum) with midrank ties
# ---------------------------------------------------------------------------


def q_order_price_ranksum(sf_dir: str):
    """Exact two-sample Mann–Whitney U between the same expedited /
    rest order-total samples as :func:`q_order_price_drift` — the
    location-shift companion to KS's shape test (a training pipeline
    runs both between corpus snapshots: KS flags any distribution
    change, U flags a systematic shift).

    Exactness with ties: midranks are half-integers, so everything is
    DOUBLED to stay in integers — on the shared (cents, cnt_a, cnt_b)
    value-count grain, each distinct value's doubled midrank is
    ``M = 2·cum_before + t + 1`` (t = total count at the value), the
    doubled rank sum is ``R2_a = Σ cnt_a·M``, and

        u2_a    = R2_a − n_a·(n_a+1)        (= 2·U_a exactly)
        u2_b    = 2·n_a·n_b − u2_a          (midrank identity)
        auc_ppm = ⌊u2_a·10⁶ / (2·n_a·n_b)⌋  (= ⌊P(A>B)+½P(A=B) in ppm⌋)

    — Python bignums on the aggregated grain, one int64-pair Sum
    exchange total (shared with KS via :func:`_expedited_price_hist`).
    The SQL oracle mirrors the doubled arithmetic with a window cumsum
    in HUGEINT. Reference parity: engine addition for corpus QA."""
    import pandas as pd

    hist = _expedited_price_hist(sf_dir)
    n_a = int(hist["cnt_a"].sum())
    n_b = int(hist["cnt_b"].sum())
    t = (hist["cnt_a"] + hist["cnt_b"]).to_numpy()
    cum_before = np.concatenate(([0], np.cumsum(t)[:-1]))
    r2_a = 0
    for ca, c, tt in zip(
        hist["cnt_a"].tolist(), cum_before.tolist(), t.tolist()
    ):
        r2_a += int(ca) * (2 * int(c) + int(tt) + 1)
    u2_a = r2_a - n_a * (n_a + 1)
    u2_b = 2 * n_a * n_b - u2_a
    auc_ppm = (u2_a * 1_000_000) // (2 * n_a * n_b) if n_a and n_b else 0
    return pd.DataFrame(
        {
            "n_a": pd.Series([n_a], dtype=np.int64),
            "n_b": pd.Series([n_b], dtype=np.int64),
            "u2_a": pd.Series([u2_a], dtype=np.int64),
            "u2_b": pd.Series([u2_b], dtype=np.int64),
            "auc_ppm": pd.Series([auc_ppm], dtype=np.int64),
        }
    )


_SQL_ORDER_PRICE_RANKSUM = """
WITH s AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END AS a
    FROM orders),
h AS (
    SELECT cents, CAST(SUM(a) AS HUGEINT) AS ca,
           CAST(COUNT(*) AS HUGEINT) AS t
    FROM s GROUP BY cents),
c AS (
    SELECT cents, ca, t,
           SUM(t) OVER (ORDER BY cents) - t AS cum_before
    FROM h),
tot AS (SELECT SUM(ca) AS na, SUM(t) - SUM(ca) AS nb,
               SUM(ca * (2*cum_before + t + 1)) AS r2a
        FROM c)
SELECT CAST(na AS BIGINT) AS n_a,
       CAST(nb AS BIGINT) AS n_b,
       CAST(r2a - na*(na+1) AS BIGINT) AS u2_a,
       CAST(2*na*nb - (r2a - na*(na+1)) AS BIGINT) AS u2_b,
       CAST(CASE WHEN na = 0 OR nb = 0 THEN 0
                 ELSE (r2a - na*(na+1)) * 1000000 // (2*na*nb) END
            AS BIGINT) AS auc_ppm
FROM tot
"""


# ---------------------------------------------------------------------------
# Benford first-digit deviation — exact micro units on the shared ln
# ---------------------------------------------------------------------------


def q_benford_deviation(sf_dir: str):
    """First-digit distribution of order totals vs Benford's law — the
    synthetic-data / fabricated-shard detector a corpus QA pass runs
    (hand-generated numbers drift from ``P(d) = log10(1 + 1/d)``).

    Exactness: Benford's probabilities are irrational, so the spec
    snaps every ln to an integer first (the :mod:`~..stages.textstats`
    shared-ln discipline): with ``lnm(k) = ⌊ln(k)·10⁶ + ½⌋`` over the
    fixed IEEE expression tree both engines share,

        dev_num(d)    = |cnt_d·lnm(10) − N·(lnm(d+1) − lnm(d))|
        obs_ppm(d)    = ⌊cnt_d·10⁶ / N⌋
        benford_ppm(d)= ⌊(lnm(d+1) − lnm(d))·10⁶ / lnm(10)⌋

    — all integer arithmetic, order-free, hash-identical on any
    platform. Scale shape: first digits come from one Arrow
    ``utf8_slice_codeunits`` over the cents cast to string (exact — no
    float log10 at decade boundaries), per-batch ``np.unique`` counts →
    ONE ``groupby(digit)`` Sum exchange carrying ≤ 9 int64 partials per
    block; the read-off runs on ≤ 9 driver rows in Python bignums
    (``cnt·lnm(10)`` passes int64 near 10¹² rows — driver math is
    bignum, the SQL twin HUGEINT). Reference parity: engine addition
    for corpus QA; the reference has no statistics layer."""
    import pandas as pd
    from ray.data.aggregate import Sum
    from ..stages.textstats import lnm_micro

    ds = read_table(sf_dir, "orders", ["o_totalprice"])

    def counts(batch: pa.Table) -> pa.Table:
        # Benford is defined on positive magnitudes: zero cents would
        # yield first digit '0' whose ln(0) is undefined, so both
        # sides restrict to cents > 0 (N counts only those rows —
        # TPC-H totals are always positive, but the guard keeps the
        # hash-exact contract on degenerate corpora too).
        cents = _cents(batch["o_totalprice"])
        cents = cents.filter(pc.greater(cents, pa.scalar(0, pa.int64())))
        first = pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1)
        d = pc.cast(first, pa.int64()).to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(d, return_counts=True)
        return pa.table(
            {
                "digit": pa.array(vals, pa.int64()),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    g = (
        ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
        .groupby("digit")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # ≤ 9 rows
        .sort_values("digit")
    )
    n = int(g["cnt"].sum())
    l10 = lnm_micro(10)
    out = {"digit": [], "cnt": [], "obs_ppm": [], "benford_ppm": [], "dev_num": []}
    for _, r in g.iterrows():
        d, cnt = int(r["digit"]), int(r["cnt"])
        dl = lnm_micro(d + 1) - lnm_micro(d)
        out["digit"].append(d)
        out["cnt"].append(cnt)
        out["obs_ppm"].append(cnt * 1_000_000 // n)
        out["benford_ppm"].append(dl * 1_000_000 // l10)
        out["dev_num"].append(abs(cnt * l10 - n * dl))
    return pd.DataFrame({k: pd.Series(v, dtype=np.int64) for k, v in out.items()})


def _sql_benford() -> str:
    from ..stages.textstats import _shared_ln_cte

    lnm = "CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE) + CAST(0.5 AS DOUBLE)) AS BIGINT)"
    ln_tbl = _shared_ln_cte(
        "(SELECT CAST(range AS BIGINT) AS k FROM range(1, 11))", "k"
    )
    return f"""
WITH c AS (
    SELECT CAST(substr(CAST(CAST(ROUND(o_totalprice*100) AS BIGINT) AS VARCHAR), 1, 1)
                AS BIGINT) AS digit,
           CAST(COUNT(*) AS BIGINT) AS cnt
    FROM orders
    WHERE CAST(ROUND(o_totalprice*100) AS BIGINT) > 0
    GROUP BY 1),
t AS (SELECT CAST(SUM(cnt) AS BIGINT) AS n FROM c),
lk AS (SELECT k, {lnm} AS lnm FROM {ln_tbl}),
d AS (SELECT a.k AS digit, b.lnm - a.lnm AS dl
      FROM lk a JOIN lk b ON b.k = a.k + 1),
l10 AS (SELECT lnm AS v FROM lk WHERE k = 10)
SELECT c.digit, c.cnt,
       CAST(CAST(c.cnt AS HUGEINT) * 1000000 // t.n AS BIGINT) AS obs_ppm,
       CAST(CAST(d.dl AS HUGEINT) * 1000000 // l10.v AS BIGINT) AS benford_ppm,
       CAST(ABS(CAST(c.cnt AS HUGEINT) * l10.v
                - CAST(t.n AS HUGEINT) * d.dl) AS BIGINT) AS dev_num
FROM c, t, d, l10
WHERE d.digit = c.digit
"""


_SQL_BENFORD = _sql_benford()


# ---------------------------------------------------------------------------
# Chi-square independence — exact micro contributions on the cell grain
# ---------------------------------------------------------------------------


def q_priority_year_chi2(sf_dir: str):
    """Chi-square independence test between order priority and order
    year — the categorical-drift monitor (is the label mix stationary
    across time shards?). The statistic is SPECIFIED as integer micro
    contributions so both engines compute identical bits: per cell,

        contrib = ⌊(O·N − R·C)² · 10⁶ / (N·R·C)⌋

    (O = cell count, R/C = marginals, N = total). Algebraically
    ``(O·N − R·C)²/(N·R·C) = (O − E)²/E`` with ``E = R·C/N``, so each
    contrib IS the classic per-cell χ² term scaled to micro and
    floored BEFORE the sum — sum-of-floors is the spec, order-free
    since each term is an integer — and ``chi2_micro = Σ contrib`` is
    classic χ²·10⁶ to ≤1e-6 per cell. No further driver-side scaling
    is needed; the hash-exact surface stays integer.

    Scale shape: per-batch (priority, year) counts → ONE
    ``groupby([pri, year])`` Sum exchange carrying O(cells × blocks)
    int64 partials (cells = priorities × years, bounded); marginals and
    the contribution sum run on that ≤ cells driver grain in Python
    bignums (O·N ~ 10²⁴ at 10¹² rows — past int64/HUGEINT when squared,
    never past bignums; the SQL twin is exact at oracle scales and says
    so). Reference parity: engine addition for corpus QA."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])

    def counts(batch: pa.Table) -> pa.Table:
        yr = _year_of(_ts_us(batch["o_orderdate"]))
        t = pa.table({"pri": batch["o_orderpriority"], "yr": yr, "k": np.ones(len(yr), np.int64)})
        return combine(t, ["pri", "yr"], "sum")

    g = (
        ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
        .groupby(["pri", "yr"])
        .aggregate(Sum("k", alias_name="k"))
        .to_pandas()  # ≤ priorities × years rows
    )
    n = int(g["k"].sum())
    row = g.groupby("pri")["k"].sum().to_dict()
    col = g.groupby("yr")["k"].sum().to_dict()
    chi = 0
    for _, r in g.iterrows():
        o, rr, cc = int(r["k"]), int(row[r["pri"]]), int(col[r["yr"]])
        d = o * n - rr * cc
        chi += (d * d * 1_000_000) // (n * rr * cc)
    return pd.DataFrame(
        {
            "n_orders": pd.Series([n], dtype=np.int64),
            "n_cells": pd.Series([len(g)], dtype=np.int64),
            "dof": pd.Series([(len(row) - 1) * (len(col) - 1)], dtype=np.int64),
            "chi2_micro": pd.Series([chi], dtype=np.int64),
        }
    )


_SQL_PRIORITY_YEAR_CHI2 = """
WITH s AS (
    SELECT o_orderpriority AS pri,
           CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS yr
    FROM orders),
c AS (SELECT pri, yr, CAST(COUNT(*) AS HUGEINT) AS o FROM s GROUP BY pri, yr),
r AS (SELECT pri, SUM(o) AS rr FROM c GROUP BY pri),
k AS (SELECT yr, SUM(o) AS cc FROM c GROUP BY yr),
t AS (SELECT SUM(o) AS n FROM c),
cell AS (
    SELECT ((c.o*t.n - r.rr*k.cc)*(c.o*t.n - r.rr*k.cc)*1000000)
               // (t.n*r.rr*k.cc) AS contrib
    FROM c, r, k, t WHERE c.pri = r.pri AND c.yr = k.yr)
SELECT CAST(t.n AS BIGINT) AS n_orders,
       CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_cells,
       CAST(((SELECT COUNT(*) FROM r) - 1) * ((SELECT COUNT(*) FROM k) - 1)
            AS BIGINT) AS dof,
       CAST((SELECT SUM(contrib) FROM cell) AS BIGINT) AS chi2_micro
FROM t
"""


# ---------------------------------------------------------------------------
# Grouped Pearson r² — exact ppm on the REGR_SLOPE partial transport
# ---------------------------------------------------------------------------


def q_discount_qty_correlation(sf_dir: str):
    """Per-returnflag Pearson correlation between discount and quantity
    (SQL ``CORR(x, y)`` shape) — the corpus-QA question "does one
    feature leak into another per shard" asked of the trade data.

    Exactness: r itself needs a square root, but r² is the ratio of
    integers ``(n·Σxy − Σx·Σy)² / ((n·Σxx − Σx²)(n·Σyy − Σy²))`` when
    x = discount in whole percent (0–10) and y = quantity (whole), so
    the engine reports ``r2_ppm = ⌊r²·10⁶⌋`` plus the sign of the
    covariance — both exact in Python bignums, hash-identical on any
    platform (no libm, no float accumulation).

    Distributed shape is :func:`q_revenue_trend`'s: each batch folds to
    one (n, Σx, Σy, Σxy, Σxx, Σyy) row per flag — all six partials fit
    int64 comfortably (x ≤ 10, y ≤ 50 ⇒ Σxy ≤ 500·rows) — then ONE
    ``groupby(flag)`` Sum exchange moves O(flags × blocks) rows and the
    bignum read-off runs on ≤ 3 driver rows. The SQL oracle mirrors the
    arithmetic in HUGEINT via the nested-floor identity
    ``⌊a/(dx·dy)⌋ = ⌊⌊a/dx⌋/dy⌋`` (dx, dy > 0), exact through ~sf1
    (num²·10⁶ < 2¹²⁷); the engine has no such bound."""
    import pandas as pd
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_returnflag", "l_discount", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        x = (np.sign(d) * np.floor(np.abs(d) * 100.0 + 0.5)).astype(np.int64)
        y = _qty_int(batch["l_quantity"])
        t = pa.table(
            {
                "flag": batch["l_returnflag"],
                "n": np.ones(len(x), np.int64),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
                "syy": y * y,
            }
        )
        return combine(t, "flag", "sum")

    g = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("flag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxy", "sxx", "syy")])
    )
    df = g.to_pandas()  # ≤ #flags rows
    out = {"l_returnflag": [], "n_lines": [], "corr_sign": [], "r2_ppm": []}
    for _, r in df.iterrows():
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
        num = n * sxy - sx * sy
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        out["l_returnflag"].append(str(r["flag"]))
        out["n_lines"].append(n)
        out["corr_sign"].append(0 if num == 0 else (1 if num > 0 else -1))
        out["r2_ppm"].append(0 if dx == 0 or dy == 0 else (num * num * 1_000_000) // (dx * dy))
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "n_lines": pd.Series(out["n_lines"], dtype=np.int64),
            "corr_sign": pd.Series(out["corr_sign"], dtype=np.int64),
            "r2_ppm": pd.Series(out["r2_ppm"], dtype=np.int64),
        }
    )


_SQL_DISCOUNT_QTY_CORR = """
WITH s AS (
    SELECT l_returnflag AS flag,
           CAST(ROUND(l_discount*100) AS HUGEINT) AS x,
           CAST(ROUND(l_quantity) AS HUGEINT) AS y
    FROM lineitem),
a AS (
    SELECT flag, CAST(COUNT(*) AS HUGEINT) AS n,
           SUM(x) AS sx, SUM(y) AS sy,
           SUM(x*y) AS sxy, SUM(x*x) AS sxx, SUM(y*y) AS syy
    FROM s GROUP BY flag)
SELECT flag AS l_returnflag,
       CAST(n AS BIGINT) AS n_lines,
       CAST(CASE WHEN n*sxy - sx*sy > 0 THEN 1
                 WHEN n*sxy - sx*sy < 0 THEN -1 ELSE 0 END AS BIGINT) AS corr_sign,
       CAST(CASE WHEN (n*sxx - sx*sx) = 0 OR (n*syy - sy*sy) = 0 THEN 0
                 ELSE (((n*sxy - sx*sy)*(n*sxy - sx*sy)*1000000)
                       // (n*sxx - sx*sx)) // (n*syy - sy*sy)
            END AS BIGINT) AS r2_ppm
FROM a
"""


# ---------------------------------------------------------------------------
# Population stability index (binned distribution-drift monitor)
# ---------------------------------------------------------------------------

def q_order_price_psi(sf_dir: str, n_bins: int = 10):
    """Population Stability Index contributions between the expedited
    and rest order-total distributions — the THIRD member of the drift
    family on the same shared exchange (KS flags any shape change, the
    rank-sum flags a location shift, PSI is the per-BIN attribution
    scorecards monitor: WHICH decile moved and by how much).

    Bins are exact pooled deciles by rank: a distinct value joins bin
    ``(10·cum_before) // n`` (cum_before = pooled count of strictly
    smaller rows) — deterministic under ties, replayed by a window
    cumsum in SQL. Per bin, with Laplace +1 smoothing over the fixed
    bin count (A = n_a + 10, B = n_b + 10):

        dln_micro = (lnm(ca+1) − lnm(A)) − (lnm(cb+1) − lnm(B))
        psi_num   = ((ca+1)·B − (cb+1)·A) · dln_micro

    every ln snapped to integer micro by the shared IEEE spec first.
    ``PSI = Σ psi_num / (A·B·10⁶)`` for the consumer; the QUERY
    surface stays division-free because the two engines' integer
    divisions disagree on tiny negative snaps (Python floors, DuckDB
    truncates) — products of exact integers hash identically, a
    quotient of a ±2-micro-snapped difference need not.

    Shape: zero additional exchanges — the whole read-off runs on the
    drift family's shared (cents, cnt_a, cnt_b) value-count summary
    (:func:`_expedited_price_hist`), bounded by the price domain.
    Reference parity: engine addition for corpus QA."""
    import pandas as pd

    from ..stages.textstats import lnm_micro

    hist = _expedited_price_hist(sf_dir)
    ca = hist["cnt_a"].to_numpy(dtype=np.int64)
    cb = hist["cnt_b"].to_numpy(dtype=np.int64)
    t = ca + cb
    n = int(t.sum())
    cum_before = np.concatenate(([0], np.cumsum(t)[:-1]))
    bins = (n_bins * cum_before) // max(n, 1)
    per = (
        pd.DataFrame({"bin": bins, "ca": ca, "cb": cb})
        .groupby("bin", sort=True)
        .sum()
    )
    na, nb = int(ca.sum()), int(cb.sum())
    a_den, b_den = na + n_bins, nb + n_bins
    ln_a, ln_b = lnm_micro(a_den), lnm_micro(b_den)
    out = {"bin": [], "n_a": [], "n_b": [], "dln_micro": [], "psi_num": []}
    for b, row in per.iterrows():
        bca, bcb = int(row["ca"]), int(row["cb"])
        dln = (lnm_micro(bca + 1) - ln_a) - (lnm_micro(bcb + 1) - ln_b)
        out["bin"].append(int(b))
        out["n_a"].append(bca)
        out["n_b"].append(bcb)
        out["dln_micro"].append(dln)
        out["psi_num"].append(((bca + 1) * b_den - (bcb + 1) * a_den) * dln)
    return pd.DataFrame({k: pd.Series(v, dtype=np.int64) for k, v in out.items()})


def _sql_psi() -> str:
    from ..stages.textstats import _shared_ln_cte

    lnm = (
        "CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE) + CAST(0.5 AS DOUBLE)) "
        "AS BIGINT)"
    )
    ln_tbl = _shared_ln_cte("(SELECT DISTINCT kint FROM lnargs)", "kint")
    return f"""
WITH s AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END AS a
    FROM orders),
h AS (
    SELECT cents, CAST(SUM(a) AS BIGINT) AS ca,
           CAST(COUNT(*) - SUM(a) AS BIGINT) AS cb
    FROM s GROUP BY cents),
c AS (
    SELECT cents, ca, cb,
           CAST(SUM(ca + cb) OVER (ORDER BY cents) - (ca + cb) AS BIGINT)
               AS cum_before
    FROM h),
tot AS (SELECT CAST(SUM(ca) AS BIGINT) AS na, CAST(SUM(cb) AS BIGINT) AS nb,
               CAST(SUM(ca + cb) AS BIGINT) AS n FROM c),
b AS (
    SELECT (10 * c.cum_before) // greatest(tot.n, 1) AS bin,
           CAST(SUM(ca) AS BIGINT) AS bca, CAST(SUM(cb) AS BIGINT) AS bcb
    FROM c, tot GROUP BY 1),
lnargs AS (SELECT bca + 1 AS kint FROM b
           UNION SELECT bcb + 1 FROM b
           UNION SELECT na + 10 FROM tot
           UNION SELECT nb + 10 FROM tot),
lk AS (SELECT kint, {lnm} AS lnm FROM {ln_tbl})
SELECT CAST(b.bin AS BIGINT) AS bin,
       b.bca AS n_a, b.bcb AS n_b,
       CAST((la.lnm - lda.lnm) - (lb.lnm - ldb.lnm) AS BIGINT) AS dln_micro,
       CAST(((b.bca + 1)*(tot.nb + 10) - (b.bcb + 1)*(tot.na + 10))
            * ((la.lnm - lda.lnm) - (lb.lnm - ldb.lnm)) AS BIGINT) AS psi_num
FROM b, tot
JOIN lk la ON la.kint = b.bca + 1
JOIN lk lb ON lb.kint = b.bcb + 1
JOIN lk lda ON lda.kint = tot.na + 10
JOIN lk ldb ON ldb.kint = tot.nb + 10
"""


_SQL_ORDER_PRICE_PSI = _sql_psi()


# ---------------------------------------------------------------------------
# Spearman rank correlation (the rank-robust twin of Pearson above)
# ---------------------------------------------------------------------------

def q_discount_qty_spearman(sf_dir: str):
    """Per-returnflag Spearman rank correlation between discount and
    quantity — the rank-robust companion of
    :func:`q_discount_qty_correlation` (Pearson asks "linear in the
    raw values", Spearman asks "monotone at all"; a corpus-QA suite
    wants both because rank correlation survives the heavy-tailed
    marginals web data always has).

    Exactness with ties: ranks are midranks, doubled to stay integer
    (the :func:`q_order_price_ranksum` device) — on the per-(flag,
    variable) value-count table each distinct value's doubled midrank
    is ``M = 2·cum_before + t + 1``. Both variables live on tiny
    discrete domains (discount: 11 whole-percent values, quantity: 50
    whole units), so the frequency table IS the rank function, and
    centering by the exact doubled-midrank mean ``n+1`` (Σmidranks =
    n(n+1)/2 identically) zeroes both sums: ρ² reduces to
    ``(Σexey)² / (Σex²·Σey²)`` with no n·Σ cross terms.

    Two passes, both shuffle-light: (1) per-batch value counts → one
    ``groupby(flag, var, value).Sum`` whose exchange is bounded by the
    VALUE DOMAIN (≤ flags·61 rows), driver builds the doubled-midrank
    arrays and broadcasts them once (``ray.put``); (2) per-batch
    centered products fold to one (Σexey, Σex², Σey²) row per flag →
    one ``groupby(flag).Sum`` → bignum read-off on ≤ 3 rows. Partials
    are int64-safe through ~3M lines per flag (ex ≤ n, Σex² ≈ n³/3);
    past that the partial columns widen to decimal128 — the SQL twin
    already runs HUGEINT. Reference parity: engine addition for
    corpus QA (no relational layer in the reference)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_returnflag", "l_discount", "l_quantity"])

    def _xy(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        x = (np.sign(d) * np.floor(np.abs(d) * 100.0 + 0.5)).astype(np.int64)
        y = _qty_int(batch["l_quantity"])
        flag = batch["l_returnflag"].to_pandas().to_numpy()
        return flag, x, y

    def freq_partial(batch: pa.Table) -> pa.Table:
        _, x, y = _xy(batch)
        flag = batch["l_returnflag"]
        t = pa.table(
            {
                "flag": pa.chunked_array(flag.chunks * 2, flag.type),
                "var": np.repeat(np.array([0, 1], np.int64), len(x)),
                "val": np.concatenate([x, y]),
                "cnt": np.ones(2 * len(x), np.int64),
            }
        )
        return combine(t, ["flag", "var", "val"], "sum")

    freq = (
        li.map_batches(freq_partial, batch_format="pyarrow", batch_size=None)
        .groupby(["flag", "var", "val"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded by the value domain: ≤ flags·61 rows
    )
    # doubled midrank per distinct value, centered by its exact mean
    # n+1 so pass-2 sums of ex/ey are identically zero
    tables: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    n_by_flag: dict[str, int] = {}
    for (f, v), sub in freq.groupby(["flag", "var"]):
        sub = sub.sort_values("val")
        c = sub["cnt"].to_numpy(dtype=np.int64)
        n = int(c.sum())
        if v == 0:
            n_by_flag[str(f)] = n
        cum_before = np.concatenate(([0], np.cumsum(c)[:-1]))
        centered = 2 * cum_before + c + 1 - (n + 1)
        tables[(str(f), int(v))] = (
            sub["val"].to_numpy(dtype=np.int64),
            centered.astype(np.int64),
        )
    ref = ray.put(tables)

    def prod_partial(batch: pa.Table) -> pa.Table:
        tabs = ray.get(ref)
        flag, x, y = _xy(batch)
        out = {"flag": [], "n": [], "sxy": [], "sxx": [], "syy": []}
        for f in pd.unique(flag):
            m = flag == f
            vx, exm = tabs[(str(f), 0)]
            vy, eym = tabs[(str(f), 1)]
            ex = exm[np.searchsorted(vx, x[m])]
            ey = eym[np.searchsorted(vy, y[m])]
            out["flag"].append(str(f))
            out["n"].append(int(m.sum()))
            out["sxy"].append(int((ex * ey).sum()))
            out["sxx"].append(int((ex * ex).sum()))
            out["syy"].append(int((ey * ey).sum()))
        return pa.table(
            {
                "flag": pa.array(out["flag"], pa.string()),
                **{
                    c: pa.array(np.asarray(out[c], dtype=np.int64), pa.int64())
                    for c in ("n", "sxy", "sxx", "syy")
                },
            }
        )

    g = (
        li.map_batches(prod_partial, batch_format="pyarrow", batch_size=None)
        .groupby("flag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sxy", "sxx", "syy")])
    )
    df = g.to_pandas()  # ≤ #flags rows
    out = {"l_returnflag": [], "n_lines": [], "spearman_sign": [], "rho2_ppm": []}
    for _, r in df.iterrows():
        sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
        out["l_returnflag"].append(str(r["flag"]))
        out["n_lines"].append(int(r["n"]))
        out["spearman_sign"].append(0 if sxy == 0 else (1 if sxy > 0 else -1))
        out["rho2_ppm"].append(
            0 if sxx == 0 or syy == 0 else ((sxy * sxy * 1_000_000) // sxx) // syy
        )
    return pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "n_lines": pd.Series(out["n_lines"], dtype=np.int64),
            "spearman_sign": pd.Series(out["spearman_sign"], dtype=np.int64),
            "rho2_ppm": pd.Series(out["rho2_ppm"], dtype=np.int64),
        }
    )


_SQL_DISCOUNT_QTY_SPEARMAN = """
WITH s AS (
    SELECT l_returnflag AS flag,
           CAST(ROUND(l_discount*100) AS BIGINT) AS x,
           CAST(ROUND(l_quantity) AS BIGINT) AS y
    FROM lineitem),
r AS (
    SELECT flag,
           CAST(2*rank() OVER (PARTITION BY flag ORDER BY x)
                + COUNT(*) OVER (PARTITION BY flag, x) - 1
                - COUNT(*) OVER (PARTITION BY flag) - 1 AS BIGINT) AS ex,
           CAST(2*rank() OVER (PARTITION BY flag ORDER BY y)
                + COUNT(*) OVER (PARTITION BY flag, y) - 1
                - COUNT(*) OVER (PARTITION BY flag) - 1 AS BIGINT) AS ey
    FROM s),
a AS (
    SELECT flag, CAST(COUNT(*) AS HUGEINT) AS n,
           CAST(SUM(CAST(ex AS HUGEINT)*ey) AS HUGEINT) AS sxy,
           CAST(SUM(CAST(ex AS HUGEINT)*ex) AS HUGEINT) AS sxx,
           CAST(SUM(CAST(ey AS HUGEINT)*ey) AS HUGEINT) AS syy
    FROM r GROUP BY flag)
SELECT flag AS l_returnflag,
       CAST(n AS BIGINT) AS n_lines,
       CAST(CASE WHEN sxy > 0 THEN 1 WHEN sxy < 0 THEN -1 ELSE 0 END
            AS BIGINT) AS spearman_sign,
       CAST(CASE WHEN sxx = 0 OR syy = 0 THEN 0
                 ELSE ((sxy*sxy*1000000) // sxx) // syy END
            AS BIGINT) AS rho2_ppm
FROM a
"""


# ---------------------------------------------------------------------------
# Trimmed mean (robust location estimate per order year)
# ---------------------------------------------------------------------------

def q_trimmed_mean_price(sf_dir: str, trim_permille: int = 50):
    """Per-order-year 5%-trimmed mean of the order total — the robust
    location estimate a drift monitor tracks instead of the raw mean
    (one whale order moves the mean; the trimmed mean ignores the
    tails by construction). Completes the robust-statistics family
    next to the weighted median and MAD.

    Exactness: trimming k = ⌊n·50/1000⌋ rows off each end is
    order-statistics arithmetic on the per-year VALUE-COUNT summary —
    equal values contribute equally, so which tied row is trimmed
    never matters and no tie-break key is needed. The trimmed sum is
    ``total − Σ(k smallest) − Σ(k largest)`` with the straddling bin
    taken partially (vectorized clip over the cumulative counts), and
    the mean is one integer floor-division — hash-exact against a
    row_number window twin.

    Shape: per-batch (year, cents, cnt) partials → ONE
    ``groupby(year)`` exchange carrying pre-aggregated fixed-width
    rows; each year-task folds its histogram vectorized. Year-group
    size is O(distinct totals in the year); at 10⁹+ orders/year the
    same read-off runs on the log-histogram sketch bins
    (:func:`~pdf_parser_ray.relational.ops.q_price_percentiles_sketch`)
    or a two-round exact bisect — the trim RULE is unchanged."""
    import pandas as pd

    orders = read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        y = _year_of(_ts_us(batch["o_orderdate"]))
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table({"o_year": y, "cents": cents, "cnt": np.ones(len(y), np.int64)})
        return combine(t, ["o_year", "cents"], "sum")

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=True)["cnt"].sum()
        vals = h.index.to_numpy(dtype=np.int64)
        cnt = h.to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        k = n * trim_permille // 1000
        cum_lo = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        take_lo = np.clip(k - cum_lo, 0, cnt)
        cum_hi = np.concatenate(([0], np.cumsum(cnt[::-1])[:-1]))
        take_hi = np.clip(k - cum_hi, 0, cnt[::-1])[::-1]
        kept = int((vals * cnt).sum()) - int((vals * take_lo).sum()) - int(
            (vals * take_hi).sum()
        )
        n_kept = n - 2 * k
        return pa.table(
            {
                "o_year": pa.array([int(g["o_year"].iloc[0])], pa.int64()),
                "n_orders": pa.array([n], pa.int64()),
                "n_trimmed": pa.array([k], pa.int64()),
                "trimmed_mean_cents": pa.array(
                    [kept // n_kept if n_kept > 0 else 0], pa.int64()
                ),
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("o_year")
        .map_groups(finish, batch_format="pandas")
    )


_SQL_TRIMMED_MEAN = """
WITH c AS (
    SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
    FROM orders),
k AS (
    SELECT o_year, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*)*50//1000 AS BIGINT) AS k
    FROM c GROUP BY o_year),
r AS (
    SELECT o_year, cents,
           row_number() OVER (PARTITION BY o_year ORDER BY cents) AS rn
    FROM c),
j AS (SELECT r.o_year, cents, rn, k.n, k.k FROM r JOIN k USING (o_year))
SELECT o_year,
       CAST(MAX(n) AS BIGINT) AS n_orders,
       CAST(MAX(k) AS BIGINT) AS n_trimmed,
       CAST(CASE WHEN MAX(n) - 2*MAX(k) <= 0 THEN 0
                 ELSE CAST(SUM(CASE WHEN rn > k AND rn <= n - k
                                    THEN cents ELSE 0 END) AS HUGEINT)
                      // (MAX(n) - 2*MAX(k)) END
            AS BIGINT) AS trimmed_mean_cents
FROM j GROUP BY o_year
"""


QUERIES = {
    "discount_revenue": q_discount_revenue,
    "nation_trade_volume": q_nation_trade_volume,
    "market_share": q_market_share,
    "product_profit": q_product_profit,
    "returned_item_revenue": q_returned_item_revenue,
    "priority_line_mix": q_priority_line_mix,
    "top_supplier": q_top_supplier,
    "prolific_part_suppliers": q_prolific_part_suppliers,
    "revenue_trend": q_revenue_trend,
    "order_price_drift": q_order_price_drift,
    "discount_qty_correlation": q_discount_qty_correlation,
    "benford_deviation": q_benford_deviation,
    "order_price_ranksum": q_order_price_ranksum,
    "priority_year_chi2": q_priority_year_chi2,
    "discount_qty_spearman": q_discount_qty_spearman,
    "trimmed_mean_price": q_trimmed_mean_price,
    "order_price_psi": q_order_price_psi,
}

ORACLE_SQL = {
    "revenue_trend": _SQL_REVENUE_TREND,
    "discount_revenue": _SQL_DISCOUNT_REVENUE,
    "nation_trade_volume": _SQL_NATION_TRADE,
    "market_share": _SQL_MARKET_SHARE,
    "product_profit": _SQL_PRODUCT_PROFIT,
    "returned_item_revenue": _SQL_RETURNED_REVENUE,
    "priority_line_mix": _SQL_PRIORITY_LINE_MIX,
    "top_supplier": _SQL_TOP_SUPPLIER,
    "prolific_part_suppliers": _SQL_PROLIFIC_SUPPLIERS,
    "order_price_drift": _SQL_ORDER_PRICE_DRIFT,
    "discount_qty_correlation": _SQL_DISCOUNT_QTY_CORR,
    "benford_deviation": _SQL_BENFORD,
    "order_price_ranksum": _SQL_ORDER_PRICE_RANKSUM,
    "priority_year_chi2": _SQL_PRIORITY_YEAR_CHI2,
    "discount_qty_spearman": _SQL_DISCOUNT_QTY_SPEARMAN,
    "trimmed_mean_price": _SQL_TRIMMED_MEAN,
    "order_price_psi": _SQL_ORDER_PRICE_PSI,
}
