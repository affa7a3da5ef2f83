"""Decision-support analytics suite — the TPC-H query shapes the base
``relational/ops.py`` suite does not yet exercise, each re-expressed
as an idiomatic Ray Data pipeline with a DuckDB oracle.

Shapes covered here (TPC-H number → engine capability):

* Q4  — EXISTS semi join with a correlated date predicate, reduced to
  a per-key MAX + hash join (``late_ship_priority``).
* Q14 — conditional-aggregate ratio over a dimension join, exact ppm
  via rational rounding (``promo_revenue``).
* Q11 — group sums filtered against a global scalar (HAVING vs a
  subquery total) with an integer-exact threshold rewrite
  (``important_parts``).
* Q13 — two-level aggregation: per-customer order counts, then the
  distribution of those counts including the zero bucket
  (``order_count_distribution``).
* Q16 — COUNT(DISTINCT) across a join, as a distinct-triple exchange
  followed by a count (``part_supplier_counts``).
* Q17 — per-group average broadcast back over the fact table with a
  division-free qualifying predicate (``small_qty_revenue``).
* Q18 — HAVING on a per-key sum, joined back to the parent table,
  deterministic top-k (``large_orders``).
* Q19 — disjunction-of-conjunctions join predicate evaluated as one
  vectorized mask (``disjunctive_revenue``).
* Q21 — EXISTS + NOT-EXISTS self join on the fact table, reduced to a
  per-(order, supplier) MAX exchange + per-order argmax
  (``waiting_suppliers``).
* Q22 — anti join against a filtered fact side plus a global-scalar
  qualifying predicate (``idle_rich_customers``).
* Q2  — argmin-with-tiebreak per group across a join, as one packed
  integer MIN (``cheapest_supplier``).

The design rules of ``relational/ops.py`` apply unchanged: prune at
the read, exact integer arithmetic end to end (cent/µs/packed-int
encodings so distributed sums and mins are order-free and
hash-identical to the oracle), every join through
:func:`~..core.join.keyed_join`, pre-aggregate before every
exchange, and never materialize fact-grain data on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import combine, exchange
from ..core.join import keyed_join
from ..io.sources import read_table
from .ops import _cents


def _qty_int(arr) -> "np.ndarray":
    """l_quantity → int64 with HALF-AWAY rounding (SQL ROUND), not
    np.rint's half-to-even: a 2.5 must group as 3 on both engines —
    group identity, not just a sum, can depend on it (the np.rint
    trap embed.py:814 documents)."""
    x = arr.to_numpy(zero_copy_only=False)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


_US_PER_DAY = 86_400_000_000


# ---------------------------------------------------------------------------
# Q4 shape — EXISTS semi join with correlated predicate
# ---------------------------------------------------------------------------

def q_late_ship_priority(sf_dir: str, grace_days: int = 5):
    """Orders with at least one line shipped more than ``grace_days``
    after the order date, counted per priority (TPC-H Q4 shape).

    The correlated EXISTS collapses to a per-order MAX: ``∃ line with
    l_shipdate > o_orderdate + g`` ⇔ ``max(l_shipdate) > o_orderdate +
    g``. Lineitem pre-reduces per batch to one (orderkey, max µs) row,
    the groupby MAX runs on the order grain, and the keyed join with
    orders is order-grain on both sides — the 100-TB fact table never
    crosses an exchange at line grain. Final counts are per-batch
    partials into a five-row groupby."""
    from ray.data.aggregate import Max, Sum

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def max_ship(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ship = (
            batch["l_shipdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        uniq, inv = np.unique(ok, return_inverse=True)
        mx = np.full(len(uniq), np.iinfo(np.int64).min)
        np.maximum.at(mx, inv, ship)
        return pa.table(
            {"l_orderkey": pa.array(uniq, pa.int64()), "max_ship_us": pa.array(mx)}
        )

    per_order = (
        li.map_batches(max_ship, batch_format="pyarrow", batch_size=None)
        .groupby("l_orderkey")
        .aggregate(Max("max_ship_us", alias_name="max_ship_us"))
    )
    joined = keyed_join(
        per_order,
        sf_dir,
        "orders",
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        cols=["o_orderdate", "o_orderpriority"],
    )
    grace_us = grace_days * _US_PER_DAY

    def late_counts(batch: pa.Table) -> pa.Table:

        od = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        mx = batch["max_ship_us"].to_numpy(zero_copy_only=False)
        late = mx > od + grace_us
        pr = batch["o_orderpriority"].to_pandas()[late]
        vc = pr.value_counts()
        return pa.table(
            {
                "o_orderpriority": pa.array(vc.index.astype(str), pa.string()),
                "late_orders": pa.array(vc.values.astype(np.int64)),
            }
        )

    return (
        joined.map_batches(late_counts, batch_format="pyarrow", batch_size=None)
        .groupby("o_orderpriority")
        .aggregate(Sum("late_orders", alias_name="late_orders"))
    )


_SQL_LATE_SHIP = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS late_orders
FROM orders
WHERE EXISTS (
    SELECT 1 FROM lineitem
    WHERE l_orderkey = o_orderkey
      AND l_shipdate > o_orderdate + INTERVAL 5 DAY)
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Q14 shape — conditional aggregate ratio over a dimension join
# ---------------------------------------------------------------------------

def q_promo_revenue(sf_dir: str, budget_bytes: int | None = None):
    """Share of revenue from PROMO-type parts, in exact ppm (Q14
    shape). Lineitem pre-sums revenue per partkey per batch, then one
    :func:`~..core.join.keyed_join` attaches ``p_type`` (broadcast
    within the footer budget, an exchange beyond it). Each batch emits
    one (promo, total) partial row; the ppm read-off is a positive
    rational half-away rounding ``(2·10⁶·promo + total) // (2·total)``
    done in Python ints (the products exceed int64; DuckDB's HUGEINT
    and Python's bignum agree exactly, and ``//`` = floor = trunc for
    positives in both)."""
    import pandas as pd

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def per_part(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, price_c * (100 - disc_c))
        return pa.table(
            {"l_partkey": pa.array(uniq, pa.int64()), "rev_cents2": pa.array(sums)}
        )

    joined = keyed_join(
        li.map_batches(per_part, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_type"],
        budget_bytes=budget_bytes,
    )

    def fold(batch: pa.Table) -> pa.Table:
        rev = batch["rev_cents2"].to_numpy(zero_copy_only=False)
        is_promo = pc.equal(batch["p_type"], "PROMO").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "promo_cents2": pa.array([int(rev[is_promo].sum())]),
                "total_cents2": pa.array([int(rev.sum())]),
            }
        )

    partials = joined.map_batches(fold, batch_format="pyarrow", batch_size=None)
    sums = partials.sum(["promo_cents2", "total_cents2"])
    promo_c, total_c = int(sums["sum(promo_cents2)"]), int(sums["sum(total_cents2)"])
    ppm = (2 * 1_000_000 * promo_c + total_c) // (2 * total_c) if total_c else None
    return pd.DataFrame(
        {
            "promo_cents2": [promo_c],
            "total_cents2": [total_c],
            "promo_ppm": [ppm],
        }
    )


_SQL_PROMO_REVENUE = """
WITH j AS (
    SELECT CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount*100) AS BIGINT)) AS rev,
           p_type
    FROM lineitem JOIN part ON l_partkey = p_partkey)
SELECT CAST(SUM(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END) AS BIGINT) AS promo_cents2,
       CAST(SUM(rev) AS BIGINT) AS total_cents2,
       CAST((2 * 1000000 * SUM(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END)
             + SUM(rev)) // (2 * SUM(rev)) AS BIGINT) AS promo_ppm
FROM j
"""


# ---------------------------------------------------------------------------
# Q11 shape — group sums filtered against a global scalar
# ---------------------------------------------------------------------------

def q_important_parts(sf_dir: str):
    """Parts whose revenue exceeds 5/4 of the mean per-part revenue
    (Q11's HAVING-vs-subquery-total shape, with the fixed fraction
    replaced by a scale-free mean multiple so the result is non-empty
    at every sf). One lineitem pass builds per-part exact revenue
    (per-batch partials → groupby SUM); that part-grain table — parts
    are a bounded dimension, so the pin is dimension-sized — is
    materialized once and consumed twice: a bounded total+count
    aggregate, then the filter. The qualifying test ``4·n·r > 5·total``
    is rewritten driver-side to ``r ≥ floor(5·total / (4·n)) + 1`` in
    Python bignums, so workers compare against one int64 scalar and no
    per-row product can overflow at any corpus size."""
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def per_part(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        rev = price_c * (100 - disc_c)
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev)
        return pa.table(
            {"l_partkey": pa.array(uniq, pa.int64()), "revenue_cents2": pa.array(sums)}
        )

    agg = (
        li.map_batches(per_part, batch_format="pyarrow", batch_size=None)
        .groupby("l_partkey")
        .aggregate(Sum("revenue_cents2", alias_name="revenue_cents2"))
        .materialize()  # part-grain (dimension-sized): reused by scalar + filter
    )
    total = int(agg.sum("revenue_cents2"))
    n_parts = int(agg.count())
    if n_parts == 0:
        return agg
    # 4·n·r > 5·total  ⇔  r ≥ floor(5·total/(4·n)) + 1 (r integer, strict >)
    threshold = (5 * total) // (4 * n_parts) + 1

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["revenue_cents2"], threshold))

    return agg.map_batches(keep, batch_format="pyarrow", batch_size=None)


_SQL_IMPORTANT_PARTS = """
WITH j AS (
    SELECT l_partkey,
           SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS r
    FROM lineitem GROUP BY l_partkey)
SELECT l_partkey, CAST(r AS BIGINT) AS revenue_cents2
FROM j
WHERE r * (SELECT COUNT(*) FROM j) * 4 > 5 * (SELECT SUM(r) FROM j)
"""


# ---------------------------------------------------------------------------
# Q13 shape — two-level aggregation with a zero bucket
# ---------------------------------------------------------------------------

def q_order_count_distribution(sf_dir: str):
    """Distribution of per-customer order counts, including customers
    with zero orders (Q13's LEFT JOIN + double GROUP BY). Level 1 is
    the usual partial-combine groupby on custkey; level 2 re-groups the
    customer-grain counts into the (tiny) count histogram, keeping only
    custkeys that EXIST in customer (an FK-orphan o_custkey would
    otherwise count a phantom customer the oracle's LEFT JOIN never
    sees — one :func:`~..core.join.keyed_join` semi join). The zero
    bucket then needs only the total customer count — read from the
    parquet footer, no data pages."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", ["o_custkey"])

    def per_cust(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, counts = np.unique(ck, return_counts=True)
        return pa.table(
            {
                "c_custkey": pa.array(uniq, pa.int64()),
                "order_count": pa.array(counts.astype(np.int64)),
            }
        )

    cust_grain = (
        orders.map_batches(per_cust, batch_format="pyarrow", batch_size=None)
        .groupby("c_custkey")
        .aggregate(Sum("order_count", alias_name="order_count"))
    )

    cust_grain = keyed_join(
        cust_grain,
        sf_dir,
        "customer",
        fact_key="c_custkey",
        dim_key="c_custkey",
        how="semi",
    )

    def histogram(batch: pa.Table) -> pa.Table:
        oc = batch["order_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, counts = np.unique(oc, return_counts=True)
        return pa.table(
            {
                "order_count": pa.array(uniq, pa.int64()),
                "num_customers": pa.array(counts.astype(np.int64)),
            }
        )

    hist = (
        cust_grain.map_batches(histogram, batch_format="pyarrow", batch_size=None)
        .groupby("order_count")
        .aggregate(Sum("num_customers", alias_name="num_customers"))
        .to_pandas()  # bounded: one row per distinct order count
    )
    n_customers = pq.ParquetFile(f"{sf_dir}/customer.parquet").metadata.num_rows
    zero = n_customers - int(hist["num_customers"].sum())
    if zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"order_count": [0], "num_customers": [zero]})],
            ignore_index=True,
        )
    return hist.astype({"order_count": np.int64, "num_customers": np.int64})


_SQL_ORDER_COUNT_DIST = """
SELECT order_count, CAST(COUNT(*) AS BIGINT) AS num_customers
FROM (
    SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS order_count
    FROM customer LEFT JOIN orders ON o_custkey = c_custkey
    GROUP BY c_custkey)
GROUP BY order_count
"""


# ---------------------------------------------------------------------------
# Q16 shape — COUNT(DISTINCT) across a join
# ---------------------------------------------------------------------------

def q_part_supplier_counts(
    sf_dir: str, exclude_brand: str = "Brand#13", budget_bytes: int | None = None
):
    """Distinct suppliers per (brand, size), one brand excluded (Q16
    shape). Each batch pre-dedupes its (partkey, suppkey) pairs, one
    :func:`~..core.join.keyed_join` attaches the non-excluded parts'
    (brand, size), one exchange dedupes the triples globally (groupby
    on the triple), and the final count is per-batch partials over the
    already-distinct triples — COUNT (DISTINCT) without ever shipping
    line-grain rows."""
    from ray.data.aggregate import Count, Sum

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def pairs(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert sk.max(initial=0) < (1 << 20) and keys.max(initial=0) < (1 << 43)
        uniq = np.unique(keys * (1 << 20) + sk)
        return pa.table(
            {
                "l_partkey": pa.array(uniq >> 20, pa.int64()),
                "l_suppkey": pa.array(uniq & ((1 << 20) - 1), pa.int64()),
            }
        )

    joined = keyed_join(
        li.map_batches(pairs, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_brand", "p_size"],
        dim_filter=lambda t: t.filter(pc.not_equal(t["p_brand"], exclude_brand)),
        budget_bytes=budget_bytes,
    )

    def project(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_brand": batch["p_brand"],
                "p_size": pc.cast(batch["p_size"], pa.int64()),
                "l_suppkey": batch["l_suppkey"],
            }
        )
        return t.group_by(t.column_names).aggregate([])  # distinct per batch

    tri = joined.map_batches(project, batch_format="pyarrow", batch_size=None)
    distinct = tri.groupby(["p_brand", "p_size", "l_suppkey"]).aggregate(
        Count(alias_name="_n")
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_brand": batch["p_brand"],
                "p_size": batch["p_size"].cast(pa.int64()),
                "supplier_cnt": np.ones(batch.num_rows, np.int64),
            }
        )
        return combine(t, ["p_brand", "p_size"], "sum")

    return (
        distinct.map_batches(count_partial, batch_format="pyarrow", batch_size=None)
        .groupby(["p_brand", "p_size"])
        .aggregate(Sum("supplier_cnt", alias_name="supplier_cnt"))
    )


_SQL_PART_SUPPLIER_COUNTS = """
SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_brand <> 'Brand#13'
GROUP BY p_brand, p_size
"""


# ---------------------------------------------------------------------------
# Q17 shape — per-group average broadcast back over the fact table
# ---------------------------------------------------------------------------

def q_small_qty_revenue(sf_dir: str, brand: str = "Brand#1"):
    """Revenue from small-quantity lines of one brand's parts: a line
    qualifies when its quantity is below 1/5 of its part's mean
    quantity (Q17 shape). Pass 1 reduces the brand's lines to
    per-part (Σqty, count) — a dimension-fraction-sized table pulled to
    the driver and re-broadcast as sorted arrays. Pass 2 rescans
    lineitem with the division-free predicate ``5·qty·cnt < Σqty``
    (integers end to end; TPC-H's ``qty < 0.2·avg`` exactly). The
    weekly average read-off is the positive rational half-away rounding
    ``(2·total + 7) // 14``."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    pk_tbl = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey"],
        filters=[("p_brand", "=", brand)],
    )
    brand_keys = np.sort(pk_tbl["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64))

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def in_brand(keys: np.ndarray) -> np.ndarray:
        if not len(brand_keys):
            return np.zeros(len(keys), bool)
        idx = np.clip(np.searchsorted(brand_keys, keys), 0, len(brand_keys) - 1)
        return brand_keys[idx] == keys

    def qty_partial(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = _qty_int(batch["l_quantity"])
        m = in_brand(keys)
        keys, qty = keys[m], qty[m]
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, qty)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "l_partkey": pa.array(uniq, pa.int64()),
                "sum_qty": pa.array(sums),
                "cnt": pa.array(cnts),
            }
        )

    stats = (
        li.map_batches(qty_partial, batch_format="pyarrow", batch_size=None)
        .groupby("l_partkey")
        .aggregate(Sum("sum_qty", alias_name="sum_qty"), Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded: one brand's slice of the part dimension
    )
    if len(stats):  # empty aggregate loses its columns — guard
        s_keys = stats["l_partkey"].to_numpy(dtype=np.int64)
        order = np.argsort(s_keys)
        s_keys = s_keys[order]
        s_sum = stats["sum_qty"].to_numpy(dtype=np.int64)[order]
        s_cnt = stats["cnt"].to_numpy(dtype=np.int64)[order]
    else:
        s_keys = s_sum = s_cnt = np.empty(0, dtype=np.int64)

    def qualify(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = _qty_int(batch["l_quantity"])
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        if len(s_keys):
            idx = np.clip(np.searchsorted(s_keys, keys), 0, len(s_keys) - 1)
            hit = s_keys[idx] == keys
            small = np.zeros(len(keys), bool)
            small[hit] = 5 * qty[hit] * s_cnt[idx[hit]] < s_sum[idx[hit]]
        else:
            small = np.zeros(len(keys), bool)
        return pa.table(
            {
                "total_cents": pa.array([int(price_c[small].sum())]),
                "n_lines": pa.array([int(small.sum())]),
            }
        )

    sums = li.map_batches(qualify, batch_format="pyarrow", batch_size=None).sum(
        ["total_cents", "n_lines"]
    )
    total_c, n = int(sums["sum(total_cents)"]), int(sums["sum(n_lines)"])
    import pandas as pd

    if n == 0:  # mirror SQL: SUM over empty set is NULL, COUNT is 0
        return pd.DataFrame(
            {"total_cents": [None], "n_lines": [0], "avg7_cents": [None]}
        )
    return pd.DataFrame(
        {
            "total_cents": [total_c],
            "n_lines": [n],
            "avg7_cents": [(2 * total_c + 7) // 14],
        }
    )


_SQL_SMALL_QTY = """
WITH agg AS (
    SELECT l_partkey, SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS sq,
           COUNT(*) AS c
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE p_brand = 'Brand#1'
    GROUP BY l_partkey),
q AS (
    SELECT CAST(ROUND(l_extendedprice*100) AS BIGINT) AS pc
    FROM lineitem l JOIN agg a ON l.l_partkey = a.l_partkey
    WHERE 5 * CAST(ROUND(l_quantity) AS BIGINT) * c < sq)
SELECT CAST(SUM(pc) AS BIGINT) AS total_cents,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST((2 * SUM(pc) + 7) // 14 AS BIGINT) AS avg7_cents
FROM q
"""


# ---------------------------------------------------------------------------
# Q18 shape — HAVING on a per-key sum, joined back to the parent
# ---------------------------------------------------------------------------

def q_large_orders(sf_dir: str, min_qty: int = 150, k: int = 100):
    """Orders whose total line quantity exceeds ``min_qty``, joined
    back to the order header, deterministic top-k (Q18 shape). The
    HAVING runs entirely on the order grain (per-batch partials →
    groupby SUM → filter), so the keyed join back to orders is
    filtered-grain vs order-grain; the one all-to-all sort runs on the
    ≤ qualifying-orders rows with a unique tiebreak key, never on
    lineitems."""
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def per_order(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = _qty_int(batch["l_quantity"])
        uniq, inv = np.unique(ok, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, qty)
        return pa.table(
            {"l_orderkey": pa.array(uniq, pa.int64()), "sum_qty": pa.array(sums)}
        )

    big = (
        li.map_batches(per_order, batch_format="pyarrow", batch_size=None)
        .groupby("l_orderkey")
        .aggregate(Sum("sum_qty", alias_name="sum_qty"))
        .filter(expr=f"sum_qty > {int(min_qty)}")
    )
    joined = keyed_join(
        big,
        sf_dir,
        "orders",
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        cols=["o_custkey", "o_totalprice"],
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "o_custkey": batch["o_custkey"],
                "totalprice_cents": _cents(batch["o_totalprice"]),
                "sum_qty": batch["sum_qty"],
            }
        )

    return (
        joined.map_batches(project, batch_format="pyarrow", batch_size=None)
        .sort(["sum_qty", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


_SQL_LARGE_ORDERS = """
SELECT o_orderkey, o_custkey,
       CAST(ROUND(o_totalprice*100) AS BIGINT) AS totalprice_cents,
       sum_qty
FROM (
    SELECT l_orderkey, CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
    FROM lineitem GROUP BY l_orderkey HAVING sum_qty > 150) q
JOIN orders ON o_orderkey = l_orderkey
ORDER BY sum_qty DESC, o_orderkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# Q19 shape — disjunction-of-conjunctions join predicate
# ---------------------------------------------------------------------------

_Q19_CLAUSES = (
    ("Brand#12", 1, 11, 15),
    ("Brand#3", 10, 20, 25),
    ("Brand#21", 20, 30, 35),
)


def q_disjunctive_revenue(sf_dir: str, budget_bytes: int | None = None):
    """Revenue under an OR-of-ANDs predicate spanning both join sides
    (Q19 shape): (brand, quantity range, max size) × 3 clauses. Each
    batch pre-aggregates revenue to the (partkey, quantity) grain —
    quantities are small integers, so that grain is bounded by
    |parts|×|qty values|, and the predicate depends on nothing finer —
    then one :func:`~..core.join.keyed_join` attaches the part's
    (brand, size) and the whole disjunction evaluates as one
    vectorized boolean expression per batch — one (revenue, count)
    partial row out."""
    import pandas as pd

    li = read_table(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    )

    def per_part_qty(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = _qty_int(batch["l_quantity"])
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        rev = price_c * (100 - disc_c)
        assert qty.max(initial=0) < (1 << 10) and keys.max(initial=0) < (1 << 53)
        pack = (keys << 10) | qty
        uniq, inv = np.unique(pack, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "l_partkey": pa.array(uniq >> 10),
                "qty": pa.array(uniq & ((1 << 10) - 1)),
                "rev_cents2": pa.array(sums),
                "n": pa.array(cnts),
            }
        )

    joined = keyed_join(
        li.map_batches(per_part_qty, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_brand", "p_size"],
        budget_bytes=budget_bytes,
    )

    def fold(batch: pa.Table) -> pa.Table:
        qty = batch["qty"].to_numpy(zero_copy_only=False)
        rev = batch["rev_cents2"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        b = np.asarray(batch["p_brand"].to_pylist(), dtype=object)
        s = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.zeros(len(qty), bool)
        for cb, qlo, qhi, smax in _Q19_CLAUSES:
            mask |= (b == cb) & (qty >= qlo) & (qty <= qhi) & (s <= smax)
        return pa.table(
            {
                "revenue_cents2": pa.array([int(rev[mask].sum())]),
                "n_lines": pa.array([int(n[mask].sum())]),
            }
        )

    partials = joined.map_batches(fold, batch_format="pyarrow", batch_size=None)

    sums = partials.sum(["revenue_cents2", "n_lines"])
    return pd.DataFrame(
        {
            "revenue_cents2": [int(sums["sum(revenue_cents2)"])],
            "n_lines": [int(sums["sum(n_lines)"])],
        }
    )


_SQL_DISJUNCTIVE = """
SELECT CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_cents2,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 AND p_size <= 15)
   OR (p_brand = 'Brand#3'  AND l_quantity BETWEEN 10 AND 20 AND p_size <= 25)
   OR (p_brand = 'Brand#21' AND l_quantity BETWEEN 20 AND 30 AND p_size <= 35)
"""


# ---------------------------------------------------------------------------
# Q21 shape — EXISTS + NOT EXISTS self join on the fact table
# ---------------------------------------------------------------------------

_SUPP_BITS = 20  # suppkey < 2^20; orderkey < 2^43 → packed key fits int64


def q_waiting_suppliers(
    sf_dir: str, n_buckets: int = 32, k: int = 100, budget_bytes: int | None = None
):
    """Suppliers who shipped the strictly-latest line of multi-supplier
    orders, counted per supplier (TPC-H Q21's EXISTS + NOT-EXISTS self
    join). The correlated pair collapses to per-order argmax: supplier
    s qualifies in order o ⇔ s's max shipdate equals o's overall max
    AND o has ≥ 2 distinct suppliers (ties credit every tied supplier,
    exactly as the NOT EXISTS with a strict > does). Plan: lineitem
    pre-reduces per batch to (order,supplier)-grain max-shipdate
    PARTIALS packed into one int64 key and already tagged with the
    orderkey bucket, so ONE exchange both finishes the pair-grain MAX
    and co-locates each order's suppliers (measured at sf0.1/32cpu:
    folding the separate global pair groupby into the bucket exchange
    cut the query from 7.9 s to ~2 s — the extra all-to-all was pure
    barrier cost). Per-supplier counts ride out as ≤|suppliers|
    partials per bucket. No self join ever materializes — the fact
    table crosses the wire only at the (order, supplier) grain."""
    import pandas as pd
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    def pair_max(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert sk.max(initial=0) < (1 << _SUPP_BITS) and ok.max(initial=0) < (1 << 43)
        ship = (
            batch["l_shipdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        pack = (ok << _SUPP_BITS) | sk
        uniq, inv = np.unique(pack, return_inverse=True)
        mx = np.full(len(uniq), np.iinfo(np.int64).min)
        np.maximum.at(mx, inv, ship)
        return pa.table(
            {
                "ok": pa.array(uniq >> _SUPP_BITS),
                "pair": pa.array(uniq),
                "max_ship_us": pa.array(mx),
            }
        )

    def winners(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        # partials for one pair arrive as multiple rows (one per source
        # batch) — finish the MAX here instead of a separate global
        # pair-grain groupby
        pg = g.groupby("pair", sort=False)["max_ship_us"].max()
        pair = pg.index.to_numpy(dtype=np.int64)
        ms = pg.to_numpy(dtype=np.int64)
        ok = pair >> _SUPP_BITS
        sk = pair & ((1 << _SUPP_BITS) - 1)
        df = pd.DataFrame({"ok": ok, "sk": sk, "ms": ms})
        per_order = df.groupby("ok")["ms"].agg(["max", "size"])
        omax = per_order["max"].reindex(df["ok"]).to_numpy()
        nsupp = per_order["size"].reindex(df["ok"]).to_numpy()
        win = (df["ms"].to_numpy() == omax) & (nsupp >= 2)
        vc = pd.Series(sk[win]).value_counts()
        return pa.table(
            {
                "s_suppkey": pa.array(vc.index.to_numpy(dtype=np.int64)),
                "waiting_orders": pa.array(vc.values.astype(np.int64)),
            }
        )

    keyed = li.map_batches(pair_max, batch_format="pyarrow", batch_size=None)
    counts = (
        exchange([(keyed, "ok")], winners, n_buckets=n_buckets)
        .groupby("s_suppkey")
        .aggregate(Sum("waiting_orders", alias_name="waiting_orders"))
    )

    named = keyed_join(
        counts,
        sf_dir,
        "supplier",
        fact_key="s_suppkey",
        dim_key="s_suppkey",
        cols=["s_name"],
        budget_bytes=budget_bytes,
    )
    return named.sort(["waiting_orders", "s_suppkey"], descending=[True, False]).limit(k)


_SQL_WAITING_SUPPLIERS = """
WITH q AS (
    SELECT DISTINCT l1.l_orderkey, l1.l_suppkey
    FROM lineitem l1
    WHERE EXISTS (
        SELECT 1 FROM lineitem l2
        WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey)
      AND NOT EXISTS (
        SELECT 1 FROM lineitem l3
        WHERE l3.l_orderkey = l1.l_orderkey AND l3.l_suppkey <> l1.l_suppkey
          AND l3.l_shipdate > l1.l_shipdate))
SELECT s_suppkey, s_name, CAST(COUNT(*) AS BIGINT) AS waiting_orders
FROM q JOIN supplier ON s_suppkey = l_suppkey
GROUP BY s_suppkey, s_name
ORDER BY waiting_orders DESC, s_suppkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# Q22 shape — anti join + global-scalar qualifying predicate
# ---------------------------------------------------------------------------

def q_idle_rich_customers(
    sf_dir: str, min_order_total: float = 450000.0, budget_bytes: int | None = None
):
    """Customers with an above-average positive balance and no
    high-value order, grouped by nation (Q22 shape; the phone-prefix
    grouping becomes the nation key this schema has). The global
    average is one bounded aggregate over the customer scan (Σ cents,
    count — the strict test ``cents·n > Σ`` stays in integers; at
    planetary row counts the product still fits int64 only because
    cents ≤ 10⁶, noted in the assert). The anti side — custkeys with an
    order above the threshold — is one :func:`~..core.join.keyed_join`
    anti join."""
    from ray.data.aggregate import Sum

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["c_acctbal"]).to_numpy(zero_copy_only=False)
        pos = cents > 0
        return pa.table(
            {
                "sum_pos_cents": pa.array([int(cents[pos].sum())]),
                "n_pos": pa.array([int(pos.sum())]),
            }
        )

    sums = cust.map_batches(bal_partial, batch_format="pyarrow", batch_size=None).sum(
        ["sum_pos_cents", "n_pos"]
    )
    sum_pos, n_pos = int(sums["sum(sum_pos_cents)"]), int(sums["sum(n_pos)"])
    # strict above-average in integers: cents·n_pos > sum_pos ⇔
    # cents ≥ floor(sum_pos/n_pos) + 1 — one int64 scalar to workers
    threshold = sum_pos // n_pos + 1 if n_pos else np.iinfo(np.int64).max

    def rich(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["c_acctbal"]).to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(cents >= threshold))
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
                "acctbal_cents": _cents(t["c_acctbal"]),
            }
        )

    idle = keyed_join(
        cust.map_batches(rich, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "orders",
        fact_key="c_custkey",
        dim_key="o_custkey",
        how="anti",
        dim_filter=lambda t: t.filter(pc.greater(t["o_totalprice"], min_order_total)),
        filter_cols=["o_totalprice"],
        budget_bytes=budget_bytes,
    )

    def nation_partial(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        bal = batch["acctbal_cents"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(nk, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, bal)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "c_nationkey": pa.array(uniq, pa.int64()),
                "n_customers": pa.array(cnts),
                "acctbal_cents": pa.array(sums),
            }
        )

    return (
        idle.map_batches(nation_partial, batch_format="pyarrow", batch_size=None)
        .groupby("c_nationkey")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("acctbal_cents", alias_name="acctbal_cents"),
        )
    )


_SQL_IDLE_RICH = """
WITH s AS (
    SELECT SUM(CAST(ROUND(c_acctbal*100) AS BIGINT)) AS sp, COUNT(*) AS np
    FROM customer WHERE c_acctbal > 0)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CAST(ROUND(c_acctbal*100) AS BIGINT)) AS BIGINT) AS acctbal_cents
FROM customer, s
WHERE c_acctbal > 0
  AND CAST(ROUND(c_acctbal*100) AS BIGINT) * np > sp
  AND NOT EXISTS (
      SELECT 1 FROM orders
      WHERE o_custkey = c_custkey AND o_totalprice > 450000.0)
GROUP BY c_nationkey
"""


# ---------------------------------------------------------------------------
# Q2 shape — argmin with tiebreak per group across a join
# ---------------------------------------------------------------------------

_PACK_BITS = 20  # suppkey < 2^20; price_cents < 2^43 → packed min fits int64


def q_cheapest_supplier(sf_dir: str, size: int = 10):
    """Per size-``size`` part: the supplier offering the minimum line
    price, ties broken by the smaller suppkey (TPC-H Q2's
    min-cost-supplier shape). The two-level argmin collapses to ONE
    integer MIN by packing ``price_cents·2²⁰ + suppkey`` — the min of
    the packed key is exactly (min price, then min suppkey) — so the
    distributed reduction needs no join-back or window. Qualifying
    partkeys and names broadcast as sorted arrays (the size slice of a
    bounded dimension)."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Min

    part = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name"],
        filters=[("p_size", "=", size)],
    )
    pk = np.asarray(part["p_partkey"].to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.argsort(pk)
    pk = pk[order]
    names = np.asarray(part["p_name"].to_pylist(), dtype=object)[order]

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])

    def pack_min(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        assert sk.max(initial=0) < (1 << _PACK_BITS)
        assert price_c.max(initial=0) < (1 << 43)
        if len(pk):
            idx = np.clip(np.searchsorted(pk, keys), 0, len(pk) - 1)
            hit = pk[idx] == keys
        else:
            hit = np.zeros(len(keys), bool)
        keys, packed = keys[hit], (price_c << _PACK_BITS | sk)[hit]
        uniq, inv = np.unique(keys, return_inverse=True)
        mins = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(mins, inv, packed)
        return pa.table(
            {"l_partkey": pa.array(uniq, pa.int64()), "packed": pa.array(mins)}
        )

    agg = (
        li.map_batches(pack_min, batch_format="pyarrow", batch_size=None)
        .groupby("l_partkey")
        .aggregate(Min("packed", alias_name="packed"))
    )

    def unpack(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False)
        packed = batch["packed"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(pk, keys), 0, max(len(pk) - 1, 0))
        return pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "p_name": pa.array(names[idx].astype(str)),
                "min_price_cents": pa.array(packed >> _PACK_BITS),
                "best_suppkey": pa.array(packed & ((1 << _PACK_BITS) - 1)),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow", batch_size=None)


_SQL_CHEAPEST_SUPPLIER = """
SELECT l_partkey, p_name,
       CAST(m // 1048576 AS BIGINT) AS min_price_cents,
       CAST(m % 1048576 AS BIGINT) AS best_suppkey
FROM (
    SELECT l_partkey, MIN(p_name) AS p_name,
           MIN(CAST(ROUND(l_extendedprice*100) AS BIGINT) * 1048576 + l_suppkey) AS m
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE p_size = 10
    GROUP BY l_partkey) q
"""


# ---------------------------------------------------------------------------
# Resample with gap fill — generated rows for missing time buckets
# ---------------------------------------------------------------------------

def q_hourly_fill(sf_dir: str):
    """Events per epoch-hour over the FULL [min, max] hour range, zero
    rows generated for silent hours (time-series resampling /
    gap-fill). The distributed part is the usual per-batch partial →
    groupby SUM; the fill happens on the hour-grain result, which is
    bounded by the time span (a decade is < 90k rows), never by the
    event count — the one place row *generation* is legitimately
    driver-side."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hour = us // 3_600_000_000
        uniq, counts = np.unique(hour, return_counts=True)
        return pa.table(
            {"hour": pa.array(uniq, pa.int64()), "n_events": pa.array(counts.astype(np.int64))}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("hour")
        .aggregate(Sum("n_events", alias_name="n_events"))
        .to_pandas()  # bounded by the hour span, not the event count
    )
    if not len(counts):  # empty aggregate loses its columns — guard
        return pd.DataFrame(
            {"hour": np.empty(0, np.int64), "n_events": np.empty(0, np.int64)}
        )
    lo, hi = int(counts["hour"].min()), int(counts["hour"].max())
    full = pd.DataFrame({"hour": np.arange(lo, hi + 1, dtype=np.int64)})
    out = full.merge(counts, on="hour", how="left")
    out["n_events"] = out["n_events"].fillna(0).astype(np.int64)
    return out


_SQL_HOURLY_FILL = """
WITH c AS (
    SELECT epoch_us(ts) // 3600000000 AS hour, COUNT(*) AS n
    FROM events GROUP BY hour),
g AS (
    SELECT UNNEST(generate_series(
        (SELECT MIN(hour) FROM c), (SELECT MAX(hour) FROM c))) AS h)
SELECT CAST(g.h AS BIGINT) AS hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
FROM g LEFT JOIN c ON c.hour = g.h
"""


# ---------------------------------------------------------------------------
# Unpivot — wide→long reshape of the pivoted day×type matrix
# ---------------------------------------------------------------------------

def q_event_unpivot(sf_dir: str):
    """Long form of :func:`~.ops.q_event_pivot`'s wide day×type matrix
    (the UNPIVOT/melt operator): one (day, event_type, n) row per cell,
    zero cells included — which is exactly what distinguishes a
    reshape of the wide table from a plain groupby over the raw events
    (that would lack the explicit zeros). The melt is a stateless
    per-batch map over the already-aggregated day grain."""
    from .ops import _EVENT_TYPES, q_event_pivot

    wide = q_event_pivot(sf_dir)

    def melt(batch: pa.Table) -> pa.Table:

        df = batch.to_pandas()
        m = df.melt(
            id_vars="day",
            value_vars=[f"n_{t}" for t in _EVENT_TYPES],
            var_name="event_type",
            value_name="n",
        )
        m["event_type"] = m["event_type"].str[2:]
        return pa.table(
            {
                "day": pa.array(m["day"].to_numpy(dtype=np.int64)),
                "event_type": pa.array(m["event_type"].astype(str), pa.string()),
                "n": pa.array(m["n"].to_numpy(dtype=np.int64)),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow", batch_size=None)


def _sql_event_unpivot() -> str:
    from .ops import _EVENT_TYPES, _SQL_EVENT_PIVOT

    arms = "\nUNION ALL\n".join(
        f"SELECT day, '{t}' AS event_type, n_{t} AS n FROM w" for t in _EVENT_TYPES
    )
    return f"WITH w AS ({_SQL_EVENT_PIVOT})\n{arms}"


# ---------------------------------------------------------------------------
# Grouped exact median + MAD — robust statistics via value-count summary
# ---------------------------------------------------------------------------

def _disc_median(values: np.ndarray, counts: np.ndarray) -> int:
    """QUANTILE_DISC(x, 0.5) over a value-count summary: the element at
    sorted position ceil(n/2) — DuckDB's discrete-median convention,
    pinned empirically (n=4 → 2nd element, n=5 → 3rd)."""
    order = np.argsort(values)
    v, c = values[order], counts[order]
    cum = np.cumsum(c)
    target = (cum[-1] + 1) // 2
    return int(v[np.searchsorted(cum, target)])


def q_order_total_mad(sf_dir: str):
    """Per-priority exact median and median-absolute-deviation of the
    order total (robust location/scale — the outlier-resistant twin of
    the moments query). Values flow as integer cents; each pass ships a
    value-count summary (one row per distinct (priority, cents) per
    batch) instead of raw rows — the same summary-exchange pattern as
    the exact-percentile family — and the discrete read-off matches
    DuckDB's QUANTILE_DISC exactly, so even-count groups agree. Pass 2
    re-scans with the five medians broadcast and summarizes |x − med|
    the same way."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def summarize(extract):
        """orders scan → (priority, value) count summary → per-priority
        value-count rows."""
        ds = read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

        def partial(batch: pa.Table) -> pa.Table:
            cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
            prio = batch["o_orderpriority"]
            t = pa.table(
                {
                    "o_orderpriority": prio,
                    "v": extract(prio, cents),
                    "n": np.ones(len(cents), np.int64),
                }
            )
            return combine(t, ["o_orderpriority", "v"], "sum")

        return (
            ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(["o_orderpriority", "v"])
            .aggregate(Sum("n", alias_name="n"))
        )

    def read_off(summary, out_col: str) -> pd.DataFrame:
        def per_group(g: pd.DataFrame) -> pa.Table:
            med = _disc_median(
                g["v"].to_numpy(dtype=np.int64), g["n"].to_numpy(dtype=np.int64)
            )
            return pa.table(
                {
                    "o_orderpriority": pa.array([str(g["o_orderpriority"].iloc[0])]),
                    out_col: pa.array([med], pa.int64()),
                }
            )

        return (
            summary.groupby("o_orderpriority")
            .map_groups(per_group, batch_format="pandas")
            .to_pandas()  # bounded: one row per priority
        )

    med_df = read_off(summarize(lambda p, c: c), "median_cents")
    med_keys = pa.array(med_df["o_orderpriority"].tolist(), pa.string())
    med_vals = med_df["median_cents"].to_numpy(dtype=np.int64)

    def abs_dev(prio, cents):
        med = med_vals[pc.index_in(prio, med_keys).to_numpy()]
        return np.abs(cents - med)

    mad_df = read_off(summarize(abs_dev), "mad_cents")
    return med_df.merge(mad_df, on="o_orderpriority")


_SQL_ORDER_TOTAL_MAD = """
WITH c AS (
    SELECT o_orderpriority AS p,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
    FROM orders),
m AS (SELECT p, quantile_disc(cents, 0.5) AS med FROM c GROUP BY p)
SELECT p AS o_orderpriority,
       CAST(MAX(med) AS BIGINT) AS median_cents,
       CAST(quantile_disc(ABS(cents - med), 0.5) AS BIGINT) AS mad_cents
FROM c JOIN m USING (p)
GROUP BY p
"""


# ---------------------------------------------------------------------------
# Exponentially-weighted moving average — exact dyadic decay window
# ---------------------------------------------------------------------------

_EWMA_WINDOW = 32


def q_order_ewma(sf_dir: str, n_buckets: int = 32):
    """Per-customer EWMA (α = ½, adjust=False) of order totals over
    the customer's last 32 orders — the exponential-decay window
    operator, EXACT: with a dyadic α every weight is a power of two,
    so the state is an integer rational ``num / 2^(n−1−m)`` with
    ``num = Σ cents_j · 2^max(j−m−1, 0)`` (the two oldest in-window
    terms both weigh 2⁰ — exactly the e_j = (x_j + e_{j−1})/2
    recurrence unrolled). The 32-step history cap is what keeps
    ``num`` in int64 (cents·2³⁰ ≈ 5×10¹⁶) and the oracle in HUGEINT at
    any corpus size; the micro read-off is the usual positive rational
    half-away rounding, done per customer in Python bignums because
    2·10⁶·num exceeds int64. One custkey-bucket exchange at the order
    grain (the input grain of any ordered window), everything after is
    vectorized per partition."""

    orders = read_table(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "ck": pa.array(ck),
                "ok": pa.array(
                    batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "date_us": pa.array(
                    batch["o_orderdate"].to_numpy(zero_copy_only=False)
                    .astype("datetime64[us]").astype(np.int64)
                ),
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def ewma(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["ck", "date_us", "ok"])
        ck = g["ck"].to_numpy(dtype=np.int64)
        cents = g["cents"].to_numpy(dtype=np.int64)
        uniq, start = np.unique(ck, return_index=True)
        n = np.diff(np.append(start, len(ck)))
        idx = np.arange(len(ck)) - np.repeat(start, n)  # 0-based rank per ck
        m = np.repeat(np.maximum(n - _EWMA_WINDOW, 0), n)
        keep = idx >= m
        w = np.int64(1) << np.maximum(idx - m - 1, 0)
        contrib = np.where(keep, cents * w, 0)
        inv = np.repeat(np.arange(len(uniq)), n)
        nums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(nums, inv, contrib)
        dens = np.int64(1) << (n - 1 - np.maximum(n - _EWMA_WINDOW, 0))
        micro = np.fromiter(
            (
                (2 * 1_000_000 * int(a) + int(b)) // (2 * int(b))
                for a, b in zip(nums, dens)
            ),
            dtype=np.int64,
            count=len(uniq),
        )
        return pa.table(
            {
                "c_custkey": pa.array(uniq),
                "n_orders": pa.array(n.astype(np.int64)),
                "ewma_micro": pa.array(micro),
            }
        )

    keyed = orders.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "ck")], ewma, n_buckets=n_buckets)


_SQL_ORDER_EWMA = f"""
WITH o AS (
    SELECT o_custkey,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           ROW_NUMBER() OVER (PARTITION BY o_custkey
                              ORDER BY o_orderdate, o_orderkey) - 1 AS idx,
           COUNT(*) OVER (PARTITION BY o_custkey) AS n
    FROM orders),
w AS (
    SELECT o_custkey, n, GREATEST(n - {_EWMA_WINDOW}, 0) AS m, idx, cents
    FROM o WHERE idx >= GREATEST(n - {_EWMA_WINDOW}, 0)),
s AS (
    SELECT o_custkey, MAX(n) AS n_orders,
           SUM(cents * (1::BIGINT << GREATEST(idx - m - 1, 0))) AS num,
           (1::BIGINT << MAX(n - 1 - m)) AS den
    FROM w GROUP BY o_custkey)
SELECT o_custkey AS c_custkey,
       CAST(n_orders AS BIGINT) AS n_orders,
       CAST((2000000::HUGEINT * num + den) // (2::HUGEINT * den) AS BIGINT)
           AS ewma_micro
FROM s
"""


# ---------------------------------------------------------------------------
# Set algebra — INTERSECT / EXCEPT classification in one pass
# ---------------------------------------------------------------------------

def q_id_set_algebra(sf_dir: str):
    """Set classification of the two id universes (event users vs
    order customers): one row per distinct id with membership flags —
    ``in_events ∧ in_orders`` rows ARE the INTERSECT, single-flag rows
    are the two EXCEPTs, so one pass answers all three set operations
    (and unlike a bare EXCEPT, the result can never be empty-schema).
    Both sides pre-dedupe per batch and ship (id, flag) rows into one
    groupby MAX — the tagged-union exchange carries distinct ids per
    block, never event/order volume."""
    from ray.data.aggregate import Max

    events = read_table(sf_dir, "events", ["user_id"])
    orders = read_table(sf_dir, "orders", ["o_custkey"])

    def side(col: str, e: int, o: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = np.unique(batch[col].to_numpy(zero_copy_only=False).astype(np.int64))
            n = len(ids)
            return pa.table(
                {
                    "id": pa.array(ids),
                    "in_events": pa.array(np.full(n, e, dtype=np.int64)),
                    "in_orders": pa.array(np.full(n, o, dtype=np.int64)),
                }
            )

        return fn

    both = events.map_batches(
        side("user_id", 1, 0), batch_format="pyarrow", batch_size=None
    ).union(orders.map_batches(side("o_custkey", 0, 1), batch_format="pyarrow", batch_size=None))
    return both.groupby("id").aggregate(
        Max("in_events", alias_name="in_events"),
        Max("in_orders", alias_name="in_orders"),
    )


_SQL_ID_SET_ALGEBRA = """
SELECT id, CAST(MAX(e) AS BIGINT) AS in_events, CAST(MAX(o) AS BIGINT) AS in_orders
FROM (
    SELECT DISTINCT user_id AS id, 1 AS e, 0 AS o FROM events
    UNION ALL
    SELECT DISTINCT o_custkey AS id, 0 AS e, 1 AS o FROM orders)
GROUP BY id
"""


# ---------------------------------------------------------------------------
# RANK / PERCENT_RANK over a value-count summary
# ---------------------------------------------------------------------------

def q_priority_value_ranks(sf_dir: str):
    """RANK and PERCENT_RANK of every distinct order total within its
    priority, computed at the distinct-value grain: the exchange ships
    the (priority, cents, count) summary — one row per distinct value
    per batch, never order rows — and each partition derives
    rnk = 1 + Σ counts of smaller values by cumulative sum, which
    equals SQL's raw-row RANK() exactly (ties share the minimum rank).
    PERCENT_RANK's (rnk−1)/(n−1) is emitted as exact ppm via rational
    half-away rounding (int64 up to ~4×10¹² rows per group; the
    oracle's HUGEINT mirrors the same formula, with the n=1 guard on
    both sides)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "cents": cents,
                "cnt": np.ones(len(cents), np.int64),
            }
        )
        return combine(t, ["o_orderpriority", "cents"], "sum")

    summary = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["o_orderpriority", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def ranks(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("cents")
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnt)
        rnk = cum - cnt + 1
        n = cum[-1]
        if n > 1:
            ppm = (2 * 1_000_000 * (rnk - 1) + (n - 1)) // (2 * (n - 1))
        else:
            ppm = np.zeros(len(rnk), dtype=np.int64)
        return pa.table(
            {
                "o_orderpriority": pa.array(g["o_orderpriority"].astype(str), pa.string()),
                "cents": pa.array(g["cents"].to_numpy(dtype=np.int64)),
                "cnt": pa.array(cnt),
                "rnk": pa.array(rnk),
                "pct_rank_ppm": pa.array(ppm.astype(np.int64)),
            }
        )

    return summary.groupby("o_orderpriority").map_groups(ranks, batch_format="pandas")


_SQL_PRIORITY_VALUE_RANKS = """
WITH c AS (
    SELECT o_orderpriority AS p,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           COUNT(*) AS cnt
    FROM orders GROUP BY p, cents),
w AS (
    SELECT p, cents, cnt,
           SUM(cnt) OVER (PARTITION BY p ORDER BY cents
                          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               - cnt + 1 AS rnk,
           SUM(cnt) OVER (PARTITION BY p) AS n
    FROM c)
SELECT p AS o_orderpriority, cents, CAST(cnt AS BIGINT) AS cnt,
       CAST(rnk AS BIGINT) AS rnk,
       CAST(CASE WHEN n = 1 THEN 0
                 ELSE (2000000::HUGEINT * (rnk - 1) + (n - 1))
                      // (2::HUGEINT * (n - 1)) END AS BIGINT) AS pct_rank_ppm
FROM w
"""


# ---------------------------------------------------------------------------
# Grouped MODE — most frequent value with deterministic tie-break
# ---------------------------------------------------------------------------

def q_brand_mode_qty(sf_dir: str, budget_bytes: int | None = None):
    """Modal line quantity per part brand (ties broken toward the
    smaller quantity) — the MODE aggregate, which neither engine
    exposes with a defined tie-break, so both sides compute it the
    same deterministic way: value counts per (brand, qty), then ONE
    packed integer MAX per brand — ``cnt·2¹⁰ + (1023 − qty)``
    maximizes count first and minimizes qty on ties, the argmax twin
    of cheapest_supplier's argmin pack. The exchange carries the
    (brand, qty) count summary; quantities are small integers so the
    summary is bounded by |brands|×|qty values| per batch."""
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def per_part_qty(batch: pa.Table) -> pa.Table:
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = _qty_int(batch["l_quantity"])
        assert qty.max(initial=0) < (1 << 10) and keys.max(initial=0) < (1 << 53)
        pack = (keys << 10) | qty
        uniq, counts = np.unique(pack, return_counts=True)
        return pa.table(
            {
                "l_partkey": pa.array(uniq >> 10),
                "qty": pa.array(uniq & ((1 << 10) - 1)),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    joined = keyed_join(
        li.map_batches(per_part_qty, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_brand"],
        budget_bytes=budget_bytes,
    )

    def brand_qty(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["p_brand", "qty"]).aggregate([("cnt", "sum")])
        return pa.table({"p_brand": g["p_brand"], "qty": g["qty"], "cnt": g["cnt_sum"]})

    tagged = joined.map_batches(brand_qty, batch_format="pyarrow", batch_size=None)
    summary = tagged.groupby(["p_brand", "qty"]).aggregate(Sum("cnt", alias_name="cnt"))

    def pack(batch: pa.Table) -> pa.Table:
        qty = batch["qty"].to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": batch["p_brand"],
                "packed": pa.array(cnt * 1024 + (1023 - qty)),
            }
        )

    from ray.data.aggregate import Max

    agg = (
        summary.map_batches(pack, batch_format="pyarrow", batch_size=None)
        .groupby("p_brand")
        .aggregate(Max("packed", alias_name="packed"))
    )

    def unpack(batch: pa.Table) -> pa.Table:
        packed = batch["packed"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": batch["p_brand"],
                "mode_qty": pa.array(1023 - (packed & 1023)),
                "n": pa.array(packed >> 10),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow", batch_size=None)


_SQL_BRAND_MODE_QTY = """
WITH c AS (
    SELECT p_brand, CAST(ROUND(l_quantity) AS BIGINT) AS qty,
           COUNT(*) AS cnt
    FROM lineitem JOIN part ON l_partkey = p_partkey
    GROUP BY p_brand, qty)
SELECT p_brand,
       CAST(1023 - (m % 1024) AS BIGINT) AS mode_qty,
       CAST(m // 1024 AS BIGINT) AS n
FROM (SELECT p_brand, MAX(cnt * 1024 + (1023 - qty)) AS m FROM c GROUP BY p_brand) q
"""


# ---------------------------------------------------------------------------
# Validity intervals — LEAD materialized as [from, to) rows (SCD2 shape)
# ---------------------------------------------------------------------------

_OPEN_END_US = 1 << 62  # sentinel for the open-ended current interval


def q_event_validity_intervals(sf_dir: str, n_buckets: int = 32):
    """Each event becomes a validity interval ``[ts, next_ts)`` within
    its user's stream (ties ordered by event_id) — the LEAD window
    materialized as SCD2-style rows, the complement of
    ``latest_events``' keep-latest compaction. The last event per user
    gets the ``2⁶²`` open-end sentinel instead of NULL so the column
    stays non-nullable int64 (a NULL would round-trip through pandas
    as float64 — the same sentinel-coalesce discipline as
    attribution_last_touch). One user-bucket exchange at the event
    grain; the shift is a vectorized per-partition gather."""

    ev = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(
                    batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "ts_us": pa.array(
                    pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
                ),
                "event_type": batch["event_type"],
            }
        )

    def intervals(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        uid = g["user_id"].to_numpy(dtype=np.int64)
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        nxt = np.empty(len(ts), dtype=np.int64)
        if len(ts):
            nxt[:-1] = ts[1:]
            nxt[-1] = _OPEN_END_US
            # last event of each user: next row belongs to someone else
            brk = np.empty(len(ts), dtype=bool)
            brk[:-1] = uid[1:] != uid[:-1]
            brk[-1] = True
            nxt[brk] = _OPEN_END_US
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(g["event_id"].to_numpy(dtype=np.int64)),
                # .tolist() (not astype(str)) so a NULL event_type stays NULL
                # instead of becoming the literal "None" — the
                # q_latest_events discipline
                "event_type": pa.array(g["event_type"].tolist(), pa.string()),
                "valid_from_us": pa.array(ts),
                "valid_to_us": pa.array(nxt),
            }
        )

    keyed = ev.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], intervals, n_buckets=n_buckets)


_SQL_VALIDITY_INTERVALS = f"""
SELECT user_id, event_id, event_type,
       CAST(epoch_us(ts) AS BIGINT) AS valid_from_us,
       CAST(COALESCE(
           LEAD(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id),
           {_OPEN_END_US}) AS BIGINT) AS valid_to_us
FROM events
"""


# ---------------------------------------------------------------------------
# Weighted median — quantity-weighted price midpoint per group
# ---------------------------------------------------------------------------

def q_weighted_median_price(sf_dir: str):
    """Quantity-weighted LOWER median of the line price per returnflag:
    the smallest price whose cumulative quantity weight reaches half
    the group's total (``2·cumw ≥ W``) — the weighted-statistics slot
    neither engine has built in, so both sides compute the identical
    integer rule (engine: cumsum over the value-count summary; oracle:
    a window cumsum with ``MIN(cents) WHERE 2·cumw ≥ W``). The
    exchange ships one (flag, cents, Σqty) row per distinct price per
    batch — the same summary grain as the percentile family, weights
    folded in."""
    import pandas as pd
    from ray.data.aggregate import Sum

    li = read_table(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        qty = _qty_int(batch["l_quantity"])
        t = pa.table({"l_returnflag": batch["l_returnflag"], "cents": cents, "w": qty})
        return combine(t, ["l_returnflag", "cents"], "sum")

    summary = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["l_returnflag", "cents"])
        .aggregate(Sum("w", alias_name="w"))
    )

    def read_off(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("cents")
        w = g["w"].to_numpy(dtype=np.int64)
        cum = np.cumsum(w)
        total = cum[-1]
        v = int(g["cents"].to_numpy(dtype=np.int64)[np.searchsorted(2 * cum, total)])
        return pa.table(
            {
                "l_returnflag": pa.array([str(g["l_returnflag"].iloc[0])], pa.string()),
                "wmedian_cents": pa.array([v], pa.int64()),
                "total_qty": pa.array([int(total)], pa.int64()),
            }
        )

    return summary.groupby("l_returnflag").map_groups(read_off, batch_format="pandas")


_SQL_WEIGHTED_MEDIAN = """
WITH c AS (
    SELECT l_returnflag AS f,
           CAST(ROUND(l_extendedprice*100) AS BIGINT) AS cents,
           SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS w
    FROM lineitem GROUP BY f, cents),
w2 AS (
    SELECT f, cents, w,
           SUM(w) OVER (PARTITION BY f ORDER BY cents
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cumw,
           SUM(w) OVER (PARTITION BY f) AS total
    FROM c)
SELECT f AS l_returnflag,
       CAST(MIN(CASE WHEN 2 * cumw >= total THEN cents END) AS BIGINT)
           AS wmedian_cents,
       CAST(MAX(total) AS BIGINT) AS total_qty
FROM w2 GROUP BY f
"""


# ---------------------------------------------------------------------------
# Pre-conversion behaviour — events before a user's first order
# ---------------------------------------------------------------------------


def q_pre_purchase_views(sf_dir: str, n_buckets: int = 32):
    """Per-type counts of the events a user fired BEFORE their first
    ``purchase`` event — the acquisition-funnel question ("what do
    people do before they convert?") expressed as a correlated date
    predicate against a per-user MIN (``e.ts < MIN(ts) OF THAT user's
    purchases``). The orders table cannot anchor the cutoff here: the
    synthetic events stream (2024) postdates every order (1995–2001),
    so the conversion moment lives inside the stream itself.

    Shape: the cutoff side filters to purchases AT THE READ and
    pre-reduces to one (batch, user) MIN row before the exchange; the
    probe side cannot pre-reduce (each event row needs its own ``ts <
    cutoff`` test), so events ride the same ``user_id % B`` bucket
    exchange at stream grain and the comparison is one vectorized
    map + mask per partition. COUNT(DISTINCT user) sums across
    buckets because a user lives in exactly one bucket — the same
    partitioned-distinct argument as ``type_user_counts``."""
    import pandas as pd

    events = read_table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep_cutoffs(b: pa.Table) -> pa.Table:
        mask = pc.equal(b["event_type"], "purchase")
        b = b.filter(mask)
        t = pa.table({"user_id": b["user_id"].cast(pa.int64()), "ts_us": pc.cast(b["ts"], pa.int64())})
        return combine(t, "user_id", "min")

    def fold_bucket(cuts: pa.Table, evs: pa.Table) -> pa.Table:
        # fold the per-batch partial MINs
        cut = cuts.to_pandas().groupby("user_id")["ts_us"].min()
        ev = pd.DataFrame(
            {
                "user_id": evs["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": pc.cast(evs["ts"], pa.int64()).to_numpy(zero_copy_only=False),
                "event_type": evs["event_type"].to_pandas(),
            }
        )
        cutoff = ev["user_id"].map(cut)  # NaN for never-ordered users → mask False
        keep = ev[ev["ts_us"] < cutoff]
        agg = keep.groupby("event_type").agg(
            events=("ts_us", "size"), users=("user_id", "nunique")
        )
        return pa.table(
            {
                "event_type": pa.array(agg.index.astype(str), pa.string()),
                "events": pa.array(agg["events"].to_numpy(dtype=np.int64), pa.int64()),
                "users": pa.array(agg["users"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        exchange(
            [
                (
                    events.map_batches(prep_cutoffs, batch_format="pyarrow"),
                    "user_id",
                    pa.schema({"user_id": pa.int64(), "ts_us": pa.int64()}),
                ),
                (events, "user_id"),
            ],
            fold_bucket,
            n_buckets=n_buckets,
        )
        .groupby("event_type")
        .aggregate(Sum("events", alias_name="events"), Sum("users", alias_name="users"))
    )


_SQL_PRE_PURCHASE = """
WITH fp AS (
    SELECT user_id, MIN(ts) AS first_ts
    FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT e.event_type,
       CAST(COUNT(*) AS BIGINT) AS events,
       CAST(COUNT(DISTINCT e.user_id) AS BIGINT) AS users
FROM events e JOIN fp ON e.user_id = fp.user_id
WHERE e.ts < fp.first_ts
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Spend concentration — exact per-segment Gini in integer arithmetic
# ---------------------------------------------------------------------------


def q_spend_gini(sf_dir: str, n_buckets: int = 16):
    """Per-market-segment Gini coefficient of customer spend — the
    concentration/inequality statistic a data-curation pipeline runs
    on per-source token counts to detect corpus skew, here over the
    customer/orders join. Exact integer arithmetic end to end via the
    sorted-rank identity ``G = Σ(2r − n − 1)·xᵣ / (n·Σx)`` (x ascending,
    r 1-based), reported as floor-ppm.

    The rank problem is solved WITHOUT a global sort of the grain,
    one step leaner than ``customer_spend_quartiles``'s two-pass
    bucket-rank: per-customer spends land in VALUE-RANGE buckets
    (monotone ``(bit_length, mantissa)`` binning — bucket order IS
    value order), each (segment, vbin) group emits the closed-form
    pieces ``(k, Σc, Σ j·cⱼ)`` of its locally-sorted run, and the
    driver prefix-sums the O(segments × buckets) summary to place
    every group's global rank offset: ``Σ(2r−n−1)c = (2·offset+1−n)·Σc
    + 2·Σj·cⱼ``. One grain exchange (the bucket join), one summary
    exchange, no second pass, no driver row data. ``Σ j·cⱼ`` is summed
    in object dtype (exact Python ints) and shipped as two int64 limbs
    — group-local cost, unbounded-magnitude safe."""
    import pandas as pd

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep_orders(b: pa.Table) -> pa.Table:
        t = pa.table({"key": b["o_custkey"].cast(pa.int64()), "cents": _cents(b["o_totalprice"])})
        return combine(t, "key", "sum")

    m1 = 7  # mantissa bits of the value-range binning (≈ 2⁻⁷ buckets)
    _LIMB = 62

    def join_bucket(parts: pa.Table, cust: pa.Table) -> pa.Table:
        # fold the per-batch partial sums, then attach the segment
        probe = parts.to_pandas().groupby("key", as_index=False)["cents"].sum()
        j = probe.merge(cust.to_pandas(), left_on="key", right_on="c_custkey")
        c = j["cents"].to_numpy(dtype=np.int64)
        if (c <= 0).any():
            raise ValueError("gini rank binning assumes positive spend totals")
        bl = np.frexp(c.astype(np.float64))[1].astype(np.int64)
        sub = c >> np.maximum(bl - m1, 0)
        return pa.table(
            {
                "seg": pa.array(j["c_mktsegment"].astype(str), pa.string()),
                "vbin": pa.array(bl * (1 << m1) + sub, pa.int64()),
                "key": pa.array(j["key"].to_numpy(dtype=np.int64), pa.int64()),
                "cents": pa.array(c, pa.int64()),
            }
        )

    grain = exchange(
        [
            (
                orders.map_batches(prep_orders, batch_format="pyarrow"),
                "key",
                pa.schema({"key": pa.int64(), "cents": pa.int64()}),
            ),
            (customer, "c_custkey"),
        ],
        join_bucket,
        n_buckets=n_buckets,
    )

    def summarize(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["cents", "key"], kind="mergesort")
        c = g["cents"].to_numpy(dtype=np.int64)
        k = len(c)
        s = int(c.sum(dtype=object))
        t = int((np.arange(k, dtype=object) * c.astype(object)).sum())
        return pa.table(
            {
                "seg": pa.array([str(g["seg"].iloc[0])], pa.string()),
                "vbin": pa.array([int(g["vbin"].iloc[0])], pa.int64()),
                "k": pa.array([k], pa.int64()),
                "s_lo": pa.array([s & ((1 << _LIMB) - 1)], pa.int64()),
                "s_hi": pa.array([s >> _LIMB], pa.int64()),
                "t_lo": pa.array([t & ((1 << _LIMB) - 1)], pa.int64()),
                "t_hi": pa.array([t >> _LIMB], pa.int64()),
            }
        )

    summary = (
        grain.groupby(["seg", "vbin"])
        .map_groups(summarize, batch_format="pandas")
        .to_pandas()  # bounded: O(segments × value buckets) fixed-width rows
        .sort_values(["seg", "vbin"], kind="mergesort")
    )

    out = []
    for seg, sg in summary.groupby("seg", sort=True):
        n = int(sg["k"].sum())
        offset, num, total = 0, 0, 0
        for r in sg.itertuples():
            s_g = (int(r.s_hi) << _LIMB) + int(r.s_lo)
            t_g = (int(r.t_hi) << _LIMB) + int(r.t_lo)
            # ranks are 1-based ascending: r = offset + j + 1, j local
            num += (2 * offset + 1 - n) * s_g + 2 * t_g
            total += s_g
            offset += int(r.k)
        out.append(
            {
                "segment": seg,
                "n_customers": n,
                "spend_cents": total,
                "gini_ppm": (1_000_000 * num) // (n * total),
            }
        )
    return pd.DataFrame(out)


_SQL_SPEND_GINI = """
WITH t AS (
    SELECT c_mktsegment AS segment, o_custkey AS k,
           SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY 1, 2
), r AS (
    SELECT segment, cents,
           ROW_NUMBER() OVER (PARTITION BY segment ORDER BY cents, k) AS rn,
           COUNT(*) OVER (PARTITION BY segment) AS n
    FROM t
)
SELECT segment,
       CAST(MAX(n) AS BIGINT) AS n_customers,
       CAST(SUM(cents) AS BIGINT) AS spend_cents,
       CAST((1000000 * SUM((2*CAST(rn AS HUGEINT) - n - 1) * cents))
            // (CAST(MAX(n) AS HUGEINT) * SUM(cents)) AS BIGINT) AS gini_ppm
FROM r GROUP BY segment ORDER BY segment
"""


QUERIES = {
    "late_ship_priority": q_late_ship_priority,
    "promo_revenue": q_promo_revenue,
    "important_parts": q_important_parts,
    "order_count_distribution": q_order_count_distribution,
    "part_supplier_counts": q_part_supplier_counts,
    "small_qty_revenue": q_small_qty_revenue,
    "large_orders": q_large_orders,
    "disjunctive_revenue": q_disjunctive_revenue,
    "waiting_suppliers": q_waiting_suppliers,
    "idle_rich_customers": q_idle_rich_customers,
    "cheapest_supplier": q_cheapest_supplier,
    "hourly_fill": q_hourly_fill,
    "event_unpivot": q_event_unpivot,
    "order_total_mad": q_order_total_mad,
    "order_ewma": q_order_ewma,
    "id_set_algebra": q_id_set_algebra,
    "priority_value_ranks": q_priority_value_ranks,
    "brand_mode_qty": q_brand_mode_qty,
    "event_validity_intervals": q_event_validity_intervals,
    "weighted_median_price": q_weighted_median_price,
    "pre_purchase_views": q_pre_purchase_views,
    "spend_gini": q_spend_gini,
}

ORACLE_SQL = {
    "weighted_median_price": _SQL_WEIGHTED_MEDIAN,
    "pre_purchase_views": _SQL_PRE_PURCHASE,
    "spend_gini": _SQL_SPEND_GINI,
    "brand_mode_qty": _SQL_BRAND_MODE_QTY,
    "event_validity_intervals": _SQL_VALIDITY_INTERVALS,
    "order_ewma": _SQL_ORDER_EWMA,
    "id_set_algebra": _SQL_ID_SET_ALGEBRA,
    "priority_value_ranks": _SQL_PRIORITY_VALUE_RANKS,
    "hourly_fill": _SQL_HOURLY_FILL,
    "event_unpivot": _sql_event_unpivot(),
    "order_total_mad": _SQL_ORDER_TOTAL_MAD,
    "late_ship_priority": _SQL_LATE_SHIP,
    "promo_revenue": _SQL_PROMO_REVENUE,
    "important_parts": _SQL_IMPORTANT_PARTS,
    "order_count_distribution": _SQL_ORDER_COUNT_DIST,
    "part_supplier_counts": _SQL_PART_SUPPLIER_COUNTS,
    "small_qty_revenue": _SQL_SMALL_QTY,
    "large_orders": _SQL_LARGE_ORDERS,
    "disjunctive_revenue": _SQL_DISJUNCTIVE,
    "waiting_suppliers": _SQL_WAITING_SUPPLIERS,
    "idle_rich_customers": _SQL_IDLE_RICH,
    "cheapest_supplier": _SQL_CHEAPEST_SUPPLIER,
}
