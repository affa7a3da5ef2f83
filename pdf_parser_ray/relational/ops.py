"""Relational operator suite over the driver's TPC-H-ish tables.

Each query here exists to exercise one engine capability (filter,
projection, grouped aggregation with partial combine, sort/top-k,
distinct, broadcast join, partitioned hash join, semi/anti join,
windowed aggregation, sessionization, as-of join) as an idiomatic Ray
Data pipeline, paired with an ANSI-SQL oracle (see ``ORACLE_SQL``) the
driver runs on DuckDB.

Design rules:

* **Prune at the read** — every ``read_parquet`` passes ``columns=``.
* **Exact arithmetic** — money flows as integer cents
  (``round(x*100)``; prices/discounts carry exactly two decimals), so
  distributed sums are order-independent and hash-identical to the
  oracle. Float sums would differ in the last ulp across block orders.
* **Broadcast the small side** — dimension tables ride to workers as
  plain dicts captured in the batch fn (Ray serializes them once per
  task/actor, the object store dedupes); no shuffle.
* **Pre-aggregate before the shuffle** — per-batch partial combine
  inside ``map_batches`` (:func:`~..core.exchange.combine`), then a
  small ``groupby`` over partials.
* **Salt nothing silently** — when both sides are large they meet in
  :func:`~..core.exchange.exchange`, the one co-partitioned bucket
  exchange (routing, side split, empty-side schemas); the salted
  segment join packs its salt into the key it hands over.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.exchange import combine, exchange
from ..core.join import keyed_join
from ..io.sources import read_table


def _cents(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """double dollars → exact int64 cents (values carry 2 decimals)."""
    np_arr = arr.to_numpy(zero_copy_only=False)
    return pa.array(np.rint(np_arr * 100).astype(np.int64))


# ---------------------------------------------------------------------------
# Q1 — grouped aggregation with partial per-batch combine (TPC-H Q1 shape)
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """lineitem → per (returnflag, linestatus): counts and exact cent
    sums. Partial aggregation happens inside ``map_batches`` (one row
    per key per batch), so the shuffle moves O(keys × blocks) rows, not
    O(rows) — the pattern that keeps a 100 TB groupby cheap."""
    ds = read_table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        disc_price = price_c * (100 - disc_c)  # cents × 100, exact
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": qty,
                "sum_base_cents": price_c,
                "sum_disc_cents2": disc_price,
                "count_order": np.ones(len(qty), np.int64),
            }
        )
        return combine(t, ["l_returnflag", "l_linestatus"], "sum")

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_cents2", alias_name="sum_disc_cents2"),
        Sum("count_order", alias_name="count_order"),
    )
    return out


_SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_disc_cents2,
       CAST(COUNT(*) AS BIGINT) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# Q2 — vectorized filter + projection (predicate inside map_batches)
# ---------------------------------------------------------------------------

def q_filter_project(sf_dir: str):
    """Shipped-1995+ large lineitems with exact revenue cents; the
    filter is a pyarrow kernel inside map_batches (not per-row
    ``ds.filter``)."""
    ds = read_table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    cutoff = pa.scalar(np.datetime64("1995-01-01", "us"), pa.timestamp("us"))

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(batch["l_shipdate"], cutoff),
            pc.greater(batch["l_quantity"], 30.0),
        )
        t = batch.filter(mask)
        price_c = _cents(t["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(t["l_discount"]).to_numpy(zero_copy_only=False)
        rev = pa.array(price_c * (100 - disc_c))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "revenue_cents2": rev,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


_SQL_FILTER_PROJECT = """
SELECT l_orderkey, l_linenumber,
       CAST(ROUND(l_extendedprice*100) AS BIGINT)
         * (100 - CAST(ROUND(l_discount*100) AS BIGINT)) AS revenue_cents2
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_quantity > 30
"""


# ---------------------------------------------------------------------------
# Q3 — global sort + top-k
# ---------------------------------------------------------------------------

def q_top_orders(sf_dir: str):
    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "total_cents": _cents(batch["o_totalprice"]),
                "o_orderdate": batch["o_orderdate"],
            }
        )

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    return ds.sort(["total_cents", "o_orderkey"], descending=[True, False]).limit(20)


_SQL_TOP_ORDERS = """
SELECT o_orderkey, CAST(ROUND(o_totalprice*100) AS BIGINT) AS total_cents, o_orderdate
FROM orders
ORDER BY total_cents DESC, o_orderkey
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q4 — distinct over two columns
# ---------------------------------------------------------------------------

def q_distinct_flags(sf_dir: str):
    ds = read_table(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    from ray.data.aggregate import Count

    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(Count(alias_name="_n"))
    return out.select_columns(["l_returnflag", "l_linestatus"])


_SQL_DISTINCT = "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem"


# ---------------------------------------------------------------------------
# Q5 — broadcast join chain (dimension tables ride with the task)
# ---------------------------------------------------------------------------

def q_region_customers(sf_dir: str):
    """customer ⋈ nation ⋈ region (both dims tiny) → customers per
    region. The dims are read once on the driver and captured in the
    batch fn — a broadcast join; the only shuffle is the final tiny
    groupby over per-batch partials."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    nk_to_rk = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()))
    rk_to_name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nk_to_name = {nk: rk_to_name[rk] for nk, rk in nk_to_rk.items()}

    ds = read_table(sf_dir, "customer", ["c_nationkey"])

    max_nk = max(nk_to_name) if nk_to_name else 0
    lut = np.array([nk_to_name.get(i, "") for i in range(max_nk + 1)], dtype=object)

    def fn(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        names = lut[nk]
        vc = pd.Series(names).value_counts()
        return pa.table(
            {"r_name": pa.array(vc.index.astype(str)), "n_customers": pa.array(vc.values.astype(np.int64))}
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
    return partials.groupby("r_name").aggregate(Sum("n_customers", alias_name="n_customers"))


_SQL_REGION_CUSTOMERS = """
SELECT r_name, CAST(COUNT(*) AS BIGINT) AS n_customers
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# ---------------------------------------------------------------------------
# Q6 — partitioned hash join (both sides "large"): explicit bucket join
# ---------------------------------------------------------------------------

def q_segment_revenue(sf_dir: str, n_buckets: int = 16):
    """orders ⋈ customer on custkey → revenue per market segment.

    The bucket join: both sides meet in one ``key % B`` exchange
    (:func:`~..core.exchange.exchange`) and each bucket joins its two
    side tables. At cluster scale B is sized so one bucket's build
    side fits a worker's heap, and hot keys get salted into
    sub-buckets; here the key is near-uniform so no salting is needed
    (documented partitioning assumption)."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep_orders(b: pa.Table) -> pa.Table:
        # Pre-aggregate per custkey inside the batch before the
        # shuffle: the exchange then carries one row per (batch, key)
        # instead of one per order — the partial-combine discipline
        # applied to the join's probe side.
        t = pa.table(
            {"key": b["o_custkey"].cast(pa.int64()), "total_cents": _cents(b["o_totalprice"])}
        )
        return combine(t, "key", "sum")

    def join_bucket(probe: pa.Table, build: pa.Table) -> pa.Table:
        j = probe.to_pandas().merge(build.to_pandas(), left_on="key", right_on="c_custkey")
        out = j.groupby("c_mktsegment", as_index=False)["total_cents"].sum()
        # explicit Arrow schema so empty partitions keep their columns
        # (schema-less empty pandas blocks trip the executor's
        # schema-consistency check)
        return pa.table(
            {
                "c_mktsegment": pa.array(out["c_mktsegment"].tolist(), pa.string()),
                "revenue_cents": pa.array(
                    out["total_cents"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    per_bucket = exchange(
        [
            (
                orders.map_batches(prep_orders, batch_format="pyarrow"),
                "key",
                pa.schema({"key": pa.int64(), "total_cents": pa.int64()}),
            ),
            (customer, "c_custkey"),
        ],
        join_bucket,
        n_buckets=n_buckets,
    )
    return per_bucket.groupby("c_mktsegment").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents")
    )


_SQL_SEGMENT_REVENUE = """
SELECT c_mktsegment,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_segment_revenue_salted(sf_dir: str, n_buckets: int = 16, n_salts: int = 4):
    """Salted twin of :func:`q_segment_revenue` — the hot-key
    mitigation SCALE.md's join row names, implemented: the BUILD side
    (customer) replicates every row into ``n_salts`` sub-buckets of
    its key bucket, and each PROBE partial lands in one sub-bucket, so
    a key whose probe volume would swamp one worker spreads across
    ``n_salts`` of them. The exchange grows by exactly
    ``n_salts × build`` rows (the price of salting — pay it only for
    keys a skew probe flags; here every key is salted to exercise the
    shape). Probe salt assignment is round-robin within the batch:
    ANY assignment yields the same sums because every sub-bucket
    carries the full build rows for its keys — the invariance the
    twin-equality test and the shared oracle pin."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep_orders(b: pa.Table) -> pa.Table:
        g = combine(
            pa.table({"key": b["o_custkey"].cast(pa.int64()), "total_cents": _cents(b["o_totalprice"])}),
            "key",
            "sum",
        )
        keys = g["key"].to_numpy()
        salt = np.arange(len(g), dtype=np.int64) % n_salts
        return g.add_column(0, "route", pa.array((keys % n_buckets) * n_salts + salt, pa.int64()))

    def prep_cust(b: pa.Table) -> pa.Table:
        ck = b["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        rep = np.repeat(np.arange(len(ck)), n_salts)
        rep_salt = np.tile(np.arange(n_salts, dtype=np.int64), len(ck))
        return pa.table(
            {
                "route": pa.array((ck[rep] % n_buckets) * n_salts + rep_salt, pa.int64()),
                "c_custkey": pa.array(ck[rep], pa.int64()),
                "c_mktsegment": b["c_mktsegment"].take(pa.array(rep)),
            }
        )

    def join_bucket(probe: pa.Table, build: pa.Table) -> pa.Table:
        j = probe.to_pandas().merge(
            build.to_pandas().drop_duplicates("c_custkey"), left_on="key", right_on="c_custkey"
        )
        out = j.groupby("c_mktsegment", as_index=False)["total_cents"].sum()
        return pa.table(
            {
                "c_mktsegment": pa.array(out["c_mktsegment"].tolist(), pa.string()),
                "revenue_cents": pa.array(
                    out["total_cents"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    per_bucket = exchange(
        [
            (
                orders.map_batches(prep_orders, batch_format="pyarrow"),
                "route",
                pa.schema({"route": pa.int64(), "key": pa.int64(), "total_cents": pa.int64()}),
            ),
            (
                customer.map_batches(prep_cust, batch_format="pyarrow"),
                "route",
                pa.schema(
                    {"route": pa.int64(), "c_custkey": pa.int64(), "c_mktsegment": pa.string()}
                ),
            ),
        ],
        join_bucket,
        n_buckets=n_buckets * n_salts,
    )
    return per_bucket.groupby("c_mktsegment").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents")
    )


# ---------------------------------------------------------------------------
# Q7/Q8 — semi / anti join on the orders' custkeys
# ---------------------------------------------------------------------------

def _customers_by_orders(
    sf_dir: str,
    how: str,
    min_total: float | None = None,
    budget_bytes: int | None = None,
    n_buckets: int | None = None,
    customer=None,
):
    """Customers with (``how="semi"``) or without (``"anti"``) an order
    above ``min_total`` — one :func:`~..core.join.keyed_join` of the
    customer rows (or a caller's pre-filtered ``customer`` Dataset with
    the customer columns) against the orders' custkeys."""
    customer = (
        customer
        if customer is not None
        else read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    )
    kept = keyed_join(
        customer,
        sf_dir,
        "orders",
        fact_key="c_custkey",
        dim_key="o_custkey",
        how=how,
        dim_filter=(
            None
            if min_total is None
            else lambda t: t.filter(pc.greater(t["o_totalprice"], min_total))
        ),
        filter_cols=[] if min_total is None else ["o_totalprice"],
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(batch["c_custkey"], pa.int64()),
                "c_name": pc.cast(batch["c_name"], pa.string()),
                "acctbal_cents": _cents(batch["c_acctbal"]),
            }
        )

    return kept.map_batches(project, batch_format="pyarrow", batch_size=None)


def q_customers_with_orders(sf_dir: str, budget_bytes: int | None = None):
    """Semi join: customers with at least one order. The keyed join
    broadcasts the orders' custkeys while their footer size fits the
    budget and exchanges both sides on custkey beyond it."""
    return _customers_by_orders(sf_dir, "semi", budget_bytes=budget_bytes)


def q_customers_without_orders(sf_dir: str, budget_bytes: int | None = None):
    """Anti join: customers with no order above $450k (the min-total
    filter keeps the build side small and the result non-empty at
    every sf)."""
    return _customers_by_orders(
        sf_dir, "anti", min_total=450000.0, budget_bytes=budget_bytes
    )


def q_customers_with_orders_shuffle(sf_dir: str, n_buckets: int = 16):
    """The exchange plan of :func:`q_customers_with_orders` exposed as
    its own query so the driver oracles the scale shape directly (a
    zero budget forces it; same SQL)."""
    return _customers_by_orders(sf_dir, "semi", budget_bytes=0, n_buckets=n_buckets)


def q_top_revenue_orders(
    sf_dir: str,
    cutoff: str = "1998-06-01",
    segment: str = "BUILDING",
    k: int = 10,
    n_buckets: int = 16,
    budget_bytes: int | None = None,
):
    """TPC-H Q3 shape — the suite's three-table join chain:
    ``customer(segment) ⊳ orders(< cutoff) ⋈ lineitem(> cutoff,
    pre-aggregated)`` → top-k orders by exact revenue.

    Scale shape, stage by stage: the customer⊳orders semi join is one
    :func:`~..core.join.keyed_join` of the date-filtered orders against
    the segment's customer keys, broadcast within budget and a
    ``custkey`` exchange beyond it (both plans share this query's
    oracle and are exercised in ``TestBroadcastShuffleCrossover``).
    Lineitem — the 100-TB fact
    side — never joins raw: each batch pre-sums exact revenue
    (cents × (100−disc), the ``cents2`` convention) per orderkey, so
    the orderkey exchange carries O(distinct keys × blocks) partials.
    One bucket join merges the two order-grain sides; the final top-k
    is a distributed sort over order-grain rows + limit — the only
    all-to-all sort in the query, and it runs on the already-aggregated
    grain, never on lineitems."""
    cut = np.datetime64(cutoff)
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def early_orders(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(od < cut))

    seg_orders = keyed_join(
        orders.map_batches(early_orders, batch_format="pyarrow", batch_size=None),
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        how="semi",
        dim_filter=lambda t: t.filter(pc.equal(t["c_mktsegment"], segment)),
        filter_cols=["c_mktsegment"],
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )

    lineitem = read_table(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def li_partials(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(sd > cut))
        price_c = _cents(t["l_extendedprice"]).to_numpy()
        disc_c = _cents(t["l_discount"]).to_numpy()
        return combine(
            pa.table({"key": t["l_orderkey"].cast(pa.int64()), "rev": price_c * (100 - disc_c)}),
            "key",
            "sum",
        )

    def join_bucket(lines: pa.Table, ords: pa.Table) -> pa.Table:
        rev = lines.to_pandas().groupby("key", sort=False)["rev"].sum()
        merged = ords.to_pandas().merge(
            rev, how="inner", left_on="o_orderkey", right_index=True
        )
        return pa.table(
            {
                "o_orderkey": pa.array(
                    merged["o_orderkey"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "revenue_cents2": pa.array(
                    merged["rev"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "o_orderdate": pa.array(merged["o_orderdate"], pa.timestamp("us")),
            }
        )

    joined = exchange(
        [
            (
                lineitem.map_batches(li_partials, batch_format="pyarrow", batch_size=None),
                "key",
                pa.schema({"key": pa.int64(), "rev": pa.int64()}),
            ),
            (
                seg_orders,
                "o_orderkey",
                pa.schema(
                    {
                        "o_orderkey": pa.int64(),
                        "o_custkey": pa.int64(),
                        "o_orderdate": pa.timestamp("us"),
                    }
                ),
            ),
        ],
        join_bucket,
        n_buckets=n_buckets,
    )
    return joined.sort(["revenue_cents2", "o_orderkey"], descending=[True, False]).limit(k)


_SQL_TOP_REVENUE = """
WITH li AS (
    SELECT l_orderkey,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_cents2
    FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-06-01'
    GROUP BY l_orderkey
)
SELECT o.o_orderkey, li.revenue_cents2, o.o_orderdate
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
JOIN li ON li.l_orderkey = o.o_orderkey
WHERE o.o_orderdate < TIMESTAMP '1998-06-01'
ORDER BY revenue_cents2 DESC, o.o_orderkey
LIMIT 10
"""


def q_event_gaps(sf_dir: str, n_buckets: int = 32):
    """Per-user event inter-arrival times — the ``LAG() OVER
    (PARTITION BY user ORDER BY ts)`` window primitive (the rank and
    prefix-scan windows' third sibling: this one reads a NEIGHBOR row,
    not an accumulation). Each event after a user's first carries the
    integer seconds since that user's previous event, deterministic
    under the (ts, event_id) tie-break.

    Same coarse-bucket discipline as :func:`q_running_total`:
    ``user_id % B`` exchange (each row moves once), then one
    vectorized sort + ``diff`` per partition with the cross-user
    boundary masked — never a per-user task."""

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
            }
        )

    def gaps_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        gap_us = np.diff(ts, prepend=np.int64(0))
        same_user = np.concatenate([[False], uid[1:] == uid[:-1]])
        keep = same_user
        return pa.table(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "event_id": pa.array(g["event_id"].to_numpy(dtype=np.int64)[keep], pa.int64()),
                "gap_sec": pa.array(gap_us[keep] // 1_000_000, pa.int64()),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], gaps_bucket, n_buckets=n_buckets)


_SQL_EVENT_GAPS = """
SELECT user_id, event_id,
       CAST((epoch_us(ts)
             - lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id))
            // 1000000 AS BIGINT) AS gap_sec
FROM events
QUALIFY lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NOT NULL
"""


def q_customer_spend_quartiles(sf_dir: str, k_tiles: int = 4):
    """NTILE — the fourth window sibling (rank, prefix-scan, LAG, and
    now equal-frequency tiling): every ordering customer gets a spend
    quartile, ordered by (spend DESC, custkey). The global rank that
    NTILE needs is computed WITHOUT a driver-side sort of the grain:
    spend totals (already aggregated — distinct custkeys, tiny next to
    orders) land in VALUE-RANGE buckets (the quantile sketch's integer
    ``(bit_length, mantissa)`` binning — bucket order IS value order),
    per-bucket counts prefix-sum on the driver (O(buckets) ints), and
    each bucket assigns ``offset + local vectorized rank`` — the same
    ordered-bucket-range pattern as ``epoch_shuffle``. Tile boundaries
    replicate DuckDB's NTILE exactly (first ``n % k`` tiles take one
    extra row)."""
    import pandas as pd

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"c_custkey": batch["o_custkey"].cast(pa.int64()), "spend_cents": _cents(batch["o_totalprice"])}
        )
        return combine(t, "c_custkey", "sum")

    from ray.data.aggregate import Sum

    totals = (
        orders.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("c_custkey")
        .aggregate(Sum("spend_cents", alias_name="spend_cents"))
    )

    m1 = _QSK_MBITS + 1

    def add_vbin(batch: pa.Table) -> pa.Table:
        c = batch["spend_cents"].to_numpy(zero_copy_only=False)
        if (c <= 0).any():
            raise ValueError("spend quartiles assume positive totals")
        bl = np.frexp(c.astype(np.float64))[1].astype(np.int64)
        sub = c >> np.maximum(bl - m1, 0)
        return batch.append_column(
            "vbin", pa.array(bl * (1 << m1) + sub, pa.int64())
        )

    # consumed twice (counts pass + assign pass) — pin the tiny
    # aggregated grain rather than re-running the orders aggregation
    keyed = totals.map_batches(
        add_vbin, batch_format="pyarrow", batch_size=None
    ).materialize()

    counts = keyed.groupby("vbin").count().to_pandas()
    counts = counts.sort_values("vbin", ascending=False)  # DESC spend order
    n_total = int(counts["count()"].sum())
    offsets = dict(
        zip(
            counts["vbin"].tolist(),
            np.concatenate([[0], counts["count()"].cumsum().to_numpy()[:-1]]).tolist(),
        )
    )
    base, rem = divmod(n_total, k_tiles)

    def assign(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["spend_cents", "c_custkey"], ascending=[False, True], kind="mergesort")
        rank = offsets[int(g["vbin"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        cut = rem * (base + 1)
        tile = np.where(rank < cut, rank // (base + 1), rem + (rank - cut) // max(base, 1))
        return pa.table(
            {
                "c_custkey": pa.array(g["c_custkey"].to_numpy(dtype=np.int64), pa.int64()),
                "spend_cents": pa.array(g["spend_cents"].to_numpy(dtype=np.int64), pa.int64()),
                "quartile": pa.array(tile + 1, pa.int64()),
            }
        )

    return keyed.groupby("vbin").map_groups(assign, batch_format="pandas")


_SQL_SPEND_QUARTILES = """
WITH t AS (
    SELECT o_custkey AS c_custkey,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS spend_cents
    FROM orders GROUP BY 1
)
SELECT c_custkey, spend_cents,
       CAST(ntile(4) OVER (ORDER BY spend_cents DESC, c_custkey) AS BIGINT) AS quartile
FROM t
"""


def q_event_dedup_windowed(sf_dir: str, window_sec: int = 3600, n_buckets: int = 32):
    """Streaming-style windowed dedup: drop an event when the SAME
    (user, event_type) fired within the previous ``window_sec``
    seconds — the debounce/at-most-once-per-window pass a stream
    processor runs on clickstreams. Batch formulation over the events
    table: gap to the previous same-key event (the LAG machinery of
    :func:`q_event_gaps`, keyed by (user, type)) must be ≥ the window
    or absent. NOTE the deliberate semantics: the reference point is
    the previous SURVIVING-OR-NOT event (LAG semantics — chainable in
    SQL), not the previous surviving one (which needs an iterated
    scan); both sides implement the LAG form so the oracle is exact.

    Same ``user_id % B`` coarse-bucket exchange: each row moves once,
    one vectorized sort + diff per partition."""

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
            }
        )

    win_us = window_sec * 1_000_000

    def dedup_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "event_type", "ts_us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        typ = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        gap = np.diff(ts, prepend=np.int64(0))
        same_key = np.concatenate(
            [[False], (uid[1:] == uid[:-1]) & (typ[1:] == typ[:-1])]
        )
        keep = ~same_key | (gap >= win_us)
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy(dtype=np.int64)[keep], pa.int64()),
                "user_id": pa.array(uid[keep], pa.int64()),
                "event_type": pa.array(typ[keep].tolist(), pa.string()),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], dedup_bucket, n_buckets=n_buckets)


_SQL_EVENT_DEDUP_WINDOWED = """
SELECT event_id, user_id, event_type
FROM events
QUALIFY lag(epoch_us(ts)) OVER
            (PARTITION BY user_id, event_type ORDER BY ts, event_id) IS NULL
     OR epoch_us(ts) - lag(epoch_us(ts)) OVER
            (PARTITION BY user_id, event_type ORDER BY ts, event_id) >= 3600000000
"""


def q_supplier_revenue(
    sf_dir: str, k: int = 10, budget_bytes: int | None = None, n_buckets: int = 16
):
    """Revenue per supplier with nation names (completes the schema:
    supplier was the one input table no query touched). Classic
    fact-into-dimension shape: lineitem pre-sums exact revenue per
    suppkey inside each batch, one tiny ``groupby(s_suppkey)`` merges
    the partials, and the supplier/nation dimension rows resolve names
    on the already-aggregated grain. Top-k by revenue with suppkey
    tie-break.

    Name resolution is one :func:`~..core.join.keyed_join` of the
    totals against supplier (supplier GROWS with sf, unlike
    nation/region which are spec-bounded at 25/5 rows and always ride
    the closure): the (s_name, s_nationkey) rows broadcast within
    budget and meet the totals in a ``suppkey`` exchange on the
    aggregated grain beyond it. Both plans share one oracle; the
    switch is exercised both ways in ``TestBroadcastShuffleCrossover``."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    n_map = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    li = read_table(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def partials(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["l_extendedprice"]).to_numpy()
        disc_c = _cents(batch["l_discount"]).to_numpy()
        t = pa.table(
            {"s_suppkey": batch["l_suppkey"].cast(pa.int64()), "revenue_cents2": price_c * (100 - disc_c)}
        )
        return combine(t, "s_suppkey", "sum")

    from ray.data.aggregate import Sum

    totals = (
        li.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("s_suppkey")
        .aggregate(Sum("revenue_cents2", alias_name="revenue_cents2"))
    )
    named = keyed_join(
        totals,
        sf_dir,
        "supplier",
        fact_key="s_suppkey",
        dim_key="s_suppkey",
        cols=["s_name", "s_nationkey"],
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )

    def resolve(batch: pa.Table) -> pa.Table:
        nk = batch["s_nationkey"].to_pylist()
        return pa.table(
            {
                "s_suppkey": pc.cast(batch["s_suppkey"], pa.int64()),
                "s_name": pc.cast(batch["s_name"], pa.string()),
                "n_name": pa.array([n_map[x] for x in nk], pa.string()),
                "revenue_cents2": batch["revenue_cents2"],
            }
        )

    resolved = named.map_batches(resolve, batch_format="pyarrow", batch_size=None)
    return resolved.sort(["revenue_cents2", "s_suppkey"], descending=[True, False]).limit(k)


_SQL_SUPPLIER_REVENUE = """
WITH rev AS (
    SELECT l_suppkey AS s_suppkey,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_cents2
    FROM lineitem GROUP BY l_suppkey
)
SELECT r.s_suppkey, s.s_name, n.n_name, r.revenue_cents2
FROM rev r
JOIN supplier s ON s.s_suppkey = r.s_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
ORDER BY r.revenue_cents2 DESC, r.s_suppkey
LIMIT 10
"""


def q_active_buyers(sf_dir: str, n_buckets: int = 32):
    """Distributed INTERSECT — the set-operation class (vs the
    row-preserving joins): customer keys that appear in BOTH orders
    and events (``events.user_id`` shares the custkey domain). Each
    side dedupes per batch and ships bare keys; one coarse ``key % B``
    exchange; a bucket intersects its two key sets — the same exchange
    EXCEPT/UNION-distinct fall out of by changing the set operation.
    Exchange volume is O(distinct keys × blocks), never rows."""

    def intersect(od: pa.Table, ev: pa.Table) -> pa.Table:
        k1 = np.unique(od["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64))
        k2 = np.unique(ev["user_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"c_custkey": pa.array(np.intersect1d(k1, k2), pa.int64())})

    return exchange(_buyer_keys(sf_dir), intersect, n_buckets=n_buckets)


def _buyer_keys(sf_dir: str) -> list:
    """The two key sides of the set-operation exchanges: distinct order
    custkeys and distinct event user ids, deduped per batch so the
    exchange carries O(distinct keys × blocks) rows."""

    def distinct(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            keys = np.unique(batch[col].to_numpy(zero_copy_only=False)).astype(np.int64)
            return pa.table({col: pa.array(keys, pa.int64())})

        return fn

    return [
        (
            read_table(sf_dir, table, [col]).map_batches(
                distinct(col), batch_format="pyarrow", batch_size=None
            ),
            col,
            pa.schema({col: pa.int64()}),
        )
        for table, col in (("orders", "o_custkey"), ("events", "user_id"))
    ]


_SQL_ACTIVE_BUYERS = """
SELECT o_custkey AS c_custkey FROM orders
INTERSECT
SELECT user_id AS c_custkey FROM events
"""


def q_silent_buyers(sf_dir: str, n_buckets: int = 32):
    """Distributed EXCEPT — the promised second mask over the same
    key exchange as :func:`q_active_buyers`: ordering
    customers with NO events (``setdiff`` instead of ``intersect1d``
    per bucket; this direction is non-empty — every event user also
    orders, so the reverse difference would be the empty-schema
    trap)."""
    def diff(od: pa.Table, ev: pa.Table) -> pa.Table:
        k1 = np.unique(od["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64))
        k2 = np.unique(ev["user_id"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"c_custkey": pa.array(np.setdiff1d(k1, k2), pa.int64())})

    return exchange(_buyer_keys(sf_dir), diff, n_buckets=n_buckets)


_SQL_SILENT_BUYERS = """
SELECT o_custkey AS c_custkey FROM orders
EXCEPT
SELECT user_id AS c_custkey FROM events
"""


def q_customer_order_profile(sf_dir: str, n_buckets: int = 16):
    """LEFT OUTER join — every customer retained, matchless ones with
    zero counts (the shape the semi/anti twins can't express). The
    build side is pre-aggregated INSIDE map_batches before the
    exchange (per-batch ``(custkey, n, cents)`` partials), so the
    shuffle carries O(distinct keys × blocks) fixed-width rows, never
    order rows; per bucket, partials sum and a vectorized left-merge
    fills absent keys with zero. Exact-cent arithmetic end to end."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_name"])

    def order_partials(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": batch["o_custkey"].cast(pa.int64()),
                "n": np.ones(batch.num_rows, np.int64),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        return combine(t, "key", "sum")

    def outer_bucket(parts: pa.Table, cust: pa.Table) -> pa.Table:
        built = parts.to_pandas().groupby("key", sort=False)[["n", "cents"]].sum()
        merged = cust.to_pandas().merge(built, how="left", left_on="c_custkey", right_index=True)
        return pa.table(
            {
                "c_custkey": pa.array(merged["c_custkey"].to_numpy(dtype=np.int64), pa.int64()),
                "c_name": pa.array(merged["c_name"].tolist(), pa.string()),
                "n_orders": pa.array(
                    merged["n"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
                "spend_cents": pa.array(
                    merged["cents"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    return exchange(
        [
            (
                orders.map_batches(order_partials, batch_format="pyarrow", batch_size=None),
                "key",
                _COUNT_CENTS,
            ),
            (customer, "c_custkey"),
        ],
        outer_bucket,
        n_buckets=n_buckets,
    )


_SQL_OUTER_PROFILE = """
SELECT c.c_custkey, c.c_name,
       CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders,
       CAST(COALESCE(o.cents, 0) AS BIGINT) AS spend_cents
FROM customer c LEFT JOIN (
    SELECT o_custkey, count(*) AS n,
           SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
    FROM orders GROUP BY o_custkey
) o ON o.o_custkey = c.c_custkey
"""


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The standard splitmix64 finalizer, vectorized over uint64 —
    deterministic across processes (same mixer the HLL sketch uses)."""
    h = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _bloom_indices(keys: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    """(n, n_hashes) bit indices via double hashing (Kirsch–Mitzenmacher:
    h_i = h1 + i·h2 gives k independent-enough probes from two mixes).
    ``m_bits`` must be a power of two."""
    keys = keys.astype(np.uint64)
    h1 = _splitmix64(keys)
    h2 = _splitmix64(keys ^ np.uint64(0xA076_1D64_78BD_642F)) | np.uint64(1)
    i = np.arange(n_hashes, dtype=np.uint64)[None, :]
    return ((h1[:, None] + i * h2[:, None]) & np.uint64(m_bits - 1)).astype(np.int64)


def _bloom_add(bits: np.ndarray, keys: np.ndarray, n_hashes: int) -> None:
    idx = _bloom_indices(keys, len(bits) * 64, n_hashes)
    np.bitwise_or.at(
        bits, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64)
    )


def _bloom_test(bits: np.ndarray, keys: np.ndarray, n_hashes: int) -> np.ndarray:
    """Vectorized membership mask — no false negatives by construction."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    idx = _bloom_indices(keys, len(bits) * 64, n_hashes)
    hit = (bits[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
    return hit.all(axis=1)


def q_customers_with_orders_bloom(
    sf_dir: str, n_buckets: int = 16, n_hashes: int = 4, reduce_width: int = 8
):
    """Semi join with a Bloom-filter probe prefilter — the third join
    shape next to broadcast (key set fits a worker) and bucket shuffle
    (nothing fits): when the build-side KEY SET is too big to
    broadcast but a few-megabyte BITMAP of it is not, ship the bitmap
    and shuffle only the probe rows that pass it. At 100 TB this is
    sideways information passing: the exact verification exchange
    still runs (Bloom false positives must die), but its probe side
    shrinks from the full table to matches + ε·non-matches, so the
    all-to-all volume tracks the true semi-join selectivity instead of
    the probe-table size.

    Build: per-block partial bitmaps (one vectorized
    ``np.bitwise_or.at`` per batch over deduped keys) → OR-merge in a
    ``reduce_width``-ary tree level (groupby on a coarse reduce bucket)
    → driver ORs ``reduce_width`` partials and ``ray.put``s the final
    bitmap — driver state is O(reduce_width × m/8) bytes, never
    O(keys). Probe: customers stream through a vectorized k-probe test
    (no false negatives — pinned by a unit test), survivors enter the
    same exact bucket-shuffle semi join the shuffle twin runs. Result
    is therefore EXACTLY the semi join; same oracle as the other two
    shapes. Bits are sized from the parquet footer row count
    (~16 bits/key → fp ≈ 0.2 % at 4 probes), capped at 2 MiB."""
    import pyarrow.parquet as pq
    import ray
    import zlib

    n_rows = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    m_bits = 1 << min(24, max(14, int(np.ceil(np.log2(max(n_rows, 1) * 16)))))
    n_words = m_bits // 64

    orders = read_table(sf_dir, "orders", ["o_custkey"])

    def partial_bloom(batch: pa.Table) -> pa.Table:
        ck = np.unique(batch["o_custkey"].to_numpy(zero_copy_only=False))
        bits = np.zeros(n_words, dtype=np.uint64)
        _bloom_add(bits, ck, n_hashes)
        payload = bits.tobytes()
        rb = zlib.crc32(payload) % reduce_width
        return pa.table(
            {
                "rb": pa.array([rb], pa.int64()),
                "bits": pa.array([payload], pa.large_binary()),
            }
        )

    def or_merge(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        acc = np.zeros(n_words, dtype=np.uint64)
        for b in g["bits"]:
            acc |= np.frombuffer(b, dtype=np.uint64)
        return pa.table(
            {
                "rb": pa.array([int(g["rb"].iloc[0])], pa.int64()),
                "bits": pa.array([acc.tobytes()], pa.large_binary()),
            }
        )

    keyed = orders.map_batches(partial_bloom, batch_format="pyarrow", batch_size=None)
    partials = (
        exchange([(keyed, "rb")], or_merge, n_buckets=reduce_width)
        .to_pandas()
    )
    final = np.zeros(n_words, dtype=np.uint64)
    for b in partials["bits"]:
        final |= np.frombuffer(b, dtype=np.uint64)
    bits_ref = ray.put(final)

    customer = read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def probe(batch: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)  # plasma-cached per worker, zero-copy
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(_bloom_test(bits, ck, n_hashes)))

    survivors = customer.map_batches(probe, batch_format="pyarrow", batch_size=None)
    return _customers_by_orders(
        sf_dir, "semi", budget_bytes=0, n_buckets=n_buckets, customer=survivors
    )


_SQL_SEMI = """
SELECT c_custkey, c_name, CAST(ROUND(c_acctbal*100) AS BIGINT) AS acctbal_cents
FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""
_SQL_ANTI = """
SELECT c_custkey, c_name, CAST(ROUND(c_acctbal*100) AS BIGINT) AS acctbal_cents
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 450000.0)
"""


# ---------------------------------------------------------------------------
# Q9 — event aggregation (count / exact cent sum / min / max)
# ---------------------------------------------------------------------------

def q_events_by_type(sf_dir: str):
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_cents": _cents(batch["value"]),
            }
        )

    from ray.data.aggregate import Count, Max, Min, Sum

    return (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("value_cents", alias_name="sum_value_cents"),
            Min("value_cents", alias_name="min_value_cents"),
            Max("value_cents", alias_name="max_value_cents"),
        )
    )


_SQL_EVENTS_BY_TYPE = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents,
       CAST(MIN(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS min_value_cents,
       CAST(MAX(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS max_value_cents
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Q10 — tumbling window aggregate (event-time hour buckets)
# ---------------------------------------------------------------------------

def q_hourly_events(sf_dir: str):
    """Tumbling 1-hour window per event type. Ray Data has no
    event-time windows; the window IS the group key (epoch-hour int),
    computed vectorized — the batch-engine expression of a streaming
    windowed aggregate (SURVEY.md §2.11 note)."""
    ds = read_table(sf_dir, "events", ["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        hour = pc.divide(us, 3_600_000_000)
        return pa.table({"event_type": batch["event_type"], "hour_bucket": hour})

    from ray.data.aggregate import Count

    return (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "hour_bucket"])
        .aggregate(Count(alias_name="n"))
    )


_SQL_HOURLY = """
SELECT event_type,
       CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) AS hour_bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events
GROUP BY 1, 2
"""


def q_hourly_top_user(sf_dir: str, n_buckets: int = 32):
    """Windowed grouped ARGMAX — the per-window leaderboard (top
    spender per tumbling hour), composing the hour-bucket window with
    a per-group top-1: per-batch ``(hour, user)`` partial cent sums →
    ``groupby([hour, user]).Sum`` (the exchange carries distinct
    pairs, never events) → per-hour argmax inside a coarse
    ``hour % B`` bucket, one vectorized ``idxmax`` per partition with
    the (cents DESC, user ASC) tie-break. The streaming analog is a
    keyed window + per-window reduce; the batch shape never holds more
    than a bucket's distinct pairs in one task."""
    ds = read_table(sf_dir, "events", ["user_id", "value", "ts"])

    def partials(batch: pa.Table) -> pa.Table:
        hour = pc.divide(pc.cast(batch["ts"], pa.int64()), 3_600_000_000)
        t = pa.table(
            {
                "hour_bucket": hour,
                "user_id": batch["user_id"].cast(pa.int64()),
                "cents": _cents(batch["value"]),
            }
        )
        return combine(t, ["hour_bucket", "user_id"], "sum")

    from ray.data.aggregate import Sum

    pairs = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby(["hour_bucket", "user_id"])
        .aggregate(Sum("cents", alias_name="cents"))
    )

    def top_per_hour(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["hour_bucket", "cents", "user_id"],
                          ascending=[True, False, True], kind="mergesort")
        first = ~g.duplicated("hour_bucket", keep="first")
        kept = g[first]
        return pa.table(
            {
                "hour_bucket": pa.array(kept["hour_bucket"].to_numpy(dtype=np.int64), pa.int64()),
                "user_id": pa.array(kept["user_id"].to_numpy(dtype=np.int64), pa.int64()),
                "cents": pa.array(kept["cents"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return exchange([(pairs, "hour_bucket")], top_per_hour, n_buckets=n_buckets)


_SQL_HOURLY_TOP_USER = """
WITH hu AS (
    SELECT CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) AS hour_bucket,
           user_id,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS cents
    FROM events GROUP BY 1, 2
),
r AS (
    SELECT *, row_number() OVER (PARTITION BY hour_bucket
                                 ORDER BY cents DESC, user_id) AS rn
    FROM hu
)
SELECT hour_bucket, user_id, cents FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Q11 — sessionization via groupby().map_groups (ordered per-key scan)
# ---------------------------------------------------------------------------

def q_user_sessions(sf_dir: str, gap_s: int = 1800, n_buckets: int = 32):
    """Per-user session count with a 30-minute inactivity gap.

    The shuffle key is the COARSE ``user_id % B`` bucket, not the user:
    per-user ``map_groups`` serializes on per-group overhead once users
    number in the millions (the same fine-key pitfall fixed in the
    dedup stage). Inside each partition the scan is fully vectorized:
    one sort by (user, ts, event_id), one diff, one boolean reduction
    per user via pandas' C groupby. Ordering assumption: ties on ts
    break by event_id — stated here and in the oracle."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["user_id", "event_id", "ts"])
    gap_us = gap_s * 1_000_000

    def fn(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        us = g["ts"].astype("int64").to_numpy()
        n = len(g)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(n, dtype=np.int64)
        gap[0] = 0
        gap[1:] = us[1:] - us[:-1]
        starts = new_user | (gap > gap_us)
        agg = (
            pd.DataFrame({"user_id": uid, "s": starts})
            .groupby("user_id", sort=False)
            .agg(n_events=("s", "size"), n_sessions=("s", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(agg["user_id"].to_numpy(dtype=np.int64), pa.int64()),
                "n_events": pa.array(agg["n_events"].to_numpy(dtype=np.int64), pa.int64()),
                "n_sessions": pa.array(agg["n_sessions"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return exchange([(ds, "user_id")], fn, n_buckets=n_buckets)


def q_user_interarrival(sf_dir: str, n_buckets: int = 32):
    """Per-user inter-arrival-time statistics (gap count, exact lower
    median, max) — the burstiness profile behind rate limiting, bot
    scoring and session-gap calibration (``q_user_sessions``'s 30-min
    threshold is exactly the kind of number this distribution
    justifies).

    Same scale shape as the session op: coarse ``user_id % B`` bucket
    exchange (never one group per user), then a fully vectorized
    per-partition scan — one sort by (user, ts, event_id), one diff
    masked at user boundaries, one value-sorted pass whose per-user
    offsets read the lower median (index ``(n−1)//2``) without any
    Python per-user loop. Users with a single event have no gaps and
    are absent on both sides (the oracle's LAG is NULL there).
    Ordering assumption: ts ties break by event_id — stated here and
    in the oracle."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["user_id", "event_id", "ts"])

    def fn(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        us = g["ts"].astype("int64").to_numpy()
        same = np.zeros(len(g), dtype=bool)
        same[1:] = uid[1:] == uid[:-1]
        gaps = pd.DataFrame(
            {
                "user_id": uid[same],
                "gap_us": us[np.flatnonzero(same)] - us[np.flatnonzero(same) - 1],
            }
        )
        if not len(gaps):
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_gaps": pa.array([], pa.int64()),
                    "median_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                }
            )
        s = gaps.sort_values(["user_id", "gap_us"], kind="mergesort")
        su = s["user_id"].to_numpy()
        sg = s["gap_us"].to_numpy(dtype=np.int64)
        first = np.r_[True, su[1:] != su[:-1]]
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, len(su)))
        med = sg[starts + (cnt - 1) // 2]
        mx = sg[starts + cnt - 1]
        return pa.table(
            {
                "user_id": pa.array(su[starts].astype(np.int64), pa.int64()),
                "n_gaps": pa.array(cnt.astype(np.int64), pa.int64()),
                "median_gap_us": pa.array(med, pa.int64()),
                "max_gap_us": pa.array(mx, pa.int64()),
            }
        )

    return exchange([(ds, "user_id")], fn, n_buckets=n_buckets)


_SQL_INTERARRIVAL = """
WITH g AS (
    SELECT user_id,
           epoch_us(ts) - LAG(epoch_us(ts))
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
    FROM events),
h AS (SELECT user_id, CAST(gap_us AS BIGINT) AS gap_us
      FROM g WHERE gap_us IS NOT NULL),
r AS (SELECT user_id, gap_us,
             row_number() OVER (PARTITION BY user_id ORDER BY gap_us) AS rn,
             COUNT(*) OVER (PARTITION BY user_id) AS cnt
      FROM h)
SELECT user_id,
       CAST(MAX(cnt) AS BIGINT) AS n_gaps,
       CAST(SUM(CASE WHEN rn = (cnt - 1)//2 + 1 THEN gap_us ELSE 0 END)
            AS BIGINT) AS median_gap_us,
       CAST(MAX(gap_us) AS BIGINT) AS max_gap_us
FROM r GROUP BY user_id
"""


_SQL_SESSIONS = """
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(1 + SUM(CASE WHEN prev_us IS NOT NULL AND epoch_us(ts) - prev_us > 1800000000
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM (
    SELECT user_id, ts,
           LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_us
    FROM events
)
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Q12 — top-N customers by order count (groupby → sort → limit)
# ---------------------------------------------------------------------------

def q_top_customers(sf_dir: str, n: int = 10):
    ds = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": batch["o_custkey"], "total_cents": _cents(batch["o_totalprice"])}
        )

    from ray.data.aggregate import Count, Sum

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_orders"), Sum("total_cents", alias_name="total_cents"))
    )
    return agg.sort(["n_orders", "total_cents", "o_custkey"], descending=[True, True, False]).limit(n)


_SQL_TOP_CUSTOMERS = """
SELECT o_custkey,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders
GROUP BY o_custkey
ORDER BY n_orders DESC, total_cents DESC, o_custkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# Q13 — keyed join : lineitem ⋈ part
# ---------------------------------------------------------------------------

def q_brand_revenue(sf_dir: str):
    """lineitem ⋈ part via :func:`~..core.join.keyed_join`, then
    revenue per brand.

    Aggregation is pushed below the join: each batch pre-sums revenue
    per partkey (vectorized np.bincount-style groupby), so the join's
    probe side carries ≤ distinct-partkeys rows per block instead of
    one row per lineitem — the standard partial-agg-under-join
    rewrite, exact because revenue is associative per key."""
    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc_c = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        rev = price_c * (100 - disc_c)
        keys = batch["l_partkey"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, rev)
        return pa.table(
            {
                "l_partkey": pa.array(uniq, pa.int64()),
                "revenue_cents2": pa.array(sums),
            }
        )

    joined = keyed_join(
        li.map_batches(prep, batch_format="pyarrow"),
        sf_dir,
        "part",
        fact_key="l_partkey",
        dim_key="p_partkey",
        cols=["p_brand"],
    )
    from ray.data.aggregate import Sum

    return joined.groupby("p_brand").aggregate(Sum("revenue_cents2", alias_name="revenue_cents2"))


_SQL_BRAND_REVENUE = """
SELECT p_brand,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_cents2
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""


# ---------------------------------------------------------------------------
# Q14 — as-of join (latest order date at or before each event)
# ---------------------------------------------------------------------------

_US_PER_DAY = 86_400_000_000
_DAY_BITS = 24  # order dates are midnight-aligned days; 2^24 days ≈ year 47k


def q_last_order_before_event(sf_dir: str):
    """For each event, the most recent order date of the same customer
    at or before the event time. Orders (small side) broadcast as ONE
    sorted composite-key array (``custkey << 24 | order_day`` — dates
    are midnight-aligned, so day granularity is exact); each probe
    batch is a single vectorized ``searchsorted`` — no per-row Python.
    With two large sides use
    :func:`q_last_order_before_event_bucketed`."""
    import pyarrow.parquet as pq

    orders = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"])
    ck = orders["o_custkey"].to_numpy(zero_copy_only=False)
    od = orders["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    assert int(ck.max()) < (1 << (63 - _DAY_BITS)), "custkey overflows composite key"
    comp = (ck << _DAY_BITS) | (od // _US_PER_DAY)
    order_idx = np.argsort(comp)
    comp_sorted = comp[order_idx]
    ck_sorted = ck[order_idx]
    od_sorted = od[order_idx]

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def fn(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        probe = (uid << _DAY_BITS) | (ts // _US_PER_DAY)
        j = np.searchsorted(comp_sorted, probe, side="right")
        pred = np.maximum(j - 1, 0)
        has = (j > 0) & (ck_sorted[pred] == uid)
        out = od_sorted[pred]
        import pandas as pd

        date_arr = pa.array(
            pd.Series(out.view("datetime64[us]")).where(pd.Series(has), pd.NaT),
            type=pa.timestamp("us"),
        )
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "last_order_date": date_arr,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def q_last_order_before_event_bucketed(sf_dir: str, n_buckets: int = 16):
    """The two-large-sides as-of join: both sides hash into
    ``key % B`` buckets, one coarse groupby co-locates each key's
    orders and events, and ``pandas.merge_asof`` (sorted, ``by=`` key)
    runs vectorized inside every partition. Same oracle as the
    broadcast variant; choose this shape when the build side no longer
    fits a worker (the crossover is build-side bytes ≈ worker heap /
    concurrency)."""
    import pandas as pd

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    events = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def asof_bucket(ords: pa.Table, evs: pa.Table) -> pa.Table:
        ev = pd.DataFrame(
            {
                "key": _ints(evs["user_id"]),
                "t_us": _ints(evs["ts"]),
                "event_id": _ints(evs["event_id"]),
            }
        ).sort_values("t_us", kind="stable")
        od = pd.DataFrame(
            {"key": _ints(ords["o_custkey"]), "od_us": _ints(ords["o_orderdate"])}
        ).sort_values("od_us", kind="stable")
        j = pd.merge_asof(
            ev, od, left_on="t_us", right_on="od_us", by="key", direction="backward"
        )
        has = j["od_us"].notna().to_numpy()
        vals = j["od_us"].fillna(0).to_numpy().astype(np.int64)
        date_ts = pa.array(
            pd.Series(vals.view("datetime64[us]")).where(pd.Series(has), pd.NaT),
            type=pa.timestamp("us"),
        )
        return pa.table(
            {
                "event_id": pa.array(j["event_id"].to_numpy(dtype=np.int64), pa.int64()),
                "user_id": pa.array(j["key"].to_numpy(dtype=np.int64), pa.int64()),
                "last_order_date": date_ts,
            }
        )

    return exchange(
        [(orders, "o_custkey"), (events, "user_id")], asof_bucket, n_buckets=n_buckets
    )


def _ints(col: pa.ChunkedArray) -> np.ndarray:
    """An integer or timestamp column as int64 numpy (timestamps as
    their epoch count)."""
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


_SQL_ASOF = """
SELECT e.event_id, e.user_id,
       (SELECT MAX(o.o_orderdate) FROM orders o
        WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts) AS last_order_date
FROM events e
"""


# ---------------------------------------------------------------------------
# Q14c — range (band) join: orders within a trailing window of each event
# ---------------------------------------------------------------------------


def q_orders_near_event(sf_dir: str, window_days: int = 30, n_buckets: int = 16):
    """Range join — the band-predicate sibling of the as-of join: for
    each event, the COUNT and cents-SUM of the same customer's orders
    with ``o_orderdate ∈ [ts − window, ts]``. Both sides hash into
    ``key % B`` buckets (two-large-sides shape — nothing broadcast);
    inside each partition the orders sort ONCE by the composite key
    ``custkey << 24 | order_day`` (midnight-aligned days, exact) and
    every event resolves with two vectorized ``searchsorted`` probes:
    ``count = hi − lo`` and ``sum = prefix[hi] − prefix[lo]`` over a
    cents prefix-sum array — O((N+M)·log N) per partition, no per-row
    Python, no interval fan-out. Money stays integer cents so the
    oracle hash-matches. One output row per event (never empty).

    Window-bound day arithmetic is exact in integers: a midnight-
    aligned order date is ≥ ``ts − w`` iff its day ≥
    ``⌈(ts − w) / day⌉`` and ≤ ``ts`` iff its day ≤ ``⌊ts / day⌋``."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])
    events = read_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    w_us = np.int64(window_days) * _US_PER_DAY

    def range_bucket(od: pa.Table, ev: pa.Table) -> pa.Table:
        ok = _ints(od["o_custkey"])
        od_us = _ints(od["o_orderdate"])
        cents = np.rint(od["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        if len(ok) and int(ok.max()) >= (1 << (63 - _DAY_BITS)):
            raise ValueError("custkey overflows composite key")
        comp = (ok << _DAY_BITS) | (od_us // _US_PER_DAY)
        order_idx = np.argsort(comp, kind="stable")
        comp_sorted = comp[order_idx]
        prefix = np.concatenate([[0], np.cumsum(cents[order_idx])]).astype(np.int64)

        uid = _ints(ev["user_id"])
        ts = _ints(ev["ts"])
        lo_day = -((-(ts - w_us)) // _US_PER_DAY)  # ⌈(ts−w)/day⌉
        lo = np.searchsorted(comp_sorted, (uid << _DAY_BITS) | lo_day, side="left")
        hi = np.searchsorted(
            comp_sorted, (uid << _DAY_BITS) | (ts // _US_PER_DAY), side="right"
        )
        return pa.table(
            {
                "event_id": pa.array(_ints(ev["event_id"]), pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "n_orders_30d": pa.array(hi - lo, pa.int64()),
                "total_cents_30d": pa.array(prefix[hi] - prefix[lo], pa.int64()),
            }
        )

    return exchange(
        [(orders, "o_custkey"), (events, "user_id")], range_bucket, n_buckets=n_buckets
    )


_SQL_RANGE_JOIN = """
SELECT e.event_id, e.user_id,
       CAST((SELECT COUNT(*) FROM orders o
             WHERE o.o_custkey = e.user_id
               AND o.o_orderdate >= e.ts - INTERVAL 30 DAY
               AND o.o_orderdate <= e.ts) AS BIGINT) AS n_orders_30d,
       CAST((SELECT COALESCE(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)), 0)
             FROM orders o
             WHERE o.o_custkey = e.user_id
               AND o.o_orderdate >= e.ts - INTERVAL 30 DAY
               AND o.o_orderdate <= e.ts) AS BIGINT) AS total_cents_30d
FROM events e
"""


# ---------------------------------------------------------------------------
# Q14b — sliding window aggregate (2-hour windows, 1-hour slide)
# ---------------------------------------------------------------------------

def q_sliding_window(sf_dir: str):
    """Sliding event-time windows: every event lands in the two 2-hour
    windows covering it (window_start ∈ {h-1, h} epoch-hours). The
    window assignment is a vectorized fan-out (concat of two shifted
    copies) inside map_batches — the batch-engine form of a sliding
    window, complementing the tumbling shape of ``q_hourly_events``."""
    ds = read_table(sf_dir, "events", ["event_type", "ts"])

    def fan_out(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        hour = pc.divide(us, 3_600_000_000)
        et = batch["event_type"]
        starts = pa.concat_arrays(
            [pc.subtract(hour, 1).combine_chunks(), hour.combine_chunks()]
        )
        ets = pa.concat_arrays([et.combine_chunks(), et.combine_chunks()])
        return pa.table({"event_type": ets, "window_start": starts})

    from ray.data.aggregate import Count

    return (
        ds.map_batches(fan_out, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"))
    )


_SQL_SLIDING = """
SELECT event_type, window_start, CAST(COUNT(*) AS BIGINT) AS n
FROM (
    SELECT event_type,
           CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) - 1 AS window_start
    FROM events
    UNION ALL
    SELECT event_type,
           CAST(FLOOR(epoch_us(ts) / 3600000000) AS BIGINT) AS window_start
    FROM events
)
GROUP BY event_type, window_start
"""


# ---------------------------------------------------------------------------
# Q15 — semi-structured (JSON) field extraction + aggregate
# ---------------------------------------------------------------------------

def q_json_props(sf_dir: str):
    """Parse the ``events.props`` JSON column and aggregate the ``k``
    field per event type. Extraction is a vectorized RE2 kernel
    (``pc.extract_regex``) — no per-row ``json.loads`` in the hot
    path; the oracle uses DuckDB's JSON functions, so the comparison
    also pins the parse itself."""
    ds = read_table(sf_dir, "events", ["event_type", "props"])

    def fn(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["props"], r'"k": (?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    from ray.data.aggregate import Count, Max, Sum

    return (
        ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("k", alias_name="sum_k"),
            Max("k", alias_name="max_k"),
        )
    )


_SQL_JSON_PROPS = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Q16 — windowed rank (top-N per group)
# ---------------------------------------------------------------------------

def q_top_orders_per_customer(sf_dir: str, n: int = 3, n_buckets: int = 32):
    """Top-3 orders per customer by (totalprice desc, orderkey asc)
    with their rank — the ROW_NUMBER-per-partition window operator.
    Shuffle key is the coarse ``custkey % B`` bucket; inside each
    partition one sort + ``groupby.cumcount`` ranks every customer
    vectorized (per-customer ``map_groups`` would serialize on group
    overhead)."""

    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "o_orderkey": batch["o_orderkey"],
                "total_cents": _cents(batch["o_totalprice"]),
            }
        )

    def rank_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(
            ["o_custkey", "total_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="stable",
        )
        rn = g.groupby("o_custkey", sort=False).cumcount() + 1
        keep = rn <= n
        kept = g[keep]
        return pa.table(
            {
                "o_custkey": pa.array(kept["o_custkey"].to_numpy(dtype=np.int64)),
                "o_orderkey": pa.array(kept["o_orderkey"].to_numpy(dtype=np.int64)),
                "total_cents": pa.array(kept["total_cents"].to_numpy(dtype=np.int64)),
                "rn": pa.array(rn[keep].to_numpy(dtype=np.int64)),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "o_custkey")], rank_bucket, n_buckets=n_buckets)


_SQL_TOP_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, total_cents, rn
FROM (
    SELECT o_custkey, o_orderkey,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS total_cents,
           CAST(ROW_NUMBER() OVER (
               PARTITION BY o_custkey
               ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC, o_orderkey
           ) AS BIGINT) AS rn
    FROM orders
)
WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# Q17 — exact distributed percentiles (value-count summary)
# ---------------------------------------------------------------------------

def q_price_percentiles(sf_dir: str):
    """Exact p50/p90/p99 of order totals (integer cents) via the
    value-count summary: per-batch counts → one ``groupby(value)``
    Sum → the (distinct value, count) table — bounded by the value
    domain, tiny next to the data — sorts on the driver and the
    percentile indices read off the cumulative counts. Exact (no
    t-digest approximation) because the domain is discrete; for
    unbounded domains the same pipeline feeds a sketch instead.
    PERCENTILE_DISC semantics: smallest value with cum_count ≥
    ⌈q·N⌉."""
    import pandas as pd

    ds = read_table(sf_dir, "orders", ["o_totalprice"])

    def counts(batch: pa.Table) -> pa.Table:
        c = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        vals, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {"cents": pa.array(vals), "cnt": pa.array(cnt.astype(np.int64))}
        )

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
        .groupby("cents")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
        .sort_values("cents")
    )
    total = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    vals = hist["cents"].to_numpy()

    def pick(q: float) -> int:
        k = int(np.ceil(q * total))
        return int(vals[np.searchsorted(cum, k)])

    return pd.DataFrame(
        {
            "p50_cents": pd.Series([pick(0.5)], dtype="int64"),
            "p90_cents": pd.Series([pick(0.9)], dtype="int64"),
            "p99_cents": pd.Series([pick(0.99)], dtype="int64"),
        }
    )


_QSK_MBITS = 6  # mantissa bits → relative error ≤ 2⁻⁶ ≈ 1.6%


def q_price_percentiles_sketch(sf_dir: str):
    """Approximate p50/p90/p99 via a mergeable integer LOG-HISTOGRAM
    sketch — the bounded-memory twin :func:`q_price_percentiles`'s
    docstring promises for unbounded domains, and the quantile member
    of the engine's sketch family (HLL distincts, Count-Min heavy
    hitters, MinHash/SimHash similarity). Every value maps to the bin
    ``(bit_length(v), top 1+m mantissa bits)`` — PURE INTEGER ops
    (numpy ``frexp`` exponents are exact for v < 2⁵³), so unlike a
    float ``log2`` binning the same bin falls out of DuckDB integer
    arithmetic bit-for-bit, which is what lets an APPROXIMATE sketch
    carry an exact-equality oracle: the SQL mirrors the binning, not
    the answer. Sketch size is O(64·2^m) cells regardless of data
    (vs the exact twin's O(distinct values)); the answer is the lower
    bound of the bin holding the ⌈q·N⌉-th value, so relative error is
    ≤ 2⁻ᵐ ≈ 1.6% at m = 6 (pinned against the exact percentiles in
    ``TestQuantileSketch``). Merge = per-batch bin counts → one
    ``groupby(bin).Sum`` — associative, any block order."""
    import pandas as pd

    ds = read_table(sf_dir, "orders", ["o_totalprice"])
    m1 = _QSK_MBITS + 1

    def bin_counts(batch: pa.Table) -> pa.Table:
        c = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        if (c <= 0).any():
            raise ValueError("log-histogram sketch requires positive values")
        bl = np.frexp(c.astype(np.float64))[1].astype(np.int64)  # bit_length, exact
        shift = np.maximum(bl - m1, 0)
        sub = c >> shift
        t = pa.table({"bl": bl, "sub": sub, "cnt": np.ones(len(c), np.int64)})
        return combine(t, ["bl", "sub"], "sum")

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(bin_counts, batch_format="pyarrow", batch_size=None)
        .groupby(["bl", "sub"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # O(64·2^m) rows — the sketch, not the data
        .sort_values(["bl", "sub"])
    )
    total = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    lb = (
        hist["sub"].to_numpy(dtype=np.int64)
        << np.maximum(hist["bl"].to_numpy(dtype=np.int64) - m1, 0)
    )

    def pick(q: float) -> int:
        k = int(np.ceil(q * total))
        return int(lb[np.searchsorted(cum, k)])

    return pd.DataFrame(
        {
            "p50_lb_cents": pd.Series([pick(0.5)], dtype="int64"),
            "p90_lb_cents": pd.Series([pick(0.9)], dtype="int64"),
            "p99_lb_cents": pd.Series([pick(0.99)], dtype="int64"),
        }
    )


_SQL_PERCENTILES_SKETCH = f"""
WITH v AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) AS c FROM orders
),
b AS (
    SELECT c, length(printf('%b', c)) AS bl FROM v
),
bins AS (
    SELECT bl,
           c >> greatest(bl - {_QSK_MBITS + 1}, 0) AS sub,
           count(*) AS cnt
    FROM b GROUP BY 1, 2
),
ordered AS (
    SELECT bl, sub,
           sub << greatest(bl - {_QSK_MBITS + 1}, 0) AS lb,
           SUM(cnt) OVER (ORDER BY bl, sub) AS cum,
           (SELECT SUM(cnt) FROM bins) AS total
    FROM bins
)
SELECT
  CAST(MIN(CASE WHEN cum >= ceil(0.5  * total) THEN lb END) AS BIGINT) AS p50_lb_cents,
  CAST(MIN(CASE WHEN cum >= ceil(0.9  * total) THEN lb END) AS BIGINT) AS p90_lb_cents,
  CAST(MIN(CASE WHEN cum >= ceil(0.99 * total) THEN lb END) AS BIGINT) AS p99_lb_cents
FROM ordered
"""


def q_priority_percentiles_sketch(sf_dir: str, n_buckets: int = 8):
    """GROUPED approximate percentiles — the log-histogram sketch per
    order priority, with the percentile read-off running entirely ON
    WORKERS (``groupby(priority)`` over the aggregated bin grain):
    unlike the global sketch (driver folds one bin table) and the
    exact grouped percentiles (value-count histogram), nothing here
    touches the driver at any group count — the shape that holds when
    "per priority" becomes "per domain" with millions of groups.
    Exchange: (group, bl, sub) count partials per batch, one
    ``groupby([group, bl, sub]).Sum``, then the per-group cumsum +
    read-off over O(bins) rows each. Same pure-integer binning as
    :func:`q_price_percentiles_sketch`, so the approximate answer is
    exactly SQL-mirrorable."""
    import pandas as pd

    m1 = _QSK_MBITS + 1
    ds = read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def bin_counts(batch: pa.Table) -> pa.Table:
        c = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        if (c <= 0).any():
            raise ValueError("log-histogram sketch requires positive values")
        bl = np.frexp(c.astype(np.float64))[1].astype(np.int64)
        sub = c >> np.maximum(bl - m1, 0)
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "bl": bl,
                "sub": sub,
                "cnt": np.ones(len(c), np.int64),
            }
        )
        return combine(t, ["o_orderpriority", "bl", "sub"], "sum")

    from ray.data.aggregate import Sum

    bins = (
        ds.map_batches(bin_counts, batch_format="pyarrow", batch_size=None)
        .groupby(["o_orderpriority", "bl", "sub"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def read_off(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["bl", "sub"], kind="mergesort")
        cum = g["cnt"].cumsum().to_numpy()
        total = int(cum[-1])
        lb = (
            g["sub"].to_numpy(dtype=np.int64)
            << np.maximum(g["bl"].to_numpy(dtype=np.int64) - m1, 0)
        )

        def pick(q: float) -> int:
            return int(lb[np.searchsorted(cum, int(np.ceil(q * total)))])

        return pa.table(
            {
                "o_orderpriority": pa.array([g["o_orderpriority"].iloc[0]], pa.string()),
                "p50_lb_cents": pa.array([pick(0.5)], pa.int64()),
                "p90_lb_cents": pa.array([pick(0.9)], pa.int64()),
                "p99_lb_cents": pa.array([pick(0.99)], pa.int64()),
            }
        )

    # few groups here → direct per-group map_groups; at huge group
    # counts wrap in the coarse `group % B` bucket like the exact twin
    return bins.groupby("o_orderpriority").map_groups(read_off, batch_format="pandas")


_SQL_PRIORITY_PCT_SKETCH = f"""
WITH v AS (
    SELECT o_orderpriority, CAST(ROUND(o_totalprice*100) AS BIGINT) AS c FROM orders
),
b AS (SELECT o_orderpriority, c, length(printf('%b', c)) AS bl FROM v),
bins AS (
    SELECT o_orderpriority, bl,
           c >> greatest(bl - {_QSK_MBITS + 1}, 0) AS sub,
           count(*) AS cnt
    FROM b GROUP BY 1, 2, 3
),
ordered AS (
    SELECT o_orderpriority, bl, sub,
           sub << greatest(bl - {_QSK_MBITS + 1}, 0) AS lb,
           SUM(cnt) OVER (PARTITION BY o_orderpriority ORDER BY bl, sub) AS cum,
           SUM(cnt) OVER (PARTITION BY o_orderpriority) AS total
    FROM bins
)
SELECT o_orderpriority,
  CAST(MIN(CASE WHEN cum >= ceil(0.5  * total) THEN lb END) AS BIGINT) AS p50_lb_cents,
  CAST(MIN(CASE WHEN cum >= ceil(0.9  * total) THEN lb END) AS BIGINT) AS p90_lb_cents,
  CAST(MIN(CASE WHEN cum >= ceil(0.99 * total) THEN lb END) AS BIGINT) AS p99_lb_cents
FROM ordered GROUP BY 1
"""


_SQL_PERCENTILES = """
SELECT
  CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS p50_cents,
  CAST(PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS p90_cents,
  CAST(PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS p99_cents
FROM orders
"""


# ---------------------------------------------------------------------------
# Q18 — rollup aggregate (region → nation → grand total)
# ---------------------------------------------------------------------------

def q_revenue_rollup(sf_dir: str, n_buckets: int = 16):
    """Order revenue rolled up over (region, nation, ALL): the
    ROLLUP operator as a Dataset composition. nation/region broadcast
    (tiny dims); orders pre-aggregate per custkey per batch; the
    custkey→geo resolution is the explicit bucket join; then ONE fine
    groupby produces the (region, nation) leaf aggregate, and the
    rollup levels come from fanning each leaf row out to its three
    grouping sets and re-aggregating — the second shuffle moves
    3 × |leaf| rows (hundreds), not data. 'ALL' is the subtotal
    sentinel on both the Ray and SQL sides."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    rmap = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    nkey_to_geo = {
        int(nk): (rmap[int(rk)], nm)
        for nk, nm, rk in zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_name"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
        )
    }

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def prep_orders(b: pa.Table) -> pa.Table:
        t = pa.table({"key": b["o_custkey"].cast(pa.int64()), "cents": _cents(b["o_totalprice"])})
        return combine(t, "key", "sum")

    def join_bucket(probe: pa.Table, build: pa.Table) -> pa.Table:
        j = probe.to_pandas().merge(build.to_pandas(), left_on="key", right_on="c_custkey")
        agg = j.groupby("c_nationkey", as_index=False)["cents"].sum()
        geo = [nkey_to_geo[int(k)] for k in agg["c_nationkey"]]
        return pa.table(
            {
                "r_name": pa.array([g0 for g0, _ in geo], pa.string()),
                "n_name": pa.array([g1 for _, g1 in geo], pa.string()),
                "revenue_cents": pa.array(agg["cents"].to_numpy(dtype=np.int64)),
            }
        )

    leaf = exchange(
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

    def fan_out(batch: pa.Table) -> pa.Table:
        r = batch["r_name"].to_pylist()
        nm = batch["n_name"].to_pylist()
        c = batch["revenue_cents"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "r_name": pa.array(r + r + ["ALL"] * len(r), pa.string()),
                "n_name": pa.array(nm + ["ALL"] * (2 * len(r)), pa.string()),
                "revenue_cents": pa.array(np.concatenate([c, c, c])),
            }
        )

    from ray.data.aggregate import Sum

    return (
        leaf.map_batches(fan_out, batch_format="pyarrow", batch_size=None)
        .groupby(["r_name", "n_name"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


_SQL_ROLLUP = """
SELECT COALESCE(r_name, 'ALL') AS r_name,
       COALESCE(n_name, 'ALL') AS n_name,
       CAST(SUM(cents) AS BIGINT) AS revenue_cents
FROM (
    SELECT r.r_name, n.n_name,
           CAST(ROUND(o.o_totalprice*100) AS BIGINT) AS cents
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
)
GROUP BY ROLLUP (r_name, n_name)
"""


# ---------------------------------------------------------------------------
# Q19 — distinct count: exact (partial-distinct shuffle) + HLL sketch
# ---------------------------------------------------------------------------

def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) over events: per-batch local
    distinct (the partial-combine discipline — the exchange carries
    unique keys per batch, not rows), one groupby to global-distinct,
    then a count. Returns a 1-row table."""
    ds = read_table(sf_dir, "events", ["user_id"])

    def local_distinct(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    from ray.data.aggregate import Count

    uniq = (
        ds.map_batches(local_distinct, batch_format="pyarrow", batch_size=None)
        .groupby("user_id")
        .aggregate(Count(alias_name="_n"))
    )
    n = uniq.count()
    import pandas as pd

    return pd.DataFrame({"n_users": pd.Series([n], dtype="int64")})


_SQL_DISTINCT_USERS = """
SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users FROM events
"""

_HLL_P = 12  # 4096 registers → ~1.6% standard error


def _hll_reg_rho(keys: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register, ρ) per key — splitmix64 finalizer + 6-step binary
    clz, all vectorized uint64 ops. Shared by the global and grouped
    HLL variants."""
    h = _splitmix64(keys.astype(np.uint64))
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    v = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    clz = np.zeros(len(v), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        mask = v < (np.uint64(1) << np.uint64(64 - s))
        clz[mask] += s
        v[mask] = v[mask] << np.uint64(s)
    rho = np.minimum(clz + 1, 64 - p + 1)
    return reg, rho


def _hll_estimate(registers: np.ndarray) -> int:
    """INTEGER-EXACT HLL fold with small-range correction.

    The classic fold is float (``α·m²/Σ2^-reg``); this engine snaps it
    to pure integer arithmetic so the sketch estimate — not just the
    registers — is bit-reproducible by the DuckDB twin:

    * ``Σ 2^-reg = S / 2^64`` with ``S = Σ 2^(64-reg)`` an exact
      integer (Python/HUGEINT; ≤ m·2^64 ≈ 2^76 at p=12),
    * ``α = 0.7213/(1 + 1.079/m)`` as the exact rational
      ``7213·m / (10·(1000·m + 1079))``,
    * raw estimate ``E = (7213·m³·2^64) // (10·(1000·m + 1079)·S)``
      — one floor division (< 2^113 at p=12, inside HUGEINT),
    * small range (``2E ≤ 5m`` with empty registers): linear counting
      ``E = m·(lnm(m) − lnm(zeros)) // 10⁶`` over the shared-ln
      integer-micro device (``stages/textstats.lnm_micro``).
    """
    m = len(registers)
    S = sum(1 << (64 - int(r)) for r in registers.tolist())
    E = (7213 * m**3 << 64) // (10 * (1000 * m + 1079) * S)
    zeros = int((registers == 0).sum())
    if 2 * E <= 5 * m and zeros:
        from ..stages.textstats import lnm_micro

        E = m * (lnm_micro(m) - lnm_micro(zeros)) // 1_000_000
    return int(E)


_HLL_TWO64, _HLL_TWO32 = 1 << 64, 1 << 32
_HLL_C, _HLL_K1, _HLL_K2 = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
)


def _sql_xor64(a: str, b: str) -> str:
    """64-bit xor over HUGEINT via 32-bit limbs (shared by the HLL
    oracle renderers; pure string generator — rendered text is
    byte-identical to the original inline helper)."""
    TWO32 = _HLL_TWO32
    return (
        f"(CAST(xor(CAST(({a}) // {TWO32} AS BIGINT),"
        f" CAST(({b}) // {TWO32} AS BIGINT)) AS HUGEINT) * {TWO32}"
        f" + CAST(xor(CAST(({a}) % {TWO32} AS BIGINT),"
        f" CAST(({b}) % {TWO32} AS BIGINT)) AS HUGEINT))"
    )


def _sql_mul64(a: str, k: int) -> str:
    """Wrap-exact 64-bit multiply-by-constant via 32-bit limbs."""
    TWO32, TWO64 = _HLL_TWO32, _HLL_TWO64
    kl, kh = k % TWO32, k // TWO32
    return (
        f"((( ({a}) % {TWO32}) * {kl}"
        f" + ((( ({a}) % {TWO32}) * {kh} + (({a}) // {TWO32}) * {kl})"
        f" % {TWO32}) * {TWO32}) % {TWO64})"
    )


def _hll_oracle_sql(group: bool) -> str:
    """Exact SQL replay of the HLL sketch (round 5 — upgraded from
    rows-only): splitmix64 re-derived with wrap-exact 32-bit-limb
    multiplies and limb-wise xors (DuckDB has no wrapping uint64 mul;
    ``**`` would round through DOUBLE), ρ from the low 52 bits' bit
    length, the register merge as MAX, and the INTEGER estimate fold
    of :func:`_hll_estimate` — ``Σ2^-reg`` as an exact HUGEINT, α as
    a rational, linear counting over the shared-ln device. The sketch
    registers AND the estimate are bit-identical to the engine."""
    from ..stages.textstats import _shared_ln_cte, lnm_micro

    TWO64, TWO32 = _HLL_TWO64, _HLL_TWO32
    C, K1, K2 = _HLL_C, _HLL_K1, _HLL_K2
    xor64, mul64 = _sql_xor64, _sql_mul64

    m = 1 << _HLL_P
    w_mod = 1 << (64 - _HLL_P)  # low-bit field below the register index
    rho_max = 64 - _HLL_P + 1
    num = 7213 * m**3 * (1 << 64)
    den_c = 10 * (1000 * m + 1079)
    g = "g, " if group else ""
    gby = "GROUP BY g" if group else ""
    src = (
        "SELECT DISTINCT event_type AS g, CAST(user_id AS HUGEINT) AS v FROM events"
        if group
        else "SELECT DISTINCT CAST(user_id AS HUGEINT) AS v FROM events"
    )
    head = "g AS event_type, " if group else ""
    order_cols = "register" if not group else "g, register"
    return f"""
WITH x AS ({src}),
s0 AS (SELECT {g}(v + {C}) % {TWO64} AS h FROM x),
s1 AS (SELECT {g}{xor64('h', 'h // 1073741824')} AS h FROM s0),
s2 AS (SELECT {g}{mul64('h', K1)} AS h FROM s1),
s3 AS (SELECT {g}{xor64('h', 'h // 134217728')} AS h FROM s2),
s4 AS (SELECT {g}{mul64('h', K2)} AS h FROM s3),
s5 AS (SELECT {g}{xor64('h', 'h // 2147483648')} AS h FROM s4),
rr AS (SELECT {g}h // {w_mod} AS register,
              CASE WHEN h % {w_mod} = 0 THEN {rho_max}
                   ELSE {rho_max} - length(printf('%b', CAST(h % {w_mod} AS BIGINT)))
              END AS rho
       FROM s5),
mx AS (SELECT {g}register, MAX(rho) AS rho FROM rr GROUP BY {order_cols}),
agg AS (SELECT {g}COUNT(*) AS nhit,
               SUM(CAST(1 AS HUGEINT) << CAST(64 - rho AS INT)) AS s_hit
        FROM mx {gby}),
ze AS (SELECT {g}GREATEST({m} - nhit, 1) AS v, {m} - nhit AS zeros,
              s_hit + CAST({m} - nhit AS HUGEINT) * (CAST(1 AS HUGEINT) << 64) AS S
       FROM agg),
zl AS (SELECT {g}zeros, S,
              CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                   + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm_z
       FROM {_shared_ln_cte('ze', 'v')}),
raw AS (SELECT {g}zeros, lnm_z, CAST({num} AS HUGEINT) // ({den_c} * S) AS e FROM zl)
SELECT {head}CAST(CASE WHEN 2 * e <= {5 * m} AND zeros > 0
            THEN {m} * ({lnm_micro(m)} - lnm_z) // 1000000
            ELSE e END AS BIGINT) AS n_users_approx
FROM raw
"""


def q_type_user_counts_hll(sf_dir: str, p: int = _HLL_P):
    """GROUPED HyperLogLog — approximate distinct users per event
    type, the sketch twin of :func:`q_type_user_counts` for when even
    the composite-key dedup shuffle is too much (distinct URLs per
    domain at 100 TB). One sketch per group with no extra machinery:
    batches emit (group, register, ρ) rows for their locally-distinct
    (group, user) pairs and ``groupby([group, register]).Max`` IS the
    per-group merge; the driver folds groups × 2^p register rows
    (bounded by the group cardinality, not the data). Rows-only
    (approximate); the unit test pins every group's estimate within
    3σ of the exact grouped distinct."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def registers(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "t": batch["event_type"].to_pylist(),
                "u": batch["user_id"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        reg, rho = _hll_reg_rho(df["u"].to_numpy(dtype=np.int64), p)
        return pa.table(
            {
                "event_type": pa.array(df["t"].tolist(), pa.string()),
                "register": pa.array(reg, pa.int64()),
                "rho": pa.array(rho, pa.int64()),
            }
        )

    from ray.data.aggregate import Max

    regs = (
        ds.map_batches(registers, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "register"])
        .aggregate(Max("rho", alias_name="rho"))
        .to_pandas()  # groups × ≤2^p rows — the sketches, not the data
    )
    m = 1 << p
    out_t, out_n = [], []
    for t, sub in regs.groupby("event_type", sort=True):
        M = np.zeros(m, dtype=np.int64)
        M[sub["register"].to_numpy()] = sub["rho"].to_numpy()
        out_t.append(t)
        out_n.append(_hll_estimate(M))
    return pd.DataFrame(
        {
            "event_type": pd.Series(out_t, dtype="string"),
            "n_users_approx": pd.Series(out_n, dtype="int64"),
        }
    )


def q_distinct_users_hll(sf_dir: str, p: int = _HLL_P):
    """HyperLogLog distinct-user estimate — the sketch twin of
    :func:`q_distinct_users` for domains where the exact distinct
    shuffle is itself too large (e.g. distinct URLs at 100 TB).

    Fully distributed sketch merge with no custom aggregation code:
    each batch computes its local register maxima and emits them as
    (register, rho) rows; ``groupby(register).Max`` IS the HLL merge
    (registers combine by elementwise max), moving at most
    2^p × blocks fixed-width rows. The driver folds 4096 registers
    into the estimate. Hashing is a vectorized splitmix64 finalizer
    (pure uint64 numpy ops — deterministic across processes, no
    per-key Python); ρ comes from a 6-step binary-search
    count-leading-zeros over the whole array. Rows-only (approximate
    by construction); the unit test pins the estimate within 3σ of
    exact."""
    m = 1 << p
    ds = read_table(sf_dir, "events", ["user_id"])

    def registers(batch: pa.Table) -> pa.Table:
        users = np.unique(batch["user_id"].to_numpy(zero_copy_only=False))
        reg, rho = _hll_reg_rho(users, p)
        return pa.table({"register": pa.array(reg), "rho": pa.array(rho)})

    from ray.data.aggregate import Max

    regs = (
        ds.map_batches(registers, batch_format="pyarrow", batch_size=None)
        .groupby("register")
        .aggregate(Max("rho", alias_name="rho"))
        .to_pandas()
    )
    M = np.zeros(m, dtype=np.int64)
    M[regs["register"].to_numpy()] = regs["rho"].to_numpy()
    import pandas as pd

    return pd.DataFrame(
        {"n_users_approx": pd.Series([_hll_estimate(M)], dtype="int64")}
    )


def q_type_user_overlap_hll(sf_dir: str, p: int = _HLL_P):
    """SKETCH ALGEBRA — approximate audience overlap between every
    event-type pair by HLL inclusion–exclusion:
    ``|A∩B| ≈ est(A) + est(B) − est(A∪B)``, where the union sketch is
    the elementwise register MAX of the two type sketches (the merge
    HLL supports natively; intersection has no native merge, which is
    exactly why inclusion–exclusion over unions is THE production
    pattern for audience-overlap at 100 TB — no per-pair distinct
    shuffle ever runs).

    Distribution: identical register build to
    :func:`q_type_user_counts_hll` (ONE ``groupby([type, register])``
    Max exchange, batches pre-dedup locally); the driver folds
    types × 2^p register rows — sketches, never users — and all the
    pair algebra runs on those. Estimates use the INTEGER-EXACT fold
    (:func:`_hll_estimate`), so the oracle replays every estimate
    bit-for-bit; overlap clamps at 0 (inclusion–exclusion can go
    slightly negative on near-disjoint sets — part of the spec on
    both sides)."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def registers(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "t": batch["event_type"].to_pylist(),
                "u": batch["user_id"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        reg, rho = _hll_reg_rho(df["u"].to_numpy(dtype=np.int64), p)
        return pa.table(
            {
                "event_type": pa.array(df["t"].tolist(), pa.string()),
                "register": pa.array(reg, pa.int64()),
                "rho": pa.array(rho, pa.int64()),
            }
        )

    from ray.data.aggregate import Max

    regs = (
        ds.map_batches(registers, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "register"])
        .aggregate(Max("rho", alias_name="rho"))
        .to_pandas()  # types × ≤2^p rows — the sketches, not the data
    )
    m = 1 << p
    sketches: dict[str, np.ndarray] = {}
    for t, sub in regs.groupby("event_type", sort=True):
        M = np.zeros(m, dtype=np.int64)
        M[sub["register"].to_numpy()] = sub["rho"].to_numpy()
        sketches[t] = M
    types = sorted(sketches)
    est = {t: _hll_estimate(sketches[t]) for t in types}
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            eu = _hll_estimate(np.maximum(sketches[a], sketches[b]))
            rows.append(
                (a, b, est[a], est[b], eu, max(est[a] + est[b] - eu, 0))
            )
    return pd.DataFrame(
        rows,
        columns=[
            "type_a",
            "type_b",
            "n_a_approx",
            "n_b_approx",
            "n_union_approx",
            "n_overlap_approx",
        ],
    ).astype(
        {c: np.int64 for c in ("n_a_approx", "n_b_approx", "n_union_approx", "n_overlap_approx")}
    )


def _hll_fold_cte(src: str, gcols: str, tag: str) -> str:
    """Render the INTEGER estimate fold (:func:`_hll_estimate`) as SQL
    CTEs over ``src`` rows (gcols..., register, rho) — parameterized
    so the overlap oracle can apply the identical fold to single-type
    and union sketches; the single-sketch renderer
    (:func:`_hll_oracle_sql`) keeps its original inline text."""
    from ..stages.textstats import _shared_ln_cte, lnm_micro

    m = 1 << _HLL_P
    num = 7213 * m**3 * (1 << 64)
    den_c = 10 * (1000 * m + 1079)
    g = f"{gcols}, " if gcols else ""
    gby = f"GROUP BY {gcols}" if gcols else ""
    return f"""
agg{tag} AS (SELECT {g}COUNT(*) AS nhit,
               SUM(CAST(1 AS HUGEINT) << CAST(64 - rho AS INT)) AS s_hit
        FROM {src} {gby}),
ze{tag} AS (SELECT {g}GREATEST({m} - nhit, 1) AS v, {m} - nhit AS zeros,
              s_hit + CAST({m} - nhit AS HUGEINT) * (CAST(1 AS HUGEINT) << 64) AS S
       FROM agg{tag}),
zl{tag} AS (SELECT {g}zeros, S,
              CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                   + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm_z
       FROM {_shared_ln_cte(f'ze{tag}', 'v')}),
est{tag} AS (SELECT {g}CAST(CASE
            WHEN 2 * (CAST({num} AS HUGEINT) // ({den_c} * S)) <= {5 * m}
                 AND zeros > 0
            THEN {m} * ({lnm_micro(m)} - lnm_z) // 1000000
            ELSE CAST({num} AS HUGEINT) // ({den_c} * S) END AS BIGINT) AS est
       FROM zl{tag})"""


def _hll_overlap_sql() -> str:
    """Exact SQL replay of :func:`q_type_user_overlap_hll`: the same
    splitmix64 limb chain and register MAX as the grouped-HLL oracle,
    then per-pair union sketches by register MAX across the two types
    and THREE applications of the shared integer estimate fold."""
    TWO64 = _HLL_TWO64
    C, K1, K2 = _HLL_C, _HLL_K1, _HLL_K2
    xor64, mul64 = _sql_xor64, _sql_mul64
    w_mod = 1 << (64 - _HLL_P)
    rho_max = 64 - _HLL_P + 1
    return f"""
WITH x AS (SELECT DISTINCT event_type AS g, CAST(user_id AS HUGEINT) AS v FROM events),
s0 AS (SELECT g, (v + {C}) % {TWO64} AS h FROM x),
s1 AS (SELECT g, {xor64('h', 'h // 1073741824')} AS h FROM s0),
s2 AS (SELECT g, {mul64('h', K1)} AS h FROM s1),
s3 AS (SELECT g, {xor64('h', 'h // 134217728')} AS h FROM s2),
s4 AS (SELECT g, {mul64('h', K2)} AS h FROM s3),
s5 AS (SELECT g, {xor64('h', 'h // 2147483648')} AS h FROM s4),
rr AS (SELECT g, h // {w_mod} AS register,
              CASE WHEN h % {w_mod} = 0 THEN {rho_max}
                   ELSE {rho_max} - length(printf('%b', CAST(h % {w_mod} AS BIGINT)))
              END AS rho
       FROM s5),
mx AS (SELECT g, register, MAX(rho) AS rho FROM rr GROUP BY g, register),
tp AS (SELECT DISTINCT g FROM mx),
pr AS (SELECT a.g AS ga, b.g AS gb FROM tp a JOIN tp b ON a.g < b.g),
um AS (SELECT pr.ga, pr.gb, mm.register, MAX(mm.rho) AS rho
       FROM pr JOIN mx mm ON mm.g = pr.ga OR mm.g = pr.gb
       GROUP BY 1, 2, 3),
{_hll_fold_cte('mx', 'g', 'g')},
{_hll_fold_cte('um', 'ga, gb', 'u')}
SELECT pr.ga AS type_a, pr.gb AS type_b,
       ea.est AS n_a_approx, eb.est AS n_b_approx,
       eu.est AS n_union_approx,
       CAST(GREATEST(ea.est + eb.est - eu.est, 0) AS BIGINT)
           AS n_overlap_approx
FROM pr
JOIN estg ea ON ea.g = pr.ga
JOIN estg eb ON eb.g = pr.gb
JOIN estu eu ON eu.ga = pr.ga AND eu.gb = pr.gb
"""


# ---------------------------------------------------------------------------
# Q20 — running total (ordered prefix-scan window per partition key)
# ---------------------------------------------------------------------------

def q_running_total(sf_dir: str, n_buckets: int = 32):
    """Per-customer cumulative revenue ordered by (orderdate, orderkey)
    — the ``SUM() OVER (PARTITION BY … ORDER BY …)`` prefix-scan
    window. Complements :func:`q_top_orders_per_customer` (ranking):
    this one carries an ordered accumulation, not a top-N cut.

    Same scale discipline as the rank window: shuffle on the coarse
    ``custkey % B`` bucket (B partitions, never one task per
    customer), then inside each partition ONE vectorized sort +
    ``groupby.cumsum`` scans every customer at once. Cents are exact
    int64, so the cumulative sums are order-independent of block
    arrival and hash-identical to the oracle. The exchange moves each
    row once; partition memory is |orders|/B rows — at 100 TB raise B
    to keep a bucket inside a worker's heap."""

    ds = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "o_orderkey": batch["o_orderkey"],
                "date_us": pc.cast(batch["o_orderdate"], pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def scan_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["o_custkey", "date_us", "o_orderkey"], kind="stable")
        run = g.groupby("o_custkey", sort=False)["cents"].cumsum()
        return pa.table(
            {
                "o_custkey": pa.array(g["o_custkey"].to_numpy(dtype=np.int64)),
                "o_orderkey": pa.array(g["o_orderkey"].to_numpy(dtype=np.int64)),
                "run_cents": pa.array(run.to_numpy(dtype=np.int64)),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "o_custkey")], scan_bucket, n_buckets=n_buckets)


_SQL_RUNNING_TOTAL = """
SELECT o_custkey, o_orderkey,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) OVER (
           PARTITION BY o_custkey
           ORDER BY o_orderdate, o_orderkey
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS run_cents
FROM orders
"""


# ---------------------------------------------------------------------------
# Q21 — pivot (conditional aggregation to a wide table)
# ---------------------------------------------------------------------------

_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_event_pivot(sf_dir: str):
    """Events pivoted long→wide: one row per epoch-day, one count
    column per event type — the PIVOT / conditional-aggregation
    operator. The column set must be known up front in a distributed
    engine (here the fixed event-type vocabulary); per batch a
    vectorized ``pivot_table`` emits at most |days-in-batch| partial
    rows, then one ``groupby(day)`` with a Sum per column merges them
    — the exchange carries O(days × blocks) wide rows, never events."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {"day": us // 86_400_000_000, "et": batch["event_type"].to_pandas()}
        )
        piv = (
            df.pivot_table(index="day", columns="et", aggfunc="size", fill_value=0)
            .reindex(columns=list(_EVENT_TYPES), fill_value=0)
            .reset_index()
        )
        cols = {"day": pa.array(piv["day"].to_numpy(dtype=np.int64))}
        for t in _EVENT_TYPES:
            cols[f"n_{t}"] = pa.array(piv[t].to_numpy(dtype=np.int64))
        return pa.table(cols)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("day")
        .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}") for t in _EVENT_TYPES])
    )


_SQL_EVENT_PIVOT = """
SELECT CAST(FLOOR(epoch_us(ts) / 86400000000) AS BIGINT) AS day,
       CAST(SUM(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(SUM(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
       CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(SUM(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(SUM(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS BIGINT) AS n_view
FROM events
GROUP BY day
"""


# ---------------------------------------------------------------------------
# Q22 — grouped exact percentiles (distributed value-count summary)
# ---------------------------------------------------------------------------

def q_priority_percentiles(sf_dir: str):
    """Exact p50/p90 of order totals per order priority — the grouped
    twin of :func:`q_price_percentiles`, kept fully distributed: the
    per-batch (group, value) counts collapse through ONE
    ``groupby(group, value)`` Sum into the per-group histograms, and a
    second ``groupby(group).map_groups`` reads each percentile off the
    cumulative counts on the workers — the driver never materializes a
    histogram (the global version may, its domain is one group). The
    exchange carries (group × distinct-value) count rows; percentile
    semantics are PERCENTILE_DISC (smallest value with cum ≥ ⌈q·N⌉),
    exact on the discrete cents domain."""
    import pandas as pd

    ds = read_table(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def counts(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "cents": _cents(batch["o_totalprice"]),
                "cnt": np.ones(batch.num_rows, np.int64),
            }
        )
        return combine(t, ["o_orderpriority", "cents"], "sum")

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
        .groupby(["o_orderpriority", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def pcts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("cents")
        cum = g["cnt"].cumsum().to_numpy()
        total = int(cum[-1])
        vals = g["cents"].to_numpy()

        def pick(q: float) -> int:
            return int(vals[np.searchsorted(cum, int(np.ceil(q * total)))])

        return pd.DataFrame(
            {
                "o_orderpriority": [g["o_orderpriority"].iloc[0]],
                "p50_cents": pd.Series([pick(0.5)], dtype="int64"),
                "p90_cents": pd.Series([pick(0.9)], dtype="int64"),
            }
        )

    return hist.groupby("o_orderpriority").map_groups(pcts, batch_format="pandas")


_SQL_PRIORITY_PERCENTILES = """
SELECT o_orderpriority,
       CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS p50_cents,
       CAST(PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS p90_cents
FROM orders
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Q23 — grouped distinct count (COUNT(DISTINCT …) within groups)
# ---------------------------------------------------------------------------

def q_type_user_counts(sf_dir: str):
    """Distinct users AND total events per event type — the grouped
    COUNT(DISTINCT) shape. The naive plan shuffles every event row on
    event_type (5 hot keys → 5 giant skewed partitions at corpus
    scale); instead each batch emits its local-unique (type, user)
    pairs, ONE fine groupby on the composite key dedupes globally
    (composite keys hash-spread evenly — no hot-group skew), and a
    second tiny groupby counts pairs per type. Event totals ride the
    usual per-batch partial combine; both 5-row results merge on the
    driver (bounded by the group domain)."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def local_pairs(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
            }
        )
        u = df.drop_duplicates()
        return pa.table(
            {
                "event_type": pa.array(u["event_type"], pa.string()),
                "user_id": pa.array(u["user_id"].to_numpy(dtype=np.int64)),
            }
        )

    def local_totals(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch["event_type"], "n": np.ones(batch.num_rows, np.int64)})
        return combine(t, "event_type", "sum")

    from ray.data.aggregate import Count, Sum

    def strip_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch["event_type"]})

    users = (
        ds.map_batches(local_pairs, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_dup"))
        .map_batches(strip_pairs, batch_format="pyarrow", batch_size=None)
        .groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
        .to_pandas()
    )
    totals = (
        ds.map_batches(local_totals, batch_format="pyarrow", batch_size=None)
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n_events"))
        .to_pandas()
    )
    out = users.merge(totals, on="event_type")
    out["n_users"] = out["n_users"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out


_SQL_TYPE_USER_COUNTS = """
SELECT event_type,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Q23b — FIRST_VALUE/LAST_VALUE per partition as decomposable argmin/argmax
# ---------------------------------------------------------------------------

def q_customer_order_span(sf_dir: str, n_buckets: int = 16):
    """Each customer's first and last order (key, date, price) plus
    order count — the FIRST_VALUE/LAST_VALUE window pair. Unlike
    rank-family windows, first/last are DECOMPOSABLE: each batch
    reduces its rows to one (first-candidate, last-candidate, count)
    partial per customer, so the exchange carries one fixed-width row
    per (customer × batch), never the orders; the custkey exchange then
    re-reduces partials with the same lexicographic (date, orderkey)
    argmin/argmax. Total ordering via the orderkey tiebreak keeps the
    result exact under any block arrival order."""
    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partials(b: pa.Table) -> pa.Table:
        ok = b["o_orderkey"].cast(pa.int64())
        dt = b["o_orderdate"].cast(pa.int64())
        cents = _cents(b["o_totalprice"])
        t = pa.table(
            {
                "ck": b["o_custkey"].cast(pa.int64()),
                "f_ok": ok,
                "f_dt": dt,
                "f_cents": cents,
                "l_ok": ok,
                "l_dt": dt,
                "l_cents": cents,
                "n": np.ones(b.num_rows, np.int64),
            }
        ).sort_by([("ck", "ascending"), ("f_dt", "ascending"), ("f_ok", "ascending")])
        firsts = dict.fromkeys(["f_ok", "f_dt", "f_cents"], "first")
        lasts = dict.fromkeys(["l_ok", "l_dt", "l_cents"], "last")
        return combine(t, "ck", {**firsts, **lasts, "n": "sum"})

    def reduce_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        f = (
            g.sort_values(["ck", "f_dt", "f_ok"])
            .groupby("ck", sort=False)
            .head(1)[["ck", "f_ok", "f_dt", "f_cents"]]
        )
        l = (
            g.sort_values(["ck", "l_dt", "l_ok"])
            .groupby("ck", sort=False)
            .tail(1)[["ck", "l_ok", "l_dt", "l_cents"]]
        )
        n = g.groupby("ck", sort=False)["n"].sum()
        out = f.merge(l, on="ck").merge(n.rename("n_orders").reset_index(), on="ck")
        return pa.table(
            {
                "c_custkey": pa.array(out["ck"].to_numpy(dtype=np.int64)),
                "first_orderkey": pa.array(out["f_ok"].to_numpy(dtype=np.int64)),
                "first_date": pa.array(out["f_dt"].to_numpy(), pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "first_cents": pa.array(out["f_cents"].to_numpy(dtype=np.int64)),
                "last_orderkey": pa.array(out["l_ok"].to_numpy(dtype=np.int64)),
                "last_date": pa.array(out["l_dt"].to_numpy(), pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "last_cents": pa.array(out["l_cents"].to_numpy(dtype=np.int64)),
                "n_orders": pa.array(out["n_orders"].to_numpy(dtype=np.int64)),
            }
        )

    keyed = orders.map_batches(partials, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "ck")], reduce_bucket, n_buckets=n_buckets)


_SQL_ORDER_SPAN = """
WITH o AS (
    SELECT o_custkey, o_orderkey, o_orderdate,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           ROW_NUMBER() OVER (PARTITION BY o_custkey
               ORDER BY o_orderdate, o_orderkey) AS rf,
           ROW_NUMBER() OVER (PARTITION BY o_custkey
               ORDER BY o_orderdate DESC, o_orderkey DESC) AS rl,
           COUNT(*) OVER (PARTITION BY o_custkey) AS n
    FROM orders
)
SELECT f.o_custkey AS c_custkey,
       f.o_orderkey AS first_orderkey, f.o_orderdate AS first_date,
       f.cents AS first_cents,
       l.o_orderkey AS last_orderkey, l.o_orderdate AS last_date,
       l.cents AS last_cents,
       CAST(f.n AS BIGINT) AS n_orders
FROM (SELECT * FROM o WHERE rf = 1) f
JOIN (SELECT * FROM o WHERE rl = 1) l ON f.o_custkey = l.o_custkey
"""


# ---------------------------------------------------------------------------
# Q23c — fact-to-fact join + grouped COUNT(DISTINCT) re-key
# ---------------------------------------------------------------------------

def q_customer_supplier_reach(sf_dir: str, min_suppliers: int = 5, n_buckets: int = 32):
    """How many DISTINCT suppliers each customer has bought from
    (keeping customers reaching ``min_suppliers``) — the one join the
    suite hadn't exercised: FACT⋈FACT (lineitem⋈orders on orderkey,
    both too big to broadcast), then a re-key to a different grouping
    column (custkey) with a grouped COUNT(DISTINCT).

    Two exchanges, both carrying pre-reduced fixed-width rows:

    1. orderkey-bucket join — lineitem batches emit DISTINCT
       (orderkey, suppkey) pairs (per-batch dedup; the exchange never
       carries one row per line item), orders emit (orderkey, custkey);
       the per-bucket merge rewrites pairs to (custkey, suppkey).
    2. custkey-bucket distinct-count — pairs dedup once more per
       bucket task before the exchange (cross-block duplicates of the
       same pair collapse), then the custkey groupby counts distinct
       suppliers vectorized per partition.

    At 100 TB this is the canonical big-join template: co-partition
    both facts on the join key once, keep every exchanged row a pair
    of int64s, and never let a count-distinct ship raw values to the
    driver."""

    lineitem = read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def li_pairs(b: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            b.to_pandas().drop_duplicates(), preserve_index=False
        )

    def rekey_bucket(li: pa.Table, ords: pa.Table) -> pa.Table:
        j = li.to_pandas().merge(ords.to_pandas(), left_on="l_orderkey", right_on="o_orderkey")
        j = j[["o_custkey", "l_suppkey"]].drop_duplicates()
        return pa.table(
            {
                "ck": pa.array(j["o_custkey"].to_numpy(dtype=np.int64)),
                "supp": pa.array(j["l_suppkey"].to_numpy(dtype=np.int64)),
            }
        )

    pairs = exchange(
        [
            (
                lineitem.map_batches(li_pairs, batch_format="pyarrow", batch_size=None),
                "l_orderkey",
                pa.schema({"l_orderkey": pa.int64(), "l_suppkey": pa.int64()}),
            ),
            (orders, "o_orderkey"),
        ],
        rekey_bucket,
        n_buckets=n_buckets,
    )

    def count_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = (
            g.drop_duplicates(["ck", "supp"])
            .groupby("ck", sort=False)
            .size()
            .reset_index(name="n_suppliers")
        )
        agg = agg[agg["n_suppliers"] >= min_suppliers]
        return pa.table(
            {
                "c_custkey": pa.array(agg["ck"].to_numpy(dtype=np.int64)),
                "n_suppliers": pa.array(agg["n_suppliers"].to_numpy(dtype=np.int64)),
            }
        )

    return exchange([(pairs, "ck")], count_bucket, n_buckets=n_buckets)


_SQL_SUPPLIER_REACH = """
SELECT o.o_custkey AS c_custkey,
       CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS n_suppliers
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_custkey
HAVING COUNT(DISTINCT l.l_suppkey) >= 5
"""


# ---------------------------------------------------------------------------
# Q23d — key-skew profiler (the diagnostic behind salted shuffles)
# ---------------------------------------------------------------------------

def q_key_skew(sf_dir: str, k: int = 20, n_buckets: int = 32):
    """The 20 hottest order custkeys with their absolute counts and
    integer parts-per-million share of the table — the profile a
    planner reads BEFORE choosing between the plain and salted
    segment-revenue twins (SCALE.md): if the top key's share_ppm
    crosses the per-partition budget, salt it. Per-batch partial
    counts → coarse key-bucket sums → per-bucket local top-k → one
    k×buckets-row sort. The denominator is the parquet footer row
    count (no extra pass); share is exact integer floor division, so
    the profile hash-matches the oracle."""
    import pandas as pd
    import pyarrow.parquet as pq

    total = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    orders = read_table(sf_dir, "orders", ["o_custkey"])

    def partials(b: pa.Table) -> pa.Table:
        ck = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        agg = pd.Series(ck).value_counts()
        keys = agg.index.to_numpy(dtype=np.int64)
        return pa.table(
            {
                "key": pa.array(keys),
                "cnt": pa.array(agg.to_numpy(dtype=np.int64)),
            }
        )

    def local_topk(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = g.groupby("key", sort=False)["cnt"].sum().reset_index()
        agg = agg.sort_values(["cnt", "key"], ascending=[False, True]).head(k)
        cnt = agg["cnt"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "o_custkey": pa.array(agg["key"].to_numpy(dtype=np.int64)),
                "cnt": pa.array(cnt),
                "share_ppm": pa.array(cnt * 1_000_000 // total),
            }
        )

    keyed = orders.map_batches(partials, batch_format="pyarrow", batch_size=None)
    return (
        exchange([(keyed, "key")], local_topk, n_buckets=n_buckets)
        .sort(["cnt", "o_custkey"], descending=[True, False])
        .limit(k)
    )


_SQL_KEY_SKEW = """
WITH c AS (
    SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS cnt FROM orders
    GROUP BY o_custkey
)
SELECT o_custkey, cnt,
       CAST(cnt * 1000000 // (SELECT COUNT(*) FROM orders) AS BIGINT)
           AS share_ppm
FROM c ORDER BY cnt DESC, o_custkey LIMIT 20
"""


# ---------------------------------------------------------------------------
# Q23e — FULL OUTER join (both-sided key reconciliation)
# ---------------------------------------------------------------------------

def q_order_event_reconcile(
    sf_dir: str,
    segment: str = "BUILDING",
    n_buckets: int = 16,
    budget_bytes: int | None = None,
):
    """FULL OUTER reconciliation of two per-key aggregate streams —
    the one join shape the suite hadn't covered (inner / left-outer /
    semi / anti / as-of / range / fact-to-fact all exist). Left:
    per-customer order count + exact cent spend for customers in one
    market segment. Right: per-user event count + exact cent value.
    Keys live in the same id domain but neither side contains the
    other (the segment excludes most event users; most segment
    customers never raise events), so BOTH exclusive sides and the
    overlap are non-empty — `sides` says which (1 = orders only,
    2 = events only, 3 = both) and absent-side measures are
    COALESCEd to 0, keeping every output column exact int64.

    Scale shape: both inputs pre-aggregate per batch inside
    ``map_batches`` (the exchange carries ``O(keys × blocks)``
    fixed-width partials, never fact rows), meet once in a key-bucket
    exchange, and each bucket does a vectorized outer merge. The
    segment membership is a :func:`~..core.join.keyed_join` semi join
    of the orders against the segment's customer keys, ahead of the
    partials: within budget the keys broadcast into the orders scan;
    beyond it the orders meet them in an extra ``custkey`` exchange."""
    orders = keyed_join(
        read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        how="semi",
        dim_filter=lambda t: t.filter(pc.equal(t["c_mktsegment"], segment)),
        filter_cols=["c_mktsegment"],
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )
    events = read_table(sf_dir, "events", ["user_id", "value"])

    def order_partials(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return _count_cents(ck, _cents(batch["o_totalprice"]).to_numpy())

    def event_partials(batch: pa.Table) -> pa.Table:
        ck = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return _count_cents(ck, _cents(batch["value"]).to_numpy())

    inputs = [
        (
            orders.map_batches(order_partials, batch_format="pyarrow", batch_size=None),
            "key",
            _COUNT_CENTS,
        ),
        (
            events.map_batches(event_partials, batch_format="pyarrow", batch_size=None),
            "key",
            _COUNT_CENTS,
        ),
    ]

    def outer_bucket(o_t: pa.Table, e_t: pa.Table) -> pa.Table:
        o = o_t.to_pandas().groupby("key", sort=False)[["n", "cents"]].sum()
        e = e_t.to_pandas().groupby("key", sort=False)[["n", "cents"]].sum()
        m = o.merge(
            e, how="outer", left_index=True, right_index=True, suffixes=("_o", "_e")
        )
        sides = (~m["n_o"].isna()).astype(np.int8) + 2 * (~m["n_e"].isna()).astype(
            np.int8
        )
        return pa.table(
            {
                "user_key": pa.array(m.index.to_numpy(dtype=np.int64), pa.int64()),
                "sides": pa.array(sides.to_numpy(dtype=np.int64), pa.int64()),
                "n_orders": pa.array(
                    m["n_o"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
                "order_cents": pa.array(
                    m["cents_o"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
                "n_events": pa.array(
                    m["n_e"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
                "event_cents": pa.array(
                    m["cents_e"].fillna(0).to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    return exchange(inputs, outer_bucket, n_buckets=n_buckets)


_COUNT_CENTS = pa.schema({"key": pa.int64(), "n": pa.int64(), "cents": pa.int64()})


def _count_cents(keys: np.ndarray, cents: np.ndarray) -> pa.Table:
    """Per-key ``(n, cents)`` partials of one batch."""
    import pandas as pd

    df = pd.DataFrame({"key": keys, "cents": cents})
    agg = df.groupby("key", sort=False).agg(n=("cents", "size"), cents=("cents", "sum"))
    return pa.table(
        {
            "key": pa.array(agg.index.to_numpy(dtype=np.int64), pa.int64()),
            "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
            "cents": pa.array(agg["cents"].to_numpy(dtype=np.int64), pa.int64()),
        }
    )


_SQL_RECONCILE = """
WITH o AS (
    SELECT o_custkey AS key, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
    FROM orders
    WHERE o_custkey IN (
        SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
    GROUP BY o_custkey
), e AS (
    SELECT user_id AS key, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS cents
    FROM events GROUP BY user_id
)
SELECT COALESCE(o.key, e.key) AS user_key,
       CAST(CASE WHEN o.key IS NOT NULL THEN 1 ELSE 0 END
          + CASE WHEN e.key IS NOT NULL THEN 2 ELSE 0 END AS BIGINT) AS sides,
       CAST(COALESCE(o.n, 0) AS BIGINT) AS n_orders,
       CAST(COALESCE(o.cents, 0) AS BIGINT) AS order_cents,
       CAST(COALESCE(e.n, 0) AS BIGINT) AS n_events,
       CAST(COALESCE(e.cents, 0) AS BIGINT) AS event_cents
FROM o FULL OUTER JOIN e ON o.key = e.key
"""


# ---------------------------------------------------------------------------
# Q23f — cohort retention matrix (calendar-month cohorts)
# ---------------------------------------------------------------------------

def q_cohort_retention(sf_dir: str, n_buckets: int = 32):
    """Classic cohort-retention matrix at day granularity: users
    grouped by the epoch-day of their FIRST event (``cohort_day``),
    each cell counting distinct users active ``days_since`` days
    later. The product-analytics shape (first-touch attribution +
    per-entity history fold) the suite's window family didn't cover.
    (Day, not month: the synthetic event stream spans exactly 30 days
    at every sf, so calendar-month cohorts would be one degenerate
    cell.)

    One real exchange: per-batch DISTINCT ``(user, day)`` partials
    bucket by user, so each bucket holds every active day of its
    users — first day, per-user deltas and the cell counts all
    resolve vectorized in-bucket, and the second exchange carries only
    ``O(cohorts × horizon × buckets)`` count partials into a tiny
    final sum. Day arithmetic is exact integer floor division of the
    epoch microsecond on both engines, so the matrix hash-matches."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", ["user_id", "ts"])

    def partials(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "user": b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                "mi": us // 86_400_000_000,
            }
        ).drop_duplicates()
        return pa.table(
            {
                "user": pa.array(df["user"].to_numpy()),
                "mi": pa.array(df["mi"].to_numpy()),
            }
        )

    def cells(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.drop_duplicates(["user", "mi"])
        g = g.assign(cm=g.groupby("user", sort=False)["mi"].transform("min"))
        agg = (
            g.assign(delta=g["mi"] - g["cm"])
            .groupby(["cm", "delta"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "cohort_day": pa.array(agg["cm"].to_numpy(dtype=np.int64), pa.int64()),
                "days_since": pa.array(
                    agg["delta"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    keyed = ev.map_batches(partials, batch_format="pyarrow", batch_size=None)
    out = (
        exchange([(keyed, "user")], cells, n_buckets=n_buckets)
        .groupby(["cohort_day", "days_since"])
        .aggregate(Sum("n", alias_name="n_users"))
    )

    def clean(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_day": b["cohort_day"],
                "days_since": b["days_since"],
                "n_users": pc.cast(b["n_users"], pa.int64()),
            }
        )

    return out.map_batches(clean, batch_format="pyarrow", batch_size=None)


_SQL_COHORT = """
WITH m AS (
    -- floor division (matching numpy //): DuckDB's // truncates
    -- toward zero, so pre-1970 microseconds need the -1 correction
    SELECT DISTINCT user_id,
           CAST(epoch_us(ts) // 86400000000
                - CASE WHEN epoch_us(ts) % 86400000000 < 0
                       THEN 1 ELSE 0 END AS BIGINT) AS mi
    FROM events
), f AS (
    SELECT user_id, MIN(mi) AS cm FROM m GROUP BY user_id
)
SELECT f.cm AS cohort_day, m.mi - f.cm AS days_since,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM m JOIN f USING (user_id)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Q24 — per-user conversion funnel (ordered event-sequence detection)
# ---------------------------------------------------------------------------

def q_conversion_funnel(sf_dir: str, n_buckets: int = 16):
    """Per-user view→click→purchase funnel: the deepest stage each
    user reached following the EARLIEST possible chain (first view,
    first click strictly after it, first purchase strictly after
    that). The sequence-detection shape analytics engines expose as
    ``window_funnel``; no single SQL window expresses it, so the
    oracle decorrelates it the same way the engine does.

    Scale shape: only funnel-type rows enter the exchange, already
    projected to fixed-width ``(user_id, code, us)`` triples — at
    corpus scale the shuffle carries the funnel events, never the
    event log. One coarse ``hash(user) % B`` groupby co-locates each
    user; the chain itself is three vectorized merge+min passes per
    partition (strict ``>`` makes the result independent of intra-ts
    tie order, so no tie-break column is needed)."""
    import pandas as pd

    _STAGES = ("view", "click", "purchase")
    ds = read_table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        code = np.full(batch.num_rows, -1, dtype=np.int8)
        for i, s in enumerate(_STAGES):
            code[pc.equal(et, s).to_numpy(zero_copy_only=False)] = i
        keep = code >= 0
        uid = batch["user_id"].to_numpy(zero_copy_only=False)[keep]
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "user_id": pa.array(uid.astype(np.int64)),
                "code": pa.array(code[keep]),
                "us": pa.array(us),
            }
        )

    def funnel_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        users = np.sort(g["user_id"].unique())
        t1 = g[g["code"] == 0].groupby("user_id")["us"].min()
        c = g[g["code"] == 1].merge(t1.rename("t1").reset_index(), on="user_id")
        t2 = c[c["us"] > c["t1"]].groupby("user_id")["us"].min()
        p = g[g["code"] == 2].merge(t2.rename("t2").reset_index(), on="user_id")
        t3 = p[p["us"] > p["t2"]].groupby("user_id")["us"].min()
        out = pd.DataFrame({"user_id": users})
        out["t1"] = out["user_id"].map(t1)
        out["t2"] = out["user_id"].map(t2)
        out["t3"] = out["user_id"].map(t3)
        stage = (
            out["t1"].notna().astype(np.int64)
            + out["t2"].notna().astype(np.int64)
            + out["t3"].notna().astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(dtype=np.int64)),
                "funnel_stage": pa.array(stage.to_numpy(dtype=np.int64)),
                "first_view_us": pa.array(
                    out["t1"].fillna(-1).to_numpy(dtype=np.int64)
                ),
                "converted_us": pa.array(
                    out["t3"].fillna(-1).to_numpy(dtype=np.int64)
                ),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], funnel_bucket, n_buckets=n_buckets)


_SQL_FUNNEL = """
WITH u AS (SELECT DISTINCT user_id FROM events
           WHERE event_type IN ('view','click','purchase')),
v AS (SELECT user_id, MIN(ts) AS t1 FROM events
      WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
      JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
      WHERE e.event_type = 'click' GROUP BY e.user_id),
p AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
      JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
      WHERE e.event_type = 'purchase' GROUP BY e.user_id)
SELECT u.user_id,
       CAST(CASE WHEN t3 IS NOT NULL THEN 3
                 WHEN t2 IS NOT NULL THEN 2
                 WHEN t1 IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS funnel_stage,
       COALESCE(CAST(epoch_us(t1) AS BIGINT), -1) AS first_view_us,
       COALESCE(CAST(epoch_us(t3) AS BIGINT), -1) AS converted_us
FROM u LEFT JOIN v ON u.user_id = v.user_id
       LEFT JOIN c ON u.user_id = c.user_id
       LEFT JOIN p ON u.user_id = p.user_id
"""


# ---------------------------------------------------------------------------
# Q25 — CUBE grouping sets over (market segment, order priority)
# ---------------------------------------------------------------------------

def q_revenue_cube(sf_dir: str, n_buckets: int = 16):
    """Order revenue over ``CUBE(c_mktsegment, o_orderpriority)`` —
    the full 2^d grouping-set lattice next to :func:`q_revenue_rollup`
    's linear hierarchy. Orders pre-aggregate to
    (custkey, priority) partials per batch, the custkey→segment
    resolution is the explicit bucket join, and the cube fans each
    (segment, priority) LEAF row out to its four grouping sets before
    ONE fine re-aggregation — the fan-out multiplies the few dozen
    leaf rows, never the fact table, which is what keeps 2^d
    affordable at any corpus size (cost is 2^d × |leaf|, not
    2^d × |orders|)."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def prep_orders(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "key": b["o_custkey"].cast(pa.int64()),
                "priority": b["o_orderpriority"],
                "cents": _cents(b["o_totalprice"]),
            }
        )
        return combine(t, ["key", "priority"], "sum")

    def join_bucket(probe: pa.Table, build: pa.Table) -> pa.Table:
        j = probe.to_pandas().merge(build.to_pandas(), left_on="key", right_on="c_custkey")
        agg = j.groupby(["c_mktsegment", "priority"], as_index=False)["cents"].sum()
        return pa.table(
            {
                "segment": pa.array(agg["c_mktsegment"], pa.string()),
                "priority": pa.array(agg["priority"], pa.string()),
                "revenue_cents": pa.array(agg["cents"].to_numpy(dtype=np.int64)),
            }
        )

    leaf = exchange(
        [
            (
                orders.map_batches(prep_orders, batch_format="pyarrow", batch_size=None),
                "key",
                pa.schema({"key": pa.int64(), "priority": pa.string(), "cents": pa.int64()}),
            ),
            (customer, "c_custkey"),
        ],
        join_bucket,
        n_buckets=n_buckets,
    )

    def fan_out(batch: pa.Table) -> pa.Table:
        s = batch["segment"].to_pylist()
        p = batch["priority"].to_pylist()
        c = batch["revenue_cents"].to_numpy(zero_copy_only=False)
        all_ = ["ALL"] * len(s)
        return pa.table(
            {
                "segment": pa.array(s + s + all_ + all_, pa.string()),
                "priority": pa.array(p + all_ + p + all_, pa.string()),
                "revenue_cents": pa.array(np.concatenate([c, c, c, c])),
            }
        )

    from ray.data.aggregate import Sum

    return (
        leaf.map_batches(fan_out, batch_format="pyarrow", batch_size=None)
        .groupby(["segment", "priority"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


_SQL_CUBE = """
SELECT COALESCE(c_mktsegment, 'ALL') AS segment,
       COALESCE(o_orderpriority, 'ALL') AS priority,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY CUBE (c_mktsegment, o_orderpriority)
"""


# ---------------------------------------------------------------------------
# Q26 — correlated scalar subquery, decorrelated
# ---------------------------------------------------------------------------

def q_orders_above_avg(sf_dir: str, n_buckets: int = 16):
    """Orders strictly above their own customer's average order value
    — the classic correlated scalar subquery (``WHERE price > (SELECT
    AVG(...) WHERE same customer)``), decorrelated into the standard
    partial-aggregate + co-located rejoin the engine's bucket join
    already provides. ONE pruned read feeds both sides: each batch
    emits its order rows (side 0) AND its per-customer (count, sum)
    partials (side 1) into the same custkey-bucket exchange, so the
    fact table is scanned once and the partials the shuffle carries
    are one row per distinct customer per batch. The comparison is
    exact integer cross-multiplication (``cents·cnt > sum_cents``) —
    no division, no float, hash-identical to the oracle.

    Both row kinds travel as one lone exchange side told apart by
    ``side``: they come from one read, which a two-sided exchange
    would run twice. Each kind pads the other's columns with int64
    zeros, never nulls, so no wide int is floated."""
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        ck = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = b["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(b["o_totalprice"]).to_numpy(zero_copy_only=False)
        part = combine(
            pa.table({"ck": ck, "cents": cents, "cnt": np.ones(len(ck), np.int64)}), "ck", "sum"
        )
        pk = part["ck"].to_numpy()
        return pa.table(
            {
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(len(ck), dtype=np.int8), np.ones(len(pk), dtype=np.int8)]
                    )
                ),
                "custkey": pa.array(np.concatenate([ck, pk])),
                "orderkey": pa.array(np.concatenate([ok, np.zeros(len(pk), dtype=np.int64)])),
                "cents": pa.array(np.concatenate([cents, part["cents"].to_numpy()])),
                "cnt": pa.array(np.concatenate([np.zeros(len(ck), dtype=np.int64), part["cnt"].to_numpy()])),
            }
        )

    def filter_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        parts = g[g["side"] == 1].groupby("custkey")[["cents", "cnt"]].sum()
        rows = g[g["side"] == 0].merge(
            parts, left_on="custkey", right_index=True, suffixes=("", "_tot")
        )
        keep = rows[rows["cents"] * rows["cnt_tot"] > rows["cents_tot"]]
        return pa.table(
            {
                "o_orderkey": pa.array(keep["orderkey"].to_numpy(dtype=np.int64)),
                "o_custkey": pa.array(keep["custkey"].to_numpy(dtype=np.int64)),
                "price_cents": pa.array(keep["cents"].to_numpy(dtype=np.int64)),
            }
        )

    keyed = orders.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "custkey")], filter_bucket, n_buckets=n_buckets)


_SQL_ABOVE_AVG = """
WITH o AS (SELECT o_orderkey, o_custkey,
                  CAST(ROUND(o_totalprice*100) AS BIGINT) AS price_cents
           FROM orders),
s AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS cnt,
             CAST(SUM(price_cents) AS BIGINT) AS total
      FROM o GROUP BY o_custkey)
SELECT o.o_orderkey, o.o_custkey, o.price_cents
FROM o JOIN s ON o.o_custkey = s.o_custkey
WHERE o.price_cents * s.cnt > s.total
"""


# ---------------------------------------------------------------------------
# Q26b — six-table join chain (TPC-H Q5 shape: local-supplier revenue)
# ---------------------------------------------------------------------------

def q_local_supplier_revenue(
    sf_dir: str,
    region_key: int = 0,
    n_buckets: int = 16,
    budget_bytes: int | None = None,
):
    """Revenue per nation from lineitems where the CUSTOMER and the
    SUPPLIER sit in the same nation of one region — the TPC-H Q5
    six-table chain (region⋈nation⋈customer⋈orders⋈lineitem⋈supplier),
    the deepest join in the suite and the classic mixed
    dimension/fact-fact plan:

    * region+nation are spec-bounded (5/25 rows) and ride the task
      closure; the region filter prunes CUSTOMER at its scan.
    * orders ⋈ in-region customers on custkey
      (:func:`~..core.join.keyed_join`): the (orderkey → customer
      nation) stream. Within budget the region-filtered customer map
      broadcasts into the orders scan; beyond it the two meet in a
      ``custkey`` exchange.
    * lineitem ⋈ in-region suppliers on suppkey, the same way: every
      NON-region supplier's line drops before the orderkey exchange
      (the early prune), and each batch then pre-sums revenue per
      (order, supplier nation).
    * the orderkey exchange joins those partials to the order stream,
      applies the ``c_nation == s_nation`` colocation filter and
      pre-aggregates per nation, so the final groupby folds
      O(nations × buckets) rows.

    Both dimension joins are sized independently, so all four
    broadcast/exchange combinations are live plans; every one shares
    this oracle, and ``budget_bytes=0`` forces both exchanges in
    tests."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    nk = nation["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    in_region = nk[nation["n_regionkey"].to_numpy(zero_copy_only=False) == region_key]
    n_names = dict(zip(nk.tolist(), nation["n_name"].to_pylist()))
    nat_arr = pa.array(np.sort(in_region), pa.int32())

    def region_rows(column: str):
        return lambda t: t.filter(pc.is_in(t[column], value_set=nat_arr))

    order_nat = keyed_join(
        read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        sf_dir,
        "customer",
        fact_key="o_custkey",
        dim_key="c_custkey",
        cols=["c_nationkey"],
        dim_filter=region_rows("c_nationkey"),
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )
    li = keyed_join(
        read_table(
            sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
        ),
        sf_dir,
        "supplier",
        fact_key="l_suppkey",
        dim_key="s_suppkey",
        cols=["s_nationkey"],
        dim_filter=region_rows("s_nationkey"),
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )

    def prep_li(b: pa.Table) -> pa.Table:
        price_c = _cents(b["l_extendedprice"]).to_numpy()
        disc_c = _cents(b["l_discount"]).to_numpy()
        t = pa.table(
            {
                "ok": b["l_orderkey"].cast(pa.int64()),
                "s_nat": b["s_nationkey"].cast(pa.int64()),
                "rev": price_c * (100 - disc_c),
            }
        )
        return combine(t, ["ok", "s_nat"], "sum")

    def join_b(lines: pa.Table, ords: pa.Table) -> pa.Table:
        j = lines.to_pandas().merge(ords.to_pandas(), left_on="ok", right_on="o_orderkey")
        j = j[j["s_nat"] == j["c_nationkey"]]
        out = j.groupby("s_nat", as_index=False)["rev"].sum()
        return pa.table(
            {
                "nat": pa.array(out["s_nat"].to_numpy(dtype=np.int64), pa.int64()),
                "rev": pa.array(out["rev"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    folded = (
        exchange(
            [
                (
                    li.map_batches(prep_li, batch_format="pyarrow", batch_size=None),
                    "ok",
                    pa.schema({"ok": pa.int64(), "s_nat": pa.int64(), "rev": pa.int64()}),
                ),
                (
                    order_nat,
                    "o_orderkey",
                    pa.schema(
                        {
                            "o_orderkey": pa.int64(),
                            "o_custkey": pa.int64(),
                            "c_nationkey": pa.int32(),
                        }
                    ),
                ),
            ],
            join_b,
            n_buckets=n_buckets,
        )
        .groupby("nat")
        .aggregate(Sum("rev", alias_name="revenue_cents2"))
    )

    def resolve(b: pa.Table) -> pa.Table:
        nats = b["nat"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": pa.array([n_names[int(x)] for x in nats], pa.string()),
                "revenue_cents2": pc.cast(b["revenue_cents2"], pa.int64()),
            }
        )

    return folded.map_batches(resolve, batch_format="pyarrow", batch_size=None)


_SQL_LOCAL_SUPPLIER = """
SELECT n_name,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount*100) AS BIGINT)))
            AS BIGINT) AS revenue_cents2
FROM region
JOIN nation ON n_regionkey = r_regionkey
JOIN customer ON c_nationkey = n_nationkey
JOIN orders ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
WHERE r_regionkey = 0
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# Q26c — per-user behavioral entropy (information-theoretic diversity)
# ---------------------------------------------------------------------------

def q_user_entropy(sf_dir: str, n_buckets: int = 32):
    """Shannon entropy (nats, micro units) of each user's event-type
    distribution — the information-theoretic diversity score quality
    pipelines use for repetition/monoculture detection, here over
    behavioral sequences. ``H = ln T − (Σ cᵢ·ln cᵢ)/T`` over the
    per-user type counts.

    Float summation order is unspecified in both engines, so the ln
    values are first SNAPPED TO INTEGER MICRO (``lnm(k) =
    floor(ln(k)·10⁶ + ½)`` over the shared finite IEEE ln expression
    tree — identical doubles on both sides, then identical integers);
    ``Σ cᵢ·lnm(cᵢ)`` is exact integer arithmetic in ANY order, and the
    final division is an exact rational (``_rhalf``), so this
    float-looking score carries a hash-exact oracle. A user with one
    event type scores exactly 0 (the rational division is exact there).

    One ``user % B`` exchange of per-batch (user, type) count partials;
    per-bucket the count fold, the lnm lookups (cached per distinct
    count) and the entropy all resolve locally."""
    import pandas as pd

    from ..stages.textstats import lnm_micro

    ds = read_table(sf_dir, "events", ["user_id", "event_type"])

    def partials(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        agg = (
            pd.DataFrame({"u": uid, "t": batch["event_type"].to_pandas()})
            # dropna=False: a NULL event_type is its own group in SQL's
            # GROUP BY — dropping it would shrink n_events/entropy
            .groupby(["u", "t"], sort=False, dropna=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "u": pa.array(agg["u"].to_numpy(dtype=np.int64), pa.int64()),
                "t": pa.array(
                    [x if isinstance(x, str) else None for x in agg["t"]],
                    pa.string(),
                ),
                "c": pa.array(agg["c"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def _lnm_arr(vals: np.ndarray) -> np.ndarray:
        # one shared-ln evaluation per DISTINCT value, then a take —
        # the per-row work stays vectorized integer arithmetic
        uniq, inv = np.unique(vals, return_inverse=True)
        return np.array([lnm_micro(int(k)) for k in uniq], dtype=np.int64)[inv]

    def entropy_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        cnt = (
            g.groupby(["u", "t"], sort=False, dropna=False)["c"].sum().reset_index()
        )
        c = cnt["c"].to_numpy(dtype=np.int64)
        grp = cnt.assign(clnm=c * _lnm_arr(c)).groupby("u", sort=False)
        tot = grp["c"].sum()
        t_arr = tot.to_numpy(dtype=np.int64)
        sl = grp["clnm"].sum().to_numpy(dtype=np.int64)
        # _rhalf for non-negative operands, vectorized
        ent = _lnm_arr(t_arr) - (2 * sl + t_arr) // (2 * t_arr)
        return pa.table(
            {
                "user_id": pa.array(tot.index.to_numpy(dtype=np.int64), pa.int64()),
                "n_events": pa.array(t_arr, pa.int64()),
                "n_types": pa.array(
                    grp["t"].size().to_numpy(dtype=np.int64), pa.int64()
                ),
                "entropy_micro": pa.array(ent, pa.int64()),
            }
        )

    keyed = ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "u")], entropy_bucket, n_buckets=n_buckets)


def _sql_user_entropy() -> str:
    from ..stages.textstats import _shared_ln_cte

    return f"""
WITH c AS (
    SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
    FROM events GROUP BY 1, 2
),
k1 AS (SELECT DISTINCT c AS kint FROM c),
l1 AS {_shared_ln_cte("k1", "kint")},
u AS (
    SELECT user_id, CAST(SUM(c.c) AS BIGINT) AS t,
           CAST(COUNT(*) AS BIGINT) AS n_types,
           CAST(SUM(c.c * CAST(FLOOR(l1.lnk * CAST(1000000.0 AS DOUBLE)
                                     + CAST(0.5 AS DOUBLE)) AS BIGINT))
                AS BIGINT) AS s
    FROM c JOIN l1 ON l1.kint = c.c GROUP BY user_id
),
k2 AS (SELECT DISTINCT t AS kint FROM u),
l2 AS {_shared_ln_cte("k2", "kint")}
SELECT u.user_id, u.t AS n_events, u.n_types,
       CAST(FLOOR(l2.lnk * CAST(1000000.0 AS DOUBLE)
                  + CAST(0.5 AS DOUBLE)) AS BIGINT)
       - (2*u.s + u.t) // (2*u.t) AS entropy_micro
FROM u JOIN l2 ON l2.kint = u.t
"""


# ---------------------------------------------------------------------------
# Q26j — percent-of-total window (revenue share per segment)
# ---------------------------------------------------------------------------

def q_segment_share(sf_dir: str):
    """Revenue share of each market segment in parts-per-million — the
    ``SUM(x) / SUM(SUM(x)) OVER ()`` percent-of-total window, closing
    the window-family matrix (rank, prefix scan, LAG, NTILE, frames,
    and now the unpartitioned-total form). Exact integer rational
    (``_rhalf``), so shares hash-match and sum to ~10⁶.

    Same single exchange as :func:`q_segment_revenue`; the grand total
    folds from the per-segment rows themselves (O(segments) driver
    arithmetic, no second pass over orders)."""

    seg = q_segment_revenue(sf_dir).to_pandas()  # O(segments) rows
    total = int(seg["revenue_cents"].sum())
    if len(seg) and total == 0:
        raise ValueError(
            "segment_share: total revenue is zero — shares are undefined "
            "(the SQL oracle divides by zero on the same input)"
        )
    seg["share_ppm"] = [
        _rhalf(10**6 * int(r), total) for r in seg["revenue_cents"]
    ]
    seg["revenue_cents"] = seg["revenue_cents"].astype(np.int64)
    seg["share_ppm"] = seg["share_ppm"].astype(np.int64)
    return seg.sort_values("c_mktsegment").reset_index(drop=True)


_SQL_SEGMENT_SHARE = """
WITH s AS (
    SELECT c_mktsegment,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT)
               AS revenue_cents
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
)
SELECT c_mktsegment, revenue_cents,
       CAST((2*1000000*revenue_cents + SUM(revenue_cents) OVER ())
            // (2*SUM(revenue_cents) OVER ()) AS BIGINT) AS share_ppm
FROM s
"""


# ---------------------------------------------------------------------------
# Q26i — keep-latest compaction (CDC / SCD current-state view)
# ---------------------------------------------------------------------------

def q_latest_events(sf_dir: str, n_buckets: int = 32):
    """Each user's single most recent event, full row — the keep-latest
    compaction every CDC/changelog ingest runs to materialize a
    current-state table from an append stream (``QUALIFY
    row_number() = 1`` over ``ORDER BY ts DESC``). Deterministic under
    the (ts, event_id) DESC tie-break.

    One ``user % B`` exchange — but the per-batch argmax partial runs
    FIRST, so the exchange carries at most one candidate row per
    (user, batch), not the stream: compaction input volume is bounded
    by distinct keys × blocks regardless of update rate. In-bucket the
    winner resolves as one vectorized sort + head-of-run mask."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "ts_us": pc.cast(batch["ts"], pa.int64()).to_numpy(
                    zero_copy_only=False
                ),
                "event_id": batch["event_id"].to_numpy(zero_copy_only=False),
                "event_type": batch["event_type"].to_pandas(),
                "value": batch["value"].to_numpy(zero_copy_only=False),
            }
        )
        # per-batch argmax partial: one candidate per user per batch
        df = df.sort_values(
            ["user_id", "ts_us", "event_id"], ascending=[True, False, False],
            kind="stable",
        )
        head = df[~df["user_id"].duplicated()]
        return pa.table(
            {
                "user_id": pa.array(head["user_id"].to_numpy(dtype=np.int64)),
                "ts_us": pa.array(head["ts_us"].to_numpy(dtype=np.int64)),
                "event_id": pa.array(head["event_id"].to_numpy(dtype=np.int64)),
                "event_type": pa.array(head["event_type"].tolist(), pa.string()),
                "value": pa.array(head["value"].to_numpy(dtype=np.float64)),
            }
        )

    def latest_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(
            ["user_id", "ts_us", "event_id"], ascending=[True, False, False],
            kind="stable",
        )
        head = g[~g["user_id"].duplicated()]
        # half-away-from-zero, not np.rint: `value` is an ARBITRARY
        # double (unlike 2-decimal money), so ROUND's .5 boundary is
        # reachable and banker's rounding would diverge from the oracle
        v = head["value"].to_numpy(dtype=np.float64) * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(head["user_id"].to_numpy(dtype=np.int64)),
                "event_id": pa.array(head["event_id"].to_numpy(dtype=np.int64)),
                "event_type": pa.array(head["event_type"].tolist(), pa.string()),
                "value_cents": pa.array(cents, pa.int64()),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], latest_bucket, n_buckets=n_buckets)


_SQL_LATEST_EVENTS = """
SELECT user_id, event_id, event_type,
       CAST(ROUND(value*100) AS BIGINT) AS value_cents
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) = 1
"""


# ---------------------------------------------------------------------------
# Q26h — pairwise market-basket mining (co-purchase support)
# ---------------------------------------------------------------------------

def q_copurchase_pairs(sf_dir: str, min_support: int = 2, n_buckets: int = 16):
    """Part pairs bought together in at least ``min_support`` orders —
    pairwise frequent-itemset mining (the support-counting core of
    Apriori / market-basket analysis), and a second self-join shape
    next to the n-gram similarity joins: EQUI self-join on the basket
    key instead of a similarity predicate.

    One ``orderkey % B`` exchange of distinct (order, part) rows; the
    per-order pair expansion happens inside the bucket as one
    vectorized self-merge (baskets are small — the expansion is
    O(Σ lines²/order), bounded by the basket-size cap the docstring
    of the range join already argues), pair counts pre-reduce per
    bucket, and a tiny pair groupby applies the support filter. Part
    payloads never ship — only int64 keys."""
    import pandas as pd

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "ok": b["l_orderkey"].to_numpy(zero_copy_only=False),
                "pk": b["l_partkey"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "ok": pa.array(df["ok"].to_numpy(), pa.int64()),
                "pk": pa.array(df["pk"].to_numpy(), pa.int64()),
            }
        )

    def pairs_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        d = g.drop_duplicates(["ok", "pk"])
        j = d.merge(d, on="ok")
        j = j[j["pk_x"] < j["pk_y"]]
        # pack the pair into ONE int64 key (partkeys are far below
        # 2³¹) and pre-reduce within this basket bucket; the packed
        # key is the next exchange's key, which routes it to a COARSE
        # bucket — a per-pair-key global aggregate here was the
        # tiny-group trap this repo documents (measured 190 s remote
        # CPU at sf0.1 for the 1.2M-key Sort-aggregate vs ~2 s for
        # the 64-bucket exchange + in-bucket vectorized count)
        key = (j["pk_x"].to_numpy(dtype=np.int64) << 32) | j["pk_y"].to_numpy(
            dtype=np.int64
        )
        agg = (
            pd.DataFrame({"pair": key})
            .groupby("pair", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "pair": pa.array(agg["pair"].to_numpy(dtype=np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def count_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = g.groupby("pair", sort=False)["n"].sum().reset_index()
        agg = agg[agg["n"] >= min_support]
        pair = agg["pair"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "part_a": pa.array(pair >> 32, pa.int64()),
                "part_b": pa.array(pair & 0xFFFFFFFF, pa.int64()),
                "n_orders": pa.array(agg["n"].to_numpy(dtype=np.int64),
                                     pa.int64()),
            },
            schema=pa.schema([("part_a", pa.int64()), ("part_b", pa.int64()),
                              ("n_orders", pa.int64())]),
        )

    keyed = li.map_batches(prep, batch_format="pyarrow", batch_size=None)
    baskets = exchange([(keyed, "ok")], pairs_bucket, n_buckets=n_buckets)
    return exchange([(baskets, "pair")], count_bucket, n_buckets=n_buckets)


_SQL_COPURCHASE = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM d a JOIN d b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


# ---------------------------------------------------------------------------
# Q26g — rolling distinct-count window (trailing 7-day active users)
# ---------------------------------------------------------------------------

def q_rolling_active_users(sf_dir: str, window_days: int = 7, n_buckets: int = 32):
    """Trailing-window COUNT(DISTINCT): for every epoch day, how many
    distinct users were active in the ``window_days`` days ending on
    it — the rolling DAU/WAU product metric, and the one window frame
    the suite lacked (sum/count/avg frames are decomposable; DISTINCT
    over a sliding frame is not, which is why it needs its own shape).

    Two bounded exchanges, events never move twice: per-batch DISTINCT
    ``(user, day)`` partials fan out to the ≤``window_days`` window
    ends they support (a vectorized repeat — the exchange carries
    ``O(W × distinct(user, day))`` fixed-width rows, independent of
    raw event volume), a composite ``(user, window_day)`` dedup
    shuffle collapses the fan-out, and per-day partial counts fold in
    a tiny final groupby. Day arithmetic is exact integer floor
    division on both engines."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", ["user_id", "ts"])
    day_us = 86_400_000_000

    def fan_out(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "user": b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                "d": us // day_us,
            }
        ).drop_duplicates()
        u = np.repeat(df["user"].to_numpy(), window_days)
        wd = np.repeat(df["d"].to_numpy(), window_days) + np.tile(
            np.arange(window_days, dtype=np.int64), len(df)
        )
        return pa.table(
            {
                "key": pa.array(u * np.int64(1_000_003) + wd, pa.int64()),  # composite
                "user": pa.array(u, pa.int64()),
                "wd": pa.array(wd, pa.int64()),
            }
        )

    def dedup_count(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = (
            g.drop_duplicates(["user", "wd"])
            .groupby("wd", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "wd": pa.array(agg["wd"].to_numpy(dtype=np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    keyed = ev.map_batches(fan_out, batch_format="pyarrow", batch_size=None)
    out = (
        exchange([(keyed, "key")], dedup_count, n_buckets=n_buckets)
        .groupby("wd")
        .aggregate(Sum("n", alias_name="active_users"))
    )

    def clean(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": b["wd"],
                "active_users": pc.cast(b["active_users"], pa.int64()),
            }
        )

    return out.map_batches(clean, batch_format="pyarrow", batch_size=None)


_SQL_ROLLING_DAU = """
WITH m AS (
    SELECT DISTINCT user_id,
           CAST(epoch_us(ts) // 86400000000
                - CASE WHEN epoch_us(ts) % 86400000000 < 0
                       THEN 1 ELSE 0 END AS BIGINT) AS d
    FROM events
), e AS (
    SELECT user_id, UNNEST(generate_series(d, d + 6)) AS wd FROM m
)
SELECT CAST(wd AS BIGINT) AS day,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS active_users
FROM e GROUP BY wd
"""


# ---------------------------------------------------------------------------
# Q26e — per-user path signature (ordered string aggregation)
# ---------------------------------------------------------------------------

def q_user_paths(sf_dir: str, max_steps: int = 8, n_buckets: int = 32):
    """Each user's ordered event-type path as one delimited signature
    string (first ``max_steps`` events) — the ordered LISTAGG /
    ``string_agg(... ORDER BY ...)`` shape, and the input
    representation sequence-clustering and funnel-discovery tools
    consume. Deterministic under the (ts, event_id) tie-break;
    truncation at ``max_steps`` keeps a pathological user's signature
    bounded (documented cap — at corpus scale an unbounded concat is a
    skew hazard).

    One ``user % B`` exchange (rows move once); inside a bucket the
    sort, the per-user head-``max_steps`` mask and the join are
    vectorized pandas ops, and the output is one row per user."""

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_type": batch["event_type"],
            }
        )

    def paths_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        n = len(g)
        new_run = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
        pos = np.arange(n) - run_start
        head = g[pos < max_steps]
        agg = head.groupby("user_id", sort=False)["event_type"].agg(">".join)
        total = g.groupby("user_id", sort=False).size()
        return pa.table(
            {
                "user_id": pa.array(agg.index.to_numpy(dtype=np.int64), pa.int64()),
                "path": pa.array(agg.tolist(), pa.string()),
                "n_events": pa.array(
                    total.loc[agg.index].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], paths_bucket, n_buckets=n_buckets)


_SQL_USER_PATHS = """
WITH r AS (
    SELECT user_id, event_type,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn,
           CAST(COUNT(*) OVER (PARTITION BY user_id) AS BIGINT) AS n_events
    FROM events
)
SELECT user_id,
       string_agg(event_type, '>' ORDER BY rn) AS path,
       n_events
FROM r WHERE rn <= 8
GROUP BY user_id, n_events
"""


# ---------------------------------------------------------------------------
# Q26f — fixed-width value histogram
# ---------------------------------------------------------------------------

def q_price_histogram(sf_dir: str, width_cents: int = 2_000_000):
    """Order-value histogram in fixed $20k bins — the profiling
    primitive behind every distribution dashboard, and the simplest
    member of the binning family next to the log-histogram sketch
    (fixed width exact vs geometric approximate). Pure partial
    aggregation: each batch emits its O(bins) counts, the groupby
    folds O(bins × blocks) rows, values never shuffle. Bin identity is
    exact integer floor division of non-negative cents."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "orders", ["o_totalprice"])

    def partials(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        agg = pd.Series(cents // width_cents).value_counts()
        return pa.table(
            {
                "bin": pa.array(agg.index.to_numpy(dtype=np.int64), pa.int64()),
                "n": pa.array(agg.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    out = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n_orders"))
    )

    def clean(b: pa.Table) -> pa.Table:
        lo = b["bin"].to_numpy(zero_copy_only=False) * width_cents
        return pa.table(
            {
                "bin_lo_cents": pa.array(lo, pa.int64()),
                "bin_hi_cents": pa.array(lo + width_cents, pa.int64()),
                "n_orders": pc.cast(b["n_orders"], pa.int64()),
            }
        )

    return out.map_batches(clean, batch_format="pyarrow", batch_size=None)


_SQL_PRICE_HISTOGRAM = """
WITH b AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) // 2000000 AS bin
    FROM orders
)
SELECT CAST(bin * 2000000 AS BIGINT) AS bin_lo_cents,
       CAST((bin + 1) * 2000000 AS BIGINT) AS bin_hi_cents,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM b GROUP BY bin
"""


# ---------------------------------------------------------------------------
# Q26d — exact k-sigma outlier detection (squared comparison, no sqrt)
# ---------------------------------------------------------------------------

def q_user_activity_outliers(sf_dir: str, k_sigma: int = 2, n_buckets: int = 32):
    """Users whose event count lies strictly more than ``k_sigma``
    standard deviations from the population mean — distributed anomaly
    detection with NO floating point anywhere: ``|c − μ| > k·σ`` is
    evaluated in the cross-multiplied squared form
    ``(n·c − T)² > k²·(n·Σc² − T²)`` over exact integers (n users,
    T = Σc, Σc²), so the flag set is bit-reproducible and carries a
    hash-exact HUGEINT oracle — the same sqrt-avoidance that keeps the
    moments op exact.

    Scale shape: one ``user % B`` exchange folds per-batch count
    partials into per-user totals; the population statistics reduce
    from O(blocks) partial rows (never per-user rows) on the driver,
    broadcast back as three integers in the task closure, and the
    flag filter runs where the counts already live. The per-user count
    table streams twice (stats, then filter) rather than pinning."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["user_id"])

    def partials(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        agg = pd.Series(uid).value_counts()
        return pa.table(
            {
                "user_id": pa.array(agg.index.to_numpy(dtype=np.int64), pa.int64()),
                "c": pa.array(agg.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def fold_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = g.groupby("user_id", sort=False)["c"].sum()
        return pa.table(
            {
                "user_id": pa.array(agg.index.to_numpy(dtype=np.int64), pa.int64()),
                "c": pa.array(agg.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    keyed = ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
    counts = exchange([(keyed, "user_id")], fold_bucket, n_buckets=n_buckets)
    # counts has TWO consumers (stats pass, then flag pass) and Ray
    # re-executes lineage per consumer — pin the tiny per-user table
    # when the footer-bounded estimate fits (distinct users ≤ event
    # rows × 24 B, a deliberate over-estimate), else recompute
    # upstream: the substring-dedup pin-gate discipline
    import pyarrow.parquet as pq

    from ..core.util import pin_fits

    hint = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows * 24
    if pin_fits(hint):
        counts = counts.materialize()

    def stat_partials(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n": pa.array([len(c)], pa.int64()),
                "t": pa.array([int(c.sum())], pa.int64()),
                "s2": pa.array([int((c * c).sum())], pa.int64()),
            }
        )

    stats = counts.map_batches(
        stat_partials, batch_format="pyarrow", batch_size=None
    ).to_pandas()  # bounded: one row per block
    n, t, s2 = int(stats["n"].sum()), int(stats["t"].sum()), int(stats["s2"].sum())
    rhs = k_sigma * k_sigma * (n * s2 - t * t)  # k²·n²·var, exact
    # d² > rhs ⇔ |d| > isqrt(rhs) (isqrt once on the driver, exact):
    # the per-user comparison then stays vectorized int64 — n·c fits
    # int64 up to n·c_max < 2^63, far past any per-user event count
    import math

    thresh = math.isqrt(max(rhs, 0))

    def flag(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False)
        keep = np.abs(n * c - t) > thresh
        return pa.table(
            {
                "user_id": batch["user_id"].filter(pa.array(keep)),
                "n_events": pc.cast(batch["c"].filter(pa.array(keep)), pa.int64()),
            }
        )

    return counts.map_batches(flag, batch_format="pyarrow", batch_size=None)


_SQL_OUTLIERS = """
WITH c AS (
    SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY user_id
), s AS (
    SELECT CAST(COUNT(*) AS HUGEINT) AS n, CAST(SUM(c) AS HUGEINT) AS t,
           CAST(SUM(c*c) AS HUGEINT) AS s2
    FROM c
)
SELECT c.user_id, c.c AS n_events
FROM c CROSS JOIN s
WHERE (s.n * c.c - s.t) * (s.n * c.c - s.t) > 4 * (s.n * s.s2 - s.t * s.t)
"""


# ---------------------------------------------------------------------------
# Q27 — grouped distributed moments (sufficient-statistics covariance)
# ---------------------------------------------------------------------------

def _rhalf(num: int, den: int) -> int:
    """Exact round-half-away-from-zero of the rational num/den
    (den > 0) in pure integer arithmetic — the signed twin of the
    ``FLOOR(x + 0.5)`` micro convention, written so DuckDB's
    truncating ``//`` and Python's flooring ``//`` agree (operands are
    kept non-negative, where the two semantics coincide)."""
    s = 1 if num >= 0 else -1
    return s * ((2 * abs(num) + den) // (2 * den))


def q_price_qty_moments(sf_dir: str):
    """Per-returnflag second-order moments of (quantity, price): count,
    means, variances and covariance — the sufficient-statistics pattern
    behind distributed feature normalization and covariance estimation
    in a training pipeline. ONE streaming pass emits 13 int64 partial
    sums per (group, batch); the shuffle moves O(groups × blocks) rows
    and the driver folds O(groups) rows into exact rational micro
    read-offs. No floats anywhere: price cents are limb-decomposed
    (``y = h·10⁶ + m·10³ + l``) so every per-row product stays ≤ 10⁶
    and the int64 partial sums are exact to ~9×10¹² rows per group —
    beyond a 10¹²-row corpus; for more, narrow the limbs one level.
    The final means/vars/cov divide as exact integer rationals
    (``_rhalf``), so the approximate-looking statistics carry an exact
    DuckDB oracle (HUGEINT sums on the SQL side — the limbs are purely
    an engine-internal int64-safety device).

    Variance/covariance use the textbook ``n·Σxy − Σx·Σy`` form over
    EXACT integers, where catastrophic cancellation — the reason
    float pipelines need Welford — cannot occur."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        # rint, not astype: CAST(double AS BIGINT) rounds in DuckDB,
        # astype truncates — they agree only on integral quantities
        x = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        y = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        h, r = y // 1_000_000, y % 1_000_000
        m, low = r // 1_000, r % 1_000
        t = pa.table(
            {
                "g": batch["l_returnflag"],
                "n": np.ones(len(y), np.int64),
                "sx": x,
                "sy": y,
                "sxx": x * x,
                "sxh": x * h,
                "sxm": x * m,
                "sxl": x * low,
                "shh": h * h,
                "smm": m * m,
                "sll": low * low,
                "shm": h * m,
                "shl": h * low,
                "sml": m * low,
            }
        )
        return combine(t, "g", "sum")

    cols = [
        "n", "sx", "sy", "sxx", "sxh", "sxm", "sxl",
        "shh", "smm", "sll", "shm", "shl", "sml",
    ]
    folded = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("g")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
        .to_pandas()  # bounded: O(groups) fixed-width rows
    )

    out = []
    for r in folded.itertuples():
        n, sx, sy = int(r.n), int(r.sx), int(r.sy)
        sxy = 10**6 * int(r.sxh) + 10**3 * int(r.sxm) + int(r.sxl)
        syy = (
            10**12 * int(r.shh) + 10**6 * int(r.smm) + int(r.sll)
            + 2 * (10**9 * int(r.shm) + 10**6 * int(r.shl) + 10**3 * int(r.sml))
        )
        vx = n * int(r.sxx) - sx * sx
        vy = n * syy - sy * sy
        cov = n * sxy - sx * sy
        out.append(
            {
                "l_returnflag": r.g,
                "n_rows": n,
                # qty is unitless; price cents scale to dollars (/100)
                "mean_qty_micro": _rhalf(10**6 * sx, n),
                "mean_price_micro": _rhalf(10**6 * sy, 100 * n),
                "var_qty_micro": _rhalf(10**6 * vx, n * n),
                "var_price_micro": _rhalf(10**6 * vy, n * n * 10**4),
                "cov_micro": _rhalf(10**6 * cov, n * n * 100),
            }
        )
    out.sort(key=lambda d: d["l_returnflag"])
    return pd.DataFrame(out)


# Pearson corr is deliberately NOT emitted: it needs sqrt over
# integers > 2^53, and HUGEINT→DOUBLE conversion is not pinned to be
# correctly rounded across engines (the libm-ln lesson) — callers
# derive it driver-side from the exact vars/cov in one line.
_SQL_MOMENTS = """
WITH b AS (
    SELECT l_returnflag AS g, CAST(l_quantity AS BIGINT) AS x,
           CAST(ROUND(l_extendedprice*100) AS BIGINT) AS y
    FROM lineitem
), s AS (
    SELECT g, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
           SUM(x*x) AS sxx, SUM(x*y) AS sxy, SUM(y*y) AS syy
    FROM b GROUP BY g
), v AS (
    SELECT g, n, sx, sy,
           n*sxx - sx*sx AS vx, n*syy - sy*sy AS vy,
           n*sxy - sx*sy AS cov
    FROM s
)
SELECT g AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
       CAST((2*1000000*sx + n) // (2*n) AS BIGINT) AS mean_qty_micro,
       CAST((2*1000000*sy + 100*n) // (2*100*n) AS BIGINT) AS mean_price_micro,
       CAST((2*1000000*vx + n*n) // (2*n*n) AS BIGINT) AS var_qty_micro,
       CAST((2*1000000*vy + n*n*10000) // (2*n*n*10000) AS BIGINT)
           AS var_price_micro,
       CAST(CASE WHEN cov >= 0 THEN 1 ELSE -1 END
            * ((2*1000000*ABS(cov) + n*n*100) // (2*n*n*100))
            AS BIGINT) AS cov_micro
FROM v
"""


# ---------------------------------------------------------------------------
# Q28 — event-type transition matrix (first-order Markov chain)
# ---------------------------------------------------------------------------

def q_event_transitions(sf_dir: str, n_buckets: int = 32):
    """First-order Markov transition matrix over per-user event
    sequences: for every ordered (from_type → to_type) step, the global
    count and the exact row-conditional probability in micro units —
    the sequence-mining primitive behind session modeling and
    next-action prediction, and the funnel's unordered-vocabulary
    generalization.

    Same coarse-bucket exchange as :func:`q_event_gaps` (each event row
    moves once, ``user % B``); inside a bucket the LAG neighbor and the
    pair counts resolve in one vectorized pass, so the second exchange
    carries only O(types² × buckets) count partials. Probabilities are
    exact integer rationals (``_rhalf``), so the matrix hash-matches
    DuckDB."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_type": batch["event_type"],
            }
        )

    def pairs_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        et = g["event_type"].to_numpy()
        same_user = np.concatenate([[False], uid[1:] == uid[:-1]])
        prev = np.concatenate([[None], et[:-1]])
        # SQL's `WHERE lag(...) IS NOT NULL` cannot distinguish "no
        # previous row" from "previous type is NULL" — drop both, and
        # keep a NULL to_type as its own group (dropna=False), so the
        # matrix matches the oracle even on null-typed events
        keep = same_user & pd.notna(prev)
        agg = (
            pd.DataFrame({"f": prev[keep], "t": et[keep]})
            .groupby(["f", "t"], sort=False, dropna=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "from_type": pa.array(agg["f"].tolist(), pa.string()),
                "to_type": pa.array(
                    [x if isinstance(x, str) else None for x in agg["t"]],
                    pa.string(),
                ),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    folded = (
        exchange([(keyed, "user_id")], pairs_bucket, n_buckets=n_buckets)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n_steps"))
        .to_pandas()  # bounded: O(types²) rows by construction
    )
    totals = folded.groupby("from_type")["n_steps"].transform("sum")
    folded["prob_micro"] = [
        _rhalf(10**6 * int(c), int(t))
        for c, t in zip(folded["n_steps"], totals)
    ]
    folded["n_steps"] = folded["n_steps"].astype(np.int64)
    return folded.sort_values(["from_type", "to_type"]).reset_index(drop=True)


_SQL_TRANSITIONS = """
WITH p AS (
    SELECT user_id, event_type AS t,
           lag(event_type) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS f
    FROM events
), c AS (
    SELECT f AS from_type, t AS to_type, CAST(COUNT(*) AS BIGINT) AS n_steps
    FROM p WHERE f IS NOT NULL GROUP BY 1, 2
)
SELECT from_type, to_type, n_steps,
       CAST((2*1000000*n_steps + SUM(n_steps) OVER (PARTITION BY from_type))
            // (2*SUM(n_steps) OVER (PARTITION BY from_type))
            AS BIGINT) AS prob_micro
FROM c
"""


# ---------------------------------------------------------------------------
# Q29 — trailing-rows window frame (moving average per customer)
# ---------------------------------------------------------------------------

def q_order_moving_avg(sf_dir: str, window: int = 3, n_buckets: int = 32):
    """Per-customer trailing moving average of order value — ``SUM /
    COUNT OVER (PARTITION BY … ORDER BY … ROWS BETWEEN w-1 PRECEDING
    AND CURRENT ROW)``: the bounded-FRAME window the family still
    lacked (rank, prefix scan, LAG and NTILE all use unbounded or
    neighbor frames). Deterministic under the (orderdate, orderkey)
    tie-break.

    One ``custkey % B`` exchange; inside a bucket the frame resolves as
    a cumsum difference over exact cents with the per-customer run
    boundary masked — O(rows) per partition, never a per-customer task.
    The average is an exact integer rational, so it hash-matches."""

    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "date_us": pc.cast(batch["o_orderdate"], pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    def frame_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["o_custkey", "date_us", "o_orderkey"], kind="stable")
        ck = g["o_custkey"].to_numpy(dtype=np.int64)
        cents = g["cents"].to_numpy(dtype=np.int64)
        n = len(g)
        # position within each customer's run (runs are contiguous)
        new_run = np.concatenate([[True], ck[1:] != ck[:-1]])
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
        pos = np.arange(n) - run_start
        k = np.minimum(pos + 1, window)
        cs = np.concatenate([[0], np.cumsum(cents)])
        s = cs[np.arange(1, n + 1)] - cs[np.arange(1, n + 1) - k]
        ma = (2 * 1_000_000 * s + 100 * k) // (200 * k)
        return pa.table(
            {
                "o_orderkey": pa.array(g["o_orderkey"].to_numpy(dtype=np.int64)),
                "o_custkey": pa.array(ck, pa.int64()),
                "frame_rows": pa.array(k, pa.int64()),
                "ma_price_micro": pa.array(ma, pa.int64()),
            }
        )

    keyed = orders.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "o_custkey")], frame_bucket, n_buckets=n_buckets)


_SQL_MOVING_AVG = """
WITH o AS (
    SELECT o_orderkey, o_custkey, o_orderdate,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
    FROM orders
), w AS (
    SELECT o_orderkey, o_custkey,
           SUM(cents) OVER (PARTITION BY o_custkey
                            ORDER BY o_orderdate, o_orderkey
                            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s,
           CAST(COUNT(*) OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                AS BIGINT) AS k
    FROM o
)
SELECT o_orderkey, o_custkey, k AS frame_rows,
       CAST((2*1000000*s + 100*k) // (200*k) AS BIGINT) AS ma_price_micro
FROM w
"""


# ---------------------------------------------------------------------------
# Q30 — last-touch attribution (forward-fill as-of within one stream)
# ---------------------------------------------------------------------------


def q_attribution_last_touch(sf_dir: str, n_buckets: int = 32):
    """Every purchase attributed to the user's most recent *strictly
    preceding* engagement touch (``view``/``click``), or ``direct``
    when none exists — marketing last-touch attribution, and the
    engine's SELF-as-of shape: unlike
    :func:`q_last_order_before_event` (two tables merged as-of), both
    probe and build live in ONE ordered stream, so the right tool is a
    per-key forward-fill, not a join.

    One ``user % B`` exchange of only the three relevant event types
    (irrelevant types are dropped at the scan — they cannot change a
    LAST_VALUE IGNORE NULLS window). In-bucket, one vectorized sort by
    (user, ts, event_id) then ffill-within-user + shift(1) yields "last
    touch among rows strictly before me" for EVERY row in two passes —
    no per-user loop, no self-join. Missing touches surface as the
    sentinel ``-1`` / ``'direct'`` (COALESCEd identically in the
    oracle) so the output stays non-nullable int64 — nullable ints
    round-trip as float64 through pandas and would break hash
    compares."""
    import pandas as pd

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch["event_type"],
            value_set=pa.array(["purchase", "view", "click"]),
        )
        t = batch.filter(keep)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_pandas()
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_id": t["event_id"],
                "is_touch": pa.array(
                    (et != "purchase").to_numpy(dtype=bool)
                ),
                "touch_kind": pa.array(et.tolist(), pa.string()),
            }
        )

    def attrib_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        u = g["user_id"].to_numpy(dtype=np.int64)
        touch = g["is_touch"].to_numpy(dtype=bool)
        # position of the last touch at-or-before each row (positions
        # are monotone in stream order, so a per-user cummax is exact
        # int64 — no NaN/float round-trip of ids), then shift(1):
        # "last touch strictly before me"
        pos = np.where(touch, np.arange(len(u), dtype=np.int64), -1)
        prev = (
            pd.Series(pos)
            .groupby(u, sort=False)
            .cummax()
            .groupby(u, sort=False)
            .shift(1, fill_value=-1)
            .to_numpy(dtype=np.int64)
        )
        buy = ~touch
        p = prev[buy]
        has = p >= 0
        eid = g["event_id"].to_numpy(dtype=np.int64)
        ts_us = g["ts_us"].to_numpy(dtype=np.int64)
        kinds = g["touch_kind"].to_numpy(dtype=object)
        safe = np.where(has, p, 0)
        return pa.table(
            {
                "user_id": pa.array(u[buy]),
                "purchase_event_id": pa.array(eid[buy]),
                "touch_event_id": pa.array(
                    np.where(has, eid[safe], -1).astype(np.int64)
                ),
                "touch_type": pa.array(
                    np.where(has, kinds[safe], "direct").tolist(), pa.string()
                ),
                "gap_us": pa.array(
                    np.where(has, ts_us[buy] - ts_us[safe], -1).astype(np.int64)
                ),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "user_id")], attrib_bucket, n_buckets=n_buckets)


_SQL_ATTRIBUTION = """
SELECT user_id, event_id AS purchase_event_id,
       CAST(COALESCE(LAST_VALUE(CASE WHEN event_type IN ('view','click')
                                     THEN event_id END IGNORE NULLS)
                     OVER w, -1) AS BIGINT) AS touch_event_id,
       COALESCE(LAST_VALUE(CASE WHEN event_type IN ('view','click')
                                THEN event_type END IGNORE NULLS)
                OVER w, 'direct') AS touch_type,
       CAST(COALESCE(epoch_us(ts)
                     - LAST_VALUE(CASE WHEN event_type IN ('view','click')
                                       THEN epoch_us(ts) END IGNORE NULLS)
                       OVER w, -1) AS BIGINT) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
QUALIFY event_type = 'purchase'
"""


# ---------------------------------------------------------------------------
# Q31 — peak concurrency (distributed sweep-line / two-pass prefix scan)
# ---------------------------------------------------------------------------


def q_peak_concurrency(sf_dir: str, hold_s: int = 300):
    """Maximum number of simultaneously-open activity windows — each
    event holds a slot for ``hold_s`` seconds (half-open
    ``[ts, ts+hold)``) — plus the first instant the peak is reached.
    This is the sweep-line / GLOBAL ordered prefix-sum shape (capacity
    planning, peak-QPS audits) that a naive engine solves with one
    total sort of 2·N points through a single consumer.

    Distributed as the classic two-pass scan: ±1 points are
    range-partitioned by their epoch-DAY (time buckets are naturally
    ordered and need no sampling pass), each day scans its own points
    with one vectorized sort+cumsum and emits THREE numbers (net delta,
    local max, first instant of the local max); the final stage stitches
    day offsets as a prefix sum over those O(#days) partials. The
    all-to-all exchange carries fixed-width 24-byte points; no stage
    ever sees more than one day's points. Ties resolve as (t, delta)
    ascending so a window closing at t frees its slot before one
    opening at t takes it — the half-open convention, mirrored in the
    oracle's ``ORDER BY t, d``."""
    import pandas as pd

    hold_us = hold_s * 1_000_000
    ds = read_table(sf_dir, "events", ["ts"])

    def points(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        t = np.concatenate([us, us + hold_us])
        d = np.concatenate(
            [
                np.ones(len(us), dtype=np.int64),
                np.full(len(us), -1, dtype=np.int64),
            ]
        )
        return pa.table(
            {
                "day": pa.array(t // 86_400_000_000, pa.int64()),
                "t": pa.array(t),
                "d": pa.array(d),
            }
        )

    def scan_day(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["t", "d"], kind="stable")
        run = g["d"].cumsum().to_numpy(dtype=np.int64)
        i = int(np.argmax(run))  # first index achieving the local max
        return pa.table(
            {
                "day": pa.array([int(g["day"].iloc[0])], pa.int64()),
                "net": pa.array([int(run[-1])], pa.int64()),
                "local_max": pa.array([int(run[i])], pa.int64()),
                "at_us": pa.array([int(g["t"].iloc[i])], pa.int64()),
            }
        )

    def one(batch: pa.Table) -> pa.Table:
        return batch.append_column("one", pa.array(np.zeros(len(batch), np.int64)))

    def stitch(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("day", kind="stable")
        # offset entering each day = prefix sum of earlier days' nets
        off = g["net"].cumsum().shift(1, fill_value=0).to_numpy(dtype=np.int64)
        tot = off + g["local_max"].to_numpy(dtype=np.int64)
        i = int(np.argmax(tot))  # earliest day achieving the peak
        return pa.table(
            {
                "peak": pa.array([int(tot[i])], pa.int64()),
                "at_us": pa.array([int(g["at_us"].iloc[i])], pa.int64()),
            }
        )

    return (
        ds.map_batches(points, batch_format="pyarrow", batch_size=None)
        .groupby("day")
        .map_groups(scan_day, batch_format="pandas")
        .map_batches(one, batch_format="pyarrow", batch_size=None)
        .groupby("one")
        .map_groups(stitch, batch_format="pandas")
    )


_SQL_PEAK_CONCURRENCY = """
WITH pts AS (
    SELECT epoch_us(ts) AS t, 1 AS d FROM events
    UNION ALL
    SELECT epoch_us(ts) + 300000000 AS t, -1 AS d FROM events
), run AS (
    SELECT t, SUM(d) OVER (ORDER BY t, d
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW) AS c
    FROM pts
)
SELECT CAST(c AS BIGINT) AS peak, CAST(t AS BIGINT) AS at_us
FROM run
ORDER BY c DESC, t ASC
LIMIT 1
"""


# ---------------------------------------------------------------------------
# Q32 — pareto front (distributed skyline)
# ---------------------------------------------------------------------------


def _skyline_mask(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Non-dominated mask for minimize-price / maximize-size dominance
    (strict in ≥1 coordinate; duplicate pairs never dominate each
    other). Vectorized: sort pairs by (price asc, size desc); a pair is
    dominated iff the max size among strictly-earlier PAIRS ≥ its size
    — earlier pairs are cheaper, or equal-priced with larger size, so
    ≥-size there always implies strict dominance."""
    order = np.lexsort((-size, price))
    p, s = price[order], size[order]
    new = np.empty(len(p), dtype=bool)
    if len(p):
        new[0] = True
        new[1:] = (p[1:] != p[:-1]) | (s[1:] != s[:-1])
    grp = np.cumsum(new) - 1
    gs = s[new]  # one size per distinct pair, in sorted pair order
    prev_max = np.concatenate(
        ([np.iinfo(np.int64).min], np.maximum.accumulate(gs)[:-1])
    )
    keep_sorted = ~(prev_max >= gs)[grp]
    keep = np.empty(len(p), dtype=bool)
    keep[order] = keep_sorted
    return keep


def q_pareto_front(sf_dir: str):
    """Parts on the price/size pareto front — no other part is both
    ≤-price and ≥-size with one strict (cheapest part at every quality
    level; the multi-objective filter behind "best value" candidate
    pruning). The skyline operator is DISTRIBUTIVE: a globally
    non-dominated row is non-dominated in its own block, so stage 1
    runs the vectorized skyline kernel per block (each block's
    survivors are at most one pair per distinct size — tiny), and
    stage 2 re-runs the SAME kernel once over the unioned survivors.
    No shuffle of the input ever happens; the only exchange carries
    the O(#blocks × #distinct-sizes) candidate rows. Dominance is
    computed on exact integer cents so ties break identically to the
    oracle's NOT EXISTS."""
    import pandas as pd

    ds = read_table(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])

    def local_skyline(batch: pa.Table) -> pa.Table:
        price = _cents(batch["p_retailprice"]).to_numpy(zero_copy_only=False)
        size = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = _skyline_mask(price, size)
        return pa.table(
            {
                "one": pa.array(np.zeros(int(keep.sum()), np.int64)),
                "p_partkey": pa.array(
                    batch["p_partkey"].to_numpy(zero_copy_only=False)[keep]
                ),
                "price_cents": pa.array(price[keep]),
                "p_size": pa.array(size[keep]),
            }
        )

    def global_skyline(g: pd.DataFrame) -> pa.Table:
        price = g["price_cents"].to_numpy(dtype=np.int64)
        size = g["p_size"].to_numpy(dtype=np.int64)
        keep = _skyline_mask(price, size)
        return pa.table(
            {
                "p_partkey": pa.array(
                    g["p_partkey"].to_numpy(dtype=np.int64)[keep]
                ),
                "price_cents": pa.array(price[keep]),
                "p_size": pa.array(size[keep]),
            }
        )

    return (
        ds.map_batches(local_skyline, batch_format="pyarrow", batch_size=None)
        .groupby("one")
        .map_groups(global_skyline, batch_format="pandas")
    )


_SQL_PARETO = """
WITH p AS (
    SELECT p_partkey,
           CAST(ROUND(p_retailprice*100) AS BIGINT) AS price_cents,
           CAST(p_size AS BIGINT) AS p_size
    FROM part
)
SELECT a.p_partkey, a.price_cents, a.p_size
FROM p a
WHERE NOT EXISTS (
    SELECT 1 FROM p b
    WHERE b.price_cents <= a.price_cents AND b.p_size >= a.p_size
      AND (b.price_cents < a.price_cents OR b.p_size > a.p_size)
)
"""


# ---------------------------------------------------------------------------
# Q33 — data-quality audit (constraint / FK / profile checks in one pass)
# ---------------------------------------------------------------------------


def q_dq_audit(sf_dir: str, n_buckets: int = 32):
    """Ingest-gate data-quality audit of the orders feed: row counts,
    null keys, non-positive totals, pre-epoch dates, duplicate primary
    keys, and foreign-key orphans against customer — the validation
    sweep a 100 TB pipeline runs BEFORE letting a new drop of data into
    training. One tall ``(metric, value)`` table so new checks extend
    rows, not schema.

    Three independent partial streams feed ONE tiny metric groupby:
    scan counters are per-batch single-row partials (vectorized
    ``pyarrow.compute`` predicates — the audit never re-reads a
    column twice); duplicate-PK counts ride an orderkey-bucket
    exchange (each key lands in exactly one bucket, so in-bucket
    ``value_counts > 1`` is globally exact); FK orphans probe the
    customer key set broadcast as one sorted int64 array
    (dimension-bounded, ``np.isin`` per batch — the semi-join family's
    bucket-shuffle twin is the unbounded-dimension fallback). The
    final exchange carries O(metrics × blocks) rows."""

    orders = read_table(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )
    customer = read_table(sf_dir, "customer", ["c_custkey"])

    ckeys = np.sort(
        pq_read_keys(f"{sf_dir}/customer.parquet", "c_custkey")
    )

    def scan_partials(batch: pa.Table) -> pa.Table:
        n = len(batch)
        ck = batch["o_custkey"]
        nulls = ck.null_count
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        nonpos = int((cents <= 0).sum())
        dus = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        pre = int((dus < 0).sum())
        valid = ck.drop_null().to_numpy(zero_copy_only=False)
        orphans = int((~np.isin(valid, ckeys)).sum())
        return pa.table(
            {
                "metric": pa.array(
                    [
                        "orders_rows",
                        "orders_null_custkey",
                        "orders_nonpositive_total",
                        "orders_pre_epoch",
                        "orders_fk_orphans",
                    ],
                    pa.string(),
                ),
                "value": pa.array(
                    [n, nulls, nonpos, pre, orphans], pa.int64()
                ),
            }
        )

    def dup_partial(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        dup = int((g["o_orderkey"].value_counts() > 1).sum())
        return pa.table(
            {
                "metric": pa.array(["orders_dup_orderkey"], pa.string()),
                "value": pa.array([dup], pa.int64()),
            }
        )

    def cust_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "metric": pa.array(["customer_rows"], pa.string()),
                "value": pa.array([len(batch)], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    scan = orders.map_batches(
        scan_partials, batch_format="pyarrow", batch_size=None
    )
    keyed = orders.select_columns(["o_orderkey"])
    dups = exchange([(keyed, "o_orderkey")], dup_partial, n_buckets=n_buckets)
    crows = customer.map_batches(
        cust_partial, batch_format="pyarrow", batch_size=None
    )
    return (
        scan.union(dups)
        .union(crows)
        .groupby("metric")
        .aggregate(Sum("value", alias_name="value"))
    )


def pq_read_keys(path: str, column: str) -> np.ndarray:
    """Read one int64 key column off a dimension parquet (predicate-
    free, column-pruned) for broadcast probes."""
    import pyarrow.parquet as pq

    return (
        pq.read_table(path, columns=[column])[column]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )


_SQL_DQ_AUDIT = """
SELECT 'orders_rows' AS metric, CAST(COUNT(*) AS BIGINT) AS value FROM orders
UNION ALL
SELECT 'orders_null_custkey',
       CAST(COUNT(*) FILTER (WHERE o_custkey IS NULL) AS BIGINT) FROM orders
UNION ALL
SELECT 'orders_nonpositive_total',
       CAST(COUNT(*) FILTER (WHERE CAST(ROUND(o_totalprice*100) AS BIGINT) <= 0)
            AS BIGINT) FROM orders
UNION ALL
SELECT 'orders_pre_epoch',
       CAST(COUNT(*) FILTER (WHERE o_orderdate < TIMESTAMP '1970-01-01')
            AS BIGINT) FROM orders
UNION ALL
SELECT 'orders_fk_orphans',
       CAST(COUNT(*) AS BIGINT) FROM orders o
WHERE o.o_custkey IS NOT NULL
  AND NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
UNION ALL
SELECT 'orders_dup_orderkey', CAST(COUNT(*) AS BIGINT) FROM
    (SELECT o_orderkey FROM orders GROUP BY o_orderkey HAVING COUNT(*) > 1)
UNION ALL
SELECT 'customer_rows', CAST(COUNT(*) AS BIGINT) FROM customer
"""


QUERIES = {
    "pricing_summary": q_pricing_summary,
    "filter_project": q_filter_project,
    "top_orders": q_top_orders,
    "distinct_flags": q_distinct_flags,
    "region_customers": q_region_customers,
    "segment_revenue": q_segment_revenue,
    "customers_with_orders": q_customers_with_orders,
    "customers_with_orders_shuffle": q_customers_with_orders_shuffle,
    "customers_with_orders_bloom": q_customers_with_orders_bloom,
    "customer_order_profile": q_customer_order_profile,
    "top_revenue_orders": q_top_revenue_orders,
    "supplier_revenue": q_supplier_revenue,
    "segment_revenue_salted": q_segment_revenue_salted,
    "event_gaps": q_event_gaps,
    "event_dedup_windowed": q_event_dedup_windowed,
    "customer_spend_quartiles": q_customer_spend_quartiles,
    "type_user_counts_hll": q_type_user_counts_hll,
    "type_user_overlap_hll": q_type_user_overlap_hll,
    "hourly_top_user": q_hourly_top_user,
    "active_buyers": q_active_buyers,
    "silent_buyers": q_silent_buyers,
    "price_percentiles_sketch": q_price_percentiles_sketch,
    "priority_percentiles_sketch": q_priority_percentiles_sketch,
    "customers_without_orders": q_customers_without_orders,
    "events_by_type": q_events_by_type,
    "hourly_events": q_hourly_events,
    "user_sessions": q_user_sessions,
    "user_interarrival": q_user_interarrival,
    "top_customers": q_top_customers,
    "brand_revenue": q_brand_revenue,
    "last_order_before_event": q_last_order_before_event,
    "last_order_before_event_bucketed": q_last_order_before_event_bucketed,
    "orders_near_event": q_orders_near_event,
    "json_props": q_json_props,
    "sliding_window": q_sliding_window,
    "top_orders_per_customer": q_top_orders_per_customer,
    "price_percentiles": q_price_percentiles,
    "revenue_rollup": q_revenue_rollup,
    "distinct_users": q_distinct_users,
    "distinct_users_hll": q_distinct_users_hll,
    "running_total": q_running_total,
    "event_pivot": q_event_pivot,
    "priority_percentiles": q_priority_percentiles,
    "type_user_counts": q_type_user_counts,
    "conversion_funnel": q_conversion_funnel,
    "revenue_cube": q_revenue_cube,
    "orders_above_avg": q_orders_above_avg,
    "customer_order_span": q_customer_order_span,
    "customer_supplier_reach": q_customer_supplier_reach,
    "key_skew": q_key_skew,
    "order_event_reconcile": q_order_event_reconcile,
    "cohort_retention": q_cohort_retention,
    "price_qty_moments": q_price_qty_moments,
    "event_transitions": q_event_transitions,
    "order_moving_avg": q_order_moving_avg,
    "local_supplier_revenue": q_local_supplier_revenue,
    "user_entropy": q_user_entropy,
    "user_activity_outliers": q_user_activity_outliers,
    "user_paths": q_user_paths,
    "price_histogram": q_price_histogram,
    "rolling_active_users": q_rolling_active_users,
    "copurchase_pairs": q_copurchase_pairs,
    "latest_events": q_latest_events,
    "segment_share": q_segment_share,
    "attribution_last_touch": q_attribution_last_touch,
    "peak_concurrency": q_peak_concurrency,
    "pareto_front": q_pareto_front,
    "dq_audit": q_dq_audit,
}

ORACLE_SQL = {
    "pricing_summary": _SQL_PRICING,
    "filter_project": _SQL_FILTER_PROJECT,
    "top_orders": _SQL_TOP_ORDERS,
    "distinct_flags": _SQL_DISTINCT,
    "region_customers": _SQL_REGION_CUSTOMERS,
    "segment_revenue": _SQL_SEGMENT_REVENUE,
    "customers_with_orders": _SQL_SEMI,
    "customers_with_orders_shuffle": _SQL_SEMI,
    "customers_with_orders_bloom": _SQL_SEMI,
    "customer_order_profile": _SQL_OUTER_PROFILE,
    "top_revenue_orders": _SQL_TOP_REVENUE,
    "supplier_revenue": _SQL_SUPPLIER_REVENUE,
    "segment_revenue_salted": _SQL_SEGMENT_REVENUE,
    "event_gaps": _SQL_EVENT_GAPS,
    "event_dedup_windowed": _SQL_EVENT_DEDUP_WINDOWED,
    "customer_spend_quartiles": _SQL_SPEND_QUARTILES,
    "hourly_top_user": _SQL_HOURLY_TOP_USER,
    "active_buyers": _SQL_ACTIVE_BUYERS,
    "silent_buyers": _SQL_SILENT_BUYERS,
    "price_percentiles_sketch": _SQL_PERCENTILES_SKETCH,
    "priority_percentiles_sketch": _SQL_PRIORITY_PCT_SKETCH,
    "customers_without_orders": _SQL_ANTI,
    "events_by_type": _SQL_EVENTS_BY_TYPE,
    "hourly_events": _SQL_HOURLY,
    "user_sessions": _SQL_SESSIONS,
    "user_interarrival": _SQL_INTERARRIVAL,
    "top_customers": _SQL_TOP_CUSTOMERS,
    "brand_revenue": _SQL_BRAND_REVENUE,
    "last_order_before_event": _SQL_ASOF,
    "last_order_before_event_bucketed": _SQL_ASOF,
    "orders_near_event": _SQL_RANGE_JOIN,
    "json_props": _SQL_JSON_PROPS,
    "sliding_window": _SQL_SLIDING,
    "top_orders_per_customer": _SQL_TOP_PER_CUSTOMER,
    "price_percentiles": _SQL_PERCENTILES,
    "revenue_rollup": _SQL_ROLLUP,
    "distinct_users": _SQL_DISTINCT_USERS,
    "running_total": _SQL_RUNNING_TOTAL,
    "event_pivot": _SQL_EVENT_PIVOT,
    "priority_percentiles": _SQL_PRIORITY_PERCENTILES,
    "type_user_counts": _SQL_TYPE_USER_COUNTS,
    "conversion_funnel": _SQL_FUNNEL,
    "revenue_cube": _SQL_CUBE,
    "orders_above_avg": _SQL_ABOVE_AVG,
    "customer_order_span": _SQL_ORDER_SPAN,
    "customer_supplier_reach": _SQL_SUPPLIER_REACH,
    "key_skew": _SQL_KEY_SKEW,
    "order_event_reconcile": _SQL_RECONCILE,
    "cohort_retention": _SQL_COHORT,
    "price_qty_moments": _SQL_MOMENTS,
    "event_transitions": _SQL_TRANSITIONS,
    "order_moving_avg": _SQL_MOVING_AVG,
    "local_supplier_revenue": _SQL_LOCAL_SUPPLIER,
    "user_entropy": _sql_user_entropy(),
    "user_activity_outliers": _SQL_OUTLIERS,
    "user_paths": _SQL_USER_PATHS,
    "price_histogram": _SQL_PRICE_HISTOGRAM,
    "rolling_active_users": _SQL_ROLLING_DAU,
    "copurchase_pairs": _SQL_COPURCHASE,
    "latest_events": _SQL_LATEST_EVENTS,
    "segment_share": _SQL_SEGMENT_SHARE,
    "attribution_last_touch": _SQL_ATTRIBUTION,
    "peak_concurrency": _SQL_PEAK_CONCURRENCY,
    "pareto_front": _SQL_PARETO,
    "dq_audit": _SQL_DQ_AUDIT,
    # HLL (round 5): approximate by construction but EXACTLY
    # reproducible — the integer estimate fold plus the limb-exact
    # splitmix64 replay give both variants full hash oracles (the 3σ
    # unit test still pins accuracy against the exact count)
    "distinct_users_hll": _hll_oracle_sql(group=False),
    "type_user_counts_hll": _hll_oracle_sql(group=True),
    "type_user_overlap_hll": _hll_overlap_sql(),
}
