"""Round-5 session-3 analytics: drift detection, survival analysis,
dependence measures, power-law fitting, and association rules — each
an exact-integer Ray Data plan with a DuckDB hash-equality oracle,
following the house conventions of :mod:`analytics2`/:mod:`analytics3`
(partial-aggregate before the one exchange, micro / ppm integer units,
``_rhalf`` rounding and the ``lnm_micro`` integer-ln spec shared
verbatim with the SQL).

Reference parity note: the reference engine (``/root/reference``, a
single-machine PDF-form parser) has no cross-document analytics; this
module extends the engine-addition surface mandated by the task
(training-data curation / monitoring operators), not a reference op.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.exchange import combine, exchange
from ..core.join import keyed_join
from ..io.sources import read_table
from .ops import _cents, _rhalf
from .analytics2 import _ts_us

_DAY_US = 86_400_000_000
_HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# revenue_cusum — CUSUM change detection over the daily revenue series
# ---------------------------------------------------------------------------

def _daily_revenue(sf_dir: str):
    """The shared day-grain revenue series: per-batch (day → Σcents)
    partials, ONE day-grain ``groupby`` exchange, and a driver pull of
    the calendar-bounded result (a few thousand rows at any corpus
    size), sorted by day. Feeds the sequential monitors (CUSUM, runs
    test) without either re-spelling the exchange."""
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch["o_orderdate"]) // _DAY_US
        return combine(pa.table({"day": day, "rev": _cents(batch["o_totalprice"])}), "day", "sum")

    return (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("day")
        .aggregate(Sum("rev", alias_name="rev"))
        .to_pandas()  # ≤ #calendar-days rows
        .sort_values("day", kind="stable")
    )

def q_revenue_cusum(sf_dir: str):
    """One-sided CUSUM drift statistic over daily order revenue — the
    classic sequential change detector (Page 1954): against the
    reference level k = mean daily revenue, the statistic
    ``S_d = max(0, S_{d-1} + (x_d − k))`` accumulates sustained
    positive drift and its peak marks the strongest upward regime;
    the production monitor behind "did ingest volume shift?" alarms
    on a 10¹²-doc corpus.

    Exactness: the recursion has the closed form
    ``S_d = P_d − min(0, min_{j≤d} P_j)`` over prefix sums ``P`` of the
    deviations, so no per-step clamp is needed; deviations are kept in
    the integer ``cents·D`` scale (``x_d·D − Σx``, D = #days) so the
    mean never rounds, and the single division back to cents is one
    ``_rhalf`` at the end. The driver fold runs on Python bignums —
    no overflow at any scale. Ties on the peak break to the earliest
    day (SQL ``ORDER BY cus DESC, day ASC LIMIT 1``).

    Shape: per-batch (day → Σcents) partials, then ONE day-grain
    ``groupby`` exchange (the series is bounded by the calendar — a
    few thousand rows at any corpus size), then a driver fold over
    that bounded series. Nothing order-grain ever crosses the wire.
    """
    import pandas as pd

    series = _daily_revenue(sf_dir)
    days = [int(v) for v in series["day"]]
    revs = [int(v) for v in series["rev"]]
    d_n = len(days)
    total = sum(revs)
    pfx = 0
    run_min = 0  # min(0, min_{j<=d} P_j): the empty prefix counts
    best_s, best_day = -1, -1
    for day, rev in zip(days, revs):
        pfx += rev * d_n - total
        if pfx < run_min:
            run_min = pfx
        s = pfx - run_min
        if s > best_s:
            best_s, best_day = s, day
    return pd.DataFrame(
        {
            "n_days": pd.Series([d_n], dtype=np.int64),
            "peak_day": pd.Series([best_day], dtype=np.int64),
            "peak_cusum_cents": pd.Series(
                [_rhalf(best_s, d_n) if d_n else 0], dtype=np.int64
            ),
        }
    )


_SQL_REVENUE_CUSUM = """
WITH d AS (
    SELECT CAST(date_diff('day', DATE '1970-01-01',
                          CAST(o_orderdate AS DATE)) AS BIGINT) AS day,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS rev
    FROM orders GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd,
             CAST(SUM(rev) AS HUGEINT) AS tot FROM d),
p AS (SELECT day,
             SUM(CAST(rev AS HUGEINT) * nd - tot)
                 OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS pfx
      FROM d, t),
s AS (SELECT day,
             pfx - LEAST(CAST(0 AS HUGEINT),
                         MIN(pfx) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING))
                 AS cus
      FROM p)
SELECT nd AS n_days, day AS peak_day,
       CAST((2*cus + nd) // (2*nd) AS BIGINT) AS peak_cusum_cents
FROM s, t
ORDER BY cus DESC, day ASC
LIMIT 1
"""


# ---------------------------------------------------------------------------
# customer_survival_km — Kaplan–Meier estimator with right-censoring
# ---------------------------------------------------------------------------

def _orders_max_day(sf_dir: str) -> int:
    """Global max order date (epoch days) — the censoring horizon.
    Reads the Parquet footer statistics when present (no data scan —
    the production probe; Lance fragments carry the same stats), and
    falls back to a column-pruned Max aggregate otherwise."""
    import os

    path = os.path.join(sf_dir, "orders.parquet")
    if os.path.isfile(path):
        from ..stages.zorder import _footer_max

        stats = _footer_max(path, ["o_orderdate"])
        if stats is not None:
            mx_us = int(np.datetime64(stats[0], "us").astype(np.int64))
            return mx_us // _DAY_US
    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "orders", ["o_orderdate"])

    def to_day(b: pa.Table) -> pa.Table:
        return pa.table(
            {"day": pa.array(_ts_us(b["o_orderdate"]) // _DAY_US, pa.int64())}
        )

    row = (
        ds.map_batches(to_day, batch_format="pyarrow", batch_size=None)
        .aggregate(Max("day"))
    )
    return int(row["max(day)"])


def q_customer_survival_km(sf_dir: str, censor_days: int = 90, n_buckets: int = 32):
    """Kaplan–Meier survival curve of customer LIFETIME (days between
    a customer's first and last order), right-censored: a customer
    whose last order falls within ``censor_days`` of the corpus's max
    order date may still be active, so their lifetime is an
    observation floor (event = 0), not a death — the estimator behind
    retention/churn curves, here over the order stream. Output rows
    are the distinct death times with the at-risk count, death count,
    and the cumulative log-survival ``Σ lnm(n_i − d_i) − lnm(n_i)`` in
    integer micro-nats (``S(t) = exp(ln_surv_micro/10⁶)`` driver-side;
    the engine never computes a float product). The standard tie
    convention holds: customers censored at time t are still at risk
    at t. Times where survival would hit zero (n_i == d_i) are
    excluded on both sides — their log is −∞ by definition.

    Exactness: each ln snaps to the shared integer-micro spec
    (:func:`~pdf_parser_ray.stages.textstats.lnm_micro`) BEFORE the
    cumulative sum, so the curve is an order-free integer prefix sum —
    hash-exact vs the ``_shared_ln_cte`` SQL replay.

    Shape: the censoring horizon comes from footer statistics (no
    scan); then per-batch (custkey → min/max date) partials flow
    through ONE coarse ``custkey % B`` bucket exchange where each
    bucket resolves its customers' (lifetime, event) pairs vectorized
    and pre-reduces them to (time, event) cells; a second, tiny
    (time, event)-grain exchange sums the cells (bounded by the
    calendar, not the customer count); the KM fold itself runs
    driver-side over that bounded series on Python ints.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..stages.textstats import lnm_micro

    horizon = _orders_max_day(sf_dir) - int(censor_days)
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch["o_orderdate"]) // _DAY_US
        t = pa.table({"ck": batch["o_custkey"].cast(pa.int64()), "first": day, "last": day})
        return combine(t, "ck", {"first": "min", "last": "max"})

    def cells_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        per = (
            g.groupby("ck", sort=False)
            .agg(first=("first", "min"), last=("last", "max"))
            .reset_index()
        )
        t = (per["last"] - per["first"]).to_numpy(np.int64)
        ev = (per["last"].to_numpy(np.int64) <= horizon).astype(np.int64)
        cells = (
            pd.DataFrame({"t": t, "ev": ev})
            .groupby(["t", "ev"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "t": pa.array(cells["t"].to_numpy(np.int64), pa.int64()),
                "ev": pa.array(cells["ev"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(cells["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    keyed = orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
    cells = (
        exchange([(keyed, "ck")], cells_bucket, n_buckets=n_buckets)
        .groupby(["t", "ev"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤ 2 × #distinct-lifetimes rows (calendar-bounded)
        .sort_values(["t", "ev"], kind="stable")
    )
    total = int(cells["n"].sum())
    # fold ascending by time: at-risk = total - everyone who left earlier
    by_t: dict[int, list[int]] = {}
    for t, ev, n in zip(cells["t"], cells["ev"], cells["n"]):
        d = by_t.setdefault(int(t), [0, 0])
        d[int(ev)] += int(n)
    out_t, out_r, out_d, out_ln = [], [], [], []
    at_risk, ln_acc = total, 0
    for t in sorted(by_t):
        cens, dth = by_t[t]
        if dth > 0 and at_risk > dth:
            ln_acc += lnm_micro(at_risk - dth) - lnm_micro(at_risk)
            out_t.append(t)
            out_r.append(at_risk)
            out_d.append(dth)
            out_ln.append(ln_acc)
        at_risk -= cens + dth
    return pd.DataFrame(
        {
            "t_day": pd.Series(out_t, dtype=np.int64),
            "n_risk": pd.Series(out_r, dtype=np.int64),
            "n_death": pd.Series(out_d, dtype=np.int64),
            "ln_surv_micro": pd.Series(out_ln, dtype=np.int64),
        }
    )


def _sql_survival_km(censor_days: int = 90) -> str:
    from ..stages.textstats import _shared_ln_cte

    cte = _shared_ln_cte("(SELECT DISTINCT kint FROM lnargs)", "kint")
    return f"""
WITH bounds AS (SELECT MAX(CAST(o_orderdate AS DATE)) AS mx FROM orders),
c AS (
    SELECT o_custkey,
           CAST(date_diff('day', MIN(CAST(o_orderdate AS DATE)),
                          MAX(CAST(o_orderdate AS DATE))) AS BIGINT) AS t,
           CASE WHEN MAX(CAST(o_orderdate AS DATE))
                     <= (SELECT mx FROM bounds) - INTERVAL {censor_days} DAY
                THEN 1 ELSE 0 END AS ev
    FROM orders GROUP BY 1),
cell AS (SELECT t, ev, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY 1, 2),
times AS (
    SELECT t,
           CAST(SUM(CASE WHEN ev = 1 THEN n ELSE 0 END) AS BIGINT) AS d,
           CAST(SUM(n) AS BIGINT) AS m
    FROM cell GROUP BY t),
ordered AS (
    SELECT t, d,
           CAST((SELECT SUM(n) FROM cell)
                - COALESCE(SUM(m) OVER (ORDER BY t
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                AS BIGINT) AS r
    FROM times),
dr AS (SELECT t, d, r FROM ordered WHERE d > 0 AND r > d),
lnargs AS (SELECT r AS kint FROM dr UNION SELECT r - d FROM dr),
lns AS (SELECT kint,
               CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                          + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
        FROM {cte} t)
SELECT dr.t AS t_day, dr.r AS n_risk, dr.d AS n_death,
       CAST(SUM(b.lnm - a.lnm)
                OVER (ORDER BY dr.t ROWS UNBOUNDED PRECEDING) AS BIGINT)
           AS ln_surv_micro
FROM dr
JOIN lns a ON a.kint = dr.r
JOIN lns b ON b.kint = dr.r - dr.d
"""


# ---------------------------------------------------------------------------
# event_type_mi — mutual information between event type and hour-of-day
# ---------------------------------------------------------------------------

def q_event_type_mi(sf_dir: str):
    """Mutual information between event TYPE and HOUR-OF-DAY in
    integer micro-nats — the dependence monitor behind "does traffic
    mix shift by time of day?" (zero MI = the type distribution is
    the same every hour; rising MI flags diurnal skew a sampler must
    stratify over). Complements the distributional monitors
    (``source_js_divergence``, ``order_price_psi``) with the classic
    joint-vs-marginals measure.

    Exactness: over contingency cells ``n_ij`` with margins ``r_i``,
    ``c_j`` and total N, each cell contributes
    ``n_ij · (lnm(n_ij·N) − lnm(r_i·c_j))`` — every ln snaps to the
    shared integer-micro spec before the sum, so the reduction is
    order-free and hash-exact vs the ``_shared_ln_cte`` SQL replay.
    ``mi_micro`` divides the weighted sum by N with one ``_rhalf``.
    (ln arguments are products ≤ N², i.e. int64-safe below ~3×10⁹
    events; past that the engine would decompose to
    ``lnm(n)+lnm(N)``, a documented follow-up, not a silent wrap.)

    Shape: per-batch (type, hour) contingency partials → ONE
    ``groupby`` exchange carrying ≤ types×24 cells per block → a
    driver fold over the ≤ types×24 global cells. Single-row output.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..stages.textstats import lnm_micro

    ds = read_table(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hr = (_ts_us(batch["ts"]) // _HOUR_US) % 24
        t = pa.table({"ty": batch["event_type"], "hr": hr, "n": np.ones(len(hr), np.int64)})
        return combine(t, ["ty", "hr"], "sum")

    cells = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["ty", "hr"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤ #types × 24 rows
    )
    n_events = int(cells["n"].sum())
    r = cells.groupby("ty")["n"].sum().to_dict()
    c = cells.groupby("hr")["n"].sum().to_dict()
    mi_sum = 0
    for ty, hr, n in zip(cells["ty"], cells["hr"], cells["n"]):
        n = int(n)
        mi_sum += n * (
            lnm_micro(n * n_events) - lnm_micro(int(r[ty]) * int(c[hr]))
        )
    return pd.DataFrame(
        {
            "n_events": pd.Series([n_events], dtype=np.int64),
            "n_cells": pd.Series([len(cells)], dtype=np.int64),
            "mi_sum_micro": pd.Series([mi_sum], dtype=np.int64),
            "mi_micro": pd.Series(
                [_rhalf(mi_sum, n_events) if n_events else 0], dtype=np.int64
            ),
        }
    )


def _sql_event_type_mi() -> str:
    from ..stages.textstats import _shared_ln_cte

    cte = _shared_ln_cte("(SELECT DISTINCT kint FROM lnargs)", "kint")
    return f"""
WITH cell AS (
    SELECT event_type AS ty, CAST(hour(ts) AS BIGINT) AS hr,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM events GROUP BY 1, 2),
m AS (
    SELECT ty, hr, n,
           CAST(SUM(n) OVER (PARTITION BY ty) AS BIGINT) AS r,
           CAST(SUM(n) OVER (PARTITION BY hr) AS BIGINT) AS c,
           CAST(SUM(n) OVER () AS BIGINT) AS nn
    FROM cell),
lnargs AS (SELECT n * nn AS kint FROM m UNION SELECT r * c FROM m),
lns AS (SELECT kint,
               CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                          + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
        FROM {cte} t),
contrib AS (
    SELECT m.n, m.nn, a.lnm - b.lnm AS dl
    FROM m
    JOIN lns a ON a.kint = m.n * m.nn
    JOIN lns b ON b.kint = m.r * m.c),
t AS (
    SELECT MAX(nn) AS n_events, CAST(COUNT(*) AS BIGINT) AS n_cells,
           SUM(CAST(n AS HUGEINT) * dl) AS s
    FROM contrib)
SELECT n_events, n_cells, CAST(s AS BIGINT) AS mi_sum_micro,
       CAST(CASE WHEN s >= 0
                 THEN (2*s + n_events) // (2*n_events)
                 ELSE -((-2*s + n_events) // (2*n_events)) END AS BIGINT)
           AS mi_micro
FROM t
"""


# ---------------------------------------------------------------------------
# zipf_slope — power-law exponent of the token frequency distribution
# ---------------------------------------------------------------------------

def q_zipf_slope(sf_dir: str, v: int = 256):
    """Zipf exponent of the corpus token-frequency distribution: OLS
    slope of ``ln(tf)`` on ``ln(rank)`` over the top-``v`` tokens — a
    healthy natural-language corpus sits near −1; template/boilerplate
    contamination flattens the head and machine-generated spam
    steepens it, so the slope is a one-number corpus-health canary
    next to ``vocab_growth`` (Heaps) and ``length_tail_index``
    (Pareto tail).

    Exactness: ranks are deterministic (tf desc, token asc — the
    ``top_tokens`` tie-break), both coordinates snap to the shared
    integer-micro ln spec BEFORE the regression sums, and the slope is
    a ratio of exact integers resolved with one signed ``_rhalf`` on
    Python bignums — hash-exact vs the ``_shared_ln_cte`` SQL replay.

    Shape: reuses :func:`~pdf_parser_ray.stages.textstats.q_top_tokens`'s
    wordcount plan (per-batch token partials → ONE ``groupby(token)``
    exchange → sort + limit v), then a driver fold over the ≤ v rows.
    """
    import pandas as pd

    from ..stages.textstats import lnm_micro, q_top_tokens

    top = (
        q_top_tokens(sf_dir, k=int(v))
        .to_pandas()  # ≤ v rows
        .sort_values(["n", "token"], ascending=[False, True], kind="stable")
        .reset_index(drop=True)
    )
    k = len(top)
    sx = sy = sxy = sxx = 0
    for i, n in enumerate(top["n"]):
        x = lnm_micro(i + 1)
        y = lnm_micro(int(n))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    slope = _rhalf(1_000_000 * num, den) if den else 0
    return pd.DataFrame(
        {
            "n_terms": pd.Series([k], dtype=np.int64),
            "slope_micro": pd.Series([slope], dtype=np.int64),
        }
    )


def _sql_zipf_slope(v: int = 256) -> str:
    from ..stages.textstats import _shared_ln_cte

    cte = _shared_ln_cte("(SELECT DISTINCT kint FROM lnargs)", "kint")
    return rf"""
WITH tf AS (
    SELECT token, CAST(COUNT(*) AS BIGINT) AS n
    FROM (SELECT UNNEST(regexp_extract_all(text, '\S+')) AS token
          FROM documents)
    GROUP BY token),
top AS (
    SELECT token, n,
           ROW_NUMBER() OVER (ORDER BY n DESC, token ASC) AS r
    FROM tf ORDER BY n DESC, token ASC LIMIT {v}),
lnargs AS (SELECT CAST(r AS BIGINT) AS kint FROM top UNION SELECT n FROM top),
lns AS (SELECT kint,
               CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE)
                          + CAST(0.5 AS DOUBLE)) AS BIGINT) AS lnm
        FROM {cte} t),
xy AS (SELECT a.lnm AS x, b.lnm AS y
       FROM top
       JOIN lns a ON a.kint = CAST(top.r AS BIGINT)
       JOIN lns b ON b.kint = top.n),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS k,
             SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
             SUM(CAST(x AS HUGEINT) * y) AS sxy,
             SUM(CAST(x AS HUGEINT) * x) AS sxx
      FROM xy)
SELECT CAST(k AS BIGINT) AS n_terms,
       CAST(CASE WHEN k*sxx - sx*sx = 0 THEN 0
                 WHEN k*sxy - sx*sy >= 0
                 THEN (2*1000000*(k*sxy - sx*sy) + (k*sxx - sx*sx))
                      // (2*(k*sxx - sx*sx))
                 ELSE -((2*1000000*(sx*sy - k*sxy) + (k*sxx - sx*sx))
                        // (2*(k*sxx - sx*sx))) END AS BIGINT) AS slope_micro
FROM s
"""


# ---------------------------------------------------------------------------
# basket_lift — association-rule lift over co-purchased part pairs
# ---------------------------------------------------------------------------

def q_basket_lift(sf_dir: str, min_support: int = 2, n_buckets: int = 16):
    """Association-rule LIFT for part pairs co-purchased in at least
    ``min_support`` orders: ``lift = P(a,b) / (P(a)·P(b)) =
    n_ab·N / (n_a·n_b)`` in ppm — the normalization that separates
    "bought together because both are popular" from genuine affinity,
    extending :func:`~pdf_parser_ray.relational.ops.q_copurchase_pairs`'
    raw support counts into the scored rule mining output. The basket
    universe is the orders table (N = #orders, from footer metadata —
    no scan), so marginals and joints share one probability space.

    Shape — four exchanges, every one on a reduced grain, no
    broadcast: (1) the ``orderkey % B`` basket exchange emits tagged
    cells per bucket (pair counts AND per-part distinct-order counts —
    the same dedup'd basket rows feed both, so parts piggyback on the
    pair exchange for free); (2) a single-int64 packed-key groupby
    (kind in bit 62, partkeys < 2³¹ in two 31-bit lanes — a
    multi-column comparator here was the measured chain bottleneck)
    reduces cells globally; (3) pairs rekey by ``part_a`` and join their ``n_a``
    in-bucket against the part cells; (4) pairs rekey by ``part_b``
    for ``n_b`` and the lift read-off. Pairs below ``min_support``
    drop BEFORE exchanges 3–4. The per-pair lift division runs on
    Python bignums over the support-filtered grain (no int64 ceiling
    on ``n_ab·N·10⁶``); everything wider is vectorized.
    """
    import pandas as pd

    n_baskets = _orders_count(sf_dir)
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

    def cells_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        d = g.drop_duplicates(["ok", "pk"])
        j = d.merge(d, on="ok")
        j = j[j["pk_x"] < j["pk_y"]]
        # pack (kind, a, b) into ONE int64 exchange key — kind in bit
        # 62, partkeys below 2³¹ each (the copurchase packing: the
        # multi-column Sort-aggregate comparator was the measured
        # bottleneck of the whole chain at sf0.1)
        pair_key = (
            (j["pk_x"].to_numpy(dtype=np.int64) << 31)
            | j["pk_y"].to_numpy(dtype=np.int64)
        )
        pairs = (
            pd.DataFrame({"cell": pair_key})
            .groupby("cell", sort=False)
            .size()
            .reset_index(name="n")
        )
        parts = d.groupby("pk", sort=False).size().reset_index(name="n")
        cell = np.concatenate(
            [
                pairs["cell"].to_numpy(np.int64),
                (np.int64(1) << 62) | (parts["pk"].to_numpy(np.int64) << 31),
            ]
        )
        n = np.concatenate(
            [pairs["n"].to_numpy(np.int64), parts["n"].to_numpy(np.int64)]
        )
        return pa.table(
            {"cell": cell, "n": n}, schema=pa.schema([("cell", pa.int64()), ("n", pa.int64())])
        )

    # global cell reduction folded INTO the coarse cell exchange
    # (a per-cell-key aggregate here is the tiny-group trap — see
    # q_copurchase_pairs) with the support filter and the part_a rekey
    # applied before anything else ships
    def reduce_rekey_a(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        agg = g.groupby("cell", sort=False)["n"].sum().reset_index()
        cell = agg["cell"].to_numpy(np.int64)
        n = agg["n"].to_numpy(np.int64)
        kind = (cell >> 62) & 1
        a = (cell >> 31) & 0x7FFFFFFF
        bb = cell & 0x7FFFFFFF
        keep = (kind == 1) | ((kind == 0) & (n >= min_support))
        return pa.table(
            {
                "kind": pa.array(kind[keep], pa.int64()),
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(bb[keep], pa.int64()),
                "n": pa.array(n[keep], pa.int64()),
            },
            schema=pa.schema([("kind", pa.int64()), ("a", pa.int64()), ("b", pa.int64()),
                              ("n", pa.int64())]),
        )

    keyed = li.map_batches(prep, batch_format="pyarrow", batch_size=None)
    baskets = exchange([(keyed, "ok")], cells_bucket, n_buckets=n_buckets)
    cells = exchange([(baskets, "cell")], reduce_rekey_a, n_buckets=n_buckets)

    _na_schema = pa.schema(
        [("kind", pa.int64()), ("a", pa.int64()), ("b", pa.int64()),
         ("n", pa.int64()), ("na", pa.int64())]
    )

    def attach_na(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        parts = g[g["kind"] == 1][["a", "n"]].rename(columns={"n": "na"})
        pairs = g[g["kind"] == 0].merge(parts, on="a", how="left")
        parts_out = g[g["kind"] == 1].assign(na=0)
        out = pd.concat(
            [pairs[["kind", "a", "b", "n", "na"]],
             parts_out[["kind", "a", "b", "n", "na"]]],
            ignore_index=True,
        )
        return pa.table(
            {c: pa.array(out[c].to_numpy(np.int64), pa.int64())
             for c in ("kind", "a", "b", "n", "na")},
            schema=_na_schema,
        )

    def rekey_b(b: pa.Table) -> pa.Table:
        kind = b["kind"].to_numpy(zero_copy_only=False)
        key = np.where(
            kind == 0,
            b["b"].to_numpy(zero_copy_only=False),
            b["a"].to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "kind": b["kind"],
                "a": b["a"],
                "b": b["b"],
                "n": b["n"],
                "na": b["na"],
            }
        )

    _out_schema = pa.schema(
        [("part_a", pa.int64()), ("part_b", pa.int64()),
         ("n_orders", pa.int64()), ("n_a", pa.int64()), ("n_b", pa.int64()),
         ("lift_ppm", pa.int64())]
    )

    def finish_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        parts = g[g["kind"] == 1][["a", "n"]].rename(
            columns={"a": "b", "n": "nb"}
        )
        pairs = g[g["kind"] == 0].merge(parts, on="b", how="left")
        lift = [
            _rhalf(int(nab) * n_baskets * 1_000_000, int(na) * int(nb))
            for nab, na, nb in zip(pairs["n"], pairs["na"], pairs["nb"])
        ]
        return pa.table(
            {
                "part_a": pa.array(pairs["a"].to_numpy(np.int64), pa.int64()),
                "part_b": pa.array(pairs["b"].to_numpy(np.int64), pa.int64()),
                "n_orders": pa.array(pairs["n"].to_numpy(np.int64), pa.int64()),
                "n_a": pa.array(pairs["na"].to_numpy(np.int64), pa.int64()),
                "n_b": pa.array(pairs["nb"].to_numpy(np.int64), pa.int64()),
                "lift_ppm": pa.array(lift, pa.int64()),
            },
            schema=_out_schema,
        )

    with_na = exchange([(cells, "a")], attach_na, n_buckets=n_buckets).map_batches(
        rekey_b, batch_format="pyarrow"
    )
    return exchange([(with_na, "key")], finish_bucket, n_buckets=n_buckets)


def _orders_count(sf_dir: str) -> int:
    """Total basket count (= orders rows) from Parquet footer metadata
    — exact by the format spec, no scan; falls back to ``count()``."""
    import os

    path = os.path.join(sf_dir, "orders.parquet")
    if os.path.isfile(path):
        import pyarrow.parquet as pq

        return pq.ParquetFile(path).metadata.num_rows
    return read_table(sf_dir, "orders", ["o_orderkey"]).count()


_SQL_BASKET_LIFT = """
WITH d AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem),
pairs AS (
    SELECT a.pk AS part_a, b.pk AS part_b, CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM d a JOIN d b ON a.ok = b.ok AND a.pk < b.pk
    GROUP BY 1, 2),
parts AS (SELECT pk, CAST(COUNT(*) AS BIGINT) AS np FROM d GROUP BY 1),
nb AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM orders)
SELECT p.part_a, p.part_b, p.n_orders, pa.np AS n_a, pb.np AS n_b,
       CAST((2 * CAST(p.n_orders AS HUGEINT) * nb.n * 1000000
             + CAST(pa.np AS HUGEINT) * pb.np)
            // (2 * CAST(pa.np AS HUGEINT) * pb.np) AS BIGINT) AS lift_ppm
FROM pairs p
JOIN parts pa ON pa.pk = p.part_a
JOIN parts pb ON pb.pk = p.part_b, nb
WHERE p.n_orders >= 2
"""


# ---------------------------------------------------------------------------
# revenue_runs_test — Wald–Wolfowitz randomness check on the daily series
# ---------------------------------------------------------------------------

def q_revenue_runs_test(sf_dir: str):
    """Wald–Wolfowitz runs test over the daily revenue series: sign
    each day above/below the series median (ties dropped, the classic
    convention), count the runs of equal sign, and report the expected
    run count ``1 + 2·n₁·n₂/(n₁+n₂)`` under randomness — far fewer
    runs than expected means the series is trending/sticky (regime
    shifts CUSUM will localize), far more means oscillation. The
    sequential-independence monitor next to
    :func:`q_revenue_cusum`'s level monitor, sharing its day-grain
    exchange via :func:`_daily_revenue`.

    Exactness: the median is the LOWER median (order statistic at
    index ⌊(n−1)/2⌋ — a value from the data, no averaging), signs and
    run boundaries are integer comparisons, and the expected-runs
    read-off is one ``_rhalf`` on Python bignums. Ties (days exactly
    at the median) are excluded on both sides.

    Shape: ONE day-grain exchange; the fold runs driver-side over the
    calendar-bounded series. Single-row output.
    """
    import pandas as pd

    series = _daily_revenue(sf_dir)
    revs = [int(v) for v in series["rev"]]
    n1 = n2 = runs = 0
    if revs:
        med = sorted(revs)[(len(revs) - 1) // 2]
        prev = 0
        for rev in revs:  # series is day-ordered
            if rev == med:
                continue
            sgn = 1 if rev > med else -1
            if sgn != prev:
                runs += 1
                prev = sgn
            if sgn == 1:
                n1 += 1
            else:
                n2 += 1
    expected = (
        1_000_000 + _rhalf(2_000_000 * n1 * n2, n1 + n2) if n1 + n2 else 0
    )
    return pd.DataFrame(
        {
            "n_above": pd.Series([n1], dtype=np.int64),
            "n_below": pd.Series([n2], dtype=np.int64),
            "n_runs": pd.Series([runs], dtype=np.int64),
            "expected_runs_micro": pd.Series([expected], dtype=np.int64),
        }
    )


_SQL_REVENUE_RUNS = """
WITH d AS (
    SELECT CAST(date_diff('day', DATE '1970-01-01',
                          CAST(o_orderdate AS DATE)) AS BIGINT) AS day,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS rev
    FROM orders GROUP BY 1),
med AS (SELECT rev AS m FROM d ORDER BY rev
        LIMIT 1 OFFSET ((SELECT COUNT(*) FROM d) - 1) // 2),
s AS (SELECT day, CASE WHEN rev > m THEN 1 ELSE -1 END AS sgn
      FROM d, med WHERE rev <> m),
r AS (SELECT sgn, LAG(sgn) OVER (ORDER BY day) AS prev FROM s),
agg AS (
    SELECT CAST(COALESCE(SUM(CASE WHEN sgn = 1 THEN 1 END), 0) AS BIGINT) AS n1,
           CAST(COALESCE(SUM(CASE WHEN sgn = -1 THEN 1 END), 0) AS BIGINT) AS n2,
           CAST(COALESCE(SUM(CASE WHEN prev IS NULL OR prev <> sgn
                               THEN 1 END), 0) AS BIGINT) AS runs
    FROM r)
SELECT n1 AS n_above, n2 AS n_below, runs AS n_runs,
       CAST(CASE WHEN n1 + n2 = 0 THEN 0
                 ELSE 1000000 + (2 * 2000000 * n1 * n2 + (n1 + n2))
                                // (2 * (n1 + n2)) END AS BIGINT)
           AS expected_runs_micro
FROM agg
"""


# ---------------------------------------------------------------------------
# customer_concentration_hhi — per-year Herfindahl index of customer spend
# ---------------------------------------------------------------------------

def q_customer_concentration_hhi(sf_dir: str, n_buckets: int = 32):
    """Per-year Herfindahl–Hirschman concentration of customer spend:
    ``HHI = Σ_c (spend_c / total)²`` in ppm — 1/n for perfectly even
    spend, 10⁶ for a single whale; the revenue-concentration monitor
    next to :func:`~pdf_parser_ray.relational.analytics2.q_spend_gini`'s
    inequality curve (HHI is the moment-based sibling the
    antitrust/risk literature uses, and it needs no global sort).

    Exactness: per-(year, customer) spend totals are exact cents;
    ``Σ spend²`` ships as two int64 limbs (hi = v>>31, lo = v&(2³¹−1))
    — the ``revenue_trend`` transport, since a whale customer-year
    squared passes 2⁶³ near 10⁹ cents — and the ppm read-off is one
    ``_rhalf`` against ``total²`` on Python bignums.

    Shape: per-batch (year, custkey → Σcents) partials → ONE coarse
    ``custkey % B`` bucket exchange where each bucket finishes its
    customers' yearly totals vectorized and pre-reduces to per-year
    (n, Σrev, Σrev² limbs) cells → a tiny year-grain exchange → the
    ppm fold over ≤ #years rows driver-side. Customer payloads never
    ship; the wire carries fixed-width partials.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from .analytics2 import _year_of

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        yr = _year_of(_ts_us(batch["o_orderdate"]))
        t = pa.table({"ck": batch["o_custkey"].cast(pa.int64()), "yr": yr, "rev": _cents(batch["o_totalprice"])})
        return combine(t, ["ck", "yr"], "sum")

    def cells_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        per = (
            g.groupby(["ck", "yr"], sort=False)["rev"].sum().reset_index()
        )
        rev = per["rev"].to_numpy(np.int64)
        sq = rev.astype(object) ** 2  # Python ints: immune to overflow
        per = per.assign(
            sq_hi=np.array([int(v) >> 31 for v in sq], np.int64),
            sq_lo=np.array([int(v) & ((1 << 31) - 1) for v in sq], np.int64),
            n=np.ones(len(per), np.int64),
        )
        agg = (
            per.groupby("yr", sort=False)
            .agg(
                n=("n", "sum"),
                rev=("rev", "sum"),
                sq_hi=("sq_hi", "sum"),
                sq_lo=("sq_lo", "sum"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "yr": pa.array(agg["yr"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(agg["rev"].to_numpy(np.int64), pa.int64()),
                "sq_hi": pa.array(agg["sq_hi"].to_numpy(np.int64), pa.int64()),
                "sq_lo": pa.array(agg["sq_lo"].to_numpy(np.int64), pa.int64()),
            }
        )

    keyed = orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
    cells = (
        exchange([(keyed, "ck")], cells_bucket, n_buckets=n_buckets)
        .groupby("yr")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("rev", alias_name="rev"),
            Sum("sq_hi", alias_name="sq_hi"),
            Sum("sq_lo", alias_name="sq_lo"),
        )
        .to_pandas()  # ≤ #years rows
        .sort_values("yr", kind="stable")
        .reset_index(drop=True)
    )
    hhi = []
    for _, r in cells.iterrows():
        total = int(r["rev"])
        sq = (int(r["sq_hi"]) << 31) + int(r["sq_lo"])
        hhi.append(_rhalf(1_000_000 * sq, total * total) if total else 0)
    return pd.DataFrame(
        {
            "o_year": cells["yr"].astype(np.int64),
            "n_customers": cells["n"].astype(np.int64),
            "hhi_ppm": pd.Series(hhi, dtype=np.int64),
        }
    )


_SQL_HHI = """
WITH cy AS (
    SELECT CAST(year(o_orderdate) AS BIGINT) AS yr, o_custkey,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS rev
    FROM orders GROUP BY 1, 2),
y AS (
    SELECT yr, CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(rev) AS HUGEINT) AS total,
           SUM(CAST(rev AS HUGEINT) * rev) AS sq
    FROM cy GROUP BY yr)
SELECT yr AS o_year, n AS n_customers,
       CAST((2 * 1000000 * sq + total * total)
            // (2 * total * total) AS BIGINT) AS hhi_ppm
FROM y
"""


# ---------------------------------------------------------------------------
# winsorized_mean_price — clamp-the-tails sibling of the trimmed mean
# ---------------------------------------------------------------------------

def q_winsorized_mean_price(sf_dir: str, winsor_permille: int = 50):
    """Per-order-year 5%-WINSORIZED mean of the order total: the k
    most extreme values at each end are CLAMPED to the boundary order
    statistics instead of dropped — the robust location estimate that
    keeps n constant (so it composes with per-group weights where the
    trimmed mean's shrinking denominator does not), completing the
    tail-handling pair next to
    :func:`~pdf_parser_ray.relational.analytics2.q_trimmed_mean_price`.

    Exactness: clamping is order-statistics arithmetic on the same
    per-year VALUE-COUNT summary the trimmed mean folds — bounds are
    the order statistics at 0-based index ``k`` and ``n−1−k``
    (``k = ⌊n·permille/1000⌋``), the winsorized sum is one vectorized
    ``clip`` over the histogram, and the mean one integer floor
    division, mirroring the trimmed mean's convention — hash-exact
    against a row_number window twin.

    Shape: per-batch (year, cents, cnt) partials → ONE
    ``groupby(year)`` exchange carrying pre-aggregated fixed-width
    rows; each year-task folds its histogram vectorized.
    """
    import pandas as pd

    orders = read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    from .analytics2 import _year_of

    def partial(batch: pa.Table) -> pa.Table:
        y = _year_of(_ts_us(batch["o_orderdate"]))
        cents = _cents(batch["o_totalprice"])
        t = pa.table({"o_year": y, "cents": cents, "cnt": np.ones(len(y), np.int64)})
        return combine(t, ["o_year", "cents"], "sum")

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=True)["cnt"].sum()
        vals = h.index.to_numpy(np.int64)
        cnt = h.to_numpy(np.int64)
        n = int(cnt.sum())
        k = n * winsor_permille // 1000
        cum = np.cumsum(cnt)
        lo = int(vals[np.searchsorted(cum, k, side="right")])
        hi = int(vals[np.searchsorted(cum, n - 1 - k, side="right")])
        wsum = int((np.clip(vals, lo, hi) * cnt).sum())
        return pa.table(
            {
                "o_year": pa.array([int(g["o_year"].iloc[0])], pa.int64()),
                "n_orders": pa.array([n], pa.int64()),
                "n_winsorized": pa.array([k], pa.int64()),
                "winsorized_mean_cents": pa.array(
                    [wsum // n if n else 0], pa.int64()
                ),
            }
        )

    return (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("o_year")
        .map_groups(finish, batch_format="pandas")
    )


_SQL_WINSORIZED_MEAN = """
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
b AS (
    SELECT r.o_year,
           MAX(CASE WHEN rn = k.k + 1 THEN cents END) AS lo,
           MAX(CASE WHEN rn = k.n - k.k THEN cents END) AS hi
    FROM r JOIN k USING (o_year) GROUP BY 1)
SELECT r.o_year,
       CAST(MAX(k.n) AS BIGINT) AS n_orders,
       CAST(MAX(k.k) AS BIGINT) AS n_winsorized,
       CAST(CAST(SUM(LEAST(GREATEST(cents, b.lo), b.hi)) AS HUGEINT)
            // MAX(k.n) AS BIGINT) AS winsorized_mean_cents
FROM r JOIN k USING (o_year) JOIN b ON b.o_year = r.o_year
GROUP BY r.o_year
"""


# ---------------------------------------------------------------------------
# brand_momentum — month-over-month revenue movers per brand
# ---------------------------------------------------------------------------

def q_brand_momentum(sf_dir: str):
    """Month-over-month revenue momentum per part brand: each brand's
    shipped revenue in the corpus's LAST calendar month vs the month
    before, with the relative change in ppm — the "top movers" board
    a freshness monitor renders (a brand that halves between the two
    most recent months is a supply or template problem the
    whole-history trend lines smooth away).

    Exactness: revenue is the exact integer ``cents × (100 − disc)``
    convention of ``brand_revenue``; the two reference months derive
    from the GLOBAL max ship month; the ppm change is one signed
    ``_rhalf`` on bignums, 0 when the prior month is empty (flagged
    by ``rev_prev_cents2 = 0``). Missing brand-months count 0.

    Shape: per-batch (partkey, month → Σrev) partials under the
    ``brand_revenue`` keyed join (probe side ships ≤ distinct
    (partkey, recent-month) pairs per block — months outside the
    final two are dropped BEFORE the join), then a tiny
    (brand, month) groupby and a ≤ #brands driver fold.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    li = read_table(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    last_m = _lineitem_max_month(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        month = _month_of(_ts_us(batch["l_shipdate"]))
        keep = month >= last_m - 1
        price = _cents(batch["l_extendedprice"]).to_numpy(zero_copy_only=False)
        disc = _cents(batch["l_discount"]).to_numpy(zero_copy_only=False)
        t = pa.table(
            {"l_partkey": batch["l_partkey"].cast(pa.int64()), "month": month, "rev": price * (100 - disc)}
        ).filter(keep)
        return combine(t, ["l_partkey", "month"], "sum")

    joined = (
        keyed_join(
            li.map_batches(prep, batch_format="pyarrow", batch_size=None),
            sf_dir,
            "part",
            fact_key="l_partkey",
            dim_key="p_partkey",
            cols=["p_brand"],
        )
        .groupby(["p_brand", "month"])
        .aggregate(Sum("rev", alias_name="rev"))
        .to_pandas()  # ≤ #brands × 2 rows
    )
    piv: dict[str, list[int]] = {}
    for b, m, r in zip(joined["p_brand"], joined["month"], joined["rev"]):
        cur = piv.setdefault(str(b), [0, 0])
        cur[int(m) - (last_m - 1)] += int(r)
    brands = sorted(piv)
    prev = [piv[b][0] for b in brands]
    last = [piv[b][1] for b in brands]
    mom = [
        _rhalf(1_000_000 * (lv - pv), pv) if pv else 0
        for lv, pv in zip(last, prev)
    ]
    return pd.DataFrame(
        {
            "p_brand": brands,
            "rev_prev_cents2": pd.Series(prev, dtype=np.int64),
            "rev_last_cents2": pd.Series(last, dtype=np.int64),
            "mom_ppm": pd.Series(mom, dtype=np.int64),
        }
    )


def _month_of(us: np.ndarray) -> np.ndarray:
    """µs since epoch → linear month index (year·12 + month−1)."""
    return (
        us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        + 1970 * 12
    )


def _lineitem_max_month(sf_dir: str) -> int:
    """Global max ship month (linear index) from footer statistics
    when present (no scan), else a column-pruned Max aggregate."""
    import os

    path = os.path.join(sf_dir, "lineitem.parquet")
    if os.path.isfile(path):
        from ..stages.zorder import _footer_max

        stats = _footer_max(path, ["l_shipdate"])
        if stats is not None:
            mx = np.array([np.datetime64(stats[0], "us")], dtype="datetime64[us]")
            return int(_month_of(mx.astype(np.int64))[0])
    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "lineitem", ["l_shipdate"])

    def to_m(b: pa.Table) -> pa.Table:
        return pa.table(
            {"m": pa.array(_month_of(_ts_us(b["l_shipdate"])), pa.int64())}
        )

    row = ds.map_batches(to_m, batch_format="pyarrow", batch_size=None).aggregate(
        Max("m")
    )
    return int(row["max(m)"])


_SQL_BRAND_MOMENTUM = """
WITH lm AS (
    SELECT MAX(CAST(year(l_shipdate) AS BIGINT) * 12
               + CAST(month(l_shipdate) AS BIGINT) - 1) AS m
    FROM lineitem),
r AS (
    SELECT p_brand,
           CAST(year(l_shipdate) AS BIGINT) * 12
               + CAST(month(l_shipdate) AS BIGINT) - 1 AS month,
           CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
                    * (100 - CAST(ROUND(l_discount*100) AS BIGINT)))
                AS BIGINT) AS rev
    FROM lineitem JOIN part ON l_partkey = p_partkey, lm
    WHERE CAST(year(l_shipdate) AS BIGINT) * 12
          + CAST(month(l_shipdate) AS BIGINT) - 1 >= lm.m - 1
    GROUP BY 1, 2),
p AS (
    SELECT p_brand,
           CAST(COALESCE(SUM(CASE WHEN month = lm.m - 1 THEN rev END), 0)
                AS BIGINT) AS rev_prev_cents2,
           CAST(COALESCE(SUM(CASE WHEN month = lm.m THEN rev END), 0)
                AS BIGINT) AS rev_last_cents2
    FROM r, lm GROUP BY 1)
SELECT p_brand, rev_prev_cents2, rev_last_cents2,
       CAST(CASE WHEN rev_prev_cents2 = 0 THEN 0
                 WHEN rev_last_cents2 >= rev_prev_cents2
                 THEN (2 * 1000000
                       * (CAST(rev_last_cents2 AS HUGEINT) - rev_prev_cents2)
                       + rev_prev_cents2) // (2 * rev_prev_cents2)
                 ELSE -((2 * 1000000
                         * (CAST(rev_prev_cents2 AS HUGEINT) - rev_last_cents2)
                         + rev_prev_cents2) // (2 * rev_prev_cents2)) END
            AS BIGINT) AS mom_ppm
FROM p
"""


# ---------------------------------------------------------------------------
# user_stickiness — months-active distribution of the user base
# ---------------------------------------------------------------------------

def q_user_stickiness(sf_dir: str, n_buckets: int = 32):
    """Stickiness profile of the event user base: for each count m,
    how many users were active in exactly m distinct calendar months —
    the retention histogram behind DAU/MAU-style engagement ratios
    (a base of one-month users is acquisition churning out; a fat
    right tail is habit), with each cohort's share of users in ppm.

    Shape: per-batch distinct (user, month) pairs → ONE coarse
    ``user % B`` bucket exchange where each bucket resolves its
    users' distinct-month counts vectorized and pre-reduces to
    (m → n_users) cells → a ≤ #calendar-months-cell groupby → driver
    ppm fold on bignums.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        month = (
            _ts_us(batch["ts"]).astype("datetime64[us]").astype("datetime64[M]")
            .astype(np.int64)
        )
        df = pd.DataFrame({"uid": uid, "m": month}).drop_duplicates()
        return pa.table(
            {
                "uid": pa.array(df["uid"].to_numpy(np.int64), pa.int64()),
                "m": pa.array(df["m"].to_numpy(np.int64), pa.int64()),
            }
        )

    def cells(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        per = g.drop_duplicates(["uid", "m"]).groupby("uid", sort=False).size()
        agg = per.value_counts().sort_index()
        return pa.table(
            {
                "months_active": pa.array(
                    agg.index.to_numpy(np.int64), pa.int64()
                ),
                "n_users": pa.array(agg.to_numpy(np.int64), pa.int64()),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    dist = (
        exchange([(keyed, "uid")], cells, n_buckets=n_buckets)
        .groupby("months_active")
        .aggregate(Sum("n_users", alias_name="n_users"))
        .to_pandas()  # ≤ #calendar-months rows
        .sort_values("months_active", kind="stable")
        .reset_index(drop=True)
    )
    total = int(dist["n_users"].sum())
    share = [
        _rhalf(1_000_000 * int(v), total) if total else 0
        for v in dist["n_users"]
    ]
    return pd.DataFrame(
        {
            "months_active": dist["months_active"].astype(np.int64),
            "n_users": dist["n_users"].astype(np.int64),
            "share_ppm": pd.Series(share, dtype=np.int64),
        }
    )


_SQL_STICKINESS = """
WITH um AS (
    SELECT DISTINCT user_id,
           CAST(year(ts) AS BIGINT) * 12 + CAST(month(ts) AS BIGINT) - 1 AS m
    FROM events),
per AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS ma FROM um GROUP BY 1),
d AS (SELECT ma AS months_active, CAST(COUNT(*) AS BIGINT) AS n_users
      FROM per GROUP BY 1)
SELECT months_active, n_users,
       CAST((2 * 1000000 * CAST(n_users AS HUGEINT) + SUM(n_users) OVER ())
            // (2 * SUM(n_users) OVER ()) AS BIGINT) AS share_ppm
FROM d
"""


# ---------------------------------------------------------------------------
# new_vs_returning_revenue — growth accounting of yearly revenue
# ---------------------------------------------------------------------------

def q_new_vs_returning_revenue(sf_dir: str, n_buckets: int = 32):
    """Growth accounting: each year's order revenue split into NEW
    customers (first-ever order falls in that year) vs RETURNING —
    the decomposition that distinguishes expansion (new logos) from
    retention (repeat spend) long before a churn model exists.

    Shape: per-batch (custkey → first-year min, per-year spend) —
    both facts ride ONE coarse ``custkey % B`` bucket exchange (the
    same rows carry the min-year partial and the (year, spend)
    cells); each bucket resolves first-year per customer and
    pre-reduces to (year, is_new → rev, n_customers) cells; a tiny
    (year, is_new) groupby merges buckets and the ppm share folds
    driver-side on bignums over ≤ 2 × #years rows.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from .analytics2 import _year_of

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        yr = _year_of(_ts_us(batch["o_orderdate"]))
        t = pa.table({"ck": batch["o_custkey"].cast(pa.int64()), "yr": yr, "rev": _cents(batch["o_totalprice"])})
        return combine(t, ["ck", "yr"], "sum")

    def cells(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        per = g.groupby(["ck", "yr"], sort=False)["rev"].sum().reset_index()
        first = per.groupby("ck", sort=False)["yr"].transform("min")
        per = per.assign(
            is_new=(per["yr"] == first).astype(np.int64),
            n=np.ones(len(per), np.int64),
        )
        agg = (
            per.groupby(["yr", "is_new"], sort=False)
            .agg(rev=("rev", "sum"), n=("n", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "o_year": pa.array(agg["yr"].to_numpy(np.int64), pa.int64()),
                "is_new": pa.array(agg["is_new"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(agg["rev"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    keyed = orders.map_batches(prep, batch_format="pyarrow", batch_size=None)
    cells_df = (
        exchange([(keyed, "ck")], cells, n_buckets=n_buckets)
        .groupby(["o_year", "is_new"])
        .aggregate(Sum("rev", alias_name="rev"), Sum("n", alias_name="n"))
        .to_pandas()  # ≤ 2 × #years rows
        .sort_values(["o_year", "is_new"], kind="stable")
        .reset_index(drop=True)
    )
    year_tot = cells_df.groupby("o_year")["rev"].sum().to_dict()
    share = [
        _rhalf(1_000_000 * int(r), int(year_tot[y])) if year_tot[y] else 0
        for y, r in zip(cells_df["o_year"], cells_df["rev"])
    ]
    return pd.DataFrame(
        {
            "o_year": cells_df["o_year"].astype(np.int64),
            "is_new": cells_df["is_new"].astype(np.int64),
            "n_customers": cells_df["n"].astype(np.int64),
            "rev_cents": cells_df["rev"].astype(np.int64),
            "rev_share_ppm": pd.Series(share, dtype=np.int64),
        }
    )


_SQL_NEW_VS_RETURNING = """
WITH cy AS (
    SELECT o_custkey, CAST(year(o_orderdate) AS BIGINT) AS yr,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS rev
    FROM orders GROUP BY 1, 2),
f AS (SELECT o_custkey, MIN(yr) AS fy FROM cy GROUP BY 1),
c AS (
    SELECT cy.yr AS o_year,
           CASE WHEN cy.yr = f.fy THEN 1 ELSE 0 END AS is_new,
           CAST(COUNT(*) AS BIGINT) AS n_customers,
           CAST(SUM(cy.rev) AS BIGINT) AS rev_cents
    FROM cy JOIN f USING (o_custkey) GROUP BY 1, 2)
SELECT o_year, CAST(is_new AS BIGINT) AS is_new, n_customers, rev_cents,
       CAST((2 * 1000000 * CAST(rev_cents AS HUGEINT)
             + SUM(rev_cents) OVER (PARTITION BY o_year))
            // (2 * SUM(rev_cents) OVER (PARTITION BY o_year)) AS BIGINT)
           AS rev_share_ppm
FROM c
"""


# ---------------------------------------------------------------------------
# user_activity_streaks — gaps-and-islands longest consecutive-day runs
# ---------------------------------------------------------------------------

def q_user_activity_streaks(sf_dir: str, n_buckets: int = 32):
    """Longest consecutive-DAY activity streak per user — the classic
    gaps-and-islands shape (islands keyed by ``day − rank``), the
    habit metric retention teams track next to
    :func:`q_user_stickiness`'s coarse months-active histogram: a user
    active 20 scattered days differs from one active 20 days straight.

    Exactness: pure integer day arithmetic; the island key is exact
    and ties are impossible (days are distinct per user after dedup).

    Shape: per-batch distinct (user, day) pairs → ONE coarse
    ``user % B`` bucket exchange; each bucket sorts its pairs once and
    resolves every user's islands VECTORIZED (rank via cumcount, one
    groupby over island keys) — no per-user Python loop. Output is
    user-grain (one row per active user), produced directly by the
    bucket tasks.
    """
    import pandas as pd

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        day = _ts_us(batch["ts"]) // _DAY_US
        df = pd.DataFrame({"uid": uid, "day": day}).drop_duplicates()
        return pa.table(
            {
                "uid": pa.array(df["uid"].to_numpy(np.int64), pa.int64()),
                "day": pa.array(df["day"].to_numpy(np.int64), pa.int64()),
            }
        )

    def islands(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        d = (
            g.drop_duplicates(["uid", "day"])
            .sort_values(["uid", "day"], kind="stable")
            .reset_index(drop=True)
        )
        rank = d.groupby("uid", sort=False).cumcount()
        d = d.assign(grp=d["day"].to_numpy(np.int64) - rank.to_numpy(np.int64))
        runs = (
            d.groupby(["uid", "grp"], sort=False)
            .size()
            .reset_index(name="len")
        )
        per = (
            runs.groupby("uid", sort=False)["len"]
            .agg(n_active_days="sum", max_streak_days="max")
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(per["uid"].to_numpy(np.int64), pa.int64()),
                "n_active_days": pa.array(
                    per["n_active_days"].to_numpy(np.int64), pa.int64()
                ),
                "max_streak_days": pa.array(
                    per["max_streak_days"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    keyed = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    return exchange([(keyed, "uid")], islands, n_buckets=n_buckets)


_SQL_STREAKS = """
WITH ud AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events),
r AS (SELECT user_id, d,
             row_number() OVER (PARTITION BY user_id ORDER BY d) AS rn
      FROM ud),
g AS (SELECT user_id,
             CAST(date_diff('day', DATE '1970-01-01', d) AS BIGINT) - rn AS grp
      FROM r),
s AS (SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len
      FROM g GROUP BY 1, 2)
SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_active_days,
       CAST(MAX(len) AS BIGINT) AS max_streak_days
FROM s GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# ship_latency_percentiles — order-to-ship latency profile per priority
# ---------------------------------------------------------------------------

def q_ship_latency_percentiles(
    sf_dir: str, n_buckets: int = 32, budget_bytes: int | None = None
):
    """Order-to-ship latency distribution per order priority: line
    count, min/max, lower-median and p95 days between a line's ship
    date and its order's date — the fulfillment-SLA profile (does
    1-URGENT actually ship faster, and how fat is its tail?), a
    fact-fact join composed with the grouped exact-percentile pattern.

    Exactness: latencies are integer day differences; percentile
    indices are integer order statistics (lower median at 0-based
    ``(n−1)//2``, p95 at ``19·(n−1)//20`` — no float enters); both
    shapes share one oracle.

    Scale shape: lineitem meets orders in one
    :func:`~..core.join.keyed_join` (the (order-day, priority) lookup
    broadcasts into the lineitem scan within budget; an orderkey
    exchange beyond it), each batch then counts its (priority,
    latency) cells, and those ≤ blocks × priorities × latency-domain
    rows reach the driver. The percentile read-off runs on that
    value-count summary.
    """
    lines = keyed_join(
        read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]),
        sf_dir,
        "orders",
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        cols=["o_orderdate", "o_orderpriority"],
        budget_bytes=budget_bytes,
        n_buckets=n_buckets,
    )

    def cells(batch: pa.Table) -> pa.Table:
        ship_day = _ts_us(batch["l_shipdate"]) // _DAY_US
        lat = ship_day - _ts_us(batch["o_orderdate"]) // _DAY_US
        t = pa.table(
            {"pr": batch["o_orderpriority"].cast(pa.string()), "lat": lat, "n": np.ones(len(lat), np.int64)}
        )
        return combine(t, ["pr", "lat"], "sum")

    parts = lines.map_batches(
        cells, batch_format="pyarrow", batch_size=None
    ).to_pandas()  # ≤ blocks × priorities × latency-domain rows
    return _latency_fold(parts)


def _latency_fold(cells: "object"):
    """(pr, lat, n) value-count cells → per-priority profile with
    exact integer order statistics."""
    import pandas as pd

    merged = (
        cells.groupby(["pr", "lat"], sort=False)["n"].sum().reset_index()
    )
    out = []
    for pr, g in merged.groupby("pr", sort=True):
        g = g.sort_values("lat", kind="stable")
        lat = g["lat"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        total = int(n.sum())
        cum = np.cumsum(n)
        med = int(lat[np.searchsorted(cum, (total - 1) // 2, side="right")])
        p95 = int(
            lat[np.searchsorted(cum, 19 * (total - 1) // 20, side="right")]
        )
        out.append((str(pr), total, int(lat.min()), int(lat.max()), med, p95))
    return pd.DataFrame(
        out,
        columns=["o_orderpriority", "n_lines", "min_days", "max_days",
                 "median_days", "p95_days"],
    ).astype(
        {c: np.int64 for c in ("n_lines", "min_days", "max_days",
                               "median_days", "p95_days")}
    )


_SQL_SHIP_LATENCY = """
WITH j AS (
    SELECT o_orderpriority AS pr,
           CAST(date_diff('day', CAST(o_orderdate AS DATE),
                          CAST(l_shipdate AS DATE)) AS BIGINT) AS lat
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
k AS (SELECT pr, CAST(COUNT(*) AS BIGINT) AS n FROM j GROUP BY 1),
r AS (SELECT pr, lat,
             row_number() OVER (PARTITION BY pr ORDER BY lat) AS rn
      FROM j)
SELECT r.pr AS o_orderpriority,
       CAST(MAX(k.n) AS BIGINT) AS n_lines,
       CAST(MIN(lat) AS BIGINT) AS min_days,
       CAST(MAX(lat) AS BIGINT) AS max_days,
       CAST(MAX(CASE WHEN rn = (k.n - 1) // 2 + 1 THEN lat END) AS BIGINT)
           AS median_days,
       CAST(MAX(CASE WHEN rn = 19 * (k.n - 1) // 20 + 1 THEN lat END)
            AS BIGINT) AS p95_days
FROM r JOIN k USING (pr)
GROUP BY r.pr
"""


QUERIES = {
    "revenue_cusum": q_revenue_cusum,
    "user_stickiness": q_user_stickiness,
    "new_vs_returning_revenue": q_new_vs_returning_revenue,
    "user_activity_streaks": q_user_activity_streaks,
    "ship_latency_percentiles": q_ship_latency_percentiles,
    "revenue_runs_test": q_revenue_runs_test,
    "customer_concentration_hhi": q_customer_concentration_hhi,
    "winsorized_mean_price": q_winsorized_mean_price,
    "brand_momentum": q_brand_momentum,
    "customer_survival_km": q_customer_survival_km,
    "event_type_mi": q_event_type_mi,
    "zipf_slope": q_zipf_slope,
    "basket_lift": q_basket_lift,
}

ORACLE_SQL = {
    "revenue_cusum": _SQL_REVENUE_CUSUM,
    "revenue_runs_test": _SQL_REVENUE_RUNS,
    "customer_concentration_hhi": _SQL_HHI,
    "winsorized_mean_price": _SQL_WINSORIZED_MEAN,
    "brand_momentum": _SQL_BRAND_MOMENTUM,
    "user_stickiness": _SQL_STICKINESS,
    "new_vs_returning_revenue": _SQL_NEW_VS_RETURNING,
    "user_activity_streaks": _SQL_STREAKS,
    "ship_latency_percentiles": _SQL_SHIP_LATENCY,
    "customer_survival_km": _sql_survival_km(),
    "event_type_mi": _sql_event_type_mi(),
    "zipf_slope": _sql_zipf_slope(),
    "basket_lift": _SQL_BASKET_LIFT,
}
