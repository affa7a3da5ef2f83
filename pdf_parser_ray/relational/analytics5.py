"""Round-5 session-4 analytics: structural time-series diagnostics
(single-changepoint segmentation, seasonal-forecastability strength)
and customer-value segmentation — exact-integer Ray Data plans with
DuckDB hash-equality oracles, following the house conventions of
:mod:`analytics2`–:mod:`analytics4` (partial-aggregate before the one
exchange, micro / ppm / k$ integer units, bounded driver read-offs on
calendar-bounded grains).

Reference parity note: the reference engine (``/root/reference``, a
single-machine PDF-form parser) has no cross-document analytics; this
module extends the engine-addition surface mandated by the task
(training-data curation / monitoring operators), not a reference op.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.exchange import exchange
from .ops import _cents, _read
from .analytics2 import _ts_us


def _monthly_rev_k(sf_dir: str):
    """The shared month-grain revenue series in whole k$ (cents //
    100000, the ``revenue_autocorr`` unit that keeps every downstream
    moment inside the exact-integer envelope): per-batch
    (epoch-month → Σcents) partials, ONE month-grain ``groupby``
    exchange, and a driver pull of the calendar-bounded result
    (≤ dozens of rows at any corpus size), sorted by month."""
    import pandas as pd
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch["o_orderdate"])
        month = us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
        agg = (
            pd.DataFrame({"month": month, "cents": cents})
            .groupby("month", sort=False)["cents"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "month": pa.array(agg["month"].to_numpy(np.int64), pa.int64()),
                "cents": pa.array(agg["cents"].to_numpy(np.int64), pa.int64()),
            }
        )

    m = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("month")
        .aggregate(Sum("cents", alias_name="cents"))
        .to_pandas()  # bounded: one row per calendar month
        .sort_values("month", kind="stable")
        .reset_index(drop=True)
    )
    m["rev_k"] = m["cents"].to_numpy(np.int64) // 100_000
    return m[["month", "rev_k"]]


# ---------------------------------------------------------------------------
# revenue_changepoint — exact single-split segmentation of monthly revenue
# ---------------------------------------------------------------------------

def q_revenue_changepoint(sf_dir: str):
    """The binary-segmentation first step (the CUSUM family's offline
    counterpart, cf. Scott & Knott 1974 / standard changepoint
    literature): the single month boundary that minimizes the
    two-segment sum of squared errors of the monthly revenue series —
    "when did the level shift?". A monitoring suite runs this after
    :func:`analytics4.q_revenue_cusum` fires to LOCATE the break.

    Exactness: minimizing SSE(k) equals maximizing ``G(k) = S_L²/n_L
    + S_R²/n_R`` (the Σy² term is split-invariant), and the SPEC
    snaps G to the integer ``g(k) = (S_L²·n_R + S_R²·n_L) //
    (n_L·n_R)`` over min-centered k$ values (translation leaves the
    argmax untouched; centering + the k$ unit keep products inside
    HUGEINT/Python-int: centered Σ ≲ 3·10¹⁰ k$ → S²·n ≲ 10²³).
    Argmax ties break toward the earlier month on both sides. The
    reported gain ``g(k*) − S²//T`` is the between-segment sum of
    squares up to the two floor snaps (BIGINT-safe through ≈ sf100;
    rescale the unit past that, the ``revenue_autocorr`` rule).

    Shape: per-batch (month, cents) partials → ONE month-grain
    exchange (≤ calendar-months rows) → exact Python-bigint argmax on
    the bounded driver series. Returns one row: ``(split_month,
    n_left, n_right, mean_left_k, mean_right_k, gain_k2)`` where
    ``split_month`` is the epoch-month index of the LAST month in the
    left segment and the means are floor k$ of the original series."""
    import pandas as pd

    m = _monthly_rev_k(sf_dir)
    months = m["month"].to_numpy(np.int64)
    rev = [int(v) for v in m["rev_k"]]
    t = len(rev)
    if t < 2:
        return pd.DataFrame(
            {
                "split_month": [months[0] if t else 0],
                "n_left": [t], "n_right": [0],
                "mean_left_k": [rev[0] if t else 0], "mean_right_k": [0],
                "gain_k2": [0],
            }
        ).astype(np.int64)
    c0 = min(rev)
    y = [v - c0 for v in rev]
    s_tot = sum(y)
    best = None  # (g, month, k)
    sl = 0
    for k in range(1, t):
        sl += y[k - 1]
        sr = s_tot - sl
        g = (sl * sl * (t - k) + sr * sr * k) // (k * (t - k))
        if best is None or g > best[0]:
            best = (g, int(months[k - 1]), k)
    g_star, split_month, k = best
    sl_orig = sum(rev[:k])
    sr_orig = sum(rev[k:])
    return pd.DataFrame(
        {
            "split_month": [split_month],
            "n_left": [k],
            "n_right": [t - k],
            "mean_left_k": [sl_orig // k],
            "mean_right_k": [sr_orig // (t - k)],
            "gain_k2": [g_star - (s_tot * s_tot) // t],
        }
    ).astype(np.int64)


_SQL_CHANGEPOINT = """
WITH m AS (
    SELECT (year(date_trunc('month', o_orderdate)) - 1970) * 12
           + (month(date_trunc('month', o_orderdate)) - 1) AS mo,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) // 100000
                AS BIGINT) AS rev
    FROM orders GROUP BY 1),
c AS (SELECT MIN(rev) AS c0 FROM m),
s AS (SELECT mo, CAST(rev - (SELECT c0 FROM c) AS HUGEINT) AS y,
             CAST(rev AS HUGEINT) AS rev,
             ROW_NUMBER() OVER (ORDER BY mo) AS rn
      FROM m),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(y) AS st,
             SUM(rev) AS srev FROM s),
cum AS (SELECT mo, rn, SUM(y) OVER (ORDER BY rn) AS sl,
               SUM(rev) OVER (ORDER BY rn) AS slrev
        FROM s),
sc AS (SELECT cum.mo, cum.rn, cum.sl, cum.slrev, t.n, t.st, t.srev,
              (cum.sl*cum.sl*(t.n - cum.rn)
               + (t.st - cum.sl)*(t.st - cum.sl)*cum.rn)
              // (cum.rn*(t.n - cum.rn)) AS g
       FROM cum, t WHERE cum.rn < t.n)
SELECT CAST(mo AS BIGINT) AS split_month,
       CAST(rn AS BIGINT) AS n_left,
       CAST(n - rn AS BIGINT) AS n_right,
       CAST(slrev // rn AS BIGINT) AS mean_left_k,
       CAST((srev - slrev) // (n - rn) AS BIGINT) AS mean_right_k,
       CAST(g - (st*st) // n AS BIGINT) AS gain_k2
FROM sc
ORDER BY g DESC, mo
LIMIT 1
"""


# ---------------------------------------------------------------------------
# seasonal_strength — naive vs seasonal-naive in-sample MAE ratio
# ---------------------------------------------------------------------------

def q_seasonal_strength(sf_dir: str, season: int = 12):
    """Forecastability triage for the monthly revenue series: the
    in-sample mean absolute error of the naive forecast (ŷ_t =
    y_{t−1}) vs the seasonal-naive forecast (ŷ_t = y_{t−12}) — the
    two baselines every forecasting benchmark starts from (the MASE
    scale of Hyndman & Koehler 2006 is exactly the naive MAE).
    ``strength_ppm`` below 10⁶ means last-year-same-month beats
    last-month: the series is seasonal, and a capacity plan keyed on
    month-over-month deltas is reading noise.

    Exactness: absolute differences of whole-k$ monthly totals are
    exact integers; the ratio snaps once at the end:
    ``strength_ppm = (mae12_num·n1·10⁶) // (mae1_num·n12)`` with a
    zero guard on both sides (HUGEINT / Python-int intermediate,
    BIGINT result).

    Shape: the same ONE month-grain exchange as
    :func:`q_revenue_changepoint` and a bounded driver fold."""
    import pandas as pd

    m = _monthly_rev_k(sf_dir)
    rev = [int(v) for v in m["rev_k"]]
    t = len(rev)
    n1 = max(t - 1, 0)
    n12 = max(t - season, 0)
    s1 = sum(abs(rev[i] - rev[i - 1]) for i in range(1, t))
    s12 = sum(abs(rev[i] - rev[i - season]) for i in range(season, t))
    if n1 and n12 and s1:
        strength = (s12 * n1 * 1_000_000) // (s1 * n12)
    else:
        strength = 0
    return pd.DataFrame(
        {
            "n_months": [t],
            "naive_abs_sum_k": [s1],
            "n_naive": [n1],
            "seasonal_abs_sum_k": [s12],
            "n_seasonal": [n12],
            "strength_ppm": [strength],
        }
    ).astype(np.int64)


_SQL_SEASONAL_STRENGTH = """
WITH m AS (
    SELECT (year(date_trunc('month', o_orderdate)) - 1970) * 12
           + (month(date_trunc('month', o_orderdate)) - 1) AS mo,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) // 100000
                AS BIGINT) AS rev
    FROM orders GROUP BY 1),
d AS (SELECT mo, rev,
             lag(rev, 1) OVER (ORDER BY mo) AS p1,
             lag(rev, 12) OVER (ORDER BY mo) AS p12
      FROM m),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS t,
             CAST(COALESCE(SUM(ABS(rev - p1)), 0) AS HUGEINT) AS s1,
             CAST(COUNT(p1) AS HUGEINT) AS n1,
             CAST(COALESCE(SUM(ABS(rev - p12)), 0) AS HUGEINT) AS s12,
             CAST(COUNT(p12) AS HUGEINT) AS n12
      FROM d)
SELECT t AS n_months,
       CAST(s1 AS BIGINT) AS naive_abs_sum_k,
       CAST(n1 AS BIGINT) AS n_naive,
       CAST(s12 AS BIGINT) AS seasonal_abs_sum_k,
       CAST(n12 AS BIGINT) AS n_seasonal,
       CAST(CASE WHEN n1 > 0 AND n12 > 0 AND s1 > 0
                 THEN (s12 * n1 * 1000000) // (s1 * n12)
                 ELSE 0 END AS BIGINT) AS strength_ppm
FROM s
"""


# ---------------------------------------------------------------------------
# rfm_segments — recency/frequency/monetary quartile segmentation
# ---------------------------------------------------------------------------

def q_rfm_segments(sf_dir: str, n_buckets: int = 32):
    """The classic RFM customer-value matrix (Hughes 1994, the CRM
    standard): every customer coded 1–4 on Recency (days since last
    order; code 1 = most recent quartile), Frequency (order count;
    code 4 = most orders) and Monetary (lifetime spend in whole
    dollars; code 4 = top spenders), reported as the ≤ 4³ segment
    cells with customer counts and floor-average spend — the table a
    retention campaign is keyed on ("who is 4-4 on F/M but drifting
    on R?").

    Quartile SPEC (shared verbatim with the oracle): boundaries are
    PERCENTILE_DISC on each dimension — the smallest value whose
    cumulative customer count reaches the integer rank ``(n+3)//4``,
    ``(n+1)//2``, ``(3n+3)//4`` — and ``code = 1 + Σ (v > qᵢ)``
    (ascending-value quartiles, so ties share a code
    deterministically).

    Shape: ONE custkey exchange folds orders to per-customer
    ``(last_day, n_orders, dollars)``; the two consumers of that
    aggregate (the boundary histograms and the coding pass) share a
    SIZE-GATED pin (``pin_fits`` on the orders footer row count ×
    32 B — past budget both passes rebuild upstream). Boundary
    histograms for all three dimensions ride ONE ``(dim, value)``
    exchange whose driver read-off is value-DOMAIN-bounded (calendar
    days / max order count / distinct whole-dollar totals — the
    ``price_percentiles`` argument, not data-bounded), and the global
    anchor day is the R histogram's max support. The coding pass
    emits per-batch cell partials against the broadcast boundaries →
    a ≤ 64-cell exchange."""
    import pandas as pd
    import pyarrow.parquet as pq_
    from ray.data.aggregate import Max, Sum

    from ..core.util import pin_fits

    def build_cust():
        orders = _read(
            sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
        )

        def partial(batch: pa.Table) -> pa.Table:
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            day = _ts_us(batch["o_orderdate"]) // 86_400_000_000
            cents = _cents(batch["o_totalprice"]).to_numpy(zero_copy_only=False)
            agg = (
                pd.DataFrame({"ck": ck, "day": day, "cents": cents})
                .groupby("ck", sort=False)
                .agg(last_day=("day", "max"), n=("day", "size"),
                     cents=("cents", "sum"))
                .reset_index()
            )
            return pa.table(
                {
                    "ck": pa.array(agg["ck"].to_numpy(np.int64), pa.int64()),
                    "last_day": pa.array(agg["last_day"].to_numpy(np.int64)),
                    "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
                    "cents": pa.array(agg["cents"].to_numpy(np.int64), pa.int64()),
                }
            )

        def finish(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "ck": b["ck"],
                    "last_day": b["last_day"],
                    "n": b["n"],
                    "dollars": pa.array(
                        b["cents"].to_numpy(zero_copy_only=False) // 100
                    ),
                }
            )

        return (
            orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby("ck")
            .aggregate(
                Max("last_day", alias_name="last_day"),
                Sum("n", alias_name="n"),
                Sum("cents", alias_name="cents"),
            )
            .map_batches(finish, batch_format="pyarrow", batch_size=None)
        )

    n_orders_rows = pq_.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    if pin_fits(n_orders_rows * 32):
        cust = build_cust().materialize()  # O(customers), spillable
        cust2 = cust
    else:
        cust, cust2 = build_cust(), build_cust()

    def hist_partial(b: pa.Table) -> pa.Table:
        dims, vals, cnts = [], [], []
        for dim, col in ((0, "last_day"), (1, "n"), (2, "dollars")):
            v, c = np.unique(b[col].to_numpy(zero_copy_only=False), return_counts=True)
            dims.append(np.full(len(v), dim, np.int64))
            vals.append(v.astype(np.int64))
            cnts.append(c.astype(np.int64))
        return pa.table(
            {
                "dim": pa.array(np.concatenate(dims)),
                "value": pa.array(np.concatenate(vals)),
                "cnt": pa.array(np.concatenate(cnts)),
            }
        )

    hist = (
        cust.map_batches(hist_partial, batch_format="pyarrow", batch_size=None)
        .groupby(["dim", "value"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # value-domain-bounded: days + counts + dollar levels
        .sort_values(["dim", "value"], kind="stable")
    )

    def bounds(dim: int, transform=None) -> tuple[int, int, int]:
        h = hist[hist["dim"] == dim]
        v = h["value"].to_numpy(np.int64)
        c = h["cnt"].to_numpy(np.int64)
        if transform is not None:
            v = transform(v)
            order = np.argsort(v, kind="stable")
            v, c = v[order], c[order]
        n = int(c.sum())
        cum = np.cumsum(c)
        ranks = ((n + 3) // 4, (n + 1) // 2, (3 * n + 3) // 4)
        return tuple(int(v[np.searchsorted(cum, r)]) for r in ranks)

    max_day = int(hist[hist["dim"] == 0]["value"].max())
    rq = bounds(0, transform=lambda v: max_day - v)
    fq = bounds(1)
    mq = bounds(2)

    def code_cells(b: pa.Table) -> pa.Table:
        rec = max_day - b["last_day"].to_numpy(zero_copy_only=False)
        f = b["n"].to_numpy(zero_copy_only=False)
        m = b["dollars"].to_numpy(zero_copy_only=False)
        rc = 1 + (rec > rq[0]).astype(np.int64) + (rec > rq[1]) + (rec > rq[2])
        fc = 1 + (f > fq[0]).astype(np.int64) + (f > fq[1]) + (f > fq[2])
        mc = 1 + (m > mq[0]).astype(np.int64) + (m > mq[1]) + (m > mq[2])
        agg = (
            pd.DataFrame({"r_code": rc, "f_code": fc, "m_code": mc, "d": m})
            .groupby(["r_code", "f_code", "m_code"], sort=False)["d"]
            .agg(["size", "sum"])
            .reset_index()
        )
        return pa.table(
            {
                "r_code": pa.array(agg["r_code"].to_numpy(np.int64)),
                "f_code": pa.array(agg["f_code"].to_numpy(np.int64)),
                "m_code": pa.array(agg["m_code"].to_numpy(np.int64)),
                "nc": pa.array(agg["size"].to_numpy(np.int64)),
                "dollars": pa.array(agg["sum"].to_numpy(np.int64)),
            }
        )

    cells = (
        cust2.map_batches(code_cells, batch_format="pyarrow", batch_size=None)
        .groupby(["r_code", "f_code", "m_code"])
        .aggregate(Sum("nc", alias_name="n_customers"),
                   Sum("dollars", alias_name="dollars"))
        .to_pandas()  # ≤ 64 cells
    )
    cells["avg_spend_dollars"] = (
        cells["dollars"].to_numpy(np.int64) // cells["n_customers"].to_numpy(np.int64)
    )
    return (
        cells[["r_code", "f_code", "m_code", "n_customers", "avg_spend_dollars"]]
        .astype(np.int64)
        .sort_values(["r_code", "f_code", "m_code"], kind="stable")
        .reset_index(drop=True)
    )


_SQL_RFM = """
WITH cust AS (
    SELECT o_custkey,
           CAST(MAX(date_diff('day', DATE '1970-01-01',
                              CAST(o_orderdate AS DATE))) AS BIGINT) AS last_day,
           CAST(COUNT(*) AS BIGINT) AS f,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) // 100
                AS BIGINT) AS dollars
    FROM orders GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(MAX(last_day) AS BIGINT) AS maxd FROM cust),
rv AS (SELECT maxd - last_day AS v, COUNT(*) AS c FROM cust, t GROUP BY 1),
rc_ AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum FROM rv),
rq AS (SELECT MIN(CASE WHEN cum >= (n+3)//4 THEN v END) AS q1,
              MIN(CASE WHEN cum >= (n+1)//2 THEN v END) AS q2,
              MIN(CASE WHEN cum >= (3*n+3)//4 THEN v END) AS q3
       FROM rc_, t),
fv AS (SELECT f AS v, COUNT(*) AS c FROM cust GROUP BY 1),
fc_ AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum FROM fv),
fq AS (SELECT MIN(CASE WHEN cum >= (n+3)//4 THEN v END) AS q1,
              MIN(CASE WHEN cum >= (n+1)//2 THEN v END) AS q2,
              MIN(CASE WHEN cum >= (3*n+3)//4 THEN v END) AS q3
       FROM fc_, t),
mv AS (SELECT dollars AS v, COUNT(*) AS c FROM cust GROUP BY 1),
mc_ AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum FROM mv),
mq AS (SELECT MIN(CASE WHEN cum >= (n+3)//4 THEN v END) AS q1,
              MIN(CASE WHEN cum >= (n+1)//2 THEN v END) AS q2,
              MIN(CASE WHEN cum >= (3*n+3)//4 THEN v END) AS q3
       FROM mc_, t),
coded AS (
    SELECT 1 + CAST(maxd - last_day > rq.q1 AS BIGINT)
             + CAST(maxd - last_day > rq.q2 AS BIGINT)
             + CAST(maxd - last_day > rq.q3 AS BIGINT) AS r_code,
           1 + CAST(f > fq.q1 AS BIGINT) + CAST(f > fq.q2 AS BIGINT)
             + CAST(f > fq.q3 AS BIGINT) AS f_code,
           1 + CAST(dollars > mq.q1 AS BIGINT) + CAST(dollars > mq.q2 AS BIGINT)
             + CAST(dollars > mq.q3 AS BIGINT) AS m_code,
           dollars
    FROM cust, t, rq, fq, mq)
SELECT r_code, f_code, m_code,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(dollars) // COUNT(*) AS BIGINT) AS avg_spend_dollars
FROM coded
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# event_type_xcorr — lagged cross-correlation between two event-type series
# ---------------------------------------------------------------------------

def q_event_type_xcorr(
    sf_dir: str, type_a: str = "view", type_b: str = "purchase", max_lag: int = 7
):
    """Lead/lag coupling between two event-type daily series — for
    each lag in ``[-max_lag, +max_lag]``, the Pearson moments of
    ``(x_t, y_{t+lag})`` where x is the ``type_a`` daily count and y
    the ``type_b`` daily count over the GAP-FILLED calendar span
    (missing days count 0, so alignment is positional on real
    calendar days, not on observed-row order). The classic "does
    browsing lead buying, and by how many days?" diagnostic: the lag
    whose correlation peaks is the conversion latency at the
    population grain, complementing the per-user
    ``time_to_convert``.

    Output is DIVISION-FREE (the ``revenue_autocorr`` house pattern):
    per lag ``(lag, n_pairs, num, dx, dy, corr_sign)`` with
    ``r = num/√(dx·dy)`` — exact BIGINT integers (daily counts are
    small; moments stay far inside int64 at any corpus scale since
    the series length is calendar-bounded).

    Shape: per-batch (day, type) count partials → ONE ≤ days×2-row
    exchange → a bounded driver fold over the gap-filled span (the
    day span is calendar-bounded at any corpus size)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .ops import _read as _read2

    events = _read2(sf_dir, "events", ["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch["ts"]) // 86_400_000_000
        et = batch["event_type"].to_pandas().to_numpy()
        side = np.where(et == type_a, 0, np.where(et == type_b, 1, -1))
        keep = side >= 0
        agg = (
            pd.DataFrame({"day": day[keep], "side": side[keep]})
            .groupby(["day", "side"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "day": pa.array(agg["day"].to_numpy(np.int64), pa.int64()),
                "side": pa.array(agg["side"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cnt = (
        events.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["day", "side"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: ≤ 2 rows per calendar day
    )
    out_cols = ["lag", "n_pairs", "num", "dx", "dy", "corr_sign"]
    if not len(cnt):
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in out_cols})
    d0, d1 = int(cnt["day"].min()), int(cnt["day"].max())
    span = d1 - d0 + 1
    x = np.zeros(span, dtype=np.int64)
    y = np.zeros(span, dtype=np.int64)
    for _, r in cnt.iterrows():
        (x if r["side"] == 0 else y)[int(r["day"]) - d0] = int(r["n"])
    rows = []
    for lag in range(-max_lag, max_lag + 1):
        lo, hi = max(0, -lag), min(span, span - lag)
        xs = [int(v) for v in x[lo:hi]]
        ys = [int(v) for v in y[lo + lag : hi + lag]]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        sxx = sum(a * a for a in xs)
        syy = sum(b * b for b in ys)
        num = n * sxy - sx * sy
        rows.append(
            (
                lag, n, num, n * sxx - sx * sx, n * syy - sy * sy,
                0 if num == 0 else (1 if num > 0 else -1),
            )
        )
    return pd.DataFrame(rows, columns=out_cols).astype(np.int64)


def _sql_event_type_xcorr(
    type_a: str = "view", type_b: str = "purchase", max_lag: int = 7
) -> str:
    return f"""
WITH c AS (
    SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
                AS BIGINT) AS day,
           CAST(COUNT(*) FILTER (event_type = '{type_a}') AS BIGINT) AS xa,
           CAST(COUNT(*) FILTER (event_type = '{type_b}') AS BIGINT) AS yb
    FROM events WHERE event_type IN ('{type_a}', '{type_b}')
    GROUP BY 1),
bounds AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM c),
days AS (SELECT CAST(UNNEST(range(bounds.d0, bounds.d1 + 1)) AS BIGINT)
                AS day
         FROM bounds),
f AS (SELECT days.day, COALESCE(c.xa, 0) AS x, COALESCE(c.yb, 0) AS y
      FROM days LEFT JOIN c ON c.day = days.day),
lags AS (SELECT CAST(r.range AS BIGINT) AS lag
         FROM range({-max_lag}, {max_lag + 1}) r),
p AS (SELECT l.lag, a.x, b.y
      FROM lags l JOIN f a ON TRUE JOIN f b ON b.day = a.day + l.lag),
s AS (SELECT lag, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x*y) AS BIGINT) AS sxy,
             CAST(SUM(x*x) AS BIGINT) AS sxx,
             CAST(SUM(y*y) AS BIGINT) AS syy
      FROM p GROUP BY lag)
SELECT lag, n AS n_pairs,
       CAST(n*sxy - sx*sy AS BIGINT) AS num,
       CAST(n*sxx - sx*sx AS BIGINT) AS dx,
       CAST(n*syy - sy*sy AS BIGINT) AS dy,
       CAST(CASE WHEN n*sxy - sx*sy = 0 THEN 0
                 WHEN n*sxy - sx*sy > 0 THEN 1 ELSE -1 END
            AS BIGINT) AS corr_sign
FROM s
"""


_SQL_EVENT_TYPE_XCORR = _sql_event_type_xcorr()



# ---------------------------------------------------------------------------
# revenue_acf — autocorrelation function table out to lag 12
# ---------------------------------------------------------------------------

def q_revenue_acf(sf_dir: str, max_lag: int = 12):
    """The full autocorrelation TABLE of monthly revenue (lags
    1..``max_lag``) — :func:`analytics3.q_revenue_autocorr` is the
    lag-1 scalar; forecasting triage reads the whole curve (a spike
    at lag 12 = yearly seasonality, slow decay = trend, cutoffs pick
    the AR order). Same division-free contract per lag: ``(lag,
    n_pairs, num, dx, dy, corr_sign)`` over min-centered whole-k$
    values, pairs POSITIONAL on the month-sorted series, exact
    Python-bigint moments.

    Shape: the shared ONE month-grain exchange
    (:func:`_monthly_rev_k`) and a calendar-bounded driver fold —
    max_lag passes over a ≤ dozens-entry list."""
    import pandas as pd

    m = _monthly_rev_k(sf_dir)
    rev = [int(v) for v in m["rev_k"]]
    t = len(rev)
    c0 = min(rev) if rev else 0
    y = [v - c0 for v in rev]
    rows = []
    for lag in range(1, max_lag + 1):
        xs, ys = y[: t - lag], y[lag:]
        n = len(xs)
        if n:
            sx, sy = sum(xs), sum(ys)
            sxy = sum(a * b for a, b in zip(xs, ys))
            sxx = sum(a * a for a in xs)
            syy = sum(b * b for b in ys)
            num = n * sxy - sx * sy
            dx, dy = n * sxx - sx * sx, n * syy - sy * sy
        else:
            num = dx = dy = 0
        rows.append(
            (lag, n, num, dx, dy,
             0 if num == 0 else (1 if num > 0 else -1))
        )
    return pd.DataFrame(
        rows, columns=["lag", "n_pairs", "num", "dx", "dy", "corr_sign"]
    ).astype(np.int64)


def _sql_revenue_acf(max_lag: int = 12) -> str:
    return f"""
WITH m AS (
    SELECT (year(date_trunc('month', o_orderdate)) - 1970) * 12
           + (month(date_trunc('month', o_orderdate)) - 1) AS mo,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) // 100000
                AS BIGINT) AS rev
    FROM orders GROUP BY 1),
c AS (SELECT MIN(rev) AS c0 FROM m),
s AS (SELECT CAST(rev - (SELECT c0 FROM c) AS HUGEINT) AS yv,
             ROW_NUMBER() OVER (ORDER BY mo) AS rn
      FROM m),
lags AS (SELECT CAST(UNNEST(range(1, {max_lag + 1})) AS BIGINT) AS lag),
p AS (SELECT l.lag, a.yv AS x, b.yv AS y
      FROM lags l JOIN s a ON TRUE JOIN s b ON b.rn = a.rn + l.lag),
t AS (SELECT lag, CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(x) AS sx, SUM(y) AS sy, SUM(x*y) AS sxy,
             SUM(x*x) AS sxx, SUM(y*y) AS syy
      FROM p GROUP BY lag)
SELECT l.lag,
       CAST(COALESCE(t.n, 0) AS BIGINT) AS n_pairs,
       CAST(COALESCE(t.n*t.sxy - t.sx*t.sy, 0) AS BIGINT) AS num,
       CAST(COALESCE(t.n*t.sxx - t.sx*t.sx, 0) AS BIGINT) AS dx,
       CAST(COALESCE(t.n*t.syy - t.sy*t.sy, 0) AS BIGINT) AS dy,
       CAST(CASE WHEN t.n IS NULL OR t.n*t.sxy - t.sx*t.sy = 0 THEN 0
                 WHEN t.n*t.sxy - t.sx*t.sy > 0 THEN 1 ELSE -1 END
            AS BIGINT) AS corr_sign
FROM lags l LEFT JOIN t ON t.lag = l.lag
"""


_SQL_REVENUE_ACF = _sql_revenue_acf()



# ---------------------------------------------------------------------------
# brand_rank_stability — Kendall concordance of brand revenue across halves
# ---------------------------------------------------------------------------

def q_brand_rank_stability(sf_dir: str):
    """How stable is the brand revenue RANKING over time? The ship
    timeline splits at its midpoint month (inclusive left), each half
    folds to per-brand revenue, and the two vectors compare by
    Kendall pair concordance (tau-a; Kendall 1938) — the standard
    rank-stability check a merchandising dashboard runs before
    trusting "top brands" cards, and distribution-free unlike a
    Pearson on the raw revenues. Division-free contract:
    ``(n_brands, n_pairs, concordant, discordant, ties, tau_num)``
    with ``tau_num = C − D`` over brands present in BOTH halves
    (exact integers; a pair is a tie when either half's revenues are
    equal).

    Shape: the month bounds come from footer statistics (no scan;
    aggregate fallback); per-batch partials fold revenue cents per
    (partkey, half) before ONE brand-dimension join-free exchange —
    the partkey→brand map is a dimension-table broadcast (the
    ``brand_momentum`` discipline) — and the ≤ brands×2 result
    resolves pairwise on the driver (brand count is
    dimension-bounded)."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq_
    from ray.data.aggregate import Max, Min, Sum

    def month_of(us: np.ndarray) -> np.ndarray:
        m = us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        return m + 1970 * 12

    path = os.path.join(sf_dir, "lineitem.parquet")
    from ..stages.zorder import _footer_max, _footer_min

    mn = _footer_min(path, ["l_shipdate"]) if os.path.isfile(path) else None
    mx = _footer_max(path, ["l_shipdate"]) if os.path.isfile(path) else None
    if mn is not None and mx is not None:
        lo = int(month_of(np.array([np.datetime64(mn[0], "us")], "datetime64[us]").astype(np.int64))[0])
        hi = int(month_of(np.array([np.datetime64(mx[0], "us")], "datetime64[us]").astype(np.int64))[0])
    else:  # statistics absent: one column-pruned aggregate pass
        ds0 = _read(sf_dir, "lineitem", ["l_shipdate"])

        def to_m(b: pa.Table) -> pa.Table:
            return pa.table(
                {"m": pa.array(month_of(_ts_us(b["l_shipdate"])), pa.int64())}
            )

        row = ds0.map_batches(to_m, batch_format="pyarrow", batch_size=None).aggregate(
            Min("m"), Max("m")
        )
        lo, hi = int(row["min(m)"]), int(row["max(m)"])
    mid = (lo + hi) // 2

    part = pq_.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    )
    pk = part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(pk)
    pk_sorted = pk[order]
    brands = part["p_brand"].to_pandas().to_numpy()[order]

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        key = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        half = (month_of(_ts_us(b["l_shipdate"])) > mid).astype(np.int64)
        br = brands[np.searchsorted(pk_sorted, key)]
        agg = (
            pd.DataFrame({"brand": br, "half": half, "cents": cents})
            .groupby(["brand", "half"], sort=False)["cents"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "brand": pa.array(agg["brand"].tolist(), pa.string()),
                "half": pa.array(agg["half"].to_numpy(np.int64), pa.int64()),
                "cents": pa.array(agg["cents"].to_numpy(np.int64), pa.int64()),
            }
        )

    folded = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["brand", "half"])
        .aggregate(Sum("cents", alias_name="cents"))
        .to_pandas()  # ≤ brands × 2 rows
    )
    wide = folded.pivot_table(
        index="brand", columns="half", values="cents", aggfunc="sum"
    )
    # brands present in both halves; a half with no rows at all (every
    # ship date in one month) leaves none
    both = wide.reindex(columns=[0, 1]).dropna()
    r1 = [int(v) for v in both[0]]
    r2 = [int(v) for v in both[1]]
    nb = len(r1)
    conc = disc = ties = 0
    for i in range(nb):
        for j in range(i + 1, nb):
            s = (r1[i] - r1[j]) * (r2[i] - r2[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
            else:
                ties += 1
    return pd.DataFrame(
        {
            "n_brands": [nb],
            "n_pairs": [nb * (nb - 1) // 2],
            "concordant": [conc],
            "discordant": [disc],
            "ties": [ties],
            "tau_num": [conc - disc],
        }
    ).astype(np.int64)


_SQL_BRAND_RANK_STABILITY = """
WITH b AS (SELECT MIN(CAST(year(l_shipdate) AS BIGINT) * 12
                      + CAST(month(l_shipdate) AS BIGINT) - 1) AS lo,
                  MAX(CAST(year(l_shipdate) AS BIGINT) * 12
                      + CAST(month(l_shipdate) AS BIGINT) - 1) AS hi
           FROM lineitem),
r AS (SELECT p.p_brand AS brand,
             CAST(CAST(year(l.l_shipdate) AS BIGINT) * 12
                  + CAST(month(l.l_shipdate) AS BIGINT) - 1
                  > (b.lo + b.hi) // 2 AS BIGINT) AS half,
             CAST(SUM(CAST(ROUND(l.l_extendedprice*100) AS BIGINT))
                  AS BIGINT) AS cents
      FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey, b
      GROUP BY 1, 2),
w AS (SELECT a.brand, a.cents AS c1, bb.cents AS c2
      FROM r a JOIN r bb ON bb.brand = a.brand
      WHERE a.half = 0 AND bb.half = 1),
p AS (SELECT (CAST(x.c1 AS HUGEINT) - y.c1)
             * (CAST(x.c2 AS HUGEINT) - y.c2) AS s
      FROM w x JOIN w y ON x.brand < y.brand)
SELECT CAST((SELECT COUNT(*) FROM w) AS BIGINT) AS n_brands,
       CAST((SELECT COUNT(*) FROM p) AS BIGINT) AS n_pairs,
       CAST(COALESCE(SUM(CASE WHEN s > 0 THEN 1 END), 0) AS BIGINT)
           AS concordant,
       CAST(COALESCE(SUM(CASE WHEN s < 0 THEN 1 END), 0) AS BIGINT)
           AS discordant,
       CAST(COALESCE(SUM(CASE WHEN s = 0 THEN 1 END), 0) AS BIGINT) AS ties,
       CAST(COALESCE(SUM(CASE WHEN s > 0 THEN 1 END), 0)
            - COALESCE(SUM(CASE WHEN s < 0 THEN 1 END), 0) AS BIGINT)
           AS tau_num
FROM p
"""



# ---------------------------------------------------------------------------
# basket_triples — frequent 3-itemsets over order baskets
# ---------------------------------------------------------------------------

def q_basket_triples(
    sf_dir: str, min_support: int = 2, top_k: int = 100, n_buckets: int = 32
):
    """Frequent 3-itemsets over order baskets — the lattice level
    above :func:`analytics4.q_basket_lift`'s pairs (the Apriori /
    market-basket family, Agrawal & Srikant VLDB'94): every id-ordered
    part triple co-present in ≥ ``min_support`` baskets, top-k by
    (support DESC, then the triple). Pair lift finds affinities;
    triples find BUNDLES — the difference between "printers and ink
    correlate" and "printer+ink+paper is a package".

    Shape: per-batch distinct (order, part) rows → ONE orderkey-bucket
    exchange where each basket expands to its id-ordered triples
    VECTORIZED (two pandas self-merges with ``<`` guards — triple
    count per basket is C(|basket|, 3), bounded by the basket-size
    cap, never corpus-quadratic) and pre-aggregates per bucket → ONE
    triple-key exchange summing supports, filtering, and folding a
    per-bucket top-k → a ≤ B·k driver merge. Part keys ship as three
    int64 columns (no packing: 3×28-bit ids overflow one word at
    sf1000)."""
    import pandas as pd

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def op_rows(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                "p": b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "bucket": pa.array(df["o"].to_numpy() % n_buckets),
                "o": pa.array(df["o"].to_numpy()),
                "p": pa.array(df["p"].to_numpy()),
            }
        )

    def basket_triples(g: pd.DataFrame) -> pa.Table:
        df = g[["o", "p"]].drop_duplicates()
        j = df.merge(df, on="o")
        j = j[j["p_x"] < j["p_y"]]
        j = j.merge(df, on="o")
        j = j[j["p_y"] < j["p"]]
        agg = (
            j.groupby(["p_x", "p_y", "p"], sort=False)
            .size()
            .reset_index(name="n")
        )
        key = (
            agg["p_x"].to_numpy(np.int64) * 1_000_003
            + agg["p_y"].to_numpy(np.int64) * 10_007
            + agg["p"].to_numpy(np.int64)
        )
        return pa.table(
            {
                "tbucket": pa.array(key % n_buckets),
                "p1": pa.array(agg["p_x"].to_numpy(np.int64)),
                "p2": pa.array(agg["p_y"].to_numpy(np.int64)),
                "p3": pa.array(agg["p"].to_numpy(np.int64)),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    def resolve(g: pd.DataFrame) -> pa.Table:
        agg = (
            g.groupby(["p1", "p2", "p3"], sort=False)["n"].sum().reset_index()
        )
        agg = agg[agg["n"] >= min_support]
        top = agg.sort_values(
            ["n", "p1", "p2", "p3"], ascending=[False, True, True, True],
            kind="stable",
        ).head(top_k)
        return pa.table(
            {
                "p1": pa.array(top["p1"].to_numpy(np.int64)),
                "p2": pa.array(top["p2"].to_numpy(np.int64)),
                "p3": pa.array(top["p3"].to_numpy(np.int64)),
                "support": pa.array(top["n"].to_numpy(np.int64)),
            }
        )

    tops = (
        li.map_batches(op_rows, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(basket_triples, batch_format="pandas")
        .groupby("tbucket")
        .map_groups(resolve, batch_format="pandas")
        .to_pandas()  # bounded: ≤ n_buckets·top_k rows
    )
    cols = ["p1", "p2", "p3", "support"]
    if tops.empty:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    return (
        tops.sort_values(
            ["support", "p1", "p2", "p3"], ascending=[False, True, True, True],
            kind="stable",
        )
        .head(top_k)[cols]
        .reset_index(drop=True)
        .astype(np.int64)
    )


def _sql_basket_triples(min_support: int = 2, top_k: int = 100) -> str:
    return f"""
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
t AS (SELECT a.p AS p1, b.p AS p2, c.p AS p3,
             CAST(COUNT(*) AS BIGINT) AS support
      FROM op a JOIN op b ON b.o = a.o AND a.p < b.p
                JOIN op c ON c.o = a.o AND b.p < c.p
      GROUP BY 1, 2, 3
      HAVING COUNT(*) >= {min_support})
SELECT p1, p2, p3, support FROM t
ORDER BY support DESC, p1, p2, p3
LIMIT {top_k}
"""


_SQL_BASKET_TRIPLES = _sql_basket_triples()



# ---------------------------------------------------------------------------
# order_price_cvm — two-sample Cramér–von Mises criterion
# ---------------------------------------------------------------------------

def q_order_price_cvm(sf_dir: str):
    """Two-sample Cramér–von Mises criterion between expedited and
    regular order-total distributions — the INTEGRATED-gap member of
    the drift family (:func:`analytics2.q_order_price_drift` is the
    max gap, :func:`analytics2.q_order_price_ranksum` the location
    shift; CvM catches broad shape drift a single KS crossing point
    understates). Same samples, same value-count-summary discipline.

    Integer SPEC (shared verbatim with the oracle): per distinct
    value, the CDF gap snaps once to ppm — ``d_ppm(v) = |cum_a·n_b −
    cum_b·n_a|·10⁶ // (n_a·n_b)`` — and the criterion is its pooled
    second moment ``cvm_num = Σ d_ppm(v)²·(cnt_a+cnt_b)(v)`` with
    ``t_micro = (n_a·n_b·cvm_num) // (N²·10⁶)`` ≈ the classic
    ``T·10⁶`` (Anderson 1962). Python-bigint driver fold / HUGEINT
    oracle — envelope ≈ sf100, the drift-family rule.

    Shape: the SHARED drift-family exchange (one ``groupby(cents)``
    Sum on the value domain) and a bounded driver scan."""
    import pandas as pd

    from .analytics2 import _expedited_price_hist

    hist = _expedited_price_hist(sf_dir)
    n_a = int(hist["cnt_a"].sum())
    n_b = int(hist["cnt_b"].sum())
    n = n_a + n_b
    cvm = 0
    if n_a and n_b:
        cum_a = cum_b = 0
        for ca, cb in zip(
            hist["cnt_a"].to_numpy().tolist(), hist["cnt_b"].to_numpy().tolist()
        ):
            cum_a += ca
            cum_b += cb
            d_ppm = (abs(cum_a * n_b - cum_b * n_a) * 1_000_000) // (n_a * n_b)
            cvm += d_ppm * d_ppm * (ca + cb)
        t_micro = (n_a * n_b * cvm) // (n * n * 1_000_000)
    else:
        t_micro = 0
    return pd.DataFrame(
        {
            "n_a": pd.Series([n_a], dtype=np.int64),
            "n_b": pd.Series([n_b], dtype=np.int64),
            "cvm_num": pd.Series([cvm], dtype=np.int64),
            "t_micro": pd.Series([t_micro], dtype=np.int64),
        }
    )


_SQL_ORDER_PRICE_CVM = """
WITH s AS (
    SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
           CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END AS a
    FROM orders),
h AS (SELECT cents, SUM(a) AS ca, SUM(1 - a) AS cb FROM s GROUP BY cents),
t AS (SELECT CAST(SUM(ca) AS HUGEINT) AS na,
             CAST(SUM(cb) AS HUGEINT) AS nb FROM h),
c AS (SELECT cents, ca, cb,
             SUM(ca) OVER (ORDER BY cents) AS cum_a,
             SUM(cb) OVER (ORDER BY cents) AS cum_b
      FROM h),
g AS (SELECT (ABS(CAST(c.cum_a AS HUGEINT) * t.nb
                  - CAST(c.cum_b AS HUGEINT) * t.na) * 1000000)
             // (t.na * t.nb) AS d_ppm,
             CAST(c.ca + c.cb AS HUGEINT) AS w
      FROM c, t WHERE t.na > 0 AND t.nb > 0),
v AS (SELECT CAST(COALESCE(SUM(d_ppm * d_ppm * w), 0) AS HUGEINT) AS cvm
      FROM g)
SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) AS n_b,
       CAST(v.cvm AS BIGINT) AS cvm_num,
       CAST(CASE WHEN t.na > 0 AND t.nb > 0
                 THEN (t.na * t.nb * v.cvm)
                      // ((t.na + t.nb) * (t.na + t.nb) * 1000000)
                 ELSE 0 END AS BIGINT) AS t_micro
FROM t, v
"""



# ---------------------------------------------------------------------------
# event_trigrams — second-order sequence patterns over user streams
# ---------------------------------------------------------------------------

def q_event_trigrams(sf_dir: str, n_buckets: int = 32):
    """Consecutive event-type TRIGRAMS per user stream with global
    counts and the second-order conditional probability
    ``P(c | a, b)`` in exact micro units — the sequence-lattice level
    above :func:`~.ops.q_event_transitions` (same reasoning as
    :func:`q_basket_triples` over baskets): first-order transitions
    miss pattern asymmetries like view→click→purchase vs
    click→view→purchase, exactly what session-model features and
    funnel-anomaly monitors key on.

    Shape: the ``q_event_transitions`` discipline one step wider —
    each event row moves ONCE through the coarse ``user % B``
    exchange; inside a bucket the two shifted neighbors and the
    trigram counts resolve vectorized, so the second exchange carries
    O(types³ × buckets) count partials and the driver reads the
    ≤ types³ matrix. Ordering ties break by ``(ts, event_id)`` on
    both sides; null-typed events drop with their window (the lag-
    NULL ambiguity rule documented on the transitions op)."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .ops import _rhalf

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array(uid % n_buckets, pa.int64()),
                "user_id": batch["user_id"],
                "event_id": batch["event_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_type": batch["event_type"],
            }
        )

    def trigrams_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy(dtype=np.int64)
        et = g["event_type"].to_numpy()
        n = len(uid)
        if n < 3:
            return pa.table(
                {
                    "t1": pa.array([], pa.string()),
                    "t2": pa.array([], pa.string()),
                    "t3": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        same = (uid[:-2] == uid[1:-1]) & (uid[1:-1] == uid[2:])
        a, b, c = et[:-2], et[1:-1], et[2:]
        ok = (
            same
            & pd.notna(a)
            & pd.notna(b)
            & pd.notna(c)
        )
        agg = (
            pd.DataFrame({"t1": a[ok], "t2": b[ok], "t3": c[ok]})
            .groupby(["t1", "t2", "t3"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "t1": pa.array(agg["t1"].tolist(), pa.string()),
                "t2": pa.array(agg["t2"].tolist(), pa.string()),
                "t3": pa.array(agg["t3"].tolist(), pa.string()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    folded = (
        ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(trigrams_bucket, batch_format="pandas")
        .groupby(["t1", "t2", "t3"])
        .aggregate(Sum("n", alias_name="n_steps"))
        .to_pandas()  # bounded: ≤ types³ rows by construction
    )
    if not len(folded):
        return pd.DataFrame(
            {
                "t1": pd.Series([], dtype=object),
                "t2": pd.Series([], dtype=object),
                "t3": pd.Series([], dtype=object),
                "n_steps": pd.Series([], dtype=np.int64),
                "prob_micro": pd.Series([], dtype=np.int64),
            }
        )
    totals = folded.groupby(["t1", "t2"])["n_steps"].transform("sum")
    folded["prob_micro"] = [
        _rhalf(10**6 * int(c), int(t))
        for c, t in zip(folded["n_steps"], totals)
    ]
    folded["n_steps"] = folded["n_steps"].astype(np.int64)
    folded["prob_micro"] = folded["prob_micro"].astype(np.int64)
    return folded.sort_values(["t1", "t2", "t3"]).reset_index(drop=True)


_SQL_EVENT_TRIGRAMS = """
WITH p AS (
    SELECT event_type AS t3,
           lag(event_type, 1) OVER w AS t2,
           lag(event_type, 2) OVER w AS t1,
           lag(user_id, 2) OVER w AS u1,
           user_id
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), c AS (
    SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n_steps
    FROM p WHERE t1 IS NOT NULL AND t2 IS NOT NULL AND t3 IS NOT NULL
    GROUP BY 1, 2, 3
)
SELECT t1, t2, t3, n_steps,
       CAST((2*1000000*n_steps
             + SUM(n_steps) OVER (PARTITION BY t1, t2))
            // (2*SUM(n_steps) OVER (PARTITION BY t1, t2))
            AS BIGINT) AS prob_micro
FROM c
"""



# ---------------------------------------------------------------------------
# theil_decomposition — within/between-nation spend inequality
# ---------------------------------------------------------------------------

def q_theil_decomposition(sf_dir: str, n_buckets: int = 32):
    """Theil-T inequality of customer spend decomposed across nations
    (Theil 1967; the standard additive inequality decomposition —
    Gini, which the engine already carries per segment, does NOT
    decompose): total ``T = (1/N)·Σ (xᵢ/μ)·ln(xᵢ/μ)`` splits into a
    BETWEEN-nation term (are some nations richer?) and a WITHIN term
    (how unequal inside each nation?). Corpus curation reads the same
    decomposition over per-source token counts: "is the skew across
    sources or inside them?" decides whether to rebalance the mix or
    dedup within a source.

    Integer SPEC (every logarithm has an integer argument, the
    ``source_js_divergence`` discipline)::

        t_num = Σᵢ xᵢ·(lnm(xᵢ·N)  − lnm(X))
        w_num = Σᵢ xᵢ·(lnm(xᵢ·N_g) − lnm(X_g))     (g = i's nation)
        b_num = Σ_g X_g·(lnm(X_g·N) − lnm(X·N_g))

    reported with ``*_micro = num / X`` in TRUNCATING integer
    division (DuckDB ``//`` truncates toward zero where Python
    floors — the sign is handled explicitly so both sides agree on
    the near-zero negatives the ln snap can produce). Envelope: every
    ``lnm`` argument below 2⁶³. The binding ones are ``X_g·N`` and
    ``X·N_g``, which grow as N² (2.4·10¹⁵ in cents at sf0.1, so about
    sf6); past that the query raises ``OverflowError``, as the oracle's
    BIGINT products do (rescale the unit, the ``revenue_autocorr``
    rule).

    Shape: ONE custkey-bucket exchange resolves per-customer
    spend WITH its nation (the ``spend_gini`` join pattern); the
    ≤ nations-row (N_g, X_g) aggregate folds on the driver; the term
    pass streams the per-customer grain once against the broadcast
    nation table, pre-summing per (batch, nation) in exact Python
    ints shipped as two int64 limbs (the gini limb rule). The
    customer grain is pinned under the ``pin_fits`` gate with a
    rebuild fallback."""
    import pandas as pd
    import pyarrow.parquet as pq_

    from ..core.util import pin_fits
    from ..stages.textstats import lnm_micro, _lnm_vec

    def build_cust():
        orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

        def o_rows(b: pa.Table) -> pa.Table:
            df = pd.DataFrame(
                {
                    "key": b["o_custkey"].to_numpy(zero_copy_only=False),
                    "cents": _cents(b["o_totalprice"]).to_numpy(
                        zero_copy_only=False
                    ),
                }
            ).groupby("key", as_index=False)["cents"].sum()
            return pa.table(
                {
                    "key": pa.array(df["key"].to_numpy(np.int64)),
                    "cents": pa.array(df["cents"].to_numpy(np.int64)),
                }
            )

        def resolve(parts: pa.Table, cust: pa.Table) -> pa.Table:
            spend = parts.to_pandas().groupby("key", as_index=False)["cents"].sum()
            j = spend.merge(cust.to_pandas(), left_on="key", right_on="c_custkey")
            return pa.table(
                {
                    "nation": pa.array(j["c_nationkey"].to_numpy(np.int64)),
                    "x": pa.array(j["cents"].to_numpy(np.int64)),
                }
            )

        return exchange(
            [
                (
                    orders.map_batches(o_rows, batch_format="pyarrow", batch_size=None),
                    "key",
                    pa.schema({"key": pa.int64(), "cents": pa.int64()}),
                ),
                (customer, "c_custkey"),
            ],
            resolve,
            n_buckets=n_buckets,
        )

    n_rows_hint = pq_.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    if pin_fits(n_rows_hint * 16):
        cust = build_cust().materialize()  # O(customers), spillable
        cust2 = cust
    else:
        cust, cust2 = build_cust(), build_cust()

    from ray.data.aggregate import Count, Sum

    groups = (
        cust.groupby("nation")
        .aggregate(Count(alias_name="n_g"), Sum("x", alias_name="x_g"))
        .to_pandas()  # ≤ nations rows
    )
    n_tot = int(groups["n_g"].sum())
    x_tot = int(groups["x_g"].sum())
    out_cols = [
        "n_customers", "n_groups", "total_cents",
        "theil_micro", "between_micro", "within_micro",
    ]
    if n_tot == 0 or x_tot == 0:
        return pd.DataFrame({c: pd.Series([0], dtype=np.int64) for c in out_cols})

    # Every lnm argument (xᵢ·N, xᵢ·N_g, X_g·N, X·N_g) is at most one of
    # these two; past 2⁶³ numpy's int64 would wrap silently where the
    # oracle's BIGINT raises, so fail as it does.
    bound = max(int(groups["x_g"].max()) * n_tot, x_tot * int(groups["n_g"].max()))
    if bound >= 2**63:
        raise OverflowError(
            f"theil_decomposition: spend × count {bound} passes 2^63 (int64); "
            "rescale the spend unit"
        )
    ng_map = {
        int(r.nation): (int(r.n_g), int(r.x_g)) for r in groups.itertuples()
    }
    ln_x = lnm_micro(x_tot)
    _limb = 62

    def term_partials(b: pa.Table) -> pa.Table:
        nat = b["nation"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        lt_all = _lnm_vec(x * n_tot) - ln_x
        rows = {"nation": [], "t_lo": [], "t_hi": [], "w_lo": [], "w_hi": []}
        for g in np.unique(nat):
            m = nat == g
            n_g, x_g = ng_map[int(g)]
            lw = _lnm_vec(x[m] * n_g) - lnm_micro(x_g)
            t = sum(int(a) * int(c) for a, c in zip(x[m], lt_all[m]))
            w = sum(int(a) * int(c) for a, c in zip(x[m], lw))
            rows["nation"].append(int(g))
            for name, v in (("t", t), ("w", w)):
                rows[f"{name}_lo"].append(v & ((1 << _limb) - 1) if v >= 0 else -((-v) & ((1 << _limb) - 1)))
                rows[f"{name}_hi"].append(v >> _limb if v >= 0 else -((-v) >> _limb))
        return pa.table(
            {k: pa.array(np.array(v, dtype=np.int64)) for k, v in rows.items()}
        )

    parts = cust2.map_batches(
        term_partials, batch_format="pyarrow", batch_size=None
    ).to_pandas()  # bounded: ≤ batches × nations fixed-width rows
    t_num = sum((int(h) << _limb) + int(l) for h, l in zip(parts["t_hi"], parts["t_lo"]))
    w_num = sum((int(h) << _limb) + int(l) for h, l in zip(parts["w_hi"], parts["w_lo"]))
    b_num = sum(
        int(r.x_g) * (lnm_micro(int(r.x_g) * n_tot) - lnm_micro(x_tot * int(r.n_g)))
        for r in groups.itertuples()
    )

    def trunc_div(a: int, b: int) -> int:
        return abs(a) // b * (1 if a >= 0 else -1)

    return pd.DataFrame(
        {
            "n_customers": [n_tot],
            "n_groups": [len(groups)],
            "total_cents": [x_tot],
            "theil_micro": [trunc_div(t_num, x_tot)],
            "between_micro": [trunc_div(b_num, x_tot)],
            "within_micro": [trunc_div(w_num, x_tot)],
        }
    ).astype(np.int64)


def _sql_theil() -> str:
    from ..stages.textstats import _shared_ln_cte

    lnm = "CAST(FLOOR(lnk * CAST(1000000.0 AS DOUBLE) + CAST(0.5 AS DOUBLE)) AS BIGINT)"
    cte = _shared_ln_cte("(SELECT DISTINCT kint FROM lnargs WHERE kint >= 1)", "kint")
    return f"""
WITH cu AS (
    SELECT c.c_nationkey AS nation,
           CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS x
    FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
    GROUP BY o.o_custkey, c.c_nationkey),
g AS (SELECT nation, CAST(COUNT(*) AS BIGINT) AS n_g,
             CAST(SUM(x) AS BIGINT) AS x_g
      FROM cu GROUP BY nation),
t AS (SELECT CAST(SUM(n_g) AS BIGINT) AS n, CAST(SUM(x_g) AS BIGINT) AS x
      FROM g),
lnargs AS (SELECT cu.x * t.n AS kint FROM cu, t
           UNION SELECT x FROM t
           UNION SELECT cu.x * g.n_g FROM cu JOIN g USING (nation)
           UNION SELECT x_g FROM g
           UNION SELECT g.x_g * t.n FROM g, t
           UNION SELECT t.x * g.n_g FROM g, t),
lns AS (SELECT kint, {lnm} AS lnm FROM {cte} q),
tw AS (SELECT CAST(SUM(CAST(cu.x AS HUGEINT) * (la.lnm - lb.lnm)) AS HUGEINT)
                  AS t_num,
              CAST(SUM(CAST(cu.x AS HUGEINT) * (lc.lnm - ld.lnm)) AS HUGEINT)
                  AS w_num
       FROM cu JOIN g USING (nation), t
       JOIN lns la ON la.kint = cu.x * t.n
       JOIN lns lb ON lb.kint = t.x
       JOIN lns lc ON lc.kint = cu.x * g.n_g
       JOIN lns ld ON ld.kint = g.x_g),
bw AS (SELECT CAST(SUM(CAST(g.x_g AS HUGEINT) * (le.lnm - lf.lnm)) AS HUGEINT)
                  AS b_num
       FROM g, t
       JOIN lns le ON le.kint = g.x_g * t.n
       JOIN lns lf ON lf.kint = t.x * g.n_g)
SELECT t.n AS n_customers,
       CAST((SELECT COUNT(*) FROM g) AS BIGINT) AS n_groups,
       t.x AS total_cents,
       CAST(tw.t_num // CAST(t.x AS HUGEINT) AS BIGINT) AS theil_micro,
       CAST(bw.b_num // CAST(t.x AS HUGEINT) AS BIGINT) AS between_micro,
       CAST(tw.w_num // CAST(t.x AS HUGEINT) AS BIGINT) AS within_micro
FROM t, tw, bw
"""


_SQL_THEIL = _sql_theil()



# ---------------------------------------------------------------------------
# return_rate_pchart — weekly return-rate control chart (SPC p-chart)
# ---------------------------------------------------------------------------

def q_return_rate_pchart(sf_dir: str):
    """Shewhart p-chart over the weekly returned-line rate — the
    classic statistical-process-control monitor (3σ binomial limits)
    applied to the ``l_returnflag = 'R'`` proportion per ship week: a
    week is OUT OF CONTROL when its rate leaves the ±3σ band around
    the corpus-wide rate. A corpus-QA suite runs the identical chart
    on per-snapshot defect rates (PII hits, parse failures, dedup
    collisions) — the flag is the alert bit.

    Integer SPEC (no square root ever happens): the band test
    ``(p_w − p̄)² > 9·p̄(1−p̄)/n_w`` cross-multiplies to::

        flag_w = 1  iff  (x_w·N − n_w·X)² > 9·X·(N−X)·n_w

    with N, X the global line/returned counts — exact int comparison
    on both sides (Python bigint / HUGEINT; products stay far inside
    HUGEINT through sf1000). ``rate_ppm = x_w·10⁶ // n_w``.

    Shape: per-batch (week, n, x) partials → ONE calendar-bounded
    week exchange → a driver fold that derives the global totals from
    the same weekly rows (no second pass)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_shipdate", "l_returnflag"])

    def partial(b: pa.Table) -> pa.Table:
        week = (_ts_us(b["l_shipdate"]) // 86_400_000_000) // 7
        ret = (b["l_returnflag"].to_pandas().to_numpy() == "R").astype(np.int64)
        agg = (
            pd.DataFrame({"week": week, "n": 1, "x": ret})
            .groupby("week", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "week": pa.array(agg["week"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
                "x": pa.array(agg["x"].to_numpy(np.int64), pa.int64()),
            }
        )

    weekly = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("week")
        .aggregate(Sum("n", alias_name="n"), Sum("x", alias_name="x"))
        .to_pandas()  # bounded: one row per calendar week
        .sort_values("week", kind="stable")
    )
    n_tot = int(weekly["n"].sum())
    x_tot = int(weekly["x"].sum())
    rows = []
    for r in weekly.itertuples():
        n_w, x_w = int(r.n), int(r.x)
        lhs = (x_w * n_tot - n_w * x_tot) ** 2
        rhs = 9 * x_tot * (n_tot - x_tot) * n_w
        rows.append(
            (int(r.week), n_w, x_w, x_w * 1_000_000 // n_w, int(lhs > rhs))
        )
    return pd.DataFrame(
        rows, columns=["week", "n_lines", "n_returned", "rate_ppm", "ooc_flag"]
    ).astype(np.int64)


_SQL_RETURN_RATE_PCHART = """
WITH w AS (
    SELECT CAST(date_diff('day', DATE '1970-01-01',
                          CAST(l_shipdate AS DATE)) AS BIGINT) // 7 AS week,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) FILTER (l_returnflag = 'R') AS BIGINT) AS x
    FROM lineitem GROUP BY 1),
t AS (SELECT CAST(SUM(n) AS HUGEINT) AS nt, CAST(SUM(x) AS HUGEINT) AS xt
      FROM w)
SELECT w.week, w.n AS n_lines, w.x AS n_returned,
       CAST(w.x * 1000000 // w.n AS BIGINT) AS rate_ppm,
       CAST(CASE WHEN (CAST(w.x AS HUGEINT) * t.nt
                       - CAST(w.n AS HUGEINT) * t.xt)
                      * (CAST(w.x AS HUGEINT) * t.nt
                         - CAST(w.n AS HUGEINT) * t.xt)
                      > 9 * t.xt * (t.nt - t.xt) * w.n
                 THEN 1 ELSE 0 END AS BIGINT) AS ooc_flag
FROM w, t
"""



# ---------------------------------------------------------------------------
# k_anonymity_audit — quasi-identifier equivalence-class sizes
# ---------------------------------------------------------------------------

def q_k_anonymity_audit(sf_dir: str, k: int = 5):
    """k-anonymity audit of the customer table (Sweeney 2002 — the
    baseline re-identification check every data-release pipeline runs
    before shipping "anonymized" records): rows are grouped by the
    quasi-identifier tuple ``(nation, market segment, account-balance
    k$ band)`` and any equivalence class smaller than ``k`` is a
    re-identification risk. The released-corpus counterpart audits
    (source, language, length-band) tuples before publishing
    documents with metadata attached.

    Output (one row): total rows, class count, the minimum class
    size, and the violating class/row counts at the ``k`` threshold —
    all exact integers off one bounded exchange.

    Shape: per-batch QI-tuple partial counts → ONE domain-bounded
    ``groupby`` exchange (nations × segments × balance bands) → a
    driver fold of the class-size table."""
    import pandas as pd
    from ray.data.aggregate import Sum

    cust = _read(
        sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_acctbal"]
    )

    def partial(b: pa.Table) -> pa.Table:
        bal = _cents(b["c_acctbal"]).to_numpy(zero_copy_only=False)
        band = bal // 100_000  # whole-k$ balance bands
        agg = (
            pd.DataFrame(
                {
                    "nation": b["c_nationkey"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "seg": b["c_mktsegment"].to_pandas().to_numpy(),
                    "band": band,
                }
            )
            .groupby(["nation", "seg", "band"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "nation": pa.array(agg["nation"].to_numpy(np.int64)),
                "seg": pa.array(agg["seg"].tolist(), pa.string()),
                "band": pa.array(agg["band"].to_numpy(np.int64)),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    classes = (
        cust.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["nation", "seg", "band"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # domain-bounded class table
    )
    sizes = classes["n"].to_numpy(np.int64)
    viol = sizes < k
    return pd.DataFrame(
        {
            "n_rows": [int(sizes.sum())],
            "n_classes": [len(sizes)],
            "min_class_size": [int(sizes.min()) if len(sizes) else 0],
            "k_threshold": [k],
            "n_violating_classes": [int(viol.sum())],
            "n_violating_rows": [int(sizes[viol].sum())],
        }
    ).astype(np.int64)


def _sql_k_anonymity(k: int = 5) -> str:
    return f"""
WITH c AS (
    SELECT c_nationkey AS nation, c_mktsegment AS seg,
           -- FLOOR division (balances go negative; DuckDB // truncates
           -- where the engine's numpy // floors)
           CASE WHEN CAST(ROUND(c_acctbal*100) AS BIGINT) >= 0
                THEN CAST(ROUND(c_acctbal*100) AS BIGINT) // 100000
                ELSE -((-CAST(ROUND(c_acctbal*100) AS BIGINT) + 99999)
                       // 100000)
           END AS band,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM customer GROUP BY 1, 2, 3)
SELECT CAST(SUM(n) AS BIGINT) AS n_rows,
       CAST(COUNT(*) AS BIGINT) AS n_classes,
       CAST(MIN(n) AS BIGINT) AS min_class_size,
       CAST({k} AS BIGINT) AS k_threshold,
       CAST(COALESCE(SUM(CASE WHEN n < {k} THEN 1 END), 0) AS BIGINT)
           AS n_violating_classes,
       CAST(COALESCE(SUM(CASE WHEN n < {k} THEN n END), 0) AS BIGINT)
           AS n_violating_rows
FROM c
"""


_SQL_K_ANONYMITY = _sql_k_anonymity()


# ---------------------------------------------------------------------------
# encoding_advisor — column cardinality / dictionary-encoding profiler
# ---------------------------------------------------------------------------

def q_encoding_advisor(sf_dir: str, dict_ratio_den: int = 1000):
    """Storage-layout advisor over the orders table's bounded-domain
    columns (status, priority, order month, price k$ band): exact
    distinct count, the heaviest value's share in ppm, and a
    dictionary-encoding recommendation flag (``n_distinct ≤ n_rows //
    dict_ratio_den`` — the classic cardinality-ratio rule every
    columnar writer applies). The engine's Z-order optimizer picks
    SORT keys; this picks ENCODINGS — together they are the
    write-path tuning pair for the resumable Parquet/Lance sink.

    Shape: per-batch (column, value) partial counts — values
    canonicalized to strings so one exchange carries every column —
    → ONE domain-bounded ``groupby`` exchange → a ≤ Σ|domains| driver
    fold. (Unbounded-domain columns like the order key are exactly
    the ones the rule would reject; they profile through the HLL
    sketch family instead of an exact exchange.)"""
    import pandas as pd
    from ray.data.aggregate import Sum

    orders = _read(
        sf_dir, "orders",
        ["o_orderstatus", "o_orderpriority", "o_orderdate", "o_totalprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        month = (
            _ts_us(b["o_orderdate"])
            .astype("datetime64[us]")
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        band = _cents(b["o_totalprice"]).to_numpy(zero_copy_only=False) // 100_000
        cols = {
            "o_orderstatus": b["o_orderstatus"].to_pandas().to_numpy(),
            "o_orderpriority": b["o_orderpriority"].to_pandas().to_numpy(),
            "order_month": month.astype(str),
            "price_kband": band.astype(str),
        }
        names, vals, cnts = [], [], []
        for cname, arr in cols.items():
            v, c = np.unique(arr, return_counts=True)
            names.extend([cname] * len(v))
            vals.extend([str(x) for x in v])
            cnts.extend(c.tolist())
        return pa.table(
            {
                "col": pa.array(names, pa.string()),
                "value": pa.array(vals, pa.string()),
                "n": pa.array(np.array(cnts, dtype=np.int64)),
            }
        )

    vt = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["col", "value"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # domain-bounded value table
    )
    rows = []
    for col, g in vt.groupby("col"):
        n_rows = int(g["n"].sum())
        n_distinct = len(g)
        top = int(g["n"].max())
        rows.append(
            (
                col, n_rows, n_distinct, top * 1_000_000 // n_rows,
                int(n_distinct <= n_rows // dict_ratio_den),
            )
        )
    out = pd.DataFrame(
        rows,
        columns=["col", "n_rows", "n_distinct", "top_share_ppm", "dict_flag"],
    ).sort_values("col").reset_index(drop=True)
    for c in out.columns[1:]:
        out[c] = out[c].astype(np.int64)
    return out


def _sql_encoding_advisor(dict_ratio_den: int = 1000) -> str:
    return f"""
WITH v AS (
    SELECT 'o_orderstatus' AS col, o_orderstatus AS value FROM orders
    UNION ALL
    SELECT 'o_orderpriority', o_orderpriority FROM orders
    UNION ALL
    SELECT 'order_month',
           CAST((year(date_trunc('month', o_orderdate)) - 1970) * 12
                + (month(date_trunc('month', o_orderdate)) - 1) AS VARCHAR)
    FROM orders
    UNION ALL
    SELECT 'price_kband',
           CAST(CAST(ROUND(o_totalprice*100) AS BIGINT) // 100000 AS VARCHAR)
    FROM orders),
c AS (SELECT col, value, CAST(COUNT(*) AS BIGINT) AS n FROM v GROUP BY 1, 2),
s AS (SELECT col, CAST(SUM(n) AS BIGINT) AS n_rows,
             CAST(COUNT(*) AS BIGINT) AS n_distinct,
             CAST(MAX(n) AS BIGINT) AS top
      FROM c GROUP BY col)
SELECT col, n_rows, n_distinct,
       CAST(top * 1000000 // n_rows AS BIGINT) AS top_share_ppm,
       CAST(CASE WHEN n_distinct <= n_rows // {dict_ratio_den}
                 THEN 1 ELSE 0 END AS BIGINT) AS dict_flag
FROM s
"""


_SQL_ENCODING_ADVISOR = _sql_encoding_advisor()



# ---------------------------------------------------------------------------
# cohort_ltv — cumulative lifetime value by acquisition cohort
# ---------------------------------------------------------------------------

def q_cohort_ltv(sf_dir: str, n_buckets: int = 32):
    """Cumulative revenue per customer by acquisition cohort — the
    LTV curve next to :func:`~.ops` cohort retention: customers
    cohort by their FIRST order month; each (cohort, months-since)
    cell carries that month's revenue and the running cumulative
    floor-average per cohort member ("a 1995-03 customer is worth
    X cents by month 6"). The curve a growth model calibrates
    against, and the spend-side complement of retention's activity
    counts.

    Shape: ONE custkey-bucket exchange co-locates each customer's
    orders, so the first-month anchor and every (cohort, age) cell
    resolve vectorized in the group; cells pre-aggregate before ONE
    calendar²-bounded (cohort, age) exchange, and the cumulative scan
    + per-member division run on the ≤ months² driver grid."""
    import pandas as pd
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        ck = b["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        month = (
            _ts_us(b["o_orderdate"])
            .astype("datetime64[us]")
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        cents = _cents(b["o_totalprice"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array(ck % n_buckets),
                "ck": pa.array(ck),
                "month": pa.array(month),
                "cents": pa.array(cents),
            }
        )

    def cells(g: pd.DataFrame) -> pa.Table:
        first = g.groupby("ck", sort=False)["month"].transform("min")
        age = g["month"].to_numpy(np.int64) - first.to_numpy(np.int64)
        agg = (
            pd.DataFrame(
                {"cohort": first.to_numpy(np.int64), "age": age,
                 "cents": g["cents"].to_numpy(np.int64)}
            )
            .groupby(["cohort", "age"], sort=False)["cents"]
            .sum()
            .reset_index()
        )
        heads = (
            g.drop_duplicates("ck")
            .assign(cohort=first[~g["ck"].duplicated()].to_numpy(np.int64))
            .groupby("cohort", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "cohort": pa.array(
                    np.concatenate(
                        [agg["cohort"].to_numpy(np.int64),
                         heads["cohort"].to_numpy(np.int64)]
                    )
                ),
                "age": pa.array(
                    np.concatenate(
                        [agg["age"].to_numpy(np.int64),
                         np.full(len(heads), -1, np.int64)]
                    )
                ),
                "v": pa.array(
                    np.concatenate(
                        [agg["cents"].to_numpy(np.int64),
                         heads["n"].to_numpy(np.int64)]
                    )
                ),
            }
        )

    folded = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(cells, batch_format="pandas")
        .groupby(["cohort", "age"])
        .aggregate(Sum("v", alias_name="v"))
        .to_pandas()  # bounded: ≤ months² cells + months head rows
    )
    heads = folded[folded["age"] == -1].set_index("cohort")["v"]
    cells_df = folded[folded["age"] >= 0].sort_values(
        ["cohort", "age"], kind="stable"
    )
    rows = []
    for cohort, g in cells_df.groupby("cohort"):
        n = int(heads.loc[cohort])
        cum = 0
        for r in g.itertuples():
            cum += int(r.v)
            rows.append(
                (int(cohort), int(r.age), n, int(r.v), cum, cum // n)
            )
    return pd.DataFrame(
        rows,
        columns=["cohort_month", "age_months", "n_customers",
                 "rev_cents", "cum_rev_cents", "ltv_cents"],
    ).astype(np.int64)


_SQL_COHORT_LTV = """
WITH o AS (
    SELECT o_custkey AS ck,
           (year(date_trunc('month', o_orderdate)) - 1970) * 12
           + (month(date_trunc('month', o_orderdate)) - 1) AS mo,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
    FROM orders),
f AS (SELECT ck, MIN(mo) AS cohort FROM o GROUP BY ck),
n AS (SELECT cohort, CAST(COUNT(*) AS BIGINT) AS n_customers
      FROM f GROUP BY cohort),
c AS (SELECT f.cohort, o.mo - f.cohort AS age,
             CAST(SUM(o.cents) AS BIGINT) AS rev
      FROM o JOIN f USING (ck) GROUP BY 1, 2),
cum AS (SELECT cohort, age, rev,
               CAST(SUM(rev) OVER (PARTITION BY cohort ORDER BY age)
                    AS BIGINT) AS cum_rev
        FROM c)
SELECT CAST(cum.cohort AS BIGINT) AS cohort_month,
       CAST(cum.age AS BIGINT) AS age_months,
       n.n_customers,
       cum.rev AS rev_cents,
       cum.cum_rev AS cum_rev_cents,
       CAST(cum.cum_rev // n.n_customers AS BIGINT) AS ltv_cents
FROM cum JOIN n USING (cohort)
"""


# ---------------------------------------------------------------------------
# price_volume_decomposition — index-number revenue bridge across halves
# ---------------------------------------------------------------------------

def q_price_volume_decomposition(sf_dir: str, n_buckets: int = 32):
    """The revenue bridge between the two halves of the ship
    timeline, decomposed per part into price, volume, and interaction
    effects (the Laspeyres/Paasche index-number identity every
    finance review runs on "why did revenue move?"): with snapped
    unit values ``v_h = C_h·10⁶ // Q_h`` (micro-cents per unit,
    the ONE floor snap — spec'd, so both engines agree)::

        price_effect  = Σ (v₁−v₀)·Q₀        (micro-cents)
        volume_effect = Σ v₀·(Q₁−Q₀)
        interaction   = Σ (v₁−v₀)·(Q₁−Q₀)

    over parts traded in BOTH halves, plus entry/exit revenue for
    parts present in only one (so the bridge is complete). Output is
    one row of exact integers.

    Shape: footer-statistics month bounds (the
    ``brand_rank_stability`` rule); per-batch (part, half) partials
    fold cents and quantity before ONE part-grain exchange; the
    bridge arithmetic runs per part inside the final groups and
    re-aggregates to ≤ n_buckets partial rows (Python-int limbs not
    needed: v ≤ 10¹² micro-cents and Q ≤ 10⁹ keep terms < 2⁶² at any
    tested sf — envelope documented)."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq_
    from ray.data.aggregate import Sum

    from ..stages.zorder import _footer_max, _footer_min

    def month_of(us: np.ndarray) -> np.ndarray:
        return us.astype("datetime64[us]").astype("datetime64[M]").astype(
            np.int64
        ) + 1970 * 12

    path = os.path.join(sf_dir, "lineitem.parquet")
    mn = _footer_min(path, ["l_shipdate"])
    mx = _footer_max(path, ["l_shipdate"])
    lo = int(month_of(np.array([np.datetime64(mn[0], "us")], "datetime64[us]").astype(np.int64))[0])
    hi = int(month_of(np.array([np.datetime64(mx[0], "us")], "datetime64[us]").astype(np.int64))[0])
    mid = (lo + hi) // 2

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_quantity", "l_shipdate"]
    )

    def partial(b: pa.Table) -> pa.Table:
        pk = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = _cents(b["l_extendedprice"]).to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        half = (month_of(_ts_us(b["l_shipdate"])) > mid).astype(np.int64)
        agg = (
            pd.DataFrame({"pk": pk, "half": half, "c": cents, "q": qty})
            .groupby(["pk", "half"], sort=False)[["c", "q"]]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "pbucket": pa.array(agg["pk"].to_numpy(np.int64) % n_buckets),
                "pk": pa.array(agg["pk"].to_numpy(np.int64)),
                "half": pa.array(agg["half"].to_numpy(np.int64)),
                "c": pa.array(agg["c"].to_numpy(np.int64)),
                "q": pa.array(agg["q"].to_numpy(np.int64)),
            }
        )

    def bridge(g: pd.DataFrame) -> pa.Table:
        s = g.groupby(["pk", "half"], sort=False)[["c", "q"]].sum().reset_index()
        w = s.pivot_table(index="pk", columns="half", values=["c", "q"],
                          aggfunc="sum")
        c0 = w.get(("c", 0), pd.Series(dtype=float)).reindex(w.index)
        c1 = w.get(("c", 1), pd.Series(dtype=float)).reindex(w.index)
        q0 = w.get(("q", 0), pd.Series(dtype=float)).reindex(w.index)
        q1 = w.get(("q", 1), pd.Series(dtype=float)).reindex(w.index)
        both = c0.notna() & c1.notna()
        entry = int(c1[c0.isna() & c1.notna()].sum())
        exit_ = int(c0[c1.notna().eq(False) & c0.notna()].sum())
        pe = ve = ix = 0
        for a0, a1, b0, b1 in zip(
            c0[both].astype(np.int64), c1[both].astype(np.int64),
            q0[both].astype(np.int64), q1[both].astype(np.int64),
        ):
            v0 = int(a0) * 1_000_000 // int(b0)
            v1 = int(a1) * 1_000_000 // int(b1)
            pe += (v1 - v0) * int(b0)
            ve += v0 * (int(b1) - int(b0))
            ix += (v1 - v0) * (int(b1) - int(b0))
        return pa.table(
            {
                "one": pa.array([0], pa.int64()),
                "pe": pa.array([pe], pa.int64()),
                "ve": pa.array([ve], pa.int64()),
                "ix": pa.array([ix], pa.int64()),
                "entry": pa.array([entry], pa.int64()),
                "exit_": pa.array([exit_], pa.int64()),
                "npb": pa.array([int(both.sum())], pa.int64()),
            }
        )

    parts = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("pbucket")
        .map_groups(bridge, batch_format="pandas")
        .to_pandas()  # ≤ n_buckets summary rows
    )
    return pd.DataFrame(
        {
            "n_parts_both": [int(parts["npb"].sum())],
            "price_effect_microcents": [int(parts["pe"].sum())],
            "volume_effect_microcents": [int(parts["ve"].sum())],
            "interaction_microcents": [int(parts["ix"].sum())],
            "entry_rev_cents": [int(parts["entry"].sum())],
            "exit_rev_cents": [int(parts["exit_"].sum())],
        }
    ).astype(np.int64)


_SQL_PRICE_VOLUME = """
WITH b AS (SELECT MIN(CAST(year(l_shipdate) AS BIGINT) * 12
                      + CAST(month(l_shipdate) AS BIGINT) - 1) AS lo,
                  MAX(CAST(year(l_shipdate) AS BIGINT) * 12
                      + CAST(month(l_shipdate) AS BIGINT) - 1) AS hi
           FROM lineitem),
s AS (SELECT l_partkey AS pk,
             CAST(CAST(year(l_shipdate) AS BIGINT) * 12
                  + CAST(month(l_shipdate) AS BIGINT) - 1
                  > (b.lo + b.hi) // 2 AS BIGINT) AS half,
             CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT))
                  AS BIGINT) AS c,
             CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q
      FROM lineitem, b GROUP BY 1, 2),
w AS (SELECT a.pk, a.c AS c0, a.q AS q0, d.c AS c1, d.q AS q1
      FROM s a JOIN s d ON d.pk = a.pk AND a.half = 0 AND d.half = 1),
v AS (SELECT pk, q0, q1,
             c0 * 1000000 // q0 AS v0, c1 * 1000000 // q1 AS v1
      FROM w),
eff AS (SELECT CAST(COUNT(*) AS BIGINT) AS npb,
               CAST(COALESCE(SUM((v1 - v0) * q0), 0) AS BIGINT) AS pe,
               CAST(COALESCE(SUM(v0 * (q1 - q0)), 0) AS BIGINT) AS ve,
               CAST(COALESCE(SUM((v1 - v0) * (q1 - q0)), 0) AS BIGINT) AS ix
        FROM v),
io AS (SELECT
         CAST(COALESCE(SUM(CASE WHEN half = 1 THEN c END), 0) AS BIGINT)
             AS entry,
         CAST(COALESCE(SUM(CASE WHEN half = 0 THEN c END), 0) AS BIGINT)
             AS exit_
       FROM s WHERE pk NOT IN (SELECT pk FROM w))
SELECT eff.npb AS n_parts_both,
       eff.pe AS price_effect_microcents,
       eff.ve AS volume_effect_microcents,
       eff.ix AS interaction_microcents,
       io.entry AS entry_rev_cents,
       io.exit_ AS exit_rev_cents
FROM eff, io
"""


# ---------------------------------------------------------------------------
# basket_dispersion — variance-to-mean overdispersion of basket sizes
# ---------------------------------------------------------------------------

def q_basket_dispersion(sf_dir: str):
    """Index of dispersion (variance-to-mean ratio) of order basket
    sizes — the one-number Poisson check: VMR ≈ 1 means line counts
    arrive Poisson-like, VMR > 1 flags clumping (bulk orders /
    bot-like carts), VMR < 1 regularity (quota-capped baskets). The
    same statistic a corpus monitor runs on per-document span counts
    to catch template explosions.

    Division-free until one snap: ``vmr_ppm = (n·Σx² − (Σx)²)·10⁶ //
    ((n−1)·Σx)`` over per-order line counts (exact sample-variance ÷
    mean cross-multiplication; HUGEINT / Python-int safe through
    sf1000).

    Shape: per-batch (orderkey → lines) partials → ONE coarse
    orderkey-bucket exchange (16-key sort; per-order totals resolve
    vectorized in-group) → three scalar moments per bucket → driver
    snap."""
    import pandas as pd
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    n_buckets = 16

    def partial(b: pa.Table) -> pa.Table:
        ok, cnt = np.unique(
            b["l_orderkey"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                # coarse bucket: a 16-key sort shuffle replaces the
                # order-grain groupby (measured 4.27 s → 1.7 s at
                # sf0.1) — per-order totals resolve vectorized inside
                # each bucket group before the moments fold
                "bucket": pa.array(ok.astype(np.int64) % n_buckets),
                "ok": pa.array(ok.astype(np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    def moments(g) -> pa.Table:
        x = g.groupby("ok", sort=False)["n"].sum().to_numpy()
        return pa.table(
            {
                "cnt": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sx2": pa.array([int((x * x).sum())], pa.int64()),
            }
        )

    m = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(moments, batch_format="pandas")
        .to_pandas()  # ≤ n_buckets moment rows
    )
    n = int(m["cnt"].sum())
    sx = int(m["sx"].sum())
    sx2 = int(m["sx2"].sum())
    vmr = ((n * sx2 - sx * sx) * 1_000_000) // ((n - 1) * sx) if n > 1 and sx else 0
    return pd.DataFrame(
        {
            "n_orders": [n],
            "sum_lines": [sx],
            "sum_lines_sq": [sx2],
            "vmr_ppm": [vmr],
        }
    ).astype(np.int64)


_SQL_BASKET_DISPERSION = """
WITH o AS (SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS n
           FROM lineitem GROUP BY 1),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(n) AS HUGEINT) AS sx,
             CAST(SUM(n*n) AS HUGEINT) AS sx2
      FROM o)
SELECT CAST(n AS BIGINT) AS n_orders,
       CAST(sx AS BIGINT) AS sum_lines,
       CAST(sx2 AS BIGINT) AS sum_lines_sq,
       CAST(CASE WHEN n > 1 AND sx > 0
                 THEN ((n * sx2 - sx * sx) * 1000000) // ((n - 1) * sx)
                 ELSE 0 END AS BIGINT) AS vmr_ppm
FROM m
"""



# ---------------------------------------------------------------------------
# source_length_drift — per-source KS distance vs the rest of the corpus
# ---------------------------------------------------------------------------

def q_source_length_drift(sf_dir: str):
    """Grouped drift screen: for EVERY source, the exact two-sample
    Kolmogorov–Smirnov distance between its document-length
    (``n_chars``) distribution and the rest of the corpus — the
    one-vs-rest fan-out of :func:`analytics2.q_order_price_drift`,
    and the per-source table a corpus-QA dashboard sorts by
    ``ks_micro`` to find the shard whose crawler changed behavior.

    Same integer spec per source: ``d_num = max_v |cum_s·n_rest −
    cum_rest·n_s|``, ``ks_micro = d_num·10⁶ // (n_s·n_rest)``,
    ``at_value`` the smallest length attaining the max (Python-bigint
    scan, HUGEINT oracle).

    Shape: per-batch (length, source) count partials → ONE
    domain-bounded exchange (distinct lengths × sources) → a driver
    pivot + per-source cumulative scan over the bounded grid."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..stages.textstats import _docs

    ds = _docs(sf_dir, ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        agg = (
            pd.DataFrame(
                {
                    "v": b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
                    "s": b["source"].to_pandas().to_numpy(),
                }
            )
            .groupby(["v", "s"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "v": pa.array(agg["v"].to_numpy(np.int64)),
                "s": pa.array(agg["s"].tolist(), pa.string()),
                "c": pa.array(agg["c"].to_numpy(np.int64)),
            }
        )

    h = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["v", "s"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # bounded: distinct lengths × sources
    )
    pivot = h.pivot_table(index="v", columns="s", values="c", aggfunc="sum").fillna(0).sort_index()
    n_total = int(pivot.to_numpy().sum())
    rows = []
    vs = pivot.index.to_numpy(np.int64)
    for s in sorted(pivot.columns):
        cs = pivot[s].to_numpy(np.int64)
        call = pivot.sum(axis=1).to_numpy(np.int64)
        n_s = int(cs.sum())
        n_r = n_total - n_s
        cum_s = cum_all = 0
        # a max gap of 0 is attained first at the smallest length
        d_num, at_v = 0, int(vs[0])
        for v, a, t in zip(vs, cs, call):
            cum_s += int(a)
            cum_all += int(t)
            gap = abs(cum_s * n_r - (cum_all - cum_s) * n_s)
            if gap > d_num:
                d_num, at_v = gap, int(v)
        ks = (d_num * 1_000_000) // (n_s * n_r) if n_s and n_r else 0
        rows.append((s, n_s, n_r, d_num, ks, at_v))
    return pd.DataFrame(
        rows,
        columns=["source", "n_s", "n_rest", "d_num", "ks_micro", "at_value"],
    ).astype({c: np.int64 for c in ["n_s", "n_rest", "d_num", "ks_micro", "at_value"]})


_SQL_SOURCE_LENGTH_DRIFT = """
WITH h AS (SELECT CAST(n_chars AS BIGINT) AS v, source AS s,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM documents GROUP BY 1, 2),
srcs AS (SELECT s, CAST(SUM(c) AS HUGEINT) AS n_s FROM h GROUP BY s),
t AS (SELECT CAST(SUM(c) AS HUGEINT) AS n FROM h),
grid AS (SELECT srcs.s, vv.v FROM srcs, (SELECT DISTINCT v FROM h) vv),
cum AS (SELECT g.s, g.v,
               SUM(COALESCE(h.c, 0)) OVER (PARTITION BY g.s ORDER BY g.v)
                   AS cum_s,
               SUM(COALESCE(ha.c, 0)) OVER (PARTITION BY g.s ORDER BY g.v)
                   AS cum_all
        FROM grid g
        LEFT JOIN h ON h.s = g.s AND h.v = g.v
        LEFT JOIN (SELECT v, CAST(SUM(c) AS BIGINT) AS c FROM h GROUP BY v)
            ha ON ha.v = g.v),
gaps AS (SELECT cum.s, cum.v,
                ABS(CAST(cum.cum_s AS HUGEINT) * (t.n - srcs.n_s)
                    - (CAST(cum.cum_all AS HUGEINT) - cum.cum_s) * srcs.n_s)
                    AS gap
         FROM cum JOIN srcs USING (s), t),
mx AS (SELECT s, MAX(gap) AS d FROM gaps GROUP BY s),
at_ AS (SELECT g.s, MIN(g.v) AS at_value
        FROM gaps g JOIN mx ON mx.s = g.s AND g.gap = mx.d
        GROUP BY g.s)
SELECT mx.s AS source,
       CAST(srcs.n_s AS BIGINT) AS n_s,
       CAST(t.n - srcs.n_s AS BIGINT) AS n_rest,
       CAST(mx.d AS BIGINT) AS d_num,
       CAST(CASE WHEN srcs.n_s > 0 AND t.n - srcs.n_s > 0
                 THEN (mx.d * 1000000) // (srcs.n_s * (t.n - srcs.n_s))
                 ELSE 0 END AS BIGINT) AS ks_micro,
       CAST(at_.at_value AS BIGINT) AS at_value
FROM mx JOIN srcs USING (s) JOIN at_ USING (s), t
"""


# ---------------------------------------------------------------------------
# revenue_outlier_days — robust MAD z-score flags on the daily series
# ---------------------------------------------------------------------------

def q_revenue_outlier_days(sf_dir: str):
    """Robust outlier days in the daily revenue series — the
    MAD-based z-score screen (Iglewicz–Hoaglin modified z, |z| > 3.5)
    that survives the very outliers a mean/σ rule would absorb.
    Integer SPEC: median and MAD are LOWER medians (the value at rank
    ``(n+1)//2`` — PERCENTILE_DISC semantics, exact on both sides)
    and the flag cross-multiplies to ``|x − med|·6745 > 35000·MAD``
    (z = 0.6745·|x−med|/MAD scaled by 10⁴); a zero MAD degenerates to
    ``|x − med| > 0`` (any deviation from a constant series is an
    outlier), spec'd identically in SQL.

    Output: one row per OUTLIER day ``(day, rev_cents,
    abs_dev_cents)`` — bounded by the calendar like every
    daily-series op.

    Shape: the ``revenue_cusum`` day-grain exchange and a
    calendar-bounded driver scan."""
    import pandas as pd

    from .analytics4 import _daily_revenue

    daily = _daily_revenue(sf_dir)
    x = daily["rev"].to_numpy(np.int64)
    days = daily["day"].to_numpy(np.int64)
    out_cols = ["day", "rev_cents", "abs_dev_cents"]
    if not len(x):
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in out_cols})
    n = len(x)
    med = int(np.sort(x)[(n + 1) // 2 - 1])
    dev = np.abs(x - med)
    mad = int(np.sort(dev)[(n + 1) // 2 - 1])
    if mad > 0:
        flag = dev * 6745 > 35000 * mad
    else:
        flag = dev > 0
    return pd.DataFrame(
        {
            "day": days[flag],
            "rev_cents": x[flag],
            "abs_dev_cents": dev[flag],
        }
    ).sort_values("day").reset_index(drop=True).astype(np.int64)


_SQL_REVENUE_OUTLIER_DAYS = """
WITH d AS (
    SELECT CAST(date_diff('day', DATE '1970-01-01',
                          CAST(o_orderdate AS DATE)) AS BIGINT) AS day,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS rev
    FROM orders GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d),
r AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY rev) AS rn FROM d),
med AS (SELECT rev AS m FROM r, t WHERE rn = (t.n + 1) // 2),
dev AS (SELECT d.day, d.rev, ABS(d.rev - med.m) AS ad FROM d, med),
r2 AS (SELECT ad, ROW_NUMBER() OVER (ORDER BY ad) AS rn FROM dev),
mad AS (SELECT ad AS m FROM r2, t WHERE rn = (t.n + 1) // 2)
SELECT dev.day, dev.rev AS rev_cents, dev.ad AS abs_dev_cents
FROM dev, mad
WHERE CASE WHEN mad.m > 0
           THEN CAST(dev.ad AS HUGEINT) * 6745 > 35000 * CAST(mad.m AS HUGEINT)
           ELSE dev.ad > 0 END
"""



QUERIES = {
    "revenue_changepoint": q_revenue_changepoint,
    "seasonal_strength": q_seasonal_strength,
    "rfm_segments": q_rfm_segments,
    "event_type_xcorr": q_event_type_xcorr,
    "revenue_acf": q_revenue_acf,
    "brand_rank_stability": q_brand_rank_stability,
    "basket_triples": q_basket_triples,
    "order_price_cvm": q_order_price_cvm,
    "event_trigrams": q_event_trigrams,
    "theil_decomposition": q_theil_decomposition,
    "return_rate_pchart": q_return_rate_pchart,
    "k_anonymity_audit": q_k_anonymity_audit,
    "encoding_advisor": q_encoding_advisor,
    "cohort_ltv": q_cohort_ltv,
    "price_volume_decomposition": q_price_volume_decomposition,
    "basket_dispersion": q_basket_dispersion,
    "source_length_drift": q_source_length_drift,
    "revenue_outlier_days": q_revenue_outlier_days,
}

ORACLE_SQL = {
    # Diverges on a series shorter than 2 months (t < 2): the engine
    # emits one row (n_right 0, gain 0) and the oracle none, as its sc
    # CTE keeps only cum.rn < t.n. test_single_month_degenerate pins the
    # engine's row; every benchmark scale has many months.
    "revenue_changepoint": _SQL_CHANGEPOINT,
    "seasonal_strength": _SQL_SEASONAL_STRENGTH,
    "rfm_segments": _SQL_RFM,
    "event_type_xcorr": _SQL_EVENT_TYPE_XCORR,
    "revenue_acf": _SQL_REVENUE_ACF,
    "brand_rank_stability": _SQL_BRAND_RANK_STABILITY,
    "basket_triples": _SQL_BASKET_TRIPLES,
    "order_price_cvm": _SQL_ORDER_PRICE_CVM,
    "event_trigrams": _SQL_EVENT_TRIGRAMS,
    "theil_decomposition": _SQL_THEIL,
    "return_rate_pchart": _SQL_RETURN_RATE_PCHART,
    "k_anonymity_audit": _SQL_K_ANONYMITY,
    "encoding_advisor": _SQL_ENCODING_ADVISOR,
    "cohort_ltv": _SQL_COHORT_LTV,
    "price_volume_decomposition": _SQL_PRICE_VOLUME,
    "basket_dispersion": _SQL_BASKET_DISPERSION,
    "source_length_drift": _SQL_SOURCE_LENGTH_DRIFT,
    "revenue_outlier_days": _SQL_REVENUE_OUTLIER_DAYS,
}
