"""Unit tests for relational/analytics5.py (changepoint segmentation,
seasonal strength, and the session-4 additions).

Pins beyond the oracle harness: crafted monthly series with
closed-form argmax/ratio answers, plus hash-equality against DuckDB
running the registered oracle SQL verbatim on the same fixture.
"""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.relational import analytics5 as a5


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    yield


def _canon(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(tuple(str(v) for v in row) for row in df.itertuples(index=False))
    return hashlib.md5(str(rows).encode()).hexdigest()


def _monthly_orders(tmp_path, rev_k):
    """One order per month starting 1995-01; order i totals rev_k[i]
    thousand dollars, so the k$ series equals rev_k exactly."""
    months = (np.datetime64("1995-01", "M") + np.arange(len(rev_k))).astype(
        "datetime64[us]"
    )
    t = pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, len(rev_k) + 1), pa.int64()),
            "o_orderdate": pa.array(months),
            "o_totalprice": pa.array([float(v) * 1000.0 for v in rev_k]),
        }
    )
    pq.write_table(t, str(tmp_path / "orders.parquet"))


def _oracle(tmp_path, sql) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM '{tmp_path}/orders.parquet'"
    )
    return con.sql(sql).df()


class TestRevenueChangepoint:
    def test_step_series_hand_check(self, tmp_path):
        """[1,1,1,5,5,5] k$: centered y=[0,0,0,4,4,4]; g(k) over the
        5 splits is [28,36,48,36,28] → argmax at k=3, gain
        48 − 144//6 = 24, means 1 and 5."""
        _monthly_orders(tmp_path, [1, 1, 1, 5, 5, 5])
        got = a5.q_revenue_changepoint(str(tmp_path))
        base = (1995 - 1970) * 12  # epoch-month of 1995-01
        assert got.loc[0, "split_month"] == base + 2
        assert got.loc[0, "n_left"] == 3 and got.loc[0, "n_right"] == 3
        assert got.loc[0, "mean_left_k"] == 1 and got.loc[0, "mean_right_k"] == 5
        assert got.loc[0, "gain_k2"] == 24
        assert _canon(got) == _canon(_oracle(tmp_path, a5._SQL_CHANGEPOINT))

    def test_tie_breaks_to_earlier_month(self, tmp_path):
        """A symmetric series [3,1,1,3] ties g(1)=g(3); the spec takes
        the earlier boundary on both sides."""
        _monthly_orders(tmp_path, [3, 1, 1, 3])
        got = a5.q_revenue_changepoint(str(tmp_path))
        oracle = _oracle(tmp_path, a5._SQL_CHANGEPOINT)
        assert got.loc[0, "split_month"] == (1995 - 1970) * 12
        assert _canon(got) == _canon(oracle)

    def test_single_month_degenerate(self, tmp_path):
        _monthly_orders(tmp_path, [7])
        got = a5.q_revenue_changepoint(str(tmp_path))
        assert got.loc[0, "n_left"] == 1 and got.loc[0, "n_right"] == 0
        assert got.loc[0, "gain_k2"] == 0


class TestSeasonalStrength:
    def test_perfectly_seasonal_is_zero(self, tmp_path):
        """A 24-month series repeating a 12-month pattern has zero
        seasonal-naive error → strength 0 (seasonal forecast is
        perfect)."""
        pattern = [5, 9, 2, 7, 7, 1, 8, 3, 6, 4, 10, 2]
        _monthly_orders(tmp_path, pattern * 2)
        got = a5.q_seasonal_strength(str(tmp_path))
        assert got.loc[0, "n_months"] == 24
        assert got.loc[0, "seasonal_abs_sum_k"] == 0
        assert got.loc[0, "strength_ppm"] == 0
        assert _canon(got) == _canon(_oracle(tmp_path, a5._SQL_SEASONAL_STRENGTH))

    def test_pure_trend_is_twelve(self, tmp_path):
        """y_t = t: naive MAE 1, seasonal-naive MAE 12 → strength
        exactly 12·10⁶ (month-over-month deltas are 12× more
        informative than same-month-last-year)."""
        _monthly_orders(tmp_path, list(range(1, 25)))
        got = a5.q_seasonal_strength(str(tmp_path))
        assert got.loc[0, "naive_abs_sum_k"] == 23
        assert got.loc[0, "seasonal_abs_sum_k"] == 144
        assert got.loc[0, "strength_ppm"] == 12_000_000
        assert _canon(got) == _canon(_oracle(tmp_path, a5._SQL_SEASONAL_STRENGTH))

    def test_short_series_guard(self, tmp_path):
        """≤ 12 months: no seasonal pairs exist → strength 0 on both
        sides (the oracle's CASE guard mirrors the engine's)."""
        _monthly_orders(tmp_path, [4, 8, 6])
        got = a5.q_seasonal_strength(str(tmp_path))
        assert got.loc[0, "n_seasonal"] == 0
        assert got.loc[0, "strength_ppm"] == 0
        assert _canon(got) == _canon(_oracle(tmp_path, a5._SQL_SEASONAL_STRENGTH))


class TestRfmSegments:
    def _orders(self, tmp_path):
        """8 customers, one dimension varied at a time: customer i has
        last order day i, i+1 orders, and spend scaling with i."""
        rows = []
        key = 1
        for i in range(8):
            for j in range(i + 1):
                rows.append((key, i, 100.0 * (i + 1)))
                key += 1
        ck = [i + 1 for i in range(8) for _ in range(i + 1)]
        days = (
            np.datetime64("1995-01-01", "us")
            + np.array([r[1] for r in rows]) * np.timedelta64(1, "D")
        )
        t = pa.table(
            {
                "o_orderkey": pa.array(np.arange(1, len(rows) + 1), pa.int64()),
                "o_custkey": pa.array(ck, pa.int64()),
                "o_orderdate": pa.array(days),
                "o_totalprice": pa.array([r[2] for r in rows]),
            }
        )
        pq.write_table(t, str(tmp_path / "orders.parquet"))

    def test_codes_and_oracle(self, tmp_path):
        self._orders(tmp_path)
        got = a5.q_rfm_segments(str(tmp_path))
        oracle = _oracle(tmp_path, a5._SQL_RFM)
        assert _canon(got) == _canon(oracle)
        # every code is in 1..4 and counts cover all 8 customers
        assert got["n_customers"].sum() == 8
        for c in ("r_code", "f_code", "m_code"):
            assert got[c].between(1, 4).all()
        # customer 8 (most recent, most orders, top spend) must land
        # in the (1, 4, 4) cell
        cell = got.set_index(["r_code", "f_code", "m_code"])
        assert (1, 4, 4) in cell.index

    def test_pin_gate_fallback_equals_pinned(self, tmp_path, monkeypatch):
        """Past the pin budget the two consumers rebuild the custkey
        exchange instead of materializing — results must be
        identical."""
        self._orders(tmp_path)
        pinned = a5.q_rfm_segments(str(tmp_path))
        from pdf_parser_ray.core import util as cu

        monkeypatch.setattr(cu, "pin_fits", lambda hint, budget_bytes=0: False)
        unpinned = a5.q_rfm_segments(str(tmp_path))
        assert _canon(pinned) == _canon(unpinned)


class TestEventTypeXcorr:
    def test_shifted_series_peaks_at_lag(self, tmp_path):
        """view counts [5,0,0,5,0,0,...] and purchase the same pattern
        shifted +2 days: at lag=2 the aligned pair is perfectly
        correlated (num > 0, num² = dx·dy); at lag=0 the overlap is
        anti-aligned."""
        n_days = 12
        views = [5 if i % 3 == 0 else 0 for i in range(n_days)]
        buys = [5 if (i - 2) % 3 == 0 else 0 for i in range(n_days)]
        ts, et = [], []
        base = np.datetime64("2024-01-01", "us")
        for i in range(n_days):
            for _ in range(views[i]):
                ts.append(base + i * np.timedelta64(86400, "s"))
                et.append("view")
            for _ in range(buys[i]):
                ts.append(base + i * np.timedelta64(86400, "s"))
                et.append("purchase")
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(np.arange(len(ts)), pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                    "event_type": pa.array(et, pa.string()),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        got = a5.q_event_type_xcorr(str(tmp_path), max_lag=3).set_index("lag")
        r2 = got.loc[2]
        assert r2["corr_sign"] == 1
        assert int(r2["num"]) ** 2 == int(r2["dx"]) * int(r2["dy"])  # r = +1
        assert got.loc[0, "corr_sign"] == -1

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'"
        )
        oracle = con.sql(a5._sql_event_type_xcorr(max_lag=3)).df()
        assert _canon(got.reset_index()) == _canon(oracle)


class TestRevenueAcf:
    def test_period_two_alternation(self, tmp_path):
        """Alternating [1,9,1,9,...]: every odd lag is perfectly
        anti-correlated, every even lag perfectly correlated —
        num² = dx·dy with the matching sign throughout."""
        _monthly_orders(tmp_path, [1, 9] * 8)
        got = a5.q_revenue_acf(str(tmp_path), max_lag=4).set_index("lag")
        for lag in (1, 3):
            assert got.loc[lag, "corr_sign"] == -1
            assert int(got.loc[lag, "num"]) ** 2 == int(
                got.loc[lag, "dx"]
            ) * int(got.loc[lag, "dy"])
        for lag in (2, 4):
            assert got.loc[lag, "corr_sign"] == 1
        oracle = _oracle(tmp_path, a5._sql_revenue_acf(4))
        assert _canon(got.reset_index()) == _canon(oracle)


class TestReadability:
    def test_hand_counts(self, ray_session, tmp_path_factory):
        import pyarrow.parquet as pq2

        from pdf_parser_ray.stages.textstats import q_readability

        d = tmp_path_factory.mktemp("read_sf")
        pq2.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    # doc 1: 5 words, 2 sentence runs, syllable runs:
                    # "the cat sat. it ran!" → e|a|a|i|a = 5 vowel runs
                    "text": pa.array(
                        ["the cat sat. it ran!", "zzz qqq"], pa.string()
                    ),
                }
            ),
            str(d / "documents.parquet"),
        )
        got = q_readability(str(d)).to_pandas().set_index("doc_id")
        assert got.loc[1, "n_words"] == 5
        assert got.loc[1, "n_sentences"] == 2
        assert got.loc[1, "n_syllables"] == 5
        w, s, y = 5, 2, 5
        assert got.loc[1, "flesch_micro"] == (
            206_835_000 - (1_015_000 * w) // s - (84_600_000 * y) // w
        )
        # no vowels, no sentence marks: the max(,1) guards hold
        assert got.loc[2, "n_sentences"] == 0 and got.loc[2, "n_syllables"] == 0


def _brand_tables(tmp_path, partkeys, prices, ship):
    """Brands A and B (partkeys 1 and 2) and one lineitem per price;
    returns the engine's answer and DuckDB's on the registered oracle."""
    part = pa.table(
        {
            "p_partkey": pa.array([1, 2], pa.int64()),
            "p_brand": pa.array(["A", "B"], pa.string()),
        }
    )
    li = pa.table(
        {
            "l_orderkey": pa.array(np.arange(1, len(prices) + 1), pa.int64()),
            "l_partkey": pa.array(partkeys, pa.int64()),
            "l_extendedprice": pa.array(prices),
            "l_shipdate": pa.array([np.datetime64(d, "us") for d in ship], pa.timestamp("us")),
        }
    )
    pq.write_table(part, str(tmp_path / "part.parquet"))
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    got = a5.q_brand_rank_stability(str(tmp_path))
    con = duckdb.connect()
    for t in ("part", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path}/{t}.parquet'")
    return got, con.sql(a5._SQL_BRAND_RANK_STABILITY).df()


class TestBrandRankStability:
    def test_flip_and_stable(self, tmp_path):
        """Two brands whose revenue ranking flips between halves →
        one discordant pair; oracle hash-equal on the same fixture."""
        # months 1995-01 (half 0) and 1995-12 (half 1): A dominates
        # early, B dominates late
        got, oracle = _brand_tables(
            tmp_path,
            [1, 2, 1, 2],
            [100.0, 10.0, 10.0, 100.0],
            ["1995-01-05", "1995-01-06", "1995-12-05", "1995-12-06"],
        )
        assert got.loc[0, "n_brands"] == 2 and got.loc[0, "n_pairs"] == 1
        assert got.loc[0, "discordant"] == 1 and got.loc[0, "tau_num"] == -1
        assert _canon(got) == _canon(oracle)

    def test_single_month_has_no_second_half(self, tmp_path):
        """Every ship date in one month: the midpoint is that month, so
        no brand has a half-1 revenue and none is counted."""
        got, oracle = _brand_tables(
            tmp_path, [1, 2, 1], [100.0, 10.0, 5.0], ["1995-03-01", "1995-03-02", "1995-03-30"]
        )
        assert got.loc[0, "n_brands"] == 0 and got.loc[0, "n_pairs"] == 0
        assert _canon(got) == _canon(oracle)


class TestBasketTriples:
    def test_hand_supports(self, ray_session, tmp_path_factory):
        import pyarrow.parquet as pq2

        d = tmp_path_factory.mktemp("triples_sf")
        # baskets: {1,2,3,4} ×2, {1,2,3} ×1, {1,2} (no triple)
        baskets = [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3], [1, 2]]
        ok = [i + 1 for i, b in enumerate(baskets) for _ in b]
        pk = [p for b in baskets for p in b]
        pq2.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(ok, pa.int64()),
                    "l_partkey": pa.array(pk, pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        got = a5.q_basket_triples(str(d), min_support=2, n_buckets=4)
        want = {(1, 2, 3): 3, (1, 2, 4): 2, (1, 3, 4): 2, (2, 3, 4): 2}
        assert {
            (r.p1, r.p2, r.p3): r.support for r in got.itertuples()
        } == want
        # ordering: support desc then triple asc
        assert tuple(got.iloc[0][["p1", "p2", "p3"]]) == (1, 2, 3)


class TestOrderPriceCvm:
    def test_identical_and_disjoint(self, tmp_path):
        """Identical A/B samples → zero criterion; fully separated
        samples → the between-region gap is 10⁶ ppm at every pooled
        point strictly between them."""
        import pyarrow.parquet as pq2

        def orders(prices, prios):
            return pa.table(
                {
                    "o_orderkey": pa.array(
                        np.arange(1, len(prices) + 1), pa.int64()
                    ),
                    "o_totalprice": pa.array(prices, pa.float64()),
                    "o_orderpriority": pa.array(prios, pa.string()),
                }
            )

        # identical distributions
        pq2.write_table(
            orders([10.0, 20.0, 10.0, 20.0],
                   ["1-URGENT", "1-URGENT", "3-MEDIUM", "3-MEDIUM"]),
            str(tmp_path / "orders.parquet"),
        )
        got = a5.q_order_price_cvm(str(tmp_path))
        assert got.loc[0, "cvm_num"] == 0 and got.loc[0, "t_micro"] == 0
        assert _canon(got) == _canon(_oracle(tmp_path, a5._SQL_ORDER_PRICE_CVM))

        # disjoint supports: A = {10, 20}, B = {30, 40}
        pq2.write_table(
            orders([10.0, 20.0, 30.0, 40.0],
                   ["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"]),
            str(tmp_path / "orders.parquet"),
        )
        got2 = a5.q_order_price_cvm(str(tmp_path))
        # gaps at the four pooled values: 500000, 1000000, 500000, 0 ppm
        want = (500_000**2) * 1 + (1_000_000**2) * 1 + (500_000**2) * 1
        assert got2.loc[0, "cvm_num"] == want
        assert _canon(got2) == _canon(_oracle(tmp_path, a5._SQL_ORDER_PRICE_CVM))


class TestEventTrigrams:
    def test_hand_sequences(self, tmp_path):
        """User 1: v,c,p,v → trigrams (v,c,p), (c,p,v); user 2: v,c
        contributes nothing. Conditional prob is per (t1,t2) prefix."""
        import pyarrow.parquet as pq2

        base = np.datetime64("2024-01-01", "us")
        rows = [
            (1, 1, 0, "view"), (2, 1, 1, "click"), (3, 1, 2, "purchase"),
            (4, 1, 3, "view"), (5, 2, 0, "view"), (6, 2, 1, "click"),
        ]
        pq2.write_table(
            pa.table(
                {
                    "event_id": pa.array([r[0] for r in rows], pa.int64()),
                    "user_id": pa.array([r[1] for r in rows], pa.int64()),
                    "ts": pa.array(
                        [base + r[2] * np.timedelta64(60, "s") for r in rows],
                        pa.timestamp("us"),
                    ),
                    "event_type": pa.array([r[3] for r in rows], pa.string()),
                }
            ),
            str(tmp_path / "events.parquet"),
        )
        got = a5.q_event_trigrams(str(tmp_path), n_buckets=4)
        key = got.set_index(["t1", "t2", "t3"])
        assert len(got) == 2
        assert key.loc[("view", "click", "purchase"), "n_steps"] == 1
        assert key.loc[("click", "purchase", "view"), "n_steps"] == 1
        assert (got["prob_micro"] == 1_000_000).all()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'"
        )
        assert _canon(got) == _canon(con.sql(a5._SQL_EVENT_TRIGRAMS).df())


class TestTheilDecomposition:
    def _fixture(self, tmp_path, spends_by_nation):
        rows = []
        ck = 1
        for nation, spends in spends_by_nation.items():
            for s in spends:
                rows.append((ck, nation, s))
                ck += 1
        customer = pa.table(
            {
                "c_custkey": pa.array([r[0] for r in rows], pa.int64()),
                "c_nationkey": pa.array([r[1] for r in rows], pa.int64()),
            }
        )
        orders = pa.table(
            {
                "o_orderkey": pa.array(np.arange(1, len(rows) + 1), pa.int64()),
                "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
                "o_totalprice": pa.array([float(r[2]) for r in rows]),
            }
        )
        pq.write_table(customer, str(tmp_path / "customer.parquet"))
        pq.write_table(orders, str(tmp_path / "orders.parquet"))

    def test_between_dominates_level_shift(self, tmp_path):
        """Equal spend inside each nation, 4x level shift between
        them: within ≈ 0 (exactly 0 — identical values snap to the
        same lnm), between > 0, and total ≈ between."""
        self._fixture(tmp_path, {0: [100.0] * 4, 1: [400.0] * 4})
        got = a5.q_theil_decomposition(str(tmp_path))
        assert got.loc[0, "within_micro"] == 0
        assert got.loc[0, "between_micro"] > 0
        assert abs(
            int(got.loc[0, "theil_micro"]) - int(got.loc[0, "between_micro"])
        ) <= 2  # ln-snap slack
        con = duckdb.connect()
        for t in ("customer", "orders"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path}/{t}.parquet'"
            )
        assert _canon(got) == _canon(con.sql(a5._SQL_THEIL).df())

    def test_uniform_is_zero(self, tmp_path):
        """Identical spend everywhere: all three components are 0."""
        self._fixture(tmp_path, {0: [250.0] * 3, 1: [250.0] * 5})
        got = a5.q_theil_decomposition(str(tmp_path))
        assert got.loc[0, "theil_micro"] == 0
        assert got.loc[0, "between_micro"] == 0
        assert got.loc[0, "within_micro"] == 0

    def test_int64_envelope_fails_loudly(self, tmp_path):
        """A customer spending 5·10¹⁸ cents among 2 customers puts
        xᵢ·N past 2⁶³: the engine raises rather than wrap, as the
        oracle's BIGINT arithmetic does."""
        self._fixture(tmp_path, {0: [5e16], 1: [1.0]})
        with pytest.raises(OverflowError, match="2\\^63"):
            a5.q_theil_decomposition(str(tmp_path))
        con = duckdb.connect()
        for t in ("customer", "orders"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path}/{t}.parquet'")
        with pytest.raises(duckdb.OutOfRangeException):
            con.sql(a5._SQL_THEIL).df()


class TestReturnRatePchart:
    def test_planted_spike_flags(self, tmp_path):
        """Many in-control weeks at 10% return rate plus one planted
        100% week: only the spike leaves the 3σ band."""
        import pyarrow.parquet as pq2

        days, flags = [], []
        base = np.datetime64("1995-01-05", "us")  # Thursday, week anchor
        for wk in range(10):
            for i in range(30):
                days.append(base + wk * np.timedelta64(7, "D"))
                flags.append("R" if i < 3 else "N")
        for i in range(30):  # spike week: all returned
            days.append(base + 10 * np.timedelta64(7, "D"))
            flags.append("R")
        pq2.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(np.arange(len(days)), pa.int64()),
                    "l_shipdate": pa.array(days, pa.timestamp("us")),
                    "l_returnflag": pa.array(flags, pa.string()),
                }
            ),
            str(tmp_path / "lineitem.parquet"),
        )
        got = a5.q_return_rate_pchart(str(tmp_path))
        assert len(got) == 11
        flagged = got[got["ooc_flag"] == 1]
        assert len(flagged) == 1
        assert int(flagged.iloc[0]["rate_ppm"]) == 1_000_000
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path}/lineitem.parquet'"
        )
        assert _canon(got) == _canon(con.sql(a5._SQL_RETURN_RATE_PCHART).df())


class TestKAnonymityAudit:
    def test_planted_singleton(self, tmp_path):
        """A lone customer in a unique (nation, segment, band) tuple
        is the one violating class at k=2."""
        import pyarrow.parquet as pq2

        cust = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "c_nationkey": pa.array([0, 0, 0, 0, 9], pa.int64()),
                "c_mktsegment": pa.array(
                    ["AUTO", "AUTO", "AUTO", "AUTO", "RARE"], pa.string()
                ),
                "c_acctbal": pa.array([100.0, 150.0, 120.0, 180.0, -50.0]),
            }
        )
        pq2.write_table(cust, str(tmp_path / "customer.parquet"))
        got = a5.q_k_anonymity_audit(str(tmp_path), k=2)
        assert got.loc[0, "n_rows"] == 5
        assert got.loc[0, "n_classes"] == 2
        assert got.loc[0, "min_class_size"] == 1
        assert got.loc[0, "n_violating_classes"] == 1
        assert got.loc[0, "n_violating_rows"] == 1
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW customer AS SELECT * FROM '{tmp_path}/customer.parquet'"
        )
        assert _canon(got) == _canon(con.sql(a5._sql_k_anonymity(2)).df())


class TestEncodingAdvisor:
    def test_flags_low_cardinality(self, tmp_path):
        """2000 orders with 2 statuses (dict-encodable at den=100) vs
        near-unique price bands (rejected)."""
        import pyarrow.parquet as pq2

        n = 2000
        rng = np.random.RandomState(3)
        months = (
            np.datetime64("1995-01", "M") + rng.randint(0, 3, n)
        ).astype("datetime64[us]")
        orders = pa.table(
            {
                "o_orderkey": pa.array(np.arange(1, n + 1), pa.int64()),
                "o_orderstatus": pa.array(
                    np.where(np.arange(n) % 2 == 0, "O", "F"), pa.string()
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * n, pa.string()),
                "o_orderdate": pa.array(months),
                "o_totalprice": pa.array(
                    (np.arange(n) * 1000.0 + 5.0), pa.float64()
                ),
            }
        )
        pq2.write_table(orders, str(tmp_path / "orders.parquet"))
        got = a5.q_encoding_advisor(str(tmp_path), dict_ratio_den=100).set_index(
            "col"
        )
        assert got.loc["o_orderstatus", "n_distinct"] == 2
        assert got.loc["o_orderstatus", "dict_flag"] == 1
        assert got.loc["o_orderpriority", "top_share_ppm"] == 1_000_000
        assert got.loc["price_kband", "dict_flag"] == 0
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW orders AS SELECT * FROM '{tmp_path}/orders.parquet'"
        )
        assert _canon(got.reset_index()) == _canon(
            con.sql(a5._sql_encoding_advisor(100)).df()
        )


class TestCohortLtv:
    def test_two_cohorts_hand_check(self, tmp_path):
        """Cohort A (2 customers, months 0/1 spend 100+300, then 200)
        and cohort B (1 customer, one order): cumulative and per-member
        floor averages pinned."""
        import pyarrow.parquet as pq2

        rows = [  # (custkey, month-offset, dollars)
            (1, 0, 100.0), (2, 0, 300.0), (1, 1, 200.0), (3, 2, 50.0),
        ]
        months = (np.datetime64("1995-01", "M") + np.array([r[1] for r in rows])).astype("datetime64[us]")
        pq2.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(np.arange(1, 5), pa.int64()),
                    "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
                    "o_orderdate": pa.array(months),
                    "o_totalprice": pa.array([r[2] for r in rows]),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        got = a5.q_cohort_ltv(str(tmp_path), n_buckets=4).set_index(
            ["cohort_month", "age_months"]
        )
        base = (1995 - 1970) * 12
        a0 = got.loc[(base, 0)]
        assert a0["n_customers"] == 2 and a0["rev_cents"] == 40000
        assert a0["ltv_cents"] == 20000
        a1 = got.loc[(base, 1)]
        assert a1["cum_rev_cents"] == 60000 and a1["ltv_cents"] == 30000
        b0 = got.loc[(base + 2, 0)]
        assert b0["n_customers"] == 1 and b0["ltv_cents"] == 5000
        assert _canon(got.reset_index()) == _canon(
            _oracle(tmp_path, a5._SQL_COHORT_LTV)
        )


class TestPriceVolumeDecomposition:
    def test_pure_price_rise_and_entry(self, tmp_path):
        """Part 1 doubles its unit value at constant volume → pure
        price effect; part 2 exists only in half 1 → entry revenue."""
        import pyarrow.parquet as pq2

        ship = [
            np.datetime64("1995-01-05", "us"), np.datetime64("1995-12-05", "us"),
            np.datetime64("1995-12-06", "us"),
        ]
        li = pa.table(
            {
                "l_orderkey": pa.array([1, 2, 3], pa.int64()),
                "l_partkey": pa.array([1, 1, 2], pa.int64()),
                "l_extendedprice": pa.array([100.0, 200.0, 70.0]),
                "l_quantity": pa.array([10.0, 10.0, 7.0]),
                "l_shipdate": pa.array(ship, pa.timestamp("us")),
            }
        )
        pq2.write_table(li, str(tmp_path / "lineitem.parquet"))
        got = a5.q_price_volume_decomposition(str(tmp_path), n_buckets=4)
        # v0 = 10000*1e6//10 = 1e9; v1 = 2e9 → price effect 1e9·10
        assert got.loc[0, "n_parts_both"] == 1
        assert got.loc[0, "price_effect_microcents"] == 10_000_000_000
        assert got.loc[0, "volume_effect_microcents"] == 0
        assert got.loc[0, "interaction_microcents"] == 0
        assert got.loc[0, "entry_rev_cents"] == 7000
        assert got.loc[0, "exit_rev_cents"] == 0
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path}/lineitem.parquet'"
        )
        assert _canon(got) == _canon(con.sql(a5._SQL_PRICE_VOLUME).df())


class TestBasketDispersion:
    def test_constant_and_overdispersed(self, tmp_path):
        """Equal basket sizes → VMR 0; a planted bulk order drives
        VMR above 10⁶."""
        import pyarrow.parquet as pq2

        ok = [1] * 3 + [2] * 3 + [3] * 3
        pq2.write_table(
            pa.table({"l_orderkey": pa.array(ok, pa.int64())}),
            str(tmp_path / "lineitem.parquet"),
        )
        got = a5.q_basket_dispersion(str(tmp_path))
        assert got.loc[0, "vmr_ppm"] == 0

        ok2 = [1] * 1 + [2] * 1 + [3] * 10
        pq2.write_table(
            pa.table({"l_orderkey": pa.array(ok2, pa.int64())}),
            str(tmp_path / "lineitem.parquet"),
        )
        got2 = a5.q_basket_dispersion(str(tmp_path))
        # x = (1,1,10): n=3, sx=12, sx2=102 → (306−144)·1e6 // 24
        assert got2.loc[0, "vmr_ppm"] == 162 * 1_000_000 // 24
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path}/lineitem.parquet'"
        )
        assert _canon(got2) == _canon(con.sql(a5._SQL_BASKET_DISPERSION).df())


class TestSourceLengthDrift:
    def test_shifted_source_dominates(self, tmp_path):
        """Three sources with identical length profiles plus one
        shifted by +1000 chars: the shifted source carries the max
        ks_micro (disjoint supports → 10⁶) and the identical ones sit
        near zero."""
        import pyarrow.parquet as pq2

        lens, srcs = [], []
        for s in ("a", "b", "c"):
            for v in (100, 200, 300) * 4:
                lens.append(v)
                srcs.append(s)
        for v in (1100, 1200, 1300) * 4:
            lens.append(v)
            srcs.append("weird")
        pq2.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(lens)), pa.int64()),
                    "text": pa.array(["x"] * len(lens), pa.string()),
                    "source": pa.array(srcs, pa.string()),
                    "n_chars": pa.array(lens, pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        got = a5.q_source_length_drift(str(tmp_path)).set_index("source")
        assert got.loc["weird", "ks_micro"] == 1_000_000
        assert got.loc["weird", "at_value"] == 300  # last value before the jump
        for s in ("a", "b", "c"):
            assert got.loc[s, "ks_micro"] < got.loc["weird", "ks_micro"]
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
        )
        assert _canon(got.reset_index()) == _canon(
            con.sql(a5._SQL_SOURCE_LENGTH_DRIFT).df()
        )

    def test_single_source_gap_zero_at_smallest_length(self, tmp_path):
        """One source: the rest is empty, every gap is 0, and the max is
        first attained at the smallest length (the oracle's MIN(v))."""
        lens = [300, 100, 200, 100, 250]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(lens)), pa.int64()),
                    "text": pa.array(["x"] * len(lens), pa.string()),
                    "source": pa.array(["only"] * len(lens), pa.string()),
                    "n_chars": pa.array(lens, pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        got = a5.q_source_length_drift(str(tmp_path))
        assert got.loc[0, "d_num"] == 0 and got.loc[0, "at_value"] == 100
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
        assert _canon(got) == _canon(con.sql(a5._SQL_SOURCE_LENGTH_DRIFT).df())


class TestRevenueOutlierDays:
    def test_planted_spike_and_constant_series(self, tmp_path):
        """A flat 30-day series with one 10× day flags exactly that
        day; a perfectly constant series flags nothing (MAD = 0 path
        guards the degenerate case)."""
        import pyarrow.parquet as pq2

        days = (
            np.datetime64("1995-01-01", "us")
            + np.arange(30) * np.timedelta64(1, "D")
        )
        prices = np.full(30, 100.0)
        prices[17] = 1000.0
        pq2.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(np.arange(1, 31), pa.int64()),
                    "o_orderdate": pa.array(days),
                    "o_totalprice": pa.array(prices),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        got = a5.q_revenue_outlier_days(str(tmp_path))
        assert len(got) == 1
        assert got.loc[0, "rev_cents"] == 100_000
        assert _canon(got) == _canon(
            _oracle(tmp_path, a5._SQL_REVENUE_OUTLIER_DAYS)
        )

        pq2.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array(np.arange(1, 31), pa.int64()),
                    "o_orderdate": pa.array(days),
                    "o_totalprice": pa.array(np.full(30, 100.0)),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        assert len(a5.q_revenue_outlier_days(str(tmp_path))) == 0
