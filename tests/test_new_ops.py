"""Adversarial-edge tests for the round-2 relational operators:
windowed rank (ties), exact percentiles (boundary indices, heavy
duplicates), sessionizer (gaps exactly at threshold, ts ties), rollup
(subtotal arithmetic) — each against an independent brute-force or
DuckDB computation on a synthetic table written to tmp parquet."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def adversarial_sf(tmp_path_factory):
    """A tiny sf-dir with adversarial orders/events tables."""
    d = tmp_path_factory.mktemp("adv_sf")
    rng = np.random.RandomState(13)

    n = 500
    # orders: many exact ties in totalprice, duplicate-heavy prices
    custkey = rng.randint(1, 20, size=n)
    prices = rng.choice([10.00, 10.00, 25.50, 25.50, 99.99, 1000.00], size=n)
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(1, n + 1), pa.int64()),
            "o_custkey": pa.array(custkey, pa.int64()),
            "o_totalprice": pa.array(prices, pa.float64()),
        }
    )
    pq.write_table(orders, str(d / "orders.parquet"))

    # events: gaps exactly at/over/under the 1800s threshold, ts ties
    rows = []
    eid = 0
    for uid in range(1, 8):
        t = np.int64(1_700_000_000_000_000)
        for gap_s in (0, 1800, 1801, 1799, 1800, 3600, 0, 0, 1801):
            t += np.int64(gap_s) * 1_000_000
            rows.append((eid, uid, t))
            eid += 1
    ev = pd.DataFrame(rows, columns=["event_id", "user_id", "ts_us"])
    events = pa.table(
        {
            "event_id": pa.array(ev["event_id"].to_numpy(), pa.int64()),
            "user_id": pa.array(ev["user_id"].to_numpy(), pa.int64()),
            "ts": pa.array(ev["ts_us"].to_numpy(), pa.timestamp("us")),
        }
    )
    pq.write_table(events, str(d / "events.parquet"))
    return str(d)


class TestAdversarialOps:
    def test_windowed_rank_ties(self, adversarial_sf):
        from pdf_parser_ray.relational.ops import q_top_orders_per_customer

        got = (
            q_top_orders_per_customer(adversarial_sf)
            .to_pandas()
            .sort_values(["o_custkey", "rn"])
            .reset_index(drop=True)
        )
        # brute force in pandas with the same ordering contract
        df = pq.read_table(f"{adversarial_sf}/orders.parquet").to_pandas()
        df["total_cents"] = np.rint(df["o_totalprice"] * 100).astype(np.int64)
        df = df.sort_values(
            ["o_custkey", "total_cents", "o_orderkey"], ascending=[True, False, True]
        )
        df["rn"] = df.groupby("o_custkey").cumcount() + 1
        want = (
            df[df["rn"] <= 3][["o_custkey", "o_orderkey", "total_cents", "rn"]]
            .sort_values(["o_custkey", "rn"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)

    def test_percentiles_duplicate_heavy(self, adversarial_sf):
        import duckdb

        from pdf_parser_ray.relational.ops import q_price_percentiles

        got = q_price_percentiles(adversarial_sf)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW orders AS SELECT * FROM '{adversarial_sf}/orders.parquet'"
        )
        want = con.execute(
            """SELECT
              CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT),
              CAST(PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT),
              CAST(PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT)
            FROM orders"""
        ).fetchone()
        assert (
            int(got["p50_cents"][0]),
            int(got["p90_cents"][0]),
            int(got["p99_cents"][0]),
        ) == tuple(want)

    def test_sessionizer_threshold_edges(self, adversarial_sf):
        from pdf_parser_ray.relational.ops import q_user_sessions

        got = (
            q_user_sessions(adversarial_sf)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        # brute force: gap strictly greater than 1800s starts a session
        ev = pq.read_table(f"{adversarial_sf}/events.parquet").to_pandas()
        ev["us"] = ev["ts"].astype("int64")
        want_rows = []
        for uid, g in ev.groupby("user_id"):
            g = g.sort_values(["us", "event_id"])
            gaps = g["us"].diff()
            want_rows.append(
                (uid, len(g), int(1 + (gaps > 1800 * 1_000_000).sum()))
            )
        want = pd.DataFrame(want_rows, columns=["user_id", "n_events", "n_sessions"])
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # the fixture has gaps of exactly 1800s — they must NOT split
        assert (got["n_sessions"] < got["n_events"]).all()

    def test_hll_within_3_sigma_of_exact(self):
        from pdf_parser_ray.relational.ops import (
            _HLL_P,
            q_distinct_users,
            q_distinct_users_hll,
        )

        sf = "/root/testdata/sf0.01"
        exact = int(q_distinct_users(sf)["n_users"][0])
        est = int(q_distinct_users_hll(sf)["n_users_approx"][0])
        m = 1 << _HLL_P
        sigma = 1.04 / np.sqrt(m)  # HLL standard error
        assert exact > 0
        assert abs(est - exact) <= max(3 * sigma * exact, 3), (est, exact)

    def test_count_min_bounds(self):
        """Sketch+heap vs the exact pass (the exact wordcount runs
        ONLY here, as the test oracle — the query path no longer calls
        it): the per-partition candidate heaps must recover exactly the
        true top-k token set, every CM estimate is never below the true
        count (CM only overestimates), and within the εN = (e/w)·N
        guarantee of it."""
        from pdf_parser_ray.stages.textstats import (
            _CM_W,
            q_top_tokens,
            q_top_tokens_cm,
        )

        sf = "/root/testdata/sf0.01"
        exact = q_top_tokens(sf).to_pandas().set_index("token")["n"]
        est = q_top_tokens_cm(sf).set_index("token")["n_est"]
        assert set(est.index) == set(exact.index), (
            "heap+sketch candidate recovery missed a true top-k token"
        )
        total = exact.sum()  # lower bound on N — loose but sufficient
        import math

        eps_n = math.e / _CM_W * total * 40  # generous slack: N >> top-20 sum
        for tok in exact.index:
            assert est[tok] >= exact[tok], (tok, est[tok], exact[tok])
            assert est[tok] - exact[tok] <= eps_n, (tok, est[tok], exact[tok])

    def test_rollup_subtotals_consistent(self):
        from pdf_parser_ray.relational.ops import q_revenue_rollup

        got = q_revenue_rollup("/root/testdata/sf0.001").to_pandas()
        leaf = got[(got["r_name"] != "ALL") & (got["n_name"] != "ALL")]
        region_rows = got[(got["r_name"] != "ALL") & (got["n_name"] == "ALL")]
        grand = got[(got["r_name"] == "ALL") & (got["n_name"] == "ALL")]
        assert len(grand) == 1
        assert grand["revenue_cents"].iloc[0] == leaf["revenue_cents"].sum()
        per_region = leaf.groupby("r_name")["revenue_cents"].sum()
        for _, row in region_rows.iterrows():
            assert row["revenue_cents"] == per_region[row["r_name"]]


class TestBroadcastShuffleCrossover:
    """Each join picks broadcast or exchange from a parquet-footer size
    probe (core/join.keyed_join; core/util.broadcast_build_fits for the
    prep pipeline). Force the probe both ways and assert identical
    results."""

    SF = "/root/testdata/sf0.001"

    @staticmethod
    def _sorted(ds):
        df = ds.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def test_probe_reads_footer_only(self):
        from pdf_parser_ray.core.util import broadcast_build_fits

        p = f"{self.SF}/orders.parquet"
        assert broadcast_build_fits(p)  # tiny sf fits the default budget
        assert not broadcast_build_fits(p, budget_bytes=1)
        rows = pq.ParquetFile(p).metadata.num_rows
        # rows × 8 bytes fits exactly; one byte less does not
        assert broadcast_build_fits(p, budget_bytes=rows * 8)
        assert not broadcast_build_fits(p, budget_bytes=rows * 8 - 1)

    def test_semi_join_switches_both_ways(self):
        from pdf_parser_ray.relational.ops import q_customers_with_orders

        broadcast = self._sorted(q_customers_with_orders(self.SF))
        shuffle = self._sorted(q_customers_with_orders(self.SF, budget_bytes=1))
        pd.testing.assert_frame_equal(broadcast, shuffle)

    def test_anti_join_switches_both_ways(self):
        from pdf_parser_ray.relational.ops import q_customers_without_orders

        broadcast = self._sorted(q_customers_without_orders(self.SF))
        shuffle = self._sorted(q_customers_without_orders(self.SF, budget_bytes=1))
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, shuffle)

    def test_training_prep_switches_both_ways(self):
        from pdf_parser_ray.pipelines.prep import q_training_prep

        broadcast = self._sorted(q_training_prep(self.SF))
        shuffle = self._sorted(q_training_prep(self.SF, budget_bytes=1))
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, shuffle)

    def test_supplier_revenue_switches_both_ways(self):
        from pdf_parser_ray.relational.ops import q_supplier_revenue

        broadcast = self._sorted(q_supplier_revenue(self.SF))
        shuffle = self._sorted(q_supplier_revenue(self.SF, budget_bytes=1))
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, shuffle)

    def test_top_revenue_orders_switches_both_ways(self):
        from pdf_parser_ray.relational.ops import q_top_revenue_orders

        broadcast = self._sorted(q_top_revenue_orders(self.SF))
        shuffle = self._sorted(q_top_revenue_orders(self.SF, budget_bytes=1))
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, shuffle)

    def test_bloom_no_false_negatives_and_bounded_fp(self):
        import numpy as np

        from pdf_parser_ray.relational.ops import _bloom_add, _bloom_test

        members = np.arange(0, 20_000, 2, dtype=np.int64)  # 10k even keys
        bits = np.zeros((1 << 18) // 64, dtype=np.uint64)
        _bloom_add(bits, members, n_hashes=4)
        # every member passes — the property the exact result relies on
        assert _bloom_test(bits, members, n_hashes=4).all()
        # non-members (odd keys) pass only at the designed fp rate
        non = np.arange(1, 2_000_001, 2, dtype=np.int64)
        fp = _bloom_test(bits, non, n_hashes=4).mean()
        assert fp < 0.01, fp
        assert not _bloom_test(bits, np.array([], dtype=np.int64), 4).any()

    def test_outer_join_retains_matchless_customers(self, tmp_path):
        """Crafted tables (the synthetic sf dirs give almost every
        customer an order, so the zero-fill path needs forcing):
        customer 3 has no orders and must survive with zeros; exact
        cents must sum across order batches."""
        import duckdb

        from pdf_parser_ray.relational.ops import _SQL_OUTER_PROFILE, q_customer_order_profile

        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1, 2, 3], pa.int64()),
                    "c_name": pa.array(["a", "b", "c"], pa.string()),
                }
            ),
            str(tmp_path / "customer.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "o_custkey": pa.array([1, 1, 2], pa.int64()),
                    "o_totalprice": pa.array([10.01, 0.02, 5.00], pa.float64()),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        sf = str(tmp_path)

        got = self._sorted(q_customer_order_profile(sf))
        con = duckdb.connect()
        for t in ("customer", "orders"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
        want = con.sql(_SQL_OUTER_PROFILE).df()
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("c_custkey")
        assert by_id.loc[3, "n_orders"] == 0 and by_id.loc[3, "spend_cents"] == 0
        assert by_id.loc[1, "n_orders"] == 2 and by_id.loc[1, "spend_cents"] == 1003

    def test_salted_join_matches_plain_under_skew(self, tmp_path):
        """One customer owns 90% of the orders (the hot-key case the
        salt exists for): the salted join must still sum exactly —
        sub-bucket replication may never double-count the build side."""
        from pdf_parser_ray.relational.ops import (
            q_segment_revenue,
            q_segment_revenue_salted,
        )

        n_hot = 900
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1, 2, 3], pa.int64()),
                    "c_mktsegment": pa.array(["HOT", "COLD", "EMPTY"], pa.string()),
                }
            ),
            str(tmp_path / "customer.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "o_custkey": pa.array([1] * n_hot + [2] * 100, pa.int64()),
                    "o_totalprice": pa.array([1.01] * n_hot + [2.02] * 100, pa.float64()),
                }
            ),
            str(tmp_path / "orders.parquet"),
        )
        sf = str(tmp_path)

        plain = self._sorted(q_segment_revenue(sf))
        salted = self._sorted(q_segment_revenue_salted(sf, n_salts=4))
        pd.testing.assert_frame_equal(plain, salted)
        by_seg = salted.set_index("c_mktsegment")["revenue_cents"]
        assert by_seg["HOT"] == 101 * n_hot and by_seg["COLD"] == 202 * 100
        assert "EMPTY" not in by_seg.index  # inner join drops orderless seg

    def test_bloom_semi_join_matches_broadcast(self):
        from pdf_parser_ray.relational.ops import (
            q_customers_with_orders,
            q_customers_with_orders_bloom,
        )

        broadcast = self._sorted(q_customers_with_orders(self.SF))
        bloom = self._sorted(q_customers_with_orders_bloom(self.SF))
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, bloom)


class TestGroupedHll:
    """Per-group HLL: every event type's estimate must sit within 3σ
    (σ = 1.04/√m relative) of the exact grouped distinct, and the
    global sketch must still agree with its own exact twin after the
    shared-helper refactor."""

    def test_grouped_estimates_within_3_sigma(self, ray_session):
        import duckdb

        from pdf_parser_ray.relational.ops import _HLL_P, q_type_user_counts_hll

        sf = "/root/testdata/sf0.01"
        approx = q_type_user_counts_hll(sf).set_index("event_type")["n_users_approx"]
        exact = (
            duckdb.sql(
                f"SELECT event_type, count(DISTINCT user_id) AS n "
                f"FROM '{sf}/events.parquet' GROUP BY 1"
            )
            .df()
            .set_index("event_type")["n"]
        )
        sigma = 1.04 / np.sqrt(1 << _HLL_P)
        assert set(approx.index) == set(exact.index)
        for t in exact.index:
            rel = abs(int(approx[t]) - int(exact[t])) / int(exact[t])
            assert rel <= 3 * sigma, (t, int(approx[t]), int(exact[t]), rel)


class TestMultiFormatIO:
    """read_table_auto / write_table_auto: the same table must survive
    a Parquet → CSV and Parquet → JSONL round trip bit-identically, so
    pipelines built on the parquet fixtures run unchanged on text-format
    landing zones."""

    def test_csv_and_jsonl_round_trip(self, tmp_path, ray_session):
        from pdf_parser_ray.io.sources import read_table_auto, write_table_auto

        src = "/root/testdata/sf0.001/documents.parquet"
        base = (
            read_table_auto(src, columns=["doc_id", "text"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(base) == 500

        for ext in ("csv", "json"):
            out = str(tmp_path / f"docs_{ext}.{ext}")
            write_table_auto(
                read_table_auto(src, columns=["doc_id", "text"]), out
            )
            back = (
                read_table_auto(out, columns=["doc_id", "text"])
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(base, back), ext

    def test_unknown_format_rejected(self):
        import pytest as _pytest

        from pdf_parser_ray.io.sources import read_table_auto

        with _pytest.raises(ValueError, match="unsupported table format"):
            read_table_auto("/tmp/nope.xlsx")


class TestQuantileSketch:
    """The log-histogram quantile sketch's error bound: each reported
    lower bound lb satisfies lb ≤ exact < lb·(1 + 2⁻ᵐ) — the bin that
    contains the ⌈q·N⌉-th value brackets it within one mantissa step."""

    def test_sketch_within_relative_error_of_exact(self, ray_session):
        from pdf_parser_ray.relational.ops import (
            _QSK_MBITS,
            q_price_percentiles,
            q_price_percentiles_sketch,
        )

        sf = "/root/testdata/sf0.001"
        exact = q_price_percentiles(sf).iloc[0]
        approx = q_price_percentiles_sketch(sf).iloc[0]
        step = 2.0 ** -_QSK_MBITS
        for q in ("p50", "p90", "p99"):
            lb = int(approx[f"{q}_lb_cents"])
            ex = int(exact[f"{q}_cents"])
            assert lb <= ex, (q, lb, ex)
            assert ex < lb * (1 + step) + 1, (q, lb, ex)

    def test_binning_is_exact_integer_math(self):
        import numpy as np

        # frexp exponents equal bit_length for every magnitude class,
        # including powers of two and 2^k − 1 — the float-log2
        # boundary cases the integer formulation exists to avoid
        vals = np.array(
            [1, 2, 3, 7, 8, 9, (1 << 20) - 1, 1 << 20, (1 << 33) - 1, 1 << 33],
            dtype=np.int64,
        )
        bl = np.frexp(vals.astype(np.float64))[1]
        assert bl.tolist() == [int(v).bit_length() for v in vals]

    def test_binning_properties_random(self):
        """Hypothesis sweep of the sketch's core invariants over
        arbitrary positive int64 values (up to 2⁴⁸ — beyond any cents
        domain): exponent == bit_length, the bin lower bound brackets
        the value within one mantissa step, and (bl, sub) ordering is
        value-consistent (bins never interleave)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from pdf_parser_ray.relational.ops import _QSK_MBITS

        m1 = _QSK_MBITS + 1

        @settings(max_examples=300, deadline=None)
        @given(st.integers(min_value=1, max_value=(1 << 48) - 1))
        def check(v):
            arr = np.array([v], dtype=np.int64)
            bl = int(np.frexp(arr.astype(np.float64))[1][0])
            assert bl == v.bit_length()
            shift = max(bl - m1, 0)
            sub = v >> shift
            lb = sub << shift
            assert lb <= v < lb + (1 << shift)  # one mantissa step wide
            # relative error of the lower-bound read-off
            assert (v - lb) / v <= 2.0 ** -_QSK_MBITS + 1e-12

        check()

        # ordering consistency on random pairs: v1 < v2 implies
        # (bl1, sub1) <= (bl2, sub2)
        rng = np.random.default_rng(5)
        v = rng.integers(1, 1 << 40, size=2000).astype(np.int64)
        bl = np.frexp(v.astype(np.float64))[1].astype(np.int64)
        sub = v >> np.maximum(bl - m1, 0)
        order_v = np.argsort(v, kind="stable")
        keys = list(zip(bl[order_v].tolist(), sub[order_v].tolist()))
        assert keys == sorted(keys)


class TestTermSearch:
    """Ranked term search on a crafted corpus: probe = first 3 distinct
    words of doc 0; scoring counts distinct probe terms present as
    whole tokens (substring hits must NOT count)."""

    def test_term_search_scoring(self, tmp_path, ray_session):
        import duckdb

        from pdf_parser_ray.stages.textstats import _SQL_TERM_SEARCH, q_term_search

        docs = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "Alpha beta gamma tail words here",  # probe source
                        "beta alpha elsewhere",              # 2 hits
                        "gamma only",                        # 1 hit → dropped
                        "alphabet betamax gamma",            # substrings don't count → 1 hit
                        "ALPHA BETA GAMMA",                  # case-folded 3 hits
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(docs, str(tmp_path / "documents.parquet"))
        sf = str(tmp_path)

        got = q_term_search(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
        want = con.sql(_SQL_TERM_SEARCH).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("doc_id")
        assert set(by_id.index) == {0, 1, 4}
        assert by_id.loc[0, "n_hits"] == 3   # doc 0 always matches itself
        assert by_id.loc[1, "n_hits"] == 2
        assert by_id.loc[4, "n_hits"] == 3   # case-insensitive


class TestScrub:
    """PII redaction / Gopher-rules edges on a crafted corpus, checked
    against DuckDB running the registered oracle SQL on the same
    table — redaction ordering (SSN before phone), empty text,
    augmentation on id%3==0, boundary word counts."""

    @pytest.fixture(scope="class")
    def scrub_sf(self, tmp_path_factory, ray_session):
        d = tmp_path_factory.mktemp("scrub_sf")
        docs = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "plain words only here",
                        "reach me at bob.smith+tag@mail.example.org now",
                        "ssn 987-65-4321 phone 555-1234 both",
                        "",
                        "numbers 123-4567 and 111-22-3333 end",
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(docs, str(d / "documents.parquet"))
        return str(d)

    def test_pii_scrub_matches_oracle_and_ordering(self, scrub_sf):
        import duckdb

        from pdf_parser_ray.stages.scrub import _SQL_PII_SCRUB, q_pii_scrub

        got = q_pii_scrub(scrub_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{scrub_sf}/documents.parquet'")
        want = con.sql(_SQL_PII_SCRUB).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("doc_id")
        # id 2: the SSN must become [SSN], never half-eaten as a phone
        assert by_id.loc[2, "clean_text"] == "ssn [SSN] phone [PHONE] both"
        assert by_id.loc[2, "n_ssn"] == 1 and by_id.loc[2, "n_phone"] == 1
        # id 4: bare 3-4 digit pair is a phone; full SSN shape is SSN
        assert by_id.loc[4, "clean_text"] == "numbers [PHONE] and [SSN] end"
        # id 1: email redacted with plus-tag and subdomain
        assert by_id.loc[1, "clean_text"] == "reach me at [EMAIL] now"
        # ids 0 and 3 (id%3==0) carry the injected contact line, redacted
        assert by_id.loc[0, "n_email"] == 1 and by_id.loc[3, "n_email"] == 1
        assert by_id.loc[3, "clean_text"] == " contact [EMAIL] ssn [SSN] phone [PHONE]"

    def test_gopher_rules_matches_oracle_and_boundaries(self, scrub_sf):
        import duckdb

        from pdf_parser_ray.stages.scrub import _SQL_GOPHER_RULES, q_gopher_rules

        got = q_gopher_rules(scrub_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{scrub_sf}/documents.parquet'")
        want = con.sql(_SQL_GOPHER_RULES).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
        by_id = got.set_index("doc_id")
        # empty text: zero words, zero mean, rejected — no div-by-zero
        assert by_id.loc[3, "n_words"] == 0 and by_id.loc[3, "mean_wlen_milli"] == 0
        assert by_id.loc[3, "keep"] == 0
        # every crafted doc is under the 20-word floor → all rejected
        assert got["keep"].sum() == 0


class TestCorpusOps:
    """Boundary tests for the corpus-shaping stage (stages/corpus.py)
    on a crafted corpus with known chunk/segment structure, each
    checked against DuckDB running the registered oracle SQL on the
    same table, plus hand-computed boundary asserts. Doc ids avoid the
    dedup-augmentation multiples (7, 10) so the segment-dedup input is
    exactly the crafted corpus."""

    @pytest.fixture(scope="class")
    def corpus_sf(self, tmp_path_factory, ray_session):
        d = tmp_path_factory.mktemp("corpus_sf")
        w = [f"w{i}" for i in range(32)]   # docs 1/2: exactly one chunk
        u = [f"u{i}" for i in range(16)]   # doc 3's unique segment
        v = [f"v{i}" for i in range(33)]   # doc 5: one word past a chunk
        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "text": pa.array(
                    [
                        " ".join(w),            # segments [w0..15, w16..31]
                        " ".join(w),            # exact dup of doc 1
                        " ".join(w[:16] + u),   # shares seg 0 with doc 1
                        "",                     # empty text
                        " ".join(v),            # segments 16+16+1
                        "x x x x x",            # repeated 2-gram (x,x)
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(docs, str(d / "documents.parquet"))
        return str(d)

    def _oracle(self, sf, sql):
        import duckdb

        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
        return con.sql(sql).df()

    def test_doc_chunks_boundaries(self, corpus_sf):
        from pdf_parser_ray.stages.corpus import _SQL_DOC_CHUNKS, q_doc_chunks

        got = (
            q_doc_chunks(corpus_sf)
            .to_pandas()
            .sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_DOC_CHUNKS)
            .sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

        per_doc = got.groupby("doc_id").size()
        assert per_doc[1] == 1          # exactly _CHUNK words → one chunk
        assert per_doc[4] == 1          # empty doc still emits chunk 0
        assert per_doc[5] == 2          # _CHUNK+1 words → two chunks
        by_key = got.set_index(["doc_id", "chunk_idx"])
        assert by_key.loc[(4, 0), "n_words"] == 0
        assert by_key.loc[(4, 0), "chunk_text"] == ""
        # stride: chunk 1 restarts at word _STRIDE (=24) and runs to 32
        assert by_key.loc[(5, 1), "chunk_text"] == " ".join(
            f"v{i}" for i in range(24, 33)
        )
        assert by_key.loc[(5, 1), "n_words"] == 9

    def test_segment_dedup_keep_first(self, corpus_sf):
        from pdf_parser_ray.stages.corpus import _SQL_SEGMENT_DEDUP, q_segment_dedup

        got = (
            q_segment_dedup(corpus_sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_SEGMENT_DEDUP)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("doc_id")
        # exact dup (doc 2) and empty doc (doc 4) vanish entirely
        assert set(by_id.index) == {1, 3, 5, 6}
        assert by_id.loc[1, "n_kept"] == 2 and by_id.loc[1, "n_dropped"] == 0
        # doc 3 loses its shared seg 0 to doc 1, keeps only its unique tail
        assert by_id.loc[3, "n_kept"] == 1 and by_id.loc[3, "n_dropped"] == 1
        assert by_id.loc[3, "clean_text"] == " ".join(f"u{i}" for i in range(16))
        # 33 words → three segments (16, 16, 1), all unique
        assert by_id.loc[5, "n_kept"] == 3

    def test_repetition_flags_boundaries(self, corpus_sf):
        from pdf_parser_ray.stages.corpus import (
            _SQL_REPETITION_FLAGS,
            q_repetition_flags,
        )

        got = (
            q_repetition_flags(corpus_sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_REPETITION_FLAGS)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("doc_id")
        # empty doc: all zeros, no div-by-zero
        assert by_id.loc[4].tolist() == [0, 0, 0, 0, 0]
        # all-distinct 32-word doc: top 2-gram count 1, below threshold
        assert by_id.loc[1, "top_2gram_count"] == 1 and by_id.loc[1, "rep_flag"] == 0
        # 'x x x x x': (x,x) fires 4/4 2-grams → frac 1.0, flagged
        assert by_id.loc[6, "top_2gram_count"] == 4
        assert by_id.loc[6, "top_2gram_frac_micro"] == 1_000_000
        assert by_id.loc[6, "rep_flag"] == 1 and by_id.loc[6, "n_distinct_words"] == 1

    def test_substring_dedup_boundaries(self, corpus_sf):
        from pdf_parser_ray.stages.corpus import _SQL_SUBSTRING_DEDUP, q_substring_dedup

        got = (
            q_substring_dedup(corpus_sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_SUBSTRING_DEDUP)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

        by_id = got.set_index("doc_id")
        # fully-deduped docs STAY in the output (unlike segment dedup)
        assert set(by_id.index) == {1, 2, 3, 4, 5, 6}
        # doc 1 is the first occurrence of every duplicated gram → intact
        assert by_id.loc[1, "removed_words"] == 0
        # doc 2 is a verbatim copy → every word covered, empty text kept
        assert by_id.loc[2, "removed_words"] == 32
        assert by_id.loc[2, "text"] == ""
        # doc 3 shares only its 16-word w-prefix with doc 1: the prefix
        # grams (pos 0..8) are duplicated, covering exactly words 0..15
        assert by_id.loc[3, "removed_words"] == 16
        assert by_id.loc[3, "text"] == " ".join(f"u{i}" for i in range(16))
        # empty doc: zero words, zero removed, no crash
        assert by_id.loc[4, "n_words"] == 0 and by_id.loc[4, "removed_words"] == 0
        # doc 6 has 5 words < the 8-word gram width → no grams, intact
        assert by_id.loc[6, "removed_words"] == 0 and by_id.loc[6, "text"] == "x x x x x"

    def test_substring_dedup_matches_reference_on_random_corpora(
        self, tmp_path, ray_session
    ):
        """Property check vs a direct single-process reference: random
        small-vocab corpora (lots of accidental 8-gram collisions),
        first-occurrence-survives coverage removal recomputed with
        plain dicts — the distributed two-exchange pipeline must agree
        exactly, including n_words/removed_words accounting."""
        from pdf_parser_ray.stages.corpus import _KG, q_substring_dedup
        from pdf_parser_ray.stages.dedup import _EXACT_EVERY, _NEAR_EVERY

        rng = np.random.default_rng(11)
        vocab = ["va", "vb"]  # 2⁸ = 256 possible grams → natural dups
        ids, texts = [], []
        next_id = 1
        for _ in range(40):
            while next_id % _NEAR_EVERY == 0 or next_id % _EXACT_EVERY == 0:
                next_id += 1
            ids.append(next_id)
            next_id += 1
            n = int(rng.integers(0, 30))
            texts.append(" ".join(rng.choice(vocab, size=n)))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )

        # reference: global first occurrence per gram, then coverage
        first: dict[str, tuple[int, int]] = {}
        for d, t in sorted(zip(ids, texts)):
            ws = t.split()
            for i in range(len(ws) - _KG + 1):
                g = " ".join(ws[i : i + _KG])
                if g not in first:
                    first[g] = (d, i)
        want = {}
        for d, t in zip(ids, texts):
            ws = t.split()
            covered = set()
            for i in range(len(ws) - _KG + 1):
                g = " ".join(ws[i : i + _KG])
                cnt = sum(
                    1
                    for d2, t2 in zip(ids, texts)
                    for j in range(len(t2.split()) - _KG + 1)
                    if " ".join(t2.split()[j : j + _KG]) == g
                )
                if cnt >= 2 and first[g] != (d, i):
                    covered.update(range(i, i + _KG))
            kept = [w for j, w in enumerate(ws) if j not in covered]
            want[d] = (" ".join(kept), len(ws), len(ws) - len(kept))

        got = q_substring_dedup(str(tmp_path)).to_pandas()
        assert len(got) == len(ids)
        for row in got.itertuples(index=False):
            assert (row.text, row.n_words, row.removed_words) == want[row.doc_id], (
                row.doc_id
            )
        # the tiny vocabulary must actually exercise cross-doc removal
        assert (got["removed_words"] > 0).any()

    def test_epoch_shuffle_is_hash_order_permutation(self, corpus_sf):
        import hashlib

        from pdf_parser_ray.stages.corpus import _SQL_EPOCH_SHUFFLE, q_epoch_shuffle

        got = (
            q_epoch_shuffle(corpus_sf)
            .to_pandas()
            .sort_values("epoch_rank")
            .reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_EPOCH_SHUFFLE)
            .sort_values("epoch_rank")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        # ranks are a permutation of 0..N-1 in md5-key order — the
        # bucket-range + offset composition must reproduce a single
        # global sort (the //-vs-% bucket regression this pins)
        assert got["epoch_rank"].tolist() == list(range(6))
        keys = [hashlib.md5(f"epoch0:{i}".encode()).hexdigest() for i in got["doc_id"]]
        assert keys == sorted(keys)

    def test_train_split_deterministic_and_content_free(self, corpus_sf):
        from pdf_parser_ray.stages.corpus import _SQL_TRAIN_SPLIT, q_train_split

        got = (
            q_train_split(corpus_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = (
            self._oracle(corpus_sf, _SQL_TRAIN_SPLIT)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        assert set(got["split"]) <= {"train", "val", "test"}
        # content-free: re-running on a corpus with the same ids but
        # different text yields the identical assignment
        again = (
            q_train_split(corpus_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, again)


class TestSemanticDedup:
    """semantic_dedup on crafted embedding tables with known cluster
    structure. Within-cluster vectors are IDENTICAL, so the IVF
    fan-out probes identical cell sets and recall is exact by
    construction; cross-cluster vectors are orthogonal (cos 0 < 0.4)."""

    def _write(self, tmp_path, ids, rows):
        emb = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(rows, pa.list_(pa.float32())),
            }
        )
        pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
        return str(tmp_path)

    def test_cluster_reps_survive(self, tmp_path, ray_session):
        import duckdb

        from pdf_parser_ray.stages.corpus import _SQL_SEMANTIC_DEDUP, q_semantic_dedup

        e = np.eye(8, dtype=np.float32)
        sf = self._write(
            tmp_path,
            [1, 2, 3, 4, 5, 6, 7],
            [e[0], e[0], e[0], e[1], e[1], e[2], e[3]],  # {1,2,3}, {4,5}, lone 6, 7
        )
        got = sorted(q_semantic_dedup(sf).to_pandas()["vec_id"])
        assert got == [1, 4, 6, 7]  # min id per cluster + both singletons

        con = duckdb.connect()
        con.sql(f"CREATE VIEW embeddings AS SELECT * FROM '{sf}/embeddings.parquet'")
        want = sorted(con.sql(_SQL_SEMANTIC_DEDUP).df()["vec_id"])
        assert got == want

    def test_no_pairs_keeps_everything(self, tmp_path, ray_session):
        from pdf_parser_ray.stages.corpus import q_semantic_dedup

        e = np.eye(8, dtype=np.float32)
        sf = self._write(tmp_path, [1, 2, 3, 4], [e[0], e[1], e[2], e[3]])
        got = sorted(q_semantic_dedup(sf).to_pandas()["vec_id"])
        assert got == [1, 2, 3, 4]


class TestNgramJaccard:
    """Exact n-gram Jaccard join via prefix filtering
    (stages/dedup.py::q_ngram_dedup_pairs). Doc ids avoid the
    dedup-augmentation multiples (7, 10) so the augmented corpus is
    exactly the crafted corpus; all near-dup structure is crafted
    explicitly, including pairs sitting exactly ON the J = 0.5
    boundary and on the length-filter edge."""

    def _brute(self, ids, texts, threshold):
        from pdf_parser_ray.stages.dedup import jaccard_int

        num, den = float(threshold).as_integer_ratio()
        out = set()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                inter, uni = jaccard_int(texts[i], texts[j])
                if inter * den >= num * uni:
                    a, b = sorted((ids[i], ids[j]))
                    micro = 1_000_000 if uni == 0 else inter * 1_000_000 // uni
                    out.add((a, b, micro))
        return out

    def _run(self, tmp_path, ids, texts, threshold=0.5):
        from pdf_parser_ray.stages.dedup import q_ngram_dedup_pairs

        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )
        df = q_ngram_dedup_pairs(str(tmp_path), threshold).to_pandas()
        return set(zip(df["doc_a"], df["doc_b"], df["jaccard_micro"]))

    def test_boundary_corpus(self, tmp_path, ray_session):
        w = [f"w{i}" for i in range(8)]  # 8 words -> 6 3-grams
        ids = [1, 2, 3, 4, 5, 6, 8, 9, 11, 12]
        texts = [
            " ".join(w),                   # 1: 6 grams
            " ".join(w),                   # 2: exact dup of 1 (J=1)
            " ".join(w[:6]),               # 3: 4 grams, all shared with 1 -> J=4/6 < ... = 0.666 kept
            " ".join(w[:5]),               # 4: 3 grams subset of 1 -> J=3/6=0.5 EXACTLY (kept)
            " ".join(w[:4]),               # 5: 2 grams subset of 1 -> J=2/6=0.333 (dropped vs 1)
            "a b",                         # 6: <3 words -> single gram "a b"
            "a b",                         # 8: same single gram (J=1 with 6)
            "",                            # 9: empty (sentinel path)
            "   ",                         # 11: whitespace-only -> also empty gram set (J=1 with 9)
            "q r s t",                     # 12: unrelated
        ]
        got = self._run(tmp_path, ids, texts)
        want = self._brute(ids, texts, 0.5)
        assert got == want
        # the hand-known structure, spot-checked
        assert (1, 2, 1_000_000) in got            # exact dup
        assert (1, 4, 500_000) in got              # exactly at threshold
        assert not any(a == 1 and b == 5 for a, b, _ in got)  # below threshold
        assert (6, 8, 1_000_000) in got            # single-gram docs
        assert (9, 11, 1_000_000) in got           # empty-empty via sentinel
        assert not any(9 in (a, b) and 12 in (a, b) for a, b, _ in got)

    def test_length_filter_edge(self, tmp_path, ray_session):
        # |A| = 2 grams ⊂ |B| = 4 grams: J = 2/4 = 0.5 = t and the
        # length ratio n_a/n_b = 0.5 = t — the filter must NOT prune.
        a = "x0 x1 x2 x3"          # grams (x0x1x2)(x1x2x3)
        b = "x0 x1 x2 x3 x4 x5"    # 4 grams, superset
        got = self._run(tmp_path, [1, 2], [a, b])
        assert got == {(1, 2, 500_000)}

    def test_matches_brute_force_random(self, tmp_path, ray_session):
        rng = np.random.default_rng(41)
        vocab = [f"t{i}" for i in range(12)]
        ids, texts = [], []
        next_id = 1
        for _ in range(36):
            while next_id % 7 == 0 or next_id % 10 == 0:
                next_id += 1
            ids.append(next_id)
            next_id += 1
            n = int(rng.integers(0, 14))
            texts.append(" ".join(rng.choice(vocab, size=n)))
        for thr in (0.5, 0.3, 0.75):
            got = self._run(tmp_path, ids, texts, thr)
            assert got == self._brute(ids, texts, thr), f"threshold {thr}"

    def test_df_ordered_variant_matches_brute_force(self, tmp_path, ray_session):
        """The Vernica DF-ordered prefix variant must produce the
        identical exact join on the boundary corpus (sentinels, exact
        threshold, single-gram docs) and on random corpora at three
        thresholds — same completeness lemma, different total order."""
        from pdf_parser_ray.stages.dedup import q_ngram_dedup_pairs_df

        w = [f"w{i}" for i in range(8)]
        ids = [1, 2, 3, 4, 5, 6, 8, 9, 11, 12]
        texts = [
            " ".join(w), " ".join(w), " ".join(w[:6]), " ".join(w[:5]),
            " ".join(w[:4]), "a b", "a b", "", "   ", "q r s t",
        ]
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )
        df = q_ngram_dedup_pairs_df(str(tmp_path), 0.5).to_pandas()
        got = set(zip(df["doc_a"], df["doc_b"], df["jaccard_micro"]))
        assert got == self._brute(ids, texts, 0.5)

        rng = np.random.default_rng(43)
        vocab = [f"t{i}" for i in range(12)]
        ids2, texts2 = [], []
        next_id = 1
        for _ in range(30):
            while next_id % 7 == 0 or next_id % 10 == 0:
                next_id += 1
            ids2.append(next_id)
            next_id += 1
            texts2.append(" ".join(rng.choice(vocab, size=int(rng.integers(0, 14)))))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids2, pa.int64()), "text": pa.array(texts2)}),
            str(tmp_path / "documents.parquet"),
        )
        for thr in (0.5, 0.3, 0.75):
            df = q_ngram_dedup_pairs_df(str(tmp_path), thr).to_pandas()
            got = set(zip(df["doc_a"], df["doc_b"], df["jaccard_micro"]))
            assert got == self._brute(ids2, texts2, thr), f"threshold {thr}"

    def test_prefix_filter_complete(self):
        """The lemmas themselves, on random sets: (1) for any two gram
        sets with J ≥ t, the hash-ordered prefixes intersect
        (candidate generation is lossless for ANY fixed total order);
        (2) the PPJoin positional filter keeps every true pair — at
        SOME shared prefix gram the overlap upper bound
        ``1 + min(|A|−p_a−1, |B|−p_b−1)`` clears the equivalent
        overlap ⌈t·(|A|+|B|)/(1+t)⌉ (the engine keeps a pair if any
        shared gram passes)."""
        import zlib

        from pdf_parser_ray.stages.dedup import _prefix_len

        rng = np.random.default_rng(7)
        universe = [f"g{i}" for i in range(30)]

        def ordered(s):
            return sorted(s, key=lambda g: (zlib.crc32(g.encode()), g))

        checked = 0
        for thr in (0.5, 0.3, 0.8):
            num, den = float(thr).as_integer_ratio()
            for _ in range(300):
                a = set(rng.choice(universe, size=int(rng.integers(1, 20))))
                # b mutates a (drop/add a few) so most pairs land at
                # high-but-varied Jaccard; a fully independent draw
                # rarely clears the threshold.
                b = set(rng.choice(sorted(a), size=int(rng.integers(1, len(a) + 1)))) | set(
                    rng.choice(universe, size=int(rng.integers(0, 4)))
                )
                inter, uni = len(a & b), len(a | b)
                if inter * den >= num * uni:
                    ga, gb = ordered(a), ordered(b)
                    pa = {g: p for p, g in enumerate(ga[: _prefix_len(len(ga), num, den)])}
                    pb = {g: p for p, g in enumerate(gb[: _prefix_len(len(gb), num, den)])}
                    shared = set(pa) & set(pb)
                    assert shared, (a, b, thr)
                    alpha = -(-(num * (len(ga) + len(gb))) // (den + num))
                    assert any(
                        1 + min(len(ga) - pa[g] - 1, len(gb) - pb[g] - 1) >= alpha
                        for g in shared
                    ), (a, b, thr)
                    checked += 1
        assert checked > 100  # the property was actually exercised


class TestContainment:
    """Asymmetric n-gram containment join
    (stages/dedup.py::q_containment_dup_pairs). Doc ids avoid the
    augmentation multiples; the crafted corpus pins the asymmetry
    (subset ⊂ superset fires one direction only), the exact-4/5
    boundary, mutual containment of exact copies, and the empty-doc
    exclusion."""

    def _brute(self, ids, texts):
        from pdf_parser_ray.stages.dedup import (
            _CONTAIN_DEN,
            _CONTAIN_NUM,
            _gram_set,
        )

        out = set()
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i == j:
                    continue
                sa, sb = _gram_set(texts[i]), _gram_set(texts[j])
                if not sa or not sb:
                    continue
                inter = len(sa & sb)
                if inter * _CONTAIN_DEN >= _CONTAIN_NUM * len(sa):
                    out.add((ids[i], ids[j], inter * 1_000_000 // len(sa)))
        return out

    def test_crafted_corpus(self, tmp_path, ray_session):
        from pdf_parser_ray.stages.dedup import q_containment_dup_pairs

        w = [f"w{i}" for i in range(22)]
        ids = [1, 2, 3, 4, 5, 6]
        texts = [
            " ".join(w),          # 1: 20 grams (superset)
            " ".join(w[:7]),      # 2: 5 grams, all in 1 → contained (1e6), not vice versa
            " ".join(w[:6]) + " zzz",  # 3: 5 grams, 4 shared with 1 → exactly 4/5 (kept)
            " ".join(w),          # 4: exact copy of 1 → mutual containment
            "",                   # 5: empty → excluded
            "q r",                # 6: single disjoint gram → no pairs
        ]
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
            str(tmp_path / "documents.parquet"),
        )
        df = q_containment_dup_pairs(str(tmp_path)).to_pandas()
        got = set(zip(df["doc_a"], df["doc_b"], df["containment_micro"]))
        want = self._brute(ids, texts)
        assert got == want
        assert (2, 1, 1_000_000) in got and (1, 2) not in {
            (a, b) for a, b, _ in got if (a, b) == (1, 2)
        }
        assert (3, 1, 800_000) in got  # the exact-boundary pair
        assert (1, 4, 1_000_000) in got and (4, 1, 1_000_000) in got
        assert not any(5 in (a, b) or 6 in (a, b) for a, b, _ in got)


class TestTfIdf:
    """tfidf_top_terms boundary behavior on a crafted corpus: idf = 0
    for corpus-wide terms (ties broken by term), tf ties, and the
    per-doc k cutoff — checked against hand-computed micro scores and
    the registered DuckDB oracle."""

    def test_hand_computed_and_oracle(self, tmp_path, ray_session):
        import math

        import duckdb

        from pdf_parser_ray.stages.textstats import _SQL_TFIDF, q_tfidf_top_terms

        # 4 docs; "common" appears in all (idf=0); "rare" only in doc 1.
        texts = [
            "common rare rare mid",   # doc 1
            "common mid mid",         # doc 2
            "common",                 # doc 3
            "common zz",              # doc 4
        ]
        pq.write_table(
            pa.table(
                {"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": pa.array(texts)}
            ),
            str(tmp_path / "documents.parquet"),
        )
        got = (
            q_tfidf_top_terms(str(tmp_path))
            .to_pandas()
            .sort_values(["doc_id", "tfidf_micro", "term"], ascending=[True, False, True])
            .reset_index(drop=True)
        )

        # doc 1: rare tf=2 df=1 -> 2*ln(4)*1e6; mid tf=1 df=2 -> ln(2)*1e6; common 0
        micro = lambda tf, df: int(np.floor(tf * math.log(4 / df) * 1_000_000 + 0.5))
        d1 = got[got.doc_id == 1][["term", "tfidf_micro"]].values.tolist()
        assert d1 == [
            ["rare", micro(2, 1)],
            ["mid", micro(1, 2)],
            ["common", 0],
        ]
        # doc 3 has one term only -> one row, micro 0
        assert got[got.doc_id == 3][["term", "tfidf_micro"]].values.tolist() == [["common", 0]]

        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
        )
        want = (
            con.sql(_SQL_TFIDF)
            .df()
            .sort_values(["doc_id", "tfidf_micro", "term"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"tfidf_micro": "int64"}), want.astype({"tfidf_micro": "int64"})
        )

    def test_k_cutoff(self, tmp_path, ray_session):
        from pdf_parser_ray.stages.textstats import q_tfidf_top_terms

        # 6 distinct terms in doc 1, k=3 -> exactly 3 rows for doc 1
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["a b c d e f", "a b"]),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        got = q_tfidf_top_terms(str(tmp_path), k=3).to_pandas()
        assert (got.groupby("doc_id").size() == 3).loc[1]
        # doc 1 keeps the idf-heavy terms (c..f, df=1) over a/b (df=2);
        # tie among c..f broken by term asc -> c, d, e
        assert sorted(got[got.doc_id == 1]["term"]) == ["c", "d", "e"]


class TestRangeJoin:
    """orders_near_event window-edge semantics on a crafted table:
    order exactly AT ts − 30d (included, >=), exactly AT ts
    (included, <=), one microsecond-day outside either bound
    (excluded), plus a customer with no orders and the prefix-sum
    cents arithmetic."""

    def test_window_edges(self, tmp_path, ray_session):
        from pdf_parser_ray.relational.ops import q_orders_near_event

        day_us = 86_400_000_000
        d0 = 20_000 * day_us  # a midnight, ~2024
        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "o_custkey": pa.array([1, 1, 1, 1, 3], pa.int64()),
                "o_orderdate": pa.array(
                    np.array(
                        [d0 - 30 * day_us, d0, d0 - 31 * day_us, d0 + day_us, d0],
                        dtype="int64",
                    ).view("datetime64[us]")
                ),
                "o_totalprice": pa.array([10.00, 2.50, 100.00, 100.00, 7.25]),
            }
        )
        pq.write_table(orders, str(tmp_path / "orders.parquet"))
        events = pa.table(
            {
                "event_id": pa.array([100, 101, 102], pa.int64()),
                "user_id": pa.array([1, 1, 2], pa.int64()),
                # midnight event; midday event (shifts the >= bound past
                # the midnight order at d0-30); user with no orders
                "ts": pa.array(
                    np.array([d0, d0 + day_us // 2, d0], dtype="int64").view(
                        "datetime64[us]"
                    )
                ),
            }
        )
        pq.write_table(events, str(tmp_path / "events.parquet"))

        got = (
            q_orders_near_event(str(tmp_path))
            .to_pandas()
            .set_index("event_id")
            .sort_index()
        )
        # midnight event: orders at d0-30 (10.00) and d0 (2.50) in window
        assert got.loc[100, "n_orders_30d"] == 2
        assert got.loc[100, "total_cents_30d"] == 1250
        # midday event: bound is midday d0-30, so the midnight d0-30
        # order falls out; d0 order still <= ts
        assert got.loc[101, "n_orders_30d"] == 1
        assert got.loc[101, "total_cents_30d"] == 250
        # user 2 has no orders at all
        assert got.loc[102, "n_orders_30d"] == 0
        assert got.loc[102, "total_cents_30d"] == 0


class TestKMeans:
    """Distributed Lloyd's k-means (stages/embed.py::q_kmeans):
    assignment agreement with a local reference on well-separated
    crafted clusters, run-to-run determinism, and a real-table smoke
    with non-increasing inertia across iteration counts."""

    def _write(self, tmp_path, ids, rows):
        emb = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [np.asarray(r, dtype=np.float32) for r in rows],
                    pa.list_(pa.float32()),
                ),
            }
        )
        pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
        return str(tmp_path)

    def _local_lloyd(self, vecs, k, iters):
        cents = vecs[:k].astype(np.float64).copy()
        for _ in range(iters):
            d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(k):
                m = assign == c
                if m.any():
                    cents[c] = vecs[m].mean(axis=0)
        d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def test_matches_local_reference_on_separated_clusters(
        self, tmp_path, ray_session
    ):
        from pdf_parser_ray.stages.embed import q_kmeans

        rng = np.random.default_rng(3)
        # 3 tight blobs far apart in 8-d; first 3 vecs land one per blob
        # so the first-k init starts near each center
        centers = np.array(
            [[10, 0, 0, 0, 0, 0, 0, 0], [0, 10, 0, 0, 0, 0, 0, 0], [0, 0, 10, 0, 0, 0, 0, 0]],
            dtype=np.float64,
        )
        rows, ids = [], []
        for i in range(60):
            blob = i % 3
            rows.append(centers[blob] + rng.normal(0, 0.1, size=8))
            ids.append(i)
        sf = self._write(tmp_path, ids, rows)
        got = (
            q_kmeans(sf, k=3, iters=4)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        vecs = np.stack([np.asarray(r, dtype=np.float32) for r in rows]).astype(
            np.float64
        )
        want = self._local_lloyd(vecs, 3, 4)
        assert (got["cluster"].to_numpy() == want).all()
        # blobs must come out pure: each blob maps to exactly one cluster
        for blob in range(3):
            assert got["cluster"][np.arange(60) % 3 == blob].nunique() == 1

    def test_deterministic_across_runs(self, tmp_path, ray_session):
        from pdf_parser_ray.stages.embed import q_kmeans

        rng = np.random.default_rng(9)
        sf = self._write(
            tmp_path, list(range(40)), [rng.normal(size=4) for _ in range(40)]
        )
        a = q_kmeans(sf, k=4, iters=3).to_pandas().sort_values("vec_id")
        b = q_kmeans(sf, k=4, iters=3).to_pandas().sort_values("vec_id")
        assert (a["cluster"].to_numpy() == b["cluster"].to_numpy()).all()
        assert (a["dist_micro"].to_numpy() == b["dist_micro"].to_numpy()).all()

    def test_real_table_smoke_and_inertia(self, ray_session):
        from pdf_parser_ray.stages.embed import q_kmeans

        sf = "/root/testdata/sf0.001"
        prev = None
        for iters in (1, 3, 5):
            df = q_kmeans(sf, k=8, iters=iters).to_pandas()
            assert len(df) == 500
            assert df["cluster"].between(0, 7).all()
            inertia = float(((df["dist_micro"].to_numpy() / 1e6) ** 2).sum())
            if prev is not None:
                assert inertia <= prev * (1 + 1e-9), (iters, inertia, prev)
            prev = inertia


class TestWindowPivotGroupedPct:
    """The three round-3 relational additions (relational/ops.py):
    running-total prefix-scan window (date ties broken by orderkey),
    event pivot (days with absent types must come out 0), grouped
    exact percentiles (duplicate-heavy values, boundary indices) —
    each vs an independent pandas/brute-force computation on a
    crafted table."""

    @pytest.fixture(scope="class")
    def sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("wpg_sf")
        rng = np.random.RandomState(7)
        n = 400
        custkey = rng.randint(1, 12, size=n)
        # only 3 distinct dates per customer -> plenty of date ties,
        # so the orderkey tie-break is load-bearing; day-aligned base so
        # the pivot's boundary events land where the comments say
        base = np.int64(18519) * 86_400_000_000
        dates = base + rng.randint(0, 3, size=n).astype(np.int64) * 86_400_000_000
        prices = rng.choice([10.00, 10.00, 25.50, 99.99, 500.00], size=n)
        pri = rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], size=n
        )
        orders = pa.table(
            {
                "o_orderkey": pa.array(np.arange(1, n + 1), pa.int64()),
                "o_custkey": pa.array(custkey, pa.int64()),
                "o_totalprice": pa.array(prices, pa.float64()),
                "o_orderdate": pa.array(dates, pa.timestamp("us")),
                "o_orderpriority": pa.array(pri, pa.string()),
            }
        )
        pq.write_table(orders, str(d / "orders.parquet"))

        # events: one day has only 'view' events (other counts must be 0),
        # plus an event in the last microsecond of a day (boundary)
        rows = [
            (0, "view", base),
            (1, "view", base + 5),
            (2, "click", base + 86_400_000_000),  # next day
            (3, "error", base + 2 * 86_400_000_000 - 1),  # last us of day 1
            (4, "purchase", base + 2 * 86_400_000_000),  # first us of day 2
            (5, "signup", base + 2 * 86_400_000_000),
        ]
        events = pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array(
                    np.array([r[2] for r in rows], dtype=np.int64),
                    pa.timestamp("us"),
                ),
            }
        )
        pq.write_table(events, str(d / "events.parquet"))
        return str(d)

    def test_running_total_vs_pandas(self, sf, ray_session):
        from pdf_parser_ray.relational.ops import q_running_total

        got = (
            q_running_total(sf, n_buckets=4)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        raw = pq.read_table(f"{sf}/orders.parquet").to_pandas()
        raw["cents"] = np.rint(raw["o_totalprice"] * 100).astype(np.int64)
        raw = raw.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        raw["run_cents"] = raw.groupby("o_custkey")["cents"].cumsum()
        want = raw.sort_values("o_orderkey").reset_index(drop=True)
        assert len(got) == len(want)
        assert (got["run_cents"].to_numpy() == want["run_cents"].to_numpy()).all()

    def test_event_pivot_zero_fill_and_boundaries(self, sf, ray_session):
        from pdf_parser_ray.relational.ops import q_event_pivot

        got = q_event_pivot(sf).to_pandas().sort_values("day").reset_index(drop=True)
        day0 = np.int64(18519)
        assert got["day"].tolist() == [day0, day0 + 1, day0 + 2]
        # day0: only views
        assert got.iloc[0][["n_view", "n_click", "n_error"]].tolist() == [2, 0, 0]
        # day1: the click plus the last-microsecond error stay on day1
        assert got.iloc[1][["n_click", "n_error", "n_view"]].tolist() == [1, 1, 0]
        # day2: purchase + signup
        assert got.iloc[2][["n_purchase", "n_signup", "n_view"]].tolist() == [1, 1, 0]
        # totals conserve events
        assert int(got[[f"n_{t}" for t in
                        ("click", "error", "purchase", "signup", "view")]]
                   .to_numpy().sum()) == 6

    def test_priority_percentiles_vs_bruteforce(self, sf, ray_session):
        from pdf_parser_ray.relational.ops import q_priority_percentiles

        got = (
            q_priority_percentiles(sf)
            .to_pandas()
            .set_index("o_orderpriority")
            .sort_index()
        )
        raw = pq.read_table(f"{sf}/orders.parquet").to_pandas()
        raw["cents"] = np.rint(raw["o_totalprice"] * 100).astype(np.int64)
        for pri, g in raw.groupby("o_orderpriority"):
            vals = np.sort(g["cents"].to_numpy())
            for q, col in ((0.5, "p50_cents"), (0.9, "p90_cents")):
                # PERCENTILE_DISC: smallest value at cumulative rank >= ceil(q*N)
                want = int(vals[int(np.ceil(q * len(vals))) - 1])
                assert int(got.loc[pri, col]) == want, (pri, col)

    def test_type_user_counts_cross_type_users(self, tmp_path, ray_session):
        # the same user under several types must count once PER TYPE;
        # duplicates within a type must collapse
        from pdf_parser_ray.relational.ops import q_type_user_counts

        rows = [
            ("view", 1), ("view", 1), ("view", 2),
            ("click", 1), ("click", 3), ("click", 3), ("click", 3),
            ("error", 9),
        ]
        events = pa.table(
            {
                "event_type": pa.array([r[0] for r in rows], pa.string()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
            }
        )
        d = tmp_path / "tuc_sf"
        d.mkdir()
        pq.write_table(events, str(d / "events.parquet"))
        got = q_type_user_counts(str(d)).set_index("event_type").sort_index()
        assert got.loc["view"].tolist() == [2, 3]     # users {1,2}, 3 events
        assert got.loc["click"].tolist() == [2, 4]    # users {1,3}, 4 events
        assert got.loc["error"].tolist() == [1, 1]


def _spy_pin_fits(monkeypatch):
    """Record every ``core.util.pin_fits`` call as ``(hint, budget, fits)``."""
    from pdf_parser_ray.core import util

    calls, real = [], util.pin_fits

    def spy(hint, budget_bytes=util.PIN_BUDGET_BYTES):
        fits = real(hint, budget_bytes)
        calls.append((hint, budget_bytes, fits))
        return fits

    monkeypatch.setattr(util, "pin_fits", spy)
    return calls


class TestPinGate:
    """Size-gated input pin for two-consumer stages (VERDICT r3 item 3:
    the broadcast_build_fits discipline applied to materialize pins)."""

    def test_zero_budget_is_not_the_default(self, monkeypatch, ray_session):
        """``pin_budget_bytes=0`` reaches ``pin_fits`` as 0 and the input
        is not pinned; only ``None`` means the default budget."""
        import ray.data as rd

        from pdf_parser_ray.stages.corpus import substring_dedup_ds

        calls = _spy_pin_fits(monkeypatch)
        tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["a b c d e f"] * 2)})
        substring_dedup_ds(
            rd.from_arrow(tbl), input_bytes_hint=1, n_buckets=2, pin_budget_bytes=0
        ).to_pandas()
        assert calls == [(1, 0, False)]

    def test_pin_fits_rule(self, tmp_path):
        from pdf_parser_ray.core.util import parquet_uncompressed_bytes, pin_fits

        assert pin_fits(100, budget_bytes=100)
        assert not pin_fits(101, budget_bytes=100)
        # round-5 contract: an estimate is mandatory — no silent pins
        with pytest.raises(TypeError):
            pin_fits(None)

        t = pa.table({"a": pa.array(range(1000), pa.int64())})
        p = str(tmp_path / "t.parquet")
        pq.write_table(t, p, row_group_size=100)
        est = parquet_uncompressed_bytes(p)
        assert est >= 1000 * 8  # at least the raw column payload

    def test_substring_dedup_identical_with_and_without_pin(
        self, tmp_path, ray_session
    ):
        """Both pin paths (materialize vs recompute-upstream) must give
        identical output; the gate must actually flip on the hint."""
        import ray.data as rd

        from pdf_parser_ray.stages.corpus import substring_dedup_ds

        words = [f"w{i}" for i in range(20)]
        texts = [
            " ".join(words),                      # doc 1: first occurrence
            " ".join(words),                      # doc 2: verbatim copy
            " ".join(["zz"] + words[:10]),        # doc 3: short, partial overlap
        ]
        tbl = pa.table(
            {"doc_id": pa.array([1, 2, 3], pa.int64()), "text": pa.array(texts)}
        )

        def run(**kw):
            return (
                substring_dedup_ds(rd.from_arrow(tbl), n_buckets=4, **kw)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )

        pinned = run(input_bytes_hint=1, pin_budget_bytes=10)      # fits → pin
        unpinned = run(input_bytes_hint=11, pin_budget_bytes=10)   # over → recompute
        pd.testing.assert_frame_equal(pinned, unpinned)
        assert pinned.loc[1, "removed_words"] == 20  # copy fully covered


class TestSharedLn:
    """tfidf's idf is SPECIFIED as a fixed IEEE expression tree
    (textstats._shared_ln) so the hash-exact oracle never depends on
    two libm builds agreeing (ADVICE r3). Pin: bit-for-bit equality
    between the Python evaluator and the DuckDB rendering."""

    def test_bit_equality_python_vs_duckdb(self):
        import duckdb
        import math

        from pdf_parser_ray.stages.textstats import _shared_ln, _shared_ln_cte

        con = duckdb.connect()
        con.sql(
            "CREATE TABLE ks AS SELECT CAST(range AS BIGINT) AS kint"
            " FROM range(1, 50001)"
        )
        # plus large magnitudes (bit_length up to 62)
        con.sql(
            "INSERT INTO ks SELECT CAST(1 AS BIGINT) << b FROM range(20, 62) t(b)"
        )
        con.sql(
            "INSERT INTO ks SELECT (CAST(1 AS BIGINT) << b) + 12345"
            " FROM range(20, 62) t(b)"
        )
        rows = con.sql(
            f"SELECT kint, lnk FROM {_shared_ln_cte('ks', 'kint')} t"
        ).fetchall()
        assert len(rows) == 50000 + 84
        for k, lnk in rows:
            assert _shared_ln(k) == lnk, (k, repr(_shared_ln(k)), repr(lnk))
        # and the polynomial is a faithful ln (score semantics intact)
        assert max(
            abs(_shared_ln(k) - math.log(k)) for k in range(1, 10000)
        ) < 2e-8
        con.close()


class TestTokenizer:
    """Greedy bigram-BPE tokenizer stub (VERDICT r3 item 4): the ST1
    actor pattern with an exact-oracle-able spec."""

    def test_greedy_spec_cases(self):
        from pdf_parser_ray.stages.tokenize import (
            BIGRAMS,
            TokenizerActor,
            tokenize_word,
        )

        vocab = TokenizerActor().vocab
        # greedy: 'the' → 'th'(vocab) + 'e'(char), never 't'+'he'
        assert tokenize_word("the", vocab) == [
            (1_000_000 + BIGRAMS.index("th"), "th"),
            (ord("e"), "e"),
        ]
        # taking a bigram skips the next char: 'that' → 'th','at'
        assert [p for _, p in tokenize_word("that", vocab)] == ["th", "at"]
        # no match anywhere → per-char fallback with codepoint ids
        assert tokenize_word("zz", vocab) == [(122, "z"), (122, "z")]
        # trailing single char can't match a 2-char piece
        assert [p for _, p in tokenize_word("cat", vocab)] == ["c", "at"]
        assert tokenize_word("", vocab) == []
        # unicode fallback id = codepoint
        assert tokenize_word("é", vocab) == [(0xE9, "é")]

    def test_actor_explode_and_counts_agree(self, ray_session):
        import ray.data as rd

        from pdf_parser_ray.stages.tokenize import TokenizerActor

        texts = ["the cat in that hat", "", "zz", "a b   c"]
        tbl = pa.table(
            {"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": pa.array(texts)}
        )
        actor = TokenizerActor()
        exploded = actor(tbl).to_pandas()
        counts = actor.count_column(texts)
        got_counts = exploded.groupby("doc_id").size()
        assert counts.tolist() == [
            int(got_counts.get(i, 0)) for i in (1, 2, 3, 4)
        ]
        # tok_idx is the dense per-doc sequence position
        for d, sub in exploded.groupby("doc_id"):
            assert sub["tok_idx"].tolist() == list(range(len(sub)))
        # and the actor-pool path through Ray equals the direct call
        ds = rd.from_arrow(tbl).map_batches(
            TokenizerActor,
            batch_format="pyarrow",
            batch_size=2,
            concurrency=2,
            num_cpus=1,
        )
        via_ray = (
            ds.to_pandas().sort_values(["doc_id", "tok_idx"]).reset_index(drop=True)
        )
        direct = exploded.sort_values(["doc_id", "tok_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(via_ray, direct)


class TestTokenGrainTwins:
    """Round-5 token-id-grain twins (VERDICT r4 item 4): the
    lm/contamination/heavy-hitter family re-run over the tokenizer
    actor's subword stream, checked against independent driver-side
    math on a hand-built corpus."""

    @pytest.fixture(scope="class")
    def tok_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("tok_sf")
        # doc 0 is the probe (0 % 97 == 0); doc 1 shares its exact
        # text (contaminated), doc 2 is disjoint, doc 3 is too short
        # to hold an 8-token gram
        long = "the thin thing then that than "
        docs = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array([long, long + "more", "zz yy xx ww vv uu", "ab"]),
            }
        )
        pq.write_table(docs, str(d / "documents.parquet"))
        return str(d)

    def test_heavy_hitters_match_direct_count(self, tok_sf, ray_session):
        from collections import Counter

        from pdf_parser_ray.stages.tokenize import (
            TokenizerActor,
            q_heavy_hitters_tokens,
        )

        got = q_heavy_hitters_tokens(tok_sf, k=5).to_pandas()
        tok = TokenizerActor()
        want: Counter = Counter()
        for t in pq.read_table(f"{tok_sf}/documents.parquet")["text"].to_pylist():
            for w in t.split():
                for tid, _ in tok._word(w):
                    want[tid] += 1
        top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert list(zip(got["token_id"], got["cnt"])) == top

    def test_lm_nll_matches_independent_math(self, tok_sf, ray_session):
        import math
        from collections import Counter

        from pdf_parser_ray.stages.tokenize import (
            TokenizerActor,
            q_lm_doc_nll_tokens,
        )

        got = (
            q_lm_doc_nll_tokens(tok_sf)
            .to_pandas()
            .set_index("doc_id")["nll_micro"]
            .to_dict()
        )
        tok = TokenizerActor()
        texts = dict(
            zip(
                pq.read_table(f"{tok_sf}/documents.parquet")["doc_id"].to_pylist(),
                pq.read_table(f"{tok_sf}/documents.parquet")["text"].to_pylist(),
            )
        )
        cnt: Counter = Counter()
        per_doc: dict[int, Counter] = {}
        for d, t in texts.items():
            c: Counter = Counter()
            for w in t.split():
                for tid, _ in tok._word(w):
                    c[tid] += 1
            per_doc[d] = c
            cnt.update(c)
        total = sum(cnt.values())
        for d, c in per_doc.items():
            n = sum(c.values())
            micro = sum(
                math.floor(tf * (math.log(total) - math.log(cnt[tid])) * 1e6 + 0.5)
                for tid, tf in c.items()
            )
            # shared-ln vs libm differ < 1e-6 relative → micro ≤ ~1 off
            # per term; mean over the doc stays within a few micro
            assert abs(got[d] - micro // n) <= 5

    def test_contamination_flags_shared_gram(self, tok_sf, ray_session):
        from pdf_parser_ray.stages.tokenize import q_contamination_tokens

        got = (
            q_contamination_tokens(tok_sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # probe = doc 0; doc 1 contains doc 0's text verbatim → every
        # probe gram hits; docs 2 (disjoint) and 3 (too short) don't.
        assert got["doc_id"].tolist() == [0, 1]
        assert got["n_hits"][0] == got["n_hits"][1]


class TestKernelTwins:
    """The A/B'd text kernels (VERDICT r3 item 6): loop and vectorized
    twins must emit identical rows on adversarial inputs — empty docs,
    whitespace-only, short docs, unicode, duplicate grams."""

    CASES = [
        "", "   ", "one", "two words", "a b c d e f g h i j",
        "dup dup dup dup dup dup dup dup dup dup",
        "x " * 20, "é ü ß 漢字 a b c d", None,
        "tab\tand\nnewline separated words here now ok fine",
    ]

    def _batch(self):
        ids = list(range(1, len(self.CASES) + 1))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(self.CASES)}
        )

    @staticmethod
    def _canon(t):
        df = t.to_pandas()
        return df[sorted(df.columns)].sort_values(
            sorted(df.columns), kind="mergesort"
        ).reset_index(drop=True)

    def test_tf_rows_vec_equals_loop(self):
        from pdf_parser_ray.stages.textstats import tf_rows_loop, tf_rows_vec

        pd.testing.assert_frame_equal(
            self._canon(tf_rows_loop(32)(self._batch())),
            self._canon(tf_rows_vec(32)(self._batch())),
        )

    def test_gram_rows_vec_equals_loop(self):
        from pdf_parser_ray.stages.corpus import gram_rows_loop, gram_rows_vec

        pd.testing.assert_frame_equal(
            self._canon(gram_rows_loop(64)(self._batch())),
            self._canon(gram_rows_vec(64)(self._batch())),
        )

    def test_prefix_gram_rows_vec_equals_loop(self):
        from pdf_parser_ray.stages.dedup import (
            prefix_gram_rows_loop,
            prefix_gram_rows_vec,
        )

        for thr in (0.5, 0.8, 0.95):
            pd.testing.assert_frame_equal(
                self._canon(prefix_gram_rows_loop(thr, 32)(self._batch())),
                self._canon(prefix_gram_rows_vec(thr, 32)(self._batch())),
            )


class TestFunnelCubeAboveAvg:
    """Round-4 relational additions: ordered-sequence funnel (strict-
    inequality chain, tie and out-of-order edges), CUBE grouping-set
    lattice (subtotal conservation), and the decorrelated correlated
    scalar subquery (strict > means all-equal customers keep nothing)."""

    @pytest.fixture(scope="class")
    def funnel_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("funnel_sf")
        t0 = np.int64(1_700_000_000_000_000)
        s = 1_000_000
        rows = [
            # user 1: clean full chain view<click<purchase -> stage 3
            (1, "view", t0), (1, "click", t0 + s), (1, "purchase", t0 + 2 * s),
            # user 2: click BEFORE the first view only -> stage 1
            (2, "click", t0), (2, "view", t0 + s),
            # user 3: purchase before the click, none after -> stage 2
            (3, "view", t0), (3, "purchase", t0 + s), (3, "click", t0 + 2 * s),
            # user 4: click+purchase but never a view -> stage 0
            (4, "click", t0), (4, "purchase", t0 + s),
            # user 5: click at EXACTLY the view ts (strict > rejects it),
            # a later click rescues stage 2; purchase tied with that
            # click is likewise rejected -> stage 2
            (5, "view", t0), (5, "click", t0), (5, "click", t0 + s),
            (5, "purchase", t0 + s),
            # user 6: unrelated types only -> absent from output
            (6, "error", t0), (6, "signup", t0 + s),
        ]
        ev = pa.table(
            {
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array([r[2] for r in rows], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )
        pq.write_table(ev, str(d / "events.parquet"))
        return str(d)

    def test_funnel_stages_and_edges(self, funnel_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_conversion_funnel

        got = (
            q_conversion_funnel(funnel_sf, n_buckets=4)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert got["user_id"].tolist() == [1, 2, 3, 4, 5]
        assert got["funnel_stage"].tolist() == [3, 1, 2, 0, 2]
        t0 = np.int64(1_700_000_000_000_000)
        assert got["first_view_us"].tolist() == [t0, t0 + 1_000_000, t0, -1, t0]
        assert got["converted_us"].tolist() == [t0 + 2_000_000, -1, -1, -1, -1]

    @pytest.fixture(scope="class")
    def cube_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cube_sf")
        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "o_custkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
                "o_orderpriority": pa.array(
                    ["1-URGENT", "2-HIGH", "1-URGENT", "2-HIGH", "1-URGENT"],
                    pa.string(),
                ),
                "o_totalprice": pa.array([10.00, 20.00, 30.00, 40.00, 50.00]),
            }
        )
        customer = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_mktsegment": pa.array(["AUTO", "BUILDING", "AUTO"], pa.string()),
            }
        )
        pq.write_table(orders, str(d / "orders.parquet"))
        pq.write_table(customer, str(d / "customer.parquet"))
        return str(d)

    def test_cube_lattice_and_conservation(self, cube_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_revenue_cube

        got = (
            q_revenue_cube(cube_sf, n_buckets=4)
            .to_pandas()
            .sort_values(["segment", "priority"])
            .reset_index(drop=True)
        )
        # lattice: 4 leaf cells + 2 segment + 2 priority subtotals + grand
        assert len(got) == 9
        cell = {
            (r["segment"], r["priority"]): r["revenue_cents"]
            for _, r in got.iterrows()
        }
        assert cell[("AUTO", "1-URGENT")] == 6000   # 10 + 50
        assert cell[("AUTO", "2-HIGH")] == 2000
        assert cell[("BUILDING", "1-URGENT")] == 3000
        assert cell[("BUILDING", "2-HIGH")] == 4000
        assert cell[("AUTO", "ALL")] == 8000
        assert cell[("ALL", "1-URGENT")] == 9000
        assert cell[("ALL", "ALL")] == 15000
        # every slice sums to the grand total
        seg_tot = sum(v for (s, p), v in cell.items() if s != "ALL" and p == "ALL")
        pri_tot = sum(v for (s, p), v in cell.items() if p != "ALL" and s == "ALL")
        assert seg_tot == pri_tot == cell[("ALL", "ALL")]

    @pytest.fixture(scope="class")
    def aavg_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("aavg_sf")
        orders = pa.table(
            {
                # cust 1: all orders identical -> strict > keeps nothing
                # cust 2: 10,20,30 -> avg 20, only the 30 survives
                # cust 3: single order == its own avg -> nothing
                "o_orderkey": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
                "o_custkey": pa.array([1, 1, 1, 2, 2, 2, 3], pa.int64()),
                "o_totalprice": pa.array(
                    [5.00, 5.00, 5.00, 10.00, 20.00, 30.00, 99.99]
                ),
            }
        )
        pq.write_table(orders, str(d / "orders.parquet"))
        return str(d)

    def test_above_avg_strictness(self, aavg_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_orders_above_avg

        got = (
            q_orders_above_avg(aavg_sf, n_buckets=4)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        assert got["o_orderkey"].tolist() == [6]
        assert got["price_cents"].tolist() == [3000]


class TestBM25:
    """BM25 scorer vs an independent math.log computation on a tiny
    hand-built corpus (probe = first three words of doc 0), plus the
    tf-saturation and length-normalization orderings BM25 must obey."""

    @pytest.fixture(scope="class")
    def bm25_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("bm25_sf")
        docs = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "apple banana cherry",
                        "apple apple apple apple",
                        "apple zzz zzz zzz",
                        "banana",
                        "zzz yyy",
                    ],
                    pa.string(),
                ),
            }
        )
        pq.write_table(docs, str(d / "documents.parquet"))
        return str(d)

    def test_matches_independent_formula(self, bm25_sf, ray_session):
        import math

        from pdf_parser_ray.stages.textstats import q_bm25_search

        got = q_bm25_search(bm25_sf).to_pandas()
        # corpus constants: N=5, total tokens = 3+4+4+1+2 = 14
        n, total = 5, 14
        dfs = {"apple": 3, "banana": 2, "cherry": 1}
        tfs = {
            0: {"apple": 1, "banana": 1, "cherry": 1},
            1: {"apple": 4},
            2: {"apple": 1},
            3: {"banana": 1},
        }
        dls = {0: 3, 1: 4, 2: 4, 3: 1}

        def bm25(doc):
            s = 0.0
            for t, tf in tfs[doc].items():
                idf = math.log(n) - math.log(dfs[t])
                r = dls[doc] * n / total
                s += idf * (tf * 2.2) / (tf + 0.3 + 0.9 * r)
            return s

        want = {d_: bm25(d_) for d_ in tfs}
        by_doc = dict(zip(got["doc_id"], got["bm25_micro"]))
        assert set(by_doc) == set(want)
        for d_, w in want.items():
            # shared-ln truncation <= 1e-8 relative; micro within 1
            assert abs(by_doc[d_] / 1e6 - w) < 1e-4
        # ranking sorted by integer score desc, doc_id asc
        assert got["bm25_micro"].is_monotonic_decreasing
        n_terms = dict(zip(got["doc_id"], got["n_terms"]))
        assert n_terms == {0: 3, 1: 1, 2: 1, 3: 1}
        # saturation: doc1 (tf=4) beats doc2 (tf=1) at equal dl
        assert by_doc[1] > by_doc[2]
        # length norm: doc3's lone banana beats doc2's diluted apple
        # (higher idf AND shorter doc)
        assert by_doc[3] > by_doc[2]

    def test_plan_vectorized_and_pin_gated(self, bm25_sf, ray_session):
        """Round-5 contract: (a) no per-row Python lambda filter in
        the executed plan — the tagged stream splits with expression
        filters; (b) the postings pin is size-gated, and the no-pin
        (recompute-upstream) path returns byte-identical results."""
        from pdf_parser_ray.stages.textstats import q_bm25_search

        pinned = q_bm25_search(bm25_sf)
        got = pinned.to_pandas()
        assert "lambda" not in pinned.stats()
        # force the gate shut: postings estimate >> 1 byte budget
        unpinned = q_bm25_search(bm25_sf, pin_budget_bytes=1).to_pandas()
        assert got.equals(unpinned)

    def test_zero_pin_budget_is_not_the_default(self, bm25_sf, monkeypatch, ray_session):
        """``pin_budget_bytes=0`` reaches ``pin_fits`` as 0 and the
        postings are not pinned; only ``None`` means the default."""
        from pdf_parser_ray.stages.textstats import q_bm25_search

        calls = _spy_pin_fits(monkeypatch)
        q_bm25_search(bm25_sf, pin_budget_bytes=0).to_pandas()
        assert [(budget, fits) for _, budget, fits in calls] == [(0, False)]


class TestLangMixOrderSpan:
    """Round-4 additions: proportional language-mixture sampling
    (deterministic hex-threshold membership) and the decomposable
    FIRST/LAST_VALUE order span (date ties broken by orderkey,
    single-order customers collapse first==last)."""

    def test_lang_mix_membership_rule(self, ray_session):
        import hashlib

        from pdf_parser_ray.stages.textstats import (
            _MIX_THRESHOLDS,
            q_lang_id,
            q_lang_mix,
        )

        sf = "/root/testdata/sf0.001"
        kept = q_lang_mix(sf).to_pandas()
        langs = q_lang_id(sf).to_pandas().set_index("doc_id")["lang_pred"]
        # membership is exactly the hash rule applied to the lang_id
        # prediction — recomputed independently here
        want = {
            int(d)
            for d, lg in langs.items()
            if hashlib.md5(str(d).encode()).hexdigest()[:4] < _MIX_THRESHOLDS[lg]
        }
        assert set(kept["doc_id"]) == want
        # labels agree with the lang_id kernel
        assert all(langs[d] == lg for d, lg in zip(kept["doc_id"], kept["lang_pred"]))
        # head language ('g' threshold) is kept in full
        en_all = {int(d) for d, lg in langs.items() if lg == "en"}
        assert en_all <= set(kept["doc_id"])
        # deterministic: a second run returns the identical membership
        again = q_lang_mix(sf).to_pandas()
        assert set(again["doc_id"]) == set(kept["doc_id"])

    @pytest.fixture(scope="class")
    def span_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("span_sf")
        day = 86_400_000_000
        t0 = np.int64(1_500_000_000_000_000)
        orders = pa.table(
            {
                # cust 1: two orders on the SAME date -> orderkey breaks
                # the tie both directions; a later third order
                # cust 2: single order -> first == last, n=1
                "o_orderkey": pa.array([11, 10, 12, 20], pa.int64()),
                "o_custkey": pa.array([1, 1, 1, 2], pa.int64()),
                "o_orderdate": pa.array(
                    [t0, t0, t0 + day, t0], pa.int64()
                ).cast(pa.timestamp("us")),
                "o_totalprice": pa.array([5.00, 7.00, 9.00, 3.33]),
            }
        )
        pq.write_table(orders, str(d / "orders.parquet"))
        return str(d)

    def test_order_span_ties_and_singletons(self, span_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_customer_order_span

        got = (
            q_customer_order_span(span_sf, n_buckets=4)
            .to_pandas()
            .sort_values("c_custkey")
            .reset_index(drop=True)
        )
        assert got["c_custkey"].tolist() == [1, 2]
        c1 = got.iloc[0]
        # same-date tie: orderkey 10 is first despite appearing second
        assert c1["first_orderkey"] == 10 and c1["first_cents"] == 700
        assert c1["last_orderkey"] == 12 and c1["last_cents"] == 900
        assert c1["n_orders"] == 3
        c2 = got.iloc[1]
        assert c2["first_orderkey"] == c2["last_orderkey"] == 20
        assert c2["first_date"] == c2["last_date"]
        assert c2["n_orders"] == 1

    @pytest.fixture(scope="class")
    def reach_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("reach_sf")
        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_custkey": pa.array([7, 7, 8], pa.int64()),
            }
        )
        # cust 7 buys supplier 100 in BOTH orders and 101/102 once;
        # duplicate (order, supp) pairs inside one order must not
        # inflate the distinct count
        lineitem = pa.table(
            {
                "l_orderkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
                "l_suppkey": pa.array([100, 100, 101, 100, 102, 100], pa.int64()),
            }
        )
        pq.write_table(orders, str(d / "orders.parquet"))
        pq.write_table(lineitem, str(d / "lineitem.parquet"))
        return str(d)

    def test_supplier_reach_distinct_across_orders(self, reach_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_customer_supplier_reach

        got = (
            q_customer_supplier_reach(reach_sf, min_suppliers=1, n_buckets=4)
            .to_pandas()
            .sort_values("c_custkey")
            .reset_index(drop=True)
        )
        assert got["c_custkey"].tolist() == [7, 8]
        # 100 appears 3 times across two orders but counts once
        assert got["n_suppliers"].tolist() == [3, 1]
        # threshold filters
        from pdf_parser_ray.relational.ops import q_customer_supplier_reach as q

        got2 = q(reach_sf, min_suppliers=2, n_buckets=4).to_pandas()
        assert got2["c_custkey"].tolist() == [7]

    def test_key_skew_share_and_ties(self, reach_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_key_skew

        got = q_key_skew(reach_sf, k=20, n_buckets=4).to_pandas()
        # cust 7: 2 of 3 orders -> floor(2e6/3); cust 8: floor(1e6/3)
        assert got["o_custkey"].tolist() == [7, 8]
        assert got["cnt"].tolist() == [2, 1]
        assert got["share_ppm"].tolist() == [666666, 333333]


class TestReconcileLmPagerank:
    """Round-4 additions: FULL OUTER reconciliation (both twins),
    unigram-LM NLL scoring (vocab truncation + OOV floor), and
    integer-fixed-point PageRank against a single-process reference."""

    @pytest.fixture(scope="class")
    def rec_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("rec_sf")
        # customers 1,2 in BUILDING; 3 elsewhere. Orders from 1 and 3.
        # Events from 2 and 4. -> left-only {1}, right-only {2,4},
        # both: none (cust 2 never orders); cust 3 excluded by segment.
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1, 2, 3], pa.int64()),
                    "c_mktsegment": pa.array(
                        ["BUILDING", "BUILDING", "MACHINERY"], pa.string()
                    ),
                }
            ),
            str(d / "customer.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "o_custkey": pa.array([1, 1, 3], pa.int64()),
                    "o_totalprice": pa.array([10.00, 2.50, 99.99]),
                }
            ),
            str(d / "orders.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array([2, 4, 4], pa.int64()),
                    "value": pa.array([1.25, 0.75, 0.25]),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def _expect(self):
        return {
            1: (1, 2, 1250, 0, 0),
            2: (2, 0, 0, 1, 125),
            4: (2, 0, 0, 2, 100),
        }

    def test_reconcile_broadcast_twin(self, rec_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_order_event_reconcile

        got = q_order_event_reconcile(rec_sf, n_buckets=4).to_pandas()
        rows = {
            int(r.user_key): (
                int(r.sides), int(r.n_orders), int(r.order_cents),
                int(r.n_events), int(r.event_cents),
            )
            for r in got.itertuples()
        }
        assert rows == self._expect()

    def test_reconcile_shuffle_twin_identical(self, rec_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_order_event_reconcile

        # 1-byte budget forces the segment keys through the exchange
        got = q_order_event_reconcile(rec_sf, n_buckets=4, budget_bytes=1).to_pandas()
        rows = {
            int(r.user_key): (
                int(r.sides), int(r.n_orders), int(r.order_cents),
                int(r.n_events), int(r.event_cents),
            )
            for r in got.itertuples()
        }
        assert rows == self._expect()

    @pytest.fixture(scope="class")
    def lm_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("lm_sf")
        # corpus counts: a=3, b=2, c=1  (T=6)
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(["a a b", "a b c"], pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        return str(d)

    def test_lm_nll_exact_and_oov_floor(self, lm_sf, ray_session):
        from pdf_parser_ray.stages.textstats import _shared_ln, q_lm_doc_nll

        ln = _shared_ln
        T = 6

        def micro(tf, c):
            import numpy as np

            nll = ln(T) - ln(c)
            return int(np.floor((float(tf) * nll) * 1_000_000 + 0.5))

        # full vocab: doc0 = a:2,b:1 ; doc1 = a,b,c one each
        full = {
            0: (micro(2, 3) + micro(1, 2)) // 3,
            1: (micro(1, 3) + micro(1, 2) + micro(1, 1)) // 3,
        }
        got = q_lm_doc_nll(lm_sf, n_buckets=4).to_pandas()
        assert {int(r.doc_id): int(r.nll_micro) for r in got.itertuples()} == full
        assert got.sort_values("doc_id")["n_tokens"].tolist() == [3, 3]

        # vocab_size=1 keeps only 'a' (count 3); b and c score the
        # OOV floor ln T - ln 1 = ln T
        def oov_micro(tf):
            import numpy as np

            return int(np.floor((float(tf) * ln(T)) * 1_000_000 + 0.5))

        trunc = {
            0: (micro(2, 3) + oov_micro(1)) // 3,
            1: (micro(1, 3) + oov_micro(1) + oov_micro(1)) // 3,
        }
        got1 = q_lm_doc_nll(lm_sf, vocab_size=1, n_buckets=4).to_pandas()
        assert {int(r.doc_id): int(r.nll_micro) for r in got1.itertuples()} == trunc
        # truncation can only raise NLL
        assert all(trunc[k] >= full[k] for k in full)

    @pytest.fixture(scope="class")
    def pr_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pr_sf")
        # customers 1,2 both buy from supplier 5; customer 2 also from 6
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([10, 20, 21], pa.int64()),
                    "o_custkey": pa.array([1, 2, 2], pa.int64()),
                }
            ),
            str(d / "orders.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([10, 10, 20, 21], pa.int64()),
                    "l_suppkey": pa.array([5, 5, 5, 6], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        return str(d)

    def test_pagerank_matches_single_process_reference(self, pr_sf, ray_session):
        from pdf_parser_ray.stages.graph import BASE, DAMP_NUM, N_ITER, R0, q_purchase_pagerank

        # reference: plain dict/loop implementation of the same spec
        pairs = {(1 * 2, 5 * 2 + 1), (2 * 2, 5 * 2 + 1), (2 * 2, 6 * 2 + 1)}
        edges = list(pairs) + [(b, a) for a, b in pairs]
        deg: dict[int, int] = {}
        for s, _ in edges:
            deg[s] = deg.get(s, 0) + 1
        r = {n: R0 for n in deg}
        for _ in range(N_ITER):
            nxt = {n: BASE for n in deg}
            for s, t in edges:
                nxt[t] += (r[s] * DAMP_NUM) // (1_000_000 * deg[s])
            r = nxt

        got = q_purchase_pagerank(pr_sf, n_buckets=4).to_pandas()
        assert {int(x.node): int(x.rank_micro) for x in got.itertuples()} == r
        # customer 2 and supplier 5 are structurally symmetric (each
        # receives one full + one halved in-flow) so they tie at the
        # top, above the two degree-1 leaves
        assert r[2 * 2] == r[5 * 2 + 1]
        assert r[2 * 2] > r[1 * 2] and r[2 * 2] > r[6 * 2 + 1]


class TestCohortPmi:
    """Round-4 additions: day-cohort retention matrix and PMI
    collocations, both against hand-computed expectations."""

    @pytest.fixture(scope="class")
    def coh_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("coh_sf")
        day = 86_400_000_000
        # user 1: first day 0, active days {0, 2} (two events day 0 —
        # per-day dedup). user 2: first day 2, active {2, 3}.
        us = [0, 3600_000_000, 2 * day, 2 * day + 1, 3 * day]
        uid = [1, 1, 1, 2, 2]
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array(uid, pa.int64()),
                    "ts": pa.array(us, pa.int64()).cast(pa.timestamp("us")),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def test_cohort_cells(self, coh_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_cohort_retention

        got = q_cohort_retention(coh_sf, n_buckets=4).to_pandas()
        cells = {
            (int(r.cohort_day), int(r.days_since)): int(r.n_users)
            for r in got.itertuples()
        }
        assert cells == {(0, 0): 1, (0, 2): 1, (2, 0): 1, (2, 1): 1}

    @pytest.fixture(scope="class")
    def pmi_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pmi_sf")
        # 8 docs; x and y co-occur in all 5 of x's docs (attraction),
        # x and z never co-occur beyond chance floor
        texts = ["x y", "x y", "x y", "x y", "x y z", "z q", "z q", "y q"]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        return str(d)

    def test_pmi_hand_check(self, pmi_sf, ray_session):
        import numpy as np

        from pdf_parser_ray.stages.textstats import _shared_ln, q_pmi_pairs

        got = q_pmi_pairs(pmi_sf, vocab_size=4, min_docs=1, n_buckets=4)
        rows = {
            (r.term_a, r.term_b): (int(r.n_docs_both), int(r.pmi_micro))
            for r in got.itertuples()
        }
        # doc frequencies: x=5, y=6, z=3 (docs 4,5,6), q=3 (docs
        # 5,6,7); N=8
        ln = _shared_ln

        def mic(nab, da, db):
            return int(
                np.floor((ln(8) + ln(nab) - ln(da) - ln(db)) * 1_000_000 + 0.5)
            )

        assert rows[("x", "y")] == (5, mic(5, 5, 6))
        assert rows[("x", "z")] == (1, mic(1, 5, 3))
        assert rows[("q", "z")] == (2, mic(2, 3, 3))
        # x/y attract (pmi > 0); x/z repel (pmi < 0)
        assert rows[("x", "y")][1] > 0 > rows[("x", "z")][1]
        # canonical order: term_a < term_b everywhere
        assert all(a < b for a, b in rows)


class TestMomentsTransitionsFrame:
    """Round-4 additions: grouped sufficient-statistics moments,
    event-type transition matrix, and the trailing-rows window frame —
    all against hand-computed expectations."""

    @pytest.fixture(scope="class")
    def mom_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("mom_sf")
        # group A: (1, $1.00), (3, $3.00) -> cov +1 dollar-qty exactly
        # group B: (1, $3.00), (3, $1.00) -> cov -1 (sign path)
        pq.write_table(
            pa.table(
                {
                    "l_returnflag": pa.array(["A", "A", "B", "B"]),
                    "l_quantity": pa.array([1.0, 3.0, 1.0, 3.0]),
                    "l_extendedprice": pa.array([1.0, 3.0, 3.0, 1.0]),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        return str(d)

    def test_moments_hand_check(self, mom_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_price_qty_moments

        got = q_price_qty_moments(mom_sf)
        rows = {r.l_returnflag: r for r in got.itertuples()}
        a, b = rows["A"], rows["B"]
        # both groups: n=2, mean qty 2, mean price $2, var qty 1,
        # var price 1 dollar^2
        for r in (a, b):
            assert int(r.n_rows) == 2
            assert int(r.mean_qty_micro) == 2_000_000
            assert int(r.mean_price_micro) == 2_000_000
            assert int(r.var_qty_micro) == 1_000_000
            assert int(r.var_price_micro) == 1_000_000
        assert int(a.cov_micro) == 1_000_000
        assert int(b.cov_micro) == -1_000_000

    def test_rhalf_matches_duckdb_trunc_div(self):
        import duckdb

        from pdf_parser_ray.relational.ops import _rhalf

        # the signed micro convention must agree with the SQL form on
        # negative numerators, where DuckDB // truncates but Python //
        # floors
        for num in (-7, -5, -4, 4, 5, 7, -1_234_567, 1_234_567):
            for den in (2, 3, 400):
                sql = duckdb.sql(
                    f"SELECT CASE WHEN {num} >= 0 THEN 1 ELSE -1 END"
                    f" * ((2*ABS({num}) + {den}) // (2*{den}))"
                ).fetchone()[0]
                assert _rhalf(num, den) == sql

    @pytest.fixture(scope="class")
    def trans_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("trans_sf")
        # user 1: A,B,A; user 2: A,B; user 3: A,C
        # steps: (A,B)x2, (B,A)x1, (A,C)x1 -> from A total 3
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(7), pa.int64()),
                    "user_id": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
                    "ts": pa.array(
                        [0, 1, 2, 0, 1, 0, 1], pa.int64()
                    ).cast(pa.timestamp("us")),
                    "event_type": pa.array(["A", "B", "A", "A", "B", "A", "C"]),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def test_transitions_hand_check(self, trans_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_event_transitions

        got = q_event_transitions(trans_sf, n_buckets=4)
        rows = {
            (r.from_type, r.to_type): (int(r.n_steps), int(r.prob_micro))
            for r in got.itertuples()
        }
        assert rows == {
            ("A", "B"): (2, 666667),  # 2/3 rounds half-up at the 6th
            ("A", "C"): (1, 333333),
            ("B", "A"): (1, 1_000_000),
        }

    @pytest.fixture(scope="class")
    def ma_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ma_sf")
        day = 86_400_000_000
        # cust 1: $1, $2, $4, $8 on consecutive days; cust 2: one
        # order SAME DAY as another -> orderkey tie-break
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([10, 11, 12, 13, 20, 21], pa.int64()),
                    "o_custkey": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                    "o_totalprice": pa.array([1.0, 2.0, 4.0, 8.0, 5.0, 7.0]),
                    "o_orderdate": pa.array(
                        [0, day, 2 * day, 3 * day, 0, 0], pa.int64()
                    ).cast(pa.timestamp("us")),
                }
            ),
            str(d / "orders.parquet"),
        )
        return str(d)

    def test_moving_avg_hand_check(self, ma_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_order_moving_avg

        got = q_order_moving_avg(ma_sf, n_buckets=4).to_pandas()
        rows = {
            int(r.o_orderkey): (int(r.frame_rows), int(r.ma_price_micro))
            for r in got.itertuples()
        }
        assert rows == {
            10: (1, 1_000_000),
            11: (2, 1_500_000),
            12: (3, 2_333_333),  # 7/3 -> 2.33333333 rounds DOWN
            13: (3, 4_666_667),  # 14/3 -> 4.66666667 rounds UP
            20: (1, 5_000_000),  # key 20 first under the tie-break
            21: (2, 6_000_000),
        }


class TestIndexedTermSearch:
    """Persisted inverted-index path: identical results to the scan
    twin, build-once reuse, and real bucket-level pruning."""

    @pytest.fixture(scope="class")
    def idx_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("idx_sf")
        texts = [
            "alpha beta gamma delta",   # doc 0 -> probe alpha/beta/gamma
            "alpha beta something",
            "beta gamma",
            "alpha only here",
            "nothing relevant",
            "ALPHA BETA case fold",     # lowercasing must hit
        ]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        return str(d)

    def test_matches_scan_twin(self, idx_sf, ray_session):
        from pdf_parser_ray.stages.textstats import (
            q_term_search,
            q_term_search_indexed,
        )

        scan = {
            (int(r.doc_id), int(r.n_hits))
            for r in q_term_search(idx_sf).to_pandas().itertuples()
        }
        idx = {
            (int(r.doc_id), int(r.n_hits))
            for r in q_term_search_indexed(idx_sf, n_buckets=8)
            .to_pandas()
            .itertuples()
        }
        assert idx == scan
        assert (0, 3) in idx and (5, 2) in idx  # case-folded doc hits

    def test_build_once_and_prune(self, idx_sf, ray_session):
        import os
        import zlib

        from pdf_parser_ray.stages.textstats import (
            _ensure_token_index,
            q_term_search_indexed,
        )

        path = _ensure_token_index(idx_sf, n_buckets=8)
        marker = os.path.join(path, "_SUCCESS")
        mtime = os.path.getmtime(marker)
        assert _ensure_token_index(idx_sf, n_buckets=8) == path
        assert os.path.getmtime(marker) == mtime  # no rebuild

        # corrupt every bucket the probe does NOT touch: the query must
        # still succeed -> it never opens unprobed buckets
        probe_buckets = {zlib.crc32(t.encode()) % 8 for t in ("alpha", "beta", "gamma")}
        corrupted = 0
        for b in range(8):
            f = os.path.join(path, f"bucket_{b:05d}.parquet")
            if b not in probe_buckets and os.path.isfile(f):
                with open(f, "wb") as fh:
                    fh.write(b"not parquet")
                corrupted += 1
        assert corrupted > 0
        got = q_term_search_indexed(idx_sf, n_buckets=8).to_pandas()
        assert (0, 3) in {
            (int(r.doc_id), int(r.n_hits)) for r in got.itertuples()
        }


class TestLocalSupplierRevenue:
    """TPC-H Q5 six-table chain: broadcast and suppkey-exchange twins
    must agree, and the colocation filter must actually bite."""

    def test_twins_agree_and_filter_bites(self, ray_session):
        from pdf_parser_ray.relational.ops import q_local_supplier_revenue

        sf = "/root/testdata/sf0.001"
        a = (
            q_local_supplier_revenue(sf)
            .to_pandas()
            .sort_values("n_name")
            .reset_index(drop=True)
        )
        b = (
            q_local_supplier_revenue(sf, budget_bytes=0)  # full shuffle plan
            .to_pandas()
            .sort_values("n_name")
            .reset_index(drop=True)
        )
        assert a.equals(b)
        # mixed shape: supplier broadcasts, customer does not (budget
        # sits between the two footer sizes of the columns each join reads)
        from pdf_parser_ray.core.join import build_bytes

        sup = build_bytes(f"{sf}/supplier.parquet", ["s_suppkey", "s_nationkey"])
        cust = build_bytes(f"{sf}/customer.parquet", ["c_custkey", "c_nationkey"])
        assert sup < cust
        c = (
            q_local_supplier_revenue(sf, budget_bytes=sup + 1)
            .to_pandas()
            .sort_values("n_name")
            .reset_index(drop=True)
        )
        assert a.equals(c)
        assert len(a) >= 1 and (a["revenue_cents2"] > 0).all()
        # region filter: every nation name must belong to region 0
        import pyarrow.parquet as pq

        nation = pq.read_table(f"{sf}/nation.parquet").to_pandas()
        region0 = set(nation[nation.n_regionkey == 0].n_name)
        assert set(a["n_name"]) <= region0


class TestUserEntropy:
    """Integer-micro Shannon entropy against hand-computed values."""

    @pytest.fixture(scope="class")
    def ent_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ent_sf")
        # user 1: A,B (uniform 2 types) -> H = ln 2
        # user 2: A,A,A (one type)      -> H = 0 exactly
        # user 3: A,A,B                 -> H = ln 3 - (2/3) ln 2
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array([1, 1, 2, 2, 2, 3, 3, 3], pa.int64()),
                    "event_type": pa.array(
                        ["A", "B", "A", "A", "A", "A", "A", "B"]
                    ),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def test_entropy_hand_check(self, ent_sf, ray_session):
        import math

        from pdf_parser_ray.relational.ops import _rhalf, q_user_entropy
        from pdf_parser_ray.stages.textstats import _shared_ln

        got = q_user_entropy(ent_sf, n_buckets=4).to_pandas()
        rows = {
            int(r.user_id): (int(r.n_events), int(r.n_types), int(r.entropy_micro))
            for r in got.itertuples()
        }

        def lnm(k):
            return math.floor(_shared_ln(k) * 1_000_000.0 + 0.5)

        assert rows[1] == (2, 2, lnm(2))          # ~693147
        assert rows[2] == (3, 1, 0)               # exact zero
        assert rows[3] == (3, 2, lnm(3) - _rhalf(2 * lnm(2), 3))
        assert rows[1][2] == 693147 and rows[3][2] == 636514


class TestNullTypeAlignment:
    """Entropy and transitions must match SQL semantics when
    event_type is NULL: the NULL is its own GROUP BY group, and SQL's
    lag() IS NOT NULL filter conflates run-start with null-valued
    prev (code-review finding, r4)."""

    @pytest.fixture(scope="class")
    def null_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("null_sf")
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(range(5), pa.int64()),
                    "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
                    "ts": pa.array([0, 1, 2, 3, 0], pa.int64()).cast(
                        pa.timestamp("us")
                    ),
                    "event_type": pa.array(["A", None, "B", "A", None]),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def _oracle(self, null_sf, sql):
        import duckdb

        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW events AS SELECT * FROM '{null_sf}/events.parquet'"
        )
        out = con.sql(sql).df()
        con.close()
        return out

    def test_entropy_counts_null_group(self, null_sf, ray_session):
        from pdf_parser_ray.relational.ops import (
            _sql_user_entropy,
            q_user_entropy,
        )

        got = (
            q_user_entropy(null_sf, n_buckets=4)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        want = (
            self._oracle(null_sf, _sql_user_entropy())
            .sort_values("user_id")
            .reset_index(drop=True)
            .astype({"user_id": "int64", "n_events": "int64",
                     "n_types": "int64", "entropy_micro": "int64"})
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)
        # user 1 has 4 events over 3 types (A, NULL, B) — the NULL
        # group must count
        row = got[got.user_id == 1].iloc[0]
        assert (int(row.n_events), int(row.n_types)) == (4, 3)

    def test_transitions_match_sql_null_semantics(self, null_sf, ray_session):
        from pdf_parser_ray.relational.ops import (
            _SQL_TRANSITIONS,
            q_event_transitions,
        )

        got = q_event_transitions(null_sf, n_buckets=4)
        got_rows = {
            (r.from_type, r.to_type): (int(r.n_steps), int(r.prob_micro))
            for r in got.itertuples()
        }
        want = self._oracle(null_sf, _SQL_TRANSITIONS)
        want_rows = {
            (r.from_type, None if pd.isna(r.to_type) else r.to_type): (
                int(r.n_steps),
                int(r.prob_micro),
            )
            for r in want.itertuples()
        }
        assert got_rows == want_rows
        # A->NULL counted; NULL->B dropped (lag conflation)
        assert ("A", None) in got_rows
        assert (None, "B") not in got_rows


class TestOutliersTtr:
    """Exact k-sigma outliers (squared comparison) and type-token
    ratio against hand-computed expectations."""

    @pytest.fixture(scope="class")
    def out_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("out_sf")
        # counts per user: 1,1,1,1,1,20 -> mean 25/6, only the 20 is
        # beyond 2 sigma: (6*20-25)^2 = 9025 > 4*(6*405-625) = 7220
        uid = [1, 2, 3, 4, 5] + [6] * 20
        pq.write_table(
            pa.table({"user_id": pa.array(uid, pa.int64())}),
            str(d / "events.parquet"),
        )
        return str(d)

    def test_outliers_hand_check(self, out_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_user_activity_outliers

        got = q_user_activity_outliers(out_sf, n_buckets=4).to_pandas()
        assert [(int(r.user_id), int(r.n_events)) for r in got.itertuples()] == [
            (6, 20)
        ]

    @pytest.fixture(scope="class")
    def ttr_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ttr_sf")
        texts = ["a a b", "x x x x", "", "q w e r"]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        return str(d)

    def test_ttr_hand_check(self, ttr_sf, ray_session):
        from pdf_parser_ray.stages.textstats import q_lexical_diversity

        got = q_lexical_diversity(ttr_sf).to_pandas()
        rows = {
            int(r.doc_id): (int(r.n_tokens), int(r.n_distinct), int(r.ttr_micro))
            for r in got.itertuples()
        }
        assert rows == {
            0: (3, 2, 666667),   # 2/3 rounds half-up at the 6th
            1: (4, 1, 250000),
            3: (4, 4, 1_000_000),
        }  # doc 2 (zero tokens) absent from both engines


class TestPathsHistogram:
    """Ordered path signatures (truncation + tie-break) and the
    fixed-width histogram against hand-computed expectations."""

    @pytest.fixture(scope="class")
    def path_sf(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("path_sf")
        # user 1: 4 events, truncation at max_steps=3 must drop the
        # last; same-ts pair (ids 1,2) ordered by event_id
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
                    "ts": pa.array([0, 5, 5, 9, 0], pa.int64()).cast(
                        pa.timestamp("us")
                    ),
                    "event_type": pa.array(["view", "click", "view", "buy", "view"]),
                }
            ),
            str(d / "events.parquet"),
        )
        return str(d)

    def test_paths_hand_check(self, path_sf, ray_session):
        from pdf_parser_ray.relational.ops import q_user_paths

        got = q_user_paths(path_sf, max_steps=3, n_buckets=4).to_pandas()
        rows = {
            int(r.user_id): (r.path, int(r.n_events)) for r in got.itertuples()
        }
        assert rows == {
            1: ("view>click>view", 4),  # buy truncated; tie by event_id
            2: ("view", 1),
        }

    def test_histogram_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_price_histogram

        d = tmp_path_factory.mktemp("hist_sf")
        # $5, $25, $19999.99, $20000.00 with width $20k:
        # bin 0 gets 3, bin 1 gets 1 (boundary goes up)
        pq.write_table(
            pa.table({"o_totalprice": pa.array([5.0, 25.0, 19999.99, 20000.0])}),
            str(d / "orders.parquet"),
        )
        got = q_price_histogram(str(d)).to_pandas()
        rows = {
            int(r.bin_lo_cents): int(r.n_orders) for r in got.itertuples()
        }
        assert rows == {0: 3, 2_000_000: 1}


class TestRollingDau:
    """Trailing 7-day distinct active users against a hand-computed
    matrix (per-day dedup + window fan-out + cross-batch dedup)."""

    def test_rolling_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_rolling_active_users

        d = tmp_path_factory.mktemp("dau_sf")
        day = 86_400_000_000
        # user 1 active days {0, 2} (two events day 0); user 2 day {8}
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                    "ts": pa.array(
                        [0, 3600_000_000, 2 * day, 8 * day], pa.int64()
                    ).cast(pa.timestamp("us")),
                }
            ),
            str(d / "events.parquet"),
        )
        got = q_rolling_active_users(str(d), n_buckets=4).to_pandas()
        rows = {int(r.day): int(r.active_users) for r in got.itertuples()}
        # user 1 supports windows ending 0..6 and 2..8 (dedup on the
        # overlap 2..6); user 2 supports 8..14
        want = {w: 1 for w in range(0, 8)}
        want[8] = 2  # user 1 (via day 2) and user 2
        want.update({w: 1 for w in range(9, 15)})
        assert rows == want


class TestCopurchaseNorms:
    """Market-basket pair support and exact vector norms against
    hand-computed expectations."""

    def test_copurchase_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_copurchase_pairs

        d = tmp_path_factory.mktemp("mb_sf")
        # orders: 1=[10,20,30], 2=[10,20], 3=[20,10], 4=[40,40,50]
        # (in-order duplicate 40 must dedup before pairing)
        ok = [1, 1, 1, 2, 2, 3, 3, 4, 4, 4]
        pk = [10, 20, 30, 10, 20, 20, 10, 40, 40, 50]
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(ok, pa.int64()),
                    "l_partkey": pa.array(pk, pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        got = q_copurchase_pairs(str(d), min_support=2, n_buckets=4).to_pandas()
        rows = {
            (int(r.part_a), int(r.part_b)): int(r.n_orders)
            for r in got.itertuples()
        }
        assert rows == {(10, 20): 3}  # all singleton-support pairs cut

    def test_norms_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.stages.embed import q_embedding_norms

        d = tmp_path_factory.mktemp("nrm_sf")
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([0, 1], pa.int64()),
                    "embedding": pa.array(
                        [[0.5, -0.5], [1.0, 2.0, -2.0]],
                        pa.list_(pa.float32()),
                    ),
                }
            ),
            str(d / "embeddings.parquet"),
        )
        got = q_embedding_norms(str(d)).to_pandas()
        rows = {
            int(r.vec_id): (int(r.dim), int(r.sq_norm_micro2))
            for r in got.itertuples()
        }
        assert rows == {
            0: (2, 2 * 500_000**2),
            1: (3, 1_000_000**2 + 2 * 2_000_000**2),
        }


class TestLatestEvents:
    """Keep-latest compaction: tie-break and cross-batch argmax."""

    def test_latest_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_latest_events

        d = tmp_path_factory.mktemp("cdc_sf")
        # user 1: events at ts 5, 9, 9 — latest is ts 9 with the
        # HIGHER event_id (DESC tie-break); user 2: single event
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([0, 1, 2, 3], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                    "ts": pa.array([5, 9, 9, 1], pa.int64()).cast(
                        pa.timestamp("us")
                    ),
                    "event_type": pa.array(["a", "b", "c", "d"]),
                    "value": pa.array([1.0, 2.0, 3.5, 4.25]),
                }
            ),
            str(d / "events.parquet"),
        )
        got = q_latest_events(str(d), n_buckets=4).to_pandas()
        rows = {
            int(r.user_id): (int(r.event_id), r.event_type, int(r.value_cents))
            for r in got.itertuples()
        }
        assert rows == {1: (2, "c", 350), 2: (3, "d", 425)}


class TestSegmentShare:
    def test_share_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_segment_share

        d = tmp_path_factory.mktemp("share_sf")
        pq.write_table(
            pa.table(
                {
                    "o_custkey": pa.array([1, 2, 2], pa.int64()),
                    "o_totalprice": pa.array([10.0, 20.0, 10.0]),
                }
            ),
            str(d / "orders.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "c_custkey": pa.array([1, 2], pa.int64()),
                    "c_mktsegment": pa.array(["A", "B"]),
                }
            ),
            str(d / "customer.parquet"),
        )
        got = q_segment_share(str(d))
        rows = {
            r.c_mktsegment: (int(r.revenue_cents), int(r.share_ppm))
            for r in got.itertuples()
        }
        assert rows == {"A": (1000, 250_000), "B": (3000, 750_000)}


class TestNormsEmptyLists:
    def test_trailing_and_interior_empty_vectors(self, ray_session, tmp_path_factory):
        """Regression: np.add.reduceat raises on a trailing empty list
        (start index == len(flat)); the cumsum form must yield
        dim=0 / sq=0 for every empty vector instead."""
        from pdf_parser_ray.stages.embed import q_embedding_norms

        d = tmp_path_factory.mktemp("nrm_empty_sf")
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array([0, 1, 2], pa.int64()),
                    "embedding": pa.array(
                        [[1.0], [], []], pa.list_(pa.float32())
                    ),
                }
            ),
            str(d / "embeddings.parquet"),
        )
        got = q_embedding_norms(str(d)).to_pandas()
        rows = {
            int(r.vec_id): (int(r.dim), int(r.sq_norm_micro2))
            for r in got.itertuples()
        }
        assert rows == {0: (1, 10**12), 1: (0, 0), 2: (0, 0)}


class TestAttributionLastTouch:
    """Self-as-of forward-fill: strictly-preceding touch, carry through
    purchases, 'direct' when no touch exists."""

    def test_attribution_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_attribution_last_touch

        d = tmp_path_factory.mktemp("attr_sf")
        # user 1: view@10, click@20, purchase@30 (→click),
        #         purchase@40 (touch carries THROUGH the purchase),
        #         view@50 after the last purchase (must not attribute)
        # user 2: purchase@5 with no touch → direct
        # user 3: error@10 then purchase@20 → errors are not touches
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 1, 1, 2, 3], pa.int64()),
                    "ts": pa.array(
                        [10_000_000, 20_000_000, 30_000_000, 40_000_000,
                         50_000_000, 5_000_000, 20_000_000],
                        pa.int64(),
                    ).cast(pa.timestamp("us")),
                    "event_type": pa.array(
                        ["view", "click", "purchase", "purchase",
                         "view", "purchase", "purchase"]
                    ),
                    "value": pa.array([0.0] * 7),
                    "props": pa.array([""] * 7),
                }
            ),
            str(d / "events.parquet"),
        )
        got = q_attribution_last_touch(str(d), n_buckets=4).to_pandas()
        rows = {
            int(r.purchase_event_id): (
                int(r.touch_event_id), r.touch_type, int(r.gap_us)
            )
            for r in got.itertuples()
        }
        assert rows == {
            2: (1, "click", 10_000_000),
            3: (1, "click", 20_000_000),
            5: (-1, "direct", -1),
            6: (-1, "direct", -1),
        }


class TestPeakConcurrency:
    """Sweep-line with half-open [ts, ts+hold) windows: a window
    closing at t frees its slot before one opening at t."""

    def test_peak_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_peak_concurrency

        d = tmp_path_factory.mktemp("peak_sf")
        # windows (hold 300s): [0,300) [100,400) [200,500) [400,700)
        # t=200: 3 concurrent (peak); t=400: w2 closes before w4 opens → 2
        pq.write_table(
            pa.table(
                {
                    "ts": pa.array(
                        [0, 100_000_000, 200_000_000, 400_000_000], pa.int64()
                    ).cast(pa.timestamp("us")),
                }
            ),
            str(d / "events.parquet"),
        )
        got = q_peak_concurrency(str(d)).to_pandas()
        assert len(got) == 1
        assert int(got["peak"].iloc[0]) == 3
        assert int(got["at_us"].iloc[0]) == 200_000_000


class TestParetoFront:
    """Skyline: duplicates on the front both survive; equal-price
    larger-size dominates; distributive local→global composition."""

    def test_skyline_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_pareto_front

        d = tmp_path_factory.mktemp("sky_sf")
        pq.write_table(
            pa.table(
                {
                    "p_partkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                    "p_retailprice": pa.array(
                        [10.0, 10.0, 9.0, 11.0, 9.0, 8.0]
                    ),
                    "p_size": pa.array([5, 5, 4, 6, 3, 1], pa.int32()),
                }
            ),
            str(d / "part.parquet"),
        )
        got = q_pareto_front(str(d)).to_pandas()
        keep = set(got["p_partkey"].astype(int))
        # 5 (9.00, size 3) dominated by 3 (9.00, size 4); all else kept
        assert keep == {1, 2, 3, 4, 6}

    def test_skyline_mask_matches_bruteforce(self):
        from pdf_parser_ray.relational.ops import _skyline_mask

        rng = np.random.default_rng(7)
        price = rng.integers(0, 20, 200).astype(np.int64)
        size = rng.integers(0, 10, 200).astype(np.int64)
        got = _skyline_mask(price, size)
        for i in range(len(price)):
            dominated = bool(
                np.any(
                    (price <= price[i])
                    & (size >= size[i])
                    & ((price < price[i]) | (size > size[i]))
                )
            )
            assert got[i] == (not dominated), i


class TestTriangleCount:
    def test_triangles_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.stages.graph import q_triangle_count

        d = tmp_path_factory.mktemp("tri_sf")
        # order 1 → parts {1,2,3} (one triangle), order 2 → {3,4},
        # order 3 → {1,2} (duplicate edge must not double-count)
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
                    "l_partkey": pa.array([1, 2, 3, 3, 4, 1, 2], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        # both the gated-broadcast close and the wedge-key-exchange
        # fallback must agree (the auto gate picks broadcast here)
        for probe in (None, False):
            got = q_triangle_count(
                str(d), n_buckets=4, broadcast_probe=probe
            ).to_pandas()
            assert len(got) == 1
            assert int(got["n_edges"].iloc[0]) == 4
            assert int(got["n_triangles"].iloc[0]) == 1


class TestClusteringCoeff:
    def test_hand_check_and_twins(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.stages.graph import q_clustering_coeff

        d = tmp_path_factory.mktemp("cc_sf")
        # triangle {1,2,3} + pendant 4 on node 3: parts 1,2 have
        # deg 2 / 1 triangle → coeff 10⁶; part 3 has deg 3 / 1
        # triangle → ⌊2·10⁶/6⌋; part 4 (deg 1) must be excluded
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                    "l_partkey": pa.array([1, 2, 3, 3, 4], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        for probe in (None, False):
            got = (
                q_clustering_coeff(str(d), n_buckets=4, broadcast_probe=probe)
                .set_index("part")
                .sort_index()
            )
            assert got.index.tolist() == [1, 2, 3]
            assert got.loc[1, "coeff_ppm"] == 1_000_000
            assert got.loc[2, "coeff_ppm"] == 1_000_000
            assert got.loc[3, "deg"] == 3 and got.loc[3, "n_tri"] == 1
            assert got.loc[3, "coeff_ppm"] == 333_333

    def test_assortativity_hand_check(self, ray_session, tmp_path_factory):
        """Triangle {1,2,3} + pendant 4 on node 3: degrees (2,2,3,1).
        Symmetrized sums: n=8, Σx=18, Σxy=38, Σx²=44 → num=−20
        (disassortative — the pendant drags hubs toward leaves),
        den=28, r² = ⌊⌊400·10⁶/28⌋/28⌋ = 510204."""
        from pdf_parser_ray.stages.graph import q_degree_assortativity

        d = tmp_path_factory.mktemp("as_sf")
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                    "l_partkey": pa.array([1, 2, 3, 3, 4], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        got = q_degree_assortativity(str(d), n_buckets=4)
        assert int(got["n_edges"].iloc[0]) == 4
        assert int(got["assort_sign"].iloc[0]) == -1
        assert int(got["r2_ppm"].iloc[0]) == 510_204

    def test_per_node_credits_sum_to_three_per_triangle(self, ray_session):
        from pdf_parser_ray.stages.graph import (
            q_clustering_coeff,
            q_triangle_count,
        )

        sf = "/root/testdata/sf0.001"
        cc = q_clustering_coeff(sf)
        tc = q_triangle_count(sf).to_pandas()
        assert int(cc["n_tri"].sum()) == 3 * int(tc["n_triangles"].iloc[0])
        assert (cc["coeff_ppm"] >= 0).all() and (cc["coeff_ppm"] <= 1_000_000).all()


class TestDqAudit:
    """Every violation class fires: null FK, orphan FK, duplicate PK,
    non-positive total, pre-epoch date."""

    def test_audit_dirty_feed(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.relational.ops import q_dq_audit

        d = tmp_path_factory.mktemp("dq_sf")
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
                    "o_custkey": pa.array([10, 10, None, 99, 10], pa.int64()),
                    "o_totalprice": pa.array([5.0, 5.0, -1.0, 0.0, 2.0]),
                    "o_orderdate": pa.array(
                        [0, 0, -86_400_000_000, 0, 0], pa.int64()
                    ).cast(pa.timestamp("us")),
                }
            ),
            str(d / "orders.parquet"),
        )
        pq.write_table(
            pa.table({"c_custkey": pa.array([10, 11], pa.int64())}),
            str(d / "customer.parquet"),
        )
        got = q_dq_audit(str(d), n_buckets=4).to_pandas()
        m = dict(zip(got["metric"], got["value"].astype(int)))
        assert m == {
            "orders_rows": 5,
            "orders_null_custkey": 1,
            "orders_nonpositive_total": 2,
            "orders_pre_epoch": 1,
            "orders_fk_orphans": 1,   # custkey 99; the NULL is not an orphan
            "orders_dup_orderkey": 1,  # key 1 twice
            "customer_rows": 2,
        }


class TestTemperatureMix:
    """α=0.5 mix: the rarest language keeps everything (threshold is
    the full hash range); membership equals the rule re-derived
    independently per doc."""

    def test_mix_membership(self, ray_session, tmp_path_factory):
        import hashlib
        import math

        from pdf_parser_ray.stages.corpus import q_temperature_mix

        d = tmp_path_factory.mktemp("mix_sf")
        n_a, n_b = 160, 10  # 16× head → head keeps ~1/4, tail keeps all
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(n_a + n_b), pa.int64()),
                    "lang": pa.array(["aa"] * n_a + ["bb"] * n_b),
                }
            ),
            str(d / "documents.parquet"),
        )
        got = q_temperature_mix(str(d)).to_pandas()
        kept = set(got["doc_id"].astype(int))

        th = {
            "aa": (math.isqrt(n_a * n_b) * 16**6) // n_a,
            "bb": 16**6,  # isqrt(n_b*n_b)*16^6 // n_b
        }
        want = {
            i
            for i, lg in enumerate(["aa"] * n_a + ["bb"] * n_b)
            if int(hashlib.md5(f"mix:{i}".encode()).hexdigest()[:6], 16)
            < th[lg]
        }
        assert kept == want
        # the rare language is never starved
        assert set(range(n_a, n_a + n_b)) <= kept


class TestSourceLangEntropy:
    """Exact micro-nat entropy: a one-language source reads 0, a
    uniform 4-language source reads lnm(4N) - lnm(N) = ~ln 4, both
    derived from the same lnm_micro snap the engine uses."""

    def test_entropy_hand_check(self, ray_session, tmp_path_factory):
        from pdf_parser_ray.stages.textstats import lnm_micro, q_source_lang_entropy

        d = tmp_path_factory.mktemp("ent_sf")
        rows = [("uni", lg) for lg in ("en", "es", "de", "fr") for _ in range(8)]
        rows += [("mono", "en")] * 10
        pq.write_table(
            pa.table(
                {
                    "source": pa.array([s for s, _ in rows]),
                    "lang": pa.array([l for _, l in rows]),
                }
            ),
            str(d / "documents.parquet"),
        )
        got = (
            q_source_lang_entropy(str(d))
            .set_index("source")
            .to_dict(orient="index")
        )
        assert got["mono"]["entropy_micro"] == 0
        assert got["mono"]["n_langs"] == 1 and got["mono"]["n_docs"] == 10
        # uniform over 4: H = lnm(32) - (32*lnm(8))//32 = lnm(32) - lnm(8)
        want = lnm_micro(32) - lnm_micro(8)
        assert got["uni"]["entropy_micro"] == want
        assert abs(want - 1_386_294) <= 1  # ln 4 in micro-nats
        assert got["uni"]["n_langs"] == 4 and got["uni"]["n_docs"] == 32


class TestDedupIncremental:
    """Round-5 snapshot anti-join dedup: broadcast and shuffle twins
    must match bit-for-bit, and no admitted document's fingerprint may
    exist in the snapshot (independently recomputed)."""

    def test_twins_match_and_exclude_snapshot(self, ray_session):
        import hashlib

        from pdf_parser_ray.stages.dedup import (
            augmented_corpus,
            q_dedup_incremental,
        )

        sf = "/root/testdata/sf0.001"
        broadcast = (
            q_dedup_incremental(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        shuffle = (
            q_dedup_incremental(sf, budget_bytes=1)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(broadcast, shuffle)

        aug = augmented_corpus(sf).to_pandas()
        aug["h"] = [
            hashlib.md5((t or "").encode()).hexdigest() for t in aug["text"]
        ]
        snap = set(aug.loc[aug["doc_id"] % 3 == 0, "h"])
        new = aug[aug["doc_id"] % 3 != 0]
        assert len(broadcast) < len(new)  # something was actually dropped
        assert not set(broadcast["content_sha"]) & snap
        # admitted = exactly the new docs whose hash is not in snapshot
        want = new[~new["h"].isin(snap)]["doc_id"].sort_values().tolist()
        assert broadcast["doc_id"].tolist() == want


class TestNearDupIncremental:
    """Round-5 near-dup admission filter: every emitted pair must be a
    genuine cross pair (new doc vs snapshot doc) whose exact word-3-gram
    Jaccard clears the threshold, and the pair set must equal an
    independent brute-force recompute over the augmented corpus."""

    def test_orientation_and_exact_recompute(self, ray_session):
        from pdf_parser_ray.stages.dedup import (
            augmented_corpus,
            jaccard_int,
            q_near_dup_incremental,
        )

        sf = "/root/testdata/sf0.001"
        got = (
            q_near_dup_incremental(sf)
            .to_pandas()
            .sort_values(["doc_id", "dup_of"])
            .reset_index(drop=True)
        )
        assert len(got) > 0
        # orientation: doc_id is always a new-shard doc, dup_of always snapshot
        assert (got["doc_id"] % 3 != 0).all()
        assert (got["dup_of"] % 3 == 0).all()

        # brute-force spec: all new x snapshot pairs with 2*inter >= uni
        aug = augmented_corpus(sf).to_pandas()
        new = aug[aug["doc_id"] % 3 != 0]
        snap = aug[aug["doc_id"] % 3 == 0]
        want = []
        for nid, ntext in zip(new["doc_id"], new["text"]):
            for sid, stext in zip(snap["doc_id"], snap["text"]):
                inter, uni = jaccard_int(ntext, stext)
                if 2 * inter >= uni:
                    jm = 1_000_000 if uni == 0 else inter * 1_000_000 // uni
                    want.append((nid, sid, jm))
        want.sort()
        assert list(map(tuple, got.itertuples(index=False))) == want


class TestSourceCapSample:
    """Per-source cap with the pre-prune combiner: the pruned exchange
    must ship at most cap rows per (block, source), and the capped
    result must be exact regardless of how rows split into blocks."""

    def test_exact_and_combiner_bounded(self, ray_session):
        import duckdb

        from pdf_parser_ray.stages.textstats import q_source_cap_sample

        sf = "/root/testdata/sf0.001"
        got = (
            q_source_cap_sample(sf)
            .to_pandas()
            .sort_values(["source", "doc_id"])
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            f"""
            SELECT doc_id, source FROM (
                SELECT doc_id, source,
                       ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) rn
                FROM '{sf}/documents.parquet')
            WHERE rn <= 10 ORDER BY source, doc_id
            """
        ).df()
        pd.testing.assert_frame_equal(got, want)
        # every source capped at exactly min(10, source size)
        assert (got.groupby("source").size() <= 10).all()

    def test_cap_exact_on_shuffled_synthetic(self, ray_session):
        import os
        import tempfile

        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from pdf_parser_ray.stages.textstats import q_source_cap_sample

        # 3 sources x 50 rows in shuffled order: block-local pruning
        # must still yield each source's LOWEST doc_ids globally
        rng = np.random.RandomState(7)
        ids = rng.permutation(150)
        batch = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array([f"s{int(i) % 3}" for i in ids], pa.string()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(batch, os.path.join(d, "documents.parquet"))
            res = q_source_cap_sample(d, cap=5).to_pandas()
        assert len(res) == 15
        for s in ("s0", "s1", "s2"):
            sub = sorted(res.loc[res["source"] == s, "doc_id"])
            lowest = sorted(i for i in range(150) if i % 3 == int(s[1]))[:5]
            assert sub == lowest


class TestLengthTailIndex:
    def test_independent_math(self, ray_session):
        """Recompute the Hill/Clauset MLE from raw n_chars with the
        same shared-ln spec — the engine's distributed fold must
        reproduce the sequential arithmetic exactly."""
        import duckdb

        from pdf_parser_ray.stages.textstats import (
            _ZIPF_XMIN,
            lnm_micro,
            q_length_tail_index,
        )

        sf = "/root/testdata/sf0.001"
        got = q_length_tail_index(sf)
        lens = (
            duckdb.connect()
            .execute(
                f"SELECT n_chars FROM read_parquet('{sf}/documents.parquet')"
                f" WHERE n_chars >= {_ZIPF_XMIN}"
            )
            .df()["n_chars"]
            .tolist()
        )
        ln0 = lnm_micro(_ZIPF_XMIN)
        s = sum(lnm_micro(int(x)) - ln0 for x in lens)
        assert int(got["n_tail"].iloc[0]) == len(lens)
        assert int(got["sum_ln_ratio_micro"].iloc[0]) == s
        assert int(got["alpha_micro"].iloc[0]) == 1_000_000 + len(lens) * 10**12 // s
        # heavy-tail sanity: alpha lands in the physically plausible band
        assert 1_000_000 < int(got["alpha_micro"].iloc[0]) < 20_000_000


from pdf_parser_ray.stages.textstats import q_source_vocab_overlap as q_svo


class TestUserInterarrival:
    def test_crafted_gaps(self, ray_session, tmp_path_factory):
        """User 1: gaps [10s, 20s] → median 10s, max 20s; user 2 has a
        single event (no gaps — absent); user 3 has two events at the
        SAME ts (gap 0 — ties must not crash the order contract)."""
        import numpy as np

        from pdf_parser_ray.relational.ops import q_user_interarrival

        d = tmp_path_factory.mktemp("ia_sf")
        base = np.datetime64("2025-01-01T00:00:00", "us")
        ts = [0, 10, 30, 5, 7, 7]
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 2, 3, 3], pa.int64()),
                    "ts": pa.array(
                        [base + np.timedelta64(s * 1_000_000, "us") for s in ts]
                    ),
                }
            ),
            str(d / "events.parquet"),
        )
        got = (
            q_user_interarrival(str(d), n_buckets=2)
            .to_pandas()
            .set_index("user_id")
            .sort_index()
        )
        assert got.index.tolist() == [1, 3]
        assert int(got.loc[1, "n_gaps"]) == 2
        assert int(got.loc[1, "median_gap_us"]) == 10_000_000
        assert int(got.loc[1, "max_gap_us"]) == 20_000_000
        assert int(got.loc[3, "n_gaps"]) == 1
        assert int(got.loc[3, "median_gap_us"]) == 0


class TestSourceVocabOverlap:
    def test_identities(self, ray_session):
        got = q_svo("/root/testdata/sf0.001")
        # all 20 synthetic sources share the tiny vocab: full pair grid
        assert len(got) == 20 * 19 // 2
        assert (got["source_a"] < got["source_b"]).all()
        assert (got["n_common"] <= got[["n_terms_a", "n_terms_b"]].min(axis=1)).all()
        assert (got["jaccard_ppm"] > 0).all() and (got["jaccard_ppm"] <= 1_000_000).all()


class TestStratifiedSplit:
    def test_exact_per_lang_proportions(self, ray_session):
        from pdf_parser_ray.stages.corpus import q_stratified_split

        got = q_stratified_split("/root/testdata/sf0.001").to_pandas()
        for lang, sub in got.groupby("lang"):
            n = len(sub)
            counts = sub["split"].value_counts()
            assert int(counts.get("train", 0)) == n * 80 // 100
            assert int(counts.get("val", 0)) == n * 90 // 100 - n * 80 // 100
            assert int(counts.get("test", 0)) == n - n * 90 // 100

    def test_deterministic_across_runs(self, ray_session):
        from pdf_parser_ray.stages.corpus import q_stratified_split

        a = q_stratified_split("/root/testdata/sf0.001").to_pandas()
        b = q_stratified_split("/root/testdata/sf0.001").to_pandas()
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)


class TestVocabGrowthAndLangConfusion:
    def test_heaps_curve_nondegenerate(self, ray_session):
        from pdf_parser_ray.stages.textstats import q_vocab_growth

        got = q_vocab_growth("/root/testdata/sf0.001")
        assert got["decile"].tolist() == list(range(10))
        assert (got["n_new_terms"] > 0).all()
        assert got["cum_terms"].is_monotonic_increasing
        # novelty decays: the last decile adds fewer grams than the first
        assert int(got["n_new_terms"].iloc[-1]) < int(got["n_new_terms"].iloc[0])
        assert int(got["cum_terms"].iloc[-1]) == int(got["n_new_terms"].sum())

    def test_confusion_marginals_match_labels(self, ray_session):
        import duckdb

        from pdf_parser_ray.stages.textstats import q_lang_confusion

        sf = "/root/testdata/sf0.001"
        got = q_lang_confusion(sf)
        want = dict(
            duckdb.connect()
            .execute(
                f"SELECT lang, COUNT(*) FROM read_parquet('{sf}/documents.parquet')"
                " GROUP BY lang"
            )
            .fetchall()
        )
        marg = got.groupby("lang")["n_docs"].sum().to_dict()
        assert marg == want
        # the identifier has NO zh profile: labeled zh never hits
        zh = got[(got["lang"] == "zh") & (got["is_hit"] == 1)]
        assert len(zh) == 0
        # but en is the majority class and mostly identified
        en_hit = got[(got["lang"] == "en") & (got["is_hit"] == 1)]["cell_share_ppm"]
        assert len(en_hit) == 1 and int(en_hit.iloc[0]) > 500_000


class TestCorpusPrepV3:
    def test_composition_equals_standalone_gates(self, ray_session):
        """v3 survivors must be exactly the intersection of the two
        standalone operators' gates — the composition property the
        pipeline claims (models trained on the FULL corpus either
        way)."""
        from pdf_parser_ray.pipelines.prep import q_corpus_prep_v3
        from pdf_parser_ray.stages.dsir import q_ccnet_buckets, q_dsir_weights

        sf = "/root/testdata/sf0.001"
        got = q_corpus_prep_v3(sf).to_pandas()
        cc = q_ccnet_buckets(sf).to_pandas()
        dw = q_dsir_weights(sf).to_pandas()
        want = set(cc[cc["ppl_bucket"] < 2]["doc_id"]) & set(
            dw[dw["dsir_micro"] > 0]["doc_id"]
        )
        assert set(got["doc_id"]) == want
        assert (got["ppl_bucket"] < 2).all()
        assert (got["dsir_micro"] > 0).all()
        # the DSIR gate biases the mix toward the target slice
        langs = duck_langs = None
        import duckdb

        labels = (
            duckdb.connect()
            .execute(f"SELECT doc_id, lang FROM read_parquet('{sf}/documents.parquet')")
            .df()
        )
        merged = got.merge(labels, on="doc_id", suffixes=("", "_label"))
        en_share_out = (merged["lang_label"] == "en").mean()
        en_share_in = (labels["lang"] == "en").mean()
        assert en_share_out > en_share_in


class TestAdamicAdar:
    def test_path_graph_hand_check(self, ray_session, tmp_path_factory):
        """Path 1–2–3–4 (three two-part baskets): eligible centers are
        2 and 3 (deg 2); predicted links (1,3) and (2,4) each carry one
        common neighbor of degree 2 → score 10¹² // lnm(2) = 10¹² //
        693147 and Jaccard 1/(1+2−1) = 500000 ppm."""
        from pdf_parser_ray.stages.linkpred import q_adamic_adar
        from pdf_parser_ray.stages.textstats import lnm_micro

        d = tmp_path_factory.mktemp("aa_sf")
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
                    "l_partkey": pa.array([1, 2, 2, 3, 3, 4], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        got = q_adamic_adar(str(d), n_buckets=4).set_index(["u", "v"]).sort_index()
        w = 10**12 // lnm_micro(2)
        assert got.index.tolist() == [(1, 3), (2, 4)]
        assert (got["cn"] == 1).all()
        assert (got["score_micro"] == w).all()
        assert (got["jaccard_ppm"] == 500_000).all()

    def test_existing_edges_excluded_and_cap(self, ray_session, tmp_path_factory):
        """Triangle {1,2,3}: every wedge closes an existing edge, so
        the anti-join leaves nothing; a cap below every degree also
        yields nothing (cap is a center-eligibility filter)."""
        from pdf_parser_ray.stages.linkpred import q_adamic_adar

        d = tmp_path_factory.mktemp("aa_tri_sf")
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
                    "l_partkey": pa.array([1, 2, 2, 3, 1, 3], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        assert len(q_adamic_adar(str(d), n_buckets=4)) == 0

        # path graph again, but with no eligible centers
        d2 = tmp_path_factory.mktemp("aa_cap_sf")
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 2, 2], pa.int64()),
                    "l_partkey": pa.array([1, 2, 2, 3], pa.int64()),
                }
            ),
            str(d2 / "lineitem.parquet"),
        )
        assert len(q_adamic_adar(str(d2), n_buckets=4, max_center_deg=1)) == 0


class TestG2Collocations:
    def test_matches_bruteforce(self, ray_session, tmp_path_factory):
        """Independent pure-Python replay of the expanded G² formula
        (Counter-based margins, scalar lnm) over a small corpus with a
        planted collocation — the engine's two-exchange plan must
        reproduce it exactly, including the min-count filter."""
        from collections import Counter

        from pdf_parser_ray.stages.textstats import lnm_micro, q_g2_collocations

        d = tmp_path_factory.mktemp("g2_sf")
        texts = (
            ["new york is a big city"] * 4
            + ["the new deal and the new york times"] * 3
            + ["york was new once more than once", "a big deal in a big city"]
        )
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )

        cells = Counter()
        for t in texts:
            w = t.split()
            cells.update(zip(w, w[1:]))
        n = sum(cells.values())
        rm, cm = Counter(), Counter()
        for (x, y), k in cells.items():
            rm[x] += k
            cm[y] += k

        def s(k):
            return k * lnm_micro(k) if k > 0 else 0

        want = []
        for (x, y), k in cells.items():
            if k < 2:
                continue
            r, c = rm[x], cm[y]
            g2 = 2 * (
                s(k) + s(r - k) + s(c - k) + s(n - r - c + k)
                + s(n) - s(r) - s(n - r) - s(c) - s(n - c)
            )
            want.append((x, y, k, g2))
        want.sort(key=lambda t: (-t[3], t[0], t[1]))

        got = q_g2_collocations(str(d), n_buckets=4, min_count=2, top_k=50)
        assert list(map(tuple, got.itertuples(index=False))) == want
        # the planted phrase survives the min-count gate and is scored
        pairs = list(zip(got["term_a"], got["term_b"]))
        assert ("new", "york") in pairs

    def test_int64_envelope_fails_loudly(self):
        """N·lnm(N) first reaches 2⁶³ at N = 347,097,309,766 bigrams,
        where the int64 product wraps negative: one bigram short the
        check passes, at it the query raises."""
        from pdf_parser_ray.stages.textstats import _g2_envelope, lnm_micro

        n = 347_097_309_766
        assert (n - 1) * lnm_micro(n - 1) < 2**63 <= n * lnm_micro(n)
        assert (np.array([n], np.int64) * lnm_micro(n))[0] < 0
        _g2_envelope(n - 1)
        with pytest.raises(OverflowError, match="2\\^63"):
            _g2_envelope(n)


class TestBpeTrain:
    @staticmethod
    def _ref(texts, k):
        """Independent Sennrich-style reference: Counter pair stats,
        (count DESC, pair lexicographic) argmax, left-to-right merge."""
        from collections import Counter

        wf = Counter(w for t in texts for w in t.split())
        syms = {w: list(w) for w in wf}
        merges = []
        for rank in range(1, k + 1):
            pairs = Counter()
            for w, f in wf.items():
                s = syms[w]
                for p in zip(s, s[1:]):
                    pairs[p] += f
            if not pairs:
                break
            (a, b), c = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            merges.append((rank, a, b, c, a + b))
            for w, s in syms.items():
                res, i = [], 0
                while i < len(s):
                    if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                        res.append(a + b)
                        i += 2
                    else:
                        res.append(s[i])
                        i += 1
                syms[w] = res
        return merges

    def test_matches_reference_and_oracle(self, ray_session, tmp_path_factory):
        import duckdb

        from pdf_parser_ray.stages.tokenize import _sql_bpe_train, q_bpe_train

        d = tmp_path_factory.mktemp("bpe_sf")
        texts = (
            ["low low low low low lower lower"] * 2
            + ["newest newest newest widest widest widest"] * 3
            + ["aaaa abab aaab"]  # overlap stress: repeated-pair runs
        )
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        k = 5
        got = q_bpe_train(str(d), n_merges=k, n_buckets=4)
        want = self._ref(texts, k)
        assert list(map(tuple, got.itertuples(index=False))) == want

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM '{d}/documents.parquet'"
        )
        oracle = con.sql(_sql_bpe_train(k)).df().sort_values("merge_rank")
        assert list(map(tuple, oracle.itertuples(index=False))) == want

    def test_exhausts_pairs_early(self, ray_session, tmp_path_factory):
        """Single-character words have no pairs after the first merges
        run dry — the trainer stops instead of emitting null merges."""
        from pdf_parser_ray.stages.tokenize import q_bpe_train

        d = tmp_path_factory.mktemp("bpe_dry_sf")
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([0], pa.int64()),
                    "text": pa.array(["ab a b a b"], pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        got = q_bpe_train(str(d), n_merges=6, n_buckets=4)
        # only one pair (a,b) exists; after merging it nothing remains
        assert len(got) == 1
        assert tuple(got.iloc[0][["lhs", "rhs", "merged"]]) == ("a", "b", "ab")


class TestProximitySearch:
    def test_hand_positions(self, ray_session, tmp_path_factory):
        """Crafted docs with known pair counts and min distances,
        including a doc-boundary case (terms adjacent across two docs
        must NOT pair) and both orders within the window."""
        from pdf_parser_ray.stages.textstats import q_proximity_search

        d = tmp_path_factory.mktemp("prox_sf")
        texts = [
            "hash x join y hash",       # pairs: (0,2)d2, (2,4)d2 → 2 pairs, min 2
            "join a b c d e hash",      # distance 6 > slop → no hit
            "x y z hash",               # term_a at doc end…
            "join q r s",               # …term_b at next doc start: no pair
            "hash join hash join",      # all cross pairs within 3: 4 pairs, min 1
        ]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            str(d / "documents.parquet"),
        )
        got = (
            q_proximity_search(str(d), term_a="hash", term_b="join", slop=3)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert got.index.tolist() == [0, 4]
        assert got.loc[0, "n_pairs"] == 2 and got.loc[0, "min_dist"] == 2
        assert got.loc[4, "n_pairs"] == 4 and got.loc[4, "min_dist"] == 1


class TestKCore:
    def test_cascading_peel(self, ray_session, tmp_path_factory):
        """Path 1–2–3–4–5 hanging off triangle {5,6,7} with k=2: the
        pendant chain peels one node per synchronous round (4 rounds),
        leaving exactly the triangle with all degrees 2."""
        from pdf_parser_ray.stages.graph import q_k_core

        d = tmp_path_factory.mktemp("kcore_sf")
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)]
        ok = [i + 1 for i in range(len(edges)) for _ in range(2)]
        pk = [p for e in edges for p in e]
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(ok, pa.int64()),
                    "l_partkey": pa.array(pk, pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        got = q_k_core(str(d), k=2, n_buckets=4).set_index("part").sort_index()
        assert got.index.tolist() == [5, 6, 7]
        assert (got["deg"] == 2).all()

    def test_empty_core(self, ray_session, tmp_path_factory):
        """A bare path has no 2-core — everything peels away."""
        from pdf_parser_ray.stages.graph import q_k_core

        d = tmp_path_factory.mktemp("kcore_empty_sf")
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
                    "l_partkey": pa.array([1, 2, 2, 3, 3, 4], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        assert len(q_k_core(str(d), k=2, n_buckets=4)) == 0


class TestAdamicAdarGate:
    def test_broadcast_and_exchange_paths_agree(
        self, ray_session, tmp_path_factory
    ):
        """The gated broadcast anti-join and the co-located exchange
        fallback must produce identical predictions."""
        from pdf_parser_ray.stages.linkpred import q_adamic_adar

        d = tmp_path_factory.mktemp("aa_gate_sf")
        rng = np.random.RandomState(7)
        ok, pk = [], []
        for o in range(1, 60):
            parts = rng.choice(np.arange(1, 25), size=rng.randint(2, 5),
                               replace=False)
            ok.extend([o] * len(parts))
            pk.extend(parts.tolist())
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(ok, pa.int64()),
                    "l_partkey": pa.array(pk, pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        a = q_adamic_adar(str(d), n_buckets=4, broadcast_probe=True)
        b = q_adamic_adar(str(d), n_buckets=4, broadcast_probe=False)
        assert a.equals(b)
        assert len(a) > 0


class TestLabelCentroidAffinity:
    def test_aligned_and_orthogonal(self, ray_session, tmp_path_factory):
        """Labels with parallel centroids score cos² = 10⁶ ppm;
        orthogonal centroids score 0; anti-parallel carry sign −1."""
        from pdf_parser_ray.stages.embed import q_label_centroid_affinity

        d = tmp_path_factory.mktemp("aff_sf")
        vecs = [
            (0, [1.0, 0.0]), (0, [1.0, 0.0]),
            (1, [2.0, 0.0]),                   # parallel to 0
            (2, [0.0, 3.0]),                   # orthogonal to 0, 1
            (3, [-1.0, 0.0]),                  # anti-parallel to 0
        ]
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
                    "embedding": pa.array(
                        [v for _, v in vecs], pa.list_(pa.float32())
                    ),
                    "label": pa.array([l for l, _ in vecs], pa.int32()),
                }
            ),
            str(d / "embeddings.parquet"),
        )
        got = q_label_centroid_affinity(str(d)).set_index(["label_a", "label_b"])
        assert got.loc[(0, 1), "cos2_sign_ppm"] == 1_000_000
        assert got.loc[(0, 2), "cos2_sign_ppm"] == 0
        assert got.loc[(0, 3), "cos2_sign_ppm"] == -1_000_000
        assert got.loc[(0, 1), "n_a"] == 2 and got.loc[(0, 1), "n_b"] == 1


class TestHitsScores:
    def test_star_graph_authorities(self, ray_session, tmp_path_factory):
        """Two customers both buy from supplier 1; one also buys from
        supplier 2: supplier 1 is the max authority (10⁶ after
        normalization), supplier 2 strictly lower; the broad-buying
        customer is the top hub."""
        from pdf_parser_ray.stages.graph import q_hits_scores

        d = tmp_path_factory.mktemp("hits_sf")
        # orders: o1 (cust 1) → supp 1; o2 (cust 2) → supp 1, supp 2
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array([1, 2, 2], pa.int64()),
                    "l_suppkey": pa.array([1, 1, 2], pa.int64()),
                }
            ),
            str(d / "lineitem.parquet"),
        )
        pq.write_table(
            pa.table(
                {
                    "o_orderkey": pa.array([1, 2], pa.int64()),
                    "o_custkey": pa.array([1, 2], pa.int64()),
                }
            ),
            str(d / "orders.parquet"),
        )
        got = (
            q_hits_scores(str(d), n_buckets=4)
            .to_pandas()
            .set_index(["node_type", "node"])
        )
        auth = got.loc[1]["score_micro"]
        hub = got.loc[0]["score_micro"]
        assert auth.loc[1] == 1_000_000 and auth.loc[2] < 1_000_000
        assert hub.loc[2] == 1_000_000 and hub.loc[1] < 1_000_000

    def test_scale_envelope_boundary(self):
        """The scale ``v·10⁶ // max`` stays in int64 up to a max raw score
        of (2⁶³−1) // 10⁶; one more raises instead of wrapping."""
        from pdf_parser_ray.stages.graph import _hits_envelope

        edge = 9_223_372_036_854
        _hits_envelope(edge)
        assert int(np.int64(edge) * 1_000_000) == edge * 1_000_000  # no wrap
        with pytest.raises(OverflowError):
            _hits_envelope(edge + 1)


class TestDupClusterHistogram:
    def test_identities_vs_dedup_exact(self, ray_session):
        """Cross-operator identities on the shared augmented corpus:
        Σ size·clusters = corpus rows, Σ clusters = dedup_exact's
        kept-row count (one survivor per cluster)."""
        from pdf_parser_ray.stages.dedup import (
            augmented_corpus,
            q_dedup_exact,
            q_dup_cluster_histogram,
        )

        sf = "/root/testdata/sf0.001"
        hist = q_dup_cluster_histogram(sf)
        n_aug = augmented_corpus(sf).count()
        n_kept = q_dedup_exact(sf).count()
        assert int(hist["n_docs"].sum()) == n_aug
        assert int(hist["n_clusters"].sum()) == n_kept
        assert (hist["n_docs"] == hist["cluster_size"] * hist["n_clusters"]).all()
