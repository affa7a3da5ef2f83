"""Unit tests for the decision-support suite (relational/analytics.py).

Three classes of pins beyond the oracle harness:

* broadcast/fallback twins produce identical results (the gate only
  changes the physical plan, never the answer);
* the algebraic collapses (EXISTS→argmax, two-level argmin→packed MIN,
  HAVING-vs-scalar→integer threshold) behave correctly at their edge
  cases — ties, strict boundaries, empty slices — on crafted corpora
  where the edge is guaranteed to occur;
* the engine matches DuckDB running the registered oracle on the same
  crafted corpus (semantics, not just the driver's sf tables).
"""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.relational import analytics as an

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    yield


def _canon(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(tuple(str(v) for v in row) for row in df.itertuples(index=False))
    return hashlib.md5(str(rows).encode()).hexdigest()


def _pd(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()


class TestBroadcastFallbackTwins:
    """budget_bytes=1 forces every footer gate to the non-broadcast
    plan; both plans must hash-match on the same input."""

    @pytest.mark.parametrize(
        "fn",
        [
            an.q_promo_revenue,
            an.q_part_supplier_counts,
            an.q_waiting_suppliers,
            an.q_idle_rich_customers,
            an.q_disjunctive_revenue,
            an.q_brand_mode_qty,
        ],
        ids=["promo", "part_supplier", "waiting", "idle_rich", "disjunctive", "mode"],
    )
    def test_twins_match(self, fn):
        a = _pd(fn(SF))
        b = _pd(fn(SF, budget_bytes=1))
        assert sorted(a.columns) == sorted(b.columns)
        assert _canon(a) == _canon(b)


class TestDefaultBudgetTwins:
    """Queries with no budget parameter: a zero default budget, set on
    the driver where the keyed join picks its plan, forces the
    exchange; both plans must hash-match."""

    @pytest.mark.parametrize(
        "name",
        [
            "late_ship_priority",
            "large_orders",
            "order_count_distribution",
            "brand_momentum",
            "brand_revenue",
        ],
    )
    def test_twins_match(self, monkeypatch, name):
        import pdf_parser_ray.core.util as cu
        from pdf_parser_ray.relational import analytics4, ops

        fn = {**an.QUERIES, **analytics4.QUERIES, **ops.QUERIES}[name]
        a = _pd(fn(SF))
        monkeypatch.setattr(cu, "BROADCAST_BUDGET_BYTES", 0)
        b = _pd(fn(SF))
        assert len(a) > 0
        assert sorted(a.columns) == sorted(b.columns)
        assert _canon(a) == _canon(b)


def _write(tmp_path, name: str, table: pa.Table) -> None:
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))


def _ts(days: list[int]) -> pa.Array:
    base = np.datetime64("2024-01-01T00:00:00", "us")
    return pa.array(
        [base + np.timedelta64(d, "D") for d in days], pa.timestamp("us")
    )


class TestWaitingSuppliers:
    def test_tie_and_single_supplier_semantics(self, tmp_path):
        """Ties at the order max credit every tied supplier (the NOT
        EXISTS uses strict >); single-supplier orders credit nobody."""
        li = pa.table(
            {
                "l_orderkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
                "l_suppkey": pa.array([1, 2, 1, 2, 1], pa.int64()),
                "l_shipdate": _ts([0, 5, 7, 7, 9]),
            }
        )
        supp = pa.table(
            {
                "s_suppkey": pa.array([1, 2], pa.int64()),
                "s_name": pa.array(["Supplier#1", "Supplier#2"]),
            }
        )
        _write(tmp_path, "lineitem", li)
        _write(tmp_path, "supplier", supp)
        got = (
            _pd(an.q_waiting_suppliers(str(tmp_path)))
            .sort_values("s_suppkey")
            .reset_index(drop=True)
        )
        # order 1: s2 strictly latest → s2. order 2: tie → both.
        # order 3: single supplier → nobody.
        want = pd.DataFrame(
            {
                "s_suppkey": [1, 2],
                "waiting_orders": [1, 2],
                "s_name": ["Supplier#1", "Supplier#2"],
            }
        )
        pd.testing.assert_frame_equal(
            got[["s_suppkey", "waiting_orders", "s_name"]], want
        )

    def test_matches_exists_oracle_on_crafted_corpus(self, tmp_path):
        """Randomized corpus: the argmax collapse must equal DuckDB
        running the registered EXISTS/NOT-EXISTS SQL verbatim."""
        rng = np.random.RandomState(7)
        n = 400
        li = pa.table(
            {
                "l_orderkey": pa.array(rng.randint(1, 60, n), pa.int64()),
                "l_suppkey": pa.array(rng.randint(1, 9, n), pa.int64()),
                "l_shipdate": _ts(list(rng.randint(0, 30, n))),
            }
        )
        supp = pa.table(
            {
                "s_suppkey": pa.array(list(range(1, 9)), pa.int64()),
                "s_name": pa.array([f"Supplier#{i}" for i in range(1, 9)]),
            }
        )
        _write(tmp_path, "lineitem", li)
        _write(tmp_path, "supplier", supp)
        got = _pd(an.q_waiting_suppliers(str(tmp_path)))
        con = duckdb.connect()
        for t in ("lineitem", "supplier"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path}/{t}.parquet'")
        want = con.sql(an.ORACLE_SQL["waiting_suppliers"]).df()
        con.close()
        assert len(got) == len(want)
        assert _canon(got) == _canon(want)


class TestCheapestSupplier:
    def test_packed_argmin_breaks_ties_by_suppkey(self, tmp_path):
        part = pa.table(
            {
                "p_partkey": pa.array([1, 2], pa.int64()),
                "p_name": pa.array(["alpha", "beta"]),
                "p_size": pa.array([10, 10], pa.int32()),
            }
        )
        li = pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "l_suppkey": pa.array([5, 3, 7, 9, 2], pa.int64()),
                "l_extendedprice": pa.array([10.00, 10.00, 9.99, 5.00, 5.00]),
            }
        )
        _write(tmp_path, "part", part)
        _write(tmp_path, "lineitem", li)
        got = (
            _pd(an.q_cheapest_supplier(str(tmp_path)))
            .sort_values("l_partkey")
            .reset_index(drop=True)
        )
        # part 1: unique min 9.99 → supp 7; part 2: 5.00 tie → min suppkey 2
        assert got["best_suppkey"].tolist() == [7, 2]
        assert got["min_price_cents"].tolist() == [999, 500]
        assert got["p_name"].tolist() == ["alpha", "beta"]


class TestImportantParts:
    def _corpus(self, tmp_path, dollars: list[float]) -> str:
        li = pa.table(
            {
                "l_partkey": pa.array(range(1, len(dollars) + 1), pa.int64()),
                "l_extendedprice": pa.array(dollars),
                "l_discount": pa.array([0.0] * len(dollars)),
            }
        )
        _write(tmp_path, "lineitem", li)
        return str(tmp_path)

    def test_strict_threshold_excludes_exact_five_fourths(self, tmp_path):
        """r exactly = 5/4·mean must NOT qualify (strict >): revenues
        [3,3,3,3,4] have mean 3.2, 5/4·mean = 4 — the 4 is out."""
        d = self._corpus(tmp_path, [3.0, 3.0, 3.0, 3.0, 4.0])
        got = _pd(an.q_important_parts(d))
        assert len(got) == 0
        con = duckdb.connect()
        con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{d}/lineitem.parquet'")
        assert len(con.sql(an.ORACLE_SQL["important_parts"]).df()) == 0
        con.close()

    def test_one_above_threshold_qualifies(self, tmp_path):
        d = self._corpus(tmp_path, [4.0, 4.0, 5.0, 7.0])
        got = _pd(an.q_important_parts(d))
        con = duckdb.connect()
        con.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{d}/lineitem.parquet'")
        want = con.sql(an.ORACLE_SQL["important_parts"]).df()
        con.close()
        assert got["l_partkey"].tolist() == [4]
        assert _canon(got) == _canon(want)


class TestSmallQtyRevenue:
    def test_brand_with_no_parts_mirrors_sql_nulls(self, tmp_path):
        """No part carries the brand → zero qualifying lines; the
        engine must mirror SQL's SUM-over-empty = NULL, COUNT = 0."""
        part = pa.table(
            {
                "p_partkey": pa.array([1], pa.int64()),
                "p_brand": pa.array(["Brand#9"]),
            }
        )
        li = pa.table(
            {
                "l_partkey": pa.array([1], pa.int64()),
                "l_quantity": pa.array([5.0]),
                "l_extendedprice": pa.array([10.0]),
            }
        )
        _write(tmp_path, "part", part)
        _write(tmp_path, "lineitem", li)
        got = _pd(an.q_small_qty_revenue(str(tmp_path), brand="Brand#1"))
        assert got["n_lines"].tolist() == [0]
        assert got["total_cents"].isna().all()
        assert got["avg7_cents"].isna().all()


class TestDiscMedian:
    def test_matches_duckdb_quantile_disc(self):
        """The read-off convention must equal DuckDB's QUANTILE_DISC
        at 0.5 for odd, even, and heavily-tied multisets."""
        rng = np.random.RandomState(3)
        con = duckdb.connect()
        for _ in range(25):
            vals = rng.randint(0, 12, size=rng.randint(1, 40)).tolist()
            want = con.execute(
                f"SELECT quantile_disc(x, 0.5) FROM (SELECT UNNEST({vals}) AS x)"
            ).fetchone()[0]
            u, c = np.unique(np.array(vals, dtype=np.int64), return_counts=True)
            assert an._disc_median(u, c.astype(np.int64)) == want
        con.close()


class TestHourlyFill:
    def test_gaps_are_zero_filled(self, tmp_path):
        base = np.datetime64("2024-03-01T00:00:00", "us")
        hours = [0, 0, 3, 7]  # hours 1,2,4,5,6 silent
        ev = pa.table(
            {"ts": pa.array([base + np.timedelta64(h, "h") for h in hours],
                            pa.timestamp("us"))}
        )
        pq.write_table(ev, str(tmp_path / "events.parquet"))
        got = _pd(an.q_hourly_fill(str(tmp_path))).sort_values("hour")
        assert len(got) == 8  # inclusive span hour0..hour7
        assert got["n_events"].tolist() == [2, 0, 0, 1, 0, 0, 0, 1]


class TestEditDupPairs:
    def test_byte_dp_matches_duckdb_levenshtein(self):
        """Differential pin: the vectorized byte DP equals DuckDB's
        (byte-based) levenshtein on random unicode strings."""
        import random

        from pdf_parser_ray.stages.dedup import _levenshtein_bytes

        random.seed(11)
        con = duckdb.connect()
        alpha = "abcdé日本x "
        for _ in range(50):
            a = "".join(random.choice(alpha) for _ in range(random.randint(0, 25)))
            b = "".join(random.choice(alpha) for _ in range(random.randint(0, 25)))
            want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
            assert _levenshtein_bytes(a.encode(), b.encode()) == want, (a, b)
        con.close()

    def test_blocked_pairs_on_crafted_corpus(self, tmp_path):
        """Two near-dup docs in one block pair up; a cross-language
        twin and an out-of-bucket twin do not (the blocking contract)."""
        from pdf_parser_ray.stages.dedup import q_edit_dup_pairs

        texts = {
            1: ("the quick brown fox jumps over the lazy dog today", "en"),
            2: ("the quick brown fox jumps over the lazy cat today", "en"),
            3: ("the quick brown fox jumps over the lazy dog today", "fr"),
        }
        docs = pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array([t for t, _ in texts.values()]),
                "lang": pa.array([l for _, l in texts.values()]),
                "n_chars": pa.array(
                    [len(t) for t, _ in texts.values()], pa.int64()
                ),
            }
        )
        pq.write_table(docs, str(tmp_path / "documents.parquet"))
        got = _pd(q_edit_dup_pairs(str(tmp_path)))
        assert got[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
        assert got["lev"].tolist() == [3]  # dog→cat: 3 byte substitutions


class TestOrderEwma:
    def test_window_cap_binds_and_matches_recurrence(self, tmp_path):
        """40 orders for one customer: the 32-step history cap must
        bind. Pin against (a) the exact Fraction recurrence
        e_j = (x_j + e_{j-1})/2 seeded at the window's oldest order,
        and (b) DuckDB running the registered oracle on the same
        corpus."""
        from fractions import Fraction

        rng = np.random.RandomState(5)
        n = 40
        cents = rng.randint(100, 5_000_000, n)
        orders = pa.table(
            {
                "o_custkey": pa.array([1] * n + [2, 2], pa.int64()),
                "o_orderkey": pa.array(range(1, n + 3), pa.int64()),
                "o_orderdate": _ts(list(range(n)) + [0, 0]),  # cust 2: date tie
                "o_totalprice": pa.array(
                    [c / 100 for c in cents] + [10.0, 20.0]
                ),
            }
        )
        pq.write_table(orders, str(tmp_path / "orders.parquet"))
        got = (
            _pd(an.q_order_ewma(str(tmp_path)))
            .sort_values("c_custkey")
            .reset_index(drop=True)
        )
        # exact recurrence over the last 32 values only
        tail = cents[-32:]
        e = Fraction(int(tail[0]))
        for x in tail[1:]:
            e = (int(x) + e) / 2
        num, den = e.numerator, e.denominator
        want_micro = (2 * 1_000_000 * num + den) // (2 * den)
        assert got["n_orders"].tolist() == [40, 2]
        assert got.loc[0, "ewma_micro"] == want_micro
        # cust 2: date tie broken by orderkey → e = (1000¢ + 2000¢)/2
        # = 1500 cents = 1.5e9 micro-cents
        assert got.loc[1, "ewma_micro"] == 1_500_000_000

        con = duckdb.connect()
        con.sql(f"CREATE VIEW orders AS SELECT * FROM '{tmp_path}/orders.parquet'")
        ref = con.sql(an.ORACLE_SQL["order_ewma"]).df()
        con.close()
        assert _canon(got) == _canon(ref)


class TestPartHops:
    def test_cap_and_disconnection_bind_on_path_graph(self, tmp_path):
        """Path graph 1-2-3-4-5-6 seeded at part 1 (p_size=1): hops
        0..3 reachable, parts 5/6 beyond the cap and isolated part 10
        absent."""
        from pdf_parser_ray.stages.graph import q_part_hops

        li = pa.table(
            {
                "l_orderkey": pa.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6], pa.int64()),
                "l_partkey": pa.array([1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 10], pa.int64()),
            }
        )
        part = pa.table(
            {
                "p_partkey": pa.array([1, 2, 3, 4, 5, 6, 10], pa.int64()),
                "p_size": pa.array([1, 9, 9, 9, 9, 9, 9], pa.int32()),
            }
        )
        pq.write_table(li, str(tmp_path / "lineitem.parquet"))
        pq.write_table(part, str(tmp_path / "part.parquet"))
        got = (
            _pd(q_part_hops(str(tmp_path)))
            .sort_values("partkey")
            .reset_index(drop=True)
        )
        assert got["partkey"].tolist() == [1, 2, 3, 4]
        assert got["hops"].tolist() == [0, 1, 2, 3]


class TestBrandModeQty:
    def test_mode_and_tiebreak_independent_of_pack(self, tmp_path):
        """The packed-argmax formula is shared with the oracle, so a
        symmetric bug would pass the hash check — pin the intended
        semantics (most frequent, tie → SMALLER qty) independently."""
        from collections import Counter

        part = pa.table(
            {
                "p_partkey": pa.array([1, 2], pa.int64()),
                "p_brand": pa.array(["BrandA", "BrandB"]),
            }
        )
        # BrandA: qty 5 ×3, qty 2 ×3 (tie → 2); BrandB: qty 7 ×2, 9 ×1
        qtys = [5, 5, 5, 2, 2, 2, 7, 7, 9]
        keys = [1, 1, 1, 1, 1, 1, 2, 2, 2]
        li = pa.table(
            {
                "l_partkey": pa.array(keys, pa.int64()),
                "l_quantity": pa.array([float(q) for q in qtys]),
            }
        )
        pq.write_table(part, str(tmp_path / "part.parquet"))
        pq.write_table(li, str(tmp_path / "lineitem.parquet"))
        got = (
            _pd(an.q_brand_mode_qty(str(tmp_path)))
            .sort_values("p_brand")
            .reset_index(drop=True)
        )
        assert got["mode_qty"].tolist() == [2, 7]
        assert got["n"].tolist() == [3, 2]
        # independent reference on the same data
        want = {}
        for b, q in zip(["A"] * 6 + ["B"] * 3, qtys):
            want.setdefault(b, Counter())[q] += 1
        assert max(want["A"].items(), key=lambda kv: (kv[1], -kv[0])) == (2, 3)


class TestValidityIntervals:
    def test_ts_ties_order_by_event_id_and_open_end(self, tmp_path):
        from pdf_parser_ray.relational.analytics import (
            _OPEN_END_US,
            q_event_validity_intervals,
        )

        base = np.datetime64("2024-01-01T00:00:00", "us")
        ev = pa.table(
            {
                "event_id": pa.array([3, 1, 2, 9], pa.int64()),
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array(
                    [base, base, base + np.timedelta64(1, "h"), base],
                    pa.timestamp("us"),
                ),
                "event_type": pa.array(["a", "b", "c", "d"]),
            }
        )
        pq.write_table(ev, str(tmp_path / "events.parquet"))
        got = (
            _pd(q_event_validity_intervals(str(tmp_path)))
            .sort_values(["user_id", "valid_from_us", "event_id"])
            .reset_index(drop=True)
        )
        t0 = int(base.astype(np.int64))
        hr = 3_600_000_000
        # user 1: ids 1,3 tie at t0 (ordered 1→3), then 2 at t0+1h open
        assert got["event_id"].tolist() == [1, 3, 2, 9]
        assert got["valid_to_us"].tolist() == [t0, t0 + hr, _OPEN_END_US, _OPEN_END_US]


class TestLateShipPriority:
    def test_grace_boundary_is_strict(self, tmp_path):
        """max shipdate exactly orderdate+grace does NOT count (SQL >)."""
        # 24 orders (a 2-row corpus can hash an entire join partition
        # empty, and an empty block loses its schema): even keys ship
        # exactly at the grace bound (excluded), odd keys one day past
        n = 24
        orders = pa.table(
            {
                "o_orderkey": pa.array(range(1, n + 1), pa.int64()),
                "o_orderdate": _ts([0] * n),
                "o_orderpriority": pa.array(["1-URGENT"] * n),
            }
        )
        li = pa.table(
            {
                "l_orderkey": pa.array(range(1, n + 1), pa.int64()),
                "l_shipdate": _ts([5 if k % 2 == 0 else 6 for k in range(1, n + 1)]),
            }
        )
        _write(tmp_path, "orders", orders)
        _write(tmp_path, "lineitem", li)
        got = _pd(an.q_late_ship_priority(str(tmp_path), grace_days=5))
        assert got["late_orders"].tolist() == [12]


class TestSpendGini:
    def test_matches_pairwise_definition(self, tmp_path):
        """The rank identity Σ(2r−n−1)x₍ᵣ₎ is shared with the oracle,
        so a symmetric bug would pass the hash check — pin against the
        INDEPENDENT pairwise form G = ΣᵢΣⱼ|xᵢ−xⱼ| / (2·n·Σx) computed
        with Python ints, including a tied-spend segment (the identity
        must be tie-order invariant)."""
        # seg A: spends 1.00, 1.00, 4.00 (tie); seg B: equal spends → G=0
        cust = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "c_mktsegment": pa.array(["A", "A", "A", "B", "B"]),
            }
        )
        # customer 3's spend arrives as two orders — the per-key
        # pre-aggregation must fold before ranking
        orders = pa.table(
            {
                "o_custkey": pa.array([1, 2, 3, 3, 4, 5], pa.int64()),
                "o_totalprice": pa.array([1.0, 1.0, 1.5, 2.5, 7.0, 7.0]),
            }
        )
        _write(tmp_path, "customer", cust)
        _write(tmp_path, "orders", orders)
        got = _pd(an.q_spend_gini(str(tmp_path))).sort_values("segment")
        spends = {"A": [100, 100, 400], "B": [700, 700]}
        for seg, xs in spends.items():
            n, s = len(xs), sum(xs)
            num = sum(abs(a - b) for a in xs for b in xs)
            want_ppm = (1_000_000 * num) // (2 * n * s)
            row = got[got["segment"] == seg].iloc[0]
            assert int(row["gini_ppm"]) == want_ppm, seg
            assert int(row["n_customers"]) == n
            assert int(row["spend_cents"]) == s
        assert int(got[got["segment"] == "B"]["gini_ppm"].iloc[0]) == 0

    def test_limb_reassembly_on_wide_values(self, tmp_path):
        """Σ j·cⱼ exceeding one int64 limb must survive the two-limb
        round trip: spends near 2⁶⁰ cents force t_hi ≠ 0."""
        # dollar amounts 2⁵⁵ and 2⁵⁶ are exact float64 and their cents
        # (25·2⁵⁷, 25·2⁵⁸) are exact float64 AND int64-safe; the group's
        # Σ j·cⱼ = 5·25·2⁵⁷ ≈ 1.8e19 overflows one 62-bit limb
        big = 1 << 55
        cust = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_mktsegment": pa.array(["X", "X", "X"]),
            }
        )
        orders = pa.table(
            {
                "o_custkey": pa.array([1, 2, 3], pa.int64()),
                "o_totalprice": pa.array([float(big), float(big), float(2 * big)]),
            }
        )
        _write(tmp_path, "customer", cust)
        _write(tmp_path, "orders", orders)
        got = _pd(an.q_spend_gini(str(tmp_path)))
        xs = [100 * big, 100 * big, 200 * big]
        num = sum(abs(a - b) for a in xs for b in xs)
        want = (1_000_000 * num) // (2 * 3 * sum(xs))
        assert int(got["gini_ppm"].iloc[0]) == want


class TestPrePurchaseViews:
    def test_cutoff_is_strict_and_non_converters_drop(self, tmp_path):
        import pandas as pd

        # user 1: view(d0), click(d1), first purchase d2, view(d3 — after)
        # user 2: view AT its first purchase instant (excluded: strict <)
        # user 3: never purchases → contributes nothing
        events = pa.table(
            {
                "event_id": pa.array(range(1, 9), pa.int64()),
                "user_id": pa.array([1, 1, 1, 1, 2, 2, 3, 3], pa.int64()),
                "event_type": pa.array(
                    ["view", "click", "purchase", "view",
                     "view", "purchase", "view", "click"]
                ),
                "ts": _ts([0, 1, 2, 3, 5, 5, 0, 1]),
            }
        )
        _write(tmp_path, "events", events)
        got = (
            _pd(an.q_pre_purchase_views(str(tmp_path)))
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            {"event_type": ["click", "view"], "events": [1, 1], "users": [1, 1]}
        )
        pd.testing.assert_frame_equal(got[["event_type", "events", "users"]], want)
