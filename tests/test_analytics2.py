"""Unit tests for decision-support suite part 2 (relational/analytics2.py).

Pins beyond the oracle harness:

* a randomized micro-TPC-H corpus WITH deliberate FK orphans, on which
  every query must hash-match DuckDB running its registered oracle SQL
  verbatim (semantics incl. orphan-drop, not just the driver tables);
* broadcast/fallback twins (budget_bytes=1 forces every keyed join
  to the exchange plan) produce identical results;
* the algebraic edges: Q6 strict boundaries, Q15 max ties, Q20's
  exact-5/4-mean exclusion, Q10's total tie-break under LIMIT.

The keyed join itself is tested in ``test_join.py``.
"""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.relational import analytics2 as a2

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
    return result.to_pandas()


def _ts_days(days, base="1995-01-01") -> pa.Array:
    b = np.datetime64(f"{base}T00:00:00", "us")
    return pa.array([b + np.timedelta64(int(d) * 86_400_000_000, "us") for d in days])


def _write(path, name: str, table: pa.Table) -> None:
    pq.write_table(table, str(path / f"{name}.parquet"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Randomized micro-TPC-H with FK orphans: lineitem orderkeys 1–90
    vs orders 1–80, custkeys 1–45 vs customers 1–40, partkeys 1–24 vs
    parts 1–20, suppkeys 1–14 vs suppliers 1–12. Inner joins must drop
    the orphans identically on both engines."""
    d = tmp_path_factory.mktemp("micro_tpch")
    rng = np.random.RandomState(42)
    n = 600
    names = [
        "small ring", "small bolt", "small gizmo", "red bolt", "blue bolt",
        "blue widget", "hot gear", "old gizmo", "red widget", "green fitting",
    ]
    suppkey = rng.randint(1, 15, n)
    partkey = rng.randint(1, 25, n)
    qty = rng.randint(1, 51, n).astype(np.float64)
    ship = rng.randint(0, 1400, n)
    # bias: supplier 1 (an AFRICA nation, see supplier/nation tables)
    # ships lots of 'small ring' (part 1) in 1996 so the Q20-shape
    # query has a qualifying row on this corpus
    suppkey[:40], partkey[:40], qty[:40], ship[:40] = 1, 1, 50.0, 540
    _write(d, "lineitem", pa.table({
        "l_orderkey": pa.array(rng.randint(1, 91, n), pa.int64()),
        "l_partkey": pa.array(partkey, pa.int64()),
        "l_suppkey": pa.array(suppkey, pa.int64()),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(rng.uniform(100, 90000, n), 2)),
        "l_discount": pa.array(rng.randint(0, 11, n) / 100.0),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n)),
        "l_linestatus": pa.array(rng.choice(["O", "F"], n)),
        "l_shipdate": _ts_days(ship),
    }))
    _write(d, "orders", pa.table({
        "o_orderkey": pa.array(np.arange(1, 81), pa.int64()),
        "o_custkey": pa.array(rng.randint(1, 46, 80), pa.int64()),
        "o_orderdate": _ts_days(rng.randint(0, 1300, 80)),
        "o_orderpriority": pa.array(rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], 80)),
        # wide totals: day·cents products exceed 2^31, so the crafted
        # differential exercises the revenue_trend limb reassembly
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 90000, 80), 2)),
    }))
    _write(d, "part", pa.table({
        "p_partkey": pa.array(np.arange(1, 21), pa.int64()),
        "p_name": pa.array([names[i % len(names)] for i in range(20)]),
        "p_type": pa.array(rng.choice(
            ["PROMO", "STANDARD", "ECONOMY", "SMALL", "MEDIUM", "LARGE"], 20)),
        "p_retailprice": pa.array(np.round(rng.uniform(500, 2000, 20), 2)),
    }))
    _write(d, "supplier", pa.table({
        "s_suppkey": pa.array(np.arange(1, 13), pa.int64()),
        "s_name": pa.array([f"Supplier#{i}" for i in range(1, 13)]),
        # supplier 1 → nationkey 0 (AFRICA): the Q20 bias above
        "s_nationkey": pa.array(np.arange(0, 12) % 10, pa.int64()),
    }))
    _write(d, "customer", pa.table({
        "c_custkey": pa.array(np.arange(1, 41), pa.int64()),
        "c_name": pa.array([f"Customer#{i}" for i in range(1, 41)]),
        "c_nationkey": pa.array(rng.randint(0, 10, 40), pa.int64()),
    }))
    _write(d, "nation", pa.table({
        "n_nationkey": pa.array(np.arange(0, 10), pa.int64()),
        "n_name": pa.array([f"NATION_{i}" for i in range(10)]),
        "n_regionkey": pa.array(np.arange(0, 10) % 5, pa.int64()),
    }))
    _write(d, "region", pa.table({
        "r_regionkey": pa.array(np.arange(0, 5), pa.int64()),
        "r_name": pa.array(["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]),
    }))
    return str(d)


ALL = [
    "discount_revenue",
    "nation_trade_volume",
    "market_share",
    "product_profit",
    "returned_item_revenue",
    "priority_line_mix",
    "top_supplier",
    "prolific_part_suppliers",
    "revenue_trend",
    "order_price_drift",
    "discount_qty_correlation",
    "benford_deviation",
    "order_price_ranksum",
    "priority_year_chi2",
    "discount_qty_spearman",
    "trimmed_mean_price",
    "order_price_psi",
]


class TestCraftedDifferential:
    @pytest.mark.parametrize("name", ALL)
    def test_matches_duckdb_on_crafted_corpus(self, corpus, name):
        got = _pd(a2.QUERIES[name](corpus))
        con = duckdb.connect()
        for t in ("lineitem", "orders", "part", "supplier", "customer",
                  "nation", "region"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{corpus}/{t}.parquet'")
        want = con.sql(a2.ORACLE_SQL[name]).df()
        con.close()
        assert len(got) == len(want) and len(got) > 0
        assert sorted(got.columns) == sorted(want.columns)
        assert _canon(got) == _canon(want)


class TestBroadcastFallbackTwins:
    """budget_bytes=1 forces every keyed join to the exchange plan;
    both plans must hash-match on the same input."""

    @pytest.mark.parametrize(
        "name",
        [
            "nation_trade_volume",
            "market_share",
            "product_profit",
            "returned_item_revenue",
            "top_supplier",
            "prolific_part_suppliers",
        ],
    )
    def test_twins_match(self, corpus, name):
        a = _pd(a2.QUERIES[name](corpus))
        b = _pd(a2.QUERIES[name](corpus, budget_bytes=1))
        assert sorted(a.columns) == sorted(b.columns)
        assert _canon(a) == _canon(b)


class TestDiscountRevenue:
    def test_strict_boundaries(self, tmp_path):
        """disc 5 and 7 are in, 4 and 8 out; qty 24 is out (strict <);
        1995-12-31 and 1997-01-01 ships are out."""
        _write(tmp_path, "lineitem", pa.table({
            "l_shipdate": pa.array([
                np.datetime64("1995-12-31T00:00:00", "us"),
                np.datetime64("1996-01-01T00:00:00", "us"),
                np.datetime64("1996-12-31T00:00:00", "us"),
                np.datetime64("1997-01-01T00:00:00", "us"),
                np.datetime64("1996-06-01T00:00:00", "us"),
                np.datetime64("1996-06-01T00:00:00", "us"),
                np.datetime64("1996-06-01T00:00:00", "us"),
            ]),
            "l_discount": pa.array([0.06, 0.05, 0.07, 0.06, 0.04, 0.08, 0.06]),
            "l_quantity": pa.array([10.0, 10.0, 23.0, 10.0, 10.0, 10.0, 24.0]),
            "l_extendedprice": pa.array([100.0] * 7),
        }))
        got = a2.q_discount_revenue(str(tmp_path))
        # qualifying: rows 2 (disc 5) and 3 (disc 7) → 10000·5 + 10000·7
        assert got["qualifying_lines"].iloc[0] == 2
        assert got["revenue_cents2"].iloc[0] == 10000 * 5 + 10000 * 7


class TestTopSupplier:
    def test_ties_return_every_max_supplier(self, tmp_path):
        _write(tmp_path, "lineitem", pa.table({
            "l_suppkey": pa.array([1, 2, 3], pa.int64()),
            "l_shipdate": pa.array(
                [np.datetime64("1996-02-01T00:00:00", "us")] * 3),
            "l_extendedprice": pa.array([200.0, 200.0, 100.0]),
            "l_discount": pa.array([0.0, 0.0, 0.0]),
        }))
        _write(tmp_path, "supplier", pa.table({
            "s_suppkey": pa.array([1, 2, 3], pa.int64()),
            "s_name": pa.array(["Supplier#1", "Supplier#2", "Supplier#3"]),
        }))
        got = _pd(a2.q_top_supplier(str(tmp_path))).sort_values(
            "s_suppkey").reset_index(drop=True)
        assert got["s_suppkey"].tolist() == [1, 2]
        assert got["total_revenue_cents2"].tolist() == [2000000, 2000000]


class TestProlificSuppliers:
    def test_exact_five_fourths_mean_is_excluded(self, tmp_path):
        """qty 25, 26, 9 → total 60, n 3, 5/4·mean = 25: the supplier
        at exactly 25 fails the strict >, 26 qualifies."""
        _write(tmp_path, "lineitem", pa.table({
            "l_partkey": pa.array([1, 1, 1], pa.int64()),
            "l_suppkey": pa.array([1, 2, 3], pa.int64()),
            "l_shipdate": pa.array(
                [np.datetime64("1996-06-01T00:00:00", "us")] * 3),
            "l_quantity": pa.array([25.0, 26.0, 9.0]),
        }))
        _write(tmp_path, "part", pa.table({
            "p_partkey": pa.array([1], pa.int64()),
            "p_name": pa.array(["small bolt"]),
        }))
        _write(tmp_path, "supplier", pa.table({
            "s_suppkey": pa.array([1, 2, 3], pa.int64()),
            "s_name": pa.array(["Supplier#1", "Supplier#2", "Supplier#3"]),
            "s_nationkey": pa.array([0, 0, 0], pa.int64()),
        }))
        _write(tmp_path, "nation", pa.table({
            "n_nationkey": pa.array([0], pa.int64()),
            "n_name": pa.array(["NATION_0"]),
            "n_regionkey": pa.array([0], pa.int64()),
        }))
        _write(tmp_path, "region", pa.table({
            "r_regionkey": pa.array([0], pa.int64()),
            "r_name": pa.array(["AFRICA"]),
        }))
        got = _pd(a2.q_prolific_part_suppliers(str(tmp_path)))
        assert got["s_suppkey"].tolist() == [2]
        assert got["shipped_qty"].tolist() == [26]


class TestReturnedItemRevenue:
    def test_limit_tiebreak_is_total(self, corpus):
        """k=1 must pick the lexicographically-first (revenue DESC,
        custkey ASC) row of the k=20 result — the tie-break is total,
        so the prefix property holds on any corpus."""
        full = _pd(a2.q_returned_item_revenue(corpus, k=20))
        one = _pd(a2.q_returned_item_revenue(corpus, k=1))
        ordered = full.sort_values(
            ["revenue_cents2", "c_custkey"], ascending=[False, True]
        ).reset_index(drop=True)
        assert len(one) == 1
        assert one.iloc[0]["c_custkey"] == ordered.iloc[0]["c_custkey"]
        assert one.iloc[0]["revenue_cents2"] == ordered.iloc[0]["revenue_cents2"]


class TestBucketJoin:
    """Two-sided inner joins through ``core.exchange.exchange``: the
    fold merges the two side tables on their keys as ``key``."""

    @staticmethod
    def _join(left, right, post):
        from pdf_parser_ray.core.exchange import exchange

        def fold(lt, rt):
            lhs = lt.to_pandas().rename(columns={"k": "key"})
            rhs = rt.to_pandas().rename(columns={"rk": "key"})
            return post(lhs.merge(rhs, on="key", how="inner"))

        return exchange([(left, "k"), (right, "rk")], fold)

    def _sides(self):
        import ray.data

        left = ray.data.from_arrow(pa.table({
            "k": pa.array(list(range(1, 65)), pa.int64()),
            "a": pa.array([i * 10 for i in range(1, 65)], pa.int64()),
        }))
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array(list(range(2, 81, 2)), pa.int64()),
            "s": pa.array([f"s{i}" for i in range(2, 81, 2)]),
        }))
        return left, right

    def test_inner_join_and_fill_isolation(self):
        """Inner semantics; no opposite-side fill value (0 for ints,
        null for strings) reaches the joined frame — each side table
        carries only its own columns."""
        left, right = self._sides()

        def post(j):
            # post receives the unified "key" column + both payloads
            assert not j["s"].isna().any()        # no null fill leaked
            assert (j["a"] % 10 == 0).all() and (j["a"] > 0).all()
            return pa.table({
                "k": pa.array(j["key"].to_numpy(dtype=np.int64)),
                "a": pa.array(j["a"].to_numpy(dtype=np.int64)),
                "s": pa.array(j["s"].tolist(), pa.string()),
            })

        out = self._join(left, right, post).to_pandas().sort_values("k").reset_index(drop=True)
        want = [k for k in range(2, 65, 2)]
        assert out["k"].tolist() == want
        assert out["a"].tolist() == [k * 10 for k in want]
        assert out["s"].tolist() == [f"s{k}" for k in want]

    def test_sparse_keys_keep_schema(self):
        """Keys hitting only 2 of 32 buckets: every other bucket's post
        runs on an empty frame and must still emit its columns."""
        import ray.data

        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2] * 20, pa.int64()),
            "a": pa.array(list(range(40)), pa.int64()),
        }))
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array([1, 2], pa.int64()),
            "b": pa.array([100, 200], pa.int64()),
        }))

        def post(j):
            g = j.groupby("key", sort=False)[["a", "b"]].sum().reset_index()
            return pa.table({
                "k": pa.array(g["key"].to_numpy(dtype=np.int64)),
                "a": pa.array(g["a"].to_numpy(dtype=np.int64)),
                "b": pa.array(g["b"].to_numpy(dtype=np.int64)),
            })

        out = self._join(left, right, post).to_pandas().sort_values("k").reset_index(drop=True)
        assert out["k"].tolist() == [1, 2]
        assert out["a"].tolist() == [sum(range(0, 40, 2)), sum(range(1, 40, 2))]
        assert out["b"].tolist() == [100 * 20, 200 * 20]


class TestEmptyExchangeSide:
    """A query parameter that filters one side of an exchange empty
    everywhere gives the query's result, not an error: the fold still
    gets that side's columns. The join plan (``budget_bytes=1``) must
    agree with the broadcast plan."""

    def test_product_profit_with_no_matching_part(self):
        assert _pd(a2.q_product_profit(SF, token="zz-no-part")).empty

    def test_product_profit_with_no_matching_part_on_the_exchange_plan(self):
        # the part attach's exchange filters every bucket empty, so the
        # supplier attach gets a fact side with no rows
        assert _pd(a2.q_product_profit(SF, token="zz-no-part", budget_bytes=1)).empty

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("top_revenue_orders", {"segment": "NONE"}),
            ("top_revenue_orders", {"cutoff": "1900-01-01"}),
            ("order_event_reconcile", {"segment": "NONE"}),
            ("idle_rich_customers", {"min_order_total": 1e15}),
        ],
    )
    def test_hash_join_plan_matches_broadcast(self, name, kwargs):
        from pdf_parser_ray.relational import analytics, ops

        q = {**ops.QUERIES, **analytics.QUERIES}[name]
        a = _pd(q(SF, **kwargs))
        b = _pd(q(SF, budget_bytes=1, **kwargs))
        assert len(a) == len(b)
        if len(a):
            assert _canon(a) == _canon(b)


class TestDegenerateStatGuards:
    """Round-5 hardening: the drift/ranksum SQL oracles must mirror the
    engine's empty-sample guards (a corpus where every order shares one
    priority class yields n_b = 0 — division guards on BOTH sides), and
    benford must agree when zero-magnitude totals exist (both sides
    restrict to cents > 0, so digit '0' never appears and N matches)."""

    @pytest.fixture(scope="class")
    def degenerate(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("degenerate_sf")
        _write(d, "orders", pa.table({
            "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
            # all expedited: sample B (the rest) is empty
            "o_orderpriority": pa.array(["1-URGENT", "2-HIGH"] * 2),
            # one zero total exercises the benford cents>0 guard
            "o_totalprice": pa.array([0.00, 123.45, 67.89, 123.45]),
            "o_orderdate": _ts_days([0, 40, 400, 440]),
        }))
        return d

    @pytest.mark.parametrize(
        "name",
        [
            "order_price_drift",
            "order_price_ranksum",
            "benford_deviation",
            "order_price_psi",
        ],
    )
    def test_engine_matches_oracle_on_degenerate_corpus(self, degenerate, name):
        got = _pd(a2.QUERIES[name](str(degenerate)))
        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW orders AS SELECT * FROM '{degenerate}/orders.parquet'"
        )
        want = con.sql(a2.ORACLE_SQL[name]).df()
        con.close()
        assert len(got) == len(want)
        assert sorted(got.columns) == sorted(want.columns)
        assert _canon(got) == _canon(want)

    def test_chi2_micro_is_classic_chi2(self, degenerate):
        """The renamed chi2_micro column must equal SciPy-free classic
        chi-square x 1e6 (sum of floors) computed independently."""
        got = _pd(a2.QUERIES["priority_year_chi2"](str(degenerate)))
        # crafted corpus: pri x year counts
        # 1995: URGENT 1 (zero-total row still counts for chi2), HIGH 1
        # 1996: URGENT 1, HIGH 1  -> perfectly independent, chi2 = 0
        assert int(got["chi2_micro"][0]) == 0
        assert int(got["dof"][0]) == 1
