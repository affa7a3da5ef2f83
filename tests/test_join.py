"""Tests of core/join.py: the keyed join's inner, semi and anti modes
down the broadcast and the exchange plan, with an empty dimension and
an empty fact, and the footer sizing that picks the plan."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.core import join

SF = "/root/testdata/sf0.001"

PLANS = pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "exchange"])
HOWS = pytest.mark.parametrize("how", ["inner", "semi", "anti"])


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    yield


def _fact():
    import ray.data

    return ray.data.from_arrow(pa.table({
        "k": pa.array(list(range(1, 65)), pa.int64()),
        "x": pa.array(list(range(64)), pa.int64()),
    }))


def _dim(tmp_path, keys=range(1, 41)):
    keys = list(keys)
    pq.write_table(pa.table({
        "dk": pa.array(keys, pa.int32()),
        "v": pa.array([f"v{i}" for i in keys]),
        "flag": pa.array([i % 2 for i in keys], pa.int64()),
    }), str(tmp_path / "dim.parquet"))
    return str(tmp_path)


def _join(fact, sf, budget, how="inner", **kw):
    cols = kw.pop("cols", ["v"] if how == "inner" else [])
    return join.keyed_join(
        fact, sf, "dim", fact_key="k", dim_key="dk", how=how, cols=cols,
        budget_bytes=budget, **kw,
    )


class TestKeyedJoin:
    @PLANS
    def test_inner_drop_and_filter_cols(self, tmp_path, budget):
        """Fact keys without a dim row drop (inner); dim rows failing
        dim_filter drop; filter_cols are readable by the predicate but
        never attached. Identical schema + rows on both plans."""
        out = _join(
            _fact(), _dim(tmp_path), budget,
            dim_filter=lambda t: t.filter(pc.equal(t["flag"], 1)),
            filter_cols=["flag"],
        ).to_pandas()
        odd = [i for i in range(1, 41) if i % 2 == 1]
        assert list(out.columns) == ["k", "x", "v"]
        assert sorted(out["k"].tolist()) == odd
        assert out.sort_values("k")["v"].tolist() == [f"v{i}" for i in odd]

    @PLANS
    def test_semi_keeps_matched_fact_rows(self, tmp_path, budget):
        """A semi join attaches nothing, and a key repeated in the table
        keeps its fact row once."""
        out = _join(_fact(), _dim(tmp_path, [*range(1, 41), 5, 5]), budget, "semi").to_pandas()
        assert list(out.columns) == ["k", "x"]
        assert sorted(out["k"].tolist()) == list(range(1, 41))

    @PLANS
    def test_anti_keeps_unmatched_fact_rows(self, tmp_path, budget):
        out = _join(
            _fact(), _dim(tmp_path), budget, "anti",
            dim_filter=lambda t: t.filter(pc.equal(t["flag"], 1)),
            filter_cols=["flag"],
        ).to_pandas()
        assert list(out.columns) == ["k", "x"]
        assert sorted(out["k"].tolist()) == [*range(2, 41, 2), *range(41, 65)]

    @PLANS
    @HOWS
    def test_empty_dimension(self, tmp_path, budget, how):
        """A table filtered empty matches nothing: inner and semi give no
        rows, anti gives every fact row."""
        out = _join(
            _fact(), _dim(tmp_path), budget, how,
            dim_filter=lambda t: t.filter(pc.equal(t["flag"], 2)),
            filter_cols=["flag"],
        ).take_all()
        assert sorted(r["k"] for r in out) == ([] if how != "anti" else list(range(1, 65)))

    @PLANS
    @HOWS
    def test_empty_fact(self, tmp_path, budget, how):
        """A fact with no rows, its schema known or not, gives no rows."""
        import ray.data

        sf = _dim(tmp_path)
        typed = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        assert _join(typed, sf, budget, how).count() == 0
        filtered = _fact().map_batches(
            lambda b: b.slice(0, 0), batch_format="pyarrow", batch_size=None
        )
        assert _join(filtered, sf, budget, how).count() == 0

    def test_mode_is_checked(self, tmp_path):
        sf = _dim(tmp_path)
        with pytest.raises(ValueError, match="one of"):
            _join(_fact(), sf, None, "outer")
        with pytest.raises(ValueError, match="attaches no columns"):
            _join(_fact(), sf, None, "semi", cols=["v"])


def test_build_size_is_arrow_width_for_fixed_columns_footer_bytes_for_others(tmp_path):
    """A fixed-width column counts rows × (width + a validity bit), as
    the reader builds it; a variable-width one its footer's
    uncompressed bytes. The footer's own size of a dictionary-encoded
    int64 column understates its Arrow size, which the build must not."""
    sf = _dim(tmp_path)
    path = f"{sf}/dim.parquet"
    meta = pq.ParquetFile(path).metadata
    footer_v = sum(
        meta.row_group(g).column(1).total_uncompressed_size for g in range(meta.num_row_groups)
    )
    assert join.build_bytes(path, ["dk"]) == (40 * 33 + 7) // 8  # int32, nullable
    assert join.build_bytes(path, ["dk", "v"]) == (40 * 33 + 7) // 8 + footer_v
    assert join.build_bytes(path, ["flag"]) == 40 * 65 // 8

    rows = 10_000
    pq.write_table(
        pa.table({"k": pa.array([i % 7 for i in range(rows)], pa.int64())}),
        str(tmp_path / "rep.parquet"),
    )
    rep = f"{tmp_path}/rep.parquet"
    footer = pq.ParquetFile(rep).metadata.row_group(0).column(0).total_uncompressed_size
    arrow = pq.read_table(rep).nbytes
    assert footer < arrow  # dictionary + RLE stay applied in the footer size
    assert join.build_bytes(rep, ["k"]) >= arrow


@pytest.mark.parametrize(
    "budget, exchanges", [(None, 0), (0, 1)], ids=["default", "zero"]
)
def test_only_none_means_the_default_budget(monkeypatch, budget, exchanges):
    """``budget_bytes=0`` forces the exchange; only ``None`` falls back
    to the 64 MiB default, under which sf0.001 broadcasts."""
    from pdf_parser_ray.relational.ops import q_customers_with_orders

    calls = []
    real = join.exchange
    monkeypatch.setattr(join, "exchange", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert q_customers_with_orders(SF, budget_bytes=budget).count() > 0
    assert len(calls) == exchanges
