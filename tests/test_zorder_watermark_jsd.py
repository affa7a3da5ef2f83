"""Unit + differential tests for the round-5 late additions:
Z-order layout stats, watermark late-event split, and pairwise
source Jensen–Shannon divergence.

Each engine result is replayed driver-side in plain pandas/numpy from
the same parquet (a mini differential oracle independent of the DuckDB
twin), so bucketing/carry logic is pinned against a global
single-threaded reference."""

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    yield


# ---------------------------------------------------------------------------
# Z-order layout
# ---------------------------------------------------------------------------


def _morton_naive(gx: int, gy: int) -> int:
    z = 0
    for i in range(16):
        z |= ((gx >> i) & 1) << (2 * i)
        z |= ((gy >> i) & 1) << (2 * i + 1)
    return z


def test_morton16_magic_equals_bit_loop():
    from pdf_parser_ray.stages.zorder import morton16

    rng = np.random.default_rng(7)
    gx = rng.integers(0, 1 << 16, size=500).astype(np.int64)
    gy = rng.integers(0, 1 << 16, size=500).astype(np.int64)
    fast = morton16(gx, gy)
    slow = np.array(
        [_morton_naive(int(a), int(b)) for a, b in zip(gx, gy)], dtype=np.int64
    )
    np.testing.assert_array_equal(fast, slow)
    # corners of the grid
    assert morton16(np.array([0]), np.array([0]))[0] == 0
    assert morton16(np.array([0xFFFF]), np.array([0xFFFF]))[0] == (1 << 32) - 1


def test_zorder_layout_matches_pandas_replay():
    from pdf_parser_ray.stages.zorder import (
        _BITS,
        _CELL_SHIFT,
        morton16,
        q_zorder_layout,
    )

    got = (
        q_zorder_layout(SF)
        .to_pandas()
        .sort_values("cell")
        .reset_index(drop=True)
        .astype(np.int64)
    )

    li = pq.read_table(
        f"{SF}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    ).to_pandas()
    pk = li["l_partkey"].to_numpy(dtype=np.int64)
    sk = li["l_suppkey"].to_numpy(dtype=np.int64)
    gx = (pk << _BITS) // (pk.max() + 1)
    gy = (sk << _BITS) // (sk.max() + 1)
    cell = morton16(gx, gy) >> _CELL_SHIFT
    want = (
        pd.DataFrame({"cell": cell, "pk": pk, "sk": sk})
        .groupby("cell")
        .agg(
            n_rows=("pk", "size"),
            min_partkey=("pk", "min"),
            max_partkey=("pk", "max"),
            min_suppkey=("sk", "min"),
            max_suppkey=("sk", "max"),
        )
        .reset_index()
        .astype(np.int64)
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["n_rows"].sum() == len(li)
    assert (got["cell"] >= 0).all() and (got["cell"] < 1 << 10).all()
    # the zone maps must be internally consistent
    assert (got["min_partkey"] <= got["max_partkey"]).all()
    assert (got["min_suppkey"] <= got["max_suppkey"]).all()


def test_zorder_cells_prune_on_both_dimensions():
    """The point of the layout: cells partition BOTH key ranges, so a
    predicate on either column prunes most cells. With a 32×32 grid
    each cell's per-dimension span must be far below the full domain
    (contrast: a sort on l_partkey alone leaves every cell's suppkey
    span at ~the full domain)."""
    from pdf_parser_ray.stages.zorder import q_zorder_layout

    got = q_zorder_layout(SF).to_pandas()
    pk_dom = got["max_partkey"].max() - got["min_partkey"].min()
    sk_dom = got["max_suppkey"].max() - got["min_suppkey"].min()
    pk_span = (got["max_partkey"] - got["min_partkey"]).mean()
    sk_span = (got["max_suppkey"] - got["min_suppkey"]).mean()
    assert pk_span < pk_dom / 4
    assert sk_span < sk_dom / 4


def test_zorder_footer_probe_and_scan_fallback(tmp_path):
    """The footer fast path must agree with the scan fallback: a
    lineitem file written WITHOUT statistics routes through the Max
    aggregate and yields the identical zone-map table."""
    import pyarrow.parquet as pqw

    from pdf_parser_ray.stages.zorder import _footer_max, q_zorder_layout

    src = f"{SF}/lineitem.parquet"
    assert _footer_max(src, ["l_partkey", "l_suppkey"]) is not None
    t = pq.read_table(src)
    bare = tmp_path / "lineitem.parquet"
    pqw.write_table(t, bare, write_statistics=False)
    assert _footer_max(str(bare), ["l_partkey", "l_suppkey"]) is None

    via_footer = (
        q_zorder_layout(SF).to_pandas().sort_values("cell").reset_index(drop=True)
    )
    via_scan = (
        q_zorder_layout(str(tmp_path))
        .to_pandas()
        .sort_values("cell")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(via_footer, via_scan)


# ---------------------------------------------------------------------------
# Watermark split
# ---------------------------------------------------------------------------


def _watermark_replay(lateness_us: int) -> pd.DataFrame:
    from pdf_parser_ray.stages.watermark import _HASH_MOD, _HASH_MULT, _HOUR_US

    t = pq.read_table(f"{SF}/events.parquet", columns=["event_id", "ts", "value"])
    us = pc.cast(t["ts"], "int64").to_numpy(zero_copy_only=False)
    ids = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    v = t["value"].to_numpy(zero_copy_only=False) * 100.0
    cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
    df = pd.DataFrame(
        {"arr": us + (ids * _HASH_MULT) % _HASH_MOD, "id": ids, "us": us,
         "cents": cents}
    ).sort_values(["arr", "id"], kind="mergesort")
    u = df["us"].to_numpy()
    prev_max = np.maximum.accumulate(np.concatenate(([-(1 << 62)], u[:-1])))
    late = u < prev_max - lateness_us
    out = pd.DataFrame(
        {
            "hour_bucket": u // _HOUR_US,
            "n_on_time": (~late).astype(np.int64),
            "n_late": late.astype(np.int64),
            "on_time_cents": np.where(late, 0, df["cents"].to_numpy()),
        }
    )
    return (
        out.groupby("hour_bucket", as_index=False)
        .sum()
        .sort_values("hour_bucket")
        .reset_index(drop=True)
        .astype(np.int64)
    )


def test_watermark_split_matches_global_replay():
    """The bucketed two-level prefix scan must equal the global
    single-threaded watermark — this pins the arrival-day carry-in
    fold (the distributed part) against the textbook definition."""
    from pdf_parser_ray.stages.watermark import q_watermark_split

    got = (
        q_watermark_split(SF)
        .to_pandas()
        .sort_values("hour_bucket")
        .reset_index(drop=True)
        .astype(np.int64)
    )
    want = _watermark_replay(1_800_000_000)
    pd.testing.assert_frame_equal(got, want)
    # both branches must actually fire on this corpus
    assert got["n_late"].sum() > 0
    assert got["n_on_time"].sum() > got["n_late"].sum()


def test_watermark_lateness_monotone():
    """A more tolerant watermark can only quarantine fewer events."""
    from pdf_parser_ray.stages.watermark import q_watermark_split

    tight = q_watermark_split(SF, lateness_us=600_000_000).to_pandas()
    loose = q_watermark_split(SF, lateness_us=3_600_000_000).to_pandas()
    assert loose["n_late"].sum() <= tight["n_late"].sum()
    assert (
        tight["n_late"].sum() + tight["n_on_time"].sum()
        == loose["n_late"].sum() + loose["n_on_time"].sum()
    )


# ---------------------------------------------------------------------------
# Source Jensen–Shannon divergence
# ---------------------------------------------------------------------------


def test_source_js_divergence_matches_replay_and_bounds():
    from pdf_parser_ray.stages.textstats import (
        lnm_micro,
        q_source_js_divergence,
    )

    got = (
        q_source_js_divergence(SF)
        .to_pandas()
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["source", "text"]
    ).to_pandas()
    cnt: dict = {}
    tot: dict = {}
    for src, text in zip(docs["source"], docs["text"]):
        for tok in text.split():
            cnt[(src, tok)] = cnt.get((src, tok), 0) + 1
            tot[src] = tot.get(src, 0) + 1
    sources = sorted(tot)
    vocab = sorted({t for _, t in cnt})
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            ta, tb = tot[a], tot[b]
            lm2 = lnm_micro(2 * ta * tb)
            sp = sq = 0
            for t in vocab:
                cp = cnt.get((a, t), 0)
                cq = cnt.get((b, t), 0)
                if cp == 0 and cq == 0:
                    continue
                larg = lnm_micro(cp * tb + cq * ta)
                if cp:
                    sp += cp * (lnm_micro(cp) - lnm_micro(ta) - larg + lm2)
                if cq:
                    sq += cq * (lnm_micro(cq) - lnm_micro(tb) - larg + lm2)
            rows.append((a, b, sp, sq, ta, tb))
    want = pd.DataFrame(
        rows,
        columns=["source_a", "source_b", "sum_p_micro", "sum_q_micro",
                 "t_a", "t_b"],
    )
    pd.testing.assert_frame_equal(
        got[want.columns].reset_index(drop=True), want
    )
    # reconstructed JSD must land in [0, ln 2] (up to micro rounding)
    jsd = (
        got["sum_p_micro"] / (2 * got["t_a"])
        + got["sum_q_micro"] / (2 * got["t_b"])
    ) / 1e6
    assert (jsd > -1e-4).all()
    assert (jsd < np.log(2) + 1e-4).all()
    assert len(got) == len(sources) * (len(sources) - 1) // 2


def test_zorder_prune_stats_replay_and_effectiveness():
    """The zone maps must actually prune: expected cells scanned for a
    uniform point predicate lands far below 10^6 ppm on BOTH
    dimensions (the multi-column payoff a single-column sort cannot
    give), and the engine fold equals a driver-side replay over the
    layout table."""
    from pdf_parser_ray.stages.zorder import (
        q_zorder_layout,
        q_zorder_prune_stats,
    )

    got = (
        q_zorder_prune_stats(SF)
        .to_pandas()
        .sort_values("dim")
        .reset_index(drop=True)
    )
    cells = q_zorder_layout(SF).to_pandas()
    li = pq.read_table(
        f"{SF}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    ).to_pandas()
    rows = []
    for dim, lo, hi, dom in (
        ("l_partkey", "min_partkey", "max_partkey", li["l_partkey"].max()),
        ("l_suppkey", "min_suppkey", "max_suppkey", li["l_suppkey"].max()),
    ):
        span = (cells[hi] - cells[lo] + 1).to_numpy(dtype=np.int64)
        cover = int((span * 1_000_000 // int(dom)).sum())
        rows.append((dim, len(cells), int(cells["n_rows"].sum()),
                     cover // len(cells)))
    want = pd.DataFrame(
        rows, columns=["dim", "n_cells", "n_rows", "expected_cells_ppm"]
    )
    got["n_cells"] = got["n_cells"].astype(np.int64)
    got["n_rows"] = got["n_rows"].astype(np.int64)
    got["expected_cells_ppm"] = got["expected_cells_ppm"].astype(np.int64)
    want = want.astype({c: np.int64 for c in want.columns if c != "dim"})
    pd.testing.assert_frame_equal(got, want)
    assert (got["expected_cells_ppm"] < 250_000).all()


