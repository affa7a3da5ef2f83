"""Global order-statistics materialization — a dense global rank for
EVERY row, not a top-k cut.

``SELECT row_number() OVER (ORDER BY …)`` is trivial on one machine
and the canonical two-level-scan exercise on a cluster: corpus-scale
curation pipelines need it whenever a GLOBAL quantile cut ("keep the
best 10% by score") must be materialized per row rather than
approximated. The same structure backs the engine's watermark carry
(`stages/watermark.py`) — there the fold is a prefix max, here a
prefix sum.

Scale shape (orders ranked by ``(o_totalprice DESC, o_orderkey)``):

1. **Bucket histogram** — one pass emits per-batch counts per
   value-range bucket (the bucket is a pure function of the value, so
   partials merge with one tiny ``groupby(bucket)`` Sum — the
   exchange carries ``buckets × blocks`` rows). The driver folds the
   exclusive prefix sum: each bucket's global rank offset.
2. **Rank read-off** — one ``exchange`` on the bucket sorts each
   bucket vectorized and adds its offset. Every row crosses the wire
   once; no task holds more than one bucket (value-skewed buckets are
   split by widening B, same knob as every range exchange here).

Domain bounds come from the Parquet footer statistics (exact for
numerics; scan fallback shared with `stages/zorder.py`), so bucket
boundaries cost no data pass.

Reference parity: the reference engine (``/root/reference``) sorts
single-process Python lists (e.g. `section_detector.py` ordering
candidates); this is the distributed materialization of that ordering
contract (SURVEY.md §2 O1–O4 family, engine-scale extension).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.exchange import exchange
from ..io.sources import read_table

_B = 256  # value-range buckets; widen at scale to bound bucket size


def q_global_rank(sf_dir: str, n_buckets: int = _B):
    """Dense global rank (1-based) of every order by
    ``(o_totalprice DESC, o_orderkey ASC)`` plus its exact percentile
    in ppm — the materialized form of a global quantile cut. Output:
    ``o_orderkey, cents, rank, pct_ppm`` with
    ``pct_ppm = rank · 10⁶ // n_total`` (integer division on
    positives, identical in numpy and DuckDB)."""
    from ray.data.aggregate import Sum

    from ..stages.zorder import _footer_max

    ds = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    stats = _footer_max(f"{sf_dir}/orders.parquet", ["o_totalprice"])
    if stats is not None:
        # ceil: the double footer max times 100 must never UNDERSTATE
        # the true max cents, or top rows fall off the bucket range
        import math

        max_cents = int(math.ceil(stats[0] * 100))
    else:  # pragma: no cover - fixture footers always carry stats
        max_cents = int(round(float(ds.max("o_totalprice")) * 100))

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        # descending-value buckets: bucket 0 holds the largest cents,
        # so bucket order IS global rank order. A bucket below
        # n_buckets is its own exchange bucket; one outside would share
        # a fold with another and take the wrong offset
        bucket = ((max_cents - cents) * n_buckets) // (max_cents + 1)
        if len(bucket) and (bucket.min() < 0 or bucket.max() >= n_buckets):
            raise ValueError("global rank: a total lies outside the footer's value range")
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "o_orderkey": batch["o_orderkey"],
                "cents": pa.array(cents, pa.int64()),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)

    def bucket_counts(b: pa.Table) -> pa.Table:
        vals, counts = np.unique(
            b["bucket"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "bucket": pa.array(vals.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        prepped.map_batches(
            bucket_counts, batch_format="pyarrow", batch_size=None
        )
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: ≤ n_buckets rows
        .sort_values("bucket")
    )
    counts = hist["n"].to_numpy(dtype=np.int64)
    n_total = int(counts.sum())
    offsets = dict(
        zip(
            hist["bucket"].to_numpy(dtype=np.int64).tolist(),
            np.concatenate(([0], np.cumsum(counts)[:-1])).tolist(),
        )
    )

    def rank_bucket(g: pa.Table) -> pa.Table:
        g = g.to_pandas()
        g = g.sort_values(
            ["cents", "o_orderkey"], ascending=[False, True], kind="mergesort"
        )
        off = offsets[int(g["bucket"].iloc[0])]
        rank = off + 1 + np.arange(len(g), dtype=np.int64)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    g["o_orderkey"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "cents": pa.array(g["cents"].to_numpy(dtype=np.int64), pa.int64()),
                "rank": pa.array(rank, pa.int64()),
                "pct_ppm": pa.array(rank * 1_000_000 // n_total, pa.int64()),
            }
        )

    return exchange([(prepped, "bucket")], rank_bucket, n_buckets=n_buckets)


_SQL_GLOBAL_RANK = """
WITH r AS (SELECT o_orderkey,
                  CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents,
                  row_number() OVER (
                      ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC,
                               o_orderkey
                  ) AS rank,
                  COUNT(*) OVER () AS n
           FROM orders)
SELECT o_orderkey, cents, CAST(rank AS BIGINT) AS rank,
       CAST(rank * 1000000 // n AS BIGINT) AS pct_ppm
FROM r
"""


QUERIES = {"global_rank": q_global_rank}

ORACLE_SQL = {"global_rank": _SQL_GLOBAL_RANK}
