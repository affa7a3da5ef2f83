"""Event-time watermarking with late-data quarantine — the
streaming-semantics operator every windowed pipeline needs when
events arrive out of order (Flink/Beam ``withWatermark`` +
allowed-lateness routing).

The rule: a watermark trails the maximum EVENT time seen so far in
ARRIVAL order by an allowed lateness ``L``; an event whose event time
is already behind the watermark when it arrives is quarantined (in a
production topology it goes to a side output / correction table)
instead of updating closed windows. This module tallies, per tumbling
hour of EVENT time, how many events landed on time vs late and the
on-time value sum — the window-correctness audit of a streaming job.

The synthetic fixture has no arrival column (its events are perfectly
event-time ordered), so arrival time is derived deterministically as
``arrival = event_time + (event_id · 2654435761) mod 2^32`` µs — a
Knuth multiplicative-hash network delay of up to ~71.6 minutes that
both the engine and the DuckDB oracle compute exactly (documented
precondition: ids small enough that ``id · 2654435761`` fits int64;
at 10^12-row scale use the wrap-exact 64-bit splitmix already in
``stages/dedup`` instead). Real deployments replace this one
expression with their arrival/ingest timestamp column.

Scale shape — the watermark is a GLOBAL running max over arrival
order, the one genuinely sequential dependency in the family. It
distributes as a two-level prefix scan:

1. **Partials** — one pass emits, per arrival day ``arr_day``, the max
   event time (per-batch partial → ``groupby(arr_day).Max``: the
   exchange carries one row per (day, block)). Arrival days are
   contiguous ranges of arrival order, so an exclusive prefix max
   over the ≤ thousands of day rows — folded on the driver — is the
   exact carry-in watermark state at each day boundary.
2. **Scan + tally** — ``groupby(arr_day).map_groups`` sorts each
   day by ``(arrival, event_id)``, runs one vectorized
   ``np.maximum.accumulate`` seeded with the day's carry-in, flags
   lateness, and pre-aggregates to per-hour partials; a final
   ``groupby(hour)`` Sum merges them. Each event crosses the wire
   once; no stage ever holds more than one arrival day.

Reference parity: the reference engine (``/root/reference``) is a
batch PDF parser with no event-time semantics; this extends the
engine's streaming family (SURVEY.md §2.11) beyond the tumbling /
sliding / session windows it already ships.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..io.sources import read_table

_HASH_MULT = 2654435761  # Knuth multiplicative hash constant
_HASH_MOD = 1 << 32  # delay modulus: ≤ 2^32 µs ≈ 71.6 min of jitter
_LATENESS_US = 1_800_000_000  # allowed lateness: 30 minutes
_DAY_US = 86_400_000_000
_HOUR_US = 3_600_000_000
_NEG_INF = -(1 << 62)  # carry-in for the first arrival day


def _cents(arr) -> pa.Array:
    # half-away-from-zero, not np.rint: events.value is an ARBITRARY
    # double (unlike 2-decimal money), so DuckDB ROUND's .5 boundary
    # is reachable and banker's rounding would diverge from the oracle
    # (same hazard documented at relational/ops.py latest_bucket)
    v = arr.to_numpy(zero_copy_only=False) * 100.0
    return pa.array((np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64))


def _prep(batch: pa.Table) -> pa.Table:
    """event rows → (arr_day, arr, event_id, us, cents), vectorized."""
    us = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
    ids = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    arr = us + (ids * _HASH_MULT) % _HASH_MOD
    return pa.table(
        {
            "arr_day": pa.array(arr // _DAY_US, pa.int64()),
            "arr": pa.array(arr, pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
            "us": pa.array(us, pa.int64()),
            "cents": _cents(batch["value"]),
        }
    )


def q_watermark_split(sf_dir: str, lateness_us: int = _LATENESS_US):
    """Per tumbling EVENT-time hour: events accepted on time vs
    quarantined as late under a watermark trailing the running max
    event time (over arrival order) by ``lateness_us``, plus the
    on-time value sum. Output columns: ``hour_bucket, n_on_time,
    n_late, on_time_cents``."""
    import pandas as pd
    from ray.data.aggregate import Max, Sum

    ds = read_table(sf_dir, "events", ["event_id", "ts", "value"])

    # Pass 1: exact watermark carry-in at each arrival-day boundary.
    # Bounded: one row per arrival day present in the corpus.
    day_rows = (
        ds.map_batches(_prep, batch_format="pyarrow", batch_size=None)
        .groupby("arr_day")
        .aggregate(Max("us", alias_name="max_us"))
        .to_pandas()
        .sort_values("arr_day")
    )
    maxes = day_rows["max_us"].to_numpy(dtype=np.int64)
    prefix = np.concatenate(
        ([_NEG_INF], np.maximum.accumulate(maxes)[:-1])
    )  # exclusive prefix max: state BEFORE each day starts
    carry = dict(
        zip(day_rows["arr_day"].to_numpy(dtype=np.int64).tolist(), prefix.tolist())
    )

    def scan_day(g: "pd.DataFrame") -> pa.Table:
        g = g.sort_values(["arr", "event_id"], kind="mergesort")
        us = g["us"].to_numpy(dtype=np.int64)
        seed = carry[int(g["arr_day"].iloc[0])]
        # prev_max[i] = max event time seen strictly before row i
        prev_max = np.maximum.accumulate(
            np.concatenate(([seed], us[:-1]))
        )
        late = us < prev_max - lateness_us
        df = pd.DataFrame(
            {
                "hour_bucket": us // _HOUR_US,
                "on": (~late).astype(np.int64),
                "late": late.astype(np.int64),
                "cents": np.where(late, 0, g["cents"].to_numpy(dtype=np.int64)),
            }
        )
        agg = df.groupby("hour_bucket", sort=False, as_index=False).sum()
        return pa.table(
            {
                "hour_bucket": pa.array(
                    agg["hour_bucket"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "n_on_time": pa.array(agg["on"].to_numpy(dtype=np.int64), pa.int64()),
                "n_late": pa.array(agg["late"].to_numpy(dtype=np.int64), pa.int64()),
                "on_time_cents": pa.array(
                    agg["cents"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(_prep, batch_format="pyarrow", batch_size=None)
        .groupby("arr_day")
        .map_groups(scan_day, batch_format="pandas")
        .groupby("hour_bucket")
        .aggregate(
            Sum("n_on_time", alias_name="n_on_time"),
            Sum("n_late", alias_name="n_late"),
            Sum("on_time_cents", alias_name="on_time_cents"),
        )
    )


_SQL_WATERMARK = f"""
WITH e AS (SELECT event_id,
                  epoch_us(ts) AS us,
                  CAST(ROUND(value*100) AS BIGINT) AS cents,
                  epoch_us(ts) + (event_id * {_HASH_MULT}) % {_HASH_MOD} AS arr
           FROM events),
w AS (SELECT us, cents,
             MAX(us) OVER (ORDER BY arr, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS prev_max
      FROM e),
f AS (SELECT us // {_HOUR_US} AS hour_bucket,
             CASE WHEN prev_max IS NOT NULL
                       AND us < prev_max - {_LATENESS_US}
                  THEN 1 ELSE 0 END AS late,
             cents
      FROM w)
SELECT CAST(hour_bucket AS BIGINT) AS hour_bucket,
       CAST(SUM(1 - late) AS BIGINT) AS n_on_time,
       CAST(SUM(late) AS BIGINT) AS n_late,
       CAST(SUM(CASE WHEN late = 0 THEN cents ELSE 0 END) AS BIGINT)
           AS on_time_cents
FROM f
GROUP BY 1
"""


QUERIES = {"watermark_split": q_watermark_split}

ORACLE_SQL = {"watermark_split": _SQL_WATERMARK}
