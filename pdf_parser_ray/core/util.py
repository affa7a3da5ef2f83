"""Small shared helpers."""

from __future__ import annotations

import hashlib


# Default heap budget for a broadcast join build side: the build side
# rides inside every map task, so it must stay far below a worker's
# heap. 64 MiB ≈ 8M int64 keys — past that an exchange wins (millions
# of keys re-shipped to thousands of tasks).
BROADCAST_BUDGET_BYTES = 64 << 20


def broadcast_build_fits(
    parquet_path: str,
    bytes_per_key: int = 8,
    budget_bytes: int = BROADCAST_BUDGET_BYTES,
) -> bool:
    """Whether a build side of ``rows × bytes_per_key`` bytes fits the
    heap budget, reading only the parquet footer's row count. The
    relational joins size their build side in
    :func:`~.join.keyed_join`; this rule serves the stages whose build
    side comes from the same corpus read as the probe side."""
    import pyarrow.parquet as pq

    n_rows = pq.ParquetFile(parquet_path).metadata.num_rows
    return n_rows * bytes_per_key <= budget_bytes


# Budget for pinning a Dataset in the object store (materialize()) so
# two consumers share one upstream pass. The pin is spillable, but past
# this size recomputing the upstream for the second consumer is cheaper
# than the spill-and-reload churn of holding a corpus copy.
PIN_BUDGET_BYTES = 1 << 30


def parquet_uncompressed_bytes(parquet_path: str) -> int:
    """Footer-only estimate of a parquet file's in-memory (Arrow)
    footprint: sum of per-row-group UNcompressed byte sizes. No data
    pages touched — the same discipline as broadcast_build_fits."""
    import pyarrow.parquet as pq

    meta = pq.ParquetFile(parquet_path).metadata
    return sum(meta.row_group(g).total_byte_size for g in range(meta.num_row_groups))


def pin_fits(
    input_bytes_hint: int,
    budget_bytes: int = PIN_BUDGET_BYTES,
) -> bool:
    """Whether a two-consumer input pin (materialize) fits the budget.

    The estimate is MANDATORY (round-5 hardening): a permissive
    ``None``-pins default let a future caller silently pin a 100-TB
    corpus into the object store. Every ds-level API computes a
    footer-only upper bound (``parquet_uncompressed_bytes``, row-count
    × row-width, …) and degrades to recompute-upstream past budget."""
    if input_bytes_hint is None:
        raise TypeError(
            "pin_fits requires a byte estimate (footer-derived upper "
            "bound); a pin without one is unsafe at corpus scale"
        )
    return input_bytes_hint <= budget_bytes


def hash_bucket(value, n_buckets: int) -> int:
    """Deterministic md5-prefix bucket for an arbitrary value — never
    the process-seeded builtin ``hash``. The single definition backing
    both the resumable sink's partition routing and the coarse-bucket
    shuffles that key on strings."""
    return (
        int.from_bytes(hashlib.md5(str(value).encode()).digest()[:4], "big")
        % n_buckets
    )
