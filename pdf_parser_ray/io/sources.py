"""Corpus sources: Lance first (the production format for interleaved
text+media corpora), Parquet for the sandbox fixtures.

Lance is the target north-star storage (fragment-parallel reads,
column projection over wide media columns); the package is not in this
container, so the Lance path gates behind an import-try and the
Parquet path carries the tests. Both return one row per document in
the ``(doc_id, spans)`` shape.
"""

from __future__ import annotations


def read_parquet_clean(path, columns: list[str] | None = None, **kwargs):
    """``read_parquet`` with a metadata-free schema.

    Parquet files written by pandas carry a schema-level ``b"pandas"``
    metadata blob; ``hash(pa.Schema)`` raises on it ("unhashable type:
    'dict'"), which defeats Ray Data's schema-deduplication fast path
    and spams "Failed to hash the schemas" warnings on every fused
    read+map task. Passing an explicit stripped schema makes every
    downstream block schema hashable. Column pruning still happens at
    the read (``columns=``), so this adds no I/O.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    # a fragmented corpus (directory of part files) takes the schema
    # of its first fragment — read_parquet itself handles the directory
    first = parquet_fragments(path if isinstance(path, str) else path[0])[0]
    sch = pq.read_schema(first)
    names = columns if columns is not None else sch.names
    clean = pa.schema([pa.field(sch.field(c).name, sch.field(c).type) for c in names])
    return rd.read_parquet(path, columns=columns, schema=clean, **kwargs)


def parquet_fragments(path: str) -> list[str]:
    """The Parquet files of a corpus path, in sorted name order: the
    file itself, or the ``.parquet`` files of a directory (at least
    one). A Lance path raises ``ImportError`` without pylance, as
    :func:`read_corpus` does, and ``NotImplementedError`` with it: its
    fragments are not Parquet files."""
    import os

    if _is_lance(path):
        raise NotImplementedError(f"{path}: slicing a Lance corpus is not implemented")
    if not os.path.isdir(path):
        return [path]
    frags = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")]
    if not frags:
        raise FileNotFoundError(f"no .parquet files in {path}")
    return frags


def _is_lance(path: str) -> bool:
    """Whether ``path`` names a Lance dataset; raises ``ImportError``
    when it does and pylance is not installed."""
    if not (path.endswith(".lance") or path.endswith("/lance")):
        return False
    try:
        import lance  # noqa: F401
    except ImportError as e:
        raise ImportError(
            "lance is not available in this environment; store the corpus "
            "as parquet or install pylance"
        ) from e
    return True


def sized_blocks(path: str, min_rows_per_block: int = 4096) -> int:
    """Block count from footer metadata: cpus×2 blocks, floored so no
    block holds fewer than ``min_rows_per_block`` rows. Small tables
    get few blocks (a groupby/sort barrier pays latency per partition,
    so over-splitting a small input is pure overhead); large tables
    cap at cpus×2 and Ray's dynamic block splitting
    (``target_max_block_size``) takes over beyond that — the cap never
    creates oversized physical blocks."""
    import pyarrow.parquet as pq
    import ray

    n_rows = pq.ParquetFile(path).metadata.num_rows
    cpu_blocks = int(ray.cluster_resources().get("CPU", 8)) * 2
    return max(8, min(cpu_blocks, (n_rows + min_rows_per_block - 1) // min_rows_per_block))


def read_corpus(path: str, columns: list[str] | None = None, override_num_blocks: int | None = None):
    """Read a span corpus from a Lance dataset or a Parquet file/dir."""
    import ray.data as rd

    cols = columns or ["doc_id", "spans"]
    if _is_lance(path):
        return rd.read_lance(path, columns=cols)
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    return rd.read_parquet(path, columns=cols, **kwargs)


def read_table_auto(path: str, columns: list[str] | None = None, **kwargs):
    """Format-dispatching table reader: Parquet (metadata-cleaned
    schema), CSV, JSON-lines, or Lance (gated on the package), chosen
    by extension — so a pipeline built against the parquet fixtures
    runs unchanged on a CSV/JSONL landing zone. Column pruning pushes
    into the scan for Parquet/Lance; for the row-oriented text formats
    (CSV/JSONL have no column projection at storage) it applies
    immediately after the read so downstream stages still see only the
    requested columns."""
    import ray.data as rd

    if path.endswith(".parquet"):
        return read_parquet_clean(path, columns=columns, **kwargs)
    if _is_lance(path):
        return rd.read_lance(path, columns=columns, **kwargs)
    if path.endswith(".csv"):
        ds = rd.read_csv(path, **kwargs)
    elif path.endswith(".json") or path.endswith(".jsonl"):
        ds = rd.read_json(path, **kwargs)
    else:
        raise ValueError(f"unsupported table format: {path}")
    return ds.select_columns(columns) if columns else ds


def write_table_auto(ds, path: str, **kwargs):
    """Format-dispatching writer twin of :func:`read_table_auto`
    (Parquet / CSV / JSON-lines directories, Lance gated)."""
    if path.endswith(".parquet"):
        return ds.write_parquet(path, **kwargs)
    if _is_lance(path):
        return ds.write_lance(path, **kwargs)
    if path.endswith(".csv"):
        return ds.write_csv(path, **kwargs)
    if path.endswith(".json") or path.endswith(".jsonl"):
        return ds.write_json(path, **kwargs)
    raise ValueError(f"unsupported table format: {path}")


def write_corpus(ds, path: str, min_rows_per_file: int | None = None):
    """Write a span corpus; Parquet in the sandbox, Lance when present."""
    if _is_lance(path):
        return ds.write_lance(path)
    kwargs = {}
    if min_rows_per_file is not None:
        kwargs["min_rows_per_file"] = min_rows_per_file
    return ds.write_parquet(path, **kwargs)


def read_table(sf_dir: str, table: str, columns: list[str] | None = None):
    """The ONE spelling of "read a fixture table with footer-sized
    blocks" — every operator module's table read routes here so block
    sizing / read cleaning changes land in one place."""
    path = f"{sf_dir}/{table}.parquet"
    return read_parquet_clean(
        path, columns=columns, override_num_blocks=sized_blocks(path)
    )
