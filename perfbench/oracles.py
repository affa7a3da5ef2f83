"""Canonical hashes of the exchange queries' DuckDB oracles.

``oracle_sql()`` on the fixed sf0.01 tables always gives the same result,
so hashes are cached in ``oracle_hashes.json`` keyed by the md5 of the
SQL text; an entry whose SQL changed is recomputed live (the
``near_dup_pairs`` oracle alone takes ~20 s). Refresh the cache with::

    python3 perfbench/oracles.py
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, "oracle_hashes.json")
SF_DIR = os.path.join(HERE, "data", "sf0.01")
QUERIES = ("market_share", "adamic_adar", "near_dup_pairs")

@functools.cache
def check_oracle():
    """``tools/check_oracle.py``: its ``canon`` hash and ``to_pandas``."""
    path = os.path.join(ROOT, "tools", "check_oracle.py")
    spec = importlib.util.spec_from_file_location("check_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_hashes(use_cache: bool = True) -> dict:
    """``{name: {"rows", "hash", "sql_md5"}}`` for each query's oracle."""
    import duckdb

    import __ray_entry__

    cache = {}
    if use_cache:
        with open(CACHE) as f:
            cache = json.load(f)
    sqls = __ray_entry__.oracle_sql()
    con = None
    out = {}
    for name in QUERIES:
        sql_md5 = hashlib.md5(sqls[name].encode()).hexdigest()
        hit = cache.get(name)
        if hit and hit["sql_md5"] == sql_md5:
            out[name] = hit
            continue
        if con is None:
            con = duckdb.connect()
            for fn in sorted(os.listdir(SF_DIR)):
                con.sql(f"CREATE VIEW {fn[:-8]} AS SELECT * FROM '{SF_DIR}/{fn}'")
        df = con.sql(sqls[name]).df()
        out[name] = {"rows": len(df), "hash": check_oracle().canon(df), "sql_md5": sql_md5}
    return out


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    with open(CACHE, "w") as f:
        json.dump(oracle_hashes(use_cache=False), f, indent=1, sort_keys=True)
        f.write("\n")
