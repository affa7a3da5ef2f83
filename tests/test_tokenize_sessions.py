"""The tokenizer actor pools finish in small sessions. Their actors used
to reserve a CPU each, and in a 1-CPU session the one actor held the
only CPU while the read task feeding it waited for one. Each query runs
in a fresh subprocess session under a deadline and must match its SQL
oracle."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest
from test_media_resolve import SF  # the sf0.001 test tables (TESTDATA.md)

SCRIPT = textwrap.dedent(
    """
    import json, sys
    import ray
    ray.init(address="local", num_cpus=int(sys.argv[2]), include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd
    rd.DataContext.get_current().enable_progress_bars = False
    from pdf_parser_ray.stages.tokenize import QUERIES
    df = QUERIES[sys.argv[3]](sys.argv[1]).to_pandas()
    print(json.dumps(sorted(df[sorted(df.columns)].values.tolist())))
    ray.shutdown()
    """
)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("query", ["tokenize", "lm_doc_nll_tokens"])
def test_tokenizer_pool_finishes_in_small_sessions(query, cpus):
    import duckdb

    from pdf_parser_ray.stages.tokenize import ORACLE_SQL

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    # own process group: a stalled session's raylet and workers die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, SF, str(cpus), query],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=root, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"{query} did not finish in 120 s at {cpus} CPU")
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out.strip().splitlines()[-1])

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(ORACLE_SQL[query]).df()
    assert got == sorted(want[sorted(want.columns)].values.tolist())
