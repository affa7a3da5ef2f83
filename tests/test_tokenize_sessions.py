"""The tokenizer actor pools finish in small sessions. Their actors used
to reserve a CPU each, and in a 1-CPU session the one actor held the
only CPU while the read task feeding it waited for one. Each query runs
in a fresh subprocess session under a deadline and must match its SQL
oracle, or, for the bigram sequence packs, an in-process replay."""

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
    from pdf_parser_ray.stages.textstats import q_pack_sequences
    from pdf_parser_ray.stages.tokenize import QUERIES
    if sys.argv[3] == "pack_sequences_bigram":
        ds = q_pack_sequences(sys.argv[1], tokenizer="bigram")
    else:
        ds = QUERIES[sys.argv[3]](sys.argv[1])
    df = ds.to_pandas()
    print(json.dumps(sorted(df[sorted(df.columns)].values.tolist())))
    ray.shutdown()
    """
)


def _session(query, cpus):
    """``query``'s rows, sorted, from a fresh subprocess session of
    ``cpus`` CPUs that must finish in 120 s."""
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
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("query", ["tokenize", "lm_doc_nll_tokens"])
def test_tokenizer_pool_finishes_in_small_sessions(query, cpus):
    import duckdb

    from pdf_parser_ray.stages.tokenize import ORACLE_SQL

    got = _session(query, cpus)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(ORACLE_SQL[query]).df()
    assert got == sorted(want[sorted(want.columns)].values.tolist())


def test_bigram_pack_pool_finishes_at_one_cpu():
    """``q_pack_sequences(tokenizer="bigram")`` counts through the same
    actor pool; its packs equal an in-process replay: each document's
    ``TokenizerActor`` count, and ``pack_id`` the exclusive prefix sum
    of the counts in doc_id order over the 512-token budget."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf_parser_ray.stages.tokenize import TokenizerActor

    got = _session("pack_sequences_bigram", 1)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).sort_by("doc_id")
    n_tokens = TokenizerActor().count_column(docs["text"].to_pylist())
    before = np.concatenate([[0], np.cumsum(n_tokens)[:-1]])
    want = [
        [int(d), int(n), int(p)]
        for d, n, p in zip(docs["doc_id"].to_pylist(), n_tokens, before // 512)
    ]
    # columns in name order: doc_id, n_tokens, pack_id
    assert got == sorted(want)
