"""resolve_media_refs invariants: every ``media://`` span in the
flagship output resolves exactly once against the per-doc media
feature table, the parsed ref fields round-trip the constructors in
``core/schema.py``, and the attached features equal the decode stub's
derivations (north-star step 3: span sequences with media refs
resolved)."""

import hashlib

import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_resolve_media_refs_invariants(ray_session):
    from pdf_parser_ray.pipelines.extract import flagship
    from pdf_parser_ray.stages.media import q_resolve_media_refs

    spans = flagship(SF).to_pandas()
    media_spans = spans[spans.media_ref.str.startswith("media://")]
    got = q_resolve_media_refs(SF).to_pandas()

    # exactly one resolved row per media span — the join neither drops
    # (missing feature row) nor duplicates (non-unique feature side)
    assert len(got) == len(media_spans)
    assert got.media_ref.is_unique == media_spans.media_ref.is_unique

    # ref parse round-trips the make_*_ref constructors: checkbox refs
    # come from label spans, highlight refs from answer spans
    assert set(got.elem) == {"cb", "hl"}
    assert (got.loc[got.elem == "cb", "kind"] == "label").all()
    assert (got.loc[got.elem == "hl", "kind"] == "answer").all()
    assert (got.page >= 1).all()
    assert (got.elem_idx >= 0).all()

    # attached features equal the decode stub's text-derived values
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    docs = docs.set_index("doc_id")
    sample = got.drop_duplicates("doc_id").head(20)
    for row in sample.itertuples(index=False):
        text = docs.loc[row.doc_id, "text"]
        payload = (text or "").encode("utf-8")
        assert row.sha256 == hashlib.sha256(payload).hexdigest()
        assert row.width == len(payload) % 64 + 1
        assert row.height == len(payload) % 48 + 1
        want_type = "image" if row.doc_id % 3 else "audio"
        assert row.media_type == want_type


@pytest.mark.parametrize("cpus", [1, 2])
def test_media_dedup_finishes_in_small_sessions(cpus):
    """The decode stub's actor pool used to stall a 1- or 2-CPU
    session: its actors each held a reserved CPU while the read task
    feeding them waited for one. ``media_dedup`` must finish well
    inside the deadline at 1 and 2 CPUs and match its SQL oracle."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    import duckdb

    from pdf_parser_ray.stages.media import ORACLE_SQL

    script = textwrap.dedent(
        """
        import json, sys
        import ray
        ray.init(address="local", num_cpus=int(sys.argv[2]), include_dashboard=False,
                 logging_level="ERROR")
        import ray.data as rd
        rd.DataContext.get_current().enable_progress_bars = False
        from pdf_parser_ray.stages.media import q_media_dedup
        df = q_media_dedup(sys.argv[1]).to_pandas()
        print(json.dumps(sorted(df[["doc_id", "media_type", "sha256"]].values.tolist())))
        ray.shutdown()
        """
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    # own process group: a stalled session's raylet and workers die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", script, SF, str(cpus)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=root, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"media_dedup did not finish in 120 s at {cpus} CPU")
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out.strip().splitlines()[-1])

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(ORACLE_SQL["media_dedup"]).df()
    assert got == sorted(want[["doc_id", "media_type", "sha256"]].values.tolist())
