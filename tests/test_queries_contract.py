"""Driver-contract smoke: every ``queries()`` entry runs at sf0.001,
returns rows, and keeps its schema — the empty-result trap (a Ray
Dataset with zero rows loses its column schema and can no longer match
its oracle) is guarded here for every operator at once."""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    yield


def _to_pandas(result):
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()


def test_every_query_returns_rows_and_schema():
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    queries = e.queries()
    oracles = e.oracle_sql()
    # lock the round-5 coverage floor: 220 queries, ≥215 oracled —
    # a registration regression (lost import, dropped dict entry)
    # must fail loudly here, not silently shrink the driver surface
    assert len(queries) >= 220
    assert len(oracles) >= 215
    # every oracle key must have a query
    assert set(oracles) <= set(queries)
    failures = []
    for name, fn in queries.items():
        try:
            df = _to_pandas(fn(SF))
        except Exception as exc:  # pragma: no cover
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        if len(df) == 0:
            failures.append(f"{name}: empty result (schema would be lost)")
        if len(df.columns) == 0:
            failures.append(f"{name}: no columns")
    assert not failures, "\n".join(failures)


def test_flagship_matches_frozen_fixture():
    """Cross-session determinism pin for the fixture-oracle scheme
    (pipelines/extract.py ORACLE_SQL): regenerating the flagship at
    sf0.001 must reproduce the committed fixture bit-for-bit. If this
    fails, the kernels drifted — re-validate the 40-doc golden BEFORE
    regenerating any fixture with tools/freeze_extract_fixture.py."""
    import os

    import pyarrow.parquet as pq

    from pdf_parser_ray.pipelines.extract import flagship

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "extract_spans_sf0.001.parquet"
    )
    want = pq.read_table(fixture).to_pandas()
    got = (
        flagship(SF)
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


def test_cli_extract_matches_registered_query(tmp_path):
    """The ``extract`` CLI over the span table that
    ``corpus_from_documents`` writes at sf0.001 reproduces the
    registered ``extract_spans`` query's committed fixture: the CLI and
    the query are one plan over one source."""
    import contextlib
    import io
    import os

    import pyarrow.parquet as pq

    from pdf_parser_ray.__main__ import main
    from pdf_parser_ray.io.checkpoint import read_output
    from pdf_parser_ray.io.sources import write_corpus
    from pdf_parser_ray.pipelines.extract import corpus_from_documents

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "out")
    write_corpus(corpus_from_documents(SF), corpus)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", "--input", corpus, "--output", out]) == 0

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "extract_spans_sf0.001.parquet"
    )
    want = pq.read_table(fixture).to_pandas()
    got = (
        read_output(out)
        .to_pandas()[list(want.columns)]
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


def test_package_reads_no_graft_environment_variable():
    """No module under ``pdf_parser_ray/`` reads a ``GRAFT_*``
    environment variable: the plan is chosen by code, not by an A/B
    knob. Deployment settings (``RAY_ADDRESS``) stay allowed. Reads
    are found by syntax — ``environ[...]``, ``environ.get/pop/
    setdefault(...)``, ``getenv(...)``, ``... in environ`` — and each
    must name its variable with a string literal, so none escapes."""
    import ast
    import pathlib

    import pdf_parser_ray

    def is_environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
            isinstance(node, ast.Name) and node.id == "environ"
        )

    def env_names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and is_environ(node.value):
                yield node.slice
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in ("get", "pop", "setdefault")
                    and is_environ(f.value)
                ) or getattr(f, "attr", getattr(f, "id", None)) == "getenv":
                    yield node.args[0] if node.args else None
            elif isinstance(node, ast.Compare) and any(
                is_environ(c) for c in node.comparators
            ):
                yield node.left

    root = pathlib.Path(pdf_parser_ray.__file__).parent
    reads = [
        (str(path.relative_to(root)), getattr(name, "value", None))
        for path in sorted(root.rglob("*.py"))
        for name in env_names(ast.parse(path.read_text()))
    ]
    assert ("__main__.py", "RAY_ADDRESS") in reads  # the scan sees reads
    assert all(isinstance(n, str) for _, n in reads), reads
    assert [r for r in reads if r[1].startswith("GRAFT_")] == []


def test_guarded_fixture_oracle_selects_per_sf(tmp_path):
    """The extract oracle is one self-gating SQL string: whichever sf's
    ``documents`` view is registered, the guarded UNION selects exactly
    that sf's committed fixture; an unknown corpus matches no branch
    (zero rows — loud, never a silent wrong-corpus compare). ADVICE r3
    medium."""
    import os

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parser_ray.pipelines.extract import (
        ORACLE_SQL,
        fixture_manifest,
        fixture_tag_for,
    )

    manifest = fixture_manifest()
    assert set(manifest) >= {"sf0.001", "sf0.01", "sf0.1"}
    # signatures are unique — the guard of one sf can never match another
    sigs = [(m["n_docs"], m["sum_len_text"]) for m in manifest.values()]
    assert len(set(sigs)) == len(sigs)

    fixdir = os.path.join(os.path.dirname(__file__), "fixtures")
    for tag in ("sf0.001", "sf0.01"):
        sf_dir = f"/root/testdata/{tag}"
        assert fixture_tag_for(sf_dir) == tag
        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'"
        )
        n = con.sql(ORACLE_SQL["extract_spans"]).df().shape[0]
        want = pq.ParquetFile(
            os.path.join(fixdir, manifest[tag]["fixture"])
        ).metadata.num_rows
        assert n == want
        con.close()

    # unknown corpus: no manifest tag, no branch fires
    unknown = pa.table({"doc_id": [1, 2], "text": ["a", "bb"]})
    pq.write_table(unknown, str(tmp_path / "documents.parquet"))
    assert fixture_tag_for(str(tmp_path)) is None
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    assert con.sql(ORACLE_SQL["extract_spans"]).df().shape[0] == 0
    con.close()


def test_correctness_artifact_covers_full_registry():
    """Round-5 CI gate (VERDICT r4 item 8): the committed full-surface
    correctness artifact must cover EXACTLY the registry — a new
    operator cannot land without refreshed evidence, and a stale
    artifact entry cannot survive an operator's removal. The newest
    CORRECTNESS_local_r*.json (non-sf01 twin) is the one checked."""
    import glob
    import json
    import re
    import sys

    sys.path.insert(0, "/root/repo")
    from pdf_parser_ray.registry import all_queries

    arts = {
        int(re.search(r"_r(\d+)\.json$", p).group(1)): p
        for p in glob.glob("/root/repo/CORRECTNESS_local_r*.json")
        if re.search(r"_r(\d+)\.json$", p)
    }
    assert arts, "no committed full-surface correctness artifact"
    newest = arts[max(arts)]
    with open(newest) as f:
        artifact = set(json.load(f))
    registry = set(all_queries())
    assert artifact == registry, (
        f"{newest} out of sync with registry: "
        f"missing={sorted(registry - artifact)} "
        f"stale={sorted(artifact - registry)}"
    )
