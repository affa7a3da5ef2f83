"""CLI tool analogs (S6/S9/S10): template spec, coords listing, debug
artifacts — driven through main(argv) on a tiny on-disk corpus."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.__main__ import main
from pdf_parser_ray.core.schema import DOCUMENT_SCHEMA
from pdf_parser_ray.io.synth import gen_document


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_corpus")
    ids = [f"doc-{i:08d}" for i in range(6)]
    tbl = pa.Table.from_pydict(
        {"doc_id": ids, "spans": [gen_document(x, 42) for x in ids]},
        schema=DOCUMENT_SCHEMA,
    )
    path = str(d / "corpus.parquet")
    pq.write_table(tbl, path)
    return path


class TestCliTools:
    def test_coords_lists_checkboxes(self, corpus, capsys):
        rc = main(["coords", "--corpus", corpus, "--doc", "doc-00000003", "--page", "1"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert lines and all(
            set(r) >= {"x", "y", "w", "h", "score", "status", "ref", "page"} for r in lines
        )
        assert all(r["page"] == 1 for r in lines)

    def test_template_spec_rect_filter(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "spec.json")
        rc = main(
            [
                "template", "--corpus", corpus, "--doc", "doc-00000003",
                "--page", "1", "--x", "0", "--y", "0", "--w", "5000", "--h", "5000",
                "--output", out,
            ]
        )
        assert rc == 0
        spec = json.load(open(out))
        n_all = len(spec["checkboxes"])
        assert n_all > 0 and len(spec["tokens"]) > 0
        capsys.readouterr()  # drain the "saved ..." message
        # a tiny rect must strictly shrink the capture
        rc = main(
            [
                "template", "--corpus", corpus, "--doc", "doc-00000003",
                "--page", "1", "--x", "0", "--y", "0", "--w", "10", "--h", "10",
            ]
        )
        assert rc == 0
        small = json.loads(capsys.readouterr().out)
        assert len(small["checkboxes"]) < n_all

    def test_debug_artifacts(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "dbg")
        rc = main(
            ["debug", "--corpus", corpus, "--doc", "doc-00000001", "--output", out]
        )
        assert rc == 0
        path = os.path.join(out, "doc-00000001.json")
        structured = json.load(open(path))
        assert structured["pages"], "debug record must carry pages"
        page = structured["pages"][0]
        assert "sections" in page and "responses" in page

    def test_unknown_doc_exits_nonzero(self, corpus):
        with pytest.raises(SystemExit) as e:
            main(["coords", "--corpus", corpus, "--doc", "nope"])
        assert "not found" in str(e.value)


class TestQueryCli:
    """The `query` subcommand exposes the full driver surface from
    the command line: list, print, and parquet output."""

    def test_list_names_every_registered_query(self, ray_session, capsys):
        rc = main(["query", "--list"])
        assert rc == 0
        names = capsys.readouterr().out.split()
        assert len(names) >= 120 and "pricing_summary" in names

    def test_run_and_write(self, ray_session, capsys, tmp_path):
        rc = main(["query", "pricing_summary", "--sf-dir", "/root/testdata/sf0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sum_base_cents" in out and "[6 rows]" in out

        dest = str(tmp_path / "out.parquet")
        rc = main([
            "query", "price_histogram",
            "--sf-dir", "/root/testdata/sf0.001", "--output", dest,
        ])
        assert rc == 0
        import pyarrow.parquet as pq_

        assert pq_.read_table(dest).num_rows > 0

    def test_unknown_query_is_loud(self, ray_session, capsys):
        assert main(["query", "no_such_query"]) == 2
        assert "unknown query" in capsys.readouterr().out


class TestRegressCli:
    """The `regress` subcommand seeds goldens, passes an unchanged
    corpus and fails a document whose golden differs."""

    def test_seed_pass_and_fail(self, ray_session, corpus, tmp_path, capsys):
        from pdf_parser_ray.stages.parse import extract_spans
        from pdf_parser_ray.io.synth import DEFAULT_CONFIG

        goldens = str(tmp_path / "goldens.json")
        argv = ["regress", "--corpus", corpus, "--goldens", goldens]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
            "passed": 0, "failed": 0, "seeded": 6,
        }
        with open(goldens) as f:
            seeded = json.load(f)
        doc = "doc-00000002"
        want = extract_spans(doc, gen_document(doc, 42), DEFAULT_CONFIG)
        assert seeded[doc] == [[s["kind"], s["text"], s["media_ref"], s["offset"]] for s in want]

        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
            "passed": 6, "failed": 0, "seeded": 0,
        }

        seeded[doc] = seeded[doc][:-1]
        with open(goldens, "w") as f:
            json.dump(seeded, f)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert f"[FAIL] {doc}" in out
        assert json.loads(out.splitlines()[-1]) == {"passed": 5, "failed": 1, "seeded": 0}

    def test_golden_doc_without_output_fails(self, ray_session, tmp_path, capsys):
        """A seeded document that stops producing rows (here: only its
        page spans are left) is a failure, not a silent skip."""
        ids = ["doc-00000000", "doc-00000001"]
        spans = [gen_document(d, 42) for d in ids]
        corpus = str(tmp_path / "corpus.parquet")

        def write(doc_spans):
            tbl = pa.Table.from_pydict({"doc_id": ids, "spans": doc_spans}, schema=DOCUMENT_SCHEMA)
            pq.write_table(tbl, corpus)

        argv = ["regress", "--corpus", corpus, "--goldens", str(tmp_path / "goldens.json")]
        write(spans)
        assert main(argv) == 0
        capsys.readouterr()
        write([spans[0], [s for s in spans[1] if s["kind"] == "page"]])
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert f"[MISS] {ids[1]}" in out
        assert json.loads(out.splitlines()[-1]) == {"passed": 1, "failed": 1, "seeded": 0}
