"""The benchmark's Ray driver: one process per Ray session.

``run.py`` starts this as a child process, sends it one JSON command per
line on stdin and reads one JSON reply per line. The child owns the Ray
session (``ray.init`` with the CPUs the parent names), so the parent can
meter the whole session from ``/proc`` and kill it when an operation
misses its deadline. Everything the program prints goes to stderr; replies use
the original stdout descriptor only.

Operations go through the program's public entry points: the
``extract`` CLI command (``pdf_parser_ray.__main__.main``) and the
driver query surface (``__ray_entry__.queries()`` / ``oracle_sql()``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import time

OUT_COLS = ["doc_id", "kind", "text", "media_ref", "offset"]
PARTITIONS = 16  # extract --partitions
FIXTURE_SEED = 42  # the corpus seed tools/freeze_extract_fixture.py freezes


class Driver:
    def __init__(self, args):
        self.root, self.work = args.root, args.work
        self.count_dir = os.path.join(self.work, "parsed")
        self.fold_ref = {}  # corpus path -> in-process fold table
        import ray

        runtime_env = None
        if args.trace:
            os.makedirs(self.count_dir, exist_ok=True)
            os.environ["PERFBENCH_COUNT_DIR"] = self.count_dir
            runtime_env = {"worker_process_setup_hook": "perfbench.hooks.count_parsed_docs"}
        ray.init(
            address="local",
            num_cpus=args.cpus,
            object_store_memory=512 * 1024 * 1024,
            include_dashboard=False,
            logging_level="ERROR",
            _temp_dir=args.ray_tmp,
            runtime_env=runtime_env,
        )
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        # start a worker and load Ray Data in it before anything is timed
        rd.range(8, override_num_blocks=1).map_batches(lambda b: b).count()
        self.cpus = int(ray.cluster_resources().get("CPU", 0))

    # ---- operations -------------------------------------------------

    def op_corpus(self, documents_dir, seed, out):
        """Writes the span corpus of ``documents_dir`` at ``seed``. The
        reply names the frozen fixture its extraction must equal, if
        one applies: ``fixture_tag_for`` matches the documents table
        against a committed corpus signature, and the seed is the
        frozen one."""
        from pdf_parser_ray.io.sources import write_corpus
        from pdf_parser_ray.pipelines.extract import (
            corpus_from_documents,
            fixture_manifest,
            fixture_tag_for,
        )

        shutil.rmtree(out, ignore_errors=True)
        write_corpus(corpus_from_documents(documents_dir, seed), out)
        tag = fixture_tag_for(documents_dir) if seed == FIXTURE_SEED else None
        return {
            "docs": _read_parquet_dir(out, ["doc_id"]).num_rows,
            "fixture": fixture_manifest()[tag]["fixture"] if tag else None,
        }

    def op_extract(self, input, output, count=False):
        """``python -m pdf_parser_ray extract`` in this session."""
        from pdf_parser_ray.__main__ import main

        if count:
            shutil.rmtree(self.count_dir, ignore_errors=True)
            os.makedirs(self.count_dir)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["extract", "--input", input, "--output", output,
                       "--partitions", str(PARTITIONS)])
        if rc != 0:
            raise RuntimeError(f"extract exited {rc}")
        reply = {"summary": json.loads(buf.getvalue().strip().splitlines()[-1])}
        if count:
            from perfbench.hooks import parsed_docs

            reply["parsed_docs"] = parsed_docs(self.count_dir)
        return reply

    def op_query(self, name, sf_dir, stats=False):
        import __ray_entry__

        result = __ray_entry__.queries()[name](sf_dir)
        reply = {}
        if stats and hasattr(result, "materialize"):
            result = result.materialize()
            reply["op_stats"] = _op_stats(result._get_stats_summary())
        from perfbench.oracles import check_oracle

        df = check_oracle().to_pandas(result)
        reply.update(rows=len(df), hash=check_oracle().canon(df))
        return reply

    def op_oracle(self):
        from perfbench.oracles import oracle_hashes

        return oracle_hashes()

    def op_check_extract(self, output, corpus, fixture):
        """Output read back from the sink vs the frozen fixture (when
        ``fixture`` names one) or the in-process fold of ``corpus``,
        document by document."""
        import pyarrow.parquet as pq

        if fixture:
            ref = pq.read_table(os.path.join(self.root, "tests", "fixtures", fixture))
        else:
            ref = self.fold_ref.get(corpus)
            if ref is None:
                ref = self.fold_ref[corpus] = _fold(corpus)
        return {"bad_docs": _bad_docs(_read_output(output), ref)}

    def op_check_resume(self, output, full_output):
        """A resumed directory must hold every partition once, carry
        ``_manifest.json`` and equal the full run's output."""
        names = os.listdir(output)
        parts = sorted(n for n in names if n.startswith("part="))
        problems = []
        if parts != [f"part={i:05d}" for i in range(PARTITIONS)]:
            problems.append(f"partitions {parts}")
        if "_manifest.json" not in names:
            problems.append("no _manifest.json")
        stray = [n for n in names if n.startswith(".tmp")]
        if stray:
            problems.append(f"leftover {stray}")
        bad = _bad_docs(_read_output(output), _read_output(full_output))
        return {"bad_docs": bad, "problems": problems}

    def op_trace_extract(self, input, output, traced=True):
        """The CLI's three stages called one at a time, each materialized:
        read, parse, sink. With ``traced`` each runs inside its own span;
        without, the same calls run bare."""
        from pdf_parser_ray.io.checkpoint import resumable_write
        from pdf_parser_ray.io.sources import read_corpus
        from pdf_parser_ray.pipelines.extract import extract_pipeline

        from perfbench.trace import Spans

        spans = Spans()
        span = spans.span if traced else lambda name: contextlib.nullcontext()
        with span("read"):
            ds = read_corpus(input).materialize()
        rows_in = ds.count()
        with span("parse"):
            parsed = extract_pipeline(ds).materialize()
        rows_out = parsed.count()
        with span("sink"):
            summary = resumable_write(parsed, output, n_partitions=PARTITIONS)
        n_rows = []
        for p in summary["written"]:
            with open(os.path.join(output, f"part={p:05d}", "manifest.json")) as f:
                n_rows.append(json.load(f)["n_rows"])
        written = sum(
            os.path.getsize(os.path.join(output, f"part={p:05d}", "data.parquet"))
            for p in summary["written"]
        )
        return {
            "spans": spans.spans,
            "read_rows": rows_in,
            "parse_rows": rows_out,
            "sink_partitions": len(summary["written"]),
            "sink_bytes": written,
            "sink_rows_max_over_mean": max(n_rows) / (sum(n_rows) / len(n_rows)),
        }

    def op_trace_kernels(self, corpus):
        """The corpus through ``DocumentExtractor()(batch)`` in this
        process, each batch twice: bare, and with the kernel names
        replaced by timing wrappers. The bare pass gives the parse's CPU
        and wall without the wrappers."""
        from perfbench.trace import KernelTrace
        from pdf_parser_ray.kernels import document, labels, questions, sections
        from pdf_parser_ray.stages import parse

        kt = KernelTrace()
        kt.patch(parse, "decode_spans", "decode", count=len)
        kt.patch(parse, "classify_form_type", "classify")
        kt.patch(parse, "extract_document", "fold")
        kt.patch(parse, "flatten_to_spans", "flatten")
        for attr, layer in [
            ("group_lines", "fold.lines"),
            ("get_label_positions", "fold.labels"),
            ("detect_section_regions", "fold.sections"),
            ("assign_checkboxes_sectionwise", "fold.assign"),
            ("match_sections_and_questions", "fold.questions"),
            ("augment_answers", "fold.answers"),
        ]:
            kt.patch(document, attr, layer)
        for mod in (questions, labels, sections):
            kt.patch(mod, "group_lines", f"lines@{mod.__name__.rsplit('.', 1)[-1]}")
        _fold(corpus)  # warm-up
        table, docs, passes = _fold_paired(corpus, kt)
        self.fold_ref[corpus] = table
        return {
            "docs": docs,
            "pages": kt.counts["decode"],
            "out_spans": table.num_rows,
            **passes,
            "total": dict(kt.total),
            "self": dict(kt.self_time),
            "calls": dict(kt.calls),
        }

    def op_quit(self):
        import ray

        ray.shutdown()
        return {}


# ---- helpers --------------------------------------------------------


def _read_parquet_dir(path, columns=None):
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    return pa.concat_tables(pq.read_table(os.path.join(path, f), columns=columns) for f in files)


def _read_output(out_dir):
    import pyarrow as pa
    import pyarrow.parquet as pq

    parts = sorted(n for n in os.listdir(out_dir) if n.startswith("part="))
    return pa.concat_tables(
        pq.read_table(os.path.join(out_dir, p, "data.parquet"), columns=OUT_COLS)
        .replace_schema_metadata(None)
        for p in parts
    )


def _bad_docs(got, ref) -> int:
    """Documents whose span sequence in ``got`` differs from ``ref``
    (missing and unexpected documents included)."""
    got, ref = _sorted_spans(got), _sorted_spans(ref)
    if got.equals(ref):
        return 0

    def by_doc(table):
        seqs: dict = {}
        for row in zip(*(table.column(c).to_pylist() for c in OUT_COLS)):
            seqs.setdefault(row[0], []).append(row)
        return seqs

    g, r = by_doc(got), by_doc(ref)
    return sum(g.get(d) != r.get(d) for d in set(g) | set(r))


def _sorted_spans(table):
    """Rows ordered by (doc_id, offset): equality of two such tables is
    span-sequence equality for every document."""
    import pyarrow as pa

    schema = pa.schema(
        [("doc_id", pa.string()), ("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    table = table.select(OUT_COLS).replace_schema_metadata(None).cast(schema)
    return table.sort_by([("doc_id", "ascending"), ("offset", "ascending")]).combine_chunks()


def _batches(corpus):
    """``corpus``'s ``(doc_id, spans)`` table in 32-row batches, as the
    pipeline feeds the parse, and its row count."""
    table = _read_parquet_dir(corpus, ["doc_id", "spans"])
    return [table.slice(i, 32) for i in range(0, table.num_rows, 32)], table.num_rows


def _fold(corpus):
    """Every document of ``corpus`` through ``DocumentExtractor()`` in
    this process: the output table."""
    import pyarrow as pa

    from pdf_parser_ray.stages.parse import DocumentExtractor

    extractor = DocumentExtractor()
    return pa.concat_tables([extractor(b) for b in _batches(corpus)[0]])


def _fold_paired(corpus, kernel_trace):
    """:func:`_fold` with each batch parsed twice, bare and with
    ``kernel_trace``'s wrappers on, in alternating order so that drifts
    in the machine's speed fall on both passes alike. Returns the table
    (both passes must agree), the document count and each pass's CPU
    and wall seconds; the traced pass is charged to layer ``parse``."""
    import pyarrow as pa

    from pdf_parser_ray.stages.parse import DocumentExtractor

    batches, docs = _batches(corpus)
    calls = {"bare": DocumentExtractor(),
             "traced": kernel_trace.timed("parse", DocumentExtractor())}
    cpu = dict.fromkeys(calls, 0.0)
    wall = dict.fromkeys(calls, 0.0)
    out = {k: [] for k in calls}
    for i, batch in enumerate(batches):
        for k in ("bare", "traced") if i % 2 == 0 else ("traced", "bare"):
            with kernel_trace.active() if k == "traced" else contextlib.nullcontext():
                t0, w0 = time.thread_time(), time.perf_counter()
                out[k].append(calls[k](batch))
                cpu[k] += time.thread_time() - t0
                wall[k] += time.perf_counter() - w0
    table = pa.concat_tables(out["traced"])
    if not table.equals(pa.concat_tables(out["bare"])):
        raise RuntimeError("the timing wrappers changed the extraction")
    passes = {f"{k}_{m}": v[k] for k in calls for m, v in (("cpu", cpu), ("wall", wall))}
    return table, docs, passes


def _op_stats(summary) -> dict:
    """Ray Data per-operator wall, CPU and output rows, summed by kind
    (sort / aggregate / map) over the dataset and its parents."""
    out: dict[str, float] = {}
    for op in summary.operators_stats:
        name = op.operator_name
        kind = "sort" if "Sort" in name else "aggregate" if "Aggregate" in name else "map"
        for metric, field in (("wall_s", op.wall_time), ("cpu_s", op.cpu_time),
                              ("rows", op.output_num_rows)):
            key = f"{kind}.{metric}"
            out[key] = out.get(key, 0.0) + float((field or {}).get("sum", 0.0))
    for parent in summary.parents:
        for key, v in _op_stats(parent).items():
            out[key] = out.get(key, 0.0) + v
    return out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--ray-tmp", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--cpus", type=int, required=True)
    args = p.parse_args()
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # the program's own prints must not reach the reply pipe
    sys.stdout = sys.stderr
    os.chdir(args.root)
    sys.path[:0] = [args.root]
    driver = Driver(args)
    replies.write(json.dumps({"ok": True, "cpus": driver.cpus}) + "\n")
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd.pop("op")
        try:
            reply = {"ok": True, **getattr(driver, f"op_{op}")(**cmd)}
        except Exception as e:  # reported to the parent, which counts a failure
            reply = {"ok": False, "error": f"{type(e).__name__}: {e}"[:2000]}
        replies.write(json.dumps(reply) + "\n")
        if op == "quit":
            return


if __name__ == "__main__":
    main()
