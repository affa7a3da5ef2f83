"""CLI entry points — the engine analog of the reference's
``python extractor.py --pdf …`` surface (reference
``extractor.py:1266-1390``).

Commands::

    python -m pdf_parser_ray extract --input DIR_OR_SF --output OUT \
        [--config sections.json] [--partitions 16] [--quarantine]
    python -m pdf_parser_ray metrics --output OUT
    python -m pdf_parser_ray synth --sf-dir DIR --output OUT [--n 1000]

``extract`` writes ``--partitions`` partitions, partition ``p`` holding
the output of the ``p``-th contiguous slice of the input rows
(``io/checkpoint.py`` ``slice_write``). It parses in one task per CPU,
never more than the partitions it has to write, and commits each
partition as soon as its slice is parsed. It always resumes: run again
on the same ``--output`` with the same ``--partitions`` and input, it
parses only the slices of partitions that have no manifest yet.

Owns its Ray session (guarded init + shutdown); the library never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        # honor the job runner's cluster (ray job submit sets
        # RAY_ADDRESS); standalone runs fall back to a local session
        import os

        kwargs = dict(address=os.environ.get("RAY_ADDRESS", "local"),
                      include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False


def cmd_extract(args) -> int:
    _init_ray(args.num_cpus)
    from .core.config import FormConfig
    from .io.checkpoint import slice_write
    from .stages.parse import DocumentExtractor

    config = FormConfig.from_json(args.config) if args.config else None
    summary = slice_write(
        args.input,
        args.output,
        DocumentExtractor(config=config, quarantine=args.quarantine),
        n_partitions=args.partitions,
    )
    print(json.dumps(summary))
    return 0


def cmd_metrics(args) -> int:
    from .io.checkpoint import partition_metrics

    df = partition_metrics(args.output)
    print(df.to_string(index=False) if len(df) else "no completed partitions")
    return 0


def cmd_synth(args) -> int:
    _init_ray(args.num_cpus)
    from .io.sources import write_corpus
    from .io.synth import corpus_dataset

    ds = corpus_dataset(args.n, seed=args.seed)
    write_corpus(ds, args.output)
    print(json.dumps({"docs": args.n, "output": args.output}))
    return 0


def cmd_regress(args) -> int:
    """Golden-file regression harness — the engine analog of the
    reference's ``run_regression.py:75-165``: run the extractor over a
    span corpus through the ``extract`` command's sink
    (:func:`~.io.checkpoint.slice_write`, into a temporary directory),
    then read the output one partition at a time and compare each
    document's span sequence to the golden file (strict (kind, text,
    media_ref, offset) equality), seed missing goldens, ``--update`` to
    rewrite, exit 1 on failures."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    _init_ray(args.num_cpus)
    from .io.checkpoint import slice_write
    from .stages.parse import DocumentExtractor

    goldens: dict[str, list] = {}
    if os.path.exists(args.goldens):
        with open(args.goldens) as f:
            goldens = json.load(f)
    failures, seeded = [], []
    n_docs = 0
    with tempfile.TemporaryDirectory() as out:
        slice_write(args.corpus, out, DocumentExtractor())
        for name in sorted(os.listdir(out)):
            data = os.path.join(out, name, "data.parquet")
            if not (name.startswith("part=") and os.path.exists(data)):
                continue
            part = pq.read_table(data).sort_by([("doc_id", "ascending"), ("offset", "ascending")])
            got: dict[str, list] = {}
            for doc_id, kind, text, ref, off in zip(
                *(part[c].to_pylist() for c in ("doc_id", "kind", "text", "media_ref", "offset"))
            ):
                got.setdefault(doc_id, []).append([kind, text, ref, int(off)])
            n_docs += len(got)
            for doc_id, spans in got.items():
                if doc_id not in goldens or args.update:
                    if doc_id not in goldens:
                        seeded.append(doc_id)
                    goldens[doc_id] = spans
                    continue
                if goldens[doc_id] != spans:
                    failures.append(doc_id)
                    print(f"[FAIL] {doc_id}: span sequence differs from golden")
                else:
                    print(f"[PASS] {doc_id}")
    if seeded or args.update:
        with open(args.goldens, "w") as f:
            json.dump(dict(sorted(goldens.items())), f, indent=1)
        for d in seeded:
            print(f"[SEED] {d}")
    print(json.dumps({"passed": n_docs - len(failures) - len(seeded),
                      "failed": len(failures), "seeded": len(seeded)}))
    return 1 if failures else 0


def _load_doc(corpus: str, doc_id: str):
    """One document's decoded pages from a span corpus."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .kernels.document import decode_spans

    t = pq.read_table(corpus, columns=["doc_id", "spans"])
    t = t.filter(pc.equal(t["doc_id"], doc_id))
    if t.num_rows == 0:
        raise SystemExit(f"doc_id {doc_id!r} not found in {corpus}")
    return decode_spans(doc_id, t["spans"].to_pylist()[0])


def cmd_template(args) -> int:
    """Template-spec extractor — the geometric analog of the
    reference's offline template cropper (S9,
    ``template_extractor.py:25-33``): instead of cropping rendered
    pixels, emit the spans whose geometry falls inside the given
    (x, y, w, h) rect of a page — the template *spec* (checkbox
    geometry + match scores + covered tokens) that the pixel tool's
    crop stands for."""
    pages = _load_doc(args.corpus, args.doc)
    if args.page < 1 or args.page > len(pages):
        raise SystemExit(f"page {args.page} out of range (doc has {len(pages)})")
    pg = pages[args.page - 1]
    x1, y1, x2, y2 = args.x, args.y, args.x + args.w, args.y + args.h

    def inside(o):
        return x1 <= o["x"] <= x2 and y1 <= o["y"] <= y2

    spec = {
        "doc_id": args.doc,
        "page": args.page,
        "rect": {"x": args.x, "y": args.y, "w": args.w, "h": args.h},
        "checkboxes": [b for b in pg["ticked"] + pg["empty"] if inside(b)],
        "tokens": [t for t in pg["tokens"] if inside(t)],
        "highlights": [h for h in pg["highlights"] if inside(h)],
    }
    out = json.dumps(spec, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(out)
        print(f"saved template spec to {args.output}")
    else:
        print(out)
    return 0


def cmd_coords(args) -> int:
    """Checkbox-coordinate lister — the batch analog of the
    reference's interactive click-to-get-coordinates tool (S10,
    ``extract_tick_coordinates.py:26-57``): print every checkbox
    candidate's (x, y, w, h, score, status) on a page, optionally with
    the label each would be assigned to — the information clicking the
    rendered page reveals, queryable instead of interactive."""
    pages = _load_doc(args.corpus, args.doc)
    if args.page is not None and not (1 <= args.page <= len(pages)):
        raise SystemExit(f"page {args.page} out of range (doc has {len(pages)})")
    sel = pages if args.page is None else [pages[args.page - 1]]
    for pg in sel:
        from .kernels.boxes import deduplicate_matches

        for b in deduplicate_matches(pg["ticked"], pg["empty"]):
            rec = dict(b)
            rec["page"] = pg["page"]
            print(json.dumps(rec))
    return 0


def cmd_query(args) -> int:
    """Run any registered query from the command line — the same
    surface ``__ray_entry__.queries()`` exposes to the driver, so
    every operator is user-reachable without writing a script."""
    from .registry import all_queries

    qs = all_queries()
    if args.list or args.name is None:
        # no Ray session for a pure listing
        for name in sorted(qs):
            print(name)
        return 0
    if args.name not in qs:
        print(f"unknown query {args.name!r} — `query --list` shows all")
        return 2
    _init_ray(args.num_cpus)
    res = qs[args.name](args.sf_dir)
    if args.output:
        import pyarrow as pa_
        import pyarrow.parquet as pq_

        if hasattr(res, "write_parquet"):  # ray Dataset: stream it
            res.write_parquet(args.output)
        elif isinstance(res, pa_.Table):
            pq_.write_table(res, args.output)
        else:  # pandas
            res.to_parquet(args.output)
        print(f"wrote {args.output}")
        return 0
    import pandas as pd

    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    with pd.option_context("display.max_rows", args.head, "display.width", 200):
        print(df.head(args.head).to_string(index=False))
    print(f"[{len(df)} rows]")
    return 0


def cmd_debug(args) -> int:
    """Debug-artifact sink — the queryable analog of the reference's
    annotated debug images (S6, ``extractor.py:1128-1164``): write the
    full pre-flatten structured record per document (per-page checkbox
    assignments with positions/status and response sections with
    answer windows) as JSON — everything the overlay PNGs drew, as
    data."""
    import os

    from .core.config import FormConfig
    from .io.synth import DEFAULT_CONFIG
    from .kernels.document import classify_form_type, extract_document

    config = FormConfig.from_json(args.config) if args.config else DEFAULT_CONFIG
    os.makedirs(args.output, exist_ok=True)
    written = []
    for doc_id in args.doc:
        pages = _load_doc(args.corpus, doc_id)
        sections = config.select(classify_form_type(pages))
        structured = extract_document(pages, sections)
        path = os.path.join(args.output, f"{doc_id}.json")
        with open(path, "w") as f:
            json.dump(structured, f, indent=1)
        written.append(path)
    print(json.dumps({"written": written}))
    return 0


def cmd_doctor(args) -> int:
    """Environment probe — the engine analog of the reference's
    ``--check`` flag (``extractor.py:1345-1364``): report availability
    of every dependency tier and smoke a local Ray session."""
    report = {}
    for mod in ("ray", "pyarrow", "pandas", "numpy", "duckdb"):
        try:
            m = __import__(mod)
            report[mod] = getattr(m, "__version__", "ok")
        except ImportError:
            report[mod] = "MISSING"
    try:
        import lance  # noqa: F401

        report["lance"] = "ok"
    except ImportError:
        report["lance"] = "absent (parquet fallback active)"
    try:
        _init_ray(args.num_cpus or 2)
        import ray
        import ray.data as rd

        n = rd.range(100).map_batches(lambda b: b, batch_size=10).count()
        report["ray_data_smoke"] = f"ok ({n} rows)"
        report["cpus"] = int(ray.cluster_resources().get("CPU", 0))
    except Exception as e:  # pragma: no cover
        report["ray_data_smoke"] = f"FAILED: {e}"
    print(json.dumps(report, indent=1))
    return 0 if "MISSING" not in report.values() else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pdf_parser_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="run the extraction pipeline resumably")
    pe.add_argument("--input", required=True, help="span corpus (parquet/lance)")
    pe.add_argument("--output", required=True)
    pe.add_argument("--config", default=None, help="sections JSON (reference schema)")
    pe.add_argument("--partitions", type=int, default=16)
    pe.add_argument(
        "--quarantine",
        action="store_true",
        help="emit an `error` span for corrupt documents instead of failing the job",
    )
    pe.set_defaults(fn=cmd_extract)

    pm = sub.add_parser("metrics", help="show per-partition lineage/metrics")
    pm.add_argument("--output", required=True)
    pm.set_defaults(fn=cmd_metrics)

    pd_ = sub.add_parser("doctor", help="environment probe (reference --check analog)")
    pd_.set_defaults(fn=cmd_doctor)

    pr = sub.add_parser("regress", help="golden-file regression over a corpus")
    pr.add_argument("--corpus", required=True)
    pr.add_argument("--goldens", required=True)
    pr.add_argument("--update", action="store_true")
    pr.set_defaults(fn=cmd_regress)

    ps = sub.add_parser("synth", help="generate a synthetic span corpus")
    ps.add_argument("--output", required=True)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=42)
    ps.set_defaults(fn=cmd_synth)

    pt = sub.add_parser("template", help="extract a template spec from a page rect (S9 analog)")
    pt.add_argument("--corpus", required=True)
    pt.add_argument("--doc", required=True)
    pt.add_argument("--page", type=int, required=True)
    pt.add_argument("--x", type=int, required=True)
    pt.add_argument("--y", type=int, required=True)
    pt.add_argument("--w", type=int, required=True)
    pt.add_argument("--h", type=int, required=True)
    pt.add_argument("--output", default=None)
    pt.set_defaults(fn=cmd_template)

    pc_ = sub.add_parser("coords", help="list checkbox candidate coordinates (S10 analog)")
    pc_.add_argument("--corpus", required=True)
    pc_.add_argument("--doc", required=True)
    pc_.add_argument("--page", type=int, default=None)
    pc_.set_defaults(fn=cmd_coords)

    pq_ = sub.add_parser("query", help="run any registered query (same surface as the driver)")
    pq_.add_argument("name", nargs="?", default=None, help="query name (omit with --list)")
    pq_.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    pq_.add_argument("--output", default=None, help="write result parquet instead of printing")
    pq_.add_argument("--head", type=int, default=20)
    pq_.add_argument("--list", action="store_true", help="list registered query names")
    pq_.set_defaults(fn=cmd_query)

    pdbg = sub.add_parser("debug", help="write per-doc structured debug artifacts (S6 analog)")
    pdbg.add_argument("--corpus", required=True)
    pdbg.add_argument("--doc", nargs="+", required=True)
    pdbg.add_argument("--config", default=None)
    pdbg.add_argument("--output", required=True)
    pdbg.set_defaults(fn=cmd_debug)

    args = p.parse_args(argv)
    import ray

    # Only tear down a session WE created: when driven in-process (tests,
    # embedding callers) Ray may already be live and belongs to the caller.
    owns_session = not ray.is_initialized()
    try:
        return args.fn(args)
    finally:
        if owns_session and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
