"""No-Ray multiprocessing twin of the flagship extraction kernel.

Measures this box's hardware scaling envelope (VERDICT r4 item 3): the
IDENTICAL per-document kernels the Ray flagship runs (``gen_document``,
then ``stages.parse.extract_spans``), driven by plain ``multiprocessing.Pool`` — no Ray, no Arrow block
output, no shuffle, no object store. If this harness's 8→32
efficiency sits near Ray's, the high-core ceiling is the machine's
one shared memory controller (the DRAM knee), not executor overhead.

Run it in the SAME window as ``python bench.py --scaling`` and commit
both JSONs side by side::

    GRAFT_SF_DIR=/root/testdata/sf0.1 python tools/mp_twin.py \
        > artifacts/mp_twin_r05.json

Output: one JSON line with per-level sec / docs_per_sec (best of
``--trials``, all reps disclosed) and the 8→32 efficiency.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import Pool

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
MULT = int(os.environ.get("GRAFT_EXTRACT_MULTIPLIER", "16"))
SEED = 42


def work_slice(args: "tuple[int, int]") -> int:
    """Rows [lo, hi) of documents.parquet → synth+extract, returning
    only the output span count (no Arrow assembly — the kernel alone)."""
    lo, hi = args
    import pyarrow.parquet as pq

    from pdf_parser_ray.io.synth import DEFAULT_CONFIG, gen_document
    from pdf_parser_ray.stages.parse import extract_spans

    tbl = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).slice(lo, hi - lo)
    n_spans = 0
    for i, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        vocab = [w for w in (text or "").split() if w][:48] or None
        for k in range(MULT):
            did = f"doc-{int(i):08d}" if k == 0 else f"doc-{int(i):08d}-{k}"
            spans = gen_document(did, SEED, vocab=vocab)
            n_spans += len(extract_spans(did, spans, DEFAULT_CONFIG))
    return n_spans


def run_level(nproc: int, n_rows: int) -> "tuple[float, int]":
    n_slices = nproc * 4  # fine slices bound the straggler, as the Ray plan
    bounds = [round(j * n_rows / n_slices) for j in range(n_slices + 1)]
    slices = [
        (bounds[j], bounds[j + 1])
        for j in range(n_slices)
        if bounds[j + 1] > bounds[j]
    ]
    t0 = time.perf_counter()
    with Pool(nproc) as p:
        spans = sum(p.map(work_slice, slices, chunksize=1))
    return time.perf_counter() - t0, spans


def main() -> None:
    import pyarrow.parquet as pq

    trials = int(os.environ.get("GRAFT_MP_TRIALS", "3"))
    levels = [int(x) for x in os.environ.get("GRAFT_MP_LEVELS", "8,32").split(",")]
    n_rows = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    docs = n_rows * MULT
    out: dict = {
        "metric": "mp_twin_docs_per_sec",
        "sf": SF_DIR,
        "docs": docs,
        "levels": {},
    }
    spans = 0
    for nproc in levels:
        reps = []
        for _ in range(trials):
            sec, spans = run_level(nproc, n_rows)
            reps.append(round(sec, 3))
            time.sleep(2)
        best = min(reps)
        out["levels"][str(nproc)] = {
            "sec": best,
            "docs_per_sec": round(docs / best, 1),
            "all_reps": reps,
        }
    out["out_rows"] = spans
    if "8" in out["levels"] and "32" in out["levels"]:
        tp8 = out["levels"]["8"]["docs_per_sec"]
        tp32 = out["levels"]["32"]["docs_per_sec"]
        out["efficiency_8to32"] = round((tp32 / tp8) / 4.0, 3)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
