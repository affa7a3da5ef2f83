"""Benchmark of the span-extraction engine through its public entry points.

From any working directory (the checkout is the directory holding
``perfbench/``)::

    python3 perfbench/run.py --workload extract_write --seed 42 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``extract_write``
    ``extract --input <corpus> --output <fresh dir> --partitions 16``
    over a span corpus generated from ``perfbench/data/sf0.01`` with
    ``corpus_from_documents(sf0.01, seed)`` (500 documents).
``resume``
    The same command on a completed output from which partitions 0-3
    and ``_manifest.json`` were deleted (12 of the 16 are kept), restored
    before each run.

Each workload runs in a Ray session sized to the CPUs this process is
given, counted as ``nproc`` counts them (``cpus_given``), owned by one
driver process (``driver.py``) that this script meters from
``/proc``. Every operation has a fixed deadline; one that misses it is
killed with its session, counts as failed, is charged the whole
deadline, and the run continues on a new session.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` prints the per-layer metrics instead: a trace of every
layer, whatever the workload, written to
``.bench_build/perfbench-trace/<workload>-<seed>.json``. Its layers
include the exchange queries ``market_share``, ``adamic_adar`` and
``near_dup_pairs`` on the sf0.01 tables through
``__ray_entry__.queries()``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Every output is checked: extraction output
read back from the sink must equal the frozen fixture (when
``fixture_tag_for`` matches the input tables and the seed is the frozen
one) or the in-process fold of the corpus (any seed), document by
document; a resumed directory must equal the full run; each query must
match the canonical hash of its DuckDB oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import proctree  # noqa: E402
from perfbench.driver import PARTITIONS  # noqa: E402
from perfbench.oracles import QUERIES, SF_DIR  # noqa: E402

RESUME_MISSING = tuple(range(4))  # partitions deleted before each resume run

# Fixed per-operation deadlines, far above the normal times on a 4-CPU
# box (extract ~5 s, the slowest query ~5 s) so only a stall misses them.
DEADLINE_S = {"extract": 90.0, "query": 15.0}
SETUP_DEADLINE_S = 150.0  # session start, corpus generation, checks
# near_dup_pairs deadlocks in a 1-CPU Ray session, so the traced run's
# exchange layer gets at least this many
EXCHANGE_CPUS = 2
CORPUS_WRITES = 3  # the one set-up part cheap enough to repeat in every run
MIN_REPS = 3  # a run measures --seconds and at least this many repetitions
EXITED = {"ok": False, "error": "the driver process exited"}


def cpus_given() -> int:
    """The CPUs this process may use, as ``nproc`` counts them: the
    affinity mask, capped by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        n = min(n, int(os.environ["OMP_NUM_THREADS"]))
    except (KeyError, ValueError):
        pass
    return max(n, 1)


class Session:
    """One Ray session of ``cpus`` CPUs: a ``driver.py`` child and
    everything it starts."""

    def __init__(self, bench: "Bench", cpus: int):
        env = dict(os.environ)
        # Ray workers import the package from the checkout whatever the cwd
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (bench.root, env.get("PYTHONPATH")) if p
        )
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        # Ray starts its workers at nice 15, where any process of a
        # neighbour on the same core takes nearly all of it; the workers
        # run at the priority of the rest of the session instead
        env["RAY_worker_niceness"] = "0"
        env["TMPDIR"] = bench.tmp
        env.pop("RAY_ADDRESS", None)
        cmd = [
            sys.executable, "-m", "perfbench.driver",
            "--root", bench.root, "--work", bench.work, "--ray-tmp", bench.ray_tmp,
            "--trace", str(int(bench.trace)), "--cpus", str(cpus),
        ]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=bench.root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=bench.log,
        )
        # every process seen in the session, so that a kill also reaches
        # Ray processes orphaned by a driver that died
        self.procs: set = set()
        self._replies: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()
        ready = self._reply(SETUP_DEADLINE_S)
        if ready is None or not ready["ok"]:
            self.kill()
            raise RuntimeError("the Ray session did not start; see the log")
        self.init_s = time.perf_counter() - t0
        self.cpus = ready["cpus"]
        self.alive = True

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._replies.put(json.loads(line))
        self._replies.put(EXITED)

    def _reply(self, timeout: float):
        try:
            return self._replies.get(timeout=timeout)
        except queue.Empty:
            return None

    def call(self, op: str, deadline: float = SETUP_DEADLINE_S, **args) -> dict:
        """Run ``op`` in the session, metered. On a missed deadline the
        session is killed and the reply is ``{"ok": False, "missed": True}``
        with ``wall_s`` charged the whole deadline."""
        with proctree.Meter(self.proc.pid) as meter:
            t0 = time.perf_counter()
            self.proc.stdin.write(json.dumps({"op": op, **args}) + "\n")
            self.proc.stdin.flush()
            reply = self._reply(deadline)
            wall = time.perf_counter() - t0
        self.procs |= meter.procs
        if reply is None:
            self.kill()
            reply = {"ok": False, "missed": True, "error": f"{op} missed {deadline:g} s"}
            wall = deadline
        elif reply is EXITED:
            self.kill()
        if not reply["ok"]:
            print(f"[perfbench] {op} {args}: {reply['error']}", file=sys.stderr)
        return {**reply, "wall_s": wall, "cpu_s": meter.cpu_s, "peak_rss_mb": meter.peak_mb}

    def kill(self) -> None:
        proctree.kill(self.procs | set(proctree.snapshot(self.proc.pid)))
        self.proc.wait()
        self.alive = False

    def close(self) -> None:
        """Shut Ray down in the driver, then make sure nothing is left."""
        if self.alive and self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.flush()
                self._reply(30.0)
            except OSError:
                pass
        self.kill()


def checked(reply: dict) -> dict:
    """A set-up or checking step must succeed: there is no result to
    report without it."""
    if not reply["ok"]:
        raise RuntimeError(reply["error"])
    return reply


class Bench:
    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        self.root, self.seed, self.trace = root, seed, trace
        self.cpus = cpus_given()  # the size of every session but the exchange one
        self.session_cpus = self.cpus
        build = os.path.join(root, ".bench_build")
        self.work = os.path.join(build, "perfbench")
        shutil.rmtree(self.work, ignore_errors=True)
        self.tmp = os.path.join(self.work, "tmp")
        os.makedirs(self.tmp)
        # Ray's socket paths must fit in 107 bytes: keep its temp dir (and
        # only the latest run's session logs) in the checkout when the
        # checkout path is short enough
        ray_tmp = os.path.join(build, "ray")
        if len(ray_tmp) <= 40:
            shutil.rmtree(ray_tmp, ignore_errors=True)
            self.ray_tmp = ray_tmp
        else:
            self.ray_tmp = os.path.join(tempfile.gettempdir(), "ray")
        self.log = open(os.path.join(build, f"perfbench-{workload}-{seed}.log"), "w")
        self.corpus = os.path.join(self.work, "corpus")
        self.fixture = None
        self.docs = 0
        self.attempted = self.failed = 0
        self.correct = True
        self.setup: dict[str, list[float]] = {}
        self.session: Session | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def ensure_session(self) -> Session:
        if self.session is None or not self.session.alive:
            self.session = Session(self, self.session_cpus)
            if self.session_cpus == self.cpus:
                self.setup.setdefault("ray_init", []).append(self.session.init_s)
        return self.session

    def resize_session(self, cpus: int) -> None:
        """Later operations run in a new session of ``cpus`` CPUs."""
        if self.session is not None:
            self.session.close()
        self.session_cpus = cpus

    def call(self, op: str, deadline: float = SETUP_DEADLINE_S, **args) -> dict:
        return self.ensure_session().call(op, deadline, **args)

    def count(self, attempted: int, failed: int, wrong: bool = False) -> None:
        self.attempted += attempted
        self.failed += failed
        self.correct &= not wrong

    # ---- extraction --------------------------------------------------

    def make_corpus(self) -> None:
        """Writes the corpus ``CORPUS_WRITES`` times over, so that its
        set-up time is a median."""
        for _ in range(CORPUS_WRITES):
            r = checked(self.call("corpus", documents_dir=SF_DIR, seed=self.seed,
                                  out=self.corpus))
            self.setup.setdefault("corpus", []).append(r["wall_s"])
        self.docs, self.fixture = r["docs"], r["fixture"]

    def extract(self, output: str, **extra) -> dict:
        return self.call("extract", DEADLINE_S["extract"], input=self.corpus,
                         output=output, **extra)

    def check_extract(self, output: str, docs: int) -> int:
        """Failed documents in ``output``, counted against ``docs``."""
        bad = checked(self.call("check_extract", output=output, corpus=self.corpus,
                                fixture=self.fixture))["bad_docs"]
        self.count(docs, bad, wrong=bad > 0)
        return bad

    def prepare_resume(self) -> tuple[str, int, float]:
        """A completed output (checked), the number of documents in the
        partitions each resume run has to rebuild, and the run's wall."""
        full = self.path("full")
        wall = checked(self.extract(full))["wall_s"]
        self.check_extract(full, self.docs)
        needed = sum(self._manifest(full, p)["n_keys"] for p in RESUME_MISSING)
        return full, needed, wall

    @staticmethod
    def _manifest(out: str, part: int) -> dict:
        with open(os.path.join(out, f"part={part:05d}", "manifest.json")) as f:
            return json.load(f)

    def restore_partial(self, full: str) -> str:
        out = self.path("resume")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        for p in range(PARTITIONS):
            if p not in RESUME_MISSING:
                name = f"part={p:05d}"
                shutil.copytree(os.path.join(full, name), os.path.join(out, name))
        return out

    def check_resume(self, out: str, full: str, needed: int) -> int:
        """Failed documents of a resumed ``out``, counted against ``needed``."""
        r = checked(self.call("check_resume", output=out, full_output=full))
        bad = needed if r["problems"] else min(r["bad_docs"], needed)
        if r["problems"]:
            print(f"[perfbench] resume output: {r['problems']}", file=sys.stderr)
        self.count(needed, bad, wrong=bool(r["problems"]) or r["bad_docs"] > 0)
        return bad

    # ---- exchange queries (traced run) -------------------------------

    def oracles(self) -> dict:
        return checked(self.call("oracle"))

    def query(self, name: str, oracle: dict, stats: bool = False) -> dict:
        r = self.call("query", DEADLINE_S["query"], name=name, sf_dir=SF_DIR,
                      stats=stats)
        wrong = r["ok"] and (r["rows"], r["hash"]) != (oracle[name]["rows"],
                                                        oracle[name]["hash"])
        if wrong:
            print(f"[perfbench] {name}: result differs from its oracle", file=sys.stderr)
        self.count(1, not r["ok"] or wrong, wrong=wrong)
        return r

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        self.log.close()


# ---- the workloads -------------------------------------------------------
# ``setup()`` prepares the inputs and returns the warm-up's wall time;
# ``rep()`` returns one repetition's measurements and the documents whose
# output it produced.


def _measured(reply: dict, produced: int) -> dict:
    return {k: reply[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} | {"produced": produced}


class ExtractWrite:
    def __init__(self, bench: Bench):
        self.b = bench

    def setup(self) -> float:
        self.b.make_corpus()
        warm = self.b.path("warmup")
        wall = checked(self.b.extract(warm))["wall_s"]
        self.b.check_extract(warm, self.b.docs)
        return wall

    def rep(self) -> dict:
        out = self.b.path("out")
        shutil.rmtree(out, ignore_errors=True)
        r = self.b.extract(out)
        docs = self.b.docs
        if r["ok"]:
            bad = self.b.check_extract(out, docs)
        else:
            bad = docs
            self.b.count(docs, bad)
        return _measured(r, docs - bad)


class Resume:
    def __init__(self, bench: Bench):
        self.b = bench

    def setup(self) -> float:
        self.b.make_corpus()
        self.full, self.needed, wall = self.b.prepare_resume()
        return wall

    def rep(self, count: bool = False) -> dict:
        out = self.b.restore_partial(self.full)
        r = self.b.extract(out, count=count)
        if r["ok"]:
            bad = self.b.check_resume(out, self.full, self.needed)
        else:
            bad = self.needed
            self.b.count(self.needed, bad)
        self.last = r
        return _measured(r, self.needed - bad)


WORKLOADS = {"extract_write": ExtractWrite, "resume": Resume}


# ---- the two kinds of run ----------------------------------------------


def timed_run(bench: Bench, wl, seconds: float) -> dict:
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(wl.rep())
        print(f"[perfbench] rep {len(reps)}: " + json.dumps(
            {k: round(v, 3) for k, v in reps[-1].items()}), file=sys.stderr)
    med = {k: statistics.median(r[k] for r in reps) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    # wall time is logged, not reported: on a shared 4-vCPU VM it swung by
    # a third for minutes at a time, more than any bound it could carry
    print(f"[perfbench] median wall_s {med['wall_s']:.3f}, docs_per_s "
          f"{statistics.median(r['produced'] / r['wall_s'] for r in reps):.2f}", file=sys.stderr)
    setup_s = sum(statistics.median(v) for v in bench.setup.values())
    return {
        "docs_per_cpu_s": (statistics.median(r["produced"] / r["cpu_s"] for r in reps), "1/s"),
        "cpu_s": (med["cpu_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((bench.attempted - bench.failed) / bench.attempted, "frac"),
    }, len(reps)


def traced_run(bench: Bench, name: str, wl) -> dict:
    """Per-layer metrics: every layer is traced whatever the workload.

    The extraction layers run twice in the same composition, bare and
    traced: the CLI's read, parse and sink stages one at a time on a
    fresh output, then the corpus through the in-process parse. Their
    wall times give ``trace.overhead_frac``; the bare parse's CPU is
    what the layers' self times must add up to."""
    from perfbench.trace import Spans

    spans = Spans()
    m: dict[str, tuple[float, str]] = {}
    m["session.cpus"] = (bench.ensure_session().cpus, "count")

    # read / parse / sink, bare then traced, each output checked
    stages = {}
    for traced in (False, True):
        out = bench.path(f"stages-{int(traced)}")
        with spans.span(f"layers.extract.{'traced' if traced else 'bare'}") as ex_span:
            stages[traced] = checked(bench.call(
                "trace_extract", input=bench.corpus, output=out, traced=traced))
        bench.check_extract(out, bench.docs)
    ex = stages[True]
    spans.adopt(ex["spans"], ex_span["id"])
    rd = {s["name"]: s["end"] - s["start"] for s in ex["spans"]}
    m["read.s"] = (rd["read"], "s")
    m["read.rows"] = (ex["read_rows"], "count")
    m["parse.s"] = (rd["parse"], "s")
    m["sink.s"] = (rd["sink"], "s")
    m["sink.rows_per_s"] = (ex["parse_rows"] / rd["sink"], "1/s")
    m["sink.bytes_written"] = (ex["sink_bytes"], "B")
    m["sink.partitions_written"] = (ex["sink_partitions"], "count")
    m["sink.partition_rows_max_over_mean"] = (ex["sink_rows_max_over_mean"], "ratio")

    # resume: documents the parse processed per document that needed it
    rs = wl if name == "resume" else Resume(bench)
    if name != "resume":
        rs.full, rs.needed, _ = bench.prepare_resume()
    with spans.span("layers.resume"):
        resume_rep = rs.rep(count=True)
    resumed = checked(rs.last)
    m["resume.extracted_per_needed"] = (resumed["parsed_docs"] / rs.needed, "ratio")
    m["resume.partitions_skipped"] = (len(resumed["summary"]["skipped"]), "count")

    # the workload's command as a whole, once: its wall time
    cli = resume_rep if name == "resume" else wl.rep()
    m["cli.wall_s"] = (cli["wall_s"], "s")
    m["cli.docs_per_s"] = (cli["produced"] / cli["wall_s"], "1/s")

    # kernels, in the driver process, on the same corpus
    with spans.span("layers.kernels"):
        k = checked(bench.call("trace_kernels", corpus=bench.corpus))
    bare = stages[False]["wall_s"] + k["bare_wall"]
    m["trace.overhead_frac"] = ((ex["wall_s"] + k["traced_wall"]) / bare - 1, "frac")

    # exchange queries: each once to warm up (its first run in a session
    # loads Ray Data's execution path and the query modules in the
    # workers), then once with Ray Data operator stats
    bench.resize_session(max(EXCHANGE_CPUS, bench.cpus))
    oracle = bench.oracles()
    for q in QUERIES:
        bench.query(q, oracle)
    with spans.span("layers.exchange"):
        queries = {q: bench.query(q, oracle, stats=True) for q in QUERIES}
    for q, r in queries.items():
        m[f"exchange.{q}.s"] = (r["wall_s"], "s")
    m["exchange.deadline_misses"] = (sum(bool(r.get("missed")) for r in queries.values()), "count")
    # near_dup_pairs is the one query returning a Dataset (the others
    # fold to pandas in the driver); a missed deadline leaves zeros
    ops = queries["near_dup_pairs"].get("op_stats", {})
    for kind in ("sort", "aggregate", "map"):
        for metric, unit in (("wall_s", "s"), ("cpu_s", "s"), ("rows", "count")):
            m[f"exchange.near_dup_pairs.{kind}.{metric}"] = (
                ops.get(f"{kind}.{metric}", 0.0), unit)

    docs, pages = k["docs"], k["pages"]
    tot, slf, calls = k["total"], k["self"], k["calls"]
    per_doc = lambda v: (1000 * v / docs, "ms")  # noqa: E731
    per_page = lambda v: (1000 * v / pages, "ms")  # noqa: E731
    m["parse.self_ms_per_doc"] = per_doc(slf["parse"])
    for layer in ("decode", "classify", "flatten"):
        m[f"{layer}.ms_per_doc"] = per_doc(tot.get(layer, 0.0))
    m["fold.ms_per_page"] = per_page(tot.get("fold", 0.0))
    m["fold.self_ms_per_page"] = per_page(slf.get("fold", 0.0))
    for sub in ("lines", "labels", "sections", "assign", "questions", "answers"):
        m[f"fold.{sub}.ms_per_page"] = per_page(tot.get(f"fold.{sub}", 0.0))
    m["pages_per_doc"] = (pages / docs, "count")
    m["out_spans_per_doc"] = (k["out_spans"] / docs, "count")
    group_calls = sum(v for c, v in calls.items() if c in ("fold.lines",) or c.startswith("lines@"))
    m["lines.group_calls_per_page"] = (group_calls / pages, "count")
    m["questions.regroup_calls_per_page"] = (calls.get("lines@questions", 0) / pages, "count")
    # bounds both what the wrappers leave out and what they add
    layer_sum = sum(slf.values()) / k["bare_cpu"]
    if not 0.9 <= layer_sum <= 1.1:
        raise RuntimeError(f"layer self times sum to {layer_sum:.3f} of the bare parse CPU")
    m["trace.layer_sum_frac"] = (layer_sum, "frac")

    for part in ("ray_init", "corpus", "warmup"):
        m[f"setup.{part}_s"] = (statistics.median(bench.setup.get(part, [0.0])), "s")

    out = os.path.join(bench.root, ".bench_build", "perfbench-trace")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}-{bench.seed}.json"), "w") as f:
        json.dump({"spans": spans.spans, "kernels": k, "metrics": m}, f, indent=1)
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "pdf_parser_ray")):
        print(f"perfbench: no pdf_parser_ray/ package next to perfbench/ in {ROOT}",
              file=sys.stderr)
        return 2

    # a terminated run still stops its Ray session (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(ROOT, args.workload, args.seed, bool(args.trace))
    try:
        bench.ensure_session()
        wl = WORKLOADS[args.workload](bench)
        bench.setup["warmup"] = [wl.setup()]
        if args.trace:
            metrics, reps = traced_run(bench, args.workload, wl), 1
        else:
            metrics, reps = timed_run(bench, wl, args.seconds)
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    setup = {k: [round(x, 3) for x in v] for k, v in bench.setup.items()}
    print(f"perfbench: workload={args.workload} seed={args.seed} cpus={bench.cpus} "
          f"reps={reps} setup_s={setup}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
