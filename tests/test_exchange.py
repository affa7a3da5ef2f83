"""Property tests for ``core.exchange.exchange``, the one keyed
exchange: every row of every side reaches exactly one fold call, rows
that share a key meet in the same call, no call is made for a bucket
without rows, and each side arrives with its own schema — also in a
bucket where it has no rows, and when it has no rows at all.
``message_round``, one round of an iterative query, combines its
messages per node and keeps every loop's state at ``n_buckets``
blocks; ``combine`` folds a batch to one row per key. Guards keep
bucket-keyed folds, joins, state caps and in-batch folds from being
hand-rolled outside ``core/`` again."""

from __future__ import annotations

import ast
import pathlib
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_parser_ray.core.exchange import _has_barrier, combine, exchange

# wide ints: a pandas column padded with nulls would float and round these
_BIG = 2**62
_KEYS = {
    "int": (pa.int64(), st.integers(-50, 50)),
    "str": (pa.string(), st.text(alphabet="abcxyz", min_size=0, max_size=3)),
}


@st.composite
def _sides(draw):
    key_kind = draw(st.sampled_from(sorted(_KEYS)))
    key_type, key_values = _KEYS[key_kind]
    tables = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 12))
        keys = draw(st.lists(key_values, min_size=n, max_size=n))
        vals = draw(
            st.lists(st.none() | st.integers(_BIG, _BIG + 1000), min_size=n, max_size=n)
        )
        cols = {f"k{i}": pa.array(keys, key_type), f"v{i}": pa.array(vals, pa.int64())}
        if i == 1:
            cols["s1"] = pa.array([None if v is None else str(v) for v in vals], pa.string())
        tables.append(pa.table(cols))
    # a stated side is built by a map, so Ray knows no schema of it
    stated = draw(st.lists(st.booleans(), min_size=len(tables), max_size=len(tables)))
    return tables, stated, draw(st.sampled_from([1, 3, 32]))


@settings(max_examples=12, deadline=None)
@given(_sides())
# a side built by a map that has no rows at all: Ray knows no schema
# of it, so only the stated one can reach the fold
@example(
    (
        [
            pa.table({"k0": pa.array([1, 2], pa.int64()), "v0": pa.array([_BIG, None], pa.int64())}),
            pa.table({"k1": pa.array([], pa.int64()), "v1": pa.array([], pa.int64())}),
        ],
        [False, True],
        3,
    )
)
def test_every_row_once_keys_meet_and_schemas_hold(case):
    import ray.data

    def _record(*tables: pa.Table) -> pa.Table:
        """One row per input row, plus one ``schema`` row per side, all
        tagged with this call's id. A call whose sides are all empty
        raises: a bucket without rows must not be folded."""
        if not any(t.num_rows for t in tables):
            raise AssertionError("fold called for a bucket where no side has rows")
        call = uuid.uuid4().hex
        out = {"call": [], "side": [], "key": [], "val": [], "schema": []}
        for i, t in enumerate(tables):
            out["call"].append(call)
            out["side"].append(i)
            out["key"].append(None)
            out["val"].append(None)
            out["schema"].append(t.schema.to_string(show_schema_metadata=False))
            for row in t.to_pylist():
                out["call"].append(call)
                out["side"].append(i)
                out["key"].append(repr(row[f"k{i}"]))
                out["val"].append(repr(sorted(row.items())))
                out["schema"].append(None)
        return pa.table(
            {
                "call": pa.array(out["call"], pa.string()),
                "side": pa.array(out["side"], pa.int64()),
                "key": pa.array(out["key"], pa.string()),
                "val": pa.array(out["val"], pa.string()),
                "schema": pa.array(out["schema"], pa.string()),
            }
        )

    tables, stated, n_buckets = case
    sides = [
        (
            ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow"),
            f"k{i}",
            t.schema,
        )
        if state
        else (ray.data.from_arrow(t), f"k{i}")
        for i, (t, state) in enumerate(zip(tables, stated))
    ]
    if len(tables) > 1 and any(not s and not t.num_rows for t, s in zip(tables, stated)):
        # an empty side that states no schema, and of which Ray knows
        # none, is refused while the exchange is built
        with pytest.raises(ValueError, match="knows no Arrow schema"):
            exchange(sides, _record, n_buckets=n_buckets)
        return
    got = exchange(sides, _record, n_buckets=n_buckets).to_pandas()
    if not any(t.num_rows for t in tables):
        assert got.empty  # no side sends a row: nothing to fold
        return

    rows = got[got["schema"].isna()]
    for i, t in enumerate(tables):
        want = sorted(repr(sorted(r.items())) for r in t.to_pylist())
        assert sorted(rows.loc[rows["side"] == i, "val"]) == want

    # every key, across all sides, is folded in exactly one call
    assert (rows.groupby("key")["call"].nunique() == 1).all()

    # every call holds at least one row in some side (a lone side's
    # fold is never called empty: _record raises on such a call)
    assert set(got["call"]) == set(rows["call"])

    # each call sees every side with that side's own schema, also in
    # a bucket where the side has no rows and when it has none at all
    meta = got[got["schema"].notna()]
    assert set(meta.groupby("call")["side"].nunique()) == {len(tables)}
    for i, t in enumerate(tables):
        want = t.schema.to_string(show_schema_metadata=False)
        assert set(meta.loc[meta["side"] == i, "schema"]) == {want}


def test_stated_schema_must_name_the_rows_columns():
    import ray.data

    left = ray.data.from_arrow(pa.table({"k": [1, 2]}))
    right = ray.data.from_arrow(pa.table({"k": [2, 3]})).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    wrong = pa.schema({"key": pa.int64()})
    out = exchange([(left, "k"), (right, "k", wrong)], lambda a, b: a, n_buckets=2)
    with pytest.raises(ValueError, match="states"):
        out.materialize()


def test_has_barrier_sees_each_all_to_all_operator():
    """The 1-CPU hang fix rests on this walk of Ray's logical plan: a
    Ray upgrade that moves a barrier out of ``AbstractAllToAll`` must
    fail here, not hang a query."""
    import ray.data

    ds = ray.data.from_arrow(pa.table({"k": [1, 2, 3]}))
    assert not _has_barrier(ds)
    assert not _has_barrier(ds.map_batches(lambda b: b, batch_format="pyarrow"))
    assert _has_barrier(ds.groupby("k").map_groups(lambda g: g, batch_format="pyarrow"))
    assert _has_barrier(ds.groupby("k").count().map_batches(lambda b: b, batch_format="pyarrow"))
    assert _has_barrier(ds.sort("k"))
    assert _has_barrier(ds.repartition(2))
    assert _has_barrier(ds.random_shuffle())


def test_near_dup_pairs_finishes_in_a_one_cpu_session():
    """In a 1-CPU session the near-dup chain used to hang: its LSH band
    groupby sat in one branch of the resolve exchange's union while the
    corpus read held the only CPU in the other. The exchange now
    materializes a side that holds a barrier; the query must finish
    well inside the deadline and match its SQL oracle."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    import duckdb

    from pdf_parser_ray.stages.dedup import ORACLE_SQL

    from test_analytics2 import SF as sf  # the sf0.001 fixture dir
    script = textwrap.dedent(
        """
        import json, sys
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        import ray.data as rd
        rd.DataContext.get_current().enable_progress_bars = False
        from pdf_parser_ray.stages.dedup import q_near_dup_pairs
        df = q_near_dup_pairs(sys.argv[1]).to_pandas()
        print(json.dumps(sorted(df[["doc_a", "doc_b", "jaccard_micro"]].values.tolist())))
        ray.shutdown()
        """
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    # own process group: a hung session's raylet and workers die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", script, sf],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=root, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("near_dup_pairs did not finish in 120 s at 1 CPU")
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out.strip().splitlines()[-1])

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.sql(ORACLE_SQL["near_dup_pairs"]).df()
    assert got == sorted(want[["doc_a", "doc_b", "jaccard_micro"]].values.tolist())


# The folds that stay a plain ``groupby(column).map_groups``: each is
# keyed on a natural value whose groups a fold must see one at a time
# (a priority, a year, a language, one global group, a value-range bin,
# a band, a checkpoint partition), not on a bucket a site computes for
# routing. Any other ``groupby(K).map_groups`` goes through ``exchange``.
_NATURAL_KEY_FOLDS = {
    ("io/checkpoint.py", "_part"),
    ("relational/analytics.py", "o_orderpriority"),
    ("relational/analytics.py", "l_returnflag"),
    ("relational/analytics.py", ("seg", "vbin")),
    ("relational/analytics2.py", "o_year"),
    ("relational/analytics4.py", "o_year"),
    ("relational/ops.py", "o_orderpriority"),
    ("relational/ops.py", "vbin"),
    ("relational/ops.py", "day"),
    ("relational/ops.py", "one"),
    ("stages/corpus.py", "lang"),
    ("stages/dedup.py", "band_id"),
    ("stages/dedup.py", ("lang", "len_band")),
    ("stages/dsir.py", "lang"),
    ("stages/embed.py", "query_id"),
    ("stages/embed.py", "task"),
    ("stages/embed.py", "cell"),
    ("stages/embed.py", "cluster"),
    ("stages/embed.py", "p"),
    ("stages/graph.py", "one"),
    ("stages/textstats.py", "lang_pred"),
    ("stages/textstats.py", "part"),
    ("stages/watermark.py", "arr_day"),
}


_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "pdf_parser_ray"


def _trees_outside_core():
    """``(module, tree)`` for every module of the package outside
    ``core/``."""
    for path in sorted(_PACKAGE.rglob("*.py")):
        module = path.relative_to(_PACKAGE).as_posix()
        if not module.startswith("core/"):
            yield module, ast.parse(path.read_text())


def _calls_outside_core():
    """``(module, call)`` for every call node in the package outside
    ``core/``."""
    for module, tree in _trees_outside_core():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield module, node


def _method(call: ast.Call) -> str | None:
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _groupby_map_groups_sites():
    """``(module, key, line)`` of every ``.groupby(K).map_groups(`` call
    outside ``core/``; a list key becomes a tuple."""
    for module, node in _calls_outside_core():
        inner = node.func.value if _method(node) == "map_groups" else None
        if not (isinstance(inner, ast.Call) and _method(inner) == "groupby"):
            continue
        key = ast.literal_eval(inner.args[0])
        yield module, tuple(key) if isinstance(key, list) else key, node.lineno


def test_bucket_folds_go_through_exchange():
    """A fold over coarse key buckets is one ``exchange`` call: no
    module outside ``core/`` computes its own bucket column and folds it
    with ``groupby(bucket).map_groups``."""
    sites = list(_groupby_map_groups_sites())
    assert sites, "the walk found no groupby().map_groups call at all"
    stray = [
        f"{module}:{line} groupby({key!r})"
        for module, key, line in sites
        if (module, key) not in _NATURAL_KEY_FOLDS
    ]
    assert not stray, "route these folds through core.exchange.exchange:\n" + "\n".join(stray)


# Sites outside ``core/`` that still size a broadcast themselves. Their
# build side comes from the same corpus read as the probe side, and the
# keyed join takes its build side from a parquet table.
_OWN_BROADCAST_SIZING = {
    ("stages/dedup.py", "broadcast_build_fits"): (
        "q_dedup_incremental: the snapshot fingerprints and the new shard "
        "come from one corpus read"
    ),
    ("pipelines/prep.py", "broadcast_build_fits"): (
        "q_training_prep: the dedup survivor ids come from the corpus the "
        "prep pass reads"
    ),
}


def _join_sites():
    """``(module, kind, line)`` of every ``broadcast_build_fits(...)``
    call and every ``.join(..., join_type=...)`` call outside
    ``core/``."""
    for module, node in _calls_outside_core():
        name = _method(node) or getattr(node.func, "id", None)
        if name == "broadcast_build_fits":
            yield module, name, node.lineno
        elif name == "join" and any(kw.arg == "join_type" for kw in node.keywords):
            yield module, ".join(join_type=)", node.lineno


def test_joins_go_through_the_keyed_join():
    """A relational join is one ``core.join.keyed_join`` call: no module
    outside ``core/`` sizes its own broadcast or calls ``Dataset.join``,
    except the allowlisted stage sites, and each of those is still there."""
    sites = list(_join_sites())
    stray = [
        f"{module}:{line} {kind}"
        for module, kind, line in sites
        if (module, kind) not in _OWN_BROADCAST_SIZING
    ]
    assert not stray, "route these joins through core.join.keyed_join:\n" + "\n".join(stray)
    assert {(module, kind) for module, kind, _ in sites} == set(_OWN_BROADCAST_SIZING)


def test_loop_state_is_capped_only_in_core():
    """An iterative query caps its loop state through
    ``core.exchange.message_round``: no module outside ``core/`` calls
    ``.repartition(``."""
    stray = [
        f"{module}:{node.lineno}"
        for module, node in _calls_outside_core()
        if _method(node) == "repartition"
    ]
    assert not stray, "run these loops through core.exchange.message_round:\n" + "\n".join(stray)


# Functions passed to ``map_batches`` that still fold their batch per
# key in pandas, each with what ``combine`` cannot do for it.
_OWN_IN_BATCH_FOLDS = {
    ("relational/ops.py", "q_user_entropy.partials"): (
        "groupby(dropna=False) keeps SQL's NULL group, which combine drops"
    ),
    ("stages/textstats.py", "q_source_cap_sample.prune"): (
        "cumcount numbers the rows of each group; it is not an aggregate"
    ),
}


def _map_batches_udfs():
    """``(module, name, def)`` of every function outside ``core/`` passed
    to ``map_batches`` by name, or built by the factory call passed
    (then the factory's def); ``name`` is the dotted path of the def,
    resolved from the scope of the call as Python resolves it."""
    for module, tree in _trees_outside_core():
        scope = {tree: ()}  # node -> names of the defs enclosing it
        for node in ast.walk(tree):  # breadth first: parents come first
            inner = scope[node] + ((node.name,) if isinstance(node, ast.FunctionDef) else ())
            for child in ast.iter_child_nodes(node):
                scope[child] = inner
        defs = {scope[n] + (n.name,): n for n in scope if isinstance(n, ast.FunctionDef)}
        for call in scope:
            if not (isinstance(call, ast.Call) and _method(call) == "map_batches" and call.args):
                continue
            arg = call.args[0]
            name = getattr(arg.func if isinstance(arg, ast.Call) else arg, "id", None)
            enclosing = scope[call]
            for depth in range(len(enclosing), -1, -1):
                if name and enclosing[:depth] + (name,) in defs:
                    path = enclosing[:depth] + (name,)
                    yield module, ".".join(path), defs[path]
                    break


def test_in_batch_folds_go_through_combine():
    """A function passed to ``map_batches`` folds its batch per key with
    ``core.exchange.combine``: outside ``core/`` none calls
    ``.groupby(`` except the allowlisted ones, and each of those still
    does."""
    folds = {
        (module, name)
        for module, name, fn in _map_batches_udfs()
        if any(isinstance(n, ast.Call) and _method(n) == "groupby" for n in ast.walk(fn))
    }
    stray = sorted(f"{module} {name}" for module, name in folds - set(_OWN_IN_BATCH_FOLDS))
    assert not stray, "fold these batches with core.exchange.combine:\n" + "\n".join(stray)
    assert folds == set(_OWN_IN_BATCH_FOLDS)


def test_combine_folds_each_key_to_one_row():
    """Sum, min, max and a mixed map; one key and two; keys first, types
    kept; a null key's row dropped, as pandas' ``groupby`` drops it; an
    empty table folds to an empty table of the same schema."""
    t = pa.table(
        {
            "v": pa.array([1, _BIG, 3, 4, 5], pa.int64()),
            "k": pa.array(["a", "b", None, "a", "b"]),
            "j": pa.array([1, 1, 1, 2, 1], pa.int64()),
        }
    )
    one = t.drop_columns("j")
    for how, want in (("sum", [5, _BIG + 5]), ("min", [1, 5]), ("max", [4, _BIG])):
        got = combine(one, "k", how)
        assert got.schema == pa.schema({"k": pa.string(), "v": pa.int64()})
        assert got.to_pydict() == {"k": ["a", "b"], "v": want}
    two = combine(t, ["k", "j"], "sum")
    assert two.column_names == ["k", "j", "v"]
    assert sorted(zip(*two.to_pydict().values())) == [("a", 1, 1), ("a", 2, 4), ("b", 1, _BIG + 5)]
    mixed = combine(t.append_column("w", t["v"]), "j", {"k": "max", "v": "min", "w": "sum"})
    assert mixed.to_pydict() == {"j": [1, 2], "k": ["b", "a"], "v": [1, 4], "w": [_BIG + 9, 4]}
    empty = combine(one.slice(0, 0), "k", "sum")
    assert empty.num_rows == 0 and empty.schema == pa.schema({"k": pa.string(), "v": pa.int64()})


def test_label_propagation_without_edges_keeps_its_columns():
    """With no edges there are no clusters: zero rows of the two int64
    columns, as the SQL oracle returns them."""
    import ray.data

    from pdf_parser_ray.stages.dedup import label_propagation_clusters

    no_edges = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    got = label_propagation_clusters(ray.data.from_arrow(no_edges)).to_pandas()
    assert list(got.columns) == ["doc_id", "cluster_rep"]
    assert len(got) == 0 and all(str(t) == "int64" for t in got.dtypes)


def test_message_round_sums_and_mins_messages_per_node():
    """The first round has no state; a later one meets the state by the
    static key. Messages are combined per node, in the task and across
    tasks, and the state is capped at ``n_buckets`` blocks."""
    import ray.data

    from pdf_parser_ray.core.exchange import message_round

    edges = ray.data.from_arrow(
        pa.table({"src": pa.array([1, 1, 2, 3, 3, 3], pa.int64()), "dst": pa.array([2, 3, 3, 1, 2, 4], pa.int64())})
    ).materialize()

    def in_degree(e, st):
        assert st is None
        return pa.table({"node": e["dst"], "val": pa.array([1] * e.num_rows, pa.int64())})

    deg = message_round(edges, "src", None, in_degree, "sum", n_buckets=3)
    assert deg.num_blocks() <= 3
    assert dict(deg.to_pandas().values.tolist()) == {1: 1, 2: 2, 3: 2, 4: 1}

    def min_in_neighbour(e, st):
        j = e.join(st, keys="src", right_keys="node")
        return pa.table({"node": j["dst"], "val": pc.multiply(j["src"], j["val"])})

    state = ray.data.from_arrow(pa.table({"node": pa.array([1, 2, 3], pa.int64()), "val": pa.array([5, 6, 7], pa.int64())}))
    got = message_round(edges, "src", state, min_in_neighbour, "min", n_buckets=3)
    assert got.num_blocks() <= 3
    assert dict(got.to_pandas().values.tolist()) == {1: 21, 2: 5, 3: 5, 4: 21}
    with pytest.raises(ValueError, match="combine"):
        message_round(edges, "src", None, in_degree, "max", n_buckets=3)


def _purchase_graph(d: pathlib.Path) -> str:
    """Three customers buying from three suppliers through four orders."""
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"o_orderkey": pa.array([1, 2, 3, 4], pa.int64()), "o_custkey": pa.array([1, 2, 2, 3], pa.int64())}),
        str(d / "orders.parquet"),
    )
    pq.write_table(
        pa.table({"l_orderkey": pa.array([1, 2, 3, 3, 4], pa.int64()), "l_suppkey": pa.array([1, 1, 2, 3, 3], pa.int64())}),
        str(d / "lineitem.parquet"),
    )
    return str(d)


def _chain_components(_sf):
    import ray.data

    from pdf_parser_ray.stages.dedup import label_propagation_clusters

    chain = pa.table({"doc_a": pa.array([1, 2, 3, 4], pa.int64()), "doc_b": pa.array([2, 3, 4, 5], pa.int64())})
    return label_propagation_clusters(ray.data.from_arrow(chain))


def _pagerank(sf):
    from pdf_parser_ray.stages.graph import q_purchase_pagerank

    return q_purchase_pagerank(sf, n_buckets=4)


def _hits(sf):
    from pdf_parser_ray.stages.graph import q_hits_scores

    return q_hits_scores(sf, n_buckets=4)


# query, its state's bucket count, the rounds it materializes at least
# (label propagation's 16 buckets are fixed; the chain of diameter 4
# takes 5 rounds)
_LOOPS = {
    "label_propagation": (_chain_components, 16, 5),
    "pagerank": (_pagerank, 4, 5),
    "hits": (_hits, 4, 10),
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_loop_state_stays_at_n_buckets_blocks(name, tmp_path, monkeypatch):
    """After its static side (the first Dataset it materializes), every
    Dataset an iterative query materializes, its state after each
    round, has at most ``n_buckets`` blocks: an uncapped shuffle output
    feeds its block count into the next round and compounds it (1, 3,
    7, 15, 31 label blocks on this chain before the cap)."""
    import ray.data

    run, n_buckets, rounds = _LOOPS[name]
    blocks = []
    real = ray.data.Dataset.materialize

    def spy(self):
        out = real(self)
        blocks.append(out.num_blocks())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
    assert run(_purchase_graph(tmp_path)).count() > 0
    states = blocks[1:]
    assert len(states) >= rounds
    assert max(states) <= n_buckets, blocks
