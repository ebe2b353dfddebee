"""Benchmark harness — prints ONE JSON line.

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "sequences_per_sec": ..., "tokens_per_sec": ...}

Headline: the flagship tokenized-sequence stream (derive → token features →
incremental encoders in sharded actor state → exactly-once Parquet sink),
over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) with
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` (default 32).
The documents table is replicated ``$GRAFT_BENCH_REPLICATE``× (default 240)
so the stream carries enough tokens to measure sustained throughput rather
than fixed overheads.

``--scaling``: runs the same job in fresh processes at 2 and 8 CPUs (the
N→4N pair; both below this box's shared-DRAM ceiling, see BASELINE.md) on
the same input, min over ``$GRAFT_SCALING_REPEATS`` repeats per point, and
reports both throughputs + scaling efficiency; recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def run_bench() -> dict:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "240"))
    if "--scaling-child" in sys.argv:
        # sized so the ~5 s of per-run serial cost (epoch commits, manifest
        # fsync, checkpoint) stays well under 10% of the 4N-point wall time —
        # the criterion measures streaming throughput scaling, not fixed cost
        replicate = int(os.environ.get("GRAFT_SCALING_REPLICATE", "4800"))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from diffdataflowmlpipelines_ray.pipelines.flagship import run_flagship
    from diffdataflowmlpipelines_ray.pipelines import queries as Q

    # warm the Ray workers (spawn + library imports) with one small untimed
    # pass of the same pipeline ops — we measure sustained throughput
    from diffdataflowmlpipelines_ray.sources.tokenized import tokenized_dataset

    tokenized_dataset(sf_dir, replicate=1, parallelism=num_cpus * 2).materialize()
    # warm the page cache so we measure compute+shuffle, not first disk read
    import pyarrow.parquet as pq

    for t in ("documents", "lineitem", "events", "embeddings", "orders"):
        pq.read_table(f"{sf_dir}/{t}.parquet")

    window_agg = os.environ.get("GRAFT_FLAGSHIP_WINDOW", "1") != "0"
    reps = 1 if "--scaling-child" in sys.argv else 3
    walls, res = [], None
    for _ in range(reps):  # min over repeats (headline too): single runs
        root = tempfile.mkdtemp(prefix="ddmlp-bench-", dir="/tmp")  # vary ±30%
        t0 = time.perf_counter()
        res = run_flagship(sf_dir, root, n_epochs=4,
                           num_shards=max(2, num_cpus // 4),
                           replicate=replicate, parallelism=num_cpus * 2,
                           window_agg=window_agg)
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(root, ignore_errors=True)
    headline = min(walls)
    # honest companion to the min-of-N headline (r4 verdict): the median
    # over the same repeats — sustained rather than best-case wall
    walls.sort()
    headline_median = walls[len(walls) // 2]

    per_query = {}
    query_names = () if "--scaling-child" in sys.argv else (
        "q1_pricing_summary", "standard_scaler", "tumbling_window",
        "stream_join", "dedup_minhash", "dedup_exact", "pattern_match",
        "top_revenue", "sessionize",
        # round-3 additions
        "connected_components", "absence_detect", "hash_vectorizer_fast",
        "upsert_changelog", "cdc_groupby", "agg_changelog", "cdc_scaler",
        "retractable_minmax", "cdc_join", "distinct_changelog",
        "retractable_topk", "changelog_compact", "cdc_matview",
        "lineage_audit", "resume_replay", "stream_metrics",
        "retractable_median", "retractable_ndistinct",
        "stream_full_outer_join", "token_stream_agg", "early_firing",
        "retractable_session", "cdc_tfidf", "session_early_firing",
        "early_firing_sliding", "incremental_pagerank",
        "windowed_stream_join", "retractable_quantile",
        "retractable_mode", "stream_near_dup", "early_firing_topk",
        "retractable_stringagg", "rescale_resume", "time_travel",
        "shared_arrangement", "view_bootstrap",
        "window_rollup",
        # round-3 continued-session additions
        "bloom_semi_join", "fuzzy_join", "triangle_count", "keywords_tfidf",
        "grouped_entropy", "grouped_linreg", "window_median",
        "late_routing", "stream_union", "kleene_pattern",
        "incremental_components", "pack_sequences", "pagerank_exact",
        "cap_per_group", "late_window_split", "hist_tree",
        "hist_boost", "als_factors", "kbins_quantile", "shuffle_rank",
        "profile_table", "psi_drift", "unpivot", "hits",
        "validate_rules", "kaplan_meier", "gini", "isotonic",
        "markov_transitions", "auc", "assoc_rules", "info_gain",
        "cohort_retention", "chi_square", "funnel", "gmm_fit",
        "weighted_median", "ks_test", "conformal", "spearman", "benford",
        "source_overlap", "stickiness", "interarrival", "anomaly_days",
        "pareto_share", "new_vs_returning", "engagement_depth",
        "gbdt_predict", "rfm", "zipf_alpha", "ab_test",
        "user_streaks", "interval_merge", "scd2_build", "autocorr",
        "max_drawdown", "welch_ttest", "anova_f", "kendall_tau",
        "cramers_v", "mutual_info", "hhi", "trimmed_mean",
        "lorenz_deciles", "rrf_fusion", "dow_profile", "theil_index",
        "tokenizer_fertility", "brand_dense_rank", "ngram_novelty",
        "decayed_count", "stream_join3", "cusum", "item_cf", "flesch",
        "adamic_adar", "ewma", "holt_linear", "mad_outlier_days",
        "lift_curve", "session_durations", "peak_concurrency",
        "winsorized_mean", "clustering_coeff",
        "ngram_containment", "grouping_sets", "bollinger_days",
        "range_rolling", "dbscan",
        "local_supplier_volume", "returned_items", "silhouette",
        "funnel3", "seasonal_trend", "sssp_bounded",
        "merge_upsert", "k_anonymity", "twap",
        "clamped_balance", "theil_sen", "funnel_timed",
        "entity_resolution", "grouped_weighted_median",
        "reconcile", "table_checksum", "overlap_seconds",
        "nation_volume", "fk_audit", "gopher_rules", "time_in_state",
        "cycle_time",
        # TPC-H shape completion (Q2/Q4/Q6/Q8/Q9/Q11-Q22 adaptations)
        "late_order_priority", "late_line_priority",
        "order_count_distribution", "promo_revenue_share",
        "small_qty_revenue", "disjunctive_revenue", "supplier_cnt",
        "large_volume_orders", "waiting_supplier", "dormant_customers",
        "cheapest_supplier", "forecast_revenue", "top_supplier_revenue",
        "market_share", "part_value_concentration",
        "halfshipped_suppliers", "part_profit",
        "degree_assortativity", "shared_scan_report", "fifo_matching",
        "stream_seq_gaps", "holt_winters",
        # round-3 fifth continued session additions
        "label_propagation", "ohlc_bars", "org_rollup", "mann_whitney",
        "rsi", "activation_time", "pruned_scan", "top_paths",
        "stream_throttle", "join_size", "gap_fill", "l_diversity",
        "all_terms_search", "cohort_ltv", "source_precedence",
        "mean_shift_split", "bounce_rate", "error_budget", "cuped",
        "bitemporal_asof", "skew_audit",
        "padding_efficiency", "diff_in_diff", "burstiness",
        "token_prefix_dedup", "storage_audit", "local_clustering",
        "nelson_aalen", "jarque_bera", "emd_lengths",
        "path_product", "pettitt", "runs_test",
        "zorder_layout", "simpson_diversity", "forecast_eval",
        "rate_alert", "oov_rate", "rich_club",
        "ks_by_source", "shapley_attribution", "first_last_flow",
        "permutation_test", "variance_ratio", "emerging_terms",
        "join_blame", "except_all", "consistent_hash_rebalance",
        "graph_modularity", "fd_discovery", "vocab_coverage",
        "table_diff", "nearest_event", "sample_calibration",
        "dominant_period", "transition_gaps",
        "lead_lag", "edge_support", "dup_histogram",
        "t_closeness", "cohens_kappa", "heatmap_residuals",
        "mann_kendall", "capture_recapture", "hapax_rate",
        "shipping_delay", "abc_classification", "rev_recognition",
        "partition_advisor", "wilson_bound", "mttr_mtbf",
        "queue_wait", "embedding_drift", "mahalanobis_days",
        "dtw_profiles", "source_similarity", "order_checksum",
        "good_turing", "ratio_metric", "adjusted_anomaly",
        "logrank", "jsd_sources", "policy_replay",
        "apportionment", "topk_stability", "entropy_rate",
        "newsvendor", "iv_wald", "lang_purity", "stream_rate_alert",
        "dhondt", "theil_decomposition", "kendall_w",
        "next_token_acc", "durbin_watson", "ts_collision_audit",
        "post_stratification", "routine_entropy", "join_order_audit",
        "quantile_effect", "disparate_impact", "position_bias",
        "churn_backtest", "peak_detection", "venn_sources",
        "croston", "last_digit", "safety_stock",
        "growth_accounting", "simpsons_paradox", "streak_record",
        "haar_energy", "session_sensitivity", "mde",
        "factorial_interaction", "sn_scale", "centralization",
        "pacing", "lm_comparison", "quadratic_contrast",
        "return_curve", "daily_range",
        "odds_ratio", "value_at_risk", "dedup_funnel",
        "risk_ratio_nnt", "user_halflife", "symm_diff",
        "type_comovement", "token_length_by_position", "round_number_bias",
        "sign_test", "moving_mode", "user_discovery",
        "next_token_cv", "split_half_reliability", "backlog_report",
        "source_predictability", "transition_latency", "ingest_disorder",
        "mood_median", "overdispersion", "arpdau",
        "tumbling_window_ds", "stream_join_ds", "hll_registers",
        "cms_counters", "bloom_bits", "adamic_adar_capped",
        "bottomk_sketch", "jsonl_roundtrip", "csv_roundtrip",
        "simhash_codes", "pivot_wide",
        "regex_extract",
        # r4 session-2 batches (all oracle-backed)
        "dedup_simhash", "token_id_freq_topk",
        "skipgram_pairs", "sax_motifs", "business_hours",
        "phrase_search", "quantile_normalize", "semimonthly_revenue",
        "median_polish", "l_moments", "blocking_quality",
        "hodges_lehmann", "bag_dedup", "team_draft_interleave",
        "activity_selection", "lru_hit_rate", "turning_points",
        "knapsack", "bin_packing_ffd", "friedman_page",
        "secretary_stopping", "market_clearing", "borda_condorcet",
        "stream_bag_dedup", "wilcoxon_signed", "german_tank",
        "lis_days", "ransac_line", "trapped_water",
        "convex_hull", "prime_keys", "collatz_depth",
        "gale_shapley", "kk_partition", "huffman_cost",
        "exact_linear_solve", "enrichment_test",
        "euler_path", "birthday_collisions",
        # r5 additions
        "cdc_groupby_ds", "stream_enrich_ds",
        "path_count_matrix", "max_flow_cut")
    for name in query_names:
        fn = Q.QUERIES[name]
        best = None
        for _ in range(2):  # min over repeats: interference-robust, same
            tq = time.perf_counter()  # estimator as --scaling (±2× single-run
            fn(sf_dir)  # variance observed on this multi-tenant box)
            dt = time.perf_counter() - tq
            best = dt if best is None else min(best, dt)
        per_query[name] = round(best, 3)

    out = {
        "metric": "flagship tokenized-stream wall time (4 epochs, exactly-once sink)",
        "value": round(headline, 3),
        "value_median_sec": round(headline_median, 3),
        "unit": "sec",
        "queries": per_query,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "sequences": res["sequences"],
        "tokens": res["tokens"],
        "sequences_per_sec": round(res["sequences"] / headline, 1),
        "tokens_per_sec": round(res["tokens"] / headline, 1),
    }
    if "--scaling-child" not in sys.argv:
        out.update(_stream_join_skew_row(Q, sf_dir))
    ray.shutdown()
    return out


def _stream_join_skew_row(Q, sf_dir: str) -> dict:
    """Per-round skew-regression row (r4 verdict item 9): the SAME
    `stream_join` gate query on a hot-key copy of the input — 30% of
    lineitem rows remapped to ONE orderkey, so one shard's probe side
    carries 30% of the stream — vs the uniform fixture.  Bar: skewed wall
    ≤ 1.5× uniform (the per-shard probe is vectorized and the hot key's
    output stays linear because the build side keeps one row per key)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    skew_dir = tempfile.mkdtemp(prefix="ddmlp-sjskew-", dir="/tmp")
    li = pq.read_table(f"{sf_dir}/lineitem.parquet")
    lk = li["l_orderkey"].to_numpy(zero_copy_only=False).astype("int64").copy()
    hot = int(lk[0])
    lk[np.arange(len(lk)) % 10 < 3] = hot  # 30% of rows → one key
    pq.write_table(
        li.set_column(li.schema.get_field_index("l_orderkey"),
                      "l_orderkey", pa.array(lk)),
        f"{skew_dir}/lineitem.parquet")
    os.symlink(os.path.abspath(f"{sf_dir}/orders.parquet"),
               f"{skew_dir}/orders.parquet")

    def once(d):
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            Q.QUERIES["stream_join"](d)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    uni = once(sf_dir)
    hot_s = once(skew_dir)
    shutil.rmtree(skew_dir, ignore_errors=True)
    return {
        "stream_join_uniform_sec": round(uni, 3),
        "stream_join_hotkey_sec": round(hot_s, 3),
        "stream_join_skew_ratio": round(hot_s / uni, 3),
    }


def run_scaling() -> dict:
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "2"))

    def one(ncpu: int) -> dict:
        # min over repeats: this box is multi-tenant and single runs vary
        # ±30%; the minimum is the standard interference-robust estimator
        best = None
        for _ in range(repeats):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
            out = subprocess.run(
                [sys.executable,
                 os.path.join(os.path.dirname(__file__) or ".", "bench.py"),
                 "--scaling-child"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            r = json.loads(out.strip().splitlines()[-1])
            if best is None or r["value"] < best["value"]:
                best = r
        return best

    # N→4N pair chosen below this single box's shared-DRAM ceiling (~8
    # workers saturate memory bandwidth for string/token processing; the
    # full 2→32 curve + a pure-CPU calibration are recorded in BASELINE.md —
    # on a multi-NODE cluster each node adds its own bandwidth, which is the
    # regime the north rule's N vs 4N criterion describes).
    lo, hi = 2, 8
    r_lo = one(lo)
    r_hi = one(hi)
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    return {
        "metric": "scaling efficiency N->4N (same input, fresh ray.init)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "tokens_per_sec_lo": r_lo["tokens_per_sec"],
        "tokens_per_sec_hi": r_hi["tokens_per_sec"],
        "scaling_efficiency": round(eff, 3),
    }


def run_skew() -> dict:
    """Skew-stress bench (BASELINE.md): the SAME flagship job on a uniform
    stream vs one with a 90%-hot ``source`` key, plus ``dedup_minhash`` on
    the fixture corpus vs one where 20% of docs are a single boilerplate
    paragraph (one giant LSH group → the star-cap path).  Pass bar: skewed
    throughput within 1.5× of uniform at the same scale."""
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "240"))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from diffdataflowmlpipelines_ray.pipelines import queries as Q
    from diffdataflowmlpipelines_ray.pipelines.flagship import run_flagship
    from diffdataflowmlpipelines_ray.sources.tokenized import tokenized_dataset

    tokenized_dataset(sf_dir, replicate=1,
                      parallelism=num_cpus * 2).materialize()  # warm pool

    def flagship_once(hot):
        best = None
        for _ in range(2):
            root = tempfile.mkdtemp(prefix="ddmlp-skew-", dir="/tmp")
            t0 = time.perf_counter()
            res = run_flagship(sf_dir, root, n_epochs=4,
                               num_shards=max(2, num_cpus // 4),
                               replicate=replicate,
                               parallelism=num_cpus * 2,
                               hot_source_frac=hot)
            dt = time.perf_counter() - t0
            shutil.rmtree(root, ignore_errors=True)
            best = dt if best is None else min(best, dt)
        return best, res

    # one UNTIMED full pass first: worker spawn + import + shuffle-pool
    # warmup otherwise lands entirely on whichever variant runs first
    warm_root = tempfile.mkdtemp(prefix="ddmlp-skew-", dir="/tmp")
    run_flagship(sf_dir, warm_root, n_epochs=4,
                 num_shards=max(2, num_cpus // 4),
                 replicate=max(1, replicate // 4),
                 parallelism=num_cpus * 2)
    shutil.rmtree(warm_root, ignore_errors=True)

    uni_s, res = flagship_once(None)
    hot_s, _ = flagship_once(0.9)

    # boilerplate-hot documents corpus for the dedup path
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    boiler = ("lorem ipsum boilerplate navigation footer subscribe to our "
              "newsletter terms of service privacy policy all rights "
              "reserved contact us about careers press")
    ids = docs["doc_id"].to_numpy(zero_copy_only=False)
    text = np.asarray(docs["text"].to_pylist(), dtype=object)
    text[ids % 5 == 0] = boiler
    skew_dir = tempfile.mkdtemp(prefix="ddmlp-skewdocs-", dir="/tmp")
    pq.write_table(
        docs.set_column(docs.schema.get_field_index("text"), "text",
                        pa.array(text, type=pa.string())),
        f"{skew_dir}/documents.parquet")

    def dedup_once(d):
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            Q.QUERIES["dedup_minhash"](d)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    dd_uni = dedup_once(sf_dir)
    dd_hot = dedup_once(skew_dir)
    shutil.rmtree(skew_dir, ignore_errors=True)

    out = {
        "metric": "skew stress: hot source key (90%) + boilerplate dedup (20%)",
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "flagship_uniform_sec": round(uni_s, 3),
        "flagship_hotkey_sec": round(hot_s, 3),
        "flagship_slowdown": round(hot_s / uni_s, 3),
        "sequences_per_sec_hot": round(res["sequences"] / hot_s, 1),
        "dedup_minhash_uniform_sec": round(dd_uni, 3),
        "dedup_minhash_boilerplate_sec": round(dd_hot, 3),
        "dedup_slowdown": round(dd_hot / dd_uni, 3),
    }
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--skew" in sys.argv:
        print(json.dumps(run_skew()))
    else:
        print(json.dumps(run_bench()))
