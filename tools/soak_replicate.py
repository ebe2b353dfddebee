"""10x-replicate soak (VERDICT r3 item 3): run the most expensive gate
queries on a 10x-replicated sf0.1 fixture (ids shifted per copy so keys
stay distinct and FKs consistent) and record wall + driver max-RSS.
Pass/fail rule: wall(10x) <= 2 x 10 x wall(1x) per query, flat driver RSS
(the workers hold the data; the driver must not).

    python tools/soak_replicate.py [replicate] [query ...]
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SHIFT = 100_000_000  # id shift per copy; far above any sf0.1 key range

# id-bearing columns per table (shifted by copy*SHIFT to keep keys
# distinct AND foreign keys consistent across the copy)
ID_COLS = {
    "region": ["r_regionkey"],
    "nation": ["n_nationkey", "n_regionkey"],
    "customer": ["c_custkey", "c_nationkey"],
    "supplier": ["s_suppkey", "s_nationkey"],
    "part": ["p_partkey"],
    "orders": ["o_orderkey", "o_custkey"],
    "lineitem": ["l_orderkey", "l_partkey", "l_suppkey"],
    "events": ["event_id", "user_id"],
    "documents": ["doc_id"],
    "embeddings": ["vec_id"],
}

# the most expensive BENCH_r03 queries (descending wall), EXCLUDING the
# wedge-quadratic graph workloads (adamic_adar, local_clustering,
# clustering_coeff, triangle_count, edge_support): their fixture graphs
# derive one endpoint via `orderkey % 1500`, so replication multiplies
# the 1500 shared hub degrees by `replicate` and wedge fan-out by
# replicate^2 — the WORKLOAD is superlinear in the replicate factor by
# construction (deg^2 wedges), which is the documented bounded-degree /
# star-cap assumption of those operators, not an engine scaling
# pathology.  A linear-scale soak over them needs a structure-preserving
# replica (disjoint graphs), which the modulo-space fixture cannot give.
DEFAULT_QUERIES = [
    "fuzzy_join", "part_profit", "assoc_rules",
    "merge_upsert",
    "supplier_cnt", "als_factors", "returned_items",
    "kbins_quantile", "stickiness", "nelson_aalen",
    "top_supplier_revenue",
    "dormant_customers", "disjunctive_revenue",
    "pareto_share", "session_early_firing", "kaplan_meier",
    "profile_table", "market_share", "large_volume_orders",
    "stream_join", "bloom_semi_join", "gbdt_predict",
    "cohort_retention", "weighted_median", "ks_test",
    # the star-capped wedge variant IS linear-scale safe on hubbed
    # replicas (fan-out <= C^2 per center) -- the scale path for the
    # excluded uncapped graph family
    "adamic_adar_capped",
]


def build_replica(src: str, dst: str, replicate: int) -> None:
    os.makedirs(dst, exist_ok=True)
    for table, idcols in ID_COLS.items():
        out = f"{dst}/{table}.parquet"
        if os.path.exists(out):
            continue
        tbl = pq.read_table(f"{src}/{table}.parquet")
        copies = []
        for r in range(replicate):
            t = tbl
            for c in idcols:
                col = t[c].to_numpy(zero_copy_only=False)
                arr = pa.array(col.astype(np.int64) + r * SHIFT,
                               type=t.schema.field(c).type)
                t = t.set_column(t.schema.get_field_index(c), c, arr)
            copies.append(t)
        pq.write_table(pa.concat_tables(copies), out)
        print(f"built {table}: {tbl.num_rows} -> {tbl.num_rows*replicate}",
              flush=True)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: driver max-RSS ceiling (MB) asserted after EVERY query (r4 verdict
#: item 4: the r4 soak peaked at 3.7 GB silently — superlinear driver
#: memory must fail the soak loudly, before a cluster finds it).  The
#: limit is for the DRIVER: workers hold the data, the driver must hold
#: only O(result + merge partials).  Override: SOAK_RSS_CEILING_MB.
RSS_CEILING_MB = float(os.environ.get("SOAK_RSS_CEILING_MB", 4096))


def main():
    replicate = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    names = sys.argv[2:] or DEFAULT_QUERIES
    src = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    dst = f"/tmp/ddmlp-sfx{replicate}"
    build_replica(src, dst, replicate)

    import ray
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from diffdataflowmlpipelines_ray.pipelines.queries import QUERIES

    results = {}
    for name in names:
        r0 = rss_mb()
        t0 = time.perf_counter()
        try:
            out = QUERIES[name](dst)
            n = len(out) if hasattr(out, "__len__") else out.count()
            err = None
        except Exception as exc:  # record, keep soaking
            n, err = -1, f"{type(exc).__name__}: {exc}"[:200]
        wall = time.perf_counter() - t0
        r1 = rss_mb()
        if err is None and r1 > RSS_CEILING_MB:
            err = (f"RSS ceiling: driver max-RSS {r1:.0f}MB > "
                   f"{RSS_CEILING_MB:.0f}MB after {name}")
        results[name] = {"wall": round(wall, 2), "rows": int(n),
                         "rss_before_mb": round(r0, 1),
                         "rss_after_mb": round(r1, 1),
                         "err": err}
        print(f"{name:28s} {wall:8.2f}s rows={n} "
              f"rss={results[name]['rss_after_mb']}MB"
              + (f" ERR {err}" if err else ""), flush=True)
    ray.shutdown()
    with open(f"/tmp/soak_x{replicate}.json", "w") as f:
        json.dump(results, f, indent=1)
    failed = [k for k, v in results.items() if v["err"]]
    print("SOAK DONE ->", f"/tmp/soak_x{replicate}.json",
          f"({len(failed)} failures: {failed})" if failed else "(all OK)")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
