"""Degenerate-fixture robustness sweep (r4 ADVICE item: empty domains).

Runs EVERY registry query against a 3-rows-per-table slice of sf0.001 —
small enough that most predicates select nothing, most exchanges carry
zero rows, and referential integrity dangles.  The contract under test:
empty in → typed empty (or zero-row summary) out, NEVER an exception.
This is the failure mode a real 100-TB run hits on its emptiest
partition, not its densest.

    python tools/tiny_sweep.py [query ...]      # default: all

Exit 0 when every query completes; 1 with the crash list otherwise.
Failures also land in /tmp/tiny_sweep_failures.json.
"""
from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow.parquet as pq

SRC = os.environ.get("TINY_SWEEP_SRC", "/root/testdata/sf0.001")
DST = "/tmp/sf-tiny"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def build_fixture() -> None:
    os.makedirs(DST, exist_ok=True)
    for t in TABLES:
        out = f"{DST}/{t}.parquet"
        if not os.path.exists(out):
            pq.write_table(pq.read_table(f"{SRC}/{t}.parquet").slice(0, 3),
                           out)


def main() -> None:
    build_fixture()
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from diffdataflowmlpipelines_ray.pipelines.queries import QUERIES

    failures: dict[str, str] = {}
    names = sys.argv[1:] or sorted(QUERIES)
    for i, name in enumerate(names):
        t0 = time.perf_counter()
        try:
            out = QUERIES[name](DST)
            n = len(out) if hasattr(out, "__len__") else out.count()
            status = f"ok rows={n}"
        except Exception as ex:  # noqa: BLE001 — record, keep sweeping
            failures[name] = f"{type(ex).__name__}: {ex}"[:300]
            status = "CRASH " + failures[name][:120]
        print(f"[{i + 1}/{len(names)}] {name:30s} "
              f"{time.perf_counter() - t0:5.1f}s {status}", flush=True)
    ray.shutdown()
    json.dump(failures, open("/tmp/tiny_sweep_failures.json", "w"),
              indent=1)
    print(f"\n{len(failures)} crashes:", sorted(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
