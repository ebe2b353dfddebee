"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry and its ``oracle_sql()`` twin on the same
sf dir, compares row count, column names, and order-insensitive values
(floats to 1e-9 after the queries' own rounding).  Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(mine: pd.DataFrame, oracle: pd.DataFrame) -> str:
    if len(mine) != len(oracle):
        return f"ROWS {len(mine)} vs {len(oracle)}"
    if sorted(mine.columns) != sorted(oracle.columns):
        return f"COLS {sorted(mine.columns)} vs {sorted(oracle.columns)}"
    a, b = canon(mine), canon(oracle)
    for c in a.columns:
        if np.issubdtype(a[c].dtype, np.floating) or np.issubdtype(
            b[c].dtype, np.floating
        ):
            if not np.allclose(a[c].astype(float), b[c].astype(float),
                               rtol=0, atol=1e-9, equal_nan=True):
                bad = np.nonzero(~np.isclose(a[c].astype(float), b[c].astype(float),
                                             rtol=0, atol=1e-9))[0][:3]
                return f"VALUES col={c} rows={bad.tolist()} mine={a[c].iloc[bad].tolist()} oracle={b[c].iloc[bad].tolist()}"
        else:
            if not (a[c].to_numpy() == b[c].to_numpy()).all():
                bad = np.nonzero(a[c].to_numpy() != b[c].to_numpy())[0][:3]
                return f"VALUES col={c} rows={bad.tolist()} mine={a[c].iloc[bad].tolist()} oracle={b[c].iloc[bad].tolist()}"
    return "OK"


def main():
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if not isinstance(res, pd.DataFrame):
                try:
                    res = res.to_pandas()
                except AttributeError:
                    res = res.to_pandas()
            dt = time.time() - t0
            if name in oracles:
                exp = con.sql(oracles[name]).df()
                verdict = compare(res, exp)
            else:
                verdict = f"rows-only ({len(res)} rows)"
            status = "FAIL " + verdict if verdict.startswith(("ROWS", "COLS", "VALUES")) else verdict
        except Exception as ex:  # noqa: BLE001
            dt = time.time() - t0
            status = f"ERROR {type(ex).__name__}: {ex}"
        line = f"{name:24s} {dt:6.1f}s  {status}"
        print(line, flush=True)
        if "FAIL" in status or "ERROR" in status:
            failures.append(name)
    ray.shutdown()
    print(f"\n{len(failures)} failures: {failures}" if failures else "\nALL OK")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
