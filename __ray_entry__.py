"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB.

Nothing here (or in the library) calls ``ray.init``/``ray.shutdown`` — the
caller owns the session.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: tokenized-sequence stream
    → token features → incremental encoders → exactly-once sink; returns the
    committed encoded output as a Ray Dataset."""
    from diffdataflowmlpipelines_ray.pipelines.flagship import run_flagship
    from diffdataflowmlpipelines_ray.streaming.sink import ExactlyOnceParquetSink

    root = tempfile.mkdtemp(prefix="ddmlp-entry-", dir="/tmp")
    run_flagship("/root/testdata/sf0.001", root, n_epochs=3, num_shards=2)
    sink = ExactlyOnceParquetSink(f"{root}/encoded")
    return sink.read_committed()


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 plus the
    added scale operators (dedup / windows / relational and graph
    analytics)."""
    from diffdataflowmlpipelines_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query; seeded or
    approximate fits (k-means, GMM, ALS, PCA, logistic regression),
    sampling and Parquet storage telemetry are rows-only checked."""
    from diffdataflowmlpipelines_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
