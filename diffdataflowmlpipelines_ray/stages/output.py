"""Resumable partitioned Parquet output for batch pipelines.

The streaming sink gives per-epoch exactly-once commits; this gives the same
property to batch jobs: the output directory is split into N partitions,
each committed atomically under its own manifest, so a failed run re-executes
ONLY the unfinished partitions ("never one giant file", SURVEY §4
"Checkpoint / resume").
"""

from __future__ import annotations

from pathlib import Path

from ..streaming.sink import ExactlyOnceParquetSink

__all__ = ["resumable_write_parquet"]


def resumable_write_parquet(ds, root: str | Path,
                            num_partitions: int = 16) -> dict:
    """Write a Dataset as ``num_partitions`` atomically-committed partitions.

    Re-running on the same root skips already-committed partitions (their
    upstream slice is still *scheduled* by Ray but never re-written or
    double-counted).  Every part's manifest entry carries its sha256, so
    ``ExactlyOnceParquetSink(root).verify()`` audits content, not just
    sizes.  Returns {written, skipped, rows}.
    """
    sink = ExactlyOnceParquetSink(root)
    done = set(sink.committed_epochs())
    if num_partitions <= 1:
        parts = [ds]
    else:
        parts = ds.split_proportionately([1.0 / num_partitions] * (num_partitions - 1))
    written = skipped = 0
    for i, part in enumerate(parts):
        if i in done:
            skipped += 1
            continue
        sink.commit_dataset(i, part, meta={"partition": i})
        written += 1
    return {
        "written": written,
        "skipped": skipped,
        "rows": sink.total_rows(),
        "root": str(root),
    }
