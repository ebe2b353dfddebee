"""Tokenized-sequence source (the BASELINE.json ``input_hint`` table).

Canonical input schema::

    doc_id : string
    tokens : list<int32>
    n_tok  : int32
    source : string

Derivation is deterministic from the driver-provided ``documents`` table
(seed-free: token ids are stable hashes of the whitespace tokens modulo the
vocab), so every scale factor yields the same tokens for the same text —
the per-row invariant the driver checks is token-array equality.

``tokenized_dataset`` runs eagerly, as one plain Ray task per block (the
rule ``streaming/exchange.py`` follows for every epoch kernel), never as a
Ray Data execution: each task tokenizes one contiguous row range of the
file and reports its block's metadata too, and the result is a
``MaterializedDataset`` whose blocks are in file row order on every call.

Also provides the micro-batch (epoch) splitter: a deterministic partition of
a Dataset/table into K epochs by row position — the reference's
``advance_to``-delimited insertion batches (src/main.rs:489-513).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data._internal.util import get_table_block_metadata_schema

from ..functions.hashing import fast_hash64_array
from ..functions.tokenize import tokenize_column

__all__ = ["derive_tokenized", "tokenized_dataset", "epoch_tables", "epoch_datasets"]

VOCAB_SIZE = 32768


def derive_tokenized(tbl: pa.Table, vocab_size: int = VOCAB_SIZE) -> pa.Table:
    """documents(doc_id, text, source, …) → tokenized-sequence table."""
    toks = tokenize_column(tbl["text"])
    flat = toks.flatten()
    if len(flat):
        ids = (fast_hash64_array(flat) % np.uint64(vocab_size)).astype(np.int32)
    else:
        ids = np.array([], dtype=np.int32)
    tokens = pa.ListArray.from_arrays(toks.offsets, pa.array(ids, type=pa.int32()))
    n_tok = pc.cast(pc.list_value_length(tokens), pa.int32())
    doc_id = pc.cast(tbl["doc_id"], pa.string()) if not pa.types.is_string(
        tbl["doc_id"].type
    ) else tbl["doc_id"]
    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": n_tok,
            "source": tbl["source"],
        }
    )


# each task's row range is sized so that its block holds ~48k rows (≈2.5M
# tokens) AFTER replication: a fat block (10M+ tokens) blows a worker's heap
# and forces object-store spill, while too-small blocks pay task-launch
# overhead in every later per-block stage
_ROWS_PER_TASK = 49152


@ray.remote(num_returns=2)
def _tokenize_range(path: str, groups: list[int], offset: int, length: int,
                    vocab_size: int, replicate: int,
                    hot_source_frac: float | None):
    """One block: rows ``[offset, offset + length)`` of the row groups
    ``groups`` (offset counted from the first of them), tokenized, tiled
    ``replicate`` times, with the hot ``source`` rewrite.  Returns the
    block and its Ray Data metadata (``_materialized``)."""
    tbl = pq.ParquetFile(path).read_row_groups(
        groups, columns=["doc_id", "text", "source"]).slice(offset, length)
    # tokenize FIRST, then tile the tokenized rows: the string
    # tokenize+hash (the expensive part) runs once per distinct doc, not
    # once per replica; copies share identical token arrays by
    # construction (the determinism the bench relies on)
    tok = derive_tokenized(tbl, vocab_size)
    if replicate > 1:
        n = tok.num_rows
        idx = np.tile(np.arange(n, dtype=np.int64), replicate)
        tok = tok.take(pa.array(idx))
        rep_tag = pa.array(
            np.repeat(np.arange(replicate, dtype=np.int64), n).astype(str)
        )
        new_id = pc.binary_join_element_wise(rep_tag, tok["doc_id"], "_")
        tok = tok.set_column(
            tok.schema.get_field_index("doc_id"), "doc_id", new_id
        )
    if hot_source_frac:
        # deterministic by doc_id hash: the same rows are hot on every
        # run and at every parallelism; Arrow if_else, no Python rows
        h = fast_hash64_array(tok["doc_id"], seed=7)
        hot = pa.array((h % np.uint64(1000))
                       < np.uint64(int(hot_source_frac * 1000)))
        src = pc.if_else(hot, pa.scalar("web"), tok["source"])
        tok = tok.set_column(
            tok.schema.get_field_index("source"), "source", src)
    return tok, get_table_block_metadata_schema(tok)


def _materialized(blocks: list, metas: list):
    """``ray.data.from_arrow_refs(blocks)`` minus its metadata task.

    ``from_arrow_refs`` runs one more task per block that fetches the block
    again only to compute this metadata; ``_tokenize_range`` already returns
    it beside the block, so this builds the same plan from it."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None),
                         DataContext.get_current().copy())
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow(blocks, metas), plan._context))


def tokenized_dataset(sf_dir: str, vocab_size: int = VOCAB_SIZE,
                      replicate: int = 1, parallelism: int | None = None,
                      hot_source_frac: float | None = None):
    """``MaterializedDataset`` of tokenized sequences derived from
    ``documents.parquet``, blocks in file row order.

    Runs eagerly as one Ray task per block: each task reads only the row
    groups that overlap its contiguous row range (three columns), tokenizes
    the range and tiles it.  The ranges are as even as possible (sizes
    differ by at most one row); there are ``max(parallelism,
    ceil(rows × replicate / 49152))`` of them, so a block holds about 48k
    rows after replication, and ``parallelism`` fans a small file out
    across the cluster.  Every caller reads all of it, so running eagerly
    gives up no laziness.  ``.materialize()`` on the result runs no task,
    but it is not free: Ray Data deep-copies the plan and registers two
    Datasets with its stats actor (a few ms of driver and actor CPU).

    ``replicate`` synthesizes an N×-larger corpus (distinct doc_ids per copy,
    identical token arrays — deterministic) for throughput benchmarking;
    each block holds its range's copies one after another.

    ``hot_source_frac``: deterministically rewrite that fraction of rows'
    ``source`` to one hot key (``"web"``) — the skew-stress input for the
    keyed window aggregate / OneHot fit / shard state paths (BASELINE.md
    skew bench).  The hot rows depend on the doc_id only, not on
    ``parallelism``.
    """
    path = f"{sf_dir}/documents.parquet"
    meta = pq.read_metadata(path)
    n = meta.num_rows
    group_start = np.cumsum(
        [0] + [meta.row_group(g).num_rows for g in range(meta.num_row_groups)])
    blocks = max(parallelism or 0, math.ceil(n * replicate / _ROWS_PER_TASK), 1)
    # the first n % blocks ranges take the extra row
    q, r = divmod(n, blocks)
    bounds = [i * q + min(i, r) for i in range(blocks + 1)]
    refs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        # the row groups overlapping [a, b): the last one starting at or
        # before a up to the last one starting before b (none if a == b == n)
        g0 = int(np.searchsorted(group_start, a, side="right")) - 1
        g1 = int(np.searchsorted(group_start, b, side="left"))
        refs.append(_tokenize_range.remote(
            path, list(range(g0, g1)), a - int(group_start[g0]), b - a,
            vocab_size, replicate, hot_source_frac))
    blocks, metas = zip(*refs)
    return _materialized(list(blocks), ray.get(list(metas)))


def epoch_tables(tbl: pa.Table, n_epochs: int) -> list[pa.Table]:
    """Deterministic contiguous split into micro-batches (epochs)."""
    bounds = np.linspace(0, tbl.num_rows, n_epochs + 1).astype(int)
    return [tbl.slice(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]


def epoch_datasets(ds, n_epochs: int) -> list:
    """Split a Dataset into epoch Datasets with ``split_proportionately``
    (stays distributed; no driver materialization)."""
    if n_epochs <= 1:
        return [ds]
    return ds.split_proportionately([1.0 / n_epochs] * (n_epochs - 1))
