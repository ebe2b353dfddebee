"""Flagship pipeline: incremental encoding of a tokenized-sequence stream.

End-to-end shape (the north star's target workload):

    documents.parquet ──derive──▶ (doc_id, tokens:list<int32>, n_tok, source)
        └─ split into E micro-batch epochs (the unbounded stream)
            └─ per epoch:
                 • incremental encoder fit-update in sharded actor state
                   (StandardScaler on n_tok + OneHot on source — the
                   reference's demo config shape, src/main.rs:62-68)
                 • vectorized token features: hash-bucket counts over the
                   int32 token ids + a rolling-hash fingerprint per doc
                 • per-source windowed token throughput aggregate
                 • exactly-once commit of encoded rows (epoch manifests)

Returns counters for the bench harness (sequences/sec, tokens/sec are
computed by the caller from wall time).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa

from ..stages.encoders import OneHotEncoder, StandardScaler
from ..sources.tokenized import epoch_datasets, tokenized_dataset
from ..streaming.encoders import IncrementalEncoderSession

__all__ = ["token_features_table", "run_flagship"]

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


def token_features_table(tbl: pa.Table, n_buckets: int = 64) -> pa.Table:
    """Vectorized per-sequence token features.

    - ``tok_buckets``: list<float32> of token-id counts hashed into
      ``n_buckets`` (a HashVectorizer over int tokens — no string round-trip)
    - ``fingerprint``: order-sensitive FNV-1a-style rolling hash of the token
      array (document fingerprint; deterministic, uint64 stored as int64)
    """
    tokens = tbl["tokens"]
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    offsets = tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = tokens.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(tbl)
    lengths = np.diff(offsets)
    row_ids = np.repeat(np.arange(n), lengths)
    # a power of two masks instead of dividing: in two's complement
    # ``x & (n - 1)`` is the floor modulo, negative ids included
    if n_buckets & (n_buckets - 1) == 0:
        bucket = flat & (n_buckets - 1)
    else:
        bucket = flat % n_buckets
    # float32: bucket counts are small integers (exact < 2^24) and the
    # buckets column dominates sink bytes — half-width halves the write
    dense = np.bincount(row_ids * n_buckets + bucket,
                        minlength=n * n_buckets).astype(np.float32)
    # rolling hash: h = (h ^ t) * prime per token, segmented per row; rows
    # are independent, so vectorize over the *position within row*: iterate
    # max_len times over columns of the ragged matrix.  With the rows sorted
    # longest first, the rows still live at position j are a prefix h[:c]
    fp = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if flat.size:
        order = np.argsort(-lengths, kind="stable")
        by_len = lengths[order]
        starts = offsets[:-1][order]
        tok_u64 = flat.view(np.uint64)  # wraps like astype, no copy
        # live[j] = rows longer than j (by_len descends)
        live = np.searchsorted(-by_len, -np.arange(int(by_len[0])), side="left")
        h = fp.copy()
        for j, c in enumerate(live.tolist()):
            h[:c] = (h[:c] ^ tok_u64[starts[:c] + j]) * _FNV_PRIME
        fp[order] = h
    offs = pa.array(np.arange(0, (n + 1) * n_buckets, n_buckets,
                              dtype=np.int32))
    buckets_col = pa.ListArray.from_arrays(offs, pa.array(dense))
    return (
        tbl.append_column("tok_buckets", buckets_col)
        .append_column("fingerprint", pa.array(fp.astype(np.int64)))
    )


def run_flagship(sf_dir: str, root: str | Path, n_epochs: int = 4,
                 num_shards: int = 4, n_buckets: int = 64,
                 replicate: int = 1, parallelism: int | None = None,
                 window_agg: bool = True,
                 hot_source_frac: float | None = None,
                 sync_every: int = 1) -> dict:
    """Run the full flagship stream; returns counters + the session.

    Alongside the incremental encoders, a watermark-driven tumbling-window
    aggregate (per-source sequence/token throughput, one window per epoch —
    the reference's epochs ARE degenerate tumbling windows, SURVEY §2.1)
    runs over the same stream and commits to its own exactly-once sink.
    """
    ds = tokenized_dataset(sf_dir, replicate=replicate, parallelism=parallelism,
                           hot_source_frac=hot_source_frac)
    # materialize the tokenized stream once; epochs stream from the object
    # store (a real deployment reads one parquet directory per epoch)
    epochs = epoch_datasets(ds.materialize(), n_epochs)

    session = IncrementalEncoderSession(
        config=[("n_tok", StandardScaler(round_to=(-2, 0))), ("source", OneHotEncoder())],
        root=root,
        num_shards=num_shards,
        keep_input=False,
        # the sink carries the encoded product (features + fingerprint +
        # sequence metadata), not the raw tokens — sink bytes, not compute,
        # are the single-node bottleneck
        output_cols=["n_tok", "source", "fingerprint"],
        # token features are fused into the encode pass (computed distributed,
        # not archived)
        pre_transform=lambda t: token_features_table(t, n_buckets),
        # the tokenized source is durable parquet — replay re-reads it, no
        # engine-side input archive needed
        archive_input=False,
        # sync_every=K > 1: group-commit mode for high-rate micro-batch
        # deployments (ExactlyOnceParquetSink docs); default = per-epoch
        # fsync (4 big epochs → the barrier cadence is irrelevant here)
        sync_every=sync_every,
        # windowed per-source throughput aggregate FUSED into the same
        # partial scan as the encoder fit (epoch == tumbling window — the
        # reference's degenerate windowing, SURVEY §2.1); zero extra passes
        epoch_aggs=(
            [{"name": "tokens_by_source", "key_cols": ["source"],
              "value_col": "n_tok", "aggs": ("count", "sum")}]
            if window_agg else []
        ),
    )
    start = session.resume()
    n_seq = 0
    source = f"{sf_dir}/documents.parquet"
    for e, epoch_ds in enumerate(epochs):
        if e < start:
            continue
        # input provenance stamped into every manifest this epoch commits:
        # which source slice produced which output partition (a real
        # deployment records the epoch's parquet paths/offsets here)
        manifest = session.process_epoch(e, epoch_ds, lineage={
            "source": source, "epoch": e, "n_epochs": n_epochs,
            "replicate": replicate, "split": "contiguous-by-rank",
        })
        n_seq += manifest["rows"]
    # token count: ONE distributed columnar sum over the committed output —
    # a per-epoch serial driver read here was pure non-scaling overhead
    import ray.data as rd

    n_tok_total = int(
        rd.read_parquet(session.sink.committed_files(), columns=["n_tok"])
        .sum("n_tok")
    )
    session.close()
    return {
        "sequences": n_seq,
        "tokens": n_tok_total,
        "epochs": n_epochs,
        "committed_epochs": session.sink.committed_epochs(),
        "output_rows": session.sink.total_rows(),
        "window_rows": (
            session.epoch_agg_sinks["tokens_by_source"].total_rows()
            if window_agg else 0
        ),
        "root": str(root),
    }
