"""Incremental feature encoding over epochs — the reference's program shape.

Reproduces the lifecycle of ``demo_presentation`` (src/main.rs:52-110) and
``diabetes_pipeline`` (src/pipelines/pipeline_3_diabetes.rs:12-60) on the
streaming engine: encoder fit-state is maintained incrementally across
micro-batch epochs (inserts AND retractions via a ``diff`` column), and each
epoch's rows are transformed against the state *including* that epoch — the
same-timestamp join semantics of DD (``data.join(&meta)`` at equal times,
standard_scaler.rs:109-113).

State residency: every encoder's accumulator lives in the sharded actor
store under key ``(encoder_index,)`` (the reference's arranged fit-state
collections, SURVEY §1.1), applied idempotently per epoch; snapshots ride the
normal checkpoint mechanism, so kill/resume replays uncommitted epochs only.

Epoch execution: one code path, two module-level block kernels —
``block_partials`` (encoder fit partials plus the fused ``epoch_aggs``) and
``encode_block`` (``pre_transform``, transform, column selection).  A
``pa.Table`` epoch is a single block run inline on the driver.  A
``ray.data.Dataset`` epoch executes its upstream exactly once and runs each
kernel as one Ray task per block through the block runner shared with
``StreamSession`` (``exchange.block_refs`` / ``exchange.run_blocks``): the
kernel closure goes to the object store once per epoch when two or more
block tasks read it, and inline in the task otherwise.  Partials tasks
also archive their input block (``archive_input``); encode tasks write
their output part straight into the sink's epoch directory
(``write_epoch_part``).
The driver merges the partials in block order — the Dataset's own order,
fixed for a materialized Dataset, so its fitted state is bit-reproducible —
and commits the workers' parts with ``commit_files``.  An epoch thus costs
a few tasks per block, not a Ray Data execution per pass.

On re-emission: when an epoch changes fitted state, DD retracts and re-emits
*all* prior output rows (damped by the rounding knobs,
standard_scaler.rs:116-120).  Continuous full re-emission is the reference's
admitted scale bottleneck (paper §3); here per-epoch outputs are versioned
with the fitted-state epoch in the manifest (lineage), and ``refresh()``
produces the fully-consistent output of the final state as a batch job —
equal to what DD's accumulated deltas converge to (tested).
"""

from __future__ import annotations

import functools
import pickle
from pathlib import Path
from typing import Sequence

import pyarrow as pa

from ..stages.encoders import Encoder
from ..stages.multi_column import MultiColumnEncoder
from .arrangement import to_arrow
from .exchange import block_refs, run_blocks
from .sink import CheckpointManager, ExactlyOnceParquetSink, write_epoch_part
from .state_store import ShardedStateStore, scatter

__all__ = ["IncrementalEncoderSession"]


def _kb(i: int) -> bytes:
    return pickle.dumps((i,), protocol=pickle.HIGHEST_PROTOCOL)


class _KeyTypes:
    """Arrow types of one ``epoch_aggs`` group's key columns, carried with
    each block's partials so an epoch without rows still commits typed key
    columns.  Merging keeps the first block's types."""

    def __init__(self, types: list):
        self.types = types

    def merge(self, other: "_KeyTypes") -> None:
        pass


#: ``epoch_aggs`` output columns: agg name → (accumulator getter, type)
_EPOCH_AGG_COLS = {
    "count": (lambda acc: acc.count, pa.int64()),
    "sum": (lambda acc: acc.s, pa.float64()),
    "min": (lambda acc: acc.min_max()[0], pa.float64()),
    "max": (lambda acc: acc.min_max()[1], pa.float64()),
}


# ------------------------------------------------------------- block kernels
def block_partials(tbl: pa.Table, stateful: list, weight_col: str | None,
                   epoch_aggs: list, pre=None) -> dict[bytes, object]:
    """Fit partials of one block: every stateful encoder's ``make_partial``
    (key ``(encoder_index,)``) plus one ``SumCountAgg`` per fused
    ``epoch_aggs`` group and each spec's key types.  ``pre`` is applied
    first when an encoder fits on a derived column
    (``pre_transform_in_fit``)."""
    if pre is not None:
        tbl = pre(tbl)
    out = {
        _kb(i): enc.make_partial(tbl, col, weight_col)
        for i, col, enc in stateful
    }
    if epoch_aggs:
        import numpy as np

        from ..state.aggregates import SumCountAgg

        for spec in epoch_aggs:
            keys = list(spec["key_cols"])
            out[pickle.dumps(("__epoch_agg_types", spec["name"]),
                             protocol=pickle.HIGHEST_PROTOCOL)] = _KeyTypes(
                [tbl.schema.field(k).type for k in keys])
            pdf = tbl.select(keys + [spec["value_col"]]).to_pandas()
            vals = pdf[spec["value_col"]].to_numpy(dtype=np.float64)
            track = bool({"min", "max"} & set(spec.get("aggs", ())))
            pdf["__pos"] = np.arange(len(pdf))
            for key, grp in pdf.groupby(keys, sort=True):
                key_t = key if isinstance(key, tuple) else (key,)
                acc = SumCountAgg.from_numpy(
                    vals[grp["__pos"].to_numpy()], track_extremes=track
                )
                out[pickle.dumps(("__epoch_agg", spec["name"], key_t),
                                 protocol=pickle.HIGHEST_PROTOCOL)] = acc
    return out


def encode_block(tbl: pa.Table, mce: MultiColumnEncoder, out_col: str,
                 weight_col: str | None, keep_input: bool, pre,
                 extra: frozenset) -> pa.Table:
    """Encode one block's insertions under the fitted state: drop
    retraction rows, apply ``pre``, transform, and keep the id, feature and
    ``extra`` columns unless ``keep_input``."""
    if weight_col and weight_col in tbl.column_names:
        import pyarrow.compute as pc

        tbl = tbl.filter(pc.greater(tbl[weight_col], 0))
    if pre is not None:
        tbl = pre(tbl)
    out = mce.transform_table(tbl, out_col)
    if not keep_input:
        ids = {c for c in ("row_id", "doc_id") if c in out.column_names}
        out = out.select([c for c in out.column_names
                          if c == out_col or c in ids or c in extra])
    return out


def _partials_and_archive(tbl: pa.Table, tag: str, fit, write):
    """Dataset-epoch partials task: archive the raw block as an input part
    (``write``, when archiving) and compute its fit partials (``fit``)."""
    entry = write(tbl, tag) if write is not None else None
    return (fit(tbl) if fit is not None else None), entry


def _encode_and_write(tbl: pa.Table, tag: str, encode, write) -> dict:
    """Dataset-epoch encode task: encode the block and write it as an output
    part; returns the part's manifest entry."""
    return write(encode(tbl), tag)


class IncrementalEncoderSession:
    """Drive a MultiColumnEncoder over an unbounded stream of epochs."""

    def __init__(self, config: Sequence[tuple[str, Encoder]], root: str | Path,
                 num_shards: int = 2, weight_col: str | None = None,
                 keep_input: bool = False, out_col: str = "features",
                 checkpoint_every: int = 1, pre_transform=None,
                 archive_input: bool = True, output_cols: list | None = None,
                 epoch_aggs: list | None = None, fsync: bool = True,
                 pre_transform_in_fit: bool = False, sync_every: int = 1):
        #: fsync=False relaxes power-loss durability for latency-sensitive
        #: jobs; crash-level exactly-once (manifest rename atomicity) holds
        #: either way
        self.fsync = fsync
        #: sync_every=K > 1 turns every sink into group-commit mode: all
        #: fsyncs batch into one barrier per K epochs with a durable
        #: watermark + verify-on-open (see ExactlyOnceParquetSink) — the
        #: latency fix for single-row epochs (fsync cost amortized K×).
        #: Loss window on POWER failure: up to K epochs past the last
        #: barrier (replayable — exactly-once replay re-commits them).
        self.sync_every = max(int(sync_every), 1)
        self.mce = MultiColumnEncoder(config)
        self.weight_col = weight_col
        self.keep_input = keep_input
        self.out_col = out_col
        #: optional per-block stage fused into the encode pass (e.g. token
        #: feature derivation) — runs distributed, never archived twice
        self.pre_transform = pre_transform
        #: True when a stateful encoder fits on a pre_transform-DERIVED
        #: column (e.g. TF-IDF over a vectorizer's output): the fit partial
        #: pass then applies pre_transform too, to ALL rows — including
        #: retraction rows (diff < 0), whose derived values must be
        #: recomputed identically so the negative partial cancels the
        #: original contribution exactly.  Default False: encoders that fit
        #: on raw input columns (flagship) skip the double derivation cost.
        self.pre_transform_in_fit = bool(pre_transform_in_fit)
        #: False when the epoch source is already durable (e.g. one parquet
        #: directory per epoch): replay re-reads the source instead of an
        #: engine-side archive, halving sink IO.  ``refresh()`` then needs the
        #: caller to re-supply the stream.
        self.archive_input = archive_input
        #: with keep_input=False: extra columns to carry into the sink beside
        #: the id and feature columns (sink bytes are often the scale
        #: bottleneck — write the product, not the whole input)
        self.output_cols = list(output_cols or [])
        #: optional observer called with (epoch, encoder_index, column,
        #: state_dict) whenever an encoder's fitted meta changes — the
        #: reference's ``inspect`` on the meta collections
        #: (standard_scaler.rs:94-96, minmax_scaler.rs:143-145)
        self.inspect_meta = None
        self._last_meta: dict[int, dict] = {}
        #: DD delta-output semantics: when an epoch changes the fitted meta,
        #: differential dataflow retracts and re-emits every affected prior
        #: output row (damped by the rounding knobs,
        #: standard_scaler.rs:116-120).  With ``emit_corrections=True`` (needs
        #: archive_input) each epoch additionally commits a corrections table
        #: of (changed prior rows) × {diff=−1 old, diff=+1 new}; base outputs
        #: ⊕ corrections ≡ the full recompute (tested).
        self.emit_corrections = False
        self._meta_snapshot = None
        #: per-epoch grouped aggregates fused into the SAME partial scan as
        #: the encoder fit (zero extra passes) — the epoch IS the tumbling
        #: window here, the reference's degenerate windowing (SURVEY §2.1).
        #: Each spec: {"name", "key_cols", "value_col", "aggs"}.
        self.epoch_aggs = list(epoch_aggs or [])
        self.root = Path(root)
        se = self.sync_every
        self.epoch_agg_sinks = {
            spec["name"]: ExactlyOnceParquetSink(Path(root) / spec["name"],
                                                 fsync=fsync, sync_every=se)
            for spec in self.epoch_aggs
        }
        self.corrections_sink = ExactlyOnceParquetSink(self.root / "corrections",
                                                       fsync=fsync, sync_every=se)
        self.effective_sink = ExactlyOnceParquetSink(self.root / "_effective",
                                                     fsync=fsync, sync_every=se)
        self.chk = CheckpointManager(self.root / "_checkpoints")
        self.store = ShardedStateStore(num_shards=num_shards,
                                       checkpoints=self.chk)
        self.sink = ExactlyOnceParquetSink(self.root / "encoded", fsync=fsync,
                                           sync_every=se)
        self.input_archive = ExactlyOnceParquetSink(self.root / "input",
                                                    fsync=fsync, sync_every=se)
        self.checkpoint_every = checkpoint_every
        self.last_epoch = -1
        self._stateful = [
            (i, col, enc)
            for i, (col, enc) in enumerate(self.mce.config)
            if enc.requires_fit
        ]

    # ------------------------------------------------------------------ resume
    def resume(self) -> int:
        latest = self.chk.latest()
        if latest is None:
            return 0
        blobs, extra = self.chk.load(latest)
        self.store.load_all(blobs)
        self.last_epoch = latest
        self._refresh_encoder_state()
        return latest + 1

    def _meta(self, **kw) -> dict:
        if getattr(self, "_lineage", None) is not None:
            kw["lineage"] = self._lineage
        return kw

    # -------------------------------------------------------------- epoch step
    def process_epoch(self, epoch: int, data,
                      lineage: dict | None = None) -> pa.Table | dict:
        """fit-update on the epoch's deltas, then transform the epoch's
        insertions with the updated state; exactly-once commit of both the
        input archive (for refresh/lineage) and the encoded output.

        ``lineage``: caller-supplied input provenance for this epoch
        (source paths / shard ids / offsets) — stamped into every manifest
        the epoch commits, so each output partition records the input slice
        it came from.

        The epoch runs as two block kernels: ``block_partials`` (encoder
        fits plus the fused ``epoch_aggs``) and ``encode_block``
        (``pre_transform``, ``transform_table``, column selection).  A
        ``pa.Table`` epoch runs both inline and commits with
        ``commit_tables``.  A ``ray.data.Dataset`` epoch's upstream executes
        once, for its block refs, and each kernel runs as one Ray task per
        block: the partials tasks also write their block as an
        input-archive part (``archive_input``), the encode tasks write
        their block's output part, and the driver merges the partials in
        block order and commits the parts with ``commit_files``.  The
        merged fit partials apply, and the due checkpoint's shards write
        their snapshot files, in the epoch's one ``store.step``, before the
        encode; the checkpoint's ``DONE`` marker lands after the sinks
        commit and their barrier.  Replaying a committed epoch re-applies
        its (idempotent) state delta but writes no data.
        Returns the encoded table (table path) or the sink manifest (Dataset
        path; use ``read_epoch_output``).
        """
        self._lineage = lineage
        small = isinstance(data, pa.Table)
        blocks = None if small else block_refs(data)
        fit = None
        if self._stateful or self.epoch_aggs:
            fit = functools.partial(
                block_partials, stateful=self._stateful,
                weight_col=self.weight_col, epoch_aggs=self.epoch_aggs,
                pre=self.pre_transform if self.pre_transform_in_fit else None)

        # 1) partials (+ the raw-epoch archive) → driver merge in block order
        archive = self.archive_input and not self.input_archive.is_committed(epoch)
        if small:
            if archive:
                self.input_archive.commit_tables(epoch, [data],
                                                 meta=self._meta(kind="input"))
            parts = [fit(data)] if fit is not None else []
        elif fit is not None or archive:
            write = (functools.partial(write_epoch_part, self.input_archive.root,
                                       epoch, fsync=self.input_archive.part_fsync)
                     if archive else None)
            res = run_blocks(functools.partial(_partials_and_archive,
                                               fit=fit, write=write), blocks)
            parts = [p for p, _ in res]
            if archive:
                self.input_archive.commit_files(epoch, [e for _, e in res],
                                                meta=self._meta(kind="input"))
        if fit is not None:
            merged: dict[bytes, object] = {}
            for part in parts:
                for k, acc in part.items():
                    if k in merged:
                        merged[k].merge(acc)
                    else:
                        merged[k] = acc
            # fused per-epoch grouped aggregates: strip from the encoder
            # deltas and commit directly (epoch == tumbling window)
            if len(merged) > 1_000_000:
                import logging

                logging.getLogger(__name__).warning(
                    "IncrementalEncoderSession merged %d per-epoch keys on "
                    "the driver; the fused epoch_aggs path is built for "
                    "LOW-cardinality keys (encoder meta + coarse groups). "
                    "Route high-cardinality keyed aggregation through "
                    "StreamSession/KeyedAggregation (shard-direct scatter).",
                    len(merged),
                )
            if self.epoch_aggs:
                win_items: dict[str, list] = {s["name"]: [] for s in self.epoch_aggs}
                key_types: dict[str, list] = {}
                for k in list(merged):
                    kt = pickle.loads(k)
                    if kt[0] == "__epoch_agg":
                        win_items[kt[1]].append((kt[2], merged.pop(k)))
                    elif kt[0] == "__epoch_agg_types":
                        key_types[kt[1]] = merged.pop(k).types
                self._commit_epoch_aggs(epoch, win_items, key_types)
            # one step: apply the deltas, get the merged meta back, and
            # write the due snapshot
            by_shard = scatter(sorted(merged.items()), self.store.num_shards)
            msgs = {sid: [("apply_delta", "encoders", (pickle.dumps(
                        pairs, protocol=pickle.HIGHEST_PROTOCOL), True), None)]
                    for sid, pairs in by_shard.items()}
            replies = self._step(epoch, msgs)
            items = dict(kv for r in replies.values() for blob in r["out"]
                         for kv in pickle.loads(blob))
            for i, col, enc in self._stateful:
                acc = items.get(_kb(i))
                if acc is not None:
                    enc.load_accumulator(acc)
        else:
            replies = self._step(epoch, {})
            self._refresh_encoder_state()
        if self.inspect_meta is not None:
            for i, col, enc in self._stateful:
                st = enc.state()
                key = pickle.dumps(sorted(st.items(), key=lambda kv: kv[0]), protocol=4)
                if self._last_meta.get(i) != key:
                    self._last_meta[i] = key
                    self.inspect_meta(epoch, i, col, st)

        # 2) transform this epoch's insertions (diff > 0 when deltas present)
        encode = functools.partial(
            encode_block, mce=self.mce, out_col=self.out_col,
            weight_col=self.weight_col, keep_input=self.keep_input,
            pre=self.pre_transform, extra=frozenset(self.output_cols))
        meta = self._meta(state_epoch=epoch, kind="encoded")
        if small:
            out_tbl = encode(data)
            result = self.sink.commit_tables(epoch, [out_tbl], meta=meta)
        elif self.sink.is_committed(epoch):
            result = self.sink.manifest(epoch)
        else:
            write = functools.partial(write_epoch_part, self.sink.root, epoch,
                                      fsync=self.sink.part_fsync)
            entries = run_blocks(functools.partial(_encode_and_write,
                                                   encode=encode, write=write),
                                 blocks)
            result = self.sink.commit_files(epoch, entries, meta=meta)
        if self.emit_corrections:
            self._maybe_emit_corrections(epoch, encode)
        self.last_epoch = epoch
        if snapshot := sorted(sid for sid, r in replies.items()
                              if r["snapshot"] is not None):
            # the shards wrote their snapshot files in the epoch's step; a
            # checkpoint must never outrun the sinks' durable watermark
            # (resume skips every epoch it covers), so its DONE marker
            # lands after the barrier
            self.sync()
            self.chk.save(epoch, snapshot, extra={})
            self.chk.prune(keep_last=2)
        return out_tbl if small else result

    def _step(self, epoch: int, msgs: dict[int, list]) -> dict[int, dict]:
        """The epoch's one ``store.step``, with the snapshot when a
        checkpoint is due; no call when there is neither."""
        due = bool(self.checkpoint_every) and epoch % self.checkpoint_every == 0
        return self.store.step(epoch, msgs, due) if msgs or due else {}

    def _prior_effective(self, epoch: int):
        """Last emitted version of every prior row = latest effective snapshot
        ∪ base outputs of epochs since that snapshot."""
        snaps = [e for e in self.effective_sink.committed_epochs() if e < epoch]
        last_snap = max(snaps) if snaps else None
        parts = []
        if last_snap is not None:
            parts.append(self.effective_sink.read_committed_table([last_snap]))
        start = -1 if last_snap is None else last_snap
        base_epochs = [e for e in self.sink.committed_epochs() if start <= e < epoch]
        if base_epochs:
            parts.append(self.sink.read_committed_table(base_epochs))
        return pa.concat_tables(parts, promote_options="default") if parts else None

    def _maybe_emit_corrections(self, epoch: int, encode) -> None:
        """DD retract-and-re-emit: when this epoch changed the fitted meta,
        re-encode all prior inputs under the new state, retract each changed
        row's LAST emitted version (diff=−1) and emit the new one (diff=+1);
        the new full re-encode becomes the effective snapshot for the next
        correction round.  Empty corrections table when meta is unchanged
        (the rounding knobs' damping — standard_scaler.rs:116-120)."""
        snap = pickle.dumps(
            [sorted(enc.state().items()) for _, _, enc in self._stateful],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        prior = [e for e in self.sink.committed_epochs() if e < epoch]
        changed_tbl = None
        if prior and self._meta_snapshot is not None and snap != self._meta_snapshot:
            if not self.archive_input:
                raise RuntimeError("emit_corrections requires archive_input=True")
            import numpy as np
            import pandas as pd

            old_pd = self._prior_effective(epoch).to_pandas()
            new = encode(self.input_archive.read_committed_table(prior))
            new_pd = new.to_pandas()
            key = next(c for c in ("row_id", "doc_id") if c in old_pd.columns)
            old_pd = old_pd.sort_values(key).reset_index(drop=True)
            new_pd = new_pd[list(old_pd.columns)].sort_values(key).reset_index(drop=True)
            mask = np.array(
                [tuple(a) != tuple(b)
                 for a, b in zip(old_pd[self.out_col], new_pd[self.out_col])],
                dtype=bool,
            )
            changed = pd.concat(
                [old_pd[mask].assign(diff=-1), new_pd[mask].assign(diff=1)],
                ignore_index=True,
            )
            changed_tbl = pa.Table.from_pandas(changed, preserve_index=False)
            # the re-encode is the new effective snapshot for rows < epoch
            self.effective_sink.commit_tables(epoch, [new], meta=self._meta(kind="effective"))
        self._meta_snapshot = snap
        tbl = changed_tbl if changed_tbl is not None else pa.table(
            {"diff": pa.array([], type=pa.int64())}
        )
        self.corrections_sink.commit_tables(epoch, [tbl], meta=self._meta(kind="corrections"))

    def read_epoch_output(self, epoch: int) -> pa.Table:
        return self.sink.read_committed_table([epoch])

    def _commit_epoch_aggs(self, epoch: int, win_items: dict[str, list],
                           key_types: dict[str, list]) -> None:
        """One typed table per spec: the key columns (input types), float64
        window bounds, the agg columns (``count`` int64, the rest float64)
        and an int64 ``epoch`` — also for an epoch without rows."""
        import numpy as np

        for spec in self.epoch_aggs:
            items = sorted(win_items.get(spec["name"], []),
                           key=lambda kv: str(kv[0]))
            keys = spec["key_cols"]
            types = key_types.get(spec["name"]) or [None] * len(keys)
            n = len(items)
            cols = {k: to_arrow([key_t[i] for key_t, _ in items], types[i])
                    for i, k in enumerate(keys)}
            cols["window_start"] = pa.array(np.full(n, float(epoch)))
            cols["window_end"] = pa.array(np.full(n, float(epoch + 1)))
            for a in spec.get("aggs", ("count", "sum")):
                if a in _EPOCH_AGG_COLS:
                    get, typ = _EPOCH_AGG_COLS[a]
                    cols[a] = pa.array([get(acc) for _, acc in items], type=typ)
            cols["epoch"] = pa.array(np.full(n, epoch, dtype=np.int64))
            self.epoch_agg_sinks[spec["name"]].commit_tables(
                epoch, [pa.table(cols)], meta=self._meta(kind="epoch_agg")
            )

    def _refresh_encoder_state(self) -> None:
        items = dict(self.store.collect("encoders"))
        for i, col, enc in self._stateful:
            acc = items.get(_kb(i))
            if acc is not None:
                enc.load_accumulator(acc)

    # ------------------------------------------------------------------ refresh
    def refresh(self) -> pa.Table:
        """Batch re-transform of every archived input row under the FINAL
        fitted state — what the reference's accumulated output deltas converge
        to after its cascade of retract/re-emit updates."""
        self._refresh_encoder_state()
        full = self.input_archive.read_committed_table()
        if self.weight_col and self.weight_col in full.column_names:
            import pyarrow.compute as pc

            # net out retracted rows: keep rows whose net diff > 0 by identity
            # (identity = all non-diff columns); the common case is ±1 pairs.
            import pandas as pd

            pdf = full.to_pandas()
            ids = [c for c in pdf.columns if c != self.weight_col]
            net = pdf.groupby(ids, dropna=False, sort=False)[self.weight_col].sum()
            pdf = net[net > 0].reset_index()
            rep = pdf.loc[pdf.index.repeat(pdf[self.weight_col])].drop(
                columns=[self.weight_col]
            )
            full = pa.Table.from_pandas(rep, preserve_index=False)
        return self.mce.transform_table(full, self.out_col)

    def sync(self) -> None:
        """Force a group-commit barrier on every sink (durable through the
        last committed epoch)."""
        for s in (self.sink, self.input_archive, self.corrections_sink,
                  self.effective_sink, *self.epoch_agg_sinks.values()):
            s.sync()

    def close(self) -> None:
        self.sync()
        self.store.shutdown()
