"""Micro-batch streaming engine: epochs, watermarks, windows, exactly-once.

The driver loop IS the frontier (SURVEY §3 "Ray mapping of the lifecycle"):
the reference's ``InputSession.advance_to/flush`` + ``probe.less_than``
(src/main.rs:82-86) becomes

    for epoch, inputs in source:
        session.process_epoch(epoch, inputs, watermark=...)

where an epoch is complete exactly when its emissions are committed to the
sink manifest.  Late data (impossible in the reference, which closes epochs
by construction — SURVEY §2.1) is handled by watermarks + allowed lateness:
rows for already-finalized windows are counted and dropped.

Data path per epoch:
1. route and partial stage — vectorized accumulators keyed by (key…,
   window), or the op's points, rows or probe keys.  Windowed
   ``KeyedAggregation`` and ``StreamJoin`` keep columnar state
   (``arrangement.py``) whose rows carry one vectorized key hash, which is
   also the shard (hash % num_shards); unwindowed aggregates, upserts,
   enrich registers, sessions and patterns key theirs by the pickled key
   tuple (``shard_of``).  Every keyed op has one route (a block → its
   per-shard parts plus a ``Summary``: late rows, max event time, parts
   written): a ``pa.Table`` input is one block routed inline on the
   driver, a ``ray.data.Dataset`` input runs its upstream once and routes
   its blocks in ``exchange.route_blocks`` tasks.  Either way the driver
   folds the summaries and queues the parts (or the tasks' refs, which the
   shard fetches and merges), the watermark's sweeps and the due snapshot
   into one ``StateShard.step`` call per touched shard at the end of the
   epoch (earlier when a later op reads a queued output, or before an
   enrich probe).  The shard writes the rows its window, join and
   changelog kernels emit as sink parts and its snapshot as a checkpoint
   file, and replies with manifest entries, which the driver commits and
   publishes; the session, pattern and graph kernels reply with their
   rows, which the driver sorts and commits.  The enrich probe,
   ``StreamDedup`` and ``StreamNearDup`` run
   one ``exchange.shard_exchange`` per epoch (a route task per block, a
   reduce task per touched shard, which merges that shard's payloads in a
   fixed sorted order, makes the shard's one actor call and writes its
   sink part); the block-mode enrich probe runs one task per block
   (``exchange.run_blocks``).  Shard calls are idempotent per epoch;
2. chaining — an op's epoch output feeds ops declared after it in the same
   ``process_epoch`` call;
3. watermark advance sweeps closed windows/sessions out of the shards (a
   window arrangement pops only the slabs whose end has closed);
4. emissions are committed to the op's ``ExactlyOnceParquetSink`` under the
   epoch id; a checkpoint (state dump + watermark) is taken every
   ``checkpoint_every`` epochs → kill/resume replays only uncommitted work.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..state.aggregates import SumCountAgg
from .exchange import (Summary, block_refs, blocks_to_table, combine,
                       route_blocks, run_blocks, shard_exchange, timed)
from .sink import CheckpointManager, ExactlyOnceParquetSink, write_epoch_part
from .arrangement import (Partials, Rows, arrow_key_hash, key_hash,
                          to_arrow)
from .state_store import (Emit, Gather, ShardedStateStore, StateShard,
                          legacy_state, merge_partials, merge_payloads,
                          rescale_blobs, shard_of)

__all__ = [
    "WindowSpec",
    "KeyedAggregation",
    "SessionWindowAggregation",
    "PatternMatch",
    "AbsenceDetect",
    "KleenePattern",
    "IncrementalComponents",
    "IncrementalPageRank",
    "StreamNearDup",
    "UpsertToRetract",
    "StreamJoin",
    "EnrichJoin",
    "StreamDedup",
    "StreamSession",
]


def _key_bytes(key_tuple: tuple) -> bytes:
    return pickle.dumps(key_tuple, protocol=pickle.HIGHEST_PROTOCOL)


def _lww_partials(tbl: pa.Table, key_cols: Sequence[str],
                  val_cols: Sequence[str], ts_col: str,
                  delete_col: str | None) -> dict:
    """Per-block LWW offers: fold an upsert slice into ``{key_bytes:
    LastValueAgg}`` — one register per key, per-key MAX ``(ts, tiebreak)``
    stamp, delete rows as tombstones (value None, stamp kept).  Shared by
    ``EnrichJoin`` (dim side) and ``UpsertToRetract``; the semilattice merge
    makes block/shard/retry order irrelevant."""
    from ..state.aggregates import LastValueAgg

    key_cols = list(key_cols)
    cols = list(dict.fromkeys(
        key_cols + list(val_cols) + [ts_col]
        + ([delete_col] if delete_col else [])))
    pdf = tbl.select(cols).to_pandas()
    ts = _ts_to_float(pdf[ts_col])
    keys = list(zip(*[pdf[c] for c in key_cols])) if len(pdf) else []
    # val_cols=() is an existence register (semi-join style): zip(*[])
    # would silently truncate EVERY upsert/tombstone to zero rows
    vals = ([()] * len(pdf) if not val_cols
            else list(zip(*[pdf[c] for c in val_cols]))
            if len(pdf) else [])
    dels = (pdf[delete_col].to_numpy(dtype=bool)
            if delete_col else np.zeros(len(pdf), dtype=bool))
    out: dict[bytes, Any] = {}
    for k, t, v, d in zip(keys, ts, vals, dels):
        if d:
            v = None  # tombstone: keeps the stamp, reads as a miss
        # tiebreak on pickled value bytes: totally ordered for any value
        # types (incl. None/mixed), deterministic at equal stamps
        acc = LastValueAgg((float(t), _key_bytes(v)), v)
        kb = _key_bytes(tuple(k))
        cur = out.get(kb)
        if cur is None:
            out[kb] = acc
        else:
            cur.merge(acc)
    return out


def _ts_to_float(series: pd.Series) -> np.ndarray:
    """Event-time column → float seconds (timestamps are UTC-naive; DuckDB's
    ``epoch()`` matches this conversion exactly)."""
    if np.issubdtype(series.dtype, np.datetime64):
        return series.to_numpy(dtype="datetime64[us]").astype(np.int64) / 1e6
    return series.to_numpy(dtype=np.float64)


def _ts_seconds(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """``_ts_to_float`` on an Arrow column, without a pandas conversion."""
    if pa.types.is_timestamp(col.type):
        ticks = col.cast(pa.int64()).to_numpy()
        return (ticks.astype(f"datetime64[{col.type.unit}]")
                .astype("datetime64[us]").astype(np.int64) / 1e6)
    return col.cast(pa.float64()).to_numpy()


def _block_max_ts(tbl: pa.Table, ts_col: str | None) -> float:
    """A block's max event time in float seconds; ``-inf`` without one."""
    if not (ts_col and ts_col in tbl.column_names and tbl.num_rows):
        return -math.inf
    col = tbl.column(ts_col)
    return float(_ts_seconds(pa.array([pc.max(col)], type=col.type))[0])


_INT64_MAX = np.iinfo(np.int64).max


def _groups(cols: list) -> list:
    """Group rows by ``cols`` as pandas' ``groupby(sort=True, dropna=False)``
    does: each column factorizes as the groupby's own grouping does, and
    the codes fold into one group id, first column most significant.  When
    the next fold could overflow int64 the id so far is made dense first
    (pandas' ``get_group_index`` rule), which keeps the order.  Returns
    each column's value per group, in group order, then each row's
    group."""
    gid, size = np.zeros(len(cols[0]), dtype=np.int64), 1
    factors = []
    for col in cols:
        code, uniq = pd.factorize(col, sort=True, use_na_sentinel=False)
        if size * len(uniq) > _INT64_MAX:
            seen, gid = np.unique(gid, return_inverse=True)
            size = len(seen)
        gid, size = gid * len(uniq) + code, size * len(uniq)
        factors.append((code, uniq))
    _, first, group = np.unique(gid, return_index=True, return_inverse=True)
    return [uniq.take(code[first]) for code, uniq in factors] + [group]


# ------------------------------------------- shard exchange route/reduce parts
# Shared halves of the Dataset-epoch kernels (``exchange.shard_exchange``).
# Reducers merge in sorted order, never arrival order, so a shard's payload
# and its written part are the same for every block split and schedule.
def _keyed_parts(items, num_shards: int) -> dict[int, list]:
    """Route side: (key bytes, value) pairs → {shard: [(key, pickled
    value)]}; the pickled value is the reducers' sort tiebreak."""
    parts: dict[int, list] = {}
    for k, v in items:
        parts.setdefault(shard_of(k, num_shards), []).append(
            (k, pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)))
    return parts


def _read_parts(root: Path, entries: list) -> pa.Table:
    """The rows of parts just written into a sink, in entry order."""
    tbls = [pq.ParquetFile(root / e["path"]).read(use_threads=False)
            for e in entries]
    return (tbls[0] if len(tbls) == 1
            else pa.concat_tables(tbls, promote_options="default"))


def _merged_payload(parts: list, merge) -> bytes:
    """Reduce side of ``_keyed_parts``: one shard's pairs from every block,
    merged in (key, value bytes) order → the shard's pickled payload."""
    merged: dict[bytes, Any] = {}
    for k, blob in sorted(p for part in parts for p in part):
        v = pickle.loads(blob)
        merged[k] = merge(merged[k], v) if k in merged else v
    return pickle.dumps(sorted(merged.items()),
                        protocol=pickle.HIGHEST_PROTOCOL)


def _merge_acc(a, b):
    a.merge(b)
    return a


def _merge_sorted(a: list, b: list) -> list:
    return sorted(a + b)


def _sorted_rows(results: list) -> list:
    """The rows of a kernel's shards, each a pickled sorted list, as one
    sorted list."""
    return sorted(r for blob in results for r in pickle.loads(blob))


def _unpickled_rows(to_table, results: list, epoch: int) -> pa.Table:
    """A changelog kernel's pickled row lists → ``to_table``'s output
    (its typed empty columns for ``[]``): the ``Emit`` finalize of
    ``apply_delta_changelog`` and ``apply_upsert_retract``."""
    return to_table([r for blob in results for r in pickle.loads(blob)],
                    epoch)


def _frame_parts(df: pd.DataFrame) -> dict[int, bytes]:
    """Route side: a frame with a ``__sid`` column → one pickled sub-frame
    per shard."""
    return {int(s): pickle.dumps(g.drop(columns="__sid").reset_index(drop=True),
                                 protocol=pickle.HIGHEST_PROTOCOL)
            for s, g in df.groupby("__sid")}


def _concat_frames(parts: list) -> pd.DataFrame:
    """Reduce side of ``_frame_parts``: one shard's sub-frames, in pickled
    bytes order."""
    return pd.concat([pickle.loads(b) for b in sorted(parts)],
                     ignore_index=True)


def _dedup_winners_frame(op: "StreamDedup", pdf: pd.DataFrame
                         ) -> pd.DataFrame:
    """Per-key minimum-(ts, tiebreak) candidate rows of a slice: stable
    sort by (float ts, *order_cols) then first-per-key.  Adds ``__ts``
    (float event time) and ``__kb`` (key bytes) working columns."""
    sk = list(op.key)
    pdf = pdf.assign(__ts=_ts_to_float(pdf[op.ts_col]))
    pdf = pdf.sort_values(["__ts", *op.order_cols], kind="mergesort")
    win = pdf.drop_duplicates(subset=sk, keep="first").copy()
    win["__kb"] = [_key_bytes(t) for t in
                   win[sk].itertuples(index=False, name=None)]
    return win


def _dedup_claims(op: "StreamDedup", win: pd.DataFrame
                  ) -> list[tuple[bytes, tuple]]:
    """(key_bytes, stamp) claim list for a winners frame; stamp =
    (float event time, tiebreak bytes from order_cols)."""
    if op.order_cols:
        tbs = [_key_bytes(t) for t in
               win[list(op.order_cols)].itertuples(index=False, name=None)]
    else:
        tbs = [b""] * len(win)
    return [(kb, (float(ts), tb)) for kb, ts, tb in
            zip(win["__kb"], win["__ts"], tbs)]


@dataclass(frozen=True)
class WindowSpec:
    """Tumbling / sliding / session windows over an event-time column.

    Window starts are aligned to multiples of ``slide`` (== ``size`` for
    tumbling) from epoch 0 — the same bucketing DuckDB's
    ``floor(epoch(ts)/size)`` produces, which keeps the SQL oracle exact.
    """

    kind: str  # "tumbling" | "sliding" | "session"
    size: float | None = None
    slide: float | None = None
    gap: float | None = None
    allowed_lateness: float = 0.0

    @staticmethod
    def tumbling(size: float, allowed_lateness: float = 0.0) -> "WindowSpec":
        return WindowSpec("tumbling", size=float(size), slide=float(size),
                          allowed_lateness=allowed_lateness)

    @staticmethod
    def sliding(size: float, slide: float, allowed_lateness: float = 0.0) -> "WindowSpec":
        return WindowSpec("sliding", size=float(size), slide=float(slide),
                          allowed_lateness=allowed_lateness)

    @staticmethod
    def session(gap: float, allowed_lateness: float = 0.0) -> "WindowSpec":
        return WindowSpec("session", gap=float(gap), allowed_lateness=allowed_lateness)

    @property
    def use_panes(self) -> bool:
        """Sliding windows whose slide divides the size keep ONE tumbling
        pane accumulator per (key, slide-bucket) instead of size/slide
        replicated per-window entries; panes merge at emission.  State and
        shuffle shrink by the overlap factor (hourly panes of a daily
        window: 24×) with identical emissions."""
        return (self.kind == "sliding" and self.slide < self.size
                and self.size % self.slide == 0)

    def assign_panes(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ts → (row_index, pane_start, pane_end) — one pane per row."""
        start = np.floor(ts / self.slide) * self.slide
        return np.arange(ts.size), start, start + self.slide

    def assign(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ts → (row_index, window_start, window_end); sliding replicates rows."""
        if self.kind == "tumbling":
            start = np.floor(ts / self.size) * self.size
            return np.arange(ts.size), start, start + self.size
        if self.kind == "sliding":
            n_windows = int(math.ceil(self.size / self.slide))
            idx_parts, start_parts = [], []
            base = np.floor(ts / self.slide)
            for j in range(n_windows):
                s = (base - j) * self.slide
                mask = ts < s + self.size  # s <= ts holds by construction
                idx_parts.append(np.nonzero(mask)[0])
                start_parts.append(s[mask])
            idx = np.concatenate(idx_parts)
            start = np.concatenate(start_parts)
            return idx, start, start + self.size
        raise ValueError("session windows are assigned in the state store")


_AGG_FIELDS = ("count", "sum", "mean", "min", "max")


@dataclass
class KeyedAggregation:
    """Incremental grouped aggregate, optionally windowed.

    The DD pattern ``threshold(monoid) → count()`` (standard_scaler.rs:81-86)
    generalized to per-key state: accumulators are ``SumCountAgg`` (or a
    custom monoid via ``make_acc``/``finalize``), merged in the state shards.
    Retractions: pass ``weight_col`` with −1 diffs.
    """

    name: str
    input: str
    key_cols: Sequence[str]
    value_col: str | None = None
    aggs: Sequence[str] = ("count", "sum")
    ts_col: str | None = None
    window: WindowSpec | None = None
    weight_col: str | None = None
    make_acc: Callable | None = None  # custom: (values, weights) -> acc
    finalize: Callable | None = None  # custom: acc -> dict[str, scalar]
    #: unwindowed only: emit the aggregate's OWN ±1 changelog each epoch —
    #: for every key the epoch touched whose finalized value changed,
    #: ``(−1, key, old_aggs)`` + ``(+1, key, new_aggs)`` rows go to the
    #: op's sink (pure insert/retraction when the key appears/reaches the
    #: monoid identity).  The running sum is the current grouped-aggregate
    #: table, so the output chains into further differential ops
    #: (``weight_col="diff"`` downstream) — DD's arrangement-as-output.
    emit_changelog: bool = False
    #: DD's ``threshold`` operator (``distinct`` = ``lambda m: int(m > 0)``):
    #: the output is the SET-like collection where each key's multiplicity
    #: is ``threshold_fn(net input count)``.  The changelog emits one row
    #: per touched key with ``diff = f(new_count) − f(old_count)`` when
    #: nonzero — so for distinct, +1 only when a key first becomes live and
    #: −1 only when its last copy retracts; interior count churn (2→1)
    #: emits NOTHING.  Requires ``emit_changelog=True``, no window, no
    #: value_col, ``aggs=()`` (output schema = keys + diff + epoch); the
    #: callable must be deterministic with ``f(0) == 0`` and picklable
    #: (it ships to the shards, which write the changelog rows).
    threshold_fn: Callable[[int], int] | None = None
    #: tumbling/sliding windows: besides the exactly-once emission when the
    #: watermark closes a window, emit a PER-EPOCH changelog of the still-
    #: open windows into the ``<name>__early`` side sink — Beam's
    #: accumulating-with-retractions early firing, DD-style: each touched
    #: (key, window) retracts its previous partial aggregate (−1) and adds
    #: the new one (+1), so a consumer's running sum is always the current
    #: speculative result.  The final on-close emission is unchanged.
    #: Sliding windows give up the pane optimization here: speculation
    #: needs one accumulator PER OPEN WINDOW (a row lands in size/slide
    #: windows), so state/traffic grow by the overlap factor — the
    #: documented price of per-epoch speculative results.
    early_firing: bool = False
    #: route late rows to a ``<name>__late`` side sink instead of silently
    #: dropping them (Flink's side-output pattern): a row whose NEWEST
    #: containing window is already finalized (end + allowed_lateness ≤
    #: watermark) is written — with its full original columns — into its
    #: own exactly-once sink, one commit per epoch, so a downstream
    #: backfill/repair job can reprocess exactly what the windows missed.
    #: The route splits them off per block and writes them as parts (for a
    #: Dataset epoch in its tasks: only manifest entries reach the driver).
    late_output: bool = False

    def __post_init__(self):
        bad = set(self.aggs) - set(_AGG_FIELDS)
        if bad and self.finalize is None:
            raise ValueError(f"unknown aggs {bad}")
        if self.window and self.window.kind != "session" and self.ts_col is None:
            raise ValueError("windowed aggregation needs ts_col")
        if self.emit_changelog and self.window is not None:
            raise ValueError("emit_changelog requires window=None (windowed "
                             "aggregates already emit exactly once on close)")
        if self.early_firing:
            if self.window is None or self.window.kind not in (
                    "tumbling", "sliding"):
                raise ValueError("early_firing requires a tumbling or "
                                 "sliding window (sessions speculate via "
                                 "SessionWindowAggregation(early_firing))")
            if self.emit_changelog:
                raise ValueError("early_firing IS the windowed changelog; "
                                 "emit_changelog applies to unwindowed aggs")
        if self.late_output:
            if self.window is None or self.window.kind not in (
                    "tumbling", "sliding"):
                raise ValueError("late_output requires a tumbling or "
                                 "sliding window")
            if self.early_firing or self.emit_changelog:
                raise ValueError("late_output is not supported together "
                                 "with early_firing / emit_changelog")
        if self.threshold_fn is not None:
            if not self.emit_changelog or self.window is not None:
                raise ValueError("threshold_fn requires emit_changelog=True "
                                 "and window=None")
            if self.value_col or tuple(self.aggs) or self.make_acc:
                raise ValueError("threshold_fn folds multiplicities only: "
                                 "no value_col / aggs / make_acc")
            if self.threshold_fn(0) != 0:
                raise ValueError("threshold_fn(0) must be 0 (absent keys "
                                 "have multiplicity 0)")
        self._track_extremes = bool({"min", "max"} & set(self.aggs))
        #: Arrow types of the key columns, once an input has been seen:
        #: an epoch with nothing to emit still commits typed columns
        self._key_types: list | None = None
        #: the input's schema, once ``split_late`` has seen it: the typed
        #: empty ``<name>__late`` output of an epoch without late rows
        self._late_schema: pa.Schema | None = None

    # ------------------------------------------------------------ late split
    def split_late(self, tbl: pa.Table,
                   finalized_before: float) -> tuple[pa.Table, pa.Table]:
        """Row-level (on_time, late) split for ``late_output`` routing.

        A row is LATE when even its NEWEST containing window is already
        finalized — the same rule ``partial_batch`` drops by, applied at
        row granularity so the late rows keep their full original columns
        for the side sink.  A sliding-window row that still lands in ≥1
        open window is ON TIME here; ``partial_batch`` then drops it from
        its closed windows only (unchanged semantics)."""
        ts = _ts_seconds(tbl.column(self.ts_col))
        w = self.window
        if w.kind == "tumbling":
            newest_end = np.floor(ts / w.size) * w.size + w.size
        else:  # sliding
            newest_end = np.floor(ts / w.slide) * w.slide + w.size
        keep = newest_end + w.allowed_lateness > finalized_before
        mask = pa.array(keep)
        self._late_schema = tbl.schema
        return tbl.filter(mask), tbl.filter(pc.invert(mask))

    def late_rows_table(self, _rows: list, _epoch: int) -> pa.Table:
        """The ``<name>__late`` output of an epoch without late rows: the
        input's typed empty columns, once an input has been seen."""
        return (pa.table({}) if self._late_schema is None
                else self._late_schema.empty_table())

    # --------------------------------------------------------------- partials
    def partial_batch(self, tbl: pa.Table, finalized_before: float):
        """One block → (partials, late_rows).  Windowed: columnar
        ``Partials``, one row per (window, key) in (key…, window start)
        order with the key hash that routes them — the groups, order and
        key values a sorted pandas group-by that keeps null keys gives
        (``_groups``); ``s``/``c`` sum by ``np.bincount``, monoids fold each
        group's rows in input order.  Unwindowed: {key_bytes: acc}."""
        key_cols = list(self.key_cols)
        values = (tbl.column(self.value_col).to_pandas()
                  .to_numpy(dtype=np.float64)
                  if self.value_col else np.ones(tbl.num_rows))
        weights = (tbl.column(self.weight_col).to_pandas()
                   .to_numpy(dtype=np.int64)
                   if self.weight_col and self.weight_col in tbl.column_names
                   else None)
        if self.window is None:
            return self._keyed_partials(tbl.select(key_cols).to_pandas(),
                                        values, weights), 0
        ts = _ts_seconds(tbl.column(self.ts_col))
        w = self.window
        if w.use_panes and not self.early_firing:
            idx, start, _ = w.assign_panes(ts)
            # a row is late when even its NEWEST containing window
            # (start = pane start) is already closed
            keep = start + w.size + w.allowed_lateness > finalized_before
            width = w.slide
        else:
            idx, start, end = w.assign(ts)
            keep = end + w.allowed_lateness > finalized_before
            width = w.size
        late = int((~keep).sum())
        idx, start = idx[keep], start[keep]
        *keys, start, group = _groups(
            [tbl.column(k).to_pandas().to_numpy()[idx] for k in key_cols]
            + [start])
        values = values[idx]
        weights = weights[idx] if weights is not None else None
        n = len(start)
        s = c = acc = None
        if self.make_acc is None and not self._track_extremes:
            wv = values if weights is None else values * weights
            if np.isnan(wv).any():  # a pandas group-by sum skips NaN
                wv = np.where(np.isnan(wv), 0.0, wv)
            s = np.bincount(group, weights=wv, minlength=n)
            c = (np.bincount(group, minlength=n) if weights is None else
                 np.bincount(group, weights=weights, minlength=n)
                 ).astype(np.int64)
        else:
            # each group's rows in input order
            order = np.argsort(group, kind="stable")
            bounds = np.cumsum(np.bincount(group, minlength=n))
            acc = np.empty(n, dtype=object)
            for i, pos in enumerate(np.split(order, bounds)[:-1]):
                acc[i] = self._group_acc(values, weights, pos)
        self._key_types = [tbl.schema.field(k).type for k in key_cols]
        return Partials(keys, self._key_types, key_hash(keys), start,
                        start + width, s, c, acc), late

    def _group_acc(self, values, weights, pos):
        w = weights[pos] if weights is not None else None
        if self.make_acc is not None:
            return self.make_acc(values[pos], w)
        return SumCountAgg.from_numpy(values[pos], w,
                                      track_extremes=self._track_extremes)

    def _keyed_partials(self, frame: pd.DataFrame, values, weights) -> dict:
        """Unwindowed partials: {pickled key tuple: accumulator}."""
        group_cols = list(self.key_cols)
        out: dict[bytes, Any] = {}
        if self.make_acc is None and not self._track_extremes:
            # vectorized fast path for plain sum/count (the common case,
            # incl. high-cardinality keys): one C-level groupby-agg, then a
            # light per-key constructor loop over the AGGREGATED rows
            w = weights if weights is not None else np.ones(len(frame), dtype=np.int64)
            frame = frame.assign(__wv=values * w, __w=w)
            agg = frame.groupby(group_cols, sort=True, dropna=False).agg(
                s=("__wv", "sum"), c=("__w", "sum")
            )
            for key, s, c in zip(agg.index, agg["s"].to_numpy(),
                                 agg["c"].to_numpy()):
                key_t = key if isinstance(key, tuple) else (key,)
                out[_key_bytes(key_t)] = SumCountAgg(float(s), int(c))
            return out
        frame["__pos"] = np.arange(len(frame))
        for key, grp in frame.groupby(group_cols, sort=True, dropna=False):
            key_t = key if isinstance(key, tuple) else (key,)
            out[_key_bytes(key_t)] = self._group_acc(
                values, weights, grp["__pos"].to_numpy())
        return out

    # --------------------------------------------------------------- finalize
    def _finalize_acc(self, acc) -> dict:
        if self.finalize is not None:
            return self.finalize(acc)
        out = {}
        for a in self.aggs:
            if a == "count":
                out["count"] = acc.count
            elif a == "sum":
                out["sum"] = acc.s
            elif a == "mean":
                out["mean"] = acc.mean
            elif a == "min":
                out["min"] = acc.min_max()[0]
            elif a == "max":
                out["max"] = acc.min_max()[1]
        return out

    def _agg_columns(self, p: Partials | None) -> dict:
        """Finalized aggregate columns of window rows: vectorized for the
        built-in sum/count/mean, one ``_finalize_acc`` per row otherwise."""
        if p is not None and p.acc is None and self.finalize is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = {"count": p.c, "sum": p.s, "mean": p.s / p.c}
            return {a: pa.array(vals[a]) for a in self.aggs}
        if p is not None and len(p):
            recs = pa.Table.from_pylist(self._finalized(p))
            return dict(zip(recs.column_names, recs.columns))
        return {a: pa.array([], type=pa.int64() if a == "count"
                             else pa.float64() if a in _AGG_FIELDS
                             else pa.null())
                for a in self.aggs}

    def _finalized(self, p: Partials) -> list:
        """``_finalize_acc`` per (live) row; sum/count rows as
        ``SumCountAgg``."""
        accs = (p.acc if p.acc is not None else
                [SumCountAgg(s, c) for s, c in zip(p.s.tolist(), p.c.tolist())])
        return [self._finalize_acc(a) for a in accs]

    def _window_table(self, p: Partials | None, epoch: int,
                      diff: np.ndarray | None = None) -> pa.Table:
        """Window rows → keys, window bounds, aggregates (, diff), epoch."""
        n = 0 if p is None else len(p)
        types = (p.types if p is not None else self._key_types
                 or [None] * len(self.key_cols))
        cols = {k: (to_arrow(p.keys[i], types[i]) if p is not None
                    else pa.array([], type=types[i] or pa.null()))
                for i, k in enumerate(self.key_cols)}
        cols["window_start"] = pa.array(
            np.empty(0) if p is None else p.start, type=pa.float64())
        cols["window_end"] = pa.array(
            np.empty(0) if p is None else p.end, type=pa.float64())
        cols.update(self._agg_columns(p))
        if diff is not None:
            cols["diff"] = pa.array(diff, type=pa.int64())
        cols["epoch"] = pa.array(np.full(n, epoch, dtype=np.int64))
        return pa.table(cols)

    def rows_to_table(self, items: list, epoch: int) -> pa.Table:
        """Closed windows (the shards' swept ``Partials``) → output rows.
        Unwindowed state (``state_table``): (key_bytes, acc) pairs."""
        if self.window is not None:
            return self._window_table(Partials.concat(items) if items
                                      else None, epoch)
        recs = []
        for kb, acc in items:
            rec = dict(zip(self.key_cols, pickle.loads(kb)))
            rec.update(self._finalize_acc(acc))
            rec["epoch"] = epoch
            recs.append(rec)
        if not recs:
            names = list(self.key_cols) + [a for a in self.aggs] + ["epoch"]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)

    def changelog_to_table(self, pairs: list, epoch: int) -> pa.Table:
        """Touched keys' (old, new) accumulators → ±1 delta rows
        (retraction of the old finalized aggregate before the addition of
        the new; keys whose finalized value did not change emit nothing).
        Early firing: ``pairs`` are the shards' ``(before, after)`` window
        rows; unwindowed: ``(key_bytes, old_acc, new_acc)`` per key.

        With ``threshold_fn`` the row is the key alone and the diff is
        ``f(new_count) − f(old_count)`` (skipped when 0) — DD threshold."""
        if self.window is not None:
            return self._window_changelog(pairs, epoch)
        if self.threshold_fn is not None:
            recs = []
            f = self.threshold_fn
            for kb, old, new in pairs:
                d = (f(0 if new is None else int(new.count))
                     - f(0 if old is None else int(old.count)))
                if d == 0:
                    continue
                recs.append({**dict(zip(self.key_cols, pickle.loads(kb))),
                             "diff": d, "epoch": epoch})
            if not recs:
                return pa.table({n: pa.array([]) for n in
                                 list(self.key_cols) + ["diff", "epoch"]})
            return pa.Table.from_pylist(recs)
        recs = []
        for kb, old, new in pairs:
            of = None if old is None else self._finalize_acc(old)
            nf = None if new is None else self._finalize_acc(new)
            if of == nf:
                continue
            base = dict(zip(self.key_cols, pickle.loads(kb)))
            if of is not None:
                recs.append({**base, **of, "diff": -1, "epoch": epoch})
            if nf is not None:
                recs.append({**base, **nf, "diff": 1, "epoch": epoch})
        if not recs:
            names = list(self.key_cols) + [a for a in self.aggs] + ["diff", "epoch"]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)

    def _window_changelog(self, pairs: list, epoch: int) -> pa.Table:
        if not pairs:
            return self._window_table(None, epoch, np.empty(0))
        before = Partials.concat([b for b, _ in pairs])
        after = Partials.concat([a for _, a in pairs])
        was, now = ~before.identity(), ~after.identity()
        if before.acc is None and self.finalize is None:
            old, new = self._agg_columns(before), self._agg_columns(after)
            moved = np.zeros(len(before), dtype=bool)
            for a in self.aggs:
                moved |= (old[a].to_numpy(zero_copy_only=False)
                          != new[a].to_numpy(zero_copy_only=False))
        else:  # finalize only rows live on both sides
            both = np.flatnonzero(was & now)
            moved = np.zeros(len(before), dtype=bool)
            moved[both] = [o != n for o, n in zip(
                self._finalized(before.take(both)),
                self._finalized(after.take(both)))]
        changed = (was != now) | (was & now & moved)
        out_rows = np.flatnonzero(was & changed)
        in_rows = np.flatnonzero(now & changed)
        # per (window, key): the retraction, then the addition
        row = np.concatenate([out_rows, in_rows])
        diff = np.concatenate([np.full(len(out_rows), -1, dtype=np.int64),
                               np.ones(len(in_rows), dtype=np.int64)])
        order = np.lexsort([diff, row])
        rows = Partials.concat([before.take(out_rows), after.take(in_rows)])
        return self._window_table(rows.take(order), epoch, diff[order])


@dataclass
class SessionWindowAggregation:
    """Per-key session windows (gap-merged) with sum/count/min_ts/max_ts.

    Insert-only (see StateShard.apply_session_points); finalized when the
    watermark passes session end + allowed lateness.

    Late side output: unlike the fixed windows (where
    ``KeyedAggregation(late_output=True)`` is genuinely FINER than any
    watermark offset — window ends quantize), the session drop rule is
    exactly the fixed-offset test ``ts + gap + allowed_lateness ≤
    watermark``, so the session-level ``StreamSession.route_late(...,
    lateness=gap + allowed_lateness)`` reproduces the operator's late set
    BIT-EXACTLY — route there for a durable side sink (equivalence
    pytest-pinned in ``TestRouteLate``); no operator-level flag needed.
    """

    name: str
    input: str
    key_cols: Sequence[str]
    ts_col: str
    gap: float
    value_col: str | None = None
    allowed_lateness: float = 0.0
    #: retractable mode keeps the raw point multiset in the shards (a
    #: retraction can SPLIT a session); pair with ``weight_col`` diffs.
    retractable: bool = False
    weight_col: str | None = None
    #: early firing for MERGING windows (Beam's hardest case): besides the
    #: exactly-once emission when the watermark closes a session, each
    #: epoch emits a ±1 changelog of the OPEN sessions the epoch touched
    #: into the ``<name>__early`` side sink — a gap-bridging arrival
    #: retracts BOTH prior partial sessions and adds the merged one; in
    #: retractable mode a deleted bridge point retracts the joined session
    #: and adds the two halves.  The close sweep additionally retracts each
    #: finally-emitted session from the early stream, so main sink + early
    #: stream running sums always form ONE consistent sessionization.
    early_firing: bool = False

    def points_batch(self, tbl: pa.Table, finalized_before: float) -> tuple[dict, int]:
        """→ ({key: [(ts, value)…]}, late) — or (ts, value, diff) triples in
        retractable mode."""
        cols = list(self.key_cols) + [self.ts_col] + (
            [self.value_col] if self.value_col else []
        )
        if self.retractable and self.weight_col and self.weight_col in tbl.column_names:
            cols.append(self.weight_col)
        pdf = tbl.select(dict.fromkeys(cols)).to_pandas()
        ts = _ts_to_float(pdf[self.ts_col])
        vals = (
            pdf[self.value_col].to_numpy(dtype=np.float64)
            if self.value_col
            else np.ones(len(pdf))
        )
        diffs = (
            pdf[self.weight_col].to_numpy(dtype=np.int64)
            if self.retractable and self.weight_col and self.weight_col in pdf
            else np.ones(len(pdf), dtype=np.int64)
        )
        keep = ts + self.gap + self.allowed_lateness > finalized_before
        late = int((~keep).sum())
        pdf = pdf[keep]
        ts, vals, diffs = ts[keep], vals[keep], diffs[keep]
        out: dict[bytes, list] = {}
        frame = pdf[list(self.key_cols)].copy()
        frame["__pos"] = np.arange(len(frame))
        for key, grp in frame.groupby(list(self.key_cols), sort=True, dropna=False):
            key_t = key if isinstance(key, tuple) else (key,)
            pos = grp["__pos"].to_numpy()
            if self.retractable:
                out[_key_bytes(key_t)] = list(
                    zip(ts[pos].tolist(), vals[pos].tolist(), diffs[pos].tolist())
                )
            else:
                out[_key_bytes(key_t)] = list(zip(ts[pos].tolist(), vals[pos].tolist()))
        return out, late

    def rows_to_table(self, items: list, epoch: int) -> pa.Table:
        recs = []
        for kb, sess in items:
            key = pickle.loads(kb)
            s, c, mn_ts, mx_ts = sess[2]
            rec = dict(zip(self.key_cols, key))
            rec.update(
                {
                    "session_start": sess[0],
                    "session_end": sess[1],
                    "sum": s,
                    "count": c,
                    "first_ts": mn_ts,
                    "last_ts": mx_ts,
                    "epoch": epoch,
                }
            )
            recs.append(rec)
        if not recs:
            names = list(self.key_cols) + [
                "session_start", "session_end", "sum", "count", "first_ts",
                "last_ts", "epoch",
            ]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)

    def early_rows_to_table(self, items: list, epoch: int) -> pa.Table:
        """(key_bytes, ±1, session tuple) rows → the early-changelog table
        (same columns as the final emission, plus ``diff``)."""
        recs = []
        for kb, diff, sess in items:
            key = pickle.loads(kb)
            s, c, mn_ts, mx_ts = sess[2]
            rec = {"diff": int(diff)}
            rec.update(dict(zip(self.key_cols, key)))
            rec.update(
                {
                    "session_start": sess[0],
                    "session_end": sess[1],
                    "sum": s,
                    "count": c,
                    "first_ts": mn_ts,
                    "last_ts": mx_ts,
                    "epoch": epoch,
                }
            )
            recs.append(rec)
        if not recs:
            names = ["diff"] + list(self.key_cols) + [
                "session_start", "session_end", "sum", "count", "first_ts",
                "last_ts", "epoch",
            ]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)


@dataclass
class PatternMatch:
    """CEP sequence detection: per-key ordered event-type chains.

    A match is a strictly-increasing-event-time chain whose types equal
    ``pattern`` and whose span fits in ``within`` seconds of the first
    element — all-combinations semantics, the same multiset a relational
    self-join produces (the SQL oracle).  Matches are emitted when the
    watermark passes ``start + within`` (+ allowed lateness): no future
    event can extend a finalized start, so emission is exactly-once and
    swept events are dropped from shard state (retention = ``within``).
    The reference has no CEP surface at all; this extends the north rule's
    "structured-streaming / CEP engine" beyond windows + joins.
    """

    name: str
    input: str
    key_cols: Sequence[str]
    ts_col: str
    type_col: str
    pattern: Sequence[str]
    within: float
    allowed_lateness: float = 0.0

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("pattern must list at least one event type")
        if self.within <= 0:
            raise ValueError("within must be positive")

    def points_batch(self, tbl: pa.Table, finalized_before: float) -> tuple[dict, int]:
        """→ ({key: [(ts, type)…]}, late).  Events at or before the last
        finalize bound (watermark − within) can only serve already-emitted
        starts — dropped as late."""
        cols = list(self.key_cols) + [self.ts_col, self.type_col]
        pdf = tbl.select(dict.fromkeys(cols)).to_pandas()
        ts = _ts_to_float(pdf[self.ts_col])
        types = pdf[self.type_col].to_numpy()
        bound = finalized_before - self.within - self.allowed_lateness
        keep = ts > bound
        late = int((~keep).sum())
        pdf, ts, types = pdf[keep], ts[keep], types[keep]
        out: dict[bytes, list] = {}
        frame = pdf[list(self.key_cols)].copy()
        frame["__pos"] = np.arange(len(frame))
        for key, grp in frame.groupby(list(self.key_cols), sort=True, dropna=False):
            key_t = key if isinstance(key, tuple) else (key,)
            pos = grp["__pos"].to_numpy()
            out[_key_bytes(key_t)] = list(zip(ts[pos].tolist(),
                                              types[pos].tolist()))
        return out, late

    def rows_to_table(self, items: list, epoch: int) -> pa.Table:
        recs = []
        for kb, chain in items:
            key = pickle.loads(kb)
            rec = dict(zip(self.key_cols, key))
            for i, t in enumerate(chain):
                rec[f"ts_{i}"] = t
            rec["epoch"] = epoch
            recs.append(rec)
        if not recs:
            names = (list(self.key_cols)
                     + [f"ts_{i}" for i in range(len(self.pattern))]
                     + ["epoch"])
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)


@dataclass
class AbsenceDetect:
    """CEP negation: emit each ``first``-type event with NO ``absent``-type
    event on the same key within ``within`` seconds after it — timeout /
    non-occurrence detection ("click with no purchase inside the window",
    "heartbeat with no follow-up").

    Watermark-driven and exactly-once: a ``first`` event at ``t`` is
    finalizable only when the watermark passes ``t + within`` (no future
    ``absent`` event can still cancel it), at which point it either emits
    (no canceller in state) or is dropped, and state older than the bound
    is swept — retention = ``within``, the same contract as
    ``PatternMatch``.  Multiset semantics: ``k`` copies of an uncancelled
    ``first`` event emit ``k`` rows, exactly like the relational
    ``NOT EXISTS`` oracle.
    """

    name: str
    input: str
    key_cols: Sequence[str]
    ts_col: str
    type_col: str
    first: str            # the event type being watched
    absent: str           # the type whose ABSENCE within the window emits
    within: float
    allowed_lateness: float = 0.0

    def __post_init__(self):
        if self.within <= 0:
            raise ValueError("within must be positive")
        if self.first == self.absent:
            raise ValueError("first and absent must be distinct types")

    def points_batch(self, tbl: pa.Table, finalized_before: float
                     ) -> tuple[dict, int]:
        """→ ({key: [(ts, type)…]}, late) — only the two watched types are
        buffered; events at or before the finalize bound are late."""
        cols = list(self.key_cols) + [self.ts_col, self.type_col]
        pdf = tbl.select(dict.fromkeys(cols)).to_pandas()
        ts = _ts_to_float(pdf[self.ts_col])
        types = pdf[self.type_col].to_numpy()
        bound = finalized_before - self.within - self.allowed_lateness
        keep = (ts > bound) & ((types == self.first) | (types == self.absent))
        late = int(((ts <= bound) & ((types == self.first)
                                     | (types == self.absent))).sum())
        pdf, ts, types = pdf[keep], ts[keep], types[keep]
        out: dict[bytes, list] = {}
        frame = pdf[list(self.key_cols)].copy()
        frame["__pos"] = np.arange(len(frame))
        for key, grp in frame.groupby(list(self.key_cols), sort=True,
                                      dropna=False):
            key_t = key if isinstance(key, tuple) else (key,)
            pos = grp["__pos"].to_numpy()
            out[_key_bytes(key_t)] = list(zip(ts[pos].tolist(),
                                              types[pos].tolist()))
        return out, late

    def rows_to_table(self, items: list, epoch: int) -> pa.Table:
        recs = []
        for kb, ts in items:
            key = pickle.loads(kb)
            rec = dict(zip(self.key_cols, key))
            rec["ts"] = ts
            rec["epoch"] = epoch
            recs.append(rec)
        if not recs:
            names = list(self.key_cols) + ["ts", "epoch"]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)


@dataclass
class KleenePattern:
    """CEP Kleene-plus sequence (``A B+ C``): per key, emit one match per
    (``first``, ``last``) event pair with ``first.ts < last.ts ≤ first.ts +
    within`` and AT LEAST ONE ``mid`` event strictly between them, carrying
    the aggregated middle count ``b_count`` — MATCH_RECOGNIZE's ``A B+ C``
    with one row per (A, C) pair and ``count(B)`` as the measure.
    Non-contiguous (other event types may interleave), multiset semantics
    (duplicate a/c events multiply rows; duplicate b events add to the
    count) — exactly the relational a⋈c join with an inner b-count, which
    is the SQL oracle.  The middle is AGGREGATED rather than exploded by
    design: all-subsets ``B+`` emits 2^|B|−1 rows per pair, which neither a
    streaming engine nor its SQL twin should materialize.

    Watermark-driven and exactly-once like ``PatternMatch``: a start
    finalizes when the watermark passes ``first.ts + within`` (no future
    event can extend it), swept events drop (retention = ``within``).
    Shares the pattern point state and its apply
    (``apply_pattern_points``).
    """

    name: str
    input: str
    key_cols: Sequence[str]
    ts_col: str
    type_col: str
    first: str            # A
    mid: str              # B (one-or-more, aggregated)
    last: str             # C
    within: float
    allowed_lateness: float = 0.0

    def __post_init__(self):
        if self.within <= 0:
            raise ValueError("within must be positive")
        if len({self.first, self.mid, self.last}) != 3:
            raise ValueError("first/mid/last must be three distinct types")

    def points_batch(self, tbl: pa.Table, finalized_before: float
                     ) -> tuple[dict, int]:
        """→ ({key: [(ts, type)…]}, late) — only the three watched types
        are buffered; events at or before the finalize bound are late."""
        cols = list(self.key_cols) + [self.ts_col, self.type_col]
        pdf = tbl.select(dict.fromkeys(cols)).to_pandas()
        ts = _ts_to_float(pdf[self.ts_col])
        types = pdf[self.type_col].to_numpy()
        bound = finalized_before - self.within - self.allowed_lateness
        watched = ((types == self.first) | (types == self.mid)
                   | (types == self.last))
        keep = (ts > bound) & watched
        late = int(((ts <= bound) & watched).sum())
        pdf, ts, types = pdf[keep], ts[keep], types[keep]
        out: dict[bytes, list] = {}
        frame = pdf[list(self.key_cols)].copy()
        frame["__pos"] = np.arange(len(frame))
        for key, grp in frame.groupby(list(self.key_cols), sort=True,
                                      dropna=False):
            key_t = key if isinstance(key, tuple) else (key,)
            pos = grp["__pos"].to_numpy()
            out[_key_bytes(key_t)] = list(zip(ts[pos].tolist(),
                                              types[pos].tolist()))
        return out, late

    def rows_to_table(self, items: list, epoch: int) -> pa.Table:
        recs = []
        for kb, (a_ts, c_ts, nb) in items:
            key = pickle.loads(kb)
            rec = dict(zip(self.key_cols, key))
            rec["a_ts"] = a_ts
            rec["c_ts"] = c_ts
            rec["b_count"] = nb
            rec["epoch"] = epoch
            recs.append(rec)
        if not recs:
            names = list(self.key_cols) + ["a_ts", "c_ts", "b_count",
                                           "epoch"]
            return pa.table({n: pa.array([]) for n in names})
        return pa.Table.from_pylist(recs)


@dataclass
class IncrementalComponents:
    """Incremental connected components — the DD ``iterate`` primitive
    maintained ACROSS epochs instead of recomputed: each epoch's new edges
    update a union-find with min-id labels, and the op emits a consolidated
    multiset delta of ``(diff ±1, id, component)`` rows — the timestamped
    retraction stream whose running sum is the current component table
    (materialize with ``SUM(diff) GROUP BY id, component`` and keep net>0).

    State is ONE union-find in one designated shard (a connected component
    is global by nature): the candidate-bounded regime — verified dedup
    pairs, entity-resolution graphs — the same bound as the batch driver
    tier; unbounded raw-corpus graphs belong to the batch two-level
    ``connected_components_ds``.  Deterministic (sorted edge application)
    and replay-idempotent (epoch high-water mark + idempotent sink)."""

    name: str
    input: str
    lo_col: str = "id_lo"
    hi_col: str = "id_hi"

    def edges_from(self, tbl: pa.Table) -> list:
        lo = tbl[self.lo_col].to_numpy(zero_copy_only=False)
        hi = tbl[self.hi_col].to_numpy(zero_copy_only=False)
        return list(zip(lo.tolist(), hi.tolist()))

    def rows_to_table(self, deltas: list, epoch: int) -> pa.Table:
        if not deltas:
            return pa.table({
                "diff": pa.array([], type=pa.int64()),
                "id": pa.array([], type=pa.int64()),
                "component": pa.array([], type=pa.int64()),
                "epoch": pa.array([], type=pa.int64()),
            })
        d, n, c = zip(*deltas)
        k = len(deltas)
        return pa.table({
            "diff": pa.array(list(d), type=pa.int64()),
            "id": pa.array(list(n), type=pa.int64()),
            "component": pa.array(list(c), type=pa.int64()),
            "epoch": pa.array([epoch] * k, type=pa.int64()),
        })


@dataclass
class IncrementalPageRank:
    """Incremental PageRank — the ``iterate`` primitive maintained ACROSS
    epochs WITH retraction, the capability union-find components cannot
    offer (union is monotone; rank maintenance is not): the designated
    shard keeps the live directed edge multiset and the current ranks,
    each epoch applies ±``weight_col`` edge deltas (a −1 removes an edge
    copy — deletions are first-class) and warm-starts the power iteration
    from the previous ranks, so a small delta converges in a few sweeps
    instead of recomputing from scratch.  Emits the consolidated changelog
    ``(−1, id, old_rank)`` / ``(+1, id, new_rank)`` whose running sum IS
    the current rank table.  Same update rule as the batch ``pagerank``
    (stages/iterate.py) — converged ranks agree with a from-scratch
    fixpoint to ``tol``.  One logical graph in ONE shard: the
    candidate-bounded regime (entity graphs, verified dedup pairs), the
    same contract as ``IncrementalComponents``."""

    name: str
    input: str
    src_col: str = "src"
    dst_col: str = "dst"
    #: ±diff per edge row; None = insert-only stream
    weight_col: str | None = None
    damping: float = 0.85
    #: convergence bound on max |Δrank| per sweep; raises past max_iters
    tol: float = 1e-12
    max_iters: int = 500
    #: changelog suppression: silent when a node's rank moved ≤ this (the
    #: stored state keeps the emitted value, so running sum == state)
    emit_tol: float = 1e-9

    def edges_from(self, tbl: pa.Table) -> list:
        src = tbl[self.src_col].to_numpy(zero_copy_only=False)
        dst = tbl[self.dst_col].to_numpy(zero_copy_only=False)
        if self.weight_col and self.weight_col in tbl.column_names:
            d = tbl[self.weight_col].to_numpy(zero_copy_only=False)
        else:
            d = np.ones(len(src), dtype=np.int64)
        return list(zip(src.tolist(), dst.tolist(), d.tolist()))

    def rows_to_table(self, deltas: list, epoch: int) -> pa.Table:
        if not deltas:
            return pa.table({
                "diff": pa.array([], type=pa.int64()),
                "id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.float64()),
                "epoch": pa.array([], type=pa.int64()),
            })
        d, n, r = zip(*deltas)
        k = len(deltas)
        return pa.table({
            "diff": pa.array(list(d), type=pa.int64()),
            "id": pa.array(list(n), type=pa.int64()),
            "rank": pa.array(list(r), type=pa.float64()),
            "epoch": pa.array([epoch] * k, type=pa.int64()),
        })


@dataclass
class StreamNearDup:
    """Streaming MinHash-LSH near-duplicate detection: per-block (and on
    Dataset epochs, fully distributed) signature + band derivation, with
    the band-bucket member registers hash-partitioned across the shards —
    horizontal state, like every keyed table.  A new doc joining a bucket
    is compared against the bucket's existing members (signature
    agreement = Jaccard estimate) and pairs estimated ≥ ``threshold``
    emit as candidate detections, incrementally, across epochs.  The
    output is a MULTISET (one pair can fire from several bands/shards/
    epochs) — chain ``StreamDedup`` on (id_lo, id_hi) in the SAME session
    for exactly-once distinct pairs.  ``bucket_cap`` star-caps hot
    boilerplate buckets (overflow docs still compare against members but
    can't be found by later arrivals; drops logged) — the batch LSH
    contract (stages/dedup.py).  State per doc = bands × signature bytes;
    event-time expiry is intentionally absent (near-dup is corpus-global);
    bound state by corpus, not time."""

    name: str
    input: str
    id_col: str = "doc_id"
    text_col: str = "text"
    num_perm: int = 64
    bands: int = 16
    shingle: int = 3
    threshold: float = 0.9
    bucket_cap: int = 64

    def _params(self):
        from ..stages.dedup import MinHashParams
        return MinHashParams(num_perm=self.num_perm, bands=self.bands,
                             shingle=self.shingle)

    def points_batch(self, tbl: pa.Table, finalized_before: float
                     ) -> tuple[dict, int]:
        """One block → {band_bucket_bytes: [(doc_id, sig_bytes)]}."""
        from ..stages.dedup import _P61, minhash_signatures

        params = self._params()
        sig_tbl = minhash_signatures(tbl, self.text_col, params,
                                     self.id_col)
        ids = sig_tbl[self.id_col].to_numpy(zero_copy_only=False)
        sig = np.asarray(
            sig_tbl["sig"].combine_chunks().flatten().to_numpy(
                zero_copy_only=False),
            dtype=np.uint64).reshape(len(sig_tbl), -1)
        r = params.rows_per_band
        mix = (np.arange(1, r + 1, dtype=np.uint64)
               * np.uint64(0xC2B2AE3D27D4EB4F)) | 1
        sig_bytes = [row.tobytes() for row in sig]  # once per doc
        out: dict[bytes, list] = {}
        for bi in range(params.bands):
            chunk = sig[:, bi * r: (bi + 1) * r]
            bh = (chunk * mix[None, :]).sum(axis=1) % np.uint64(_P61)
            # group rows by band hash: one key / one list per BUCKET
            order = np.argsort(bh, kind="stable")
            sh = bh[order]
            cuts = np.concatenate(
                [[0], np.nonzero(sh[1:] != sh[:-1])[0] + 1, [len(sh)]])
            for s, e in zip(cuts[:-1], cuts[1:]):
                kb = _key_bytes((bi, int(sh[s])))
                out.setdefault(kb, []).extend(
                    (int(ids[j]), sig_bytes[j]) for j in order[s:e])
        return out, 0

    def rows_to_table(self, pairs: list, epoch: int) -> pa.Table:
        return pa.table({
            "id_lo": pa.array([p[0] for p in pairs], type=pa.int64()),
            "id_hi": pa.array([p[1] for p in pairs], type=pa.int64()),
            "est": pa.array([p[2] for p in pairs], type=pa.float64()),
            "epoch": pa.array([epoch] * len(pairs), type=pa.int64()),
        })


@dataclass
class UpsertToRetract:
    """Arrange + consolidate (the differential-dataflow changelog primitive):
    an UPSERT stream keyed by ``key`` — each row offers ``vals`` at LWW stamp
    ``(ts_col, tiebreak)``, delete rows (``delete_col``) are tombstones —
    becomes a consolidated RETRACTION changelog: per epoch, each key whose
    latest value changed emits ``(+1, key, new_vals)`` and, when a prior
    value existed, ``(−1, key, old_vals)``; a winning tombstone emits only
    the retraction; intra-epoch churn consolidates away (only the epoch's
    net per-key winner is offered); stale offers (older stamp than the
    register) emit nothing.  The changelog's running sum — ``SUM(diff)
    GROUP BY key, vals HAVING net > 0`` — IS the latest-value-per-key table,
    which is what downstream differential operators consume instead of
    rescanning the upsert history (reference parity: the upsert→retraction
    adapter every CDC ingest needs).

    State: per-key ``LastValueAgg`` registers hash-partitioned across ALL
    shards (unlike ``IncrementalComponents``' single global graph) —
    per-key state, so it scales horizontally; checkpointed with the shard
    snapshot and replay-idempotent via the epoch high-water mark.

    ``key_types`` / ``val_types`` are REQUIRED Arrow types: empty epochs and
    distributed per-shard parts must emit the same schema the sink saw
    before (type inference over an empty delta list cannot)."""

    name: str
    input: str
    key: Sequence[str]
    vals: Sequence[str]
    key_types: Sequence[Any]
    val_types: Sequence[Any]
    ts_col: str = "ts"
    delete_col: str | None = None

    def __post_init__(self):
        if len(self.key_types) != len(self.key):
            raise ValueError("key_types must match key")
        if len(self.val_types) != len(self.vals):
            raise ValueError("val_types must match vals")

    # same partial contract as KeyedAggregation/EnrichJoin: the route folds
    # each block into per-key LWW offers
    def partial_batch(self, tbl: pa.Table, finalized_before: float
                      ) -> tuple[dict, int]:
        return _lww_partials(tbl, self.key, self.vals, self.ts_col,
                             self.delete_col), 0

    def state_to_table(self, items: list, epoch: int) -> pa.Table:
        """``collect()`` registers → the MATERIALIZED latest-per-key table
        (tombstones excluded) — equal to the changelog's running sum, read
        straight from shard state without replaying the sink (this is the
        ``state_table`` surface for this op)."""
        live = [(pickle.loads(kb), acc.value) for kb, acc in items
                if acc.value is not None]
        arrays: dict[str, pa.Array] = {}
        for i, (c, t) in enumerate(zip(self.key, self.key_types)):
            arrays[c] = pa.array([k[i] for k, _ in live], type=t)
        for i, (c, t) in enumerate(zip(self.vals, self.val_types)):
            arrays[c] = pa.array([v[i] for _, v in live], type=t)
        arrays["epoch"] = pa.array([epoch] * len(live), type=pa.int64())
        return pa.table(arrays)

    def rows_to_table(self, deltas: list, epoch: int) -> pa.Table:
        """``(diff, key_bytes, value_tuple)`` deltas → the changelog table
        ``(diff, *key, *vals, epoch)`` with pinned types."""
        keys = [pickle.loads(kb) for _, kb, _ in deltas]
        arrays: dict[str, pa.Array] = {
            "diff": pa.array([d for d, _, _ in deltas], type=pa.int64())}
        for i, (c, t) in enumerate(zip(self.key, self.key_types)):
            arrays[c] = pa.array([k[i] for k in keys], type=t)
        for i, (c, t) in enumerate(zip(self.vals, self.val_types)):
            arrays[c] = pa.array([v[i] for _, _, v in deltas], type=t)
        arrays["epoch"] = pa.array([epoch] * len(deltas), type=pa.int64())
        return pa.table(arrays)


@dataclass
class StreamJoin:
    """Stateful symmetric hash join keyed by arbitrary columns.

    Both sides are hash-partitioned to the same shards (co-location by key —
    SURVEY §7.4); each shard buffers per-key rows and emits each matched pair
    exactly once.  ``retention`` bounds buffered state by event time
    (watermark − retention is expired on every advance).
    """

    name: str
    left_input: str
    right_input: str
    left_key: Sequence[str]
    right_key: Sequence[str]
    left_cols: Sequence[str]
    right_cols: Sequence[str]
    left_ts: str | None = None
    right_ts: str | None = None
    retention: float | None = None
    #: interval join: only emit pairs with |left_ts − right_ts| ≤ max_dt
    #: (the time-bounded stream-stream join — funnels, attribution windows).
    #: The bound is applied INSIDE the shard probe, so unmatched history
    #: still ages out by ``retention`` exactly as before.
    max_dt: float | None = None
    #: LEFT OUTER interval join (Flink's outer interval join): when set,
    #: left rows whose join window has closed (watermark > left_ts +
    #: max_dt) with NO match emit once into the ``<name>__unmatched`` side
    #: sink (left columns + event time), then drop from the buffer —
    #: matched ∪ unmatched is exactly the relational LEFT JOIN multiset
    #: under the interval predicate, provided right rows arrive
    #: watermark-consistently (a right row older than the watermark at
    #: arrival may miss already-finalized lefts — the standard streaming
    #: outer-join contract).  Requires ``max_dt``; not retraction-aware
    #: (a diff=−1 row marks its key matched like any other match).
    #: ``True``/``"left"`` = LEFT OUTER, ``"right"`` = RIGHT OUTER,
    #: ``"full"`` = FULL OUTER (both sides' never-matched rows sweep into
    #: their own side sinks: ``<name>__unmatched`` for left,
    #: ``<name>__unmatched_right`` for right).
    emit_unmatched: bool | str = False

    def unmatched_sides(self) -> tuple[str, ...]:
        if not self.emit_unmatched:
            return ()
        if self.emit_unmatched is True or self.emit_unmatched == "left":
            return ("left",)
        if self.emit_unmatched == "right":
            return ("right",)
        if self.emit_unmatched in ("full", "both"):
            return ("left", "right")
        raise ValueError(f"emit_unmatched={self.emit_unmatched!r}: use "
                         "True/'left'/'right'/'full'")

    def __post_init__(self):
        #: Arrow schema of each side's carried columns, once seen: an epoch
        #: with no match still commits typed columns
        self._schemas: dict[str, pa.Schema] = {}
        if self.max_dt is not None and not (self.left_ts and self.right_ts):
            raise ValueError("max_dt requires left_ts and right_ts")
        if self.unmatched_sides():
            if self.max_dt is None:
                raise ValueError("emit_unmatched requires max_dt: an "
                                 "unbounded join never finalizes a row")
            if self.retention is not None and self.retention < self.max_dt:
                raise ValueError("retention < max_dt would expire rows "
                                 "before their unmatched sweep")

    def _side(self, side: str) -> tuple[list, list, str | None]:
        """(key columns, carried columns, event-time column) of a side."""
        if side == "left":
            keys, cols, ts = self.left_key, self.left_cols, self.left_ts
        else:
            keys, cols, ts = self.right_key, self.right_cols, self.right_ts
        return list(keys), list(dict.fromkeys(list(keys) + list(cols))), ts

    def side_shards(self, tbl: pa.Table, side: str,
                    num_shards: int) -> dict[int, Rows]:
        """One side's epoch rows → ``Rows`` per shard: the carried Arrow
        columns, key hash (``arrow_key_hash`` of the key columns, computed
        per column; shard = hash % num_shards, identical on both sides, so
        matching keys co-locate), event time in float seconds and
        ``diff``.  A ``diff`` column on the input makes the join
        **bilinear** like DD's: a retraction row (diff = −1) matches the
        other side's buffered rows and emits matches with diff = diff_left ·
        diff_right, cancelling the earlier emissions in multiset
        semantics."""
        keys, carried, ts_col = self._side(side)
        out = tbl.select(carried)
        self._schemas[side] = out.schema
        if not tbl.num_rows:
            return {}
        n = tbl.num_rows
        rows = Rows(
            out, keys, arrow_key_hash(tbl, keys),
            _ts_seconds(tbl.column(ts_col)) if ts_col else np.zeros(n),
            (tbl.column("diff").to_numpy().astype(np.int64)
             if "diff" in tbl.column_names else np.ones(n, dtype=np.int64)))
        # hash order is the shards' run order; the take also compacts a
        # sliced input, which would otherwise pickle its parent's buffers
        return rows.take(np.argsort(rows.h, kind="stable")).split(num_shards)

    def _names(self) -> list:
        return list(dict.fromkeys(
            list(self.left_key) + list(self.left_cols) + list(self.right_cols)))

    def payload_base(self) -> dict:
        """A shard probe payload's arguments, beside the sides' rows: the
        output columns each side supplies, and the interval bound."""
        left = set(self._side("left")[1])
        names = self._names()
        return {"left_names": [n for n in names if n in left],
                "right_names": [n for n in names if n not in left],
                "max_dt": self.max_dt}

    def shard_payloads(self, left_tbl, right_tbl, num_shards: int) -> dict[int, dict]:
        """Both sides' rows co-located by key (``side_shards``) →
        {shard: probe payload}."""
        payloads: dict[int, dict] = {}
        for side, tbl in (("left", left_tbl), ("right", right_tbl)):
            if tbl is None:
                continue
            for s, part in self.side_shards(tbl, side, num_shards).items():
                payloads.setdefault(s, self.payload_base())[side] = part
        return payloads

    def _empty(self, side: str, names: list) -> dict:
        """Typed empty columns of a side, once its input has been seen."""
        schema = self._schemas.get(side)
        return {n: pa.array([], type=(schema.field(n).type if schema
                                      else pa.null()))
                for n in names}

    def matches_to_table(self, tables: list, epoch: int) -> pa.Table:
        """The shards' match tables → one table + epoch."""
        if tables:
            tbl = pa.concat_tables(tables)
        else:
            base = self.payload_base()
            tbl = pa.table({**self._empty("left", base["left_names"]),
                            **self._empty("right", base["right_names"]),
                            "diff": pa.array([], type=pa.int64())})
        return tbl.append_column(
            "epoch", pa.array(np.full(tbl.num_rows, epoch, dtype=np.int64)))

    def unmatched_to_table(self, swept: list, epoch: int,
                           side: str = "left") -> pa.Table:
        """Swept never-matched rows of one side (the shards' (columns,
        event times) pairs) → that side's columns + its event time (as its
        ts column name) + epoch.  No null-padded other side: each side sink
        keeps its own schema, and a reader null-pads at union time (the
        ``stream_outer_join`` query does)."""
        _, names, ts_col = self._side(side)
        if swept:
            tbl = pa.concat_tables([t for t, _ in swept])
            ts = np.concatenate([t for _, t in swept])
        else:
            tbl, ts = pa.table(self._empty(side, names)), np.empty(0)
        if ts_col not in names:  # else keep the carried original
            tbl = tbl.append_column(ts_col, pa.array(ts, type=pa.float64()))
        return tbl.append_column(
            "epoch", pa.array(np.full(tbl.num_rows, epoch, dtype=np.int64)))


@dataclass
class EnrichJoin:
    """Stream-table enrichment join: a slowly-changing dimension table kept
    as per-key last-writer-wins registers in the state shards; each epoch's
    stream rows are enriched with the key's CURRENT dim values (left-join
    semantics — unmatched keys get nulls).

    Distinct from ``StreamJoin`` (which buffers both sides' histories and
    emits all matched pairs): the dim side is an upsert stream — epoch-e
    updates are visible to epoch-e events, and ``LastValueAgg``'s semilattice
    merge makes the outcome independent of block/shard/retry order.  Dim
    epochs are assumed small relative to the stream (the slowly-changing-
    dimension contract); per-epoch dim rows are folded into per-key registers
    before they leave the worker.
    """

    name: str
    dim_input: str
    stream_input: str
    key: Sequence[str]                       # key cols on the stream side
    dim_vals: Sequence[str] = ()             # dim cols attached to events
    stream_cols: Sequence[str] = ()          # event cols carried through
    dim_key: Sequence[str] | None = None     # dim-side names (default = key)
    dim_ts: str = "ts"                       # LWW stamp column on dim side
    #: Arrow types for ``dim_vals`` (same order).  Unmatched keys emit NULLs,
    #: and pandas would otherwise promote int columns to float in null-bearing
    #: epochs — an epoch-dependent schema the sink must never see; explicit
    #: types pin it (Arrow ints are nullable).
    dim_types: Sequence[Any] | None = None
    #: optional bool column on the dim side: rows where it is true DELETE the
    #: key — upserted as a TOMBSTONE register (value None) so it keeps its
    #: stamp and shadows older upserts arriving late/out of order; probes
    #: read tombstoned keys as misses (nulls).
    dim_delete_col: str | None = None
    #: register TTL in event time: on each watermark advance, dim registers
    #: whose LWW stamp is older than ``watermark − dim_ttl`` are dropped
    #: (including tombstones).  Bounds shard state for unbounded key spaces;
    #: an expired key re-enriches as a miss, exactly like a never-seen key.
    dim_ttl: float | None = None
    #: optional event-time column on the STREAM side: when set, the probe
    #: ships each group's max stream event time back so the session's
    #: ``auto_watermark_delay`` advances (and ``dim_ttl`` sweeps fire) from
    #: EnrichJoin traffic alone.  Without it, an EnrichJoin-only session
    #: needs explicit watermarks for TTL sweeps.
    stream_ts: str | None = None
    #: SHARED ARRANGEMENT (differential dataflow's signature economy —
    #: arrange once, read from many operators): the name of an
    #: ``UpsertToRetract`` op in the same session whose per-key LWW
    #: registers serve as this join's dim side.  This op then maintains NO
    #: dim state of its own — the one arrangement simultaneously feeds the
    #: changelog the owner emits AND every enrich probe here, and a dim
    #: update/tombstone is visible to both in the same epoch.
    #: ``dim_input`` is unused (pass ""); ``dim_vals`` names the OUTPUT
    #: columns for the owner's ``vals`` tuple (same length/order);
    #: ``dim_types`` defaults to the owner's ``val_types``.  ``dim_ttl``
    #: must be None — state lifetime belongs to the arrangement's owner.
    share_from: str | None = None
    #: probe plan for Dataset stream epochs.  ``"shuffle"`` (default): the
    #: shard exchange co-locates each shard's events, one
    #: probe call per (shard, epoch) — the cheapest plan when keys are
    #: well-spread.  ``"block"`` is the async-lookup plan (Flink's lookup
    #: join): events NEVER move — each block asks the shards for just its
    #: own unique keys (one parallel actor call per touched shard per
    #: block) and writes its sink part in place.  Choose it when the key
    #: distribution is skewed: under a hot key the shuffle plan funnels
    #: every one of that key's events through the single task owning its
    #: shard group, while block mode spreads them across all input blocks
    #: and each block pays one tiny register lookup.  Results are
    #: identical (gated in pytest); probe cost is O(unique keys/block ×
    #: blocks) actor traffic instead of O(events) shuffle bytes.
    probe_mode: str = "shuffle"

    def __post_init__(self):
        overlap = set(self.dim_vals) & (set(self.stream_cols) | set(self.key))
        if overlap:
            raise ValueError(f"dim_vals collide with stream columns: {overlap}")
        if self.share_from and self.dim_ttl is not None:
            raise ValueError(
                "share_from + dim_ttl: a shared arrangement's state "
                "lifetime belongs to its owning UpsertToRetract op — "
                "sweeping it from the reader would corrupt the owner")
        if self.probe_mode not in ("shuffle", "block"):
            raise ValueError(f"probe_mode {self.probe_mode!r}: use "
                             "'shuffle' or 'block'")

    # dim side → {key_bytes: LastValueAgg}; same partial contract and route
    # as the unwindowed KeyedAggregation
    def partial_batch(self, tbl: pa.Table, finalized_before: float
                      ) -> tuple[dict, int]:
        dk = list(self.dim_key or self.key)
        return _lww_partials(tbl, dk, self.dim_vals, self.dim_ts,
                             self.dim_delete_col), 0


@dataclass
class StreamDedup:
    """Streaming exactly-once deduplication: only the FIRST event per key
    (ordered by ``(ts_col, *order_cols)``) is emitted; later occurrences —
    in the same epoch or any later epoch — are dropped.  State is one tiny
    ``FirstSeenReg`` per distinct key in the shards; ``ttl`` bounds it in
    event time (a key idle longer than the dedup window re-emits, the
    standard streaming-dedup contract, cf. Flink deduplication with state
    TTL).  Deterministic and replay-idempotent: each (shard, epoch) offers
    its per-key MINIMUM stamp exactly once, and a replayed epoch re-wins its
    own claims, so retries emit identical rows into existing manifests.
    Not retractable (dedup is not a monoid) — retracting an emitted first
    occurrence would need the full per-key history, which is exactly the
    state this operator exists to avoid."""

    name: str
    input: str
    key: Sequence[str]
    ts_col: str = "ts"
    order_cols: Sequence[str] = ()   # deterministic tiebreak after ts
    carry: Sequence[str] = ()        # extra cols emitted on the winning row
    ttl: float | None = None         # dedup window in event time


#: the op attributes that name an epoch input
_INPUT_ATTRS = ("input", "left_input", "right_input", "dim_input",
                "stream_input")


class _ChainedEmits(dict):
    """One epoch's emissions, mirrored into its available inputs so that ops
    declared later read them in the same ``process_epoch`` call.  The
    epoch's dicts are attributes, not a per-call closure, so its input
    tables are freed with the epoch instead of waiting for a cycle
    collection."""

    def __init__(self, inputs: dict, avail: dict):
        super().__init__()
        self.inputs, self.avail = inputs, avail

    def __setitem__(self, k, v):
        # feeding an op's OUTPUT name from the caller is the view-bootstrap
        # pattern (hydrate a new downstream op from a snapshot) — legal
        # exactly when the op emits nothing that epoch; if it DOES emit,
        # silently replacing the caller's rows (or theirs replacing ours)
        # would corrupt the chain
        if k in self.inputs:
            raise ValueError(
                f"input {k!r} was fed by the caller AND emitted by an op "
                "this epoch — hydrate in an epoch where the op has no input "
                "of its own")
        super().__setitem__(k, v)
        self.avail[k] = v


class _StepBatch:
    """One epoch's arrangement work, sent as one ``ShardedStateStore.step``
    call: requests in op order, each ``(kernel, name, [(shard, args)],
    emit, done)`` where ``emit`` is the ``Emit`` of a row-emitting kernel
    and ``done`` takes those shards' results; the outputs the callbacks
    will publish; and whether the shards snapshot."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.requests: list[tuple] = []
        self.outputs: set[str] = set()
        self.snapshot = False


class StreamSession:
    """The per-job driver: owns the state store, per-op sinks, watermark and
    checkpoints.  See module docstring for the epoch data path."""

    def __init__(self, root: str | Path, num_shards: int = 4,
                 checkpoint_every: int = 1,
                 auto_watermark_delay: float | None = None,
                 fsync: bool = True,
                 consolidate_every: int | None = None,
                 sync_every: int = 1):
        #: sync_every=K > 1: group commit for every op sink — per-epoch
        #: commits stay atomic (rename) but fsyncs batch into one barrier
        #: + durable watermark per K epochs, with verify-on-open dropping
        #: any torn suffix (ExactlyOnceParquetSink docs).  The sub-3ms
        #: durable-epoch knob for high-rate micro-batch jobs; power-loss
        #: window = up to K epochs past the last barrier, replayable.
        self.sync_every = max(int(sync_every), 1)
        #: every N epochs, net each changelog sink's committed history into
        #: a SUM(diff) snapshot (``ExactlyOnceParquetSink.consolidate``) —
        #: bounds sink storage at O(live rows) for unbounded CDC streams;
        #: consumers keep the exact running sum but lose per-epoch replay
        #: granularity of the consolidated span (by design)
        self.consolidate_every = consolidate_every
        #: fsync=False relaxes commit durability (no power-loss guarantee)
        #: for latency-sensitive jobs; exactly-once vs process crashes keeps
        #: holding either way (manifest atomicity needs only rename)
        self.fsync = fsync
        self.root = Path(root)
        self.chk = CheckpointManager(self.root / "_checkpoints")
        self.store = ShardedStateStore(num_shards=num_shards,
                                       checkpoints=self.chk)
        self.checkpoint_every = checkpoint_every
        #: when set and ``process_epoch`` gets no explicit watermark, advance
        #: it to (max event time seen − delay) — the standard bounded-
        #: out-of-orderness watermark generator
        self.auto_watermark_delay = auto_watermark_delay
        #: complete checkpoints retained on disk (older ones pruned per save)
        self.checkpoint_keep = 2
        self._max_event_time = -math.inf
        #: per-SOURCE watermarks (multi-input frontier alignment): each
        #: source reported via ``process_epoch(source_watermarks=...)``
        #: ratchets its own watermark, and the session watermark advances to
        #: the MINIMUM over non-idle tracked sources — the Flink/Beam rule
        #: that makes a union/join of streams wait for its slowest input.
        #: ``mark_source_idle`` excludes a stalled source from the min until
        #: it next reports data or a watermark.
        self.source_watermarks: dict[str, float] = {}
        self.idle_sources: set[str] = set()
        self.ops: dict[str, Any] = {}
        self.sinks: dict[str, ExactlyOnceParquetSink] = {}
        #: late-data side-output sinks, one per routed input (``route_late``)
        self._late_sinks: dict[str, ExactlyOnceParquetSink] = {}
        self.watermark = -math.inf
        self.last_epoch = -1
        self._replay_floor = 0  # raised by resume(); see advance_watermark
        #: per-epoch input lineage (set by process_epoch, stamped into every
        #: sink manifest committed for that epoch — the audit trail from an
        #: output partition back to the input slice that produced it)
        self.current_lineage: dict | None = None
        self.metrics = {"late_dropped": 0, "late_routed": 0, "epochs": 0,
                        "input_rows": 0, "emitted_rows": 0}
        #: {id(input): (input, block refs)} for the epoch being processed
        self._epoch_blocks: dict[int, tuple] = {}
        #: the open epoch's ``store.step`` batch (None between epochs)
        self._batch: _StepBatch | None = None
        #: what the ``step`` replies report: shard calls, compute seconds
        #: per kernel, live keys per shard, bytes of the parts and snapshot
        #: files the shards wrote (``stats()["store"]``; kept out of
        #: ``metrics``, which manifests and checkpoints carry)
        self._store_stats = {"calls": 0, "kernel_s": {}, "live_keys": {},
                             "part_bytes": 0, "snapshot_bytes": 0}
        #: seconds the keyed ops' routes ran, per op, on the driver or in
        #: route tasks (``stats()["route_s"]``; kept out of ``metrics`` for
        #: the same reason)
        self._route_s: dict[str, float] = {}
        #: the epoch's early session rows awaiting their ``<op>__early``
        #: commit (op name → rows; ``_hold_early``)
        self._early: dict[str, list] = {}

    def _meta(self, **kw) -> dict:
        if self.current_lineage is not None:
            kw["lineage"] = self.current_lineage
        return kw

    # ------------------------------------------------------------------ setup
    def add(self, op) -> "StreamSession":
        src_name = getattr(op, "share_from", None)
        if src_name:
            src = self.ops.get(src_name)
            if not isinstance(src, UpsertToRetract):
                raise ValueError(
                    f"share_from={src_name!r}: add the owning "
                    "UpsertToRetract op to the session first (the shared "
                    "arrangement is its register table)")
            if len(op.dim_vals) != len(src.vals):
                raise ValueError(
                    f"share_from: dim_vals ({len(op.dim_vals)}) must name "
                    f"every column of the owner's vals ({len(src.vals)}) "
                    "in order")
            if op.dim_types is None:
                op.dim_types = list(src.val_types)
        self.ops[op.name] = op
        names: list[str] = []
        if isinstance(op, (KeyedAggregation, SessionWindowAggregation)) and (
            getattr(op, "window", None) is not None
            or isinstance(op, SessionWindowAggregation)
            or getattr(op, "emit_changelog", False)
        ):
            names.append(op.name)
            if getattr(op, "early_firing", False):
                names.append(f"{op.name}__early")
            if getattr(op, "late_output", False):
                names.append(f"{op.name}__late")
        elif isinstance(op, (StreamJoin, PatternMatch, AbsenceDetect,
                             KleenePattern, IncrementalComponents,
                             IncrementalPageRank, StreamNearDup,
                             UpsertToRetract, EnrichJoin, StreamDedup)):
            names.append(op.name)
            if isinstance(op, StreamJoin):
                # outer join: finalized never-matched rows get their OWN
                # side sink per tracked side (own schema, no null padding)
                # — committing them into the match sink would double-commit
                # its per-epoch manifest
                for s, suffix in (("left", "__unmatched"),
                                  ("right", "__unmatched_right")):
                    if s in op.unmatched_sides():
                        names.append(f"{op.name}{suffix}")
        for name in names:
            self.sinks[name] = self._new_sink(name)
        return self

    def _new_sink(self, name: str) -> ExactlyOnceParquetSink:
        """The one sink constructor: ``<root>/<name>`` with the session's
        durability settings."""
        return ExactlyOnceParquetSink(self.root / name, fsync=self.fsync,
                                      sync_every=self.sync_every)

    def _late_sink(self, input_name: str) -> ExactlyOnceParquetSink:
        """The late-row side sink of ``input_name`` (``route_late``),
        opened on first use."""
        sink = self._late_sinks.get(input_name)
        if sink is None:
            sink = self._late_sinks[input_name] = self._new_sink(
                f"_late_{input_name}")
        return sink

    # ------------------------------------------------------------------ resume
    def resume(self) -> int:
        """Restore the latest checkpoint; returns the next epoch to process
        (0 when starting fresh).  Sink commits for later epochs are skipped
        idempotently during replay."""
        latest = self.chk.latest()
        if latest is None:
            return 0
        blobs, extra = self.chk.load(latest)
        stale = legacy_state(
            blobs,
            {n for n, o in self.ops.items()
             if isinstance(o, KeyedAggregation) and o.window is not None},
            {n for n, o in self.ops.items() if isinstance(o, StreamJoin)})
        if stale:
            raise ValueError(
                f"checkpoint {latest} holds state of op(s) {stale} that "
                "this engine cannot load (per-key state that predates "
                "columnar arrangements, or as-of join buffers); it cannot "
                "be resumed — rebuild those ops from their inputs")
        if set(blobs) != set(range(self.store.num_shards)):
            # savepoint rescale: the checkpoint was taken at a different
            # shard count — re-bucket every keyed family with this
            # session's routing rule before loading (see rescale_blobs)
            logging.getLogger(__name__).info(
                "resume: rescaling checkpoint from %d to %d shards",
                len(blobs), self.store.num_shards)
            blobs = rescale_blobs(blobs, self.store.num_shards)
        self.store.load_all(blobs)
        self.watermark = extra.get("watermark", -math.inf)
        self.last_epoch = latest
        self.metrics.update(extra.get("metrics", {}))
        self.source_watermarks = dict(extra.get("source_watermarks", {}))
        self.idle_sources = set(extra.get("idle_sources", ()))
        # epochs below this floor are replays: their sink commits already
        # exist and re-sweeping state for them must stay a silent no-op
        self._replay_floor = max(
            (max(s.committed_epochs(), default=-1) + 1 for s in self.sinks.values()),
            default=latest + 1,
        )
        return latest + 1

    # ------------------------------------------------------------- main loop
    def _observe_event_time(self, tbl: pa.Table, ts_col: str | None) -> None:
        """Track max event time for the auto-watermark (Table epochs folded
        on the driver; ``_fold`` takes the others' from their summaries)."""
        self._max_event_time = max(self._max_event_time,
                                   _block_max_ts(tbl, ts_col))

    # ------------------------------------------------ routes and exchanges
    # Every keyed op routes its input with ``_route`` (a Table inline, a
    # Dataset in route tasks) into the epoch's step.  The enrich probe,
    # StreamDedup and StreamNearDup run one shard exchange (route task per
    # block, reduce task per touched shard) or the block runner; the driver
    # folds the block summaries and commits the worker-written parts.
    def _blocks(self, data) -> list:
        """``data``'s blocks, resolved once per epoch: a lazy input read by
        several ops (or chained from an earlier op) runs its upstream once.
        The input is cached with its blocks, so its ``id`` stays unique."""
        hit = self._epoch_blocks.get(id(data))
        if hit is None:
            hit = self._epoch_blocks[id(data)] = (data, block_refs(data))
        return hit[1]

    def _as_table(self, data) -> pa.Table:
        if isinstance(data, pa.Table):
            return data
        return blocks_to_table(self._blocks(data))

    def _fold(self, summary: Summary) -> list:
        """Driver side of a Dataset epoch: count the blocks' late rows and
        observe their max event time; returns the parts they wrote."""
        self.metrics["late_dropped"] += summary.late
        self._max_event_time = max(self._max_event_time, summary.max_ts)
        return summary.entries

    def _route(self, name: str,
               routes: list) -> tuple[dict[int, list], list, bool]:
        """Run each ``(route, epoch input)``'s route of op ``name``: a
        ``pa.Table`` is one block, routed inline on the driver; a Dataset's
        blocks route in ``route_blocks`` tasks.  Folds the summaries and
        adds the routes' own run time to ``stats()["route_s"][name]``;
        returns {shard: [its parts, inline or as refs]}, the parts the
        routes wrote, and whether an input was a Dataset (the outputs then
        publish as Datasets)."""
        routed, remote = [], []
        for route, data in routes:
            route = timed(route)
            if isinstance(data, pa.Table):
                parts, summary = route(data)
                routed.append((summary, {s: [p] for s, p in parts.items()}))
            else:
                remote.append((route, self._blocks(data)))
        if remote:
            routed.append(route_blocks(remote, self.store.num_shards))
        by_shard: dict[int, list] = {}
        for _, parts in routed:
            for sid, ps in parts.items():
                by_shard.setdefault(sid, []).extend(ps)
        summary = combine(s for s, _ in routed)
        self._route_s[name] = self._route_s.get(name, 0.0) + summary.route_s
        return by_shard, self._fold(summary), bool(remote)

    def _exchange(self, routes: list, reduce) -> tuple[list, list]:
        """One shard exchange over ``[(route, epoch input)]``; returns the
        route tasks' part entries and the reduce results in shard order."""
        summary, results = shard_exchange(
            [(route, self._blocks(data)) for route, data in routes], reduce,
            self.store.num_shards)
        return self._fold(summary), results

    def _map_blocks(self, kernel, data) -> list:
        """Map-only plan over an epoch input: ``kernel(block, tag) ->
        Summary`` as one task per block; returns the parts they wrote."""
        return self._fold(combine(run_blocks(kernel, self._blocks(data))))

    def _part_writer(self, name: str, epoch: int):
        """Worker-side writer of parts into sink ``name``'s epoch dir."""
        sink = self.sinks[name]
        return functools.partial(write_epoch_part, str(sink.root), epoch,
                                 fsync=sink.part_fsync)

    def _emit(self, sink_name: str, epoch: int, tbl: pa.Table,
              emitted: dict, **meta) -> None:
        """Commit an op's epoch output to sink ``sink_name`` and publish it
        to later ops; ``emitted_rows`` counts it even when the commit is a
        replay's no-op."""
        self.sinks[sink_name].commit_tables(epoch, [tbl],
                                            meta=self._meta(**meta))
        emitted[sink_name] = tbl
        self.metrics["emitted_rows"] += tbl.num_rows

    def _emit_to(self, sink_name: str, epoch: int, finalize) -> Emit:
        """Where a row-emitting step kernel's shards write ``epoch``'s
        rows: sink ``sink_name``, unless it already committed the epoch
        (a replay), whose parts are never rewritten."""
        sink = self.sinks[sink_name]
        if sink.is_committed(epoch):
            return Emit(None, None)
        return Emit(finalize, str(sink.root), sink.part_fsync)

    def _commit_emission(self, sink_name: str, epoch: int, entries: list,
                         finalize, emitted: dict, lazy: bool = False,
                         **meta) -> None:
        """Commit the parts written for an epoch output (by the shards,
        ``_emit_to``, or by route or reduce tasks) and publish them to
        later ops: as a ``pa.Table``, where an epoch without rows commits
        ``finalize([])``'s typed columns, or with ``lazy`` (the epoch's
        input was a Dataset) as a Dataset over the committed parts.  A
        replayed epoch publishes what its committed manifest lists, and
        ``emitted_rows`` counts it."""
        sink = self.sinks[sink_name]
        fresh = not sink.is_committed(epoch)
        if fresh:
            entries = [e for e in entries if e]
            if not (entries or lazy):
                entries = [write_epoch_part(
                    sink.root, epoch, finalize([], epoch),
                    tag=f"d-{uuid.uuid4().hex[:12]}", fsync=sink.part_fsync)]
            sink.commit_files(epoch, entries, meta=self._meta(**meta))
        if lazy:
            emitted[sink_name] = sink.read_committed(epochs=[epoch])
            self.metrics["emitted_rows"] += sink.manifest(epoch)["rows"]
            return
        tbl = (_read_parts(sink.root, entries) if fresh
               else sink.read_committed_table([epoch]))
        emitted[sink_name] = tbl
        self.metrics["emitted_rows"] += tbl.num_rows

    # ------------------------------------------------ the epoch's step batch
    # Keyed ops send their epoch's shard work as one ``store.step`` call per
    # touched shard: the ops and the watermark queue requests, and the
    # flush runs their callbacks, which commit the emissions, in op order.
    # The batch is sent early when a later op reads an output it has yet
    # to emit, and before the enrich probe, whose shard exchange reads the
    # registers the batch applies.
    @contextlib.contextmanager
    def _epoch_step(self, epoch: int):
        """Open a step batch for ``epoch``, flushed (and its snapshot
        saved) on exit; inside an open batch, defer to that batch's
        flush."""
        if self._batch is not None:
            yield
            return
        self._batch = _StepBatch(epoch)
        try:
            yield
            shards = self._flush()
            if shards is not None:
                self._save_checkpoint(epoch, shards)
        finally:
            self._batch = None

    def _request(self, kernel: str, name: str, args: dict[int, tuple],
                 done: Callable | None = None, emits: Sequence[str] = (),
                 emit: Emit | None = None) -> None:
        """Queue ``kernel(name, *args[shard])`` for each shard in ``args``,
        its rows written by the shards as ``emit`` says; ``done(results)``
        gets their results in shard order at the flush, and ``emits`` names
        the outputs it publishes."""
        self._batch.requests.append((kernel, name, sorted(args.items()),
                                     emit, done))
        self._batch.outputs.update(emits)

    def _request_rows(self, kernel: str, name: str, args: dict[int, tuple],
                      sink_name: str, finalize, emitted: dict,
                      meta: Callable[[], dict], lazy: bool = False) -> None:
        """Queue a row-emitting kernel: the shards finalize and write their
        rows into sink ``sink_name``, and the flush commits those parts
        with ``meta()`` and publishes them (``_commit_emission``)."""
        epoch = self._batch.epoch

        def done(entries: list) -> None:
            self._commit_emission(sink_name, epoch, entries, finalize,
                                  emitted, lazy, **meta())

        self._request(kernel, name, args, done, emits=[sink_name],
                      emit=self._emit_to(sink_name, epoch, finalize))

    def _all_shards(self, *args) -> dict[int, tuple]:
        return dict.fromkeys(range(self.store.num_shards), args)

    def _flush(self) -> list[int] | None:
        """Send the open batch as one ``store.step`` and run its callbacks
        in request order; returns the shards that wrote their snapshot
        files when it asked for them.  The batch stays open, empty, for the
        rest of the epoch."""
        b = self._batch
        self._batch = _StepBatch(b.epoch)
        msgs: dict[int, list] = {}
        for kernel, name, args, emit, _ in b.requests:
            for sid, a in args:
                msgs.setdefault(sid, []).append((kernel, name, a, emit))
        replies = (self.store.step(b.epoch, msgs, b.snapshot)
                   if msgs or b.snapshot else {})
        self._note_step(replies)
        outs = {sid: iter(r["out"]) for sid, r in replies.items()}
        for _, _, args, _, done in b.requests:
            results = [next(outs[sid]) for sid, _ in args]
            if done is not None:
                done(results)
        if not b.snapshot:
            return None
        return sorted(sid for sid, r in replies.items()
                      if r["snapshot"] is not None)

    def _note_step(self, replies: dict[int, dict]) -> None:
        """Fold ``step`` replies (shard id → reply) into ``_store_stats``."""
        st = self._store_stats
        st["calls"] += len(replies)
        for sid, r in replies.items():
            for k, v in r["kernel_s"].items():
                st["kernel_s"][k] = st["kernel_s"].get(k, 0.0) + v
            st["live_keys"][sid] = r["live_keys"]
            st["part_bytes"] += r["part_bytes"]
            st["snapshot_bytes"] += r.get("snapshot") or 0

    def _pending_input(self, op) -> bool:
        """Whether ``op`` reads an output the open batch has yet to emit."""
        return any(getattr(op, a, None) in self._batch.outputs
                   for a in _INPUT_ATTRS)

    def _keyed_args(self, op, name: str, data, batch, merge,
                    gap: float | None = None) -> tuple[dict[int, tuple], bool]:
        """Route ``data`` of a pickled-key op (``_route``): each block's
        ``batch(block, watermark) -> ({key bytes: value}, late)`` goes to
        the keys' shards, insert-only session points compressed to
        sessions (``gap``) first.  Returns the step arguments, {shard:
        (its parts as a ``Gather`` merged per key by ``merge``, in (key,
        value bytes) order,)}, and whether ``data`` was a Dataset."""
        num_shards, wm = self.store.num_shards, self.watermark
        ts_col = getattr(op, "ts_col", None)

        def route(tbl: pa.Table):
            part, late = batch(tbl, wm)
            if gap is not None:
                part = {k: StateShard.build_sessions(v, gap)
                        for k, v in part.items()}
            return (_keyed_parts(part.items(), num_shards),
                    Summary(late, _block_max_ts(tbl, ts_col)))

        parts, _, lazy = self._route(name, [(route, data)])
        merged = functools.partial(_merged_payload, merge=merge)
        return {sid: (Gather(ps, merged),) for sid, ps in parts.items()}, lazy

    def _window_epoch(self, op: "KeyedAggregation", name: str, epoch: int,
                      data, emitted: dict) -> None:
        """Windowed KeyedAggregation epoch: the route (``partial_batch`` →
        ``Partials.split``) sends each shard its columnar partials, which
        merge into the op's window arrangement in the epoch's step.  With
        ``late_output`` the route splits off late rows and writes them as
        ``<op>__late`` parts; with ``early_firing`` the shards write the
        touched open windows' ±1 changelog into ``<op>__early``."""
        late_sink = f"{name}__late"
        late_write = None
        if op.late_output and not self.sinks[late_sink].is_committed(epoch):
            late_write = self._part_writer(late_sink, epoch)
        num_shards, wm = self.store.num_shards, self.watermark

        def route(tbl: pa.Table):
            max_ts, entries = _block_max_ts(tbl, op.ts_col), []
            if op.late_output:
                tbl, late_tbl = op.split_late(tbl, wm)
                if late_tbl.num_rows and late_write is not None:
                    entries.append(late_write(
                        late_tbl, tag=f"b{uuid.uuid4().hex[:12]}"))
            part, late = op.partial_batch(tbl, wm)
            return part.split(num_shards), Summary(late, max_ts, entries)

        parts, entries, lazy = self._route(name, [(route, data)])
        if op.late_output:  # rows the route wrote, none on a replay
            self.metrics["late_routed"] += sum(e["rows"] for e in entries)
            self._commit_emission(late_sink, epoch, entries,
                                  op.late_rows_table, emitted, lazy,
                                  kind="late_rows")
        early = op.early_firing
        args = {sid: (Gather(ps, merge_partials), early)
                for sid, ps in parts.items()}
        if early:
            self._request_rows("apply_window_partials", name, args,
                               f"{name}__early", op.changelog_to_table,
                               emitted, lambda: {"kind": "early_firing"},
                               lazy)
        else:
            self._request("apply_window_partials", name, args)

    def _neardup_distributed(self, op: "StreamNearDup", name: str,
                             epoch: int, data) -> tuple[list, int]:
        """Dataset-epoch StreamNearDup: signatures and band buckets derive
        per block; each shard's reduce offers them to its bucket registers
        in one call.  The driver gathers only the emitted candidate pairs
        (the op's output) and the drop counts."""
        num_shards, shards = self.store.num_shards, self.store.shards
        wm, threshold, cap = self.watermark, op.threshold, op.bucket_cap

        def route(tbl: pa.Table):
            offers, _ = op.points_batch(tbl, wm)
            # sorted here too: a bucket only one block offers reaches its
            # shard without passing through the reducer's sorted merge
            return _keyed_parts(((k, sorted(v)) for k, v in offers.items()),
                                num_shards), Summary()

        def reduce(sid: int, parts: list):
            return pickle.loads(ray.get(shards[sid].apply_neardup_offers.remote(
                name, epoch, _merged_payload(parts, _merge_sorted),
                threshold, cap)))

        _, results = self._exchange([(route, data)], reduce)
        pairs = sorted((int(lo), int(hi), float(est))
                       for p, _ in results for lo, hi, est in p)
        return pairs, int(sum(d for _, d in results))

    def _join_route(self, op: "StreamJoin", side: str):
        """Route kernel of one StreamJoin side (``shard_payloads``): each
        block's rows go to their shards, co-located by key hash, with the
        block's max event time."""
        num_shards, ts_col = self.store.num_shards, op._side(side)[2]

        def route(tbl: pa.Table):
            sides = (tbl, None) if side == "left" else (None, tbl)
            return (op.shard_payloads(*sides, num_shards),
                    Summary(max_ts=_block_max_ts(tbl, ts_col)))
        return route

    def _enrich_kernel(self, op: "EnrichJoin", epoch: int, probe_name: str):
        """Enrich a frame of stream rows with the dim values registered for
        its UNIQUE keys: one probe call per touched shard, one vectorized
        merge, dim columns cast to ``dim_types``."""
        num_shards, shards = self.store.num_shards, self.store.shards
        on = list(op.key)
        dim_vals, dim_types = list(op.dim_vals), list(op.dim_types or ())

        def enrich(ev: pd.DataFrame) -> pa.Table:
            uniq = ev[on].drop_duplicates().reset_index(drop=True)
            probes = [_key_bytes(t)
                      for t in uniq.itertuples(index=False, name=None)]
            by_shard: dict[int, list] = {}
            for p in probes:
                by_shard.setdefault(shard_of(p, num_shards), []).append(p)
            refs = [shards[s].enrich_probe.remote(
                probe_name, pickle.dumps(ps, protocol=pickle.HIGHEST_PROTOCOL))
                for s, ps in sorted(by_shard.items())]
            looked = dict(kv for blob in ray.get(refs)
                          for kv in pickle.loads(blob))
            vals = [looked.get(p) for p in probes]
            for i, c in enumerate(dim_vals):
                # keep object dtype: no int→float promotion on miss-nulls
                uniq[c] = pd.Series([None if v is None else v[i]
                                     for v in vals], dtype="object")
            out = ev.merge(uniq, on=on, how="left")
            out["epoch"] = np.int64(epoch)
            tbl = pa.Table.from_pandas(out, preserve_index=False)
            for c, typ in zip(dim_vals, dim_types):
                tbl = tbl.set_column(tbl.schema.get_field_index(c), c,
                                     tbl[c].cast(typ))
            return tbl
        return enrich

    def _probe_epoch(self, op: "EnrichJoin", name: str, epoch: int,
                     stream, emitted: dict) -> None:
        """Stream epoch of an EnrichJoin (Table or Dataset).  Shuffle plan:
        route tasks split the events by their key's register shard
        (``shard_of(key_bytes)``), and each shard's reduce enriches its
        events and writes its part — probe cost is O(unique keys), not
        O(rows).  Block plan (``probe_mode="block"``, the skew-proof async
        lookup): events never move; each block task enriches its own rows,
        asking every touched shard once, and writes its part in place.  The
        driver commits only the manifest, and publishes the parts: as a
        ``pa.Table`` after a Table epoch (typed empty columns when it had
        no rows), as a Dataset after a Dataset epoch."""
        num_shards, sk, stream_ts = self.store.num_shards, list(op.key), op.stream_ts
        carry = list(dict.fromkeys(
            sk + list(op.stream_cols) + ([stream_ts] if stream_ts else [])))
        # shared arrangement: probe the owning op's register table
        enrich = self._enrich_kernel(op, epoch, op.share_from or name)
        write = self._part_writer(name, epoch)
        if op.probe_mode == "block":
            def kernel(tbl: pa.Table, _tag: str) -> Summary:
                if not tbl.num_rows:
                    return Summary()
                entries = [write(enrich(tbl.select(carry).to_pandas()),
                                 tag=f"b{uuid.uuid4().hex[:12]}")]
                return Summary(max_ts=_block_max_ts(tbl, stream_ts),
                               entries=entries)

            entries = self._map_blocks(kernel, stream)
        else:
            def route(tbl: pa.Table):
                pdf = tbl.select(carry).to_pandas()
                uniq = pdf[sk].drop_duplicates()
                uniq = uniq.assign(__sid=[
                    shard_of(_key_bytes(t), num_shards)
                    for t in uniq.itertuples(index=False, name=None)])
                return (_frame_parts(pdf.merge(uniq, on=sk, how="left")),
                        Summary(max_ts=_block_max_ts(tbl, stream_ts)))

            def reduce(sid: int, parts: list) -> dict:
                return write(enrich(_concat_frames(parts)),
                             tag=f"shard{sid:04d}")

            _, entries = self._exchange([(route, stream)], reduce)
        schema = stream.schema if isinstance(stream, pa.Table) else None
        dim_types = dict(zip(op.dim_vals, op.dim_types or ()))

        def empty(_rows: list, epoch: int) -> pa.Table:
            return pa.table({
                **{c: pa.array([], type=schema.field(c).type)
                   for c in carry},
                **{c: pa.array([], type=dim_types.get(c, pa.null()))
                   for c in op.dim_vals},
                "epoch": pa.array([], type=pa.int64())})

        self._commit_emission(name, epoch, entries, empty, emitted,
                              schema is None, kind="enrich")

    def _dedup_table_epoch(self, op: "StreamDedup", name: str, epoch: int,
                           tbl: pa.Table) -> pa.Table:
        """Driver micro-batch path: fold the epoch to per-key min candidates,
        one ``dedup_filter`` claim per shard, emit the winning rows."""
        cols = list(dict.fromkeys(
            list(op.key) + [op.ts_col] + list(op.order_cols)
            + list(op.carry)))
        self._observe_event_time(tbl, op.ts_col)
        win = _dedup_winners_frame(op, tbl.select(cols).to_pandas())
        shard_items: dict[int, list] = {}
        for kb, stamp in _dedup_claims(op, win):
            sid = shard_of(kb, self.store.num_shards)
            shard_items.setdefault(sid, []).append((kb, stamp))
        winners = (self.store.dedup_filter(name, epoch, shard_items)
                   if shard_items else set())
        out = win[win["__kb"].isin(winners)].drop(columns=["__ts", "__kb"])
        out["epoch"] = np.int64(epoch)
        return pa.Table.from_pandas(out.reset_index(drop=True),
                                    preserve_index=False)

    def _dedup_probe_epoch(self, op: "StreamDedup", name: str, epoch: int,
                           stream, emitted: dict) -> None:
        """Dataset-epoch StreamDedup: route tasks pre-reduce each block to
        per-key min candidates (duplicates die in their block); each
        shard's reduce re-reduces across blocks, makes the shard's one
        claim call and writes the winners.  The driver commits only the
        manifest, and publishes the parts."""
        num_shards, shards = self.store.num_shards, self.store.shards
        write = self._part_writer(name, epoch)
        cols = list(dict.fromkeys(
            list(op.key) + [op.ts_col] + list(op.order_cols)
            + list(op.carry)))

        def route(tbl: pa.Table):
            win = _dedup_winners_frame(op, tbl.select(cols).to_pandas())
            win["__sid"] = [shard_of(kb, num_shards) for kb in win["__kb"]]
            # the block max counts the duplicates the reduction dropped
            return _frame_parts(win), Summary(
                max_ts=_block_max_ts(tbl, op.ts_col))

        def reduce(sid: int, parts: list) -> dict:
            # cross-block re-reduction: the shard claim must see the per-key
            # min over the WHOLE (shard, epoch) slice for determinism
            cand = (_concat_frames(parts)
                    .sort_values(["__ts", *op.order_cols], kind="mergesort")
                    .drop_duplicates(subset=list(op.key), keep="first"))
            winners = pickle.loads(ray.get(shards[sid].dedup_filter.remote(
                name, epoch, pickle.dumps(_dedup_claims(op, cand),
                                          protocol=pickle.HIGHEST_PROTOCOL))))
            out = cand[cand["__kb"].isin(set(winners))].drop(
                columns=["__ts", "__kb"])
            out["epoch"] = np.int64(epoch)
            return write(pa.Table.from_pandas(out.reset_index(drop=True),
                                              preserve_index=False),
                         tag=f"shard{sid:04d}")

        _, entries = self._exchange([(route, stream)], reduce)
        self._commit_emission(name, epoch, entries, None, emitted, True,
                              kind="dedup")

    def process_epoch(self, epoch: int, inputs: dict[str, pa.Table | Any],
                      watermark: float | None = None,
                      lineage: dict | None = None,
                      source_watermarks: dict[str, float] | None = None
                      ) -> dict:
        """Apply one micro-batch; optionally advance the watermark after.

        ``inputs``: {input_name: Arrow table | Ray Dataset}.  Deltas carry an
        optional ``diff`` column (+1/−1) for retractions (KeyedAggregation
        with ``weight_col='diff'``).

        ``source_watermarks``: {source_name: watermark} per-source frontier
        reports.  Each source's watermark only ratchets upward; the SESSION
        watermark then advances to the minimum over all non-idle tracked
        sources (multi-input alignment — a union or join of streams is only
        as complete as its slowest input).  A source that reports here, or
        appears in ``inputs`` with data, is un-idled.  An explicit
        ``watermark=`` still overrides (single-source sessions keep their
        API unchanged).

        ``lineage``: caller-supplied description of WHERE this epoch's rows
        came from (source paths / shard ids / offsets) — stamped verbatim
        into every sink manifest this epoch commits (and into subsequent
        watermark-advance commits until the next epoch), giving each output
        partition a durable input-lineage record.

        Keyed ops queue their shard work and send it, with the
        watermark's sweeps and the due checkpoint's snapshot, as one
        ``store.step`` call per touched shard at the end of the epoch; an
        op that reads an output still in that batch, or an enrich probe,
        sends it first.  An early-firing session's ``<op>__early`` rows
        commit once per epoch: with the close retractions of a watermark
        advanced in the same call, else at the epoch's end.
        """
        with self._epoch_step(epoch):
            return self._process_epoch(epoch, inputs, watermark, lineage,
                                       source_watermarks)

    def _process_epoch(self, epoch: int, inputs: dict, watermark, lineage,
                       source_watermarks) -> dict:
        self.current_lineage = lineage
        self._epoch_blocks = {}
        # In-session dataflow chaining: an op that emits DURING the epoch
        # (changelog, joins, enrich, dedup, components) publishes its output
        # under its own name, so ops declared AFTER it can consume it as an
        # input in the SAME process_epoch call — e.g. UpsertToRetract("chg")
        # feeding KeyedAggregation(input="chg", weight_col="diff") is an
        # incrementally-maintained GROUP BY over a CDC table.  Watermark-
        # driven emissions (window closes, sweeps) happen AFTER the loop and
        # do not chain within the epoch — feed those back explicitly.
        # Caller inputs shadow nothing: op names must not collide with
        # source names (ops dict + inputs dict share the namespace here).
        avail: dict[str, Any] = dict(inputs)
        # caller-fed Table micro-batches count toward input_rows here;
        # Dataset epochs stream worker-side without a driver row count (an
        # extra count() pass would re-execute the plan) — their volumes are
        # recorded per-op in the sink manifests instead
        self.metrics["input_rows"] += sum(
            t.num_rows for t in inputs.values() if isinstance(t, pa.Table))
        emitted: dict[str, pa.Table] = _ChainedEmits(inputs, avail)
        for name, op in self.ops.items():
            if self._pending_input(op):
                self._flush()  # publish the outputs this op reads
            if isinstance(op, KeyedAggregation):
                if op.input not in avail:
                    continue
                data = avail[op.input]
                if op.window is not None:
                    self._window_epoch(op, name, epoch, data, emitted)
                    continue
                args, lazy = self._keyed_args(op, name, data,
                                              op.partial_batch, _merge_acc)
                if op.emit_changelog:
                    # the aggregate's OWN ±1 changelog: old/new finalized
                    # values per touched key, written by the shards and
                    # committed per epoch (chains into later-declared
                    # differential consumers)
                    self._request_rows(
                        "apply_delta_changelog", name, args, name,
                        functools.partial(_unpickled_rows,
                                          op.changelog_to_table),
                        emitted, lambda: {"kind": "agg_changelog"}, lazy)
                else:
                    self._request("apply_delta", name, args)
            elif isinstance(op, SessionWindowAggregation):
                if op.input not in avail:
                    continue
                data = avail[op.input]
                if op.retractable:
                    # (ts, value, diff) point deltas per key
                    args, _ = self._keyed_args(op, name, data,
                                               op.points_batch, _merge_sorted)
                    self._request("apply_session_point_deltas", name, args)
                else:
                    # each block's points compress to sessions in the route
                    args, _ = self._keyed_args(
                        op, name, data, op.points_batch,
                        StateShard.merge_session_lists, gap=op.gap)
                    self._request("apply_session_points", name,
                                  {sid: (*a, op.gap)
                                   for sid, a in args.items()})
                if op.early_firing:
                    # speculative changelog of the epoch's touched OPEN
                    # sessions, on the shards the apply above touched; a
                    # cross-epoch merge retracts both prior partials
                    self._request(
                        "emit_early_sessions", name,
                        {sid: (op.gap, op.retractable) for sid in args},
                        functools.partial(self._hold_early, op, name, epoch,
                                          emitted),
                        emits=[f"{name}__early"])
            elif isinstance(op, (PatternMatch, AbsenceDetect, KleenePattern)):
                if op.input not in avail:
                    continue
                # raw (window-bounded) typed event points per key
                args, _ = self._keyed_args(op, name, avail[op.input],
                                           op.points_batch, _merge_sorted)
                self._request("apply_pattern_points", name, args)
            elif isinstance(op, IncrementalComponents):
                if op.input not in avail:
                    continue
                # edge deltas are narrow (16 B/row) and the union-find is one
                # logical graph: the epoch's edges collapse to a Table and
                # ride one request to the op's designated shard
                self._request("apply_cc_edges", name,
                              self._graph_args(op, avail[op.input]),
                              functools.partial(self._graph_changed, op, name,
                                                epoch, emitted, "cc"),
                              emits=[name])
            elif isinstance(op, StreamNearDup):
                if op.input not in avail:
                    continue
                data = avail[op.input]
                if isinstance(data, pa.Table):
                    offers, _ = op.points_batch(data, self.watermark)
                    pairs, drops = self.store.apply_neardup(
                        name, epoch, offers, op.threshold, op.bucket_cap)
                else:
                    # distributed: signatures + band buckets derive per
                    # block, offers ride the shard exchange to the bucket
                    # registers; the driver sees only emitted pairs
                    pairs, drops = self._neardup_distributed(
                        op, name, epoch, data)
                if drops:
                    logging.getLogger(__name__).warning(
                        "StreamNearDup(%s) epoch %d: %d offers dropped by "
                        "bucket_cap=%d (hot buckets)", name, epoch, drops,
                        op.bucket_cap)
                out_tbl = op.rows_to_table(pairs, epoch)
                self._emit(name, epoch, out_tbl, emitted,
                           kind="neardup", drops=drops)
            elif isinstance(op, IncrementalPageRank):
                if op.input not in avail:
                    continue
                # same designated-shard contract as components; the rank
                # changelog commits per epoch and chains like any changelog
                self._request("apply_pagerank_edges", name,
                              self._graph_args(op, avail[op.input], op.damping,
                                               op.tol, op.max_iters,
                                               op.emit_tol),
                              functools.partial(self._graph_changed, op, name,
                                                epoch, emitted, "pagerank"),
                              emits=[name])
            elif isinstance(op, UpsertToRetract):
                if op.input not in avail:
                    continue
                args, lazy = self._keyed_args(op, name, avail[op.input],
                                              op.partial_batch, _merge_acc)
                self._request_rows(
                    "apply_upsert_retract", name, args, name,
                    functools.partial(_unpickled_rows, op.rows_to_table),
                    emitted, lambda: {"kind": "upsert"}, lazy)
            elif isinstance(op, EnrichJoin):
                # shared arrangement: the owner op queued its upserts
                # earlier this epoch (add order = processing order), so
                # probes read the epoch-current registers; no dim state here
                dim = None if op.share_from else avail.get(op.dim_input)
                if dim is not None:
                    # upsert registers FIRST: epoch-e dim updates are visible
                    # to epoch-e events
                    args, _ = self._keyed_args(op, name, dim,
                                               op.partial_batch, _merge_acc)
                    self._request("apply_delta", name, args)
                stream = avail.get(op.stream_input)
                if stream is not None:
                    self._flush()  # the probes read the applied registers
                    self._probe_epoch(op, name, epoch, stream, emitted)
            elif isinstance(op, StreamDedup):
                data = avail.get(op.input)
                if data is None:
                    continue
                if isinstance(data, pa.Table):
                    tbl = self._dedup_table_epoch(op, name, epoch, data)
                    self._emit(name, epoch, tbl, emitted, kind="dedup")
                else:
                    self._dedup_probe_epoch(op, name, epoch, data, emitted)
            elif isinstance(op, StreamJoin):
                # both sides' rows insert and probe in the epoch's step;
                # the shards write the matches as the join's output
                parts, _, lazy = self._route(name, [
                    (self._join_route(op, side), avail[i]) for side, i in
                     (("left", op.left_input), ("right", op.right_input))
                     if avail.get(i) is not None])
                if parts:
                    self._request_rows(
                        "join_insert_probe", name,
                        {sid: (Gather(ps, merge_payloads),)
                         for sid, ps in parts.items()},
                        name, op.matches_to_table, emitted,
                        lambda: {"kind": "join"}, lazy)

        if source_watermarks:
            for s, wm in source_watermarks.items():
                self.source_watermarks[s] = max(
                    self.source_watermarks.get(s, -math.inf), float(wm))
                self.idle_sources.discard(s)
        for s in inputs:
            self.idle_sources.discard(s)  # fresh data un-idles a source
        if watermark is None and self.source_watermarks:
            live = [wm for s, wm in self.source_watermarks.items()
                    if s not in self.idle_sources]
            if live:  # all-idle → frontier holds (no source vouches for it)
                watermark = min(live)

        # every op path above fed _max_event_time, Table and Dataset alike
        if watermark is None and self.auto_watermark_delay is not None \
                and self._max_event_time > -math.inf:
            watermark = self._max_event_time - self.auto_watermark_delay

        if watermark is not None:
            self.advance_watermark(epoch, watermark, emitted)

        self._batch.snapshot = bool(self.checkpoint_every) and (
            epoch % self.checkpoint_every == 0)
        shards = self._flush()
        for name in self._early:  # no sweep took them along
            self._emit(f"{name}__early", epoch, emitted[f"{name}__early"],
                       emitted, kind="session_early")
        self._early = {}
        self.last_epoch = epoch
        self.metrics["epochs"] += 1
        if shards is not None:
            self._save_checkpoint(epoch, shards)
        if (self.consolidate_every
                and epoch >= self._replay_floor
                and (epoch + 1) % self.consolidate_every == 0):
            # DD arrangement compaction on a cadence: net the changelog
            # sinks' committed ±diff history into a snapshot — running sum
            # (the live table) unchanged, sink storage drops to O(live
            # rows).  Replays skip this (their history may already be a
            # snapshot; re-netting it is pointless work).
            for name in self._changelog_sink_names():
                self.sinks[name].consolidate(upto_epoch=epoch)
        self._epoch_blocks = {}
        return emitted

    def _changelog_sink_names(self) -> list[str]:
        """Sinks holding pure ±diff changelogs (safe to consolidate):
        UpsertToRetract, IncrementalComponents, and any
        KeyedAggregation(emit_changelog=True) incl. threshold/distinct."""
        out = []
        for name, op in self.ops.items():
            if name not in self.sinks:
                continue
            if isinstance(op, (UpsertToRetract, IncrementalComponents)) or \
                    getattr(op, "emit_changelog", False):
                out.append(name)
        return out

    def advance_watermark(self, epoch: int, watermark: float,
                          emitted: dict | None = None) -> dict:
        """Frontier advance: close windows/sessions whose end (+ lateness)
        ≤ the new watermark, commit emissions under this epoch.

        Guard: a FRESH epoch whose sweep sink's manifest already exists
        means a second ``advance_watermark`` call under the same epoch —
        sweeping would drain state into a no-op commit and lose the
        emissions forever, so we raise BEFORE touching any shard.  Only the
        sinks a sweep commits are checked (windowed aggregates, session
        windows, patterns, outer-join unmatched sides): the in-epoch
        commits of changelogs, joins, upserts or graph ops are not a
        sweep.  An early-firing session's ``<op>__early`` sink is checked
        too: a ``process_epoch`` without a watermark committed its early
        rows, so its watermark goes to ``process_epoch`` itself or to an
        advance under a new epoch id.  Replayed epochs (below the resume
        floor) re-sweep deterministically into their existing manifests,
        which is the exactly-once path.
        """
        emitted = emitted if emitted is not None else {}
        if epoch >= self._replay_floor:
            new_wm = max(self.watermark, watermark)
            dup = []
            sweep_sinks = []  # (display name, sink) pairs that commit sweeps
            for n, o in self.ops.items():
                if isinstance(o, StreamJoin):
                    # its unmatched side sinks sweep
                    if "left" in o.unmatched_sides():
                        sweep_sinks.append((n, f"{n}__unmatched"))
                    if "right" in o.unmatched_sides():
                        sweep_sinks.append((n, f"{n}__unmatched_right"))
                elif (isinstance(o, KeyedAggregation) and o.window is not None
                      or isinstance(o, (SessionWindowAggregation,
                                        PatternMatch, KleenePattern,
                                        AbsenceDetect))):
                    sweep_sinks.append((n, n))
                    if isinstance(o, SessionWindowAggregation) and \
                            o.early_firing:
                        # the early side sink ALSO sweep-commits on advance
                        # (close retractions, with the epoch's early rows
                        # when they are still held) — same fresh-epoch guard
                        sweep_sinks.append((n, f"{n}__early"))
            for n, sn in sweep_sinks:
                if sn not in self.sinks or not self.sinks[sn].is_committed(
                        epoch):
                    continue
                committed_wm = self.sinks[sn].manifest(epoch).get(
                    "meta", {}).get("watermark")
                # a pure RETRY (watermark ≤ the committed one) re-sweeps
                # nothing new and stays a safe idempotent no-op; a HIGHER
                # watermark would drain newly-closed windows into a no-op
                # commit and lose them — refuse before touching any shard
                if committed_wm is None or new_wm > committed_wm:
                    dup.append(n)
            if dup:
                raise RuntimeError(
                    f"epoch {epoch} already committed for {dup} at a lower "
                    "watermark; advancing further must use a new epoch id"
                )
        self.watermark = max(self.watermark, watermark)
        with self._epoch_step(epoch):
            self._sweep(epoch, emitted)
        return emitted

    def _sweep(self, epoch: int, emitted: dict) -> None:
        """Queue the watermark's sweeps and expiry in the step batch, in op
        order, on every shard: the shards write the closed windows and the
        unmatched join rows; the session and pattern sweeps reply with
        their rows, which the flush sorts across shards and commits."""
        wm = self.watermark
        for name, op in self.ops.items():
            if isinstance(op, KeyedAggregation) and op.window is not None:
                bound = wm - op.window.allowed_lateness
                panes = op.window.use_panes and not op.early_firing
                self._sweep_windows(
                    op, name, epoch, emitted, bound,
                    *((op.window.size, op.window.slide) if panes else ()))
            elif isinstance(op, SessionWindowAggregation):
                args = self._all_shards(wm - op.allowed_lateness, op.gap,
                                        op.early_firing)
                done = functools.partial(self._sessions_closed, op, name,
                                         epoch, wm, emitted)
                sinks = ([name, f"{name}__early"] if op.early_firing
                         else [name])
                if op.retractable:
                    self._request("sweep_closed_retractable_sessions", name,
                                  args, done, sinks)
                else:
                    self._request("sweep_closed_sessions", name, args, done,
                                  sinks)
            elif isinstance(op, (PatternMatch, KleenePattern, AbsenceDetect)):
                bound = wm - op.allowed_lateness
                done = functools.partial(self._matches_swept, op, name, epoch,
                                         wm, emitted)
                if isinstance(op, PatternMatch):
                    self._request("sweep_pattern_matches", name,
                                  self._all_shards(bound, list(op.pattern),
                                                   op.within), done, [name])
                elif isinstance(op, KleenePattern):
                    self._request("sweep_kleene_matches", name,
                                  self._all_shards(bound, op.first, op.mid,
                                                   op.last, op.within),
                                  done, [name])
                else:
                    self._request("sweep_absence", name,
                                  self._all_shards(bound, op.first, op.absent,
                                                   op.within), done, [name])
            elif isinstance(op, StreamJoin):
                for s, suffix in (("left", "__unmatched"),
                                  ("right", "__unmatched_right")):
                    if s not in op.unmatched_sides():
                        continue
                    # sweep BEFORE expiry so retention == max_dt cannot
                    # silently delete a row owed an unmatched emission
                    self._sweep_unmatched(op, name, epoch, emitted, s,
                                          f"{name}{suffix}")
                if op.retention is not None:
                    self._request("join_expire", name, self._all_shards(
                        wm - op.retention))
            elif isinstance(op, (EnrichJoin, StreamDedup)):
                ttl = op.dim_ttl if isinstance(op, EnrichJoin) else op.ttl
                if ttl is not None:
                    self._request("sweep_stale_registers", name,
                                  self._all_shards(wm - ttl))

    def _hold_early(self, op: "SessionWindowAggregation", name: str,
                    epoch: int, emitted: dict, results: list) -> None:
        """``emit_early_sessions``' rows: published now, committed with the
        epoch's close retractions when a sweep follows in the epoch, else
        at its end, so ``<op>__early`` commits once per epoch."""
        rows = self._early[name] = _sorted_rows(results)
        emitted[f"{name}__early"] = op.early_rows_to_table(rows, epoch)

    def _sessions_closed(self, op: "SessionWindowAggregation", name: str,
                         epoch: int, wm: float, emitted: dict,
                         results: list) -> None:
        """Commit a session sweep: with early firing, first the epoch's
        early rows and the closed sessions' retractions (each finally
        emitted session leaves the speculative set, so main + early running
        sums stay one sessionization), then the closed sessions."""
        swept = [pickle.loads(b) for b in results]
        if op.early_firing:
            rets = sorted(r for _, rs in swept for r in rs)
            self._emit(f"{name}__early", epoch, op.early_rows_to_table(
                self._early.pop(name, []) + rets, epoch), emitted,
                watermark=wm, op=name)
            swept = [items for items, _ in swept]
        self._emit(name, epoch,
                   op.rows_to_table(sorted(kv for p in swept for kv in p),
                                    epoch),
                   emitted, watermark=wm, op=name, metrics=dict(self.metrics))

    def _matches_swept(self, op, name: str, epoch: int, wm: float,
                       emitted: dict, results: list) -> None:
        """Commit a pattern, Kleene or absence sweep's matches."""
        self._emit(name, epoch, op.rows_to_table(_sorted_rows(results), epoch),
                   emitted, watermark=wm, op=name, metrics=dict(self.metrics))

    def _graph_args(self, op, data, *params) -> dict[int, tuple]:
        """A graph op's step argument: the epoch's edges, for the op's
        designated shard (one logical graph lives in one shard)."""
        edges = op.edges_from(self._as_table(data))
        sid = shard_of(op.name.encode(), self.store.num_shards)
        return {sid: (pickle.dumps(sorted(map(tuple, edges)),
                                   protocol=pickle.HIGHEST_PROTOCOL), *params)}

    def _graph_changed(self, op, name: str, epoch: int, emitted: dict,
                       kind: str, results: list) -> None:
        """Commit a graph op's changelog, as its one shard replied it."""
        self._emit(name, epoch,
                   op.rows_to_table(pickle.loads(results[0]), epoch),
                   emitted, kind=kind)

    def _sweep_windows(self, op: "KeyedAggregation", name: str, epoch: int,
                       emitted: dict, bound: float, *panes) -> None:
        """Queue every shard's sweep of the windows closed at ``bound``
        (pane mode with ``panes`` = (size, slide)); the shards write the
        closed windows and the flush commits them."""
        wm = self.watermark
        self._request_rows(
            "sweep_windows", name, self._all_shards(bound, *panes), name,
            op.rows_to_table, emitted,
            lambda: {"watermark": wm, "op": name,
                     "metrics": dict(self.metrics)})

    def _sweep_unmatched(self, op: "StreamJoin", name: str, epoch: int,
                         emitted: dict, side: str, sink: str) -> None:
        """Queue every shard's sweep of ``side``'s finalized never-matched
        rows; the shards write them into ``sink`` and the flush commits
        them."""
        wm = self.watermark
        self._request_rows(
            "sweep_join_unmatched", name,
            self._all_shards(wm - op.max_dt, side), sink,
            functools.partial(op.unmatched_to_table, side=side), emitted,
            lambda: {"watermark": wm, "op": name, "kind": "join_unmatched"})

    # ------------------------------------------------------------- inspection
    def state_table(self, name: str) -> pa.Table:
        """Current per-key aggregates as an Arrow table (windowed: the open
        windows) — for ``UpsertToRetract``, the materialized
        latest-per-key table."""
        op = self.ops[name]
        if isinstance(op, KeyedAggregation) and op.window is not None:
            return op.rows_to_table(self.store.collect_windows(name),
                                    self.last_epoch)
        fn = getattr(op, "state_to_table", None) or op.rows_to_table
        return fn(self.store.collect(name), self.last_epoch)

    def stats(self) -> dict:
        """Observability: driver metrics + per-shard state sizes (keys per
        table, session keys, join buffer sizes) — the ``inspect`` surface —
        and, under ``store``, what the shards' ``step`` replies reported:
        ``calls`` (shard calls), ``kernel_s`` (compute seconds per kernel,
        summed over shards), ``live_keys`` (per shard, as of its last
        step), and ``part_bytes`` and ``snapshot_bytes`` (the bytes of the
        sink parts and checkpoint files the shards wrote); under
        ``route_s``, the seconds each keyed op's route ran (op name →
        seconds, inline on the driver or in route tasks)."""
        st = self._store_stats
        return {"metrics": dict(self.metrics), "watermark": self.watermark,
                "shards": self.store.stats(),
                "store": {**st, "kernel_s": dict(st["kernel_s"]),
                          "live_keys": dict(st["live_keys"])},
                "route_s": dict(self._route_s)}

    def route_late(self, epoch: int, inputs: dict,
                   ts_cols: dict[str, str], lateness: float = 0.0) -> dict:
        """Late-data SIDE OUTPUT (the Beam pattern): split each named input
        at the CURRENT session watermark − ``lateness`` — rows with event
        time ≤ that bound are droppably late (their windows/starts already
        finalized) — commit them to a per-input side sink
        (``<root>/_late_<input>``, exactly-once like every sink) stamped
        with the epoch and the watermark that condemned them, and return
        the on-time remainder to feed ``process_epoch``.  Instead of
        silently counting drops, the late rows stay queryable for repair /
        backfill / monitoring.

        Late rows are assumed FEW (they are the out-of-orderness tail), so
        a Dataset input pays one extra filter pass and the late slice
        collects to the driver for the side commit; the on-time side stays
        a lazy Dataset.  Replays re-commit identically (idempotent sink).
        Metrics: ``late_routed`` counts rows diverted here (the ops' own
        ``late_dropped`` then stays 0 for routed inputs, since they never
        see the late rows)."""
        bound = self.watermark - lateness
        out: dict[str, Any] = dict(inputs)
        for name, ts_col in ts_cols.items():
            data = inputs.get(name)
            if data is None:
                continue
            if isinstance(data, pa.Table):
                ts = _ts_to_float(data.select([ts_col]).to_pandas()[ts_col])
                mask = pa.array(ts > bound)
                on_time, late_tbl = data.filter(mask), data.filter(
                    pc.invert(mask))
            else:
                # bind per-iteration via default args: ``on_time`` is LAZY
                # (executes after this loop moves on), so a plain closure
                # over the loop variables would read the wrong input's col
                def flt(tbl: pa.Table, keep_on_time: bool,
                        _c=ts_col, _b=bound) -> pa.Table:
                    ts = _ts_to_float(tbl.select([_c]).to_pandas()[_c])
                    m = pa.array(ts > _b)
                    return tbl.filter(m if keep_on_time else pc.invert(m))

                on_time = data.map_batches(
                    lambda t, _f=flt: _f(t, True), batch_format="pyarrow")
                late_tbl = self._as_table(data.map_batches(
                    lambda t, _f=flt: _f(t, False), batch_format="pyarrow"))
            n_late = late_tbl.num_rows
            if n_late:
                late_tbl = late_tbl.append_column(
                    "late_epoch", pa.array([epoch] * n_late,
                                           type=pa.int64()))
                late_tbl = late_tbl.append_column(
                    "watermark", pa.array([self.watermark] * n_late,
                                          type=pa.float64()))
                self._late_sink(name).commit_tables(
                    epoch, [late_tbl], meta=self._meta(kind="late"))
                self.metrics["late_routed"] = (
                    self.metrics.get("late_routed", 0) + n_late)
            out[name] = on_time
        return out

    def late_output(self, input_name: str) -> pa.Table:
        """All late rows routed off ``input_name`` so far (durable read)."""
        return self._late_sink(input_name).read_committed_table()

    def mark_source_idle(self, source: str) -> None:
        """Exclude a stalled source from the per-source watermark minimum
        (the Flink idle-source marker): without this, one silent input pins
        the session frontier forever.  The source re-joins the minimum the
        next time it reports data or a watermark."""
        self.idle_sources.add(source)

    def checkpoint(self, epoch: int) -> None:
        """Snapshot every shard in one ``step`` and save the checkpoint
        once the sinks are durable; inside an open batch, at its end."""
        with self._epoch_step(epoch):
            self._batch.snapshot = True

    def _save_checkpoint(self, epoch: int, shards: list[int]) -> None:
        """Commit the checkpoint whose ``shards`` wrote their snapshot
        files.  It must never outrun the sinks' durable watermark: resume
        skips every epoch it covers."""
        self.sync()
        self.chk.save(
            epoch, shards,
            extra={"watermark": self.watermark, "metrics": dict(self.metrics),
                   "source_watermarks": dict(self.source_watermarks),
                   "idle_sources": sorted(self.idle_sources)},
        )
        self.chk.prune(keep_last=self.checkpoint_keep)

    def sync(self) -> None:
        """Force a group-commit barrier on every sink (durable through the
        last committed epoch; no-op unless ``sync_every > 1``)."""
        for s in self.sinks.values():
            s.sync()
        for s in self._late_sinks.values():
            s.sync()

    def close(self, epoch: int | None = None) -> dict:
        """Final watermark → +inf: flush every window/session, commit, stop.

        Stopping KILLS the shard actor pool: read live (non-windowed) state
        via ``state_table`` BEFORE closing; sink outputs are durable files
        and stay readable afterwards."""
        e = self.last_epoch + 1 if epoch is None else epoch
        with self._epoch_step(e):  # one step: the final sweeps + snapshot
            out = self.advance_watermark(e, math.inf)
            self.checkpoint(e)  # takes the final group-commit barrier first
        self.store.shutdown()
        return out
