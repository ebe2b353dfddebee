"""Sharded, actor-held keyed state — the engine's arrangements.

The reference keeps fitted state inside differential-dataflow arrangements,
hash-sharded across timely workers (SURVEY §3 "State residency").  Here state
lives in a pool of Ray actors (``StateShard``), each owning one hash range
of the key space for every registered state table.  Two routing rules
exist:

- **columnar arrangements** (``arrangement.py``), for windowed
  ``KeyedAggregation`` and ``StreamJoin``: ``key_hash(key cols) %
  num_shards`` (the values of ``hash_pandas_object``), hashed once per
  batch.
  - ``windows``  name → {window end: slab of key columns, hash→slot index
    and numpy ``s``/``c`` accumulators, or one object column of monoids}
  - ``spines``   name → per side, runs of rows sorted by key hash (the
    carried Arrow columns, event time, diff, matched flag)
- **pickled keys** (``shard_of``: md5 of the pickled key tuple) for every
  other family:
  - ``aggs``     name → {key: accumulator} — unwindowed aggregates, LWW
    registers, dedup claims, encoder state (monoids from
    ``state.aggregates``; ``apply_delta`` is ``plus_equals``, retraction is
    a negated accumulator — the DD ``count``-with-custom-diff pattern,
    standard_scaler.rs:81-86)
  - ``sessions`` / ``session_points``  name → {key: intervals or points}
  - ``patterns`` / ``neardup`` / ``graphs``

Deltas arrive pre-combined per key per epoch (the two-phase aggregation fix
for the reference's key=`1` hot spot); each ``apply_*`` call is **idempotent
per (table, epoch)** so a restarted driver can replay epochs blindly.  The
work of an epoch on its shards runs in ``StateShard.step``, one call per
touched shard (the Differential Dataflow worker's local progress step):
applies, early session emissions, graph ops and join probes in op order,
then the watermark's sweeps and join expiry, then the snapshot when a
checkpoint is due.  Like a DD worker, the shard owns the output it
produces: each request travels as its own actor-call argument, a
row-emitting kernel's result is finalized and written as the shard's part
of the op's sink (``write_epoch_part``), and the snapshot is written into
the checkpoint's epoch dir (``write_shard_file``); those replies carry
manifest entries, timings and byte counts, never rows or snapshot bytes,
so message and reply stay under Ray's inline-argument limit.  The session,
pattern and graph kernels reply with their pickled rows, which the driver
sorts across shards and commits.
``dump``/``load`` serialize a shard for checkpointing (arrangements as whole
columns); the applied-epoch marks are part of the snapshot, keeping
idempotency across restarts.

Scale note: the driver relays only per-epoch *accumulator deltas* (bytes
O(#touched keys), never raw rows); raw data flows worker→worker through the
object store during the partial stage.  At 10^12-sequence scale raise
``num_shards`` so each shard's resident state fits its actor heap; shards are
independent and can live on any node.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
import uuid
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pyarrow as pa

import ray

from .arrangement import JoinArrangement, Partials, Rows, WindowArrangement
from .sink import CheckpointManager, write_epoch_part, write_shard_file

__all__ = ["StateShard", "ShardedStateStore", "Emit", "Gather", "shard_of",
           "scatter", "rescale_blobs", "legacy_state", "check_cpu_headroom"]


def shard_of(key_bytes: bytes, num_shards: int) -> int:
    """Stable shard routing (md5 — independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.md5(key_bytes).digest()[:8], "big") % num_shards


def scatter(items: list[tuple[bytes, Any]], num_shards: int
            ) -> dict[int, list]:
    """(key bytes, value) pairs → {shard: its pairs}, by ``shard_of``."""
    by_shard: dict[int, list] = {}
    for key, val in items:
        by_shard.setdefault(shard_of(key, num_shards), []).append((key, val))
    return by_shard


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _register_values_differ(a, b) -> bool:
    """LWW register value inequality, safe for ARRAY-valued registers
    (embedding vectors ride UpsertToRetract as list<float> vals, whose
    pandas cells are numpy arrays — plain ``!=`` raises on those)."""
    if a is None or b is None:
        return (a is None) != (b is None)
    try:
        return bool(a != b)
    except ValueError:
        pass
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return any(not np.array_equal(x, y) for x, y in zip(a, b))
    return True


class StateShard:
    """One shard of every state table.  Runs as a Ray actor (see
    ``ShardedStateStore``); the arrangement methods take and return columns
    (``Partials``, ``Rows``, Arrow tables), the others pickled payloads, to
    keep actor-call overhead flat.  Both sessions reach the
    ``STEP_KERNELS`` (every keyed apply, the early session emission, the
    graph ops, the join probes, and the watermark's window, session,
    pattern, register and unmatched sweeps and join expiry) only through
    ``step``, which runs a whole epoch of them, and the snapshot when one
    is due, in one call; each kernel is also callable on its own, in
    process."""

    def __init__(self, shard_id: int, num_shards: int):
        self.shard_id = shard_id
        self.num_shards = num_shards
        # keyed aggregates
        self.aggs: dict[str, dict[bytes, Any]] = {}
        # session windows: name -> key -> sorted list of [start, end, acc]
        self.sessions: dict[str, dict[bytes, list[list]]] = {}
        # retractable sessions: name -> key -> {(ts, value): count}
        self.session_points: dict[str, dict[bytes, dict]] = {}
        # early-fired session snapshot: name -> key -> [session tuple…] —
        # the last speculative (open-session) state emitted per key; the
        # next emit diffs against it (a cross-epoch merge retracts BOTH
        # prior partial sessions).  O(live open sessions), same order as
        # the session state itself.
        self.session_early: dict[str, dict[bytes, list]] = {}
        # keys the current epoch's session apply touched (transient;
        # drained by emit_early_sessions, empty on replayed epochs)
        self._session_touched: dict[str, set] = {}
        # windowed aggregates: name -> {window end: slab} (arrangement.py)
        self.windows: dict[str, WindowArrangement] = {}
        # stream joins: name -> per-side spines of hash-sorted runs
        self.spines: dict[str, JoinArrangement] = {}
        # CEP pattern buffers: name -> key -> {(ts, type): count}
        self.patterns: dict[str, dict[bytes, dict]] = {}
        # streaming near-dup: name -> band-bucket -> [(doc_id, sig bytes)]
        self.neardup: dict[str, dict[bytes, list]] = {}
        self.neardup_drops: dict[str, int] = {}
        # last emitted (epoch, blob) per op: a RETRIED distributed group
        # task re-calls the apply and must get the SAME pairs back, not an
        # empty replay — its first result died with the failed task
        # (transient; driver-level resume recomputes epochs fresh)
        self.neardup_last: dict[str, tuple] = {}
        # pane-mode sliding windows: name -> last emitted sweep bound
        self.pane_bounds: dict[str, float] = {}
        # incremental connected components: name -> union-find
        # {"parent": {}, "members": {}, "label": {}}
        self.graphs: dict[str, dict] = {}
        # idempotency: table name -> applied-epoch high-water mark (epochs
        # arrive in increasing order; a replay/retry re-sends an epoch ≤ the
        # mark).  An int, not a set — a 10^12-sequence stream has millions of
        # epochs and an ever-growing set would leak.
        self.applied: dict[str, int] = {}

    # ---------------------------------------------------------------- util
    def _seen(self, table: str, epoch: int) -> bool:
        if epoch <= self.applied.get(table, -1):
            return True
        self.applied[table] = epoch
        return False

    # ------------------------------------------------------- keyed aggregates
    def apply_delta(self, name: str, epoch: int, payload: bytes,
                    return_merged: bool = False) -> bytes | int:
        """payload = pickled list[(key_bytes, accumulator)].

        With ``return_merged`` the post-merge accumulators of the touched
        keys come back in the same round-trip (saves a separate ``collect``
        for small state like encoder meta).  Idempotent replays return the
        *current* values, so retried epochs still observe correct state.
        """
        items = pickle.loads(payload)
        store = self.aggs.setdefault(name, {})
        if not self._seen(f"agg:{name}", epoch):
            for key, acc in items:
                cur = store.get(key)
                if cur is None:
                    # a fresh partial that already nets to the identity
                    # (an insert and its retraction cancelled inside the
                    # epoch) must not enter the store: a stored identity
                    # is indistinguishable from "present with count 0" to
                    # state_table readers and would emit a spurious +1
                    # changelog row
                    if not (hasattr(acc, "is_identity")
                            and acc.is_identity()):
                        store[key] = acc
                else:
                    cur.merge(acc)
                    # delete only true identities: `is_zero` can hold while
                    # negative pending-retraction entries remain (out-of-order
                    # retraction buffered before its insert) — those must stay
                    if hasattr(cur, "is_identity") and cur.is_identity():
                        del store[key]
        if return_merged:
            return _dumps([(k, store.get(k)) for k, _ in items])
        return len(items)

    def apply_delta_changelog(self, name: str, epoch: int,
                              payload: bytes) -> bytes:
        """Changelog variant of ``apply_delta`` (DD's output changelog of a
        keyed fold): apply the epoch's partials and return ``(key_bytes,
        old_acc | None, new_acc | None)`` for every TOUCHED key — the
        caller finalizes both sides and emits ±1 delta rows whose running
        sum is the current grouped-aggregate table, turning any keyed
        aggregation into an upstream for further differential operators.
        ``new_acc`` is None when the merge reached the monoid identity (the
        key was deleted — pure retraction); a replayed epoch returns []
        (same ``agg:`` high-water mark as ``apply_delta``, so one op uses
        either surface consistently).  Deterministic: sorted key order."""
        if self._seen(f"agg:{name}", epoch):
            return _dumps([])
        store = self.aggs.setdefault(name, {})
        out = []
        for key, acc in sorted(pickle.loads(payload), key=lambda kv: kv[0]):
            cur = store.get(key)
            old = None if cur is None else (
                cur.copy() if hasattr(cur, "copy")
                else pickle.loads(pickle.dumps(cur)))
            if cur is None:
                # same fresh-identity guard as apply_delta: a cancelled
                # insert on a never-seen key stays absent (emits nothing)
                if not (hasattr(acc, "is_identity") and acc.is_identity()):
                    store[key] = acc
            else:
                cur.merge(acc)
                if hasattr(cur, "is_identity") and cur.is_identity():
                    del store[key]
            out.append((key, old, store.get(key)))
        return _dumps(out)

    def collect(self, name: str) -> bytes:
        """All (key, acc) pairs of this shard (snapshot read)."""
        return _dumps(sorted(self.aggs.get(name, {}).items()))

    def enrich_probe(self, name: str, payload: bytes) -> bytes:
        """Point lookup of LastValueAgg registers (EnrichJoin probe):
        payload = pickled list[key_bytes] → pickled list[(key_bytes,
        value-tuple | None)].  Tombstones (value None) read as misses."""
        keys = pickle.loads(payload)
        store = self.aggs.get(name, {})
        out = []
        for kb in keys:
            acc = store.get(kb)
            out.append((kb, None if acc is None else acc.value))
        return _dumps(out)

    def dedup_filter(self, name: str, epoch: int, payload: bytes) -> bytes:
        """First-seen-wins claim for streaming dedup.

        payload = pickled list[(key_bytes, stamp)] — ONE offer per key (the
        caller pre-reduces to the per-key minimum ``(ts, tiebreak)`` stamp
        over the whole (shard, epoch) slice, so the outcome is independent
        of block order).  Unseen keys are claimed under this epoch and WIN;
        a claim from an earlier epoch makes the key a duplicate; a replay of
        the claiming epoch (same stamp) re-wins idempotently, so retried
        epochs emit the identical winner set into their existing manifests.
        Returns pickled list of winning key_bytes."""
        from ..state.aggregates import FirstSeenReg

        items = pickle.loads(payload)
        store = self.aggs.setdefault(name, {})
        winners = []
        for kb, stamp in items:
            cur = store.get(kb)
            if cur is None:
                store[kb] = FirstSeenReg(stamp, epoch)
                winners.append(kb)
            elif cur.epoch == epoch and cur.stamp == stamp:
                winners.append(kb)
        return _dumps(winners)

    def sweep_stale_registers(self, name: str, before_stamp: float) -> int:
        """Drop LastValueAgg registers (EnrichJoin dim state) whose stamp is
        older than ``before_stamp`` — the register-TTL sweep that bounds
        dim-side state for unbounded key spaces (stale keys re-enrich as
        misses, exactly like never-seen keys).  Tombstones age out the same
        way.  Returns the number of dropped registers."""
        store = self.aggs.get(name, {})
        dead = [k for k, acc in store.items()
                if getattr(acc, "stamp", None) is not None
                and acc.stamp[0] < before_stamp]
        for k in dead:
            del store[k]
        return len(dead)

    # ---------------------------------------------------- windowed aggregates
    def apply_window_partials(self, name: str, epoch: int, part: Partials,
                              changelog: bool = False):
        """Merge one epoch's window partials into the op's arrangement.
        Returns the rows applied, or with ``changelog`` the touched rows'
        ``(before, after)`` accumulators (None on a replayed epoch)."""
        if self._seen(f"win:{name}", epoch):
            return None if changelog else 0
        arr = self.windows.get(name)
        if arr is None:
            arr = self.windows[name] = WindowArrangement(
                part.types, part.acc is not None)
        return arr.apply(part, changelog)

    def collect_windows(self, name: str) -> Partials | None:
        """The open windows' live rows (snapshot read)."""
        arr = self.windows.get(name)
        return None if arr is None else arr.collect()

    def sweep_windows(self, name: str, close_before: float,
                      size: float | None = None,
                      slide: float | None = None) -> Partials | None:
        """Emit & drop the windows whose end ≤ ``close_before`` (the driver
        passes watermark − allowed lateness).  With ``size``/``slide`` the
        state is tumbling panes of width ``slide``, and a window is emitted
        when its end lands in (last bound, close_before]; the monotone last
        bound (checkpointed) makes re-sweeps idempotent, like removal does
        for plain windows."""
        arr = self.windows.get(name)
        if size is None:
            return None if arr is None else arr.sweep(close_before)
        last = self.pane_bounds.get(name, -math.inf)
        self.pane_bounds[name] = max(last, close_before)
        if arr is None:
            return None
        return arr.sweep_panes(last, close_before, size, slide)

    # ------------------------------------------------------- session windows
    @staticmethod
    def build_sessions(points: list, gap: float) -> list[list]:
        """Sorted (ts, value) points → disjoint session list
        [start, end, [sum, count, min_ts, max_ts]]; end = last_ts + gap.
        Associative under merge_session_lists, so per-block local sessions
        compose exactly (the partial stage compresses raw rows to sessions
        before anything leaves the worker)."""
        sessions: list[list] = []
        for ts, value in sorted(points):
            if sessions and ts <= sessions[-1][1]:
                s = sessions[-1]
                s[1] = max(s[1], ts + gap)
                s[2][0] += float(value)
                s[2][1] += 1
                s[2][3] = max(s[2][3], ts)
            else:
                sessions.append([ts, ts + gap, [float(value), 1, ts, ts]])
        return sessions

    @staticmethod
    def merge_session_lists(a: list[list], b: list[list]) -> list[list]:
        merged: list[list] = []
        for s in sorted(a + b):
            if merged and s[0] <= merged[-1][1]:
                m = merged[-1]
                m[1] = max(m[1], s[1])
                m[2][0] += s[2][0]
                m[2][1] += s[2][1]
                m[2][2] = min(m[2][2], s[2][2])
                m[2][3] = max(m[2][3], s[2][3])
            else:
                merged.append([s[0], s[1], list(s[2])])
        return merged

    def apply_session_points(self, name: str, epoch: int, payload: bytes,
                             gap: float) -> int:
        """payload = pickled list[(key_bytes, sessions-or-points)].

        Entries may be pre-built session lists (from distributed block
        partials) or raw (ts, value) points; both coalesce by interval merge.
        Insert-only (the reference has no session construct at all; SURVEY
        §2.1 — sessions are part of our added windowing surface).
        """
        if self._seen(f"sess:{name}", epoch):
            return 0
        store = self.sessions.setdefault(name, {})
        touched = self._session_touched.setdefault(name, set())
        n = 0
        for key, items in pickle.loads(payload):
            n += len(items)
            if items and not isinstance(items[0], list):
                new_sessions = self.build_sessions(items, gap)
            else:
                new_sessions = items
            store[key] = self.merge_session_lists(store.get(key, []), new_sessions)
            touched.add(key)
        return n

    # -------------------------------------------- retractable session windows
    def apply_session_point_deltas(self, name: str, epoch: int,
                                   payload: bytes) -> int:
        """Retractable mode: state is the raw point multiset
        {(ts, value): net_count} per key; sessions are derived at sweep time,
        so retracting a bridging point correctly SPLITS a session.

        payload = pickled list[(key_bytes, [(ts, value, diff), ...])].
        """
        if self._seen(f"sessp:{name}", epoch):
            return 0
        store = self.session_points.setdefault(name, {})
        touched = self._session_touched.setdefault(name, set())
        n = 0
        for key, points in pickle.loads(payload):
            touched.add(key)
            pts = store.setdefault(key, {})
            for ts, value, diff in points:
                n += 1
                k = (float(ts), float(value))
                c = pts.get(k, 0) + int(diff)
                if c == 0:
                    pts.pop(k, None)
                else:
                    pts[k] = c
            if not pts:
                del store[key]
        return n

    # ------------------------------------------------ early-fired sessions
    @staticmethod
    def _session_tuple(s: list) -> tuple:
        """[start, end, [sum, count, mn, mx]] → hashable identity."""
        return (s[0], s[1], tuple(s[2]))

    def _live_sessions(self, name: str, key: bytes, gap: float,
                       retractable: bool) -> list[list]:
        """Current open sessions of one key, derived the same way the
        close sweep derives them (deterministic: build_sessions sorts)."""
        if not retractable:
            return self.sessions.get(name, {}).get(key, [])
        pts = self.session_points.get(name, {}).get(key, {})
        flat = []
        for (ts, value), c in pts.items():
            if c > 0:
                flat.extend([(ts, value)] * c)
        return self.build_sessions(flat, gap)

    def emit_early_sessions(self, name: str, gap: float,
                            retractable: bool) -> bytes:
        """Speculative per-epoch session changelog (Beam's accumulating-
        with-retractions early firing for MERGING windows): for every key
        this epoch's apply touched, diff the current open-session list
        against the last emitted snapshot — a point that bridges two
        sessions retracts BOTH prior partials (−1, −1) and adds the merged
        one (+1); in retractable mode a deleted bridge point retracts the
        joined session and adds the two halves.  Replayed epochs touch no
        keys and emit nothing; the side sink's exactly-once commit makes
        the call idempotent either way."""
        touched = self._session_touched.get(name)
        if touched:
            touched = sorted(touched)
            self._session_touched[name] = set()
        else:
            return _dumps([])
        snap = self.session_early.setdefault(name, {})
        rows = []
        for key in touched:
            cur = [self._session_tuple(s)
                   for s in self._live_sessions(name, key, gap, retractable)]
            prev = snap.get(key, [])
            prev_set, cur_set = set(prev), set(cur)
            for s in prev:
                if s not in cur_set:
                    rows.append((key, -1, s))
            for s in cur:
                if s not in prev_set:
                    rows.append((key, 1, s))
            if cur:
                snap[key] = cur
            else:
                snap.pop(key, None)
        if not snap:
            self.session_early.pop(name, None)
        rows.sort()
        return _dumps(rows)

    def _retract_closed_early(self, name: str, emitted: list) -> list:
        """Close sweep × early firing: every finally-emitted session leaves
        the speculative (open) set — emit its −1 in the early stream so
        main + early running sums stay one consistent sessionization."""
        snap = self.session_early.get(name)
        if not snap:
            return []
        rows = []
        for key, s in emitted:
            st = self._session_tuple(s)
            held = snap.get(key)
            if held and st in held:
                held.remove(st)
                rows.append((key, -1, st))
                if not held:
                    snap.pop(key, None)
        if not snap:
            self.session_early.pop(name, None)
        rows.sort()
        return rows

    def sweep_closed_retractable_sessions(self, name: str, watermark: float,
                                          gap: float,
                                          early: bool = False) -> bytes:
        """Derive sessions from the live point multiset; emit & drop the
        points of every session whose end (last ts + gap) ≤ watermark."""
        store = self.session_points.get(name, {})
        emitted = []
        for key in list(store.keys()):
            pts = store[key]
            flat = []
            for (ts, value), c in pts.items():
                if c > 0:
                    flat.extend([(ts, value)] * c)
            sessions = self.build_sessions(flat, gap)
            closed_bounds = []
            for s in sessions:
                if s[1] <= watermark:
                    emitted.append((key, s))
                    closed_bounds.append((s[0], s[2][3]))  # [start, last_ts]
            for lo, hi in closed_bounds:
                # keep negative-count entries (pending retraction of an
                # insert that hasn't arrived yet) even inside a closed range
                for k in [k for k in pts if lo <= k[0] <= hi and pts[k] > 0]:
                    del pts[k]
            if not pts:
                del store[key]
        emitted.sort()
        if early:
            return _dumps((emitted, self._retract_closed_early(name, emitted)))
        return _dumps(emitted)

    def sweep_closed_sessions(self, name: str, watermark: float, gap: float,
                              early: bool = False) -> bytes:
        """Emit & drop sessions whose end (last ts + gap) ≤ watermark."""
        store = self.sessions.get(name, {})
        emitted = []
        for key in list(store.keys()):
            remaining = []
            for s in store[key]:
                if s[1] <= watermark:
                    emitted.append((key, s))
                else:
                    remaining.append(s)
            if remaining:
                store[key] = remaining
            else:
                del store[key]
        emitted.sort()
        if early:
            return _dumps((emitted, self._retract_closed_early(name, emitted)))
        return _dumps(emitted)

    # ---------------------------------------------------------- CEP patterns
    def apply_pattern_points(self, name: str, epoch: int, payload: bytes) -> int:
        """payload = pickled list[(key_bytes, [(ts, type), ...])] — buffer
        per-key typed event points for watermark-driven pattern sweeps."""
        if self._seen(f"pat:{name}", epoch):
            return 0
        store = self.patterns.setdefault(name, {})
        n = 0
        for key, points in pickle.loads(payload):
            pts = store.setdefault(key, {})
            for ts, typ in points:
                n += 1
                k = (float(ts), typ)
                pts[k] = pts.get(k, 0) + 1
        return n

    def sweep_pattern_matches(self, name: str, watermark: float,
                              pattern: list, within: float) -> bytes:
        """Emit every ordered event-type chain matching ``pattern`` whose
        START is finalizable (start ts ≤ watermark − within: no future event
        can extend it), then drop those events.  All-combinations semantics
        (each strictly-increasing-ts chain is one match) — the same multiset
        a relational self-join oracle produces.  Cost per key is bounded by
        window occupancy; a hot key with E events in one window can emit
        O(E^len) chains, exactly like its SQL equivalent.
        """
        store = self.patterns.get(name, {})
        bound = watermark - within
        emitted = []
        for key in list(store.keys()):
            pts = store[key]
            events = sorted(
                (ts, typ) for (ts, typ), c in pts.items() for _ in range(c)
            )
            n = len(events)

            def extend(start_ts, prev_ts, pos, level, chain):
                if level == len(pattern):
                    emitted.append((key, tuple(chain)))
                    return
                for j in range(pos, n):
                    ts, typ = events[j]
                    if ts > start_ts + within:
                        break
                    if ts > prev_ts and typ == pattern[level]:
                        extend(start_ts, ts, j + 1, level + 1, chain + [ts])

            for i, (ts, typ) in enumerate(events):
                if typ == pattern[0] and ts <= bound:
                    extend(ts, ts, i + 1, 1, [ts])
            for k in [k for k in pts if k[0] <= bound]:
                del pts[k]
            if not pts:
                del store[key]
        emitted.sort()
        return _dumps(emitted)

    def sweep_absence(self, name: str, watermark: float, first: str,
                      absent: str, within: float) -> bytes:
        """Emit (key, ts) for every finalizable ``first`` event (ts ≤
        watermark − within) with NO ``absent`` event in (ts, ts + within],
        then drop events at or before the bound.  Multiset semantics: count
        copies emit count rows.  Shares the pattern point state — events
        arrive via ``apply_pattern_points`` under this op's name."""
        store = self.patterns.get(name, {})
        bound = watermark - within
        emitted = []
        for key in list(store.keys()):
            pts = store[key]
            absents = sorted(ts for (ts, typ), c in pts.items()
                             if typ == absent and c > 0)
            import bisect

            for (ts, typ), c in sorted(pts.items()):
                if typ != first or ts > bound:
                    continue
                # any canceller in (ts, ts + within]?
                i = bisect.bisect_right(absents, ts)
                if i < len(absents) and absents[i] <= ts + within:
                    continue
                emitted.extend([(key, float(ts))] * c)
            for k in [k for k in pts if k[0] <= bound]:
                del pts[k]
            if not pts:
                del store[key]
        emitted.sort()
        return _dumps(emitted)

    def apply_upsert_retract(self, name: str, epoch: int,
                             payload: bytes) -> bytes:
        """Upsert→retraction changelog (DD arrange + consolidate): payload =
        pickled list[(key_bytes, LastValueAgg)] — ONE offer per key (the
        same partial contract as ``apply_delta``: the caller pre-merges the
        (shard, epoch) slice to the per-key MAX ``(ts, tiebreak)`` stamp),
        so the outcome is independent of block order.  Each offer that
        BEATS the key's register emits the consolidated delta ``(+1, key,
        new_value)`` plus ``(−1, key, old_value)`` when one existed; a
        tombstone offer (``value is None``) emits only the retraction; a
        stale offer (stamp ≤ register) emits nothing but the register keeps
        the loser's stamp shadowed (LWW — late/out-of-order upserts cannot
        resurrect).  The emitted multiset's running sum IS the
        latest-value-per-key table.  Replay-idempotent via the epoch
        high-water mark (a replayed epoch returns an empty delta and the
        idempotent sink skips its commit).  Deterministic: offers apply in
        sorted key order."""
        if self._seen(f"upsert:{name}", epoch):
            return _dumps([])
        store = self.aggs.setdefault(name, {})
        deltas = []
        for kb, acc in sorted(pickle.loads(payload), key=lambda kv: kv[0]):
            cur = store.get(kb)
            if cur is None:
                store[kb] = acc
                if acc.value is not None:
                    deltas.append((1, kb, acc.value))
            elif acc.stamp > cur.stamp:
                if _register_values_differ(acc.value, cur.value):
                    if cur.value is not None:
                        deltas.append((-1, kb, cur.value))
                    if acc.value is not None:
                        deltas.append((1, kb, acc.value))
                cur.stamp, cur.value = acc.stamp, acc.value
        return _dumps(deltas)

    def sweep_kleene_matches(self, name: str, watermark: float, first: str,
                             mid: str, last: str, within: float) -> bytes:
        """Kleene-plus CEP (``A B+ C``): emit one row per (first, last) pair
        on the same key with ``first.ts < last.ts ≤ first.ts + within`` and
        AT LEAST ONE ``mid`` event strictly between them, carrying the
        aggregated middle count — MATCH_RECOGNIZE ``A B+ C`` with one row
        per (A, C) pair and ``count(B)`` as the measure (non-contiguous:
        other event types may interleave), the same multiset as the
        relational a-c join with an inner b-count.  Multiset semantics:
        duplicate a/c events multiply rows, duplicate b events add to the
        count.  A start is finalizable at ``first.ts <= watermark − within``;
        swept events drop (retention = ``within``, the PatternMatch
        contract).  Per-key cost is O(E log E + matches) via sorted arrays
        + prefix sums — no exponential subset enumeration (that is exactly
        why the middle is aggregated, not exploded: ``B+`` under
        all-subsets semantics emits 2^|B|−1 rows per pair)."""
        store = self.patterns.get(name, {})
        bound = watermark - within
        emitted = []
        for key in list(store.keys()):
            pts = store[key]
            a_l, b_l, c_l = [], [], []
            for (ts, typ), c in pts.items():
                if c <= 0:
                    continue
                if typ == first:
                    a_l.append((ts, c))
                elif typ == mid:
                    b_l.append((ts, c))
                elif typ == last:
                    c_l.append((ts, c))
            if a_l and b_l and c_l:
                b_l.sort()
                c_l.sort()
                b_ts = np.array([t for t, _ in b_l])
                b_cum = np.concatenate(
                    [[0], np.cumsum([c for _, c in b_l])])
                c_ts = np.array([t for t, _ in c_l])
                for a_t, a_c in sorted(a_l):
                    if a_t > bound:
                        break  # later starts are not finalizable yet
                    lo = int(np.searchsorted(c_ts, a_t, side="right"))
                    hi = int(np.searchsorted(c_ts, a_t + within,
                                             side="right"))
                    for j in range(lo, hi):
                        c_t, c_c = c_l[j]
                        nb = int(
                            b_cum[np.searchsorted(b_ts, c_t, side="left")]
                            - b_cum[np.searchsorted(b_ts, a_t,
                                                    side="right")])
                        if nb >= 1:
                            emitted.extend(
                                [(key, (float(a_t), float(c_t), nb))]
                                * (a_c * c_c))
            for k in [k for k in pts if k[0] <= bound]:
                del pts[k]
            if not pts:
                del store[key]
        emitted.sort()
        return _dumps(emitted)

    # --------------------------------------------- incremental iterate (CC)
    def apply_cc_edges(self, name: str, epoch: int, payload: bytes) -> bytes:
        """Incremental connected components — the DD ``iterate`` primitive
        maintained across epochs.  State is a union-find with min-id labels
        and per-root member lists (smaller-into-larger merges); each epoch's
        new edges produce a CONSOLIDATED multiset delta of label rows:
        ``(+1, id, new_label)`` / ``(−1, id, old_label)`` — the timestamped
        retraction stream whose running sum IS the current component table.
        Deterministic (edges applied in sorted order, deltas sorted) and
        replay-idempotent (epoch high-water mark; replays return an empty
        delta and the sink skips the already-committed epoch).

        One logical graph lives in ONE shard by design: union-find state is
        O(nodes-in-edge-stream), the candidate-bounded regime (verified
        dedup pairs, entity graphs) — the same bound as the batch driver
        tier (``_CC_DRIVER_MAX_PAIRS``); unbounded raw-corpus graphs belong
        to the batch ``connected_components_ds`` contraction path."""
        if self._seen(f"cc:{name}", epoch):
            return _dumps([])
        g = self.graphs.setdefault(
            name, {"parent": {}, "members": {}, "label": {}})
        parent, members, label = g["parent"], g["members"], g["label"]
        net: dict[tuple, int] = {}

        def emit(diff, node, lab):
            k = (node, lab)
            net[k] = net.get(k, 0) + diff
            if net[k] == 0:
                del net[k]

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for lo, hi in sorted(pickle.loads(payload)):
            for node in (int(lo), int(hi)):
                if node not in parent:
                    parent[node] = node
                    members[node] = [node]
                    label[node] = node
                    emit(1, node, node)
            ra, rb = find(int(lo)), find(int(hi))
            if ra == rb:
                continue
            if len(members[ra]) < len(members[rb]):
                ra, rb = rb, ra
            la, lb = label[ra], label[rb]
            new_label = min(la, lb)
            if la != new_label:
                for node in members[ra]:
                    emit(-1, node, la)
                    emit(1, node, new_label)
            if lb != new_label:
                for node in members[rb]:
                    emit(-1, node, lb)
                    emit(1, node, new_label)
            parent[rb] = ra
            members[ra].extend(members[rb])
            del members[rb]
            label[ra] = new_label
            del label[rb]
        out = sorted((node, lab, diff) for (node, lab), diff in net.items())
        return _dumps([(d, n, lb) for n, lb, d in out])

    def apply_neardup_offers(self, name: str, epoch: int,
                             payload: bytes, threshold: float,
                             cap: int) -> bytes:
        """Streaming MinHash-LSH near-dup: payload = pickled
        list[(band_bucket_bytes, [(doc_id, sig_bytes)…])].  Each bucket
        keeps its member list (doc id + full signature); a new doc joining
        a bucket compares signatures against the existing members
        (agreement fraction = Jaccard estimate) and every pair estimated
        ≥ ``threshold`` emits a candidate detection — the same pair can
        fire from several bands (and shards), so the output is a MULTISET;
        chain ``StreamDedup`` on (id_lo, id_hi) for exactly-once distinct
        pairs.  Buckets cap at ``cap`` members (hot boilerplate buckets):
        an overflow doc is still compared against the members but cannot
        be FOUND by later arrivals in that bucket — the batch star-cap
        contract, drops counted.  Deterministic (sorted buckets/offers)
        and replay-idempotent via the epoch high-water mark."""
        if self._seen(f"nd:{name}", epoch):
            cached = self.neardup_last.get(name)
            if cached is not None and cached[0] == epoch:
                return cached[1]
            return _dumps(([], 0))
        store = self.neardup.setdefault(name, {})
        drops = 0
        pairs = set()
        for bucket, offers in pickle.loads(payload):
            members = store.setdefault(bucket, [])
            have = {d for d, _ in members}
            # one (members × perms) matrix per bucket per call: each offer
            # compares against ALL members in one vectorized pass (hot
            # boilerplate buckets would otherwise pay a per-member loop)
            mat = (np.frombuffer(b"".join(s for _, s in members),
                                 dtype=np.uint64).reshape(len(members), -1)
                   if members else None)
            mids = [d for d, _ in members]
            for doc_id, sig in sorted(offers):
                if doc_id in have:
                    continue
                a = np.frombuffer(sig, dtype=np.uint64)
                if mat is not None and len(mat):
                    est = (mat == a[None, :]).mean(axis=1)
                    for j in np.nonzero(est >= threshold)[0]:
                        mid = mids[int(j)]
                        lo, hi = ((doc_id, mid) if doc_id < mid
                                  else (mid, doc_id))
                        pairs.add((lo, hi, float(est[int(j)])))
                if len(members) < cap:
                    members.append((doc_id, sig))
                    have.add(doc_id)
                    mat = (a[None, :] if mat is None
                           else np.vstack([mat, a[None, :]]))
                    mids.append(doc_id)
                else:
                    drops += 1
        self.neardup_drops[name] = self.neardup_drops.get(name, 0) + drops
        blob = _dumps((sorted(pairs), drops))
        self.neardup_last[name] = (epoch, blob)
        return blob

    def apply_pagerank_edges(self, name: str, epoch: int, payload: bytes,
                             damping: float, tol: float, max_iters: int,
                             emit_tol: float) -> bytes:
        """Incremental PageRank — the second ``iterate`` op maintained
        ACROSS epochs, WITH retraction (the capability union-find CC cannot
        offer: union is monotone, rank recomputation is not).  State is the
        live directed edge multiset plus the current rank vector in ONE
        designated shard (candidate-bounded regime, the CC contract); each
        epoch applies ±diff edge deltas and WARM-STARTS the power iteration
        from the previous ranks — a small delta converges in a few sweeps
        instead of a from-scratch run.  Same update rule as the batch
        ``pagerank`` (uniform dangling redistribution, multi-edges weight
        by multiplicity).  Emits the consolidated changelog
        ``(−1, id, old_rank)`` / ``(+1, id, new_rank)`` for nodes whose
        rank moved > ``emit_tol`` plus node arrivals/departures; stored
        state keeps the EMITTED value for silent nodes so the changelog's
        running sum equals the stored rank table exactly (staleness is
        bounded by emit_tol vs the current fixpoint).  Deterministic and
        replay-idempotent; raises if max_iters doesn't converge."""
        if self._seen(f"pr:{name}", epoch):
            return _dumps([])
        g = self.graphs.setdefault(name, {"pr_edges": {}, "pr_ranks": {}})
        edges, ranks = g["pr_edges"], g["pr_ranks"]
        for u, v, d in sorted(pickle.loads(payload)):
            k = (int(u), int(v))
            c = edges.get(k, 0) + int(d)
            if c == 0:
                edges.pop(k, None)
            else:
                edges[k] = c
        old = dict(ranks)
        live = [(u, v, c) for (u, v), c in edges.items() if c > 0]
        if not live:
            ranks.clear()
            return _dumps([(-1, i, r) for i, r in sorted(old.items())])
        src = np.array([u for u, _, _ in live], dtype=np.int64)
        dst = np.array([v for _, v, _ in live], dtype=np.int64)
        w = np.array([c for _, _, c in live], dtype=np.float64)
        ids = np.unique(np.concatenate([src, dst]))
        n = len(ids)
        si = np.searchsorted(ids, src)
        di = np.searchsorted(ids, dst)
        outw = np.zeros(n)
        np.add.at(outw, si, w)
        r = np.array([old.get(int(i), 1.0 / n) for i in ids])
        r /= r.sum()
        safe_out = np.where(outw > 0, outw, 1.0)
        for _ in range(max_iters):
            dangling = float(r[outw == 0].sum())
            contrib = np.zeros(n)
            np.add.at(contrib, di, r[si] * w / safe_out[si])
            r_new = ((1.0 - damping) / n + damping * dangling / n
                     + damping * contrib)
            done = np.abs(r_new - r).max() < tol
            r = r_new
            if done:
                break
        else:
            raise RuntimeError(
                f"IncrementalPageRank({name}) did not converge within "
                f"{max_iters} iterations at tol={tol}")
        new = dict(zip((int(i) for i in ids), r.tolist()))
        deltas = []
        for i in sorted(set(old) | set(new)):
            o, nv = old.get(i), new.get(i)
            if o is None:
                deltas.append((1, i, nv))
                ranks[i] = nv
            elif nv is None:
                deltas.append((-1, i, o))
                ranks.pop(i, None)
            elif abs(nv - o) > emit_tol:
                deltas.append((-1, i, o))
                deltas.append((1, i, nv))
                ranks[i] = nv
            # else: silent — stored state keeps the emitted value, so the
            # changelog running sum stays exactly the rank table
        return _dumps(deltas)

    # ------------------------------------------------------- stream-stream join
    def join_insert_probe(self, name: str, epoch: int,
                          payload: dict) -> pa.Table | None:
        """Symmetric join step for this shard: payload = ``left``/``right``
        ``Rows`` (this shard's rows of the epoch, either may be absent),
        ``left_names``/``right_names`` (output columns per side) and
        ``max_dt``.  Returns the new pairs as one Arrow table (see
        ``JoinArrangement.insert_probe``), None when there are none or the
        epoch is a replay."""
        if self._seen(f"join:{name}", epoch):
            return None
        arr = self.spines.setdefault(name, JoinArrangement())
        return arr.insert_probe(payload.get("left"), payload.get("right"),
                                payload["left_names"], payload["right_names"],
                                payload.get("max_dt"))

    def sweep_join_unmatched(self, name: str, bound: float,
                             side: str = "left"):
        """Outer-join finalization: buffered rows of ``side`` with event
        time ≤ ``bound`` (watermark − max_dt: their join window is closed)
        that never matched, as (carried columns, event times); ALL of that
        side's rows at/below the bound drop (nothing on-time can pair with
        them anymore), so re-sweeps are naturally idempotent."""
        arr = self.spines.get(name)
        return None if arr is None else arr.sweep_unmatched(side, bound)

    def join_expire(self, name: str, expire_before: float) -> int:
        """Drop buffered rows with event time < expire_before (watermark −
        retention).  Bounds state for unbounded streams."""
        arr = self.spines.get(name)
        return 0 if arr is None else arr.expire(expire_before)

    # ------------------------------------------------------------ epoch step
    def step(self, epoch: int, snapshot: str | None, *requests) -> dict:
        """One epoch of this shard's arrangement work in one call.

        Each request, its own actor-call argument so that each travels
        inline, is ``(kernel, name, args, emit)`` for one of the
        ``STEP_KERNELS``: the epoch's keyed applies, early session
        emissions, graph ops and join insert-probes in op order, then the
        watermark's sweeps and join expiry.  A ``Gather`` argument is
        merged here, so a Dataset epoch's rows come straight from its
        route tasks.
        A kernel marked as taking the epoch gets it after ``name`` (its
        idempotency key).  A row-emitting request carries an ``Emit``: the
        shard finalizes its result into the op's output table and writes it
        as its own part of the sink (``write_epoch_part``), so only the
        manifest entry travels back.
        With ``snapshot`` (a checkpoint's epoch dir) the shard's ``dump``
        follows, written there by ``write_shard_file``.

        Returns ``{"out": [per request: the part's entry for an ``Emit``
        (None when it emitted no rows), else the kernel's result],
        "kernel_s": {kernel: seconds}, "live_keys": n, "part_bytes": n,
        "snapshot": bytes written | None}``: the compute time of each
        kernel and of the dump and its write, and ``live_keys()`` after the
        step."""
        out, secs, part_bytes = [], {}, 0
        for kernel, name, args, emit in requests:
            t = time.perf_counter()
            args = [a.resolve() if isinstance(a, Gather) else a
                    for a in args]
            fn = getattr(self, kernel)
            res = (fn(name, epoch, *args) if STEP_KERNELS[kernel]
                   else fn(name, *args))
            if emit is not None:
                res, n = self._write_emission(epoch, res, emit)
                part_bytes += n
            out.append(res)
            secs[kernel] = secs.get(kernel, 0.0) + time.perf_counter() - t
        written = None
        if snapshot is not None:
            t = time.perf_counter()
            written = write_shard_file(snapshot, self.shard_id, self.dump())
            secs["dump"] = time.perf_counter() - t
        return {"out": out, "kernel_s": secs, "live_keys": self.live_keys(),
                "part_bytes": part_bytes, "snapshot": written}

    def _write_emission(self, epoch: int, result, emit: "Emit"
                        ) -> tuple[dict | None, int]:
        """A row-emitting kernel's ``result`` → this shard's part of the
        op's sink, under a tag unique to the attempt (shard id first, so
        the parts list in shard order); the part's entry and size, or
        (None, 0) when there are no rows or ``emit`` drops them."""
        if emit.root is None or result is None:
            return None, 0
        tbl = emit.finalize([result], epoch)
        if not tbl.num_rows:
            return None, 0
        entry = write_epoch_part(
            emit.root, epoch, tbl,
            tag=f"s{self.shard_id:04d}-{uuid.uuid4().hex[:12]}",
            fsync=emit.fsync)
        return entry, os.path.getsize(Path(emit.root) / entry["path"])

    def live_keys(self) -> int:
        """Live rows of this shard's keyed state: aggregate keys, open
        window rows and buffered join rows."""
        return (sum(len(d) for d in self.aggs.values())
                + sum(a.live() for a in self.windows.values())
                + sum(sum(a.live().values()) for a in self.spines.values()))

    # ------------------------------------------------------------ checkpoint
    def dump(self) -> bytes:
        return _dumps(
            {
                "shard_id": self.shard_id,
                "aggs": self.aggs,
                "windows": self.windows,
                "spines": self.spines,
                "sessions": self.sessions,
                "session_points": self.session_points,
                "session_early": self.session_early,
                "patterns": self.patterns,
                "neardup": self.neardup,
                "neardup_drops": self.neardup_drops,
                "pane_bounds": self.pane_bounds,
                "graphs": self.graphs,
                "applied": self.applied,
            }
        )

    def load(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        self.aggs = st["aggs"]
        self.sessions = st["sessions"]
        self.session_points = st.get("session_points", {})
        self.session_early = st.get("session_early", {})
        self._session_touched = {}
        self.windows = st.get("windows", {})
        self.spines = st.get("spines", {})
        self.patterns = st.get("patterns", {})
        self.neardup = st.get("neardup", {})
        self.neardup_drops = st.get("neardup_drops", {})
        self.neardup_last = {}  # cache is per-lifetime; state just rewound
        self.pane_bounds = st.get("pane_bounds", {})
        self.graphs = st.get("graphs", {})
        applied = st["applied"]
        # tolerate snapshots from the earlier set-based format
        self.applied = {
            k: (max(v) if isinstance(v, set) and v else v if isinstance(v, int)
                else -1)
            for k, v in applied.items()
        }

    def stats(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "agg_keys": {**{n: len(d) for n, d in self.aggs.items()},
                         **{n: a.live() for n, a in self.windows.items()}},
            "session_keys": {n: len(d) for n, d in self.sessions.items()},
            "pattern_keys": {n: len(d) for n, d in self.patterns.items()},
            "join_keys": {n: a.live() for n, a in self.spines.items()},
        }


class Emit(NamedTuple):
    """Where a row-emitting ``StateShard.step`` request's rows go: the
    shard builds the op's output table with ``finalize([result], epoch)``
    and writes it into the sink at ``root`` (``fsync`` as the sink's
    ``part_fsync``).  ``root=None`` drops the rows: the sink already
    committed the epoch, and a replay never rewrites a committed part."""

    finalize: Callable | None
    root: str | None
    fsync: bool = True


class Gather(NamedTuple):
    """A ``StateShard.step`` argument the shard assembles: its share of
    an epoch's route outputs in input-then-block order, each inline (a
    ``pa.Table`` epoch, routed on the driver) or the object ref of a route
    task's output (a Dataset epoch), made one argument by ``merge``."""

    parts: list
    merge: Callable

    def resolve(self):
        refs = [p for p in self.parts if isinstance(p, ray.ObjectRef)]
        got = iter(ray.get(refs) if refs else ())  # no Ray for inline parts
        return self.merge([next(got) if isinstance(p, ray.ObjectRef) else p
                           for p in self.parts])


def merge_partials(parts: list) -> Partials:
    """One shard's window partials of an epoch: one block's as routed,
    several blocks' in (end, hash, value) order, which no block split or
    arrival order changes."""
    return parts[0] if len(parts) == 1 else Partials.concat(parts).canonical()


def merge_payloads(payloads: list) -> dict:
    """One shard's join probe payload of an epoch: each side's ``Rows``
    from every block, concatenated in input-then-block order."""
    out = dict(payloads[0])
    for side in ("left", "right"):
        if rows := [p[side] for p in payloads if side in p]:
            out[side] = Rows.concat(rows)
    return out


#: the kernels ``StateShard.step`` runs, and whether each takes the epoch
STEP_KERNELS = {
    "apply_window_partials": True,
    "join_insert_probe": True,
    "apply_delta": True,
    "apply_delta_changelog": True,
    "apply_upsert_retract": True,
    "apply_session_points": True,
    "apply_session_point_deltas": True,
    "apply_pattern_points": True,
    "emit_early_sessions": False,
    "apply_cc_edges": True,
    "apply_pagerank_edges": True,
    "sweep_windows": False,
    "sweep_join_unmatched": False,
    "join_expire": False,
    "sweep_closed_sessions": False,
    "sweep_closed_retractable_sessions": False,
    "sweep_pattern_matches": False,
    "sweep_kleene_matches": False,
    "sweep_absence": False,
    "sweep_stale_registers": False,
}


def check_cpu_headroom(total_cpus: float, num_shards: int,
                       num_cpus_per_shard: float) -> None:
    """Refuse a shard pool whose CPU reservation leaves Ray less than one
    whole CPU: every per-block task (Dataset epochs, Ray Data stages) needs
    one, and would otherwise wait forever behind the actors."""
    left = total_cpus - num_shards * num_cpus_per_shard
    if left < 1:
        raise ValueError(
            f"{num_shards} state shards at num_cpus_per_shard="
            f"{num_cpus_per_shard} reserve {num_shards * num_cpus_per_shard:g}"
            f" of Ray's {total_cpus:g} CPUs, leaving {left:g}: per-block "
            "tasks need one whole CPU and would never be scheduled.  Start "
            "Ray with more CPUs, or lower num_shards or num_cpus_per_shard.")


class ShardedStateStore:
    """Driver-side handle on the actor pool.  Both sessions reach the
    shards' state through ``step``, one concurrent call per touched shard
    (one round-trip per step, not per shard): a ``StreamSession`` epoch's
    keyed applies, early session emissions, graph ops, join probes and
    the watermark's sweeps and expiry; the encoder session's fit apply;
    and every snapshot.  The other methods are reads (``collect``,
    ``collect_windows``, ``stats``), the dedup claims and near-dup offers
    of ``pa.Table`` epochs, ``load_all`` and ``shutdown``."""

    def __init__(self, num_shards: int = 8, num_cpus_per_shard: float = 0.25,
                 checkpoints: CheckpointManager | None = None):
        """``checkpoints``: where ``step(snapshot=True)`` has the shards
        write their snapshot files."""
        if ray.is_initialized():  # else the first actor starts Ray locally
            check_cpu_headroom(ray.cluster_resources().get("CPU", 0.0),
                               num_shards, num_cpus_per_shard)
        self.num_shards = num_shards
        self.checkpoints = checkpoints
        actor_cls = ray.remote(num_cpus=num_cpus_per_shard)(StateShard)
        self.shards = [actor_cls.remote(i, num_shards) for i in range(num_shards)]

    # --------------------------------------------------------------- aggregates
    def collect(self, name: str) -> list[tuple[bytes, Any]]:
        blobs = ray.get([s.collect.remote(name) for s in self.shards])
        out: list[tuple[bytes, Any]] = []
        for b in blobs:
            out.extend(pickle.loads(b))
        out.sort(key=lambda kv: kv[0])
        return out

    def dedup_filter(self, name: str, epoch: int,
                     shard_items: dict[int, list]) -> set:
        """Driver-path dedup claim: {shard_id: [(key_bytes, stamp)]} → the
        set of winning key_bytes across shards (see StateShard.dedup_filter)."""
        refs = [self.shards[sid].dedup_filter.remote(name, epoch, _dumps(items))
                for sid, items in shard_items.items()]
        out: set = set()
        for blob in ray.get(refs):
            out.update(pickle.loads(blob))
        return out

    # ---------------------------------------------------- windowed aggregates
    def collect_windows(self, name: str) -> list[Partials]:
        return [p for p in ray.get([s.collect_windows.remote(name)
                                    for s in self.shards]) if p is not None]

    def apply_neardup(self, name: str, epoch: int,
                      per_bucket: dict[bytes, list], threshold: float,
                      cap: int) -> tuple[list, int]:
        """Scatter band-bucket offers to their shards (buckets are the
        partition unit — horizontal state like every keyed table), gather
        the emitted candidate pairs and the star-cap drop count."""
        by_shard = scatter(sorted(per_bucket.items()), self.num_shards)
        refs = [
            self.shards[sid].apply_neardup_offers.remote(
                name, epoch, _dumps(items), threshold, cap)
            for sid, items in by_shard.items()
        ]
        pairs: list = []
        drops = 0
        for b in ray.get(refs):
            p, d = pickle.loads(b)
            pairs.extend(p)
            drops += d
        pairs.sort()
        return pairs, drops

    # --------------------------------------------------------------- epoch step
    def step(self, epoch: int, msgs: dict[int, list],
             snapshot: bool = False) -> dict[int, dict]:
        """One epoch's arrangement work: ``msgs`` is shard id → that
        shard's ``StateShard.step`` requests.  Makes one concurrent actor
        call per shard in ``msgs``, or per shard of the pool with
        ``snapshot``, whose shards then write their files into the
        checkpoint dir of ``epoch`` (reopened first); returns shard id →
        reply."""
        sids = range(self.num_shards) if snapshot else sorted(msgs)
        sdir = None
        if snapshot:
            self.checkpoints.reopen(epoch)
            sdir = str(self.checkpoints.epoch_dir(epoch))
        refs = [self.shards[sid].step.remote(epoch, sdir, *msgs.get(sid, ()))
                for sid in sids]
        return dict(zip(sids, ray.get(refs)))

    # --------------------------------------------------------------- checkpoint
    def load_all(self, blobs: dict[int, bytes]) -> None:
        ray.get([self.shards[sid].load.remote(blob) for sid, blob in blobs.items()])

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s, no_restart=True)
        self.shards = []


# --------------------------------------------------------------- rescale
def _applied_mark(v) -> int:
    """Normalize an applied-epoch entry (older set format tolerated)."""
    if isinstance(v, int):
        return v
    if isinstance(v, set) and v:
        return max(v)
    return -1


def legacy_state(blobs: dict[int, bytes], windowed: set, joins: set) -> list:
    """Names of the ops whose state in ``blobs`` this engine cannot load:
    windowed aggregates (``windowed``) and stream joins (``joins``) whose
    state predates the columnar arrangements (pickled per-key accumulators
    under ``aggs``, or pandas join buffers under ``joins``), and any op
    with buffered rows under ``asof``, the state of the removed as-of
    join, which ``load`` would drop."""
    stale = set()
    for blob in blobs.values():
        st = pickle.loads(blob)
        stale |= {n for n, d in (st.get("aggs") or {}).items()
                  if d and n in windowed}
        stale |= {n for n, b in (st.get("joins") or {}).items()
                  if n in joins and any(b.get(x) is not None
                                        for x in ("left", "right"))}
        stale |= {n for n, b in (st.get("asof") or {}).items()
                  if any(b.get(x) is not None and len(b[x])
                         for x in ("left", "right"))}
    return sorted(stale)


def rescale_blobs(blobs: dict[int, bytes], new_num_shards: int) -> dict[int, bytes]:
    """Re-partition checkpointed shard state to a DIFFERENT shard count.

    The savepoint-rescale operation (Flink's ``savepoint --rescale``, the
    "run at N and 4N nodes" contract of the north rule applied to STATE):
    a checkpoint taken with N shards loads into a session built with M
    shards by re-bucketing every keyed family with the same routing rule a
    fresh M-shard run would use — so post-resume traffic finds each key's
    accumulator exactly where the scatter will send its next delta:

    - ``aggs`` / ``sessions`` / ``session_points`` / ``session_early`` /
      ``patterns``: key_bytes → ``shard_of(key, M)`` (the ``scatter`` rule)
    - ``neardup``: band-bucket bytes → ``shard_of(bucket, M)``; bucket
      member lists move whole (arrival-order semantics preserved)
    - ``windows`` (window slabs) and ``spines`` (join runs): rows re-split
      by their stored key hash ``h % M`` (the ``arrangement`` routing rule)
    - ``graphs`` (incremental CC / PageRank): whole graph to its
      designated shard ``shard_of(name, M)``
    - ``applied`` high-water marks: per-table max across sources,
      replicated to every target shard (replays below the resume floor
      are no-ops against the sink's committed manifests anyway)
    - ``pane_bounds``: per-name max, replicated (sweeps broadcast the
      same bound to all shards in a fresh run)

    Pure function over blob bytes — no actors touched; the caller loads
    the result with ``ShardedStateStore.load_all``.
    """
    m = new_num_shards
    states = [pickle.loads(b) for _, b in sorted(blobs.items())]
    out: list[dict] = [
        {
            "shard_id": i,
            "aggs": {}, "windows": {}, "spines": {}, "sessions": {},
            "session_points": {}, "session_early": {},
            "patterns": {}, "neardup": {},
            "neardup_drops": {}, "pane_bounds": {}, "graphs": {},
            "applied": {},
        }
        for i in range(m)
    ]
    for st in states:
        for name, b in (st.get("joins") or {}).items():
            if any(b.get(x) is not None for x in ("left", "right")):
                raise ValueError(
                    f"cannot rescale join '{name}': its checkpointed buffer "
                    "predates the columnar join arrangement")

    for fam in ("aggs", "sessions", "session_points", "session_early",
                "patterns", "neardup"):
        for st in states:
            for name, d in (st.get(fam) or {}).items():
                for k, v in d.items():
                    out[shard_of(k, m)][fam].setdefault(name, {})[k] = v

    # arrangements: split each source by its stored hash, merge per target
    for fam, arr_cls in (("windows", WindowArrangement),
                         ("spines", JoinArrangement)):
        pieces: dict[str, list] = {}
        for st in states:
            for name, arr in (st.get(fam) or {}).items():
                pieces.setdefault(name, []).append(arr.split(m))
        for name, splits in pieces.items():
            for i in range(m):
                out[i][fam][name] = arr_cls.merge([sp[i] for sp in splits])

    # graphs: one logical graph per name on its designated shard
    for st in states:
        for name, g in (st.get("graphs") or {}).items():
            if g:
                out[shard_of(name.encode(), m)]["graphs"][name] = g

    # scalar families: max / sum, replicated or designated
    applied: dict[str, int] = {}
    panes: dict[str, float] = {}
    drops: dict[str, int] = {}
    for st in states:
        for t, v in (st.get("applied") or {}).items():
            applied[t] = max(applied.get(t, -1), _applied_mark(v))
        for t, v in (st.get("pane_bounds") or {}).items():
            panes[t] = max(panes.get(t, -float("inf")), v)
        for t, v in (st.get("neardup_drops") or {}).items():
            drops[t] = drops.get(t, 0) + int(v)
    for o in out:
        o["applied"] = dict(applied)
        o["pane_bounds"] = dict(panes)
    for t, v in drops.items():
        out[shard_of(t.encode(), m)]["neardup_drops"][t] = v

    return {i: _dumps(o) for i, o in enumerate(out)}
