"""Columnar arrangements: the shard state of windowed aggregates and the
stream join.

Differential Dataflow keeps an operator's state as an *arrangement*: batches
of updates indexed by key, merged as they age (CIDR 2013).  General Stream
Slicing keeps one partial per window slice so that closing a window touches
only that slice (EDBT 2019).  This module ports both ideas to the two keyed
ops that dominate high-cardinality streams:

- **one key hash.**  ``key_hash`` gives the values
  ``pandas.util.hash_pandas_object(frame, index=False)`` gives for the frame
  of the key columns, computed per column (``pd.util.hash_array``) and
  folded with pandas' tuple-hash rule, once per batch and without building
  a frame.  Window slabs checkpoint these hashes and a rescale re-splits by
  them, so the values never change.  ``h % num_shards`` is the shard, so
  every window (and pane) of a key lives on one shard and both sides of a
  join co-locate.
- **windowed aggregates.**  A shard holds ``WindowArrangement`` = ``{window
  end: Slab}``.  A slab is a set of key columns plus a hash→slot index; a
  hash hit is confirmed on the real key values, so a 64-bit collision gets a
  slot of its own.  Accumulators are numpy columns ``s``/``c`` (sum/count),
  or one object column of monoids (min/max, ``make_acc``).  An apply costs
  O(touched keys); a sweep pops only the slabs whose end has closed.
- **join buffers.**  Each side of a ``JoinArrangement`` is a spine of runs
  sorted by key hash that merge at geometric sizes.  Probes are
  ``searchsorted`` ranges with a key-value check and vectorized ``max_dt``
  filter; matched flags, expiry and the outer-join sweep are numpy masks.

Everything here is plain numpy/pyarrow: payloads travel to and from the
shard actors as columns, and checkpoints pickle the columns whole (slab
indexes are rebuilt on load).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pyarrow as pa

__all__ = ["key_hash", "arrow_key_hash", "keys_equal", "to_arrow",
           "Partials", "Slab", "WindowArrangement", "Rows", "JoinArrangement"]


def key_hash(cols) -> np.ndarray:
    """uint64 hash per row of key columns ``cols`` (numpy or pandas arrays,
    in key order): the routing hash of every arrangement.  Bit-identical to
    ``hash_pandas_object(frame, index=False)`` of a frame holding ``cols``:
    each column is ``pd.util.hash_array``-ed (an object column first reads
    as a frame column would, so pandas' datetime inference applies) and the
    columns fold like a tuple hash (pandas' ``combine_hash_arrays``)."""
    import pandas as pd

    hashes = [pd.util.hash_array(pd.Series(c, copy=False).values
                                 if c.dtype == object else c) for c in cols]
    if not hashes:
        return np.array([], dtype=np.uint64)
    out = np.full(len(hashes[0]), 0x345678, dtype=np.uint64)
    mult = np.uint64(1000003)
    for i, h in enumerate(hashes):
        out ^= h
        out *= mult
        mult += np.uint64(82520 + 2 * (len(hashes) - i))
    return out + np.uint64(97531)


def arrow_key_hash(tbl: pa.Table, names: list) -> np.ndarray:
    """``key_hash`` of a table's key columns as ``to_pandas`` converts
    them."""
    return key_hash([tbl.column(n).to_pandas().values for n in names])


def _shard_rows(h: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Row indices per shard ``h % n`` (row order kept within a shard)."""
    if n == 1:
        return {0: np.arange(len(h))} if len(h) else {}
    sid = (h % np.uint64(n)).astype(np.int64)
    order = np.argsort(sid, kind="stable")
    sids, starts = np.unique(sid[order], return_index=True)
    return {int(s): idx for s, idx in zip(sids, np.split(order, starts[1:]))}


def keys_equal(a: list, b: list) -> np.ndarray:
    """Row-wise equality of two key column lists; NaN/None equal themselves
    (the pandas merge/groupby rule)."""
    eq = np.ones(len(a[0]) if a else 0, dtype=bool)
    for x, y in zip(a, b):
        same = np.asarray(x == y, dtype=bool)
        if x.dtype.kind == "O" or y.dtype.kind == "O":
            import pandas as pd  # only object columns need its null rule

            same |= np.asarray(pd.isna(x), dtype=bool) & np.asarray(
                pd.isna(y), dtype=bool)
        elif x.dtype.kind == "f" or y.dtype.kind == "f":
            same |= np.isnan(x) & np.isnan(y)
        eq &= same
    return eq


def to_arrow(values: np.ndarray, typ: pa.DataType | None) -> pa.Array:
    """Key values (pandas-converted numpy) back to their input Arrow type."""
    if typ is not None:
        if not len(values):
            return pa.array([], type=typ)
        try:
            return pa.array(values, type=typ, from_pandas=True)
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
            pass
    return pa.array(values, from_pandas=True)


def _is_identity(acc) -> bool:
    return acc is None or (hasattr(acc, "is_identity") and acc.is_identity())


def _copy(acc):
    return acc.copy() if hasattr(acc, "copy") else pickle.loads(
        pickle.dumps(acc))


def _identity(s, c, acc) -> np.ndarray:
    """Rows whose accumulator is the monoid identity (read: absent)."""
    if acc is not None:
        return np.fromiter((_is_identity(a) for a in acc), bool,
                           count=len(acc))
    return (c == 0) & (s == 0.0)


# --------------------------------------------------------------- aggregates
_PARTIAL_COLS = ("h", "start", "end", "s", "c", "acc")


class Partials:
    """Columnar window partials, one row per (window, key): key columns
    (numpy, with their Arrow types), key hash, window bounds, and either
    ``s``/``c`` (sum, count) or ``acc`` (monoid objects)."""

    __slots__ = ("keys", "types", "h", "start", "end", "s", "c", "acc")

    def __init__(self, keys, types, h, start, end, s=None, c=None, acc=None):
        self.keys, self.types, self.h = list(keys), list(types), h
        self.start, self.end = start, end
        self.s, self.c, self.acc = s, c, acc

    # the monoid column travels as one in-band pickle: the shard merges
    # into these objects, and out-of-band (zero-copy) arrays are read-only
    def __getstate__(self):
        return (self.keys, self.types, self.h, self.start, self.end, self.s,
                self.c, None if self.acc is None else pickle.dumps(self.acc))

    def __setstate__(self, state):
        *cols, acc = state
        self.__init__(*cols, None if acc is None else pickle.loads(acc))

    def __len__(self) -> int:
        return len(self.h)

    def take(self, idx) -> "Partials":
        cols = {a: (None if getattr(self, a) is None else getattr(self, a)[idx])
                for a in _PARTIAL_COLS}
        return Partials([k[idx] for k in self.keys], self.types, **cols)

    @staticmethod
    def concat(parts: list) -> "Partials":
        if len(parts) == 1:
            return parts[0]
        p0 = parts[0]
        cols = {a: (None if getattr(p0, a) is None
                    else np.concatenate([getattr(p, a) for p in parts]))
                for a in _PARTIAL_COLS}
        keys = [np.concatenate([p.keys[i] for p in parts])
                for i in range(len(p0.keys))]
        return Partials(keys, p0.types, **cols)

    def split(self, num_shards: int) -> dict[int, "Partials"]:
        rows = _shard_rows(self.h, num_shards)
        if len(rows) == 1:
            return {s: self for s in rows}
        return {s: self.take(idx) for s, idx in rows.items()}

    def identity(self) -> np.ndarray:
        return _identity(self.s, self.c, self.acc)

    def canonical(self) -> "Partials":
        """Rows in (end, hash, value) order: a merge of block partials
        that does not depend on the blocks' arrival order."""
        cols = [self.h, self.end]
        if self.acc is None:
            cols = [self.c, self.s] + cols
        return self.take(np.lexsort(cols))

    def by_end(self):
        """(end, start, rows) per distinct window end, ascending."""
        ends, first, inv = np.unique(self.end, return_index=True,
                                     return_inverse=True)
        if len(ends) == 1:
            yield float(ends[0]), float(self.start[0]), self
            return
        order = np.argsort(inv, kind="stable")
        bounds = np.cumsum(np.bincount(inv))[:-1]
        for e, f, idx in zip(ends, first, np.split(order, bounds)):
            yield float(e), float(self.start[f]), self.take(idx)


class Slab:
    """One window's (or pane's) state on one shard: key columns, their
    hashes, an index hash→slot and the accumulator columns.  Slots never
    move; a slot whose accumulator is the monoid identity counts as absent
    (not emitted, not live)."""

    def __init__(self, start: float, keys: list, obj: bool):
        self.start = start
        self.h = np.empty(0, dtype=np.uint64)
        self.keys = [k[:0] for k in keys]
        self.obj = obj
        self.s = None if obj else np.empty(0, dtype=np.float64)
        self.c = None if obj else np.empty(0, dtype=np.int64)
        self.acc = np.empty(0, dtype=object) if obj else None
        self._reindex()

    # checkpoints carry the columns; the index is rebuilt on load
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if k not in ("index", "extra")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._reindex()

    def __len__(self) -> int:
        return len(self.h)

    def _reindex(self) -> None:
        """hash → first slot; later slots with an equal hash are
        collisions (distinct keys by construction) kept in ``extra``."""
        self.index: dict[int, int] = {}
        self.extra: dict[int, list] = {}
        for slot, v in enumerate(self.h.tolist()):
            if self.index.setdefault(v, slot) != slot:
                self.extra.setdefault(v, []).append(slot)

    def _append(self, h, keys, n: int) -> None:
        self.h = np.concatenate([self.h, h])
        self.keys = [np.concatenate([a, b]) for a, b in zip(self.keys, keys)]
        if self.obj:
            self.acc = np.concatenate([self.acc, np.full(n, None, object)])
        else:
            self.s = np.concatenate([self.s, np.zeros(n)])
            self.c = np.concatenate([self.c, np.zeros(n, dtype=np.int64)])

    def locate(self, h: np.ndarray, keys: list) -> np.ndarray:
        """Slot per row, creating slots for unseen keys (O(rows))."""
        index, n0 = self.index, len(self.h)
        slots = np.empty(len(h), dtype=np.int64)
        new = []
        for i, v in enumerate(h.tolist()):
            s = index.get(v)
            if s is None:
                s = index[v] = n0 + len(new)
                new.append(i)
            slots[i] = s
        if new:
            self._append(h[new], [k[new] for k in keys], len(new))
        ok = keys_equal([k[slots] for k in self.keys], keys)
        for i in np.flatnonzero(~ok):  # 64-bit hash collision: rare path
            slots[i] = self._collided(int(h[i]), [k[i:i + 1] for k in keys])
        return slots

    def _collided(self, v: int, key: list) -> int:
        for s in self.extra.get(v, ()):
            if keys_equal([k[s:s + 1] for k in self.keys], key)[0]:
                return s
        s = len(self.h)
        self._append(np.array([v], dtype=np.uint64), key, 1)
        self.extra.setdefault(v, []).append(s)
        return s

    def add(self, slots: np.ndarray, rows: Partials, copy: bool = False) -> None:
        """Merge ``rows``' accumulators into ``slots``, in row order."""
        if not self.obj:
            np.add.at(self.s, slots, rows.s)
            np.add.at(self.c, slots, rows.c)
            return
        acc = self.acc
        for s, a in zip(slots.tolist(), rows.acc):
            cur = acc[s]
            if cur is None:
                if not _is_identity(a):
                    acc[s] = _copy(a) if copy else a
            else:
                cur.merge(a)

    def identity(self) -> np.ndarray:
        return _identity(self.s, self.c, self.acc)

    def rows(self, slots, types, start: float, end: float) -> Partials:
        n = len(slots)
        return Partials(
            [k[slots] for k in self.keys], types, self.h[slots],
            np.full(n, start), np.full(n, end),
            None if self.obj else self.s[slots],
            None if self.obj else self.c[slots],
            self.acc[slots] if self.obj else None)

    def live_rows(self, types, start: float, end: float) -> Partials:
        return self.rows(np.flatnonzero(~self.identity()), types, start, end)

    def take(self, idx) -> "Slab":
        out = Slab(self.start, self.keys, self.obj)
        out.h = self.h[idx]
        out.keys = [k[idx] for k in self.keys]
        if self.obj:
            out.acc = self.acc[idx]
        else:
            out.s, out.c = self.s[idx], self.c[idx]
        out._reindex()
        return out

    @staticmethod
    def concat(slabs: list) -> "Slab":
        """Slabs holding disjoint keys (pieces of a rescale) → one slab."""
        out = Slab(slabs[0].start, slabs[0].keys, slabs[0].obj)
        out.h = np.concatenate([s.h for s in slabs])
        out.keys = [np.concatenate([s.keys[i] for s in slabs])
                    for i in range(len(out.keys))]
        if out.obj:
            out.acc = np.concatenate([s.acc for s in slabs])
        else:
            out.s = np.concatenate([s.s for s in slabs])
            out.c = np.concatenate([s.c for s in slabs])
        out._reindex()
        return out


class WindowArrangement:
    """A windowed aggregate's state on one shard: ``{window end: Slab}``
    (pane ends in pane mode).  ``types`` are the key columns' Arrow types,
    kept so that even an empty sweep emits typed columns."""

    def __init__(self, types: list, obj: bool):
        self.types = list(types)
        self.obj = obj
        self.slabs: dict[float, Slab] = {}

    def apply(self, rows: Partials, changelog: bool = False):
        """Merge one epoch's partials.  With ``changelog`` returns
        ``(before, after)``: the touched (window, key) rows before and
        after the merge, aligned; an identity accumulator means absent."""
        befores, afters = [], []
        for end, start, part in rows.by_end():
            slab = self.slabs.get(end)
            if slab is None:
                slab = self.slabs[end] = Slab(start, part.keys, self.obj)
            # slots created here start as the identity, i.e. absent
            slots = slab.locate(part.h, part.keys)
            if changelog:
                touched = np.unique(slots)
                before = slab.rows(touched, self.types, slab.start, end)
                if self.obj:  # the merge below mutates them in place
                    before.acc = np.array(
                        [None if _is_identity(a) else _copy(a)
                         for a in before.acc], dtype=object)
            slab.add(slots, part)
            if changelog:
                befores.append(before)
                afters.append(slab.rows(touched, self.types, slab.start, end))
        if changelog:
            return ((Partials.concat(befores), Partials.concat(afters))
                    if befores else None)
        return len(rows)

    def _empty(self) -> Partials:
        return Slab(0.0, [np.empty(0) for _ in self.types], self.obj).rows(
            np.empty(0, dtype=np.int64), self.types, 0.0, 0.0)

    def sweep(self, bound: float) -> Partials:
        """Pop every slab with end ≤ ``bound``; its live slots, by end."""
        out = []
        for e in sorted(e for e in self.slabs if e <= bound):
            slab = self.slabs.pop(e)
            out.append(slab.live_rows(self.types, slab.start, e))
        return Partials.concat(out) if out else self._empty()

    def sweep_panes(self, last: float, bound: float, size: float,
                    slide: float) -> Partials:
        """Pane mode: emit each window [w, w + size) whose end lands in
        (last, bound] by merging its size/slide panes (in pane order), then
        drop the panes whose last window has been emitted."""
        r = int(round(size / slide))
        due = sorted(e for e in self.slabs if e <= bound)
        ends = {self.slabs[e].start - j * slide + size
                for e in due for j in range(r)}
        ends = sorted(we for we in ends if last < we <= bound)
        out = []
        for we in ends:
            ws = we - size
            window = Slab(ws, self.slabs[due[0]].keys, self.obj)
            for e in due:
                pane = self.slabs[e]
                if ws <= pane.start < we:
                    rows = pane.live_rows(self.types, pane.start, e)
                    window.add(window.locate(rows.h, rows.keys), rows,
                               copy=True)
            out.append(window.live_rows(self.types, ws, we))
        for e in due:
            if self.slabs[e].start + size <= bound:
                del self.slabs[e]
        return Partials.concat(out) if out else self._empty()

    def collect(self) -> Partials:
        """Every open window's (pane's) live rows, by end (a snapshot)."""
        out = [self.slabs[e].live_rows(self.types, self.slabs[e].start, e)
               for e in sorted(self.slabs)]
        return Partials.concat(out) if out else self._empty()

    def live(self) -> int:
        return int(sum((~s.identity()).sum() for s in self.slabs.values()))

    def split(self, num_shards: int) -> list["WindowArrangement"]:
        """Re-partition by the stored key hash (rescale)."""
        out = [WindowArrangement(self.types, self.obj)
               for _ in range(num_shards)]
        for e, slab in self.slabs.items():
            for s, idx in _shard_rows(slab.h, num_shards).items():
                out[s].slabs[e] = slab.take(idx)
        return out

    @staticmethod
    def merge(pieces: list) -> "WindowArrangement":
        """Arrangements holding disjoint keys → one arrangement."""
        out = WindowArrangement(pieces[0].types, pieces[0].obj)
        for e in sorted({e for p in pieces for e in p.slabs}):
            out.slabs[e] = Slab.concat([p.slabs[e] for p in pieces
                                        if e in p.slabs])
        return out


# --------------------------------------------------------------------- join
class Rows:
    """A batch of one join side's rows: the carried columns (Arrow) plus
    numpy key hash, event time (float s), diff and matched flag.  The key
    columns' numpy values (for the collision check) derive from the Arrow
    columns on first use and are not checkpointed."""

    __slots__ = ("tbl", "key_names", "h", "ts", "diff", "matched", "ts_min",
                 "_keys")

    def __init__(self, tbl, key_names, h, ts, diff, matched=None, keys=None):
        self.tbl, self.key_names, self.h = tbl, list(key_names), h
        self.ts, self.diff = ts, diff
        self.matched = (np.zeros(len(h), dtype=bool) if matched is None
                        else matched)
        self.ts_min = float(ts.min()) if len(ts) else math.inf
        self._keys = keys

    # the pickled form (a step request's join rows) leaves out an all-ones
    # diff and an all-false matched flag, which the receiver rebuilds
    def __getstate__(self):
        return (self.tbl, self.key_names, self.h, self.ts,
                None if (self.diff == 1).all() else self.diff,
                self.matched if self.matched.any() else None)

    def __setstate__(self, state):
        tbl, key_names, h, ts, diff, matched = state
        self.__init__(tbl, key_names, h, ts,
                      np.ones(len(h), dtype=np.int64) if diff is None
                      else diff, matched)

    def __len__(self) -> int:
        return len(self.h)

    @property
    def keys(self) -> list:
        if self._keys is None:
            self._keys = [self.tbl.column(n).to_numpy()
                          for n in self.key_names]
        return self._keys

    def take(self, idx) -> "Rows":
        idx = np.asarray(idx, dtype=np.int64)
        return Rows(self.tbl.take(idx), self.key_names, self.h[idx],
                    self.ts[idx], self.diff[idx], self.matched[idx],
                    None if self._keys is None
                    else [k[idx] for k in self._keys])

    def filter(self, mask: np.ndarray) -> "Rows":
        return self.take(np.flatnonzero(mask))

    @staticmethod
    def concat(parts: list) -> "Rows":
        parts = [p for p in parts if p is not None and len(p)]
        if len(parts) == 1:
            return parts[0]
        tbl = pa.concat_tables([p.tbl for p in parts]).combine_chunks()
        cat = lambda a: np.concatenate([getattr(p, a) for p in parts])  # noqa: E731
        return Rows(tbl, parts[0].key_names, cat("h"), cat("ts"), cat("diff"),
                    cat("matched"))

    def sorted(self) -> "Rows":
        """Hash-ordered copy (a received batch's columns may be read-only
        views of the object store)."""
        return self.take(np.argsort(self.h, kind="stable"))

    def split(self, num_shards: int) -> dict[int, "Rows"]:
        rows = _shard_rows(self.h, num_shards)
        if len(rows) == 1:
            return {s: self for s in rows}
        return {s: self.take(idx) for s, idx in rows.items()}


def _pairs(run: Rows, q: Rows, max_dt) -> tuple[np.ndarray, np.ndarray]:
    """(run row, q row) index pairs with equal keys (and |Δts| ≤ max_dt);
    ``run`` is sorted by hash."""
    lo = np.searchsorted(run.h, q.h, "left")
    cnt = np.searchsorted(run.h, q.h, "right") - lo
    tot = int(cnt.sum())
    if not tot:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    qi = np.repeat(np.arange(len(q)), cnt)
    ri = np.arange(tot) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    ok = keys_equal([k[ri] for k in run.keys], [k[qi] for k in q.keys])
    if max_dt is not None:
        ok &= np.abs(run.ts[ri] - q.ts[qi]) <= max_dt
    return ri[ok], qi[ok]


class Spine:
    """One join side's buffer: runs sorted by key hash, newest last; a run
    merges into its predecessor while that is at most twice its size, so a
    buffer of N rows is O(log N) runs."""

    def __init__(self):
        self.runs: list[Rows] = []

    def __len__(self) -> int:
        return sum(len(r) for r in self.runs)

    def insert(self, rows: Rows) -> None:
        runs = self.runs
        runs.append(rows)
        while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
            last = runs.pop()
            runs[-1] = Rows.concat([runs[-1], last]).sorted()

    def keep(self, drop) -> int:
        """Apply ``drop(run) -> mask | None`` to every run; returns rows
        dropped."""
        dropped, kept = 0, []
        for run in self.runs:
            mask = drop(run)
            if mask is not None and mask.any():
                dropped += int(mask.sum())
                run = run.filter(~mask)
            if len(run):
                kept.append(run)
        self.runs = kept
        return dropped


class JoinArrangement:
    """The symmetric join's state on one shard: one ``Spine`` per side."""

    def __init__(self):
        self.sides = {"left": Spine(), "right": Spine()}

    # checkpoints: the key hash is recomputed from the key columns on load,
    # and an all-ones diff column is implied
    def __getstate__(self):
        return {side: [(r.tbl, r.key_names, r.ts,
                        None if (r.diff == 1).all() else r.diff, r.matched)
                       for r in sp.runs]
                for side, sp in self.sides.items()}

    def __setstate__(self, state):
        self.__init__()
        for side, runs in state.items():
            self.sides[side].runs = [
                Rows(tbl, names, arrow_key_hash(tbl, names), ts,
                     np.ones(len(ts), dtype=np.int64) if diff is None
                     else diff, matched)
                for tbl, names, ts, diff, matched in runs]

    def insert_probe(self, left: Rows | None, right: Rows | None,
                     left_names: list, right_names: list,
                     max_dt) -> pa.Table | None:
        """Emit every new pair exactly once — new left × (old right ∪ new
        right) and old left × new right — then buffer the new rows.  Output
        columns: ``left_names`` from the left row, ``right_names`` from the
        right row, ``diff`` = product of the sides' diffs."""
        left = left.sorted() if left is not None and len(left) else None
        right = right.sorted() if right is not None and len(right) else None
        outs = []

        def emit(lrows, li, rrows, ri):
            if not len(li):
                return
            lrows.matched[li] = True
            rrows.matched[ri] = True
            cols = {n: lrows.tbl.column(n).take(li) for n in left_names}
            cols.update({n: rrows.tbl.column(n).take(ri) for n in right_names})
            cols["diff"] = pa.array(lrows.diff[li] * rrows.diff[ri])
            outs.append(pa.table(cols))

        if right is not None:
            for run in self.sides["left"].runs:
                li, ri = _pairs(run, right, max_dt)
                emit(run, li, right, ri)
        if left is not None:
            for run in self.sides["right"].runs:
                ri, li = _pairs(run, left, max_dt)
                emit(left, li, run, ri)
            if right is not None:
                ri, li = _pairs(right, left, max_dt)
                emit(left, li, right, ri)
        for side, rows in (("left", left), ("right", right)):
            if rows is not None:
                self.sides[side].insert(rows)
        return pa.concat_tables(outs) if outs else None

    def sweep_unmatched(self, side: str, bound: float):
        """Rows of ``side`` with event time ≤ ``bound`` that never matched
        → (carried columns, event times); every row ≤ ``bound`` drops."""
        out = []

        def closed(run):
            if run.ts_min > bound:
                return None
            mask = run.ts <= bound
            hit = mask & ~run.matched
            if hit.any():
                out.append(run.filter(hit))
            return mask

        self.sides[side].keep(closed)
        if not out:
            return None
        rows = Rows.concat(out)
        return rows.tbl, rows.ts

    def expire(self, before: float) -> int:
        """Drop buffered rows with event time < ``before``."""
        return sum(spine.keep(lambda run: None if run.ts_min >= before
                              else run.ts < before)
                   for spine in self.sides.values())

    def live(self) -> dict:
        return {s: len(sp) for s, sp in self.sides.items()}

    def split(self, num_shards: int) -> list["JoinArrangement"]:
        out = [JoinArrangement() for _ in range(num_shards)]
        for side, spine in self.sides.items():
            for run in spine.runs:
                for s, part in run.split(num_shards).items():
                    out[s].sides[side].runs.append(part)
        return out

    @staticmethod
    def merge(pieces: list) -> "JoinArrangement":
        out = JoinArrangement()
        for side in out.sides:
            runs = [r for p in pieces for r in p.sides[side].runs]
            if runs:
                out.sides[side].runs = [Rows.concat(runs).sorted()]
        return out
