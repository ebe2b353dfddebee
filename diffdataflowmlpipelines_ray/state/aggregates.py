"""Invertible, mergeable accumulators ("monoids") — the engine's core algebra.

The reference keeps fitted statistics in the *diff* position of differential
dataflow collections as custom Abelian monoids; incremental maintenance is
``plus_equals`` (merge) and ``negate`` (retraction).  We port that algebra to
plain Python objects that are:

- **mergeable** (``merge`` is associative & commutative up to float rounding),
- **invertible** (``negate`` makes every accumulator an Abelian group element,
  so deleting rows is merging a negated accumulator),
- **picklable** (they travel through the Ray object store as per-block
  partials and live inside sharded state-store actors),
- **batch-constructible** (``from_numpy`` builds one partial from a whole
  Arrow/numpy block vectorized — never a Python loop over rows in hot paths).

Reference parity (file:line into /root/reference):
- ``MeanVarAgg``      ⇄ ``VarianceAggregate``          src/feature_encoders/standard_scaler.rs:11-61
- ``MinMaxAgg``       ⇄ ``MinMaxAggregate``            src/feature_encoders/minmax_scaler.rs:16-127
- ``PositionAssignmentAgg`` ⇄ ``PositionAssignmentAggregate``
                                                      src/types/integer_assignment_aggregate.rs:6-138
- ``DocumentFrequencyAgg``  ⇄ ``DocumentFrequencyAggregate``
                                                      src/feature_encoders/feature_extraction/tfidf_transformer.rs:90-173
- ``SumCountAgg``     — generic keyed sum/count/min/max monoid for windowed
                        aggregates (no direct reference counterpart; the
                        reference's ``count()`` operator plays this role).
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Iterable

import numpy as np

__all__ = [
    "rust_round",
    "round_to_decimal",
    "MeanVarAgg",
    "MinMaxAgg",
    "PositionAssignmentAgg",
    "DocumentFrequencyAgg",
    "SumCountAgg",
    "CoMomentAgg",
    "LastValueAgg",
    "merge_all",
    "dumps",
    "loads",
    "CategoryMeanAgg",
]


def rust_round(x: float) -> float:
    """Round half away from zero — Rust's ``f64::round`` semantics.

    Python's builtin ``round`` is banker's rounding (round half to even);
    the reference's length-growth policy (`integer_assignment_aggregate.rs:86`)
    and metadata rounding (`standard_scaler.rs:116-120`) use Rust rounding.
    """
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def round_to_decimal(x: float, n: int) -> float:
    """``(x / 10^n).round() * 10^n`` — standard_scaler.rs:116-120.

    ``n`` may be negative (finer than integer) or positive (coarser).
    Used to damp update propagation: tiny changes in fitted metadata round
    away and do not retrigger downstream re-transforms.
    """
    factor = 10.0 ** n
    return rust_round(x / factor) * factor


def dumps(agg: Any) -> bytes:
    """Serialize an accumulator for the object store / state snapshots."""
    return pickle.dumps(agg, protocol=pickle.HIGHEST_PROTOCOL)


def loads(raw: bytes) -> Any:
    return pickle.loads(raw)


def merge_all(partials: Iterable[Any]):
    """Merge partials in a deterministic order.

    Ray block order is nondeterministic across runs/parallelism; float merges
    (Chan) are order-sensitive in the last ulps.  Sorting partials by their
    pickled bytes before the tree-merge fixes the combine order so the fitted
    state is bit-identical at any ``num_cpus`` (SURVEY §4 "Determinism").
    """
    items = sorted(partials, key=dumps)
    if not items:
        return None
    acc = items[0]
    for p in items[1:]:
        acc = acc.merged(p)
    return acc


class _Mergeable:
    """Small conveniences shared by all accumulators."""

    def merged(self, other):
        out = self.copy()
        out.merge(other)
        return out

    def negated(self):
        out = self.copy()
        out.negate()
        return out

    def is_identity(self) -> bool:
        """True only when the accumulator IS the group identity — safe to
        delete from a state store.  Distinct from ``is_zero`` (which can be
        true while negative pending-retraction entries remain, e.g. an
        out-of-order retraction buffered before its insert arrives)."""
        return self.is_zero()

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.__dict__})"


class MeanVarAgg(_Mergeable):
    """Running (mean, M2, count) with Chan's parallel merge.

    Mirrors ``VarianceAggregate`` (standard_scaler.rs:11-61):
    - ``merge`` = ``plus_equals`` (standard_scaler.rs:36-47): Chan's formula
      ``m2 += other.m2 + delta^2 * c1*c2 / c_new``.
    - ``negate`` flips ``m2`` and ``count`` but keeps ``mean``
      (standard_scaler.rs:56-61) — negation commutes with merge, so
      retraction == merging the negated per-row aggregates.
    - ``get`` returns ``(mean, M2/count)`` i.e. **population variance**
      (standard_scaler.rs:23-27).
    """

    def __init__(self, mean: float = 0.0, m2: float = 0.0, count: int = 0):
        self.mean = float(mean)
        self.m2 = float(m2)
        self.count = int(count)

    def copy(self) -> "MeanVarAgg":
        return MeanVarAgg(self.mean, self.m2, self.count)

    @classmethod
    def of(cls, value: float, mult: int = 1) -> "MeanVarAgg":
        # VarianceAggregate::new — standard_scaler.rs:19-21
        return cls(mean=float(value), m2=0.0, count=mult)

    @classmethod
    def from_numpy(cls, values: np.ndarray, weights: np.ndarray | None = None) -> "MeanVarAgg":
        """One partial per block, vectorized.

        With ±1 ``diff`` weights the positive and negative subsets are each
        reduced vectorized then combined (negation commutes with Chan merge,
        verified in tests against the per-row reference algebra).
        """
        values = np.asarray(values, dtype=np.float64)
        if weights is None:
            n = values.size
            if n == 0:
                return cls()
            mean = float(values.mean())
            m2 = float(np.square(values - mean).sum())
            return cls(mean, m2, n)
        weights = np.asarray(weights)
        pos = weights > 0
        neg = weights < 0
        acc = cls()
        if pos.any():
            acc.merge(cls._weighted(values[pos], weights[pos].astype(np.float64)))
        if neg.any():
            part = cls._weighted(values[neg], (-weights[neg]).astype(np.float64))
            part.negate()
            acc.merge(part)
        return acc

    @classmethod
    def _weighted(cls, values: np.ndarray, w: np.ndarray) -> "MeanVarAgg":
        c = float(w.sum())
        if c == 0:
            return cls()
        mean = float((values * w).sum() / c)
        m2 = float((w * np.square(values - mean)).sum())
        return cls(mean, m2, int(c))

    def merge(self, other: "MeanVarAgg") -> None:
        c1 = float(self.count)
        c2 = float(other.count)
        self.count += other.count
        c_new = float(self.count)
        if c_new == 0:
            # mirror of the zero element; reference logs negative counts
            self.mean = 0.0 if c2 == 0 else self.mean
            self.m2 = self.m2 + other.m2
            return
        delta = self.mean - other.mean
        self.mean = (self.mean * c1 + other.mean * c2) / c_new
        self.m2 = self.m2 + other.m2 + (delta * delta) * c1 * c2 / c_new

    def negate(self) -> None:
        self.m2 = -self.m2
        self.count = -self.count

    def is_zero(self) -> bool:
        return self.count == 0

    def is_identity(self) -> bool:
        return self.count == 0 and self.m2 == 0.0

    def get(self, round_to: tuple[int, int] | None = None) -> tuple[float, float]:
        """(mean, population variance); optional (n_mean, n_var) rounding."""
        mean = self.mean
        var = self.m2 / self.count
        if round_to is not None:
            mean = round_to_decimal(mean, round_to[0])
            var = round_to_decimal(var, round_to[1])
        return mean, var


class MinMaxAgg(_Mergeable):
    """value→count map whose extremes over positive-count values are (min, max).

    Mirrors ``MinMaxAggregate`` (minmax_scaler.rs:16-127).  The reference
    additionally keeps two priority queues so ``get`` is O(1); the *semantics*
    are "min/max of values whose net count is positive", which we compute from
    the count map (the map is the serialized form in the reference too,
    minmax_scaler.rs:100-127).  Retraction of the current extreme exposes the
    next one because its count drops to zero.
    """

    def __init__(self, counts: dict[float, int] | None = None):
        self.counts: dict[float, int] = counts or {}

    def copy(self) -> "MinMaxAgg":
        return MinMaxAgg(dict(self.counts))

    @classmethod
    def of(cls, value: float, mult: int = 1) -> "MinMaxAgg":
        return cls({float(value): mult})

    @classmethod
    def from_numpy(cls, values: np.ndarray, weights: np.ndarray | None = None) -> "MinMaxAgg":
        values = np.asarray(values, dtype=np.float64)
        if weights is None:
            uniq, cnt = np.unique(values, return_counts=True)
            return cls(dict(zip(uniq.tolist(), cnt.astype(int).tolist())))
        uniq, inv = np.unique(values, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, inv, np.asarray(weights, dtype=np.int64))
        return cls({v: int(c) for v, c in zip(uniq.tolist(), sums.tolist()) if c != 0})

    def merge(self, other: "MinMaxAgg") -> None:
        for v, c in other.counts.items():
            nc = self.counts.get(v, 0) + c
            if nc == 0:
                self.counts.pop(v, None)
            else:
                self.counts[v] = nc

    def negate(self) -> None:
        self.counts = {v: -c for v, c in self.counts.items()}

    def is_zero(self) -> bool:
        return not any(c > 0 for c in self.counts.values())

    def is_identity(self) -> bool:
        # counts dict truly empty — a pure-negative map (pending retraction
        # of a not-yet-seen insert) is NOT the identity
        return not self.counts

    def get(self) -> tuple[float, float]:
        """(min, range = max − min) — minmax_scaler.rs:35-47."""
        live = [v for v, c in self.counts.items() if c > 0]
        if not live:
            raise ValueError("empty aggregate")  # minmax_scaler.rs:38
        mn = min(live)
        mx = max(live)
        return mn, mx - mn


class PositionAssignmentAgg(_Mergeable):
    """Stable value→slot assignment with free-list reuse and length policy.

    Mirrors ``PositionAssignmentAggregate``
    (integer_assignment_aggregate.rs:6-138):

    - first time a value's net count becomes positive it takes a slot from the
      LIFO free list, else the next fresh index (``assign_index`` :43-50);
    - when a value's net count drops to ≤0 its slot goes on the free list
      (:68-70) but the value keeps its (stale) map entry until reuse;
    - the advertised vector length ``len`` grows ×1.5 (Rust rounding) while
      occupancy exceeds it (:84-87) and compresses (reassigning all slots
      densely) when occupancy < floor(len·0.66) (:88-93);
    - ``negate`` only flips a sign bit + row_count (:132-138); the sign is
      applied to the other side's counts during merge (:117).

    Divergence (documented): ``compress`` reassigns slots in **sorted key
    order** — the reference iterates Rust ``HashMap`` order, which is
    unspecified; sorted order makes output deterministic at any parallelism.
    Batch fit also inserts values in sorted order for the same reason.
    """

    def __init__(self):
        self.val_to_index: dict[Any, int] = {}
        self.val_to_count: dict[Any, int] = {}
        self.free_indices: list[int] = []
        self.next_index = 0
        self.len = 1
        self.neg = False
        self.row_count = 0

    def copy(self) -> "PositionAssignmentAgg":
        out = PositionAssignmentAgg()
        out.val_to_index = dict(self.val_to_index)
        out.val_to_count = dict(self.val_to_count)
        out.free_indices = list(self.free_indices)
        out.next_index = self.next_index
        out.len = self.len
        out.neg = self.neg
        out.row_count = self.row_count
        return out

    @classmethod
    def of_value(cls, value, mult: int = 1) -> "PositionAssignmentAgg":
        # new_with_val — integer_assignment_aggregate.rs:35-40
        agg = cls()
        agg.row_count = mult
        agg._add(value, mult)
        return agg

    @classmethod
    def of_tokens(cls, tokens: Iterable, mult: int = 1) -> "PositionAssignmentAgg":
        # new_with_vec — integer_assignment_aggregate.rs:26-33
        agg = cls()
        agg.row_count = mult
        for t in tokens:
            agg._add(t, mult)
        return agg

    @classmethod
    def from_sorted_values(cls, values: Iterable) -> "PositionAssignmentAgg":
        """Batch fit: deterministic insertion in sorted order (one per value)."""
        agg = cls()
        for v in sorted(set(values)):
            agg.row_count += 1
            agg._add(v, 1)
        return agg

    def _assign_index(self) -> int:
        if self.free_indices:
            return self.free_indices.pop()
        self.next_index += 1
        return self.next_index - 1

    def _compress(self) -> None:
        keys = sorted(self.val_to_index.keys())  # deterministic (see docstring)
        self.val_to_index = {k: i for i, k in enumerate(keys)}
        self.free_indices = []
        self.next_index = len(keys)

    def _add(self, value, count_to_add: int) -> None:
        # plus_equals_value_count — integer_assignment_aggregate.rs:63-95
        if value in self.val_to_count:
            count = self.val_to_count[value]
            self.val_to_count[value] = count + count_to_add
            if count > 0 and count + count_to_add <= 0:
                self.free_indices.append(self.val_to_index[value])
            elif count <= 0 and count + count_to_add > 0:
                self.val_to_index[value] = self._assign_index()
        else:
            self.val_to_count[value] = count_to_add
            if count_to_add > 0:
                self.val_to_index[value] = self._assign_index()
        occ = self.value_count()
        if occ > self.len:
            while self.value_count() > self.len:
                self.len = int(rust_round(self.len * 1.5))
        elif occ < math.floor(self.len * 0.66):
            self._compress()
            while self.value_count() < math.floor(self.len * 0.66):
                self.len = math.ceil(self.len * 0.66)

    def value_count(self) -> int:
        # live slots — integer_assignment_aggregate.rs:97-99
        return len(self.val_to_count) - len(self.free_indices)

    def merge(self, other: "PositionAssignmentAgg") -> None:
        # plus_equals — integer_assignment_aggregate.rs:114-122, with one
        # deliberate divergence: the reference iterates the other side's
        # *indexed* values (it only ever merges aggregates DD has already
        # consolidated, where every live value holds a slot); our per-block
        # partials can carry pure-negative entries (a retraction-only
        # micro-batch) that have counts but no slot, so we iterate the count
        # map — identical for positive entries, and retractions survive.
        sign = 1 if not (self.neg ^ other.neg) else -1
        for value in sorted(other.val_to_count.keys()):
            count = other.val_to_count[value]
            if count != 0:
                self._add(value, sign * count)
        self.row_count += other.row_count

    def negate(self) -> None:
        self.neg = not self.neg
        self.row_count = -self.row_count

    def is_zero(self) -> bool:
        return self.row_count == 0

    def is_identity(self) -> bool:
        return self.row_count == 0 and not any(
            c != 0 for c in self.val_to_count.values()
        )

    def get_map_and_len(self) -> tuple[dict[Any, int], int]:
        """Live value→slot map + advertised vector length.

        Only values with positive net count are live (a retracted value's
        stale map entry must not leak into transforms).
        """
        live = {
            v: i
            for v, i in self.val_to_index.items()
            if self.val_to_count.get(v, 0) > 0
        }
        return live, self.len


class DocumentFrequencyAgg(_Mergeable):
    """Element-wise summed frequency vector + doc count (auto-resizing).

    Mirrors ``DocumentFrequencyAggregate`` (tfidf_transformer.rs:90-173):
    merge resizes to the max length and adds element-wise; ``negate`` flips
    every entry and the count; optional rounding of the exposed vector
    (:105-113, round_to_decimal :120-123) damps update propagation.
    """

    def __init__(self, frequencies: np.ndarray | None = None, count: int = 0,
                 round_to: int | None = None):
        self.frequencies = (
            None if frequencies is None else np.asarray(frequencies, dtype=np.int64)
        )
        self.count = int(count)
        self.round_to = round_to

    def copy(self) -> "DocumentFrequencyAgg":
        return DocumentFrequencyAgg(
            None if self.frequencies is None else self.frequencies.copy(),
            self.count,
            self.round_to,
        )

    def __eq__(self, other):
        return (
            type(other) is DocumentFrequencyAgg
            and self.count == other.count
            and self.round_to == other.round_to
            and (
                (self.frequencies is None and other.frequencies is None)
                or (
                    self.frequencies is not None
                    and other.frequencies is not None
                    and np.array_equal(self.frequencies, other.frequencies)
                )
            )
        )

    @classmethod
    def of(cls, document: np.ndarray, mult: int = 1,
           round_to: int | None = None) -> "DocumentFrequencyAgg":
        doc = np.asarray(document, dtype=np.int64) * mult
        return cls(doc, mult, round_to)

    def merge(self, other: "DocumentFrequencyAgg") -> None:
        if other.frequencies is not None:
            if self.frequencies is None:
                self.frequencies = other.frequencies.copy()
            else:
                a, b = self.frequencies, other.frequencies
                if a.size < b.size:
                    a = np.concatenate([a, np.zeros(b.size - a.size, dtype=np.int64)])
                a[: b.size] += b
                self.frequencies = a
        if self.round_to is None:
            self.round_to = other.round_to
        self.count += other.count

    def negate(self) -> None:
        if self.frequencies is not None:
            self.frequencies = -self.frequencies
        self.count = -self.count

    def is_zero(self) -> bool:
        return self.count == 0

    def get_frequencies(self) -> np.ndarray | None:
        if self.frequencies is None:
            return None
        if self.round_to is None:
            return self.frequencies.copy()
        factor = 10.0 ** self.round_to
        return np.array(
            [int(rust_round(x / factor) * factor) for x in self.frequencies.tolist()],
            dtype=np.int64,
        )


class SumCountAgg(_Mergeable):
    """Generic invertible (sum, count, weighted min/max counts) aggregate.

    Used by windowed/keyed incremental aggregation: supports sum / count /
    mean exactly under retraction; min/max via a value-count map like
    ``MinMaxAgg`` when requested (``track_extremes=True``).
    """

    def __init__(self, s: float = 0.0, count: int = 0,
                 extremes: MinMaxAgg | None = None):
        self.s = float(s)
        self.count = int(count)
        self.extremes = extremes

    def copy(self) -> "SumCountAgg":
        return SumCountAgg(
            self.s, self.count,
            None if self.extremes is None else self.extremes.copy(),
        )

    @classmethod
    def from_numpy(cls, values: np.ndarray, weights: np.ndarray | None = None,
                   track_extremes: bool = False) -> "SumCountAgg":
        values = np.asarray(values, dtype=np.float64)
        if weights is None:
            s = float(values.sum())
            c = int(values.size)
        else:
            w = np.asarray(weights, dtype=np.float64)
            s = float((values * w).sum())
            c = int(np.asarray(weights, dtype=np.int64).sum())
        ext = MinMaxAgg.from_numpy(values, weights) if track_extremes else None
        return cls(s, c, ext)

    def merge(self, other: "SumCountAgg") -> None:
        self.s += other.s
        self.count += other.count
        if other.extremes is not None:
            if self.extremes is None:
                self.extremes = other.extremes.copy()
            else:
                self.extremes.merge(other.extremes)

    def negate(self) -> None:
        self.s = -self.s
        self.count = -self.count
        if self.extremes is not None:
            self.extremes.negate()

    def is_zero(self) -> bool:
        return self.count == 0 and self.s == 0.0

    def is_identity(self) -> bool:
        return (self.count == 0 and self.s == 0.0
                and (self.extremes is None or self.extremes.is_identity()))

    @property
    def mean(self) -> float:
        return self.s / self.count

    def min_max(self) -> tuple[float, float]:
        if self.extremes is None:
            raise ValueError("extremes not tracked")
        mn, rng = self.extremes.get()
        return mn, mn + rng


class CoMomentAgg(_Mergeable):
    """Bivariate co-moment aggregate: (mean_x, mean_y, M2x, M2y, Cxy, count).

    The two-variable extension of ``MeanVarAgg``'s Chan merge (the reference
    maintains only the univariate ``VarianceAggregate``,
    standard_scaler.rs:11-61; the pairwise-merge update for the co-moment
    ``Cxy = Σ(x−x̄)(y−ȳ)`` follows the same published Chan/Pébay formula with
    ``dx·dy`` in place of ``dx²``).  One accumulator yields population
    covariance, Pearson correlation and the least-squares slope/intercept per
    group — merged per block, invertible for retractions like every other
    monoid here.
    """

    def __init__(self, mean_x: float = 0.0, mean_y: float = 0.0,
                 m2x: float = 0.0, m2y: float = 0.0, cxy: float = 0.0,
                 count: int = 0):
        self.mean_x = float(mean_x)
        self.mean_y = float(mean_y)
        self.m2x = float(m2x)
        self.m2y = float(m2y)
        self.cxy = float(cxy)
        self.count = int(count)

    def copy(self) -> "CoMomentAgg":
        return CoMomentAgg(self.mean_x, self.mean_y, self.m2x, self.m2y,
                           self.cxy, self.count)

    @classmethod
    def of(cls, x: float, y: float, mult: int = 1) -> "CoMomentAgg":
        return cls(mean_x=float(x), mean_y=float(y), count=mult)

    @classmethod
    def from_numpy(cls, xs: np.ndarray, ys: np.ndarray,
                   weights: np.ndarray | None = None) -> "CoMomentAgg":
        """One partial per block, vectorized; ±1 diff weights split into a
        positive partial merged with a negated negative partial (negation
        commutes with the merge — property-tested like ``MeanVarAgg``)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if weights is None:
            n = xs.size
            if n == 0:
                return cls()
            mx = float(xs.mean())
            my = float(ys.mean())
            dx = xs - mx
            dy = ys - my
            return cls(mx, my, float((dx * dx).sum()), float((dy * dy).sum()),
                       float((dx * dy).sum()), n)
        weights = np.asarray(weights)
        pos = weights > 0
        neg = weights < 0
        acc = cls()
        if pos.any():
            acc.merge(cls._weighted(xs[pos], ys[pos],
                                    weights[pos].astype(np.float64)))
        if neg.any():
            part = cls._weighted(xs[neg], ys[neg],
                                 (-weights[neg]).astype(np.float64))
            part.negate()
            acc.merge(part)
        return acc

    @classmethod
    def _weighted(cls, xs: np.ndarray, ys: np.ndarray,
                  w: np.ndarray) -> "CoMomentAgg":
        c = float(w.sum())
        if c == 0:
            return cls()
        mx = float((xs * w).sum() / c)
        my = float((ys * w).sum() / c)
        dx = xs - mx
        dy = ys - my
        return cls(mx, my, float((w * dx * dx).sum()),
                   float((w * dy * dy).sum()), float((w * dx * dy).sum()),
                   int(c))

    def merge(self, other: "CoMomentAgg") -> None:
        c1 = float(self.count)
        c2 = float(other.count)
        self.count += other.count
        c_new = float(self.count)
        if c_new == 0:
            # mirror MeanVarAgg's zero-count convention: means keep their
            # last value, centered moments add
            self.m2x += other.m2x
            self.m2y += other.m2y
            self.cxy += other.cxy
            return
        dx = self.mean_x - other.mean_x
        dy = self.mean_y - other.mean_y
        w = c1 * c2 / c_new
        self.mean_x = (self.mean_x * c1 + other.mean_x * c2) / c_new
        self.mean_y = (self.mean_y * c1 + other.mean_y * c2) / c_new
        self.m2x += other.m2x + dx * dx * w
        self.m2y += other.m2y + dy * dy * w
        self.cxy += other.cxy + dx * dy * w

    def negate(self) -> None:
        self.m2x = -self.m2x
        self.m2y = -self.m2y
        self.cxy = -self.cxy
        self.count = -self.count

    def is_zero(self) -> bool:
        return self.count == 0

    def is_identity(self) -> bool:
        return (self.count == 0 and self.m2x == 0.0 and self.m2y == 0.0
                and self.cxy == 0.0)

    def get(self) -> dict:
        """{covar (population), corr, slope, intercept, n} for the group."""
        n = self.count
        if n <= 0:
            # fully-retracted group (reachable via negate/merge): NaN stats,
            # matching MomentsAgg.get()'s n<=0 convention
            nan = float("nan")
            return {"covar": nan, "corr": nan, "slope": nan,
                    "intercept": nan, "n": n}
        covar = self.cxy / n
        denom = math.sqrt(self.m2x * self.m2y)
        corr = self.cxy / denom if denom > 0 else float("nan")
        slope = self.cxy / self.m2x if self.m2x > 0 else float("nan")
        intercept = self.mean_y - slope * self.mean_x
        return {"covar": covar, "corr": corr, "slope": slope,
                "intercept": intercept, "n": n}


class FirstSeenReg:
    """Streaming-dedup "seen" register: the ``(stamp, epoch)`` under which a
    key FIRST occurred.  ``stamp = (event_time, tiebreak)`` — event_time in
    slot 0 so the register-TTL sweep (``sweep_stale_registers``) ages dedup
    state out exactly like EnrichJoin dim registers.  Not a monoid: keys are
    claimed first-wins by the shard's ``dedup_filter`` (one offer per
    (shard, epoch), deterministic per-key min), and a replay of the claiming
    epoch re-wins idempotently."""

    __slots__ = ("stamp", "epoch")

    def __init__(self, stamp: tuple, epoch: int):
        self.stamp = stamp
        self.epoch = epoch

    def __getstate__(self):
        return (self.stamp, self.epoch)

    def __setstate__(self, st):
        self.stamp, self.epoch = st


class MomentsAgg(_Mergeable):
    """Order-4 moment aggregate as raw power sums ``(n, Σx, Σx², Σx³, Σx⁴)``.

    Power sums are the *exactly* invertible representation of higher moments:
    merge is plain component-wise addition and ``negate`` flips every sum, so
    retraction is exact (no Chan/Pébay cross terms, no approximate inverse) —
    the order-4 extension of the reference's ``VarianceAggregate`` monoid
    (standard_scaler.rs:11-61) taken to the abelian-group closure the
    differential model wants.  Central moments are recovered at read time
    (binomial expansion), from which ``get`` derives population variance plus
    the bias-corrected sample skewness / excess kurtosis that DuckDB's
    ``skewness()`` / ``kurtosis()`` compute (verified to 1e-13 in tests).
    Trade-off: raw sums cancel catastrophically when ``|mean| ≫ stddev``;
    fine for feature-scaled / bounded columns, callers with extreme means
    should center first.
    """

    __slots__ = ("count", "s1", "s2", "s3", "s4")

    def __init__(self, count: int = 0, s1: float = 0.0, s2: float = 0.0,
                 s3: float = 0.0, s4: float = 0.0):
        self.count = int(count)
        self.s1 = float(s1)
        self.s2 = float(s2)
        self.s3 = float(s3)
        self.s4 = float(s4)

    def copy(self) -> "MomentsAgg":
        return MomentsAgg(self.count, self.s1, self.s2, self.s3, self.s4)

    @classmethod
    def of(cls, value: float, mult: int = 1) -> "MomentsAgg":
        v = float(value)
        return cls(mult, mult * v, mult * v * v, mult * v ** 3, mult * v ** 4)

    @classmethod
    def from_numpy(cls, values: np.ndarray,
                   weights: np.ndarray | None = None) -> "MomentsAgg":
        """One partial per block, vectorized; ±1 ``diff`` weights just sign
        the power sums (the representation is already a group)."""
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return cls()
        if weights is None:
            return cls(v.size, float(v.sum()), float((v * v).sum()),
                       float((v ** 3).sum()), float((v ** 4).sum()))
        w = np.asarray(weights, dtype=np.float64)
        return cls(int(w.sum()), float((w * v).sum()),
                   float((w * v * v).sum()), float((w * v ** 3).sum()),
                   float((w * v ** 4).sum()))

    def merge(self, other: "MomentsAgg") -> None:
        self.count += other.count
        self.s1 += other.s1
        self.s2 += other.s2
        self.s3 += other.s3
        self.s4 += other.s4

    def negate(self) -> None:
        self.count = -self.count
        self.s1 = -self.s1
        self.s2 = -self.s2
        self.s3 = -self.s3
        self.s4 = -self.s4

    def is_zero(self) -> bool:
        return self.count == 0

    def is_identity(self) -> bool:
        return (self.count == 0 and self.s1 == 0.0 and self.s2 == 0.0
                and self.s3 == 0.0 and self.s4 == 0.0)

    def get(self) -> dict:
        """{n, mean, var_pop, skew, kurt}: skew/kurt are the bias-corrected
        sample estimators DuckDB's skewness()/kurtosis() return (NaN below
        their minimum group sizes of 3/4 rows, like DuckDB emits NULL)."""
        n = float(self.count)
        if n <= 0:
            return {"n": self.count, "mean": float("nan"),
                    "var_pop": float("nan"), "skew": float("nan"),
                    "kurt": float("nan")}
        mean = self.s1 / n
        m2 = (self.s2 - n * mean ** 2) / n
        m3 = (self.s3 - 3.0 * mean * self.s2 + 2.0 * n * mean ** 3) / n
        m4 = (self.s4 - 4.0 * mean * self.s3 + 6.0 * mean ** 2 * self.s2
              - 3.0 * n * mean ** 4) / n
        skew = kurt = float("nan")
        if m2 > 0 and n > 2:
            skew = (m3 / m2 ** 1.5) * math.sqrt(n * (n - 1.0)) / (n - 2.0)
        if m2 > 0 and n > 3:
            g2 = m4 / m2 ** 2 - 3.0
            kurt = (n - 1.0) * ((n + 1.0) * g2 + 6.0) / ((n - 2.0) * (n - 3.0))
        return {"n": self.count, "mean": mean, "var_pop": max(m2, 0.0),
                "skew": skew, "kurt": kurt}


class LastValueAgg(_Mergeable):
    """Last-writer-wins register: (stamp, value) where ``merge`` keeps the
    larger stamp — a commutative, associative, idempotent semilattice, so
    upsert order across blocks/shards/retries cannot change the outcome.

    This is the state element of a stream-table ENRICH join: the dim side's
    per-key "current value".  Stamps are ``(event_time, tiebreak)`` tuples;
    the tiebreak (e.g. the value tuple itself) makes equal-time upserts
    deterministic.  A delete is an upsert of ``value=None`` (tombstone): it
    must keep occupying the key to shadow older stamps, hence
    ``is_identity`` is False for tombstones.
    """

    def __init__(self, stamp: tuple | None = None, value: tuple | None = None):
        self.stamp = stamp
        self.value = value

    def copy(self) -> "LastValueAgg":
        return LastValueAgg(self.stamp, self.value)

    def merge(self, other: "LastValueAgg") -> None:
        if other.stamp is not None and (self.stamp is None
                                        or other.stamp > self.stamp):
            self.stamp = other.stamp
            self.value = other.value

    def negate(self) -> None:
        raise NotImplementedError(
            "LastValueAgg is an upsert register, not a multiset — model "
            "deletes as tombstone upserts (value=None)"
        )

    def is_zero(self) -> bool:
        return self.stamp is None

    def is_identity(self) -> bool:
        return self.stamp is None


class CategoryMeanAgg(_Mergeable):
    """Per-category (sum, count) map — the TargetEncoder accumulator.

    Invertible like every monoid here: retraction subtracts (sum, count)
    for the retracted row's category, so the fitted per-category means and
    the global mean adjust incrementally.  State is O(categories)."""

    def __init__(self, m: dict | None = None):
        # cat_key -> [value_sum, count]
        self.m: dict = m or {}

    def copy(self) -> "CategoryMeanAgg":
        return CategoryMeanAgg({k: [s, c] for k, (s, c) in self.m.items()})

    @classmethod
    def from_numpy(cls, cats, values: np.ndarray,
                   weights: np.ndarray | None = None) -> "CategoryMeanAgg":
        import pandas as pd

        values = np.asarray(values, dtype=np.float64)
        w = (np.ones(len(values), dtype=np.int64) if weights is None
             else np.asarray(weights, dtype=np.int64))
        df = pd.DataFrame({"c": np.asarray(cats), "s": values * w, "n": w})
        g = df.groupby("c", sort=False).agg(s=("s", "sum"), n=("n", "sum"))
        return cls({k: [float(s), int(n)]
                    for k, s, n in zip(g.index, g["s"], g["n"]) if n != 0 or s != 0.0})

    def merge(self, other: "CategoryMeanAgg") -> None:
        for k, (s, c) in other.m.items():
            cur = self.m.get(k)
            if cur is None:
                self.m[k] = [s, c]
            else:
                cur[0] += s
                cur[1] += c
                if cur[1] == 0 and cur[0] == 0.0:
                    del self.m[k]

    def negate(self) -> None:
        self.m = {k: [-s, -c] for k, (s, c) in self.m.items()}

    def is_zero(self) -> bool:
        return not any(c > 0 for _, c in self.m.values())

    def is_identity(self) -> bool:
        return not self.m

    def means(self) -> tuple[dict, float]:
        """({category: mean over live rows}, global mean)."""
        out = {k: s / c for k, (s, c) in self.m.items() if c > 0}
        ts = sum(s for s, c in self.m.values() if c > 0)
        tc = sum(c for _, c in self.m.values() if c > 0)
        return out, (ts / tc if tc else 0.0)
