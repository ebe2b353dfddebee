"""Relational batch operators: partitioned hash join, salted aggregation.

- ``hash_join`` — large-large equi-join without broadcasting: both sides get
  a ``bucket = hash(key) % B`` column (vectorized, identical hash on both
  sides), one groupby co-locates matching buckets, and each bucket joins with
  a pandas hash merge.  This is the portable partitioned-join pattern for the
  case where neither side fits a broadcast (the reference only ever joins
  arranged collections inside DD; SURVEY §2.6).
- ``salted_two_phase_sum`` — explicit skew handling for hot keys: stage 1
  pre-aggregates per (key, salt) inside ``map_batches`` (a hot key's rows are
  already collapsed to ≤ num_blocks × num_salts partial rows), stage 2 merges
  the partials.  Every fit/aggregate in this engine uses the same two-phase
  shape; this utility exposes it directly and is exercised by the skew test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.vectors import half_away

__all__ = ["hash_join", "asof_join", "salted_two_phase_sum", "sessionize",
           "distinct_count_per_group", "grouped_quantiles", "running_total",
           "latest_per_key", "exact_global_quantiles", "global_rank", "grouped_mad",
           "build_bloom", "bloom_prefilter", "ordered_prefix_sum",
           "ordered_prefix_min",
           "cap_per_group", "deterministic_shuffle", "unpivot"]


def _with_bucket(ds, key_cols: Sequence[str], buckets: int, tag: str,
                 unified: pa.Schema):
    """Add bucket/side columns and pad to the unified schema with typed nulls
    (Dataset.union requires identical schemas across sides)."""

    def add(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(list(key_cols)).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        n = tbl.num_rows
        cols = {}
        for field in unified:
            if field.name in tbl.column_names:
                cols[field.name] = tbl[field.name]
            else:
                cols[field.name] = pa.nulls(n, type=field.type)
        cols["__bucket"] = pa.array((h % np.uint64(buckets)).astype(np.int64))
        cols["__side"] = pa.array([tag] * n, type=pa.string())
        return pa.table(cols)

    return ds.map_batches(add, batch_format="pyarrow")


def _arrow_schema(ds) -> pa.Schema:
    """Dataset schema as a real ``pa.Schema``.  Datasets coming out of
    pandas-block stages (e.g. native ``groupby().sum``) report a
    PandasBlockSchema (plain name/dtype lists) — coerce those so join
    unification works on any upstream."""
    s = ds.schema()
    if s is None:  # fully-empty dataset (no blocks) reports no schema
        return pa.schema([])
    base = s.base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for n, t in zip(s.names, s.types):
        if not isinstance(t, pa.DataType):
            t = pa.from_numpy_dtype(np.dtype(t))
        fields.append(pa.field(n, t))
    return pa.schema(fields)


def hash_join(left, right, left_on: Sequence[str], right_on: Sequence[str],
              buckets: int = 32, how: str = "inner"):
    """Partitioned equi-join of two Datasets → Dataset of joined rows.

    ``how``:
    - ``"inner"`` — joined rows with both sides' columns;
    - ``"left"``  — every left row, right columns null on no match;
    - ``"outer"`` — full outer: unmatched rows of BOTH sides survive with the
      other side's columns null (integer columns come back as
      int64-with-nulls, not float64 — see ``nullable_int`` below);
    - ``"semi"``  — left rows with ≥1 match (left columns only);
    - ``"anti"``  — left rows with NO match (left columns only).  This is the
      large-side anti-join path: neither side is broadcast or driver-held,
      both shuffle once by key-hash bucket (the reference's antijoin,
      one_hot_encoder.rs:50-57, is an arranged subtraction — same semantics).

    ``buckets`` bounds per-task memory: each bucket holds ~1/buckets of both
    sides.  Skewed keys: raise ``buckets`` (a single hot KEY still lands in
    one bucket — for pathological single-key skew, broadcast the hot key's
    small side separately; documented tradeoff).
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"unknown how={how!r}")
    left_on = list(left_on)
    right_on = list(right_on)
    l_cols = [f.name for f in _arrow_schema(left)]
    r_cols = [f.name for f in _arrow_schema(right)]
    if not l_cols or not r_cols:
        # a fully-EMPTY side lost its schema (Ray drops it with its last
        # block); the join result is determined without a shuffle.  The
        # absent side's columns cannot be typed, so pass-through results
        # carry only the surviving side's schema (callers guard empty
        # frames — tiny_sweep empty-domain contract).
        if how == "anti":
            return left
        if how == "semi":
            return left.limit(0)
        if how == "inner":
            return (left if not l_cols else right).limit(0)
        if how == "left":
            return left if not r_cols else left.limit(0)
        # outer: the non-empty side's rows survive unmatched
        if not l_cols and not r_cols:
            return left.limit(0)
        return right if not l_cols else left
    rename_fields: list = []
    if how in ("semi", "anti"):
        # only the right KEY columns matter; prune the rest at the source and
        # rename them so same-named keys on both sides are fine.  The renamed
        # fields are constructed from the PRE-rename schema: an empty (lazy)
        # dataset keeps reporting its old column names after rename_columns,
        # which would silently drop the key field from the unified schema and
        # KeyError inside every bucket task (found by tools/tiny_sweep).
        t_of = {f.name: f.type for f in _arrow_schema(right)}
        renames = {c: f"__rk_{i}" for i, c in enumerate(right_on)}
        right = right.select_columns(right_on).rename_columns(renames)
        rename_fields = [pa.field(renames[c], t_of[c]) for c in right_on]
        right_on = [renames[c] for c in right_on]
        r_cols = list(right_on)
    overlap = set(l_cols) & set(r_cols)
    if overlap:
        raise ValueError(f"rename overlapping columns first: {sorted(overlap)}")
    lschema = _arrow_schema(left)
    if how in ("semi", "anti"):
        unified = pa.schema(list(lschema) + rename_fields)
    else:
        rschema = _arrow_schema(right)
        unified = pa.schema(list(lschema)
                            + [f for f in rschema if f.name in r_cols])
    # union both sides into one dataset so ONE groupby shuffle co-locates
    # matching buckets; sides are distinguished by a tag column
    l_tagged = _with_bucket(left, left_on, buckets, "l", unified)
    r_tagged = _with_bucket(right, right_on, buckets, "r", unified)

    # Columns that can become null under left/outer semantics must leave
    # every bucket with ONE dtype (a bucket where everything matched would
    # otherwise emit int64 while its neighbour emits float64 from NaN
    # padding) — integer columns go through pandas' nullable Int64/UInt64,
    # which Arrow round-trips back to int-with-nulls.  The cast happens
    # BEFORE the merge so big values (> 2⁵³, e.g. 64-bit hash keys) never
    # take a precision-losing float64 round trip.
    nullable_int = {f.name: ("UInt64" if pa.types.is_unsigned_integer(f.type)
                             else "Int64")
                    for f in unified if pa.types.is_integer(f.type)}

    # The bucket UDF returns ARROW with this exact schema (not pandas):
    # Ray emits zero-column empty blocks for empty sort partitions, and a
    # downstream shuffle concatenating those with typed PANDAS blocks
    # NaN-promotes every int64 to float64 — silently corrupting 64-bit
    # keys and breaking chained joins (observed: the second semi-join of a
    # k-core peel matching nothing).  A fixed Arrow schema keeps every
    # block typed end-to-end.
    out_schema = (pa.schema(list(lschema)) if how in ("semi", "anti")
                  else unified)

    def join_bucket(tbl: pa.Table) -> pa.Table:
        # Split sides while still Arrow and DROP the other side's columns
        # first: converting the union block (null-padded across sides) to
        # pandas whole would degrade every int column to float64 —
        # silently corrupting 64-bit keys (values > 2⁵³).
        mask_l = pc.equal(tbl["__side"], "l")
        lt = tbl.filter(mask_l).select(list(l_cols)).to_pandas()
        rt = tbl.filter(pc.invert(mask_l)).select(list(r_cols)).to_pandas()
        if how in ("inner", "left", "outer"):
            if how != "inner" and nullable_int:
                lt = lt.astype({c: t for c, t in nullable_int.items()
                                if c in lt.columns})
                rt = rt.astype({c: t for c, t in nullable_int.items()
                                if c in rt.columns})
            # merge on empty frames still yields the joined schema/dtypes
            out = lt.merge(rt, left_on=left_on, right_on=right_on, how=how)
        else:
            keys = rt[list(right_on)].drop_duplicates()
            keys.columns = left_on  # positional key alignment
            marked = lt.merge(keys, on=left_on, how="left", indicator=True)
            want = "both" if how == "semi" else "left_only"
            out = (marked[marked["_merge"] == want]
                   .drop(columns=["_merge"]))
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    both = l_tagged.union(r_tagged)
    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pyarrow")


def asof_join(left, right, on: Sequence[str], left_ts: str, right_ts: str,
              buckets: int = 32, direction: str = "backward"):
    """Point-in-time (as-of) equi-join: for each left row, the single right
    row with the same key and the latest ``right_ts`` ≤ ``left_ts``
    (``direction="backward"``; ``"forward"`` flips the inequality).  Inner
    semantics — left rows with no match are dropped — matching DuckDB's
    ``ASOF JOIN`` exactly, which is the SQL oracle.

    The standard training-data primitive for leakage-free feature lookup
    ("the feature value as of the example's event time").  Execution is the
    same one-shuffle bucket co-location as ``hash_join``; inside a bucket a
    single ``pd.merge_asof`` (C-speed, sorted merge) resolves every key at
    once.  Key skew: one hot KEY lands in one bucket — same documented
    tradeoff as ``hash_join``.
    """
    on = list(on)
    l_cols = [f.name for f in _arrow_schema(left)]
    r_cols = [f.name for f in _arrow_schema(right)]
    if not l_cols or not r_cols:
        # empty (schema-less) side: inner as-of semantics → no matches
        return left.limit(0)
    overlap = (set(l_cols) & set(r_cols)) - set(on)
    if overlap:
        raise ValueError(f"rename overlapping non-key columns first: "
                         f"{sorted(overlap)}")
    # rename right keys so the unified schema has one copy of each key.
    # Right fields come from the PRE-rename schema with the rename applied
    # by hand: an empty (lazy) dataset keeps reporting its OLD column names
    # after rename_columns, which would desync the unified schema from
    # r_cols and KeyError in every bucket task (tools/tiny_sweep find).
    rschema0 = _arrow_schema(right)
    renames = {c: f"__rk_{i}" for i, c in enumerate(on)}
    right = right.rename_columns(renames)
    r_on = [renames[c] for c in on]
    r_cols = [renames.get(c, c) for c in r_cols]
    unified = pa.schema(list(_arrow_schema(left))
                        + [pa.field(renames.get(f.name, f.name), f.type)
                           for f in rschema0])
    l_tagged = _with_bucket(left, on, buckets, "l", unified)
    r_tagged = _with_bucket(right, r_on, buckets, "r", unified)
    r_out = [c for c in r_cols if c not in r_on]

    # fixed Arrow output schema — same zero-column-empty-block hazard as
    # hash_join (see comment there)
    out_cols_order = list(dict.fromkeys(l_cols + r_out))
    by_name = {f.name: f for f in unified}
    out_schema = pa.schema([by_name[c] for c in out_cols_order])

    def join_bucket(tbl: pa.Table) -> pa.Table:
        # Arrow-side split before pandas (same reason as hash_join: the
        # union's null padding would float-degrade int columns)
        mask_l = pc.equal(tbl["__side"], "l")
        lt = (tbl.filter(mask_l).select(list(l_cols)).to_pandas()
              .sort_values(left_ts, kind="mergesort"))
        rt = (tbl.filter(pc.invert(mask_l)).select(list(r_cols)).to_pandas()
              .sort_values(right_ts, kind="mergesort"))
        merged = pd.merge_asof(
            lt, rt, left_on=left_ts, right_on=right_ts,
            left_by=on, right_by=r_on, direction=direction,
        )
        matched = merged[merged[right_ts].notna()]
        out = matched[out_cols_order].reset_index(drop=True)
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    both = l_tagged.union(r_tagged)
    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pyarrow")


def salted_two_phase_sum(ds, key_cols: Sequence[str], value_col: str,
                         num_salts: int = 16) -> pd.DataFrame:
    """Skew-proof grouped sum: (key, salt)-partials → final key merge.

    The salt spreads a hot key's *partial* rows over ``num_salts`` reducers;
    the final merge handles ≤ num_salts rows per key.  Returns the exact
    grouped sum + count.
    """
    keys = list(key_cols)

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.copy()
        pdf["__salt"] = np.arange(len(pdf)) % num_salts
        pdf["__n"] = 1
        return pdf.groupby(keys + ["__salt"], as_index=False).agg(
            s=(value_col, "sum"), n=("__n", "sum")
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(keys, as_index=False).agg(sum=("s", "sum"), count=("n", "sum"))
    return out


def sessionize(ds, key_cols: Sequence[str], ts_col: str, gap: float,
               order_cols: Sequence[str] = (), buckets: int = 64):
    """Batch sessionization: number each key's events into sessions split
    where the gap to the previous event exceeds ``gap`` seconds.

    Adds ``session_no`` (1-based per key).  The batch twin of the streaming
    ``SessionWindowAggregation`` and of SQL's
    ``sum(gap_flag) OVER (PARTITION BY key ORDER BY ts)``.

    Scale: ONE bucket shuffle by hash(key) co-locates each key's rows (all
    rows of a key land in the same bucket task); inside the bucket the
    session numbering is a vectorized pandas sort + groupby-cumsum — no
    full-key-domain sort, no driver-side state.  ``buckets`` scales
    per-task memory as ``rows / buckets``; a single pathological key still
    lands on one task (document: split such keys upstream by day).
    ``ts_col`` may be a timestamp (compared in seconds) or numeric.
    """
    keys = list(key_cols)
    order = [ts_col] + list(order_cols)

    def add_bucket(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(keys).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return tbl.append_column(
            "__bucket", pa.array((h % np.uint64(buckets)).astype(np.int64)))

    def number_sessions(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + order, kind="mergesort")
        tsc = pdf[ts_col]
        if np.issubdtype(tsc.dtype, np.datetime64):
            # exact integer µs — float seconds round by ~100 ns at 2024
            # epochs, enough to flip a comparison right at the gap boundary
            ts = tsc.to_numpy().astype("datetime64[us]").astype(np.int64)
            gap_v = int(round(gap * 1e6))
        else:
            ts = tsc.to_numpy(dtype=np.float64)
            gap_v = gap
        same_key = np.ones(len(pdf), dtype=bool)
        for k in keys:
            kv = pdf[k].to_numpy()
            same_key[1:] &= kv[1:] == kv[:-1]
        same_key[:1] = False
        new_sess = np.ones(len(pdf), dtype=np.int64)
        new_sess[1:] = (~same_key[1:]
                        | (ts[1:] - ts[:-1] > gap_v)).astype(np.int64)
        grp_start = np.flatnonzero(~same_key)
        # per-key cumulative session count, vectorized: global cumsum minus
        # the cumsum just before each key's first row
        cs = np.cumsum(new_sess)
        base = np.repeat(cs[grp_start] - new_sess[grp_start],
                         np.diff(np.append(grp_start, len(pdf))))
        out = pdf.drop(columns="__bucket").copy()
        out["session_no"] = cs - base
        return out

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket").map_groups(number_sessions,
                                            batch_format="pandas"))


def distinct_count_per_group(ds, group_cols: Sequence[str], value_col: str,
                             buckets: int = 64) -> pd.DataFrame:
    """Exact COUNT(DISTINCT value) per group at any value cardinality.

    Block-local distinct (group, value) pairs → ONE bucket shuffle keyed on
    hash(group, value) → per-bucket exact dedupe + per-group partial counts
    → driver merges O(groups × buckets) count rows (never the values).
    The exact counterpart of the HLL ``approx_distinct`` sketch; use this
    when the answer must be exact and groups are few, the sketch when an
    ε-bound suffices."""
    groups = list(group_cols)
    cols = groups + [value_col]

    def partial(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(cols).to_pandas().drop_duplicates(cols)
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return pa.Table.from_pandas(
            pdf.assign(__bucket=(h % np.uint64(buckets)).astype(np.int64)),
            preserve_index=False)

    def count_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        return (pdf.drop_duplicates(cols).groupby(groups, as_index=False)
                .size().rename(columns={"size": "n_distinct"}))

    parts = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("__bucket").map_groups(count_bucket,
                                             batch_format="pandas")
             .to_pandas())
    return (parts.groupby(groups, as_index=False)["n_distinct"].sum()
            .sort_values(groups).reset_index(drop=True))


def grouped_quantiles(ds, group_cols: Sequence[str], value_col: str,
                      qs: Sequence[float] = (0.5,), buckets: int = 64):
    """Exact per-group quantiles (linear interpolation — the quantile_cont
    semantics).  One bucket shuffle by hash(group) co-locates each group's
    values; the per-bucket task computes all requested quantiles vectorized.
    Exactness requires the group's values in one task (rows/group must fit a
    worker); for sketch-bounded memory at any group size use
    ``approx_quantiles`` instead — this is its exact twin, like
    ``distinct_count_per_group`` is HLL's."""
    groups = list(group_cols)

    def add_bucket(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(groups).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return tbl.append_column(
            "__bucket", pa.array((h % np.uint64(buckets)).astype(np.int64)))

    def quant(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (pdf.groupby(groups)[value_col]
               .quantile(list(qs), interpolation="linear").unstack())
        out.columns = [f"q{str(q).replace('.', '_')}" for q in qs]
        return out.reset_index()

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket").map_groups(quant, batch_format="pandas")
            .to_pandas().sort_values(groups).reset_index(drop=True))


def grouped_mad(ds, group_cols: Sequence[str], value_col: str,
                buckets: int = 64, out_col: str = "mad"):
    """Exact per-group median absolute deviation (DuckDB ``mad`` semantics:
    median(|x − median(x)|), interpolated medians) — the robust-scale twin
    of ``grouped_quantiles``, same one-shuffle group co-location, two
    vectorized quantile passes inside the bucket task."""
    groups = list(group_cols)

    def add_bucket(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(groups).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return tbl.append_column(
            "__bucket", pa.array((h % np.uint64(buckets)).astype(np.int64)))

    def mad(pdf: pd.DataFrame) -> pd.DataFrame:
        def one(v: pd.Series) -> float:
            x = v.to_numpy(dtype=np.float64)
            med = np.quantile(x, 0.5)
            return float(np.quantile(np.abs(x - med), 0.5))

        out = pdf.groupby(groups)[value_col].apply(one).rename(out_col)
        return out.reset_index()

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket").map_groups(mad, batch_format="pandas")
            .to_pandas().sort_values(groups).reset_index(drop=True))


def running_total(ds, key_cols: Sequence[str], ts_col: str, value_col: str,
                  order_cols: Sequence[str] = (), out_col: str = "running",
                  cents: bool = True, buckets: int = 64):
    """Per-key running sum ordered by (ts, order_cols) — the cumulative
    window function.  Same one-shuffle bucket co-location as ``sessionize``;
    the numbering is a vectorized grouped cumsum.  ``cents=True`` accumulates
    ROUND(value·100) as int64 so the running sum is EXACT and merge-order-
    independent (float cumsum vs SQL's windowed sum can differ in ulps)."""
    keys = list(key_cols)
    order = [ts_col] + list(order_cols)

    def add_bucket(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(keys).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        return tbl.append_column(
            "__bucket", pa.array((h % np.uint64(buckets)).astype(np.int64)))

    def cumsum(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + order, kind="mergesort").drop(
            columns="__bucket")
        v = pdf[value_col].to_numpy(dtype=np.float64)
        if cents:
            # half-away, not np.round's banker's: matches DuckDB ROUND on
            # exact .5-cent products (same policy as the query oracles)
            iv = half_away(v * 100.0).astype(np.int64)
            run = pdf.assign(__v=iv).groupby(keys)["__v"].cumsum()
            pdf[out_col] = run.to_numpy() / 100.0
        else:
            pdf[out_col] = pdf.groupby(keys)[value_col].cumsum()
        return pdf

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket").map_groups(cumsum, batch_format="pandas"))


def latest_per_key(ds, key_cols: Sequence[str], ts_col: str,
                   order_cols: Sequence[str] = ()) -> pd.DataFrame:
    """The most recent row per key (argmax by (ts, order_cols) — "current
    state of every entity").  Two-phase: each block keeps only ITS latest
    row per key, the driver merges O(keys) candidates — no shuffle, no
    full-data sort.  Deterministic for unique (ts, order) per key."""
    keys = list(key_cols)
    order = [ts_col] + list(order_cols)

    def local_latest(pdf: pd.DataFrame) -> pd.DataFrame:
        return (pdf.sort_values(order, kind="mergesort")
                .groupby(keys, as_index=False).tail(1))

    parts = ds.map_batches(local_latest, batch_format="pandas").to_pandas()
    return (parts.sort_values(order, kind="mergesort")
            .groupby(keys, as_index=False).tail(1)
            .sort_values(keys).reset_index(drop=True))


def exact_global_quantiles(ds, col: str, qs: Sequence[float] = (0.5,),
                           bins: int = 4096, cap: int = 200_000,
                           max_rounds: int = 8) -> dict:
    """EXACT global quantiles (quantile_cont interpolation) with NO sort and
    NO value co-location — works at any cardinality, unlike
    ``grouped_quantiles`` which needs a group's values in one task.

    Iterative histogram refinement: each round is ONE streaming pass
    computing, per block, a histogram for every still-active order
    statistic's range; the driver narrows each range to the bin holding its
    rank (offset arithmetic keeps ranks exact).  When a range holds ≤ ``cap``
    values they are fetched (tiny filter pass) and the order statistic read
    exactly.  Ranges of width 0 (massive duplicate value) resolve
    immediately.  Passes: ~2 rounds + 1 fetch for real data; each moves only
    O(blocks × bins) counts to the driver."""
    import pyarrow.compute as pc

    # pass 0: n, min, max in one scan
    def nmm(tbl: pa.Table) -> pa.Table:
        v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table({"n": pa.array([0], type=pa.int64()),
                             "mn": pa.array([np.inf]), "mx": pa.array([-np.inf])})
        return pa.table({"n": pa.array([len(v)], type=pa.int64()),
                         "mn": pa.array([float(v.min())]),
                         "mx": pa.array([float(v.max())])})

    rows = ds.map_batches(nmm, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    if n == 0:
        return {q: float("nan") for q in qs}
    gmin = min(r["mn"] for r in rows)
    gmax = max(r["mx"] for r in rows)

    # order statistics needed (0-based ranks) for quantile_cont at each q
    ranks = sorted({int(np.floor((n - 1) * q)) for q in qs}
                   | {min(int(np.floor((n - 1) * q)) + 1, n - 1) for q in qs})
    # state per rank: [lo, hi, offset(=count of values < lo), count_in_range]
    state = {k: [gmin, gmax, 0, n] for k in ranks}
    resolved: dict[int, float] = {}

    for _ in range(max_rounds):
        active = {k: s for k, s in state.items()
                  if k not in resolved and s[3] > cap and s[0] < s[1]}
        for k, s in state.items():
            if k not in resolved and s[0] >= s[1]:
                resolved[k] = s[0]  # degenerate range: single value
        if not active:
            break
        ranges = [(k, s[0], s[1]) for k, s in sorted(active.items())]

        def hists(tbl: pa.Table) -> pa.Table:
            v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
            out = {}
            for i, (_k, lo, hi) in enumerate(ranges):
                edges = np.linspace(lo, hi, bins + 1)
                out[f"h{i}"] = pa.array(
                    [np.histogram(v, bins=edges)[0].astype(np.int64)],
                    type=pa.list_(pa.int64()))
                out[f"b{i}"] = pa.array([int((v < lo).sum())], type=pa.int64())
            return pa.table(out)

        hrows = ds.map_batches(hists, batch_format="pyarrow").take_all()
        for i, (k, lo, hi) in enumerate(ranges):
            counts = np.sum([np.asarray(r[f"h{i}"]) for r in hrows], axis=0)
            below = sum(int(r[f"b{i}"]) for r in hrows)
            cum = np.cumsum(counts)
            # rank k is the (k - below)-th value within [lo, hi]
            j = int(np.searchsorted(cum, k - below + 1))
            edges = np.linspace(lo, hi, bins + 1)
            new_lo, new_hi = float(edges[j]), float(edges[j + 1])
            new_off = below + (int(cum[j - 1]) if j else 0)
            state[k] = [new_lo, new_hi, new_off, int(counts[j])]

    # fetch pass: pull every unresolved range's values at once (≤ cap each)
    pending = [k for k in ranks if k not in resolved]
    if pending:
        franges = [(k, state[k][0], state[k][1]) for k in pending]

        def fetch(tbl: pa.Table) -> pa.Table:
            v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
            cols = {}
            for i, (_k, lo, hi) in enumerate(franges):
                cols[f"v{i}"] = pa.array(
                    [v[(v >= lo) & (v <= hi)]], type=pa.list_(pa.float64()))
            return pa.table(cols)

        vrows = ds.map_batches(fetch, batch_format="pyarrow").take_all()
        for i, (k, lo, hi) in enumerate(franges):
            vals = np.sort(np.concatenate(
                [np.asarray(r[f"v{i}"], dtype=np.float64) for r in vrows]))
            resolved[k] = float(vals[k - state[k][2]])

    out = {}
    for q in qs:
        r = (n - 1) * q
        k0 = int(np.floor(r))
        k1 = min(k0 + 1, n - 1)
        frac = r - k0
        out[q] = resolved[k0] + frac * (resolved[k1] - resolved[k0])
    return out


def global_rank(ds, col: str, tiebreak: Sequence[str] = (),
                partitions: int = 16, bins: int = 4096,
                rank_col: str = "rnk"):
    """EXACT global row_number over a total order (``col`` asc, then
    ``tiebreak`` asc) WITHOUT a global sort: the distributed window-rank
    primitive (SQL ``row_number() OVER (ORDER BY col, tiebreak)``).

    Plan (all deterministic — no sampling):
    1. one streaming pass merges per-block fine histograms of ``col``
       (``bins`` uniform bins; O(blocks × bins) counts to the driver, never
       values);
    2. the driver picks ~equi-depth partition edges from the fine bin edges
       — partition row-counts are EXACT because tagging uses the identical
       ``searchsorted(edges, v, side='right')`` binning, so prefix sums of
       those counts are each partition's global rank offset;
    3. one range shuffle co-locates each value range; every partition task
       sorts only its slice and adds its offset.

    Ranks of rows with equal ``col`` are resolved by the ``tiebreak``
    columns INSIDE one partition — equal values always land in the same
    partition, which is also this plan's skew limit: a single value
    repeated n/2 times makes one partition hold n/2 rows (document upstream
    salting by a tiebreak prefix if that is real).  Each partition holds
    ~1/partitions of the data, so per-task memory scales like
    ``repartition``, not like a driver sort."""
    order = [col, *tiebreak]

    def hist(tbl: pa.Table) -> pa.Table:
        v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
        if not len(v):
            z = np.zeros(1, dtype=np.int64)
            return pa.table({"n": z, "mn": [np.inf], "mx": [-np.inf]})
        return pa.table({"n": [np.int64(len(v))],
                         "mn": [float(v.min())], "mx": [float(v.max())]})

    rows = ds.map_batches(hist, batch_format="pyarrow").take_all()
    n = int(sum(r["n"] for r in rows))
    if n == 0:
        return ds.map_batches(
            lambda t: t.append_column(rank_col, pa.nulls(0, pa.int64())),
            batch_format="pyarrow")
    gmin = min(r["mn"] for r in rows)
    gmax = max(r["mx"] for r in rows)
    # interior edges of `bins` uniform bins over [gmin, gmax]
    fine = np.linspace(gmin, gmax, bins + 1)[1:-1]

    def bincounts(tbl: pa.Table) -> pa.Table:
        v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(fine, v, side="right")
        c = np.bincount(b, minlength=bins)
        return pa.table({"c": [c.astype(np.int64)]})

    crows = ds.map_batches(bincounts, batch_format="pyarrow").take_all()
    counts = np.sum([np.asarray(r["c"]) for r in crows], axis=0)
    # equi-depth edges: cut where cumulative count crosses i*n/P
    cum = np.cumsum(counts)
    targets = (np.arange(1, partitions) * n) // partitions
    edge_idx = np.unique(np.searchsorted(cum, targets, side="left"))
    edge_idx = edge_idx[edge_idx < bins - 1]
    part_edges = fine[edge_idx]  # interior partition edges (may dedupe)
    # exact per-partition counts from the fine histogram
    splits = np.concatenate([[0], edge_idx + 1, [bins]])
    pcounts = np.array([counts[a:b].sum()
                        for a, b in zip(splits[:-1], splits[1:])])
    offsets = np.concatenate([[0], np.cumsum(pcounts)[:-1]])

    def tag(tbl: pa.Table) -> pa.Table:
        v = tbl[col].to_numpy(zero_copy_only=False).astype(np.float64)
        p = np.searchsorted(part_edges, v, side="right")
        return tbl.append_column("__p", pa.array(p.astype(np.int64)))

    def rank_part(pdf: pd.DataFrame) -> pd.DataFrame:
        p = int(pdf["__p"].iloc[0])
        pdf = pdf.sort_values(order, kind="mergesort")
        pdf = pdf.drop(columns=["__p"])
        pdf[rank_col] = offsets[p] + 1 + np.arange(len(pdf), dtype=np.int64)
        return pdf

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__p").map_groups(rank_part, batch_format="pandas"))


def _bloom_positions(h: np.ndarray, nbits: int, k: int) -> np.ndarray:
    """(n, k) bit positions from one 64-bit hash per row (double hashing)."""
    h1 = h.astype(np.uint64)
    h2 = (h1 * np.uint64(0x9E3779B97F4A7C15)) ^ (h1 >> np.uint64(31))
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(nbits)).astype(np.int64)


def build_bloom(ds, key_cols: Sequence[str], nbits: int = 1 << 23,
                k: int = 4) -> np.ndarray:
    """Bloom filter of a Dataset's key values → packed uint64 bit array
    (nbits/64 words; 8 Mbit default ≈ 1 MB, FPR ≈ 2% at 1M keys).

    Per-block local blooms OR-merge on the driver — O(blocks) 1 MB blobs,
    never the keys themselves.  Broadcast the result once (``ray.put``) and
    prune the probe side of a join BEFORE its shuffle: rows whose keys are
    definitely absent never pay the exchange.  Conservative by
    construction — false positives only, so join results are identical."""
    keys = list(key_cols)
    words = nbits // 64

    def local(tbl: pa.Table) -> pa.Table:
        pdf = tbl.select(keys).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        bits = np.zeros(words, dtype=np.uint64)
        pos = _bloom_positions(h, nbits, k).reshape(-1)
        np.bitwise_or.at(bits, pos // 64,
                         np.uint64(1) << (pos % 64).astype(np.uint64))
        return pa.table({"b": pa.array([bits.tobytes()], type=pa.binary())})

    bloom = np.zeros(words, dtype=np.uint64)
    for r in ds.map_batches(local, batch_format="pyarrow").take_all():
        bloom |= np.frombuffer(r["b"], dtype=np.uint64)
    return bloom


def bloom_prefilter(ds, key_cols: Sequence[str], bloom_ref, nbits: int,
                    k: int = 4):
    """Drop rows whose keys are DEFINITELY not in the broadcast bloom
    (``ray.put(build_bloom(...))``).  Stateless vectorized map_batches."""
    import ray

    keys = list(key_cols)

    def keep(tbl: pa.Table) -> pa.Table:
        bloom = ray.get(bloom_ref)
        pdf = tbl.select(keys).to_pandas()
        h = pd.util.hash_pandas_object(pdf, index=False).to_numpy()
        pos = _bloom_positions(h, nbits, k)
        hit = (bloom[pos // 64] & (np.uint64(1) << (pos % 64).astype(np.uint64))
               ) != 0
        return tbl.filter(pa.array(hit.all(axis=1)))

    return ds.map_batches(keep, batch_format="pyarrow")


def ordered_prefix_sum(ds, order_col: str, value_col: str,
                       out_col: str = "prefix", exclusive: bool = True):
    """Distributed scan: cumulative sum of ``value_col`` under the GLOBAL
    order of ``order_col`` (which must be unique — verified).

    The classic two-pass prefix-sum: sort once (range-partitioned blocks),
    then (1) one streaming pass emits each block's (first key, last key,
    total) — O(blocks) driver rows; (2) the driver computes the exclusive
    block offsets (a scan over block TOTALS, thousands of entries for a
    100-TB input) and broadcasts the tiny first-key→offset map; (3) a
    second streaming pass adds the in-block cumsum to the block's offset.
    Values accumulate as int64 when integral (exact at any split)."""
    vt = next(f.type for f in _arrow_schema(ds) if f.name == value_col)
    if not pa.types.is_integer(vt):
        raise ValueError(f"{value_col} must be integer (got {vt}) — float "
                         "prefix sums are split-order dependent")
    S = ds.sort(order_col).materialize()

    def meta(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"first": pa.array([], pa.int64()),
                             "last": pa.array([], pa.int64()),
                             "total": pa.array([], pa.int64()),
                             "dups": pa.array([], pa.bool_())})
        k = tbl[order_col]
        kn = k.to_numpy(zero_copy_only=False)
        v = tbl[value_col].to_numpy(zero_copy_only=False)
        return pa.table({"first": [k[0].as_py()], "last": [k[-1].as_py()],
                         "total": [int(v.sum())],
                         "dups": [bool(len(np.unique(kn)) != len(kn))]})

    meta_parts = [t for t in
                  S.map_batches(meta, batch_size=None,
                                batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow") if t.num_columns]
    if not meta_parts:  # empty input: no blocks at all (tiny_sweep)
        meta_parts = [pa.table({"first": pa.array([], pa.int64()),
                                "last": pa.array([], pa.int64()),
                                "total": pa.array([], pa.int64()),
                                "dups": pa.array([], pa.bool_())})]
    mt = (pa.concat_tables(meta_parts).to_pandas()
          .sort_values("first").reset_index(drop=True))
    # uniqueness check: no in-block duplicates, disjoint ranges across blocks
    if mt["dups"].any() or (mt["first"].iloc[1:].to_numpy()
                            <= mt["last"].iloc[:-1].to_numpy()).any():
        raise ValueError(f"{order_col} values are not unique — a prefix "
                         "sum under a tied order is ambiguous")
    offsets = dict(zip(mt["first"],
                       np.concatenate([[0], mt["total"].cumsum()[:-1]])
                       .astype(np.int64)))
    import ray
    ref = ray.put(offsets)

    def scan(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column(out_col, pa.array([], pa.int64()))
        off = ray.get(ref)[tbl[order_col][0].as_py()]
        v = tbl[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        c = np.cumsum(v) + off
        return tbl.append_column(
            out_col, pa.array(c - v if exclusive else c))

    return S.map_batches(scan, batch_size=None, batch_format="pyarrow")


def cap_per_group(ds, group_col: str, id_col: str, n: int,
                  buckets: int = 32):
    """Deterministic per-group cap: keep at most ``n`` rows per group, the
    ones ranked first under the (stable_hash60(id), id) order — the
    domain-capping primitive of web-corpus prep ("at most N pages per
    host"), done as an UNBIASED deterministic sample rather than
    first-N-in-file order (file order correlates with crawl time).

    Scale: each block pre-selects its local top-``n`` per group, so the
    single groupby exchange moves ≤ blocks × groups_per_block × n NARROW
    (group, id, h) rows — never the payload, never more than n rows per
    group per block; the final per-group head-n runs where the group
    lands.  The hash order makes the result partition-invariant and
    bit-equal to a ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY h, id)``
    SQL twin (MD5-derived hash, DuckDB-reproducible —
    ``functions/hashing.py``).  Returns (group_col, id_col) winner rows;
    semi-join back by id for full payloads.
    """
    from ..functions.hashing import stable_hash60_array

    def partial(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash60_array([str(i) for i in ids])
        pdf = pd.DataFrame({group_col: tbl[group_col].to_numpy(
            zero_copy_only=False), id_col: ids, "__h": h})
        top = (pdf.sort_values([group_col, "__h", id_col],
                               kind="mergesort")
               .groupby(group_col, sort=False).head(n))
        return pa.Table.from_pandas(top, preserve_index=False)

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return (pdf.sort_values([group_col, "__h", id_col],
                                kind="mergesort")
                .groupby(group_col, sort=False).head(n)
                [[group_col, id_col]])

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group_col).map_groups(finish, batch_format="pandas"))


def deterministic_shuffle(ds, seed: int = 0, id_col: str = "doc_id",
                          out_col: str = "rank"):
    """Seeded deterministic GLOBAL permutation — the reproducible
    training-data shuffle: every row gets a contiguous 0-based ``rank``
    under the total order ``(stable_hash60(f"{seed}:{id}"), id)``.  The
    hash order decorrelates rank from ingest/crawl order; the id
    tie-break makes the permutation well-defined even under 60-bit hash
    collisions (guaranteed at 10⁹+ rows), so the result is bit-equal to
    the SQL ``ROW_NUMBER() OVER (ORDER BY h, id)`` twin at any
    partitioning and identical across reruns — shuffle epoch ``e`` is
    just ``seed=e``, no RNG state to checkpoint.

    Scale: ONE range-partitioned sort (the op's intrinsic all-to-all),
    then the two-pass rank attach — per-block (first key, count) metas
    fold to O(blocks) driver rows, exclusive offsets broadcast back, a
    second streaming pass adds ``offset + arange`` in place.  Only the
    narrow (h, id) columns plus payload move once."""
    from ..functions.hashing import stable_hash60_array

    def add_h(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash60_array([f"{seed}:{i}" for i in ids])
        return tbl.append_column("__h", pa.array(h))

    S = (ds.map_batches(add_h, batch_format="pyarrow")
         .sort(["__h", id_col]).materialize())

    def meta(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"fh": pa.array([], pa.int64()),
                             "fi": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"fh": [tbl["__h"][0].as_py()],
                         "fi": [tbl[id_col][0].as_py()],
                         "n": [tbl.num_rows]})

    mt = (pa.concat_tables(list(
        S.map_batches(meta, batch_size=None, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow"))).to_pandas()
        .sort_values(["fh", "fi"]).reset_index(drop=True))
    starts = np.concatenate([[0], np.cumsum(mt["n"].to_numpy())[:-1]])
    offsets = {(int(h), int(i)): int(s)
               for h, i, s in zip(mt["fh"], mt["fi"], starts)}

    import ray

    ref = ray.put(offsets)

    def attach(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column(out_col, pa.array([], pa.int64()))
        off = ray.get(ref)[(int(tbl["__h"][0].as_py()),
                            int(tbl[id_col][0].as_py()))]
        rank = off + np.arange(tbl.num_rows, dtype=np.int64)
        return tbl.append_column(out_col, pa.array(rank))

    return (S.map_batches(attach, batch_size=None, batch_format="pyarrow")
            .drop_columns(["__h"]))


def unpivot(ds, id_cols: Sequence[str], value_cols: Sequence[str],
            var_col: str = "variable", val_col: str = "value"):
    """Wide → long reshape (pandas ``melt`` / SQL ``UNPIVOT``), the
    inverse of :func:`pivot`: each input row emits one
    ``(*id_cols, variable, value)`` row per value column, variables in
    the given column order.  Values cast to float64 (one common type is
    the price of the long form, as in SQL).  Stateless map-only — blocks
    expand in place by ×len(value_cols), nothing shuffles."""
    ids = list(id_cols)
    vals = list(value_cols)

    def melt(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        cols: dict = {}
        for c in ids:
            a = tbl[c].to_numpy(zero_copy_only=False)
            cols[c] = pa.array(np.tile(a, len(vals)))
        cols[var_col] = pa.array(np.repeat(np.array(vals, dtype=object),
                                           n).reshape(len(vals), n)
                                 .ravel().tolist(), type=pa.string())
        cols[val_col] = pa.array(np.concatenate(
            [tbl[c].to_numpy(zero_copy_only=False).astype(np.float64)
             for c in vals]))
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def merge_into(base, changes, key_cols: Sequence[str],
               op_col: str = "op", buckets: int = 32):
    """Lakehouse ``MERGE INTO``: apply a change batch to a base table —
    a change row with ``op_col == 'U'`` UPSERTS (replaces the base row
    with its key, or inserts), ``'D'`` DELETES the key.  Change rows
    must share the base schema (plus ``op_col``) and carry at most one
    row per key (validated inside the buckets where the keys live —
    an ambiguous multi-row merge raises, the SQL-standard rule).

    Plan: base anti-joins the change KEYS (one bucket shuffle each side,
    the `hash_join(how='anti')` path — nothing broadcast, nothing
    driver-held) and unions the upsert rows back map-only.  Returns a
    Dataset with the base schema."""
    keys = list(key_cols)
    base_cols = [f.name for f in _arrow_schema(base)]

    def validate(pdf):
        import pandas as pd  # noqa: F401

        bad = ~pdf[op_col].isin(("U", "D"))
        if bad.any():
            raise ValueError(
                "merge_into: unknown op code(s) "
                f"{sorted(set(pdf[op_col][bad]))[:3]} — only 'U' "
                "(upsert) and 'D' (delete) are defined")
        if pdf[keys].duplicated().any():
            dup = pdf[pdf[keys].duplicated(keep=False)][keys]
            raise ValueError(
                "merge_into: multiple change rows for key(s) "
                f"{dup.drop_duplicates().to_dict('records')[:3]} — a "
                "merge must be unambiguous (one change per key)")
        return pdf

    def add_bucket(pdf):
        h = pd.util.hash_pandas_object(pdf[keys], index=False).to_numpy()
        pdf = pdf.copy()
        pdf["__b"] = (h % np.uint64(buckets)).astype(np.int64)
        return pdf

    chg = (changes.map_batches(add_bucket, batch_format="pandas")
           .groupby("__b")
           .map_groups(lambda p: validate(p).drop(columns="__b"),
                       batch_format="pandas")
           .materialize())
    chg_keys = chg.map_batches(lambda t: t.select(keys),
                               batch_format="pyarrow")
    survivors = hash_join(base, chg_keys,
                          keys, keys, buckets=buckets, how="anti")

    def upserts(pdf):
        out = pdf[pdf[op_col] == "U"][base_cols]
        return out

    ups = chg.map_batches(upserts, batch_format="pandas")
    return survivors.union(ups)


def ordered_prefix_min(ds, order_col: str, value_col: str,
                       out_col: str = "prefix_min"):
    """Distributed INCLUSIVE prefix-minimum under the global order of
    ``order_col`` (unique, verified) — `ordered_prefix_sum`'s sibling
    for the other classic associative scan (min is idempotent, so the
    block-offset algebra is even simpler): pass 1 emits each block's
    (first, last, min) — O(blocks) driver rows; the driver prefix-mins
    the block minima into per-block offsets; pass 2 combines each
    block's running min with its offset.  Integer-only by the same
    split-order contract."""
    vt = next(f.type for f in _arrow_schema(ds) if f.name == value_col)
    if not pa.types.is_integer(vt):
        raise ValueError(f"{value_col} must be integer (got {vt})")
    S = ds.sort(order_col).materialize()

    def meta(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"first": pa.array([], pa.int64()),
                             "last": pa.array([], pa.int64()),
                             "mn": pa.array([], pa.int64()),
                             "dups": pa.array([], pa.bool_())})
        k = tbl[order_col]
        kn = k.to_numpy(zero_copy_only=False)
        v = tbl[value_col].to_numpy(zero_copy_only=False)
        return pa.table({"first": [k[0].as_py()], "last": [k[-1].as_py()],
                         "mn": [int(v.min())],
                         "dups": [bool(len(np.unique(kn)) != len(kn))]})

    meta_parts = [t for t in
                  S.map_batches(meta, batch_size=None,
                                batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow") if t.num_columns]
    if not meta_parts:  # empty input: no blocks at all (tiny_sweep)
        meta_parts = [pa.table({"first": pa.array([], pa.int64()),
                                "last": pa.array([], pa.int64()),
                                "mn": pa.array([], pa.int64()),
                                "dups": pa.array([], pa.bool_())})]
    mt = (pa.concat_tables(meta_parts).to_pandas()
          .sort_values("first").reset_index(drop=True))
    if mt["dups"].any() or (mt["first"].iloc[1:].to_numpy()
                            <= mt["last"].iloc[:-1].to_numpy()).any():
        raise ValueError(f"{order_col} values are not unique — a prefix "
                         "min under a tied order is ambiguous")
    mins = mt["mn"].to_numpy()
    offs = np.concatenate(
        [[np.iinfo(np.int64).max],
         np.minimum.accumulate(mins)[:-1]]).astype(np.int64)
    offsets = dict(zip(mt["first"], offs))
    import ray
    ref = ray.put(offsets)

    def scan(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column(out_col, pa.array([], pa.int64()))
        off = ray.get(ref)[tbl[order_col][0].as_py()]
        v = tbl[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        c = np.minimum(np.minimum.accumulate(v), off)
        return tbl.append_column(out_col, pa.array(c))

    return S.map_batches(scan, batch_size=None, batch_format="pyarrow")
