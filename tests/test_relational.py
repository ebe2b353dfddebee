"""Partitioned hash join, salted aggregation, skew behavior,
hypothesis-based algebra properties, sessionization, exact
distinct-per-group, grouped/global quantiles and heavy hitters."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from diffdataflowmlpipelines_ray.stages.relational import (
    distinct_count_per_group,
    hash_join,
    salted_two_phase_sum,
    sessionize,
)
from diffdataflowmlpipelines_ray.state.aggregates import (
    MeanVarAgg,
    MinMaxAgg,
    PositionAssignmentAgg,
)


class TestHashJoin:
    def test_matches_pandas_merge(self, ray_session):
        rng = np.random.default_rng(0)
        left = pa.table({"lk": rng.integers(0, 50, 300),
                         "lval": np.arange(300)})
        right = pa.table({"rk": rng.integers(0, 50, 200),
                          "rval": np.arange(200) * 2})
        out = hash_join(rd.from_arrow(left).repartition(3),
                        rd.from_arrow(right).repartition(2),
                        ["lk"], ["rk"], buckets=8).to_pandas()
        exp = left.to_pandas().merge(right.to_pandas(), left_on="lk", right_on="rk")
        key = ["lk", "lval", "rval"]
        a = out[key].sort_values(key).reset_index(drop=True).astype(np.int64)
        b = exp[key].sort_values(key).reset_index(drop=True).astype(np.int64)
        pd.testing.assert_frame_equal(a, b)

    def test_overlapping_columns_rejected(self, ray_session):
        ds = rd.from_arrow(pa.table({"k": [1], "v": [2]}))
        with pytest.raises(ValueError, match="rename overlapping"):
            hash_join(ds, ds, ["k"], ["k"])

    @pytest.mark.parametrize("how", ["left", "outer"])
    def test_left_outer_match_pandas(self, ray_session, how):
        rng = np.random.default_rng(1)
        # disjoint key tails on both sides force unmatched rows each way
        left = pa.table({"lk": rng.integers(0, 40, 300),
                         "lval": np.arange(300)})
        right = pa.table({"rk": rng.integers(20, 60, 200),
                          "rval": np.arange(200) * 2})
        out = hash_join(rd.from_arrow(left).repartition(3),
                        rd.from_arrow(right).repartition(2),
                        ["lk"], ["rk"], buckets=8, how=how).to_pandas()
        exp = left.to_pandas().merge(right.to_pandas(),
                                     left_on="lk", right_on="rk", how=how)
        key = ["lk", "lval", "rk", "rval"]
        # null-padded int columns: engine emits Int64, pandas merge float64;
        # fillna(-1) (all real values >= 0) so NaN rows sort deterministically
        a = (out[key].astype("Float64").fillna(-1.0)
             .sort_values(key).reset_index(drop=True))
        b = (exp[key].astype("Float64").fillna(-1.0)
             .sort_values(key).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        if how == "left":
            assert len(out) >= 300  # every left row survives
            assert out["rval"].isna().any()
        else:
            assert out["lval"].isna().any() and out["rval"].isna().any()

    def test_left_join_int_columns_stay_int(self, ray_session):
        left = rd.from_arrow(pa.table({"lk": [1, 2], "lval": [10, 20]}))
        right = rd.from_arrow(pa.table({"rk": [1], "rval": [7]}))
        out = hash_join(left, right, ["lk"], ["rk"], how="left")
        t = pa.concat_tables(
            [b for b in out.iter_batches(batch_format="pyarrow")],
            promote_options="default")
        assert pa.types.is_integer(t.schema.field("rval").type)


class TestGlobalRank:
    def test_matches_lexsort(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import global_rank
        rng = np.random.default_rng(7)
        # heavy duplication: 5000 rows over only 40 distinct values, plus a
        # hot value owning ~25% of rows (equal values must co-locate)
        v = rng.integers(0, 40, 5000).astype(np.float64)
        v[rng.random(5000) < 0.25] = 17.0
        ids = rng.permutation(5000)
        ds = rd.from_arrow(pa.table({"id": ids, "v": v})).repartition(6)
        out = global_rank(ds, "v", tiebreak=["id"], partitions=8).to_pandas()
        order = np.lexsort((ids, v))
        exp = pd.DataFrame({"id": ids[order],
                            "rnk": np.arange(1, 5001, dtype=np.int64)})
        got = out.sort_values("rnk").reset_index(drop=True)
        assert (got["id"].to_numpy() == exp["id"].to_numpy()).all()
        assert (got["rnk"].to_numpy() == exp["rnk"].to_numpy()).all()

    def test_empty_input(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import global_rank
        ds = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                     "v": pa.array([], pa.float64())}))
        assert global_rank(ds, "v").count() == 0


class TestSkew:
    def test_salted_sum_hot_key(self, ray_session):
        # 90% of rows share one key (the skew variant of FIXTURES F0)
        n = 20000
        keys = np.where(np.arange(n) % 10 < 9, "web", "code")
        vals = np.ones(n)
        ds = rd.from_arrow(pa.table({"source": keys, "x": vals})).repartition(8)
        out = salted_two_phase_sum(ds, ["source"], "x").set_index("source")
        assert out.loc["web", "sum"] == 18000.0
        assert out.loc["code", "count"] == 2000
        # the shuffle moved only (key, salt) partials: ≤ blocks × salts × keys
        # rows, never the 20k raw rows — structural property of the two-phase
        # plan (documented in stages/relational.py)

    def test_skewed_streaming_aggregate(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation,
            StreamSession,
        )

        n = 5000
        keys = np.where(np.arange(n) % 10 < 9, 1, 2)  # hot user 1
        tbl = pa.table({"user_id": keys, "value": np.ones(n)})
        sess = StreamSession(tmp_path / "skew", num_shards=4)
        sess.add(KeyedAggregation(name="g", input="e", key_cols=["user_id"],
                                  value_col="value", aggs=("count", "sum")))
        for e in range(4):
            sess.process_epoch(e, {"e": tbl.slice(e * 1250, 1250)})
        got = sess.state_table("g").to_pandas().set_index("user_id")
        sess.store.shutdown()
        assert got.loc[1, "count"] == 4500
        assert got.loc[2, "count"] == 500


# ---------------------------------------------------------------- hypothesis
floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestAlgebraProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=30),
           st.lists(floats, min_size=1, max_size=30))
    def test_meanvar_merge_commutes(self, xs, ys):
        a = MeanVarAgg.from_numpy(np.array(xs))
        b = MeanVarAgg.from_numpy(np.array(ys))
        ab = a.merged(b)
        ba = b.merged(a)
        assert ab.count == ba.count
        assert ab.mean == pytest.approx(ba.mean, rel=1e-9, abs=1e-9)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-6, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=30),
           st.lists(floats, min_size=0, max_size=30))
    def test_meanvar_insert_then_retract_is_identity(self, xs, ys):
        base = MeanVarAgg.from_numpy(np.array(xs))
        if not ys:
            return
        extra = MeanVarAgg.from_numpy(np.array(ys))
        roundtrip = base.merged(extra).merged(extra.negated())
        assert roundtrip.count == base.count
        assert roundtrip.mean == pytest.approx(base.mean, rel=1e-6, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(floats, st.integers(-3, 3)), min_size=1,
                    max_size=20))
    def test_minmax_matches_bruteforce(self, items):
        agg = MinMaxAgg()
        counts: dict = {}
        for v, c in items:
            agg.merge(MinMaxAgg.of(v, c))
            counts[v] = counts.get(v, 0) + c
        live = [v for v, c in counts.items() if c > 0]
        if not live:
            with pytest.raises(ValueError):
                agg.get()
        else:
            mn, rng_ = agg.get()
            assert mn == min(live)
            # the reference exposes (min, range), not max
            # (minmax_scaler.rs:35-47) — compare the same expression
            assert rng_ == max(live) - min(live)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30))
    def test_position_assignment_slots_injective(self, values):
        agg = PositionAssignmentAgg()
        for v in values:
            agg.merge(PositionAssignmentAgg.of_value(v, 1))
        m, length = agg.get_map_and_len()
        assert set(m.keys()) == set(values)
        assert len(set(m.values())) == len(m)  # injective slots
        assert length >= len(m)
        assert all(0 <= s < length for s in m.values())


class TestIterate:
    def test_components_match_union_find(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import connected_components
        from diffdataflowmlpipelines_ray.stages.dedup import union_find_components

        rng = np.random.default_rng(4)
        edges = pa.table({
            "id_lo": rng.integers(0, 200, 150),
            "id_hi": rng.integers(0, 200, 150),
        })
        got = connected_components(edges)
        comp = dict(zip(got["id"].to_pylist(), got["component"].to_pylist()))
        uf = union_find_components(
            list(zip(edges["id_lo"].to_pylist(), edges["id_hi"].to_pylist()))
        )
        # same partition: two nodes share a component iff union-find agrees
        nodes = list(comp)
        for a in nodes[:50]:
            for b in nodes[:50]:
                assert (comp[a] == comp[b]) == (uf[a] == uf[b])
        # labels are the component minimum
        for n, c in comp.items():
            assert c <= n

    def test_fixpoint_on_dataset_input(self, ray_session):
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages.iterate import connected_components

        edges = pa.table({"id_lo": [1, 2, 10], "id_hi": [2, 3, 11]})
        got = connected_components(rd.from_arrow(edges))
        comp = dict(zip(got["id"].to_pylist(), got["component"].to_pylist()))
        assert comp[1] == comp[2] == comp[3] == 1
        assert comp[10] == comp[11] == 10

    def test_empty_edges(self):
        from diffdataflowmlpipelines_ray.stages.iterate import connected_components

        out = connected_components(pa.table({"id_lo": pa.array([], type=pa.int64()),
                                             "id_hi": pa.array([], type=pa.int64())}))
        assert out.num_rows == 0


class TestSketches:
    def test_hll_accuracy(self):
        from diffdataflowmlpipelines_ray.state.sketches import HyperLogLog

        rng = np.random.default_rng(1)
        true_n = 150_000
        hashes = rng.integers(0, 2**64, true_n, dtype=np.uint64)
        hll = HyperLogLog(p=14)
        hll.add_hashes(hashes)
        est = hll.estimate()
        assert abs(est - true_n) / true_n < 0.05  # ~1.04/sqrt(2^14) ≈ 0.8%

    def test_hll_merge_equals_union(self):
        from diffdataflowmlpipelines_ray.state.sketches import HyperLogLog

        rng = np.random.default_rng(2)
        a_h = rng.integers(0, 2**64, 40_000, dtype=np.uint64)
        b_h = rng.integers(0, 2**64, 40_000, dtype=np.uint64)
        a = HyperLogLog(12).add_hashes(a_h)
        b = HyperLogLog(12).add_hashes(b_h)
        merged = a.merged(b)
        union = HyperLogLog(12).add_hashes(np.concatenate([a_h, b_h]))
        assert (merged.registers == union.registers).all()

    def test_approx_distinct_dataset(self, ray_session):
        from diffdataflowmlpipelines_ray.state.sketches import approx_distinct

        tbl = pa.table({"k": np.arange(50_000) % 20_000})
        est = approx_distinct(rd.from_arrow(tbl).repartition(4), "k")
        assert abs(est - 20_000) / 20_000 < 0.05

    def test_small_range_linear_counting(self):
        from diffdataflowmlpipelines_ray.state.sketches import HyperLogLog

        h = np.arange(1, 101, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        est = HyperLogLog(14).add_hashes(h).estimate()
        assert abs(est - 100) < 5

    def test_histogram_quantiles(self, ray_session):
        from diffdataflowmlpipelines_ray.state.sketches import approx_quantiles

        rng = np.random.default_rng(5)
        vals = rng.normal(100.0, 15.0, 200_000)
        ds = rd.from_arrow(pa.table({"x": vals})).repartition(6)
        qs = approx_quantiles(ds, "x", [0.1, 0.5, 0.9], bins=4096)
        exact = np.quantile(vals, [0.1, 0.5, 0.9])
        for got, exp in zip(qs, exact):
            assert abs(got - exp) < (vals.max() - vals.min()) / 4096 * 3


class TestRayAggregateBridge:
    def test_chan_meanvar_groupby(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.ray_aggregates import (
            ChanMeanVar,
            MinMaxRange,
        )

        rng = np.random.default_rng(0)
        tbl = pa.table({"g": rng.integers(0, 3, 900),
                        "x": rng.normal(10, 2, 900)})
        out = (rd.from_arrow(tbl).repartition(4).groupby("g")
               .aggregate(ChanMeanVar("x", alias_name="mv"),
                          MinMaxRange("x", alias_name="mm"))
               .to_pandas().set_index("g").sort_index())
        pdf = tbl.to_pandas()
        for g in range(3):
            sub = pdf[pdf.g == g].x
            assert out.loc[g, "mv"]["mean"] == pytest.approx(sub.mean())
            assert out.loc[g, "mv"]["var"] == pytest.approx(sub.var(ddof=0))
            assert out.loc[g, "mm"]["min"] == sub.min()
            assert out.loc[g, "mm"]["range"] == pytest.approx(sub.max() - sub.min())

    def test_approx_distinct_groupby(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.ray_aggregates import ApproxDistinct

        tbl = pa.table({"g": np.arange(40_000) % 2,
                        "k": (np.arange(40_000) // 2) % 5_000})
        out = (rd.from_arrow(tbl).repartition(4).groupby("g")
               .aggregate(ApproxDistinct("k", p=14, alias_name="ad"))
               .to_pandas())
        for v in out["ad"]:
            assert abs(v - 5000) / 5000 < 0.05


class TestAsofJoin:
    def test_backward_matches_merge_asof(self, ray_session):
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages.relational import asof_join

        rng = np.random.default_rng(11)
        n = 400
        left = pa.table({"k": rng.integers(0, 8, n),
                         "lt": np.round(rng.uniform(0, 100, n), 3)})
        right = pa.table({"k": rng.integers(0, 8, n),
                          "rt": np.round(rng.uniform(0, 100, n), 3),
                          "val": rng.integers(0, 1000, n)})
        got = asof_join(rd.from_arrow(left).repartition(3),
                        rd.from_arrow(right).repartition(3),
                        ["k"], left_ts="lt", right_ts="rt").to_pandas()
        lp = left.to_pandas().sort_values("lt")
        rp = right.to_pandas().sort_values("rt")
        exp = pd.merge_asof(lp, rp, left_on="lt", right_on="rt", by="k",
                            direction="backward")
        exp = exp[exp["rt"].notna()]
        g = got.sort_values(["k", "lt", "rt"]).reset_index(drop=True)
        e = exp.sort_values(["k", "lt", "rt"]).reset_index(drop=True)
        assert len(g) == len(e)
        pd.testing.assert_frame_equal(
            g[["k", "lt", "rt", "val"]], e[["k", "lt", "rt", "val"]],
            check_dtype=False,
        )

    def test_forward_direction(self, ray_session):
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages.relational import asof_join

        left = pa.table({"k": [1, 1], "lt": [5.0, 50.0]})
        right = pa.table({"k": [1, 1], "rt": [10.0, 40.0], "v": [7, 8]})
        got = asof_join(rd.from_arrow(left), rd.from_arrow(right), ["k"],
                        left_ts="lt", right_ts="rt",
                        direction="forward").to_pandas()
        got = got.sort_values("lt").reset_index(drop=True)
        # 5.0 → next right at 10.0 (v=7); 50.0 → no later right row
        assert len(got) == 1
        assert got.iloc[0]["v"] == 7


class TestRangeJoinAndRolling:
    def test_range_join_counts_match_bruteforce(self, ray_session, tmp_path):
        # mirror the q_range_join shape on a tiny controlled input
        import pyarrow as pa
        from diffdataflowmlpipelines_ray.pipelines.queries import q_range_join

        # run on real sf0.001 data against a pandas brute force
        sf = "/root/testdata/sf0.001"
        got = q_range_join(sf).sort_values(
            ["user_id", "error_ts"]).reset_index(drop=True)
        import pyarrow.parquet as pq

        ev = pq.read_table(f"{sf}/events.parquet",
                           columns=["user_id", "event_type", "ts"]).to_pandas()
        ev["t"] = ev["ts"].astype("datetime64[us]").astype(np.int64) / 1e6
        exp_rows = []
        for _, e in ev[ev["event_type"] == "error"].iterrows():
            clicks = ev[(ev["event_type"] == "click")
                        & (ev["user_id"] == e["user_id"])
                        & (ev["t"] > e["t"]) & (ev["t"] <= e["t"] + 3600.0)]
            exp_rows.append((e["user_id"], round(e["t"], 6), len(clicks)))
        exp = pd.DataFrame(exp_rows,
                           columns=["user_id", "error_ts", "n_clicks_1h"]) \
            .sort_values(["user_id", "error_ts"]).reset_index(drop=True)
        assert len(got) == len(exp)
        assert (got["n_clicks_1h"].to_numpy()
                == exp["n_clicks_1h"].to_numpy()).all()

    def test_rolling_is_leakage_free(self, ray_session):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            q_rolling_features,
        )

        df = q_rolling_features("/root/testdata/sf0.001")
        one = df[df["user_id"] == df["user_id"].iloc[0]].sort_values("ts")
        # lag1 at each row equals... no future information: the first row of
        # every user has no lag value
        firsts = df.sort_values("ts").groupby("user_id").head(1)
        assert firsts["lag1"].isna().all()
        # trailing mean is bounded by the min/max of values seen so far —
        # weak but structural; exactness is oracle-gated
        assert one["mean5"].notna().all()


class TestBloomPrefilter:
    def test_no_false_negatives_and_join_identical(self, ray_session):
        import ray
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages.relational import (
            bloom_prefilter,
            build_bloom,
            hash_join,
        )

        rng = np.random.default_rng(8)
        left = pd.DataFrame({"k": rng.integers(0, 100_000, 20_000),
                             "lv": np.arange(20_000)})
        right = pd.DataFrame({"rk": rng.integers(0, 500, 300),
                              "rv": np.arange(300)})
        lds = rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False))
        rds = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False))
        bloom = build_bloom(rds, ["rk"], nbits=1 << 16)
        ref = ray.put(bloom)
        pruned = bloom_prefilter(lds, ["k"], ref, nbits=1 << 16)
        # no false negatives: every true match key survives the prefilter
        matches = set(left["k"]) & set(right["rk"])
        kept = set(pruned.to_pandas()["k"])
        assert matches <= kept
        # prefilter actually prunes (most of the 100k key space misses)
        assert len(kept) < len(set(left["k"]))
        # join after prefilter == join without
        a = (hash_join(pruned, rds, ["k"], ["rk"], buckets=8).to_pandas()
             .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
        b = (hash_join(lds, rds, ["k"], ["rk"], buckets=8).to_pandas()
             .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)


    def test_bloom_semi_join_query_matches_plain_semi(self, ray_session):
        """The gate query's bloom-prefiltered plan must equal the plain
        semi-join plan (bloom false positives are killed by the exact
        join, false negatives are impossible)."""
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _read,
            q_bloom_semi_join,
        )
        from diffdataflowmlpipelines_ray.stages.relational import hash_join

        sf = "/root/testdata/sf0.001"
        got = q_bloom_semi_join(sf)
        orders = _read(sf, "orders", ["o_orderkey", "o_orderpriority"])
        urgent = orders.map_batches(
            lambda b: b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
                       .select(["o_orderkey"]),
            batch_format="pyarrow")
        li = _read(sf, "lineitem",
                   ["l_orderkey", "l_returnflag", "l_quantity"])
        plain = (hash_join(li, urgent, ["l_orderkey"], ["o_orderkey"],
                           how="semi").to_pandas()
                 .groupby("l_returnflag", as_index=False)
                 .agg(cnt=("l_quantity", "size"),
                      sum_qty=("l_quantity", "sum"))
                 .sort_values("l_returnflag").reset_index(drop=True))
        plain["cnt"] = plain["cnt"].astype(np.int64)
        pd.testing.assert_frame_equal(got, plain)


class TestJoin64BitKeys:
    """Regression: the union null-padding used to convert int/uint64
    columns to float64 inside join_bucket, silently corrupting keys above
    2^53 (semi joins lost ~all matches on hash keys).  Sides are now split
    in Arrow before pandas sees them."""

    def _sides(self):
        rng = np.random.default_rng(3)
        # keys far above 2^53 so any float64 round trip changes them
        keys = rng.integers(2**63, 2**64, 500, dtype=np.uint64)
        left = pa.table({"k": pa.array(keys),
                         "lv": pa.array(np.arange(500, dtype=np.int64))})
        right_keys = keys[::2]  # every other key matches
        right = pa.table({"rk": pa.array(right_keys),
                          "rv": pa.array(np.arange(250, dtype=np.int64))})
        return (rd.from_arrow(left).repartition(4),
                rd.from_arrow(right).repartition(3), keys, right_keys)

    def test_semi_anti_exact_on_huge_uint64(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import hash_join

        lds, rds, keys, rkeys = self._sides()
        semi = hash_join(lds, rds, ["k"], ["rk"], how="semi").to_pandas()
        anti = hash_join(lds, rds, ["k"], ["rk"], how="anti").to_pandas()
        assert len(semi) == 250 and len(anti) == 250
        assert semi["k"].dtype == np.uint64  # no float degradation
        assert set(semi["k"].to_numpy(dtype=np.uint64)) == set(rkeys)
        assert set(anti["k"].to_numpy(dtype=np.uint64)) == set(keys[1::2])

    def test_left_join_values_exact_on_huge_uint64(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import hash_join

        lds, rds, keys, rkeys = self._sides()
        out = hash_join(lds, rds, ["k"], ["rk"], how="left").to_pandas()
        assert len(out) == 500
        matched = out[out["rv"].notna()]
        assert len(matched) == 250
        # the key columns survive bit-exact (UInt64, not via float64)
        got = matched["k"].to_numpy(dtype=np.uint64)
        assert set(got) == set(rkeys)


class TestAdviceR3Fixes:
    """Regression tests for the round-3 ADVICE findings."""

    def test_running_total_cents_half_away(self, ray_session):
        # 0.125 → 12.5 cents sits EXACTLY on the .5 boundary: DuckDB ROUND
        # gives 13, banker's np.round gives 12 — the oracle mismatch the
        # advice flagged.  Both rows share one key so the cumsum exposes it.
        from diffdataflowmlpipelines_ray.stages.relational import running_total

        ds = rd.from_arrow(pa.table({
            "k": ["a", "a"], "ts": [1.0, 2.0], "v": [0.125, 0.125]}))
        out = running_total(ds, ["k"], "ts", "v").to_pandas()
        out = out.sort_values("ts")
        assert out["running"].tolist() == [0.13, 0.26]

    def test_comoment_fully_retracted_get_is_nan(self):
        from diffdataflowmlpipelines_ray.state.aggregates import CoMomentAgg

        x = np.array([1.0, 2.0, 3.0]); y = np.array([2.0, 1.0, 5.0])
        acc = CoMomentAgg.from_numpy(x, y)
        neg = CoMomentAgg.from_numpy(x, y)
        neg.negate()
        acc.merge(neg)
        g = acc.get()          # must not raise ZeroDivisionError
        assert g["n"] == 0
        for f in ("covar", "corr", "slope", "intercept"):
            assert np.isnan(g[f])

    def test_heavy_hitters_null_values_excluded(self, ray_session):
        from diffdataflowmlpipelines_ray.state.sketches import heavy_hitters

        # nulls outnumber every real value; they must neither corrupt the
        # proof bound U nor appear as a winner
        vals = ["a"] * 30 + ["b"] * 20 + ["c"] * 5 + [None] * 100
        ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(4)
        got = heavy_hitters(ds, "v", k=2, m=64)
        assert got["v"].tolist() == ["a", "b"]
        assert got["cnt"].tolist() == [30, 20]

    def test_standard_scaler_constant_column_no_warning(self, ray_session):
        import warnings

        from diffdataflowmlpipelines_ray.stages.encoders import StandardScaler

        ds = rd.from_arrow(pa.table({"x": [5.0] * 10}))
        sc = StandardScaler().fit(ds, "x")
        tbl = pa.table({"x": [5.0, 6.0, 4.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # any RuntimeWarning → fail
            out = sc.transform_table(tbl, "x", "y")
        y = out["y"].to_numpy(zero_copy_only=False)
        assert np.isnan(y[0])                  # x == mean → 0/0
        assert y[1] == np.inf and y[2] == -np.inf


class TestCCTwoLevel:
    """connected_components_ds = local contraction + stitch + tiered
    resolve; both tiers must equal the driver algorithm."""

    def _random_edges(self, n_nodes=300, n_edges=400, seed=11):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        hi = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        keep = lo != hi
        return pa.table({"id_lo": pa.array(lo[keep]),
                         "id_hi": pa.array(hi[keep])})

    def test_driver_tier_equals_driver_algorithm(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components, connected_components_ds)

        edges = self._random_edges()
        want = connected_components(edges).to_pandas()
        got = connected_components_ds(
            rd.from_arrow(edges).repartition(7)).to_pandas()
        pd.testing.assert_frame_equal(got, want)

    def test_rounds_tier_equals_driver_algorithm(self, ray_session,
                                                 monkeypatch):
        # small graph: the rounds tier costs multiple Ray executions per
        # round, so keep the contracted graph's diameter tiny
        from diffdataflowmlpipelines_ray.stages import iterate as it

        monkeypatch.setattr(it, "_CC_STITCH_DRIVER_MAX", 0)
        edges = self._random_edges(n_nodes=40, n_edges=50, seed=12)
        want = it.connected_components(edges).to_pandas()
        got = it.connected_components_ds(
            rd.from_arrow(edges).repartition(3), buckets=2).to_pandas()
        pd.testing.assert_frame_equal(got, want)

    def test_no_stitch_needed(self, ray_session):
        # components fully inside one block: stitch graph is empty
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components, connected_components_ds)

        edges = pa.table({"id_lo": [1, 2, 10], "id_hi": [2, 3, 11]})
        want = connected_components(edges).to_pandas()
        got = connected_components_ds(edges).to_pandas()
        pd.testing.assert_frame_equal(got, want)


class TestGroupedMad:
    def test_matches_numpy(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import grouped_mad

        rng = np.random.default_rng(5)
        g = rng.choice(["a", "b", "c"], 500)
        v = rng.normal(size=500) * 10
        ds = rd.from_arrow(pa.table({"g": g, "v": v})).repartition(4)
        out = grouped_mad(ds, ["g"], "v").set_index("g")["mad"]
        for key in "abc":
            x = v[g == key]
            med = np.quantile(x, 0.5)
            want = np.quantile(np.abs(x - med), 0.5)
            assert out[key] == pytest.approx(want, rel=1e-12)


class TestTriangleCount:
    def test_matches_adjacency_cube(self, ray_session):
        """trace(A³)/6 on a random graph — independent linear-algebra
        reference for the degree-oriented wedge+semi-join plan."""
        from diffdataflowmlpipelines_ray.stages.iterate import triangle_count

        rng = np.random.default_rng(9)
        n = 100
        A = np.triu(rng.random((n, n)) < 0.1, 1)
        A = A | A.T
        want = int(np.trace(np.linalg.matrix_power(
            A.astype(np.int64), 3)) // 6)
        iu, ju = np.where(np.triu(A, 1))
        ds = rd.from_arrow(pa.table({
            "u": pa.array(iu.astype(np.int64)),
            "v": pa.array(ju.astype(np.int64))})).repartition(6)
        assert triangle_count(ds) == want
        assert want > 50  # the graph genuinely has triangles

    def test_triangle_free_and_complete(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import triangle_count

        # star graph: no triangles
        star = rd.from_arrow(pa.table({
            "u": pa.array(np.zeros(10, dtype=np.int64)),
            "v": pa.array(np.arange(1, 11, dtype=np.int64))}))
        assert triangle_count(star) == 0
        # K5: C(5,3) = 10 triangles
        iu, ju = np.triu_indices(5, 1)
        k5 = rd.from_arrow(pa.table({
            "u": pa.array(iu.astype(np.int64)),
            "v": pa.array(ju.astype(np.int64))})).repartition(3)
        assert triangle_count(k5) == 10

    def test_closure_tiers_equal(self, ray_session):
        # broadcast-edge-set tier vs the partitioned semi-join tier
        from diffdataflowmlpipelines_ray.stages.iterate import triangle_count

        rng = np.random.default_rng(13)
        n = 80
        A = np.triu(rng.random((n, n)) < 0.12, 1)
        A = A | A.T
        iu, ju = np.where(np.triu(A, 1))
        mk = lambda: rd.from_arrow(pa.table({
            "u": pa.array(iu.astype(np.int64)),
            "v": pa.array(ju.astype(np.int64))})).repartition(4)
        assert (triangle_count(mk())
                == triangle_count(mk(), edge_broadcast_limit=0)
                == int(np.trace(np.linalg.matrix_power(
                    A.astype(np.int64), 3)) // 6))


class TestOrderedPrefixSum:
    def test_scan_exact_and_split_invariant(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            ordered_prefix_sum,
        )

        rng = np.random.default_rng(2)
        ids = rng.permutation(5000).astype(np.int64)
        vals = rng.integers(0, 100, 5000).astype(np.int64)
        order = np.argsort(ids)
        want_ex = np.concatenate([[0], np.cumsum(vals[order])[:-1]])
        for nblocks in (1, 7):
            ds = (rd.from_arrow(pa.table({"id": pa.array(ids),
                                          "v": pa.array(vals)}))
                  .repartition(nblocks))
            out = (ordered_prefix_sum(ds, "id", "v", exclusive=True)
                   .to_pandas().sort_values("id"))
            assert np.array_equal(out["prefix"].to_numpy(), want_ex)
            inc = (ordered_prefix_sum(ds, "id", "v", exclusive=False)
                   .to_pandas().sort_values("id"))
            assert np.array_equal(inc["prefix"].to_numpy(),
                                  np.cumsum(vals[order]))

    def test_duplicate_order_keys_raise(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            ordered_prefix_sum,
        )

        dup = rd.from_arrow(pa.table({
            "id": pa.array(np.zeros(100, np.int64)),
            "v": pa.array(np.ones(100, np.int64))})).repartition(4)
        with pytest.raises(ValueError, match="not unique"):
            ordered_prefix_sum(dup, "id", "v").to_pandas()

    def test_float_values_rejected(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            ordered_prefix_sum,
        )

        ds = rd.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64()),
                                     "v": pa.array([1.5, 2.5])}))
        with pytest.raises(ValueError, match="must be integer"):
            ordered_prefix_sum(ds, "id", "v")


def test_chained_hash_join_preserves_int_dtypes(ray_session):
    """Regression: Ray emits zero-column empty blocks for empty sort
    partitions; a second join shuffling those alongside typed PANDAS
    blocks NaN-promoted int64 keys to float64 — bucket hashes then
    diverged between sides and the chained join matched NOTHING (caught
    by the k-core peel).  join_bucket now returns fixed-schema Arrow."""
    import ray.data as rd

    from diffdataflowmlpipelines_ray.stages.relational import hash_join

    E = rd.from_arrow(pa.table(
        {"u": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
         "v": pa.array([2, 3, 4, 5, 6], type=pa.int64())})).repartition(2)
    live = rd.from_arrow(pa.table({"id": pa.array([2, 3, 4],
                                                  type=pa.int64())}))
    j2 = hash_join(hash_join(E, live, ["u"], ["id"], buckets=8, how="semi"),
                   live, ["v"], ["id"], buckets=8, how="semi").materialize()
    for b in j2.iter_batches(batch_format="pyarrow", batch_size=None):
        assert all(str(t) == "int64" for t in b.schema.types), b.schema
    got = sorted(map(tuple, j2.to_pandas().to_numpy()))
    assert got == [(2, 3), (3, 4)]


class TestDeterministicShuffle:
    def test_permutation_partition_invariant(self, ray_session):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.functions.hashing import (
            stable_hash60,
        )
        from diffdataflowmlpipelines_ray.stages.relational import (
            deterministic_shuffle,
        )

        ids = list(range(200))
        want = [i for _, i in sorted(
            (stable_hash60(f"3:{i}"), i) for i in ids)]
        for parts in (1, 6):
            ds = rd.from_arrow(pa.table({
                "doc_id": pa.array(ids, type=pa.int64())})).repartition(
                parts)
            out = (deterministic_shuffle(ds, seed=3).to_pandas()
                   .sort_values("rank"))
            assert out["doc_id"].tolist() == want
            assert sorted(out["rank"]) == ids  # contiguous 0..n-1

    def test_seed_changes_order(self, ray_session):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.stages.relational import (
            deterministic_shuffle,
        )

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(100), type=pa.int64())}))
        a = (deterministic_shuffle(ds, seed=0).to_pandas()
             .sort_values("doc_id")["rank"].tolist())
        b = (deterministic_shuffle(ds, seed=1).to_pandas()
             .sort_values("doc_id")["rank"].tolist())
        assert a != b

    def test_payload_columns_preserved(self, ray_session):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.stages.relational import (
            deterministic_shuffle,
        )

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([3, 1, 2], type=pa.int64()),
            "text": pa.array(["c", "a", "b"])}))
        out = (deterministic_shuffle(ds).to_pandas()
               .sort_values("doc_id"))
        assert out["text"].tolist() == ["a", "b", "c"]
        assert set(out.columns) == {"doc_id", "text", "rank"}


class TestUnpivot:
    def test_round_trip_and_order(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import unpivot

        ds = rd.from_arrow(pa.table({
            "k": pa.array([1, 2], type=pa.int64()),
            "a": pa.array([10.0, 20.0]),
            "b": pa.array([1.5, 2.5])})).repartition(2)
        out = (unpivot(ds, ["k"], ["a", "b"]).to_pandas()
               .sort_values(["k", "variable"]).reset_index(drop=True))
        assert out.values.tolist() == [
            [1, "a", 10.0], [1, "b", 1.5],
            [2, "a", 20.0], [2, "b", 2.5]]
        # inverse of pivot: re-widening recovers the input
        wide = out.pivot(index="k", columns="variable",
                         values="value").reset_index()
        assert wide["a"].tolist() == [10.0, 20.0]
        assert wide["b"].tolist() == [1.5, 2.5]


class TestHits:
    def test_driver_equals_distributed(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            hits_int,
            hits_int_ds,
        )

        rng = np.random.default_rng(17)
        src = rng.integers(0, 60, 300).astype(np.int64)
        dst = rng.integers(0, 60, 300).astype(np.int64)
        keep = src != dst
        tbl = pa.table({"src": pa.array(src[keep]),
                        "dst": pa.array(dst[keep])})
        a = hits_int(tbl, iters=2).to_pandas()
        b = hits_int_ds(rd.from_arrow(tbl).repartition(4),
                        iters=2).to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_star_graph(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import hits_int

        # center 0 → leaves 1..5: all hub mass on 0, authority split
        # evenly over the leaves, center authority 0
        tbl = pa.table({"src": pa.array([0] * 5, type=pa.int64()),
                        "dst": pa.array([1, 2, 3, 4, 5],
                                        type=pa.int64())})
        out = hits_int(tbl).to_pandas().set_index("id")
        assert out.loc[0, "hub_units"] == 10**12
        assert out.loc[0, "auth_units"] == 0
        for leaf in range(1, 6):
            assert out.loc[leaf, "auth_units"] == 10**12 // 5
            assert out.loc[leaf, "hub_units"] == 0


class TestMergeInto:
    def test_upsert_delete_and_ambiguity(self, ray_session):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.stages.relational import (
            merge_into,
        )

        base = rd.from_pandas(pd.DataFrame({
            "k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}))
        changes = rd.from_pandas(pd.DataFrame({
            "k": [2, 3, 9], "v": [99, 0, 77], "op": ["U", "D", "U"]}))
        out = (merge_into(base, changes, ["k"]).to_pandas()
               .sort_values("k").reset_index(drop=True))
        # 1 survives, 2 upserted, 3 deleted, 4 survives, 9 inserted
        assert out["k"].tolist() == [1, 2, 4, 9]
        assert out["v"].tolist() == [10, 99, 40, 77]
        dup = rd.from_pandas(pd.DataFrame({
            "k": [5, 5], "v": [1, 2], "op": ["U", "D"]}))
        with pytest.raises(Exception, match="unambiguous|multiple"):
            merge_into(base, dup, ["k"]).to_pandas()

    def test_unknown_op_raises(self, ray_session):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.stages.relational import (
            merge_into,
        )

        base = rd.from_pandas(pd.DataFrame({"k": [1], "v": [10]}))
        bad = rd.from_pandas(pd.DataFrame({
            "k": [2], "v": [5], "op": ["X"]}))
        with pytest.raises(Exception, match="unknown op"):
            merge_into(base, bad, ["k"]).to_pandas()


def test_ordered_prefix_min_blockless_input(ray_session):
    """A dataset with no blocks at all takes the empty-input fallback and
    returns no rows instead of failing on the fallback's column names."""
    from diffdataflowmlpipelines_ray.stages.relational import ordered_prefix_min

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                 "v": pa.array([5, 3], pa.int64())})).limit(0)
    assert ds.materialize().num_blocks() == 0
    assert ordered_prefix_min(ds, "k", "v", out_col="m").count() == 0


class TestSessionize:
    def test_gap_boundary_exact(self, ray_session):
        # gaps of exactly 1800 s stay in-session (strict >), 1800.000001 splits
        base = pd.Timestamp("2024-01-01")
        ts = [base,
              base + pd.Timedelta(seconds=1800),            # same session
              base + pd.Timedelta(seconds=3600, microseconds=1),  # splits
              base + pd.Timedelta(seconds=3700)]
        ds = rd.from_arrow(pa.table({
            "u": pa.array([7, 7, 7, 7], type=pa.int64()),
            "eid": pa.array([0, 1, 2, 3], type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }))
        df = sessionize(ds, ["u"], "ts", gap=1800.0, order_cols=["eid"]
                        ).to_pandas().sort_values("eid")
        assert list(df["session_no"]) == [1, 1, 2, 2]

    def test_multi_key_numbering(self, ray_session):
        ds = rd.from_arrow(pa.table({
            "u": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
            "eid": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
            "ts": pa.array([0.0, 10.0, 5000.0, 0.0, 9000.0]),
        }))
        df = sessionize(ds, ["u"], "ts", gap=1800.0, order_cols=["eid"]
                        ).to_pandas().sort_values("eid")
        assert list(df["session_no"]) == [1, 1, 2, 1, 2]

    def test_matches_pandas_reference(self, ray_session):
        rng = np.random.default_rng(3)
        n = 3000
        pdf = pd.DataFrame({
            "u": rng.integers(0, 40, n),
            "eid": np.arange(n),
            "ts": rng.uniform(0, 500_000, n),
        })
        got = sessionize(rd.from_pandas(pdf), ["u"], "ts", gap=1800.0,
                         order_cols=["eid"], buckets=8).to_pandas()
        ref = pdf.sort_values(["u", "ts", "eid"]).copy()
        new = (ref.groupby("u")["ts"].diff() > 1800.0) | \
            ref.groupby("u")["ts"].diff().isna()
        ref["session_no"] = new.astype(np.int64).groupby(ref["u"]).cumsum()
        merged = got.merge(ref[["eid", "session_no"]], on="eid",
                           suffixes=("", "_ref"))
        assert (merged["session_no"] == merged["session_no_ref"]).all()


class TestDistinctPerGroup:
    def test_matches_pandas(self, ray_session):
        rng = np.random.default_rng(11)
        pdf = pd.DataFrame({"g": rng.integers(0, 20, 5000),
                            "v": rng.integers(0, 400, 5000)})
        got = distinct_count_per_group(rd.from_pandas(pdf), ["g"], "v",
                                       buckets=16)
        ref = (pdf.groupby("g")["v"].nunique().reset_index()
               .rename(columns={"v": "n_distinct"}))
        merged = got.merge(ref, on="g", suffixes=("", "_ref"))
        assert len(merged) == len(ref)
        assert (merged["n_distinct"] == merged["n_distinct_ref"]).all()


class TestAnalytics:
    def test_grouped_quantiles_match_pandas(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            grouped_quantiles,
        )
        rng = np.random.default_rng(5)
        pdf = pd.DataFrame({"g": rng.integers(0, 6, 4000),
                            "v": rng.uniform(0, 100, 4000)})
        got = grouped_quantiles(rd.from_pandas(pdf), ["g"], "v",
                                qs=(0.25, 0.5), buckets=8)
        ref = pdf.groupby("g")["v"].quantile([0.25, 0.5]).unstack()
        for _, r in got.iterrows():
            assert r["q0_25"] == pytest.approx(ref.loc[r["g"], 0.25])
            assert r["q0_5"] == pytest.approx(ref.loc[r["g"], 0.5])

    def test_running_total_exact_cents(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            running_total,
        )
        pdf = pd.DataFrame({
            "u": [1, 1, 1, 2], "eid": [0, 1, 2, 3],
            "ts": [0.0, 1.0, 2.0, 0.0],
            "value": [0.1, 0.2, 0.3, 5.05],
        })
        got = (running_total(rd.from_pandas(pdf), ["u"], "ts", "value",
                             order_cols=["eid"], buckets=4)
               .to_pandas().sort_values("eid"))
        # float 0.1+0.2 != 0.3 — cents accumulation must be exact
        assert list(got["running"]) == [0.1, 0.3, 0.6, 5.05]

    def test_latest_per_key(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            latest_per_key,
        )
        rng = np.random.default_rng(9)
        n = 2000
        pdf = pd.DataFrame({
            "u": rng.integers(0, 30, n), "eid": np.arange(n),
            "ts": rng.uniform(0, 1000, n),
            "val": rng.uniform(0, 10, n),
        })
        got = latest_per_key(rd.from_pandas(pdf), ["u"], "ts",
                             order_cols=["eid"])
        ref = (pdf.sort_values(["ts", "eid"]).groupby("u", as_index=False)
               .tail(1).sort_values("u").reset_index(drop=True))
        assert list(got["eid"]) == list(ref["eid"])


class TestExactGlobalQuantiles:
    def test_matches_numpy(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            exact_global_quantiles,
        )
        rng = np.random.default_rng(0)
        for data in (rng.uniform(0, 1000, 50_000),
                     np.repeat([5.0, 7.0], [30_000, 20_000]),  # heavy dups
                     rng.normal(0, 1, 30_001)):
            ds = rd.from_pandas(pd.DataFrame({"x": data})).repartition(8)
            got = exact_global_quantiles(ds, "x", qs=(0.25, 0.5, 0.9),
                                         cap=2000)
            ref = np.quantile(data, [0.25, 0.5, 0.9], method="linear")
            for q, r in zip((0.25, 0.5, 0.9), ref):
                assert got[q] == pytest.approx(r, abs=1e-9)

    def test_small_input_single_fetch(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import (
            exact_global_quantiles,
        )
        data = np.array([3.0, 1.0, 2.0, 4.0])
        ds = rd.from_pandas(pd.DataFrame({"x": data}))
        got = exact_global_quantiles(ds, "x", qs=(0.5,))
        assert got[0.5] == pytest.approx(2.5)


class TestHeavyHitters:
    def test_exact_on_zipf(self, ray_session):
        from diffdataflowmlpipelines_ray.state.sketches import heavy_hitters
        rng = np.random.default_rng(1)
        vals = np.minimum(rng.zipf(1.5, 30_000), 5000).astype(str)
        ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
        got = heavy_hitters(ds, "v", k=10, m=64)
        ref = (pd.Series(vals).value_counts().reset_index())
        ref.columns = ["v", "cnt"]
        ref = ref.sort_values(["cnt", "v"],
                              ascending=[False, True]).head(10)
        assert list(got["v"]) == list(ref["v"])
        assert list(got["cnt"]) == list(ref["cnt"])

    def test_raises_when_unprovable(self, ray_session):
        from diffdataflowmlpipelines_ray.state.sketches import heavy_hitters
        # near-uniform over many values with tiny m: dropped mass swamps
        # the k-th count → must refuse rather than return a guess
        rng = np.random.default_rng(2)
        vals = rng.integers(0, 5000, 20_000).astype(str)
        ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
        with pytest.raises(RuntimeError, match="not provably exact"):
            heavy_hitters(ds, "v", k=5, m=8)
