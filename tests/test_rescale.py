"""Savepoint rescale: resume a checkpoint into a session with a DIFFERENT
shard count (``rescale_blobs`` — Flink's savepoint --rescale, the state-side
answer to the north rule's "run at N and 4N nodes").  Every test runs the
same input through (a) an uninterrupted session and (b) a crash at an epoch
boundary + resume at a different shard count, and asserts the durable sink
output (and live state where applicable) is EXACTLY equal — any key routed
to the wrong shard after rescale double-counts, drops, or re-emits."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from diffdataflowmlpipelines_ray.streaming.engine import (
    IncrementalComponents,
    KeyedAggregation,
    SessionWindowAggregation,
    StreamDedup,
    StreamJoin,
    StreamNearDup,
    StreamSession,
    UpsertToRetract,
    WindowSpec,
)
from diffdataflowmlpipelines_ray.streaming.state_store import rescale_blobs


def events_table(n=240, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "user_id": rng.integers(0, 23, n),
        "ts": np.sort(rng.uniform(0, 1000, n)),
        "value": rng.normal(50, 10, n),
    })


def split_epochs(tbl, k):
    n = tbl.num_rows
    bounds = np.linspace(0, n, k + 1).astype(int)
    return [tbl.slice(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]


SHARD_MOVES = [(2, 5), (5, 2), (3, 3)]  # up, down, and the no-op identity


class TestKeyedRescale:
    @pytest.mark.parametrize("n0,n1", SHARD_MOVES)
    def test_windowed_agg_rescale_equals_clean_run(self, ray_session,
                                                   tmp_path, n0, n1):
        tbl = events_table()
        parts = split_epochs(tbl, 4)

        def op():
            return KeyedAggregation(
                name="win", input="e", key_cols=["user_id"],
                value_col="value", ts_col="ts", aggs=("count", "sum", "min"),
                window=WindowSpec.tumbling(250.0))

        def clean(root):
            s = StreamSession(root, num_shards=n1)
            s.add(op())
            for e in range(4):
                s.process_epoch(e, {"e": parts[e]}, watermark=250.0 * (e + 1))
            s.close()
            out = s.sinks["win"].read_committed_table().to_pandas()
            s.store.shutdown()
            return out

        def rescaled(root):
            s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
            s1.add(op())
            for e in range(2):
                s1.process_epoch(e, {"e": parts[e]}, watermark=250.0 * (e + 1))
            s1.store.shutdown()  # crash
            s2 = StreamSession(root, num_shards=n1, checkpoint_every=1)
            s2.add(op())
            assert s2.resume() == 2
            for e in range(2, 4):
                s2.process_epoch(e, {"e": parts[e]}, watermark=250.0 * (e + 1))
            s2.close()
            out = s2.sinks["win"].read_committed_table().to_pandas()
            s2.store.shutdown()
            return out

        key = ["user_id", "window_start"]
        a = rescaled(tmp_path / "r").sort_values(key).reset_index(drop=True)
        b = clean(tmp_path / "c").sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[key + ["count", "sum", "min"]], b[key + ["count", "sum", "min"]],
            check_dtype=False)

    @pytest.mark.parametrize("n0,n1", [(2, 5), (5, 2)])
    def test_unwindowed_state_table_after_rescale(self, ray_session,
                                                  tmp_path, n0, n1):
        """Live (unwindowed) per-key state reads identically post-rescale —
        collect() walks every shard, so misrouted keys would duplicate."""
        tbl = events_table(180, seed=11)
        parts = split_epochs(tbl, 3)
        root = tmp_path / "st"

        def op():
            return KeyedAggregation(name="agg", input="e",
                                    key_cols=["user_id"], value_col="value",
                                    aggs=("count", "sum", "mean"))

        s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
        s1.add(op())
        s1.process_epoch(0, {"e": parts[0]})
        s1.process_epoch(1, {"e": parts[1]})
        s1.store.shutdown()
        s2 = StreamSession(root, num_shards=n1, checkpoint_every=1)
        s2.add(op())
        assert s2.resume() == 2
        s2.process_epoch(2, {"e": parts[2]})
        got = (s2.state_table("agg").to_pandas()
               .set_index("user_id").sort_index())
        s2.store.shutdown()
        ref = (tbl.to_pandas().groupby("user_id")["value"]
               .agg(["count", "sum", "mean"]).sort_index())
        for c in ("count", "sum", "mean"):
            assert got[c].to_numpy() == pytest.approx(ref[c].to_numpy())


class TestJoinRescale:
    @staticmethod
    def _left(rows):  # (k, lval, lts)
        k, lval, lts = zip(*rows) if rows else ((), (), ())
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "lval": pa.array(lval, type=pa.int64()),
                         "lts": pa.array(lts, type=pa.float64())})

    @staticmethod
    def _right(rows):  # (k, rval, rts)
        k, rval, rts = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "rval": pa.array(rval, type=pa.int64()),
                         "rts": pa.array(rts, type=pa.float64())})

    def _op(self):
        return StreamJoin(name="j", left_input="L", right_input="R",
                          left_key=["k"], right_key=["k"],
                          left_cols=["lval"], right_cols=["rval"],
                          left_ts="lts", right_ts="rts",
                          max_dt=100.0, emit_unmatched="left")

    @pytest.mark.parametrize("n0,n1", [(2, 5), (5, 2)])
    def test_outer_join_matched_flags_survive_rescale(self, ray_session,
                                                      tmp_path, n0, n1):
        """Buffered rows, their matched flags and the unmatched sweep all
        survive a shard-count change: key 1 matched pre-crash (must NOT
        sweep), key 2 matches post-rescale (cross-boundary pair), key 3
        never matches (must sweep exactly once)."""
        rng = np.random.default_rng(5)
        # bulk keys so both shard layouts actually spread state around
        bulk = [(int(k), int(k) * 10, 50.0) for k in rng.integers(10, 60, 40)]
        lefts = [(1, 100, 10.0), (2, 200, 20.0), (3, 300, 30.0)] + bulk
        r0 = [(1, 7, 15.0)]
        r1 = ([(2, 8, 60.0)]
              + [(k, 1, 55.0) for k, _, _ in bulk])

        def run(root, rescale):
            s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
            s1.add(self._op())
            s1.process_epoch(0, {"L": self._left(lefts),
                                 "R": self._right(r0)}, watermark=40.0)
            s1.store.shutdown()
            s2 = StreamSession(root, num_shards=(n1 if rescale else n0),
                               checkpoint_every=1)
            s2.add(self._op())
            assert s2.resume() == 1
            s2.process_epoch(1, {"R": self._right(r1)}, watermark=80.0)
            # watermark 300 closes every left window (ts+100 < 300)
            s2.process_epoch(2, {"L": self._left([])}, watermark=300.0)
            s2.close(3)
            matched = s2.sinks["j"].read_committed_table().to_pandas()
            unmatched = (s2.sinks["j__unmatched"].read_committed_table()
                         .to_pandas())
            s2.store.shutdown()
            return (sorted(zip(matched["k"], matched["lval"],
                               matched["rval"])),
                    sorted(zip(unmatched["k"], unmatched["lval"])))

        got_m, got_u = run(tmp_path / "a", rescale=True)
        ref_m, ref_u = run(tmp_path / "b", rescale=False)
        assert got_m == ref_m
        assert got_u == ref_u
        assert (3, 300) in got_u and (1, 100) not in got_u
        assert (1, 100, 7) in got_m and (2, 200, 8) in got_m


class TestRegisterFamiliesRescale:
    @pytest.mark.parametrize("n0,n1", [(2, 5), (5, 2)])
    def test_stream_dedup_no_reemit_after_rescale(self, ray_session,
                                                  tmp_path, n0, n1):
        root = tmp_path / "dd"
        rng = np.random.default_rng(8)
        keys0 = rng.integers(0, 40, 60).tolist()
        keys1 = rng.integers(0, 40, 60).tolist()

        def op():
            return StreamDedup(name="dd", input="ev", key=["u"],
                               ts_col="ts", order_cols=["eid"],
                               carry=["eid"])

        def ev(keys, base):
            return pa.table({
                "u": pa.array(keys, type=pa.int64()),
                "ts": pa.array([base + i for i in range(len(keys))],
                               type=pa.float64()),
                "eid": pa.array([base * 1000 + i for i in range(len(keys))],
                                type=pa.int64())})

        s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
        s1.add(op())
        s1.process_epoch(0, {"ev": ev(keys0, 0)})
        s1.store.shutdown()
        s2 = StreamSession(root, num_shards=n1, checkpoint_every=1)
        s2.add(op())
        assert s2.resume() == 1
        s2.process_epoch(1, {"ev": ev(keys1, 1)})
        df = s2.sinks["dd"].read_committed_table().to_pandas()
        s2.store.shutdown()
        # exactly one emission per distinct key over BOTH epochs, and the
        # winner is the global first occurrence
        assert sorted(df["u"]) == sorted(set(keys0) | set(keys1))
        first = {}
        for ks, base in ((keys0, 0), (keys1, 1)):
            for i, k in enumerate(ks):
                first.setdefault(k, base * 1000 + i)
        assert dict(zip(df["u"], df["eid"])) == first

    @pytest.mark.parametrize("n0,n1", [(2, 5)])
    def test_upsert_registers_lww_across_rescale(self, ray_session,
                                                 tmp_path, n0, n1):
        """LWW registers move with their keys: a post-rescale upsert with a
        STALE stamp must still lose to the pre-crash register."""
        root = tmp_path / "up"

        def op():
            return UpsertToRetract(
                name="chg", input="u", key=["k"], vals=["v"],
                key_types=[pa.int64()], val_types=[pa.int64()],
                ts_col="ts", delete_col="del")

        def ups(rows):  # (k, v, ts, del)
            k, v, ts, d = zip(*rows)
            return pa.table({"k": pa.array(k, type=pa.int64()),
                             "v": pa.array(v, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "del": pa.array(d, type=pa.bool_())})

        s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
        s1.add(op())
        s1.process_epoch(0, {"u": ups([(i, i * 10, 100.0, False)
                                       for i in range(30)])})
        s1.store.shutdown()
        s2 = StreamSession(root, num_shards=n1, checkpoint_every=1)
        s2.add(op())
        assert s2.resume() == 1
        # stale upserts (ts 50 < 100) for every key + one fresh update
        s2.process_epoch(1, {"u": ups([(i, 999, 50.0, False)
                                       for i in range(30)]
                                      + [(7, 777, 200.0, False)])})
        df = s2.sinks["chg"].read_committed_table().to_pandas()
        s2.store.shutdown()
        live = (df.groupby(["k", "v"])["diff"].sum().reset_index())
        live = live[live["diff"] > 0].sort_values("k")
        want = {i: (777 if i == 7 else i * 10) for i in range(30)}
        assert dict(zip(live["k"], live["v"])) == want


class TestGraphAndNearDupRescale:
    @staticmethod
    def _edges(pairs):
        lo, hi = zip(*pairs) if pairs else ((), ())
        return pa.table({"id_lo": pa.array(lo, type=pa.int64()),
                         "id_hi": pa.array(hi, type=pa.int64())})

    @staticmethod
    def _net(sess):
        df = sess.sinks["cc"].read_committed_table().to_pandas()
        net = df.groupby(["id", "component"])["diff"].sum().reset_index()
        return sorted(map(tuple, net[net["diff"] > 0]
                          [["id", "component"]].to_numpy()))

    @pytest.mark.parametrize("n0,n1", [(2, 5), (5, 2)])
    def test_incremental_cc_designated_shard_moves(self, ray_session,
                                                   tmp_path, n0, n1):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components)

        rng = np.random.default_rng(4)
        pairs = [(int(a), int(b)) for a, b in
                 zip(rng.integers(0, 50, 70), rng.integers(0, 50, 70))
                 if a != b]
        root = tmp_path / "cc"
        s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
        s1.add(IncrementalComponents(name="cc", input="e"))
        s1.process_epoch(0, {"e": self._edges(pairs[:35])})
        s1.store.shutdown()
        s2 = StreamSession(root, num_shards=n1, checkpoint_every=1)
        s2.add(IncrementalComponents(name="cc", input="e"))
        assert s2.resume() == 1
        s2.process_epoch(1, {"e": self._edges(pairs[35:])})
        got = self._net(s2)
        s2.store.shutdown()
        batch = connected_components(self._edges(pairs)).to_pandas()
        assert got == sorted(zip(batch["id"], batch["component"]))

    DUP = ("the quick brown fox jumps over the lazy dog and then naps "
           "in the warm afternoon sun near the old barn door")

    @pytest.mark.parametrize("n0,n1", [(3, 7)])
    def test_neardup_bucket_members_survive_rescale(self, ray_session,
                                                    tmp_path, n0, n1):
        """A bucket member registered pre-crash must be FOUND by a
        post-rescale arrival — bucket registers re-route with their keys."""
        rng = np.random.default_rng(2)
        words = ["w%03d" % i for i in range(600)]
        noise = [" ".join(rng.choice(words, 40)) for _ in range(4)]
        root = tmp_path / "nd"

        def mk(num_shards):
            s = StreamSession(root, num_shards=num_shards,
                              checkpoint_every=1)
            s.add(StreamNearDup(name="nd", input="docs", threshold=0.9))
            s.add(StreamDedup(name="pairs", input="nd",
                              key=["id_lo", "id_hi"], ts_col="epoch"))
            return s

        def docs(rows):
            ids, texts = zip(*rows)
            return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                             "text": pa.array(texts)})

        s1 = mk(n0)
        s1.process_epoch(0, {"docs": docs(
            [(1, self.DUP), (10, noise[0]), (11, noise[1])])})
        s1.store.shutdown()
        s2 = mk(n1)
        assert s2.resume() == 1
        s2.process_epoch(1, {"docs": docs(
            [(2, self.DUP), (12, noise[2]), (13, noise[3])])})
        got = s2.sinks["pairs"].read_committed_table().to_pandas()
        s2.store.shutdown()
        pairs = set(zip(got["id_lo"], got["id_hi"]))
        assert (1, 2) in pairs
        assert all(lo in (1, 2) and hi in (1, 2) for lo, hi in pairs)


class TestSessionWindowRescale:
    @pytest.mark.parametrize("n0,n1", [(2, 5), (5, 2)])
    def test_open_sessions_merge_across_rescale(self, ray_session,
                                                tmp_path, n0, n1):
        """An open session from before the crash must MERGE with adjacent
        post-rescale events of the same key (gap bridge), not fork."""
        root = tmp_path / "sw"

        def op():
            return SessionWindowAggregation(
                name="s", input="e", key_cols=["u"], ts_col="ts",
                value_col="v", gap=10.0)

        def ev(rows):  # (u, ts, v)
            u, ts, v = zip(*rows)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "v": pa.array(v, type=pa.float64())})

        def run(root, rescale):
            s1 = StreamSession(root, num_shards=n0, checkpoint_every=1)
            s1.add(op())
            s1.process_epoch(0, {"e": ev([(1, 0.0, 1.0), (1, 5.0, 2.0),
                                          (2, 0.0, 5.0),
                                          (3, 100.0, 9.0)])},
                             watermark=11.0)  # u1's session stays OPEN
            s1.store.shutdown()
            s2 = StreamSession(root, num_shards=(n1 if rescale else n0),
                               checkpoint_every=1)
            s2.add(op())
            assert s2.resume() == 1
            # u1 ts=12 bridges (gap 10 from ts=5); u2 ts=30 starts fresh
            s2.process_epoch(1, {"e": ev([(1, 12.0, 4.0), (2, 30.0, 6.0)])},
                             watermark=500.0)
            s2.close(2)
            df = s2.sinks["s"].read_committed_table().to_pandas()
            s2.store.shutdown()
            return sorted(zip(df["u"], df["session_start"], df["count"],
                              df["sum"]))

        got = run(tmp_path / "a", rescale=True)
        ref = run(tmp_path / "b", rescale=False)
        assert got == ref
        assert (1, 0.0, 3, 7.0) in got  # merged session, not two


class TestRescaleBlobsUnit:
    def test_identity_and_applied_mark_merge(self):
        import pickle

        from diffdataflowmlpipelines_ray.streaming.state_store import (
            shard_of)

        # two source shards with disjoint keys, mixed applied formats
        k1, k2 = b"alpha", b"beta"
        src = {
            0: pickle.dumps({"aggs": {"t": {k1: 11}}, "sessions": {},
                             "session_points": {}, "session_early": {},
                             "joins": {}, "join_lid": {}, "join_rid": {},
                             "patterns": {}, "neardup": {},
                             "neardup_drops": {"nd": 3},
                             "pane_bounds": {"p": 5.0}, "graphs": {},
                             "applied": {"t": 4}}),
            1: pickle.dumps({"aggs": {"t": {k2: 22}}, "sessions": {},
                             "session_points": {}, "session_early": {},
                             "joins": {}, "join_lid": {}, "join_rid": {},
                             "patterns": {}, "neardup": {},
                             "neardup_drops": {"nd": 2},
                             "pane_bounds": {"p": 7.0}, "graphs": {},
                             "applied": {"t": {1, 2}}}),  # legacy set form
        }
        out = {i: pickle.loads(b)
               for i, b in rescale_blobs(src, 4).items()}
        assert set(out) == {0, 1, 2, 3}
        # keys landed on their shard_of(_, 4) shard
        assert out[shard_of(k1, 4)]["aggs"]["t"][k1] == 11
        assert out[shard_of(k2, 4)]["aggs"]["t"][k2] == 22
        # applied mark = max across sources (legacy set normalized)
        for o in out.values():
            assert o["applied"] == {"t": 4}
            assert o["pane_bounds"] == {"p": 7.0}
        # drop counts summed once on the designated shard
        total = sum(o["neardup_drops"].get("nd", 0) for o in out.values())
        assert total == 5
