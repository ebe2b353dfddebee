"""Streaming engine tests: epoch-split equivalence, retraction, windows,
sessions, stateful join, exactly-once sink + kill/resume (FIXTURES.md
"Incremental / streaming test schedules")."""

import math
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from diffdataflowmlpipelines_ray.streaming.engine import (
    KeyedAggregation,
    SessionWindowAggregation,
    StreamJoin,
    StreamSession,
    WindowSpec,
)
from diffdataflowmlpipelines_ray.streaming.sink import (
    CheckpointManager,
    ExactlyOnceParquetSink,
    write_shard_file,
)


def events_table(n=200, seed=1):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "user_id": rng.integers(0, 10, n),
            "ts": rng.uniform(0, 1000, n),
            "value": rng.normal(50, 10, n),
        }
    )


def as_blocks(tbl, blocks):
    """``tbl`` as an epoch input: the Table itself (``blocks=0``), a
    one-block ``from_arrow`` Dataset (1) or a ``blocks``-block Dataset."""
    if not blocks:
        return tbl
    ds = rd.from_arrow(tbl)
    return ds if blocks == 1 else ds.repartition(blocks)


def split_epochs(tbl, k):
    n = tbl.num_rows
    bounds = np.linspace(0, n, k + 1).astype(int)
    return [tbl.slice(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]


def assert_sha256_entries(sink):
    """Every file entry in the sink's epoch and consolidation manifests
    carries a sha256."""
    for e in sink.committed_epochs():
        for f in sink.manifest(e)["files"]:
            assert "sha256" in f, f
    for cm in sink._consolidation_manifests():
        for f in cm["files"]:
            assert "sha256" in f, f


def flip_middle_byte(path):
    """Corrupt one byte of ``path`` without changing its size."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestKeyedAggregation:
    def test_epoch_split_equals_batch(self, ray_session, tmp_path):
        tbl = events_table()
        sess = StreamSession(tmp_path / "s1", num_shards=3)
        sess.add(KeyedAggregation(name="by_user", input="events",
                                  key_cols=["user_id"], value_col="value",
                                  aggs=("count", "sum", "mean", "min", "max")))
        for e, part in enumerate(split_epochs(tbl, 5)):
            sess.process_epoch(e, {"events": part})
        got = sess.state_table("by_user").to_pandas().set_index("user_id").sort_index()
        ref = (
            tbl.to_pandas().groupby("user_id")["value"]
            .agg(["count", "sum", "mean", "min", "max"]).sort_index()
        )
        for col in ["count", "sum", "mean", "min", "max"]:
            assert got[col].to_numpy() == pytest.approx(ref[col].to_numpy())
        sess.store.shutdown()

    def test_retraction(self, ray_session, tmp_path):
        tbl = events_table(100)
        sess = StreamSession(tmp_path / "s2", num_shards=2)
        sess.add(KeyedAggregation(name="by_user", input="events",
                                  key_cols=["user_id"], value_col="value",
                                  aggs=("count", "sum"), weight_col="diff"))
        plus = tbl.append_column("diff", pa.array(np.ones(100, dtype=np.int64)))
        sess.process_epoch(0, {"events": plus})
        # retract rows 0..19 in epoch 1
        sub = tbl.slice(0, 20).append_column("diff", pa.array(-np.ones(20, dtype=np.int64)))
        sess.process_epoch(1, {"events": sub})
        got = sess.state_table("by_user").to_pandas().set_index("user_id").sort_index()
        ref = (
            tbl.slice(20, 80).to_pandas().groupby("user_id")["value"]
            .agg(["count", "sum"]).sort_index()
        )
        assert got["count"].to_numpy() == pytest.approx(ref["count"].to_numpy())
        assert got["sum"].to_numpy() == pytest.approx(ref["sum"].to_numpy())
        sess.store.shutdown()

    def test_dataset_input_path(self, ray_session, tmp_path):
        import ray.data as rd

        tbl = events_table(500)
        sess = StreamSession(tmp_path / "s3", num_shards=2)
        sess.add(KeyedAggregation(name="by_user", input="events",
                                  key_cols=["user_id"], value_col="value",
                                  aggs=("count", "sum")))
        sess.process_epoch(0, {"events": rd.from_arrow(tbl).repartition(4)})
        got = sess.state_table("by_user").to_pandas().set_index("user_id").sort_index()
        ref = tbl.to_pandas().groupby("user_id")["value"].agg(["count", "sum"]).sort_index()
        assert got["sum"].to_numpy() == pytest.approx(ref["sum"].to_numpy())
        sess.store.shutdown()


class TestTumblingSliding:
    def test_tumbling_watermark_emission(self, ray_session, tmp_path):
        tbl = events_table(300, seed=2)
        # a real stream is (approximately) time-ordered; watermark trails max ts
        tbl = tbl.sort_by("ts")
        sess = StreamSession(tmp_path / "w1", num_shards=2)
        sess.add(KeyedAggregation(name="win", input="events",
                                  key_cols=["user_id"], value_col="value",
                                  ts_col="ts", aggs=("count", "sum"),
                                  window=WindowSpec.tumbling(100.0)))
        parts = split_epochs(tbl, 3)
        for e, part in enumerate(parts):
            wm = float(np.max(part["ts"].to_numpy()))
            sess.process_epoch(e, {"events": part}, watermark=wm)
        assert sess.metrics["late_dropped"] == 0
        sess.close()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        ref = tbl.to_pandas()
        ref["window_start"] = (ref["ts"] // 100.0) * 100.0
        exp = (
            ref.groupby(["user_id", "window_start"])["value"].agg(["count", "sum"])
            .reset_index()
        )
        got = out.sort_values(["user_id", "window_start"]).reset_index(drop=True)
        exp = exp.sort_values(["user_id", "window_start"]).reset_index(drop=True)
        assert len(got) == len(exp)
        assert got["count"].to_numpy() == pytest.approx(exp["count"].to_numpy())
        assert got["sum"].to_numpy() == pytest.approx(exp["sum"].to_numpy())

    def test_late_rows_dropped_after_watermark(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "w2", num_shards=1)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["user_id"],
                                  value_col="value", ts_col="ts",
                                  aggs=("count",), window=WindowSpec.tumbling(10.0)))
        t0 = pa.table({"user_id": [1, 1], "ts": [5.0, 15.0], "value": [1.0, 1.0]})
        sess.process_epoch(0, {"e": t0}, watermark=20.0)  # closes [0,10) and [10,20)
        late = pa.table({"user_id": [1], "ts": [7.0], "value": [1.0]})  # for closed window
        sess.process_epoch(1, {"e": late})
        sess.close()
        assert sess.metrics["late_dropped"] == 1
        out = sess.sinks["win"].read_committed_table().to_pandas()
        assert out["count"].sum() == 2  # late row never double-counts

    def test_sliding_equals_pandas(self, ray_session, tmp_path):
        tbl = events_table(200, seed=3)
        sess = StreamSession(tmp_path / "w3", num_shards=2)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["user_id"],
                                  value_col="value", ts_col="ts", aggs=("count",),
                                  window=WindowSpec.sliding(200.0, 100.0)))
        for e, part in enumerate(split_epochs(tbl, 4)):
            sess.process_epoch(e, {"e": part})
        sess.close()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        pdf = tbl.to_pandas()
        rows = []
        for j in (0, 1):
            t = pdf.copy()
            t["window_start"] = (t["ts"] // 100.0 - j) * 100.0
            t = t[(t["ts"] >= t["window_start"]) & (t["ts"] < t["window_start"] + 200.0)]
            rows.append(t)
        exp = (
            pd.concat(rows).groupby(["user_id", "window_start"]).size()
            .rename("count").reset_index()
        )
        got = out.sort_values(["user_id", "window_start"]).reset_index(drop=True)
        exp = exp.sort_values(["user_id", "window_start"]).reset_index(drop=True)
        assert len(got) == len(exp)
        assert got["count"].to_numpy() == pytest.approx(exp["count"].to_numpy())


class TestSessionWindows:
    def test_sessions_gap_merge(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "sw", num_shards=2)
        sess.add(SessionWindowAggregation(name="sess", input="e",
                                          key_cols=["user_id"], ts_col="ts",
                                          gap=30.0, value_col="value"))
        # user 1: events at 0,10,20 (one session), 100 (second session)
        # split across epochs out of order within gap
        t0 = pa.table({"user_id": [1, 1], "ts": [0.0, 20.0], "value": [1.0, 1.0]})
        t1 = pa.table({"user_id": [1, 1], "ts": [10.0, 100.0], "value": [1.0, 1.0]})
        sess.process_epoch(0, {"e": t0})
        sess.process_epoch(1, {"e": t1})
        sess.close()
        out = sess.sinks["sess"].read_committed_table().to_pandas().sort_values("session_start")
        assert len(out) == 2
        first, second = out.iloc[0], out.iloc[1]
        assert first["count"] == 3 and first["first_ts"] == 0.0 and first["last_ts"] == 20.0
        assert first["session_end"] == pytest.approx(50.0)
        assert second["count"] == 1 and second["session_start"] == 100.0

    def test_session_closes_only_after_watermark(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "sw2", num_shards=1)
        sess.add(SessionWindowAggregation(name="sess", input="e",
                                          key_cols=["user_id"], ts_col="ts", gap=30.0))
        sess.process_epoch(0, {"e": pa.table({"user_id": [1], "ts": [0.0]})},
                           watermark=10.0)  # session end=30 > wm → still open
        assert sess.sinks["sess"].read_committed_table().to_pandas()["count"].sum() == 0
        sess.process_epoch(1, {"e": pa.table({"user_id": [1], "ts": [20.0]})},
                           watermark=60.0)  # extended to end=50 ≤ 60 → closes
        out = sess.sinks["sess"].read_committed_table().to_pandas()
        assert out["count"].sum() == 2
        sess.store.shutdown()


class TestStreamJoin:
    def test_incremental_join_equals_batch(self, ray_session, tmp_path):
        rng = np.random.default_rng(5)
        left = pa.table({"k": rng.integers(0, 20, 100), "lval": np.arange(100)})
        right = pa.table({"k": rng.integers(0, 20, 80), "rval": np.arange(80) * 10})
        sess = StreamSession(tmp_path / "j", num_shards=3)
        sess.add(StreamJoin(name="j", left_input="L", right_input="R",
                            left_key=["k"], right_key=["k"],
                            left_cols=["lval"], right_cols=["rval"]))
        # interleave both sides across 4 epochs
        for e in range(4):
            sess.process_epoch(e, {
                "L": left.slice(e * 25, 25),
                "R": right.slice(e * 20, 20),
            })
        got = sess.sinks["j"].read_committed_table().to_pandas()
        exp = left.to_pandas().merge(right.to_pandas(), on="k")
        assert len(got) == len(exp)
        a = got[["k", "lval", "rval"]].sort_values(["k", "lval", "rval"]).reset_index(drop=True)
        b = exp[["k", "lval", "rval"]].sort_values(["k", "lval", "rval"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        sess.store.shutdown()


class TestExactlyOnceSink:
    def test_idempotent_commit(self, tmp_path):
        sink = ExactlyOnceParquetSink(tmp_path / "sink")
        t = pa.table({"a": [1, 2, 3]})
        m1 = sink.commit_tables(0, [t])
        m2 = sink.commit_tables(0, [pa.table({"a": [9]})])  # replay ignored
        assert m1["files"] == m2["files"]
        assert sink.read_committed_table()["a"].to_pylist() == [1, 2, 3]
        assert sink.verify()

    def test_snapshot_at_time_travel(self, ray_session, tmp_path):
        """snapshot_at(e) = net SUM(diff) over committed epochs ≤ e; exact
        through consolidations and Dataset-path equal; history limits
        (consolidation horizon, retention expiry) raise, never approximate."""
        sink = ExactlyOnceParquetSink(tmp_path / "tt")

        def ep(ks, vs, ds_, e):
            return pa.table({"k": pa.array(ks, type=pa.int64()),
                             "v": pa.array(vs, type=pa.int64()),
                             "diff": pa.array(ds_, type=pa.int64()),
                             "epoch": pa.array([e] * len(ks),
                                               type=pa.int64())})

        sink.commit_tables(0, [ep([1, 2], [10, 20], [1, 1], 0)])
        sink.commit_tables(1, [ep([1, 1], [10, 11], [-1, 1], 1)])  # k1 → 11
        sink.commit_tables(2, [ep([2], [20], [-1], 2)])            # drop k2

        def rows(t):
            return sorted(zip(t["k"].to_pylist(), t["v"].to_pylist(),
                              t["diff"].to_pylist()))

        assert rows(sink.snapshot_at(0)) == [(1, 10, 1), (2, 20, 1)]
        assert rows(sink.snapshot_at(1)) == [(1, 11, 1), (2, 20, 1)]
        assert rows(sink.snapshot_at(2)) == [(1, 11, 1)]
        # Dataset path computes the same net
        ds_net = sink.snapshot_at(1, as_dataset=True)
        got = pa.concat_tables(b for b in ds_net.iter_batches(
            batch_format="pyarrow"))
        assert rows(got) == [(1, 11, 1), (2, 20, 1)]
        # consolidate epochs ≤ 1: travel to 0 is gone, 1 and 2 still exact
        assert sink.consolidate(upto_epoch=1)["consolidated_epochs"] == 2
        with pytest.raises(ValueError, match="consolidated"):
            sink.snapshot_at(0)
        assert rows(sink.snapshot_at(1)) == [(1, 11, 1), (2, 20, 1)]
        assert rows(sink.snapshot_at(2)) == [(1, 11, 1)]

    def test_snapshot_at_expired_history_raises(self, tmp_path):
        sink = ExactlyOnceParquetSink(tmp_path / "ttx")
        sink.commit_tables(0, [pa.table({"k": [1], "diff": [1],
                                         "epoch": [0]})])
        sink.commit_tables(1, [pa.table({"k": [2], "diff": [1],
                                         "epoch": [1]})])
        sink.expire(before_epoch=1)
        with pytest.raises(ValueError, match="expired"):
            sink.snapshot_at(1)

    def test_stray_files_invisible(self, tmp_path):
        sink = ExactlyOnceParquetSink(tmp_path / "sink")
        sink.commit_tables(0, [pa.table({"a": [1]})])
        # simulate a crashed epoch-1 attempt: files written, no manifest
        import pyarrow.parquet as pq

        d = sink._epoch_dir(1)
        d.mkdir(parents=True)
        pq.write_table(pa.table({"a": [999]}), d / "part-00000.parquet")
        assert sink.committed_epochs() == [0]
        assert sink.read_committed_table()["a"].to_pylist() == [1]
        # replay of epoch 1 overwrites stray file and commits
        sink.commit_tables(1, [pa.table({"a": [2]})])
        assert sorted(sink.read_committed_table()["a"].to_pylist()) == [1, 2]

    def test_kill_resume_no_dupes_no_loss(self, ray_session, tmp_path):
        """Process epochs 0..2, 'crash', resume from checkpoint, replay — final
        output equals the no-crash run exactly."""
        tbl = events_table(120, seed=7)
        parts = split_epochs(tbl, 4)

        def run(root, crash_after=None):
            sess = StreamSession(root, num_shards=2, checkpoint_every=1)
            sess.add(KeyedAggregation(name="win", input="e", key_cols=["user_id"],
                                      value_col="value", ts_col="ts",
                                      aggs=("count", "sum"),
                                      window=WindowSpec.tumbling(250.0)))
            start = sess.resume()
            for e in range(start, 4):
                sess.process_epoch(e, {"e": parts[e]}, watermark=250.0 * (e + 1))
                if crash_after is not None and e == crash_after:
                    sess.store.shutdown()  # actors die, no final close
                    return sess, None
            final = sess.close()
            return sess, final

        # crashed run: dies after epoch 2
        sess1, _ = run(tmp_path / "cr", crash_after=2)
        # resume in a "new process": fresh session on same root
        sess2, _ = run(tmp_path / "cr")
        out_resumed = sess2.sinks["win"].read_committed_table().to_pandas()
        # reference: clean run
        sess3, _ = run(tmp_path / "clean")
        out_clean = sess3.sinks["win"].read_committed_table().to_pandas()
        key = ["user_id", "window_start"]
        a = out_resumed.sort_values(key).reset_index(drop=True)[key + ["count", "sum"]]
        b = out_clean.sort_values(key).reset_index(drop=True)[key + ["count", "sum"]]
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert sess2.sinks["win"].verify()


class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        chk = CheckpointManager(tmp_path / "chk")
        for epoch, blobs, wm in ((3, {0: b"abc", 1: b"def"}, 5.0),
                                 (5, {0: b"xyz", 1: b"uvw"}, 9.0)):
            for sid, blob in blobs.items():
                write_shard_file(chk.epoch_dir(epoch), sid, blob)
            chk.save(epoch, list(blobs), extra={"watermark": wm})
        assert chk.latest() == 5
        blobs, extra = chk.load(5)
        assert blobs == {0: b"xyz", 1: b"uvw"}
        assert extra["watermark"] == 9.0


class TestJoinRetention:
    def test_expired_rows_do_not_match(self, ray_session, tmp_path):
        """Retention bounds join state: rows older than watermark − retention
        are expired and cannot match later arrivals."""
        sess = StreamSession(tmp_path / "jr", num_shards=1)
        sess.add(StreamJoin(name="j", left_input="L", right_input="R",
                            left_key=["k"], right_key=["k"],
                            left_cols=["lval"], right_cols=["rval"],
                            left_ts="lts", right_ts="rts", retention=100.0))
        # epoch 0: left row at t=0
        sess.process_epoch(0, {"L": pa.table({"k": [1], "lval": [10], "lts": [0.0]})},
                           watermark=50.0)
        # epoch 1: watermark 200 → left row (t=0 < 200-100) expires
        sess.process_epoch(1, {"L": pa.table({"k": [2], "lval": [20], "lts": [190.0]})},
                           watermark=200.0)
        # epoch 2: right rows for both keys at t=210
        out = sess.process_epoch(2, {"R": pa.table({"k": [1, 2], "rval": [7, 8],
                                                    "rts": [210.0, 210.0]})})
        sess.store.shutdown()
        matched = out["j"].to_pandas()
        assert matched["k"].tolist() == [2]  # key 1 expired, key 2 survives


class TestSessionDistributed:
    def test_dataset_input_sessions_match_table_path(self, ray_session, tmp_path):
        import ray.data as rd

        tbl = events_table(400, seed=9).sort_by("ts")

        def run(root, as_dataset):
            sess = StreamSession(root, num_shards=2)
            sess.add(SessionWindowAggregation(name="s", input="e",
                                              key_cols=["user_id"], ts_col="ts",
                                              gap=40.0, value_col="value"))
            for e, part in enumerate(split_epochs(tbl, 3)):
                inp = rd.from_arrow(part).repartition(3) if as_dataset else part
                sess.process_epoch(e, {"e": inp})
            sess.close()
            return sess.sinks["s"].read_committed_table().to_pandas()

        a = run(tmp_path / "t", False).sort_values(["user_id", "session_start"]).reset_index(drop=True)
        b = run(tmp_path / "d", True).sort_values(["user_id", "session_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[["user_id", "session_start", "session_end", "count", "sum"]],
            b[["user_id", "session_start", "session_end", "count", "sum"]],
        )


class TestAutoWatermark:
    def test_bounded_out_of_orderness(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "aw", num_shards=1,
                             auto_watermark_delay=5.0)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["user_id"],
                                  value_col="value", ts_col="ts", aggs=("count",),
                                  window=WindowSpec.tumbling(10.0)))
        sess.process_epoch(0, {"e": pa.table({"user_id": [1], "ts": [12.0],
                                              "value": [1.0]})})
        # watermark = 12 - 5 = 7 → window [0,10) still open
        assert sess.watermark == pytest.approx(7.0)
        sess.process_epoch(1, {"e": pa.table({"user_id": [1], "ts": [22.0],
                                              "value": [1.0]})})
        # watermark = 17 → [0,10) closed and emitted
        out = sess.sinks["win"].read_committed_table().to_pandas()
        assert len(out) == 0 or out["window_start"].min() >= 0
        sess.close()
        final = sess.sinks["win"].read_committed_table().to_pandas()
        assert final["count"].sum() == 2


class TestDeterminismAcrossParallelism:
    def test_committed_rows_identical_any_shard_count(self, ray_session, tmp_path):
        """Same input stream + watermark schedule at shard counts 1/3/8 →
        byte-identical committed rows (integer payloads ⇒ exact)."""
        rng = np.random.default_rng(21)
        tbl = pa.table({
            "user_id": rng.integers(0, 12, 600),
            "ts": np.sort(rng.uniform(0, 500, 600)),
            "value": rng.integers(1, 50, 600).astype(np.float64),
        })
        outs = []
        for shards in (1, 3, 8):
            sess = StreamSession(tmp_path / f"det{shards}", num_shards=shards)
            sess.add(KeyedAggregation(name="w", input="e", key_cols=["user_id"],
                                      value_col="value", ts_col="ts",
                                      aggs=("count", "sum"),
                                      window=WindowSpec.tumbling(100.0)))
            for e, part in enumerate(split_epochs(tbl, 4)):
                wm = float(np.max(part["ts"].to_numpy()))
                sess.process_epoch(e, {"e": part}, watermark=wm)
            sess.close()
            df = (sess.sinks["w"].read_committed_table().to_pandas()
                  .sort_values(["user_id", "window_start"])
                  .reset_index(drop=True)[["user_id", "window_start", "count", "sum"]])
            outs.append(df)
        pd.testing.assert_frame_equal(outs[0], outs[1])
        pd.testing.assert_frame_equal(outs[0], outs[2])


class TestEpochIdempotency:
    def test_processing_same_epoch_twice_is_noop(self, ray_session, tmp_path):
        tbl = events_table(100, seed=5)
        sess = StreamSession(tmp_path / "idem", num_shards=2)
        sess.add(KeyedAggregation(name="g", input="e", key_cols=["user_id"],
                                  value_col="value", aggs=("count", "sum")))
        sess.process_epoch(0, {"e": tbl})
        before = sess.state_table("g").to_pandas().sort_values("user_id")
        sess.process_epoch(0, {"e": tbl})  # replay (e.g. driver retry)
        after = sess.state_table("g").to_pandas().sort_values("user_id")
        sess.store.shutdown()
        pd.testing.assert_frame_equal(before.reset_index(drop=True),
                                      after.reset_index(drop=True))


class TestBilinearJoin:
    def test_retraction_cancels_matches(self, ray_session, tmp_path):
        """DD bilinear join: retracting a left row emits diff=-1 matches so
        the accumulated multiset equals the batch join of the NET inputs."""
        sess = StreamSession(tmp_path / "bj", num_shards=2)
        sess.add(StreamJoin(name="j", left_input="L", right_input="R",
                            left_key=["k"], right_key=["k"],
                            left_cols=["lval"], right_cols=["rval"]))
        # epoch 0: left {k=1: a}, right {k=1: x} → match (a,x,+1)
        sess.process_epoch(0, {
            "L": pa.table({"k": [1], "lval": ["a"], "diff": [1]}),
            "R": pa.table({"k": [1], "rval": ["x"], "diff": [1]}),
        })
        # epoch 1: retract left a → match (a,x,−1); add right y → (a,x? no —
        # y matches net-left…) the retraction and the new right both probe.
        sess.process_epoch(1, {
            "L": pa.table({"k": [1], "lval": ["a"], "diff": [-1]}),
            "R": pa.table({"k": [1], "rval": ["y"], "diff": [1]}),
        })
        out = sess.sinks["j"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = (out.groupby(["k", "lval", "rval"])["diff"].sum())
        net = net[net != 0]
        # net inputs: left {} (a inserted then retracted), right {x, y}
        # → batch join is EMPTY
        assert len(net) == 0

    def test_insert_only_all_plus_one(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "bj2", num_shards=1)
        sess.add(StreamJoin(name="j", left_input="L", right_input="R",
                            left_key=["k"], right_key=["k"],
                            left_cols=["lval"], right_cols=["rval"]))
        sess.process_epoch(0, {"L": pa.table({"k": [1, 2], "lval": [10, 20]}),
                               "R": pa.table({"k": [1, 2], "rval": [5, 6]})})
        out = sess.sinks["j"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert (out["diff"] == 1).all()
        assert len(out) == 2


    def test_three_way_cascade_retraction_cancels(self, ray_session,
                                                  tmp_path):
        """Delta-join cascade: a second StreamJoin consumes the first's
        per-epoch emissions by name, and bilinearity COMPOSES — retracting
        a base row cancels its 3-way products, including via the buffered
        −1 row when the third stream arrives later."""
        sess = StreamSession(tmp_path / "j3", num_shards=2)
        sess.add(StreamJoin(name="ab", left_input="A", right_input="B",
                            left_key=["k"], right_key=["k"],
                            left_cols=["a"], right_cols=["b"]))
        sess.add(StreamJoin(name="abc", left_input="ab", right_input="C",
                            left_key=["k"], right_key=["k"],
                            left_cols=["a", "b"], right_cols=["c"]))
        sess.process_epoch(0, {
            "A": pa.table({"k": [1], "a": [10], "diff": [1]}),
            "B": pa.table({"k": [1], "b": [20], "diff": [1]}),
            "C": pa.table({"k": [1], "c": [30], "diff": [1]}),
        })
        out0 = sess.sinks["abc"].read_committed_table().to_pandas()
        # the cascade emits the 3-way match IN epoch 0 (same-epoch chaining)
        assert len(out0) == 1 and int(out0["diff"].iloc[0]) == 1
        # epoch 1: retract the A row → ab emits −1 → abc emits −1
        sess.process_epoch(1, {
            "A": pa.table({"k": [1], "a": [10], "diff": [-1]})})
        # epoch 2: a NEW C row probes abc's buffered ab rows (+1 and −1)
        # → the two emissions cancel
        sess.process_epoch(2, {
            "C": pa.table({"k": [1], "c": [40], "diff": [1]})})
        out = sess.sinks["abc"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = out.groupby(["k", "a", "b", "c"])["diff"].sum()
        assert (net == 0).all()  # net A is empty → 3-way join is empty
        # epoch 2 emitted BOTH signs (the −1 buffered ab row is live state)
        e2 = out[out["epoch"] == 2]
        assert sorted(e2["diff"]) == [-1, 1]


class TestRetractableSessions:
    def test_retraction_splits_session(self, ray_session, tmp_path):
        """Retracting a bridging point splits one session into two."""
        sess = StreamSession(tmp_path / "rs", num_shards=1)
        sess.add(SessionWindowAggregation(name="s", input="e",
                                          key_cols=["user_id"], ts_col="ts",
                                          gap=30.0, value_col="value",
                                          retractable=True, weight_col="diff"))
        # points 0, 25, 50 bridge into ONE session (gaps 25 each)
        sess.process_epoch(0, {"e": pa.table({
            "user_id": [1, 1, 1], "ts": [0.0, 25.0, 50.0],
            "value": [1.0, 1.0, 1.0], "diff": [1, 1, 1]})})
        # retract the bridge at t=25 → sessions {0} and {50}
        sess.process_epoch(1, {"e": pa.table({
            "user_id": [1], "ts": [25.0], "value": [1.0], "diff": [-1]})})
        sess.close()
        out = (sess.sinks["s"].read_committed_table().to_pandas()
               .sort_values("session_start"))
        assert len(out) == 2
        assert out["session_start"].tolist() == [0.0, 50.0]
        assert out["count"].tolist() == [1, 1]

    def test_retraction_equals_never_inserted(self, ray_session, tmp_path):
        rng = np.random.default_rng(13)
        n = 120
        tbl = pa.table({
            "user_id": rng.integers(0, 5, n),
            "ts": np.sort(rng.uniform(0, 400, n)),
            "value": np.ones(n),
        })
        sub_mask = (np.arange(n) % 4 == 0)

        def run(root, with_retraction):
            sess = StreamSession(root, num_shards=2)
            sess.add(SessionWindowAggregation(name="s", input="e",
                                              key_cols=["user_id"], ts_col="ts",
                                              gap=25.0, value_col="value",
                                              retractable=True, weight_col="diff"))
            if with_retraction:
                ones = pa.array(np.ones(n, dtype=np.int64))
                sess.process_epoch(0, {"e": tbl.append_column("diff", ones)})
                sub = tbl.filter(pa.array(sub_mask))
                sess.process_epoch(1, {"e": sub.append_column(
                    "diff", pa.array(-np.ones(int(sub_mask.sum()), dtype=np.int64)))})
            else:
                net = tbl.filter(pa.array(~sub_mask))
                sess.process_epoch(0, {"e": net.append_column(
                    "diff", pa.array(np.ones(int((~sub_mask).sum()), dtype=np.int64)))})
            sess.close()
            return (sess.sinks["s"].read_committed_table().to_pandas()
                    [["user_id", "session_start", "session_end", "count", "sum"]]
                    .sort_values(["user_id", "session_start"]).reset_index(drop=True))

        a = run(tmp_path / "a", True)
        b = run(tmp_path / "b", False)
        pd.testing.assert_frame_equal(a, b)


class TestResumableOutput:
    def test_rerun_skips_finished_partitions(self, ray_session, tmp_path):
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages.output import resumable_write_parquet
        from diffdataflowmlpipelines_ray.streaming.sink import ExactlyOnceParquetSink

        tbl = events_table(400, seed=17)
        ds = rd.from_arrow(tbl)
        root = tmp_path / "out"
        # first run "crashes" after 3 of 6 partitions: simulate by committing
        # only a prefix
        sink = ExactlyOnceParquetSink(root)
        parts = rd.from_arrow(tbl).split_proportionately([1 / 6] * 5)
        for i in range(3):
            sink.commit_dataset(i, parts[i])
        # resume: full call skips the 3 finished partitions
        res = resumable_write_parquet(rd.from_arrow(tbl), root, num_partitions=6)
        assert res["skipped"] == 3 and res["written"] == 3
        out = ExactlyOnceParquetSink(root).read_committed_table()
        assert out.num_rows == 400  # no dupes, no loss
        # second full rerun writes nothing
        res2 = resumable_write_parquet(rd.from_arrow(tbl), root, num_partitions=6)
        assert res2["written"] == 0 and res2["skipped"] == 6
        # every part is content-hashed: a same-size corruption is caught
        out_sink = ExactlyOnceParquetSink(root)
        assert out_sink.verify()
        flip_middle_byte(root / out_sink.manifest(4)["files"][0]["path"])
        assert not out_sink.verify()
        assert_sha256_entries(out_sink)


class TestWatermarkMonotonic:
    def test_regressing_watermark_ignored(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "wm", num_shards=1)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts", aggs=("count",),
                                  window=WindowSpec.tumbling(10.0)))
        sess.process_epoch(0, {"e": pa.table({"u": [1], "ts": [5.0], "v": [1.0]})},
                           watermark=50.0)
        sess.process_epoch(1, {"e": pa.table({"u": [1], "ts": [55.0], "v": [1.0]})},
                           watermark=20.0)  # regression → clamped to 50
        assert sess.watermark == 50.0
        sess.store.shutdown()


class TestEmptyEpochs:
    def test_windowed_empty_epoch(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "we", num_shards=1)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts", aggs=("count",),
                                  window=WindowSpec.sliding(20.0, 10.0)))
        sess.process_epoch(0, {"e": pa.table({"u": [1], "ts": [5.0], "v": [1.0]})})
        empty = pa.table({"u": pa.array([], type=pa.int64()),
                          "ts": pa.array([], type=pa.float64()),
                          "v": pa.array([], type=pa.float64())})
        sess.process_epoch(1, {"e": empty}, watermark=100.0)
        sess.close()
        out = sess.sinks["w"].read_committed_table().to_pandas()
        assert out["count"].sum() == 2  # row in 2 sliding windows; no dupes


class TestRound2AdviceFixes:
    """Regression tests for the round-1 advisor findings (ADVICE.md)."""

    def test_double_advance_same_epoch_raises_and_preserves_state(
        self, ray_session, tmp_path
    ):
        sess = StreamSession(tmp_path / "da", num_shards=2)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["user_id"],
                                  value_col="value", ts_col="ts",
                                  aggs=("count",),
                                  window=WindowSpec.tumbling(100.0)))
        tbl = pa.table({"user_id": [1, 1, 2], "ts": [10.0, 150.0, 400.0],
                        "value": [1.0, 2.0, 3.0]})
        sess.process_epoch(0, {"e": tbl}, watermark=200.0)
        first = sess.sinks["w"].read_committed_table()
        # a second advance under the SAME epoch with a higher watermark would
        # previously sweep windows into a silently-no-op commit (data loss)
        with pytest.raises(RuntimeError, match="already committed"):
            sess.advance_watermark(0, 500.0)
        # the swept-state guard left the late window intact: closing under a
        # fresh epoch emits it
        out = sess.advance_watermark(1, 500.0)
        sess.store.shutdown()
        assert first.num_rows == 2  # windows [0,100) and [100,200)
        assert out["w"].num_rows == 1  # window [400,500) closed at wm=500
        assert sess.sinks["w"].read_committed_table().num_rows == 3

    def test_out_of_order_retraction_minmax_not_double_counted(
        self, ray_session, tmp_path
    ):
        from diffdataflowmlpipelines_ray.state.aggregates import SumCountAgg

        sess = StreamSession(tmp_path / "oor", num_shards=1)
        sess.add(KeyedAggregation(name="g", input="e", key_cols=["k"],
                                  value_col="v", aggs=("count", "min", "max"),
                                  weight_col="diff"))
        # epoch 0: retraction of (k=1, v=5) arrives BEFORE its insert
        retr = pa.table({"k": [1], "v": [5.0], "diff": [-1]})
        ins = pa.table({"k": [1, 1], "v": [5.0, 7.0], "diff": [1, 1]})
        sess.process_epoch(0, {"e": retr})
        sess.process_epoch(1, {"e": ins})
        items = sess.store.collect("g")
        sess.store.shutdown()
        assert len(items) == 1
        acc = items[0][1]
        assert isinstance(acc, SumCountAgg)
        # net: one (k=1, v=7) row — the pending retraction consumed the 5.0
        assert acc.count == 1
        assert acc.min_max() == (7.0, 7.0)

    def test_auto_watermark_with_dataset_epochs(self, ray_session, tmp_path):
        import ray.data as rd

        sess = StreamSession(tmp_path / "awd", num_shards=2,
                             auto_watermark_delay=50.0)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["user_id"],
                                  ts_col="ts", aggs=("count",),
                                  window=WindowSpec.tumbling(100.0)))
        tbl = pa.table({"user_id": [1, 1, 2], "ts": [10.0, 90.0, 400.0]})
        # Dataset epochs (not pa.Table): watermark must still auto-advance
        sess.process_epoch(0, {"e": rd.from_arrow(tbl)})
        out = sess.sinks["w"].read_committed_table()
        sess.store.shutdown()
        # max ts 400 − delay 50 = wm 350 ⇒ window [0,100) closed and emitted
        assert out.num_rows == 1
        assert out["count"][0].as_py() == 2


class TestConnectedComponentsConvergence:
    def test_long_chain_converges_exactly(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components,
        )

        # path graph of 500 nodes: diameter 499 ≫ the old 50-iteration cap;
        # pointer doubling must still reach the exact fixpoint
        n = 500
        edges = pa.table({"id_lo": list(range(n - 1)),
                          "id_hi": list(range(1, n))})
        out = connected_components(edges).to_pandas()
        assert len(out) == n
        assert (out["component"] == 0).all()

    def test_two_components(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components,
        )

        edges = pa.table({"id_lo": [1, 2, 10, 11], "id_hi": [2, 3, 11, 12]})
        out = connected_components(edges).to_pandas().set_index("id")
        assert out.loc[3, "component"] == 1
        assert out.loc[12, "component"] == 10


class TestDistributedEpochRouting:
    """VERDICT r1 fixes 2+3: driver out of the StreamJoin / KeyedAggregation
    epoch data path when epochs arrive as Ray Datasets."""

    def test_stream_join_dataset_epochs_match_batch(self, ray_session, tmp_path):
        import ray.data as rd

        rng = np.random.default_rng(3)
        n = 5000
        left = pa.table({"k": rng.integers(0, 300, n),
                         "lv": rng.normal(size=n)})
        right = pa.table({"k2": rng.integers(0, 300, n),
                          "rv": rng.normal(size=n)})
        sess = StreamSession(tmp_path / "dj", num_shards=3)
        sess.add(StreamJoin(name="j", left_input="l", right_input="r",
                            left_key=["k"], right_key=["k2"],
                            left_cols=["lv"], right_cols=["rv"]))
        try:
            lp, rp = split_epochs(left, 3), split_epochs(right, 3)
            for e in range(3):
                sess.process_epoch(e, {
                    "l": rd.from_arrow(lp[e]).repartition(4),
                    "r": rd.from_arrow(rp[e]).repartition(4),
                })
            got = sess.sinks["j"].read_committed_table().to_pandas()
        finally:
            sess.store.shutdown()
        expect = left.to_pandas().merge(
            right.to_pandas(), left_on="k", right_on="k2"
        )
        assert len(got) == len(expect)
        assert got["lv"].sum() == pytest.approx(
            expect["lv"].sum(), rel=1e-9
        )
        key_counts = got.groupby("k").size().sort_index()
        exp_counts = expect.groupby("k").size().sort_index()
        assert key_counts.equals(exp_counts)

    def test_stream_join_dataset_equals_table_path(self, ray_session, tmp_path):
        import ray.data as rd

        left = pa.table({"k": [1, 2, 2, 3], "lv": [1.0, 2.0, 3.0, 4.0]})
        right = pa.table({"k2": [2, 3, 3], "rv": [10.0, 20.0, 30.0]})

        def run(root, left_blocks, right_blocks):
            sess = StreamSession(root, num_shards=2)
            sess.add(StreamJoin(name="j", left_input="l", right_input="r",
                                left_key=["k"], right_key=["k2"],
                                left_cols=["lv"], right_cols=["rv"]))
            try:
                for e in range(2):
                    l = left.slice(e * 2, 2)
                    r = right.slice(e, 2 - e)
                    sess.process_epoch(e, {"l": as_blocks(l, left_blocks),
                                           "r": as_blocks(r, right_blocks)})
                return (sess.sinks["j"].read_committed_table().to_pandas()
                        .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
            finally:
                sess.store.shutdown()

        a = run(tmp_path / "tbl", 0, 0)
        # one block; multi-block incl. empty blocks; a Table left side
        # beside a multi-block Dataset right side
        for blocks in ((1, 1), (4, 4), (0, 4)):
            b = run(tmp_path / "dsd{}-{}".format(*blocks), *blocks)
            pd.testing.assert_frame_equal(
                a[["k", "lv", "rv", "diff"]], b[["k", "lv", "rv", "diff"]]
            )

    def test_high_cardinality_keys_shard_direct(self, ray_session, tmp_path):
        import ray.data as rd

        # 1M distinct keys in one Dataset epoch: per-epoch key cardinality
        # must flow map-task → shard actors, never through a driver dict
        n = 1_000_000
        keys = np.arange(n, dtype=np.int64)
        vals = np.ones(n)
        tbl = pa.table({"user_id": keys, "value": vals})
        sess = StreamSession(tmp_path / "hc", num_shards=4,
                             checkpoint_every=0)
        sess.add(KeyedAggregation(name="g", input="e", key_cols=["user_id"],
                                  value_col="value", aggs=("count", "sum")))
        try:
            sess.process_epoch(0, {"e": rd.from_arrow(tbl).repartition(8)})
            stats = sess.stats()
            total_keys = sum(s["agg_keys"]["g"] for s in stats["shards"])
            assert total_keys == n
            # spot-check a few keys via collect of one shard's items
            items = sess.store.collect("g")
            assert len(items) == n
        finally:
            sess.store.shutdown()


class TestWorkerWrittenSinkParts:
    def test_write_epoch_part_then_commit_files(self, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.sink import write_epoch_part

        sink = ExactlyOnceParquetSink(tmp_path / "s")
        # two "workers" write their partitions; driver commits entries only
        e1 = write_epoch_part(sink.root, 0, pa.table({"a": [1, 2]}), "shard0")
        e2 = write_epoch_part(sink.root, 0, pa.table({"a": [3]}), "shard1")
        # not visible until the manifest commit
        assert sink.committed_epochs() == []
        m = sink.commit_files(0, [e2, e1])
        assert m["rows"] == 3
        assert sorted(sink.read_committed_table()["a"].to_pylist()) == [1, 2, 3]
        assert sink.verify()
        # idempotent re-commit (replay) keeps the original manifest
        m2 = sink.commit_files(0, [e1])
        assert m2["files"] == m["files"]
        sink.commit_tables(1, [pa.table({"a": [4]})])
        assert_sha256_entries(sink)

    def test_crashed_worker_parts_stay_invisible(self, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.sink import write_epoch_part

        sink = ExactlyOnceParquetSink(tmp_path / "s")
        write_epoch_part(sink.root, 5, pa.table({"a": [42]}), "shard0")
        # crash before commit_files: no manifest, nothing visible
        assert sink.committed_epochs() == []
        assert sink.read_committed_table().num_rows == 0


class TestExactDedupCollisionPath:
    def test_forced_h1_collision_resolved_exactly(self, ray_session, monkeypatch):
        import ray.data as rd
        from diffdataflowmlpipelines_ray.stages import dedup as D

        real = D.fast_hash64_array

        def collide_h1(tokens, seed=42):
            if seed == 101:  # h1 constant → EVERY text collides
                n = len(tokens)
                return np.zeros(n, dtype=np.uint64)
            return real(tokens, seed=seed)

        monkeypatch.setattr(D, "fast_hash64_array", collide_h1)
        ds = rd.from_arrow(pa.table({
            "doc_id": [4, 2, 7, 1],
            "text": ["aa", "bb", "aa", "cc"],
        })).repartition(2)
        ids = sorted(r["doc_id"] for r in D.exact_dedup_ids(ds).take_all())
        # distinct texts must never merge even under total h1 collision
        assert ids == [1, 2, 4]


class TestPatternMatch:
    def _mk(self, tmp_path, name="cep", within=100.0, lateness=0.0):
        from diffdataflowmlpipelines_ray.streaming.engine import PatternMatch

        sess = StreamSession(tmp_path / name, num_shards=2)
        sess.add(PatternMatch(name="p", input="e", key_cols=["k"],
                              ts_col="ts", type_col="t",
                              pattern=["a", "b", "c"], within=within,
                              allowed_lateness=lateness))
        return sess

    def test_incremental_equals_selfjoin(self, ray_session, tmp_path):
        rng = np.random.default_rng(7)
        n = 600
        tbl = pa.table({
            "k": rng.integers(0, 5, n),
            "ts": np.sort(rng.uniform(0, 1000, n)),
            "t": rng.choice(["a", "b", "c", "x"], n),
        })
        sess = self._mk(tmp_path, within=100.0)
        try:
            for e, part in enumerate(split_epochs(tbl, 4)):
                wm = float(np.max(part["ts"].to_numpy()))
                sess.process_epoch(e, {"e": part}, watermark=wm)
            sess.close(4)
            got = sess.sinks["p"].read_committed_table().to_pandas()
        finally:
            sess.store.shutdown()
        # brute-force reference: all (a,b,c) chains, strictly increasing ts,
        # span <= within
        pdf = tbl.to_pandas()
        exp = 0
        for k, g in pdf.groupby("k"):
            g = g.sort_values("ts")
            ats = g[g["t"] == "a"]["ts"].to_numpy()
            bts = g[g["t"] == "b"]["ts"].to_numpy()
            cts = g[g["t"] == "c"]["ts"].to_numpy()
            for ta in ats:
                for tb in bts[(bts > ta) & (bts <= ta + 100.0)]:
                    exp += int(((cts > tb) & (cts <= ta + 100.0)).sum())
        assert len(got) == exp
        # chains are strictly increasing and within the window
        assert (got["ts_1"] > got["ts_0"]).all()
        assert (got["ts_2"] > got["ts_1"]).all()
        assert (got["ts_2"] <= got["ts_0"] + 100.0).all()

    def test_no_double_emission_across_watermarks(self, ray_session, tmp_path):
        sess = self._mk(tmp_path, within=10.0)
        try:
            t0 = pa.table({"k": [1, 1, 1], "ts": [1.0, 2.0, 3.0],
                           "t": ["a", "b", "c"]})
            sess.process_epoch(0, {"e": t0}, watermark=5.0)   # start not final
            first = sess.sinks["p"].read_committed_table().num_rows
            sess.process_epoch(1, {"e": pa.table(
                {"k": [1], "ts": [8.0], "t": ["c"]})}, watermark=20.0)
            second = sess.sinks["p"].read_committed_table()
        finally:
            sess.store.shutdown()
        assert first == 0  # watermark 5 < start 1 + within 10
        # finalized at wm=20: chains (1,2,3) and (1,2,8) — each exactly once
        assert second.num_rows == 2

    def test_dataset_epochs_and_resume(self, ray_session, tmp_path):
        import ray.data as rd

        tbl = pa.table({"k": [1, 1, 1, 2], "ts": [1.0, 2.0, 3.0, 1.5],
                        "t": ["a", "b", "c", "a"]})
        root = tmp_path / "cepr"
        sess = self._mk(tmp_path, name="cepr", within=5.0)
        try:
            sess.process_epoch(0, {"e": rd.from_arrow(tbl)}, watermark=2.0)
            sess.checkpoint(0)
        finally:
            sess.store.shutdown()
        # resume and finish
        sess2 = self._mk(tmp_path, name="cepr", within=5.0)
        try:
            start = sess2.resume()
            assert start == 1
            out = sess2.advance_watermark(1, 50.0)
            got = out["p"].to_pandas()
        finally:
            sess2.store.shutdown()
        assert len(got) == 1
        assert got.iloc[0]["ts_0"] == 1.0


class TestSparseCheckpointRecovery:
    def test_checkpoint_every_4_crash_resume_exactly_once(
        self, ray_session, tmp_path
    ):
        """Amortized (every-K-epochs) checkpoints: a crash between
        checkpoints resumes from the last snapshot and REPLAYS the gap —
        sink idempotency + shard applied-marks make the replay exactly-once.
        This is the knob that keeps snapshot cost sublinear at scale."""
        tbl = events_table(400, seed=9)
        root = tmp_path / "sparse"

        def run(crash_after=None):
            sess = StreamSession(root, num_shards=2, checkpoint_every=4)
            sess.add(KeyedAggregation(
                name="w", input="e", key_cols=["user_id"],
                value_col="value", ts_col="ts", aggs=("count", "sum"),
                window=WindowSpec.tumbling(100.0)))
            start = sess.resume()
            parts = split_epochs(tbl, 10)
            try:
                for e, part in enumerate(parts):
                    if e < start:
                        continue
                    wm = float(np.max(part["ts"].to_numpy()))
                    sess.process_epoch(e, {"e": part}, watermark=wm)
                    if crash_after is not None and e == crash_after:
                        return sess, None  # "crash": no close, no cleanup
                sess.close(len(parts))
                out = sess.sinks["w"].read_committed_table().to_pandas()
                return sess, out
            finally:
                if sess.store.shards:
                    sess.store.shutdown()

        # crash at epoch 6 (last checkpoint: epoch 4)
        run(crash_after=6)
        _, got = run()
        # clean single run for reference
        sess = StreamSession(tmp_path / "clean", num_shards=2,
                             checkpoint_every=4)
        sess.add(KeyedAggregation(
            name="w", input="e", key_cols=["user_id"], value_col="value",
            ts_col="ts", aggs=("count", "sum"),
            window=WindowSpec.tumbling(100.0)))
        try:
            parts = split_epochs(tbl, 10)
            for e, part in enumerate(parts):
                wm = float(np.max(part["ts"].to_numpy()))
                sess.process_epoch(e, {"e": part}, watermark=wm)
            sess.close(len(parts))
            ref = sess.sinks["w"].read_committed_table().to_pandas()
        finally:
            sess.store.shutdown()
        key = ["user_id", "window_start"]
        g = got.groupby(key)[["count", "sum"]].sum().sort_index()
        r = ref.groupby(key)[["count", "sum"]].sum().sort_index()
        pd.testing.assert_frame_equal(g, r)


class TestDistributedPathEdgeCases:
    def test_retraction_cancels_through_dataset_join(self, ray_session, tmp_path):
        import ray.data as rd

        sess = StreamSession(tmp_path / "djr", num_shards=2)
        sess.add(StreamJoin(name="j", left_input="l", right_input="r",
                            left_key=["k"], right_key=["k2"],
                            left_cols=["lv"], right_cols=["rv"]))
        try:
            l0 = pa.table({"k": [1], "lv": [10.0], "diff": [1]})
            r0 = pa.table({"k2": [1], "rv": [7.0], "diff": [1]})
            sess.process_epoch(0, {"l": rd.from_arrow(l0),
                                   "r": rd.from_arrow(r0)})
            # retract the left row: the emitted match must carry diff = −1
            l1 = pa.table({"k": [1], "lv": [10.0], "diff": [-1]})
            sess.process_epoch(1, {"l": rd.from_arrow(l1),
                                   "r": rd.from_arrow(pa.table(
                                       {"k2": pa.array([], pa.int64()),
                                        "rv": pa.array([], pa.float64()),
                                        "diff": pa.array([], pa.int64())}))})
            out = sess.sinks["j"].read_committed_table().to_pandas()
        finally:
            sess.store.shutdown()
        # multiset-sums to zero: +1 match in epoch 0, −1 in epoch 1
        assert out["diff"].sum() == 0
        assert len(out) == 2

    def test_late_rows_counted_through_dataset_scatter(self, ray_session,
                                                       tmp_path):
        for blocks in (1, 4):  # 4: blocks without rows report nothing
            sess = StreamSession(tmp_path / f"dlate{blocks}", num_shards=2)
            sess.add(KeyedAggregation(name="w", input="e", key_cols=["u"],
                                      value_col="v", ts_col="ts",
                                      aggs=("count",),
                                      window=WindowSpec.tumbling(10.0)))
            t0 = pa.table({"u": [1], "ts": [5.0], "v": [1.0]})
            sess.process_epoch(0, {"e": as_blocks(t0, blocks)},
                               watermark=20.0)
            late = pa.table({"u": [1, 1], "ts": [7.0, 25.0],
                             "v": [1.0, 1.0]})
            sess.process_epoch(1, {"e": as_blocks(late, blocks)})
            try:
                assert sess.metrics["late_dropped"] == 1  # via summaries
                sess.close()
                out = sess.sinks["w"].read_committed_table().to_pandas()
            finally:
                if sess.store.shards:
                    sess.store.shutdown()
            assert out["count"].sum() == 2  # late row never lands


class TestRetractableSessionDatasetPath:
    def test_dataset_deltas_match_table_path(self, ray_session, tmp_path):
        import ray.data as rd

        pts = pa.table({
            "u": [1, 1, 1, 1], "ts": [0.0, 50.0, 100.0, 200.0],
            "v": [1.0, 1.0, 1.0, 1.0], "diff": [1, 1, 1, 1],
        })
        # retract the bridging 50.0 point → the session must SPLIT
        retr = pa.table({"u": [1], "ts": [50.0], "v": [1.0], "diff": [-1]})

        def run(root, blocks):
            sess = StreamSession(root, num_shards=2)
            sess.add(SessionWindowAggregation(
                name="s", input="e", key_cols=["u"], ts_col="ts",
                value_col="v", gap=60.0, retractable=True,
                weight_col="diff"))
            try:
                sess.process_epoch(0, {"e": as_blocks(pts, blocks)})
                sess.process_epoch(1, {"e": as_blocks(retr, blocks)})
                out = sess.advance_watermark(2, 1000.0)
                return (out["s"].to_pandas()
                        .sort_values("session_start").reset_index(drop=True))
            finally:
                sess.store.shutdown()

        a = run(tmp_path / "t", 0)
        for blocks in (1, 4):
            b = run(tmp_path / f"d{blocks}", blocks)
            pd.testing.assert_frame_equal(
                a[["u", "session_start", "session_end", "count"]],
                b[["u", "session_start", "session_end", "count"]],
            )
        # the retraction split one session into [0,..] [100,..] [200,..]
        assert len(a) == 3


class TestPaneBasedSliding:
    def test_incremental_sweeps_match_pandas(self, ray_session, tmp_path):
        tbl = events_table(400, seed=12).sort_by("ts")
        sess = StreamSession(tmp_path / "pane", num_shards=3)
        sess.add(KeyedAggregation(name="win", input="e",
                                  key_cols=["user_id"], value_col="value",
                                  ts_col="ts", aggs=("count", "sum"),
                                  window=WindowSpec.sliding(200.0, 50.0)))
        assert sess.ops["win"].window.use_panes  # 4 panes per window
        try:
            for e, part in enumerate(split_epochs(tbl, 8)):
                wm = float(np.max(part["ts"].to_numpy()))
                sess.process_epoch(e, {"e": part}, watermark=wm)
            # pane state stays bounded: ≤ (open panes) per key, never
            # windows-per-row replicas
            stats = sess.stats()
            open_keys = sum(s["agg_keys"].get("win", 0)
                            for s in stats["shards"])
            assert open_keys <= 10 * (200.0 / 50.0 + 1)
            sess.close()
            got = sess.sinks["win"].read_committed_table().to_pandas()
        finally:
            if sess.store.shards:
                sess.store.shutdown()
        pdf = tbl.to_pandas()
        rows = []
        for j in range(4):
            t = pdf.copy()
            t["window_start"] = (t["ts"] // 50.0 - j) * 50.0
            t = t[(t["ts"] >= t["window_start"])
                  & (t["ts"] < t["window_start"] + 200.0)]
            rows.append(t)
        exp = (pd.concat(rows).groupby(["user_id", "window_start"])["value"]
               .agg(["count", "sum"]).reset_index())
        g = (got.groupby(["user_id", "window_start"])[["count", "sum"]]
             .sum().sort_index())
        e = exp.set_index(["user_id", "window_start"]).sort_index()
        assert len(g) == len(e)
        assert g["count"].to_numpy() == pytest.approx(e["count"].to_numpy())
        assert g["sum"].to_numpy() == pytest.approx(e["sum"].to_numpy())

    def test_resweep_idempotent_after_resume(self, ray_session, tmp_path):
        root = tmp_path / "pane2"
        tbl = pa.table({"user_id": [1, 1, 1], "ts": [10.0, 60.0, 300.0],
                        "value": [1.0, 1.0, 1.0]})

        def mk():
            s = StreamSession(root, num_shards=2, checkpoint_every=1)
            s.add(KeyedAggregation(name="w", input="e",
                                   key_cols=["user_id"], value_col="value",
                                   ts_col="ts", aggs=("count",),
                                   window=WindowSpec.sliding(100.0, 50.0)))
            return s

        sess = mk()
        sess.process_epoch(0, {"e": tbl}, watermark=150.0)
        first = sess.sinks["w"].read_committed_table().num_rows
        sess.store.shutdown()
        # resume and replay the same epoch: no duplicate emissions
        sess2 = mk()
        start = sess2.resume()
        assert start == 1
        sess2.process_epoch(0, {"e": tbl}, watermark=150.0)  # blind replay
        sess2.close(2)
        try:
            out = sess2.sinks["w"].read_committed_table().to_pandas()
        finally:
            sess2.store.shutdown()
        counts = out.groupby(["user_id", "window_start"])["count"].sum()
        # windows [0,100):2? rows at 10,60 → [0,100) has 2, [-50,50):1,
        # [50,150):1 … every (window) exactly once, total count = rows×2
        assert counts.sum() == 6
        assert first >= 1


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_pattern_and_pane_outputs_identical(self, ray_session, tmp_path,
                                                shards):
        from diffdataflowmlpipelines_ray.streaming.engine import PatternMatch

        rng = np.random.default_rng(21)
        n = 300
        tbl = pa.table({
            "k": rng.integers(0, 6, n),
            "ts": np.sort(rng.uniform(0, 500, n)),
            "t": rng.choice(["a", "b", "x"], n),
            "v": rng.normal(size=n),
        })
        sess = StreamSession(tmp_path / f"si{shards}", num_shards=shards)
        sess.add(PatternMatch(name="p", input="e", key_cols=["k"],
                              ts_col="ts", type_col="t",
                              pattern=["a", "b"], within=40.0))
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["k"],
                                  value_col="v", ts_col="ts",
                                  aggs=("count", "sum"),
                                  window=WindowSpec.sliding(100.0, 25.0)))
        try:
            for e, part in enumerate(split_epochs(tbl, 4)):
                wm = float(np.max(part["ts"].to_numpy()))
                sess.process_epoch(e, {"e": part}, watermark=wm)
            sess.close(4)
            pat = (sess.sinks["p"].read_committed_table().to_pandas()
                   .drop(columns=["epoch"])
                   .sort_values(["k", "ts_0", "ts_1"]).reset_index(drop=True))
            win = (sess.sinks["w"].read_committed_table().to_pandas()
                   .groupby(["k", "window_start"])[["count", "sum"]].sum()
                   .sort_index())
        finally:
            if sess.store.shards:
                sess.store.shutdown()
        if not hasattr(TestShardCountInvariance, "_ref"):
            TestShardCountInvariance._ref = (pat, win)
        else:
            rp, rw = TestShardCountInvariance._ref
            pd.testing.assert_frame_equal(pat, rp)
            pd.testing.assert_frame_equal(
                win.reset_index(), rw.reset_index(), check_exact=False,
                rtol=1e-9,
            )


class TestWindowedRetrySemantics:
    def test_same_watermark_retry_is_noop(self, ray_session, tmp_path):
        """An in-session retry of a committed windowed epoch with the SAME
        watermark must stay a safe idempotent no-op (driver retry); only a
        HIGHER watermark under a committed epoch raises."""
        sess = StreamSession(tmp_path / "retry", num_shards=2)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts",
                                  aggs=("count",),
                                  window=WindowSpec.tumbling(10.0)))
        tbl = pa.table({"u": [1, 1], "ts": [5.0, 25.0], "v": [1.0, 1.0]})
        try:
            sess.process_epoch(0, {"e": tbl}, watermark=20.0)
            first = sess.sinks["w"].read_committed_table()
            # retry: same epoch, same watermark → no-op, no raise
            sess.advance_watermark(0, 20.0)
            again = sess.sinks["w"].read_committed_table()
            assert again.equals(first)
            # higher watermark under the committed epoch → refuse
            with pytest.raises(RuntimeError, match="lower"):
                sess.advance_watermark(0, 40.0)
            # fresh epoch closes the remaining window
            out = sess.advance_watermark(1, 40.0)
            assert out["w"].num_rows == 1
        finally:
            sess.store.shutdown()


class TestWatermarkMonotonicity:
    def test_backward_watermark_ignored(self, ray_session, tmp_path):
        """A regressing watermark (out-of-order coordinator message) must
        not reopen closed windows or produce duplicate emissions."""
        sess = StreamSession(tmp_path / "wmono", num_shards=2)
        sess.add(KeyedAggregation(name="w", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts",
                                  aggs=("count",),
                                  window=WindowSpec.tumbling(10.0)))
        try:
            t0 = pa.table({"u": [1, 1], "ts": [5.0, 25.0], "v": [1.0, 1.0]})
            sess.process_epoch(0, {"e": t0}, watermark=20.0)
            assert sess.watermark == 20.0
            # backward watermark: ignored (frontier is monotone)
            sess.process_epoch(1, {"e": pa.table(
                {"u": [1], "ts": [26.0], "v": [1.0]})}, watermark=5.0)
            assert sess.watermark == 20.0
            sess.close(2)
            out = sess.sinks["w"].read_committed_table().to_pandas()
        finally:
            if sess.store.shards:
                sess.store.shutdown()
        # [0,10) once; [20,30) once with both rows
        counts = out.groupby("window_start")["count"].sum()
        assert counts.to_dict() == {0.0: 1, 20.0: 2}


class TestKitchenSinkSession:
    def test_all_op_families_in_one_session(self, ray_session, tmp_path):
        """Windows (pane sliding), sessions, stateful join, CEP pattern and
        a plain keyed aggregate all share ONE session, one watermark and one
        epoch schedule; every surface must match its batch recompute."""
        from diffdataflowmlpipelines_ray.streaming.engine import PatternMatch

        rng = np.random.default_rng(77)
        n = 900
        ev = pa.table({
            "u": rng.integers(0, 8, n),
            "ts": np.sort(rng.uniform(0, 900, n)),
            "v": rng.normal(50, 5, n),
            "t": rng.choice(["a", "b", "c"], n),
        })
        rt = pa.table({
            "u": rng.integers(0, 8, 200),
            "rts": np.sort(rng.uniform(0, 900, 200)),
            "rv": rng.normal(size=200),
        })
        sess = StreamSession(tmp_path / "ks", num_shards=3)
        sess.add(KeyedAggregation(name="agg", input="e", key_cols=["u"],
                                  value_col="v", aggs=("count", "sum")))
        sess.add(KeyedAggregation(name="slide", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts", aggs=("count",),
                                  window=WindowSpec.sliding(100.0, 25.0)))
        sess.add(SessionWindowAggregation(name="sess", input="e",
                                          key_cols=["u"], ts_col="ts",
                                          gap=15.0))
        sess.add(PatternMatch(name="pat", input="e", key_cols=["u"],
                              ts_col="ts", type_col="t",
                              pattern=["a", "c"], within=30.0))
        sess.add(StreamJoin(name="j", left_input="e", right_input="r",
                            left_key=["u"], right_key=["u"],
                            left_cols=["v"], right_cols=["rv"]))
        try:
            eps = split_epochs(ev, 5)
            rps = split_epochs(rt, 5)
            for e in range(5):
                wm = float(np.max(eps[e]["ts"].to_numpy()))
                sess.process_epoch(e, {"e": eps[e], "r": rps[e]},
                                   watermark=wm)
            # live state reads come BEFORE close() (close shuts the actors
            # down after its final flush); sink reads work either way
            agg = sess.state_table("agg").to_pandas().set_index("u")
            sess.close(5)
            slide = (sess.sinks["slide"].read_committed_table().to_pandas()
                     .groupby(["u", "window_start"])["count"].sum())
            sess_out = sess.sinks["sess"].read_committed_table().to_pandas()
            pat = sess.sinks["pat"].read_committed_table().to_pandas()
            join = sess.sinks["j"].read_committed_table().to_pandas()
        finally:
            if sess.store.shards:
                sess.store.shutdown()

        pdf = ev.to_pandas()
        # 1) keyed aggregate == batch groupby
        ref = pdf.groupby("u")["v"].agg(["count", "sum"])
        assert (agg["count"].sort_index().to_numpy()
                == ref["count"].sort_index().to_numpy()).all()
        # 2) sliding windows == brute force
        rows = []
        for j4 in range(4):
            t = pdf.copy()
            t["window_start"] = (t["ts"] // 25.0 - j4) * 25.0
            t = t[(t["ts"] >= t["window_start"])
                  & (t["ts"] < t["window_start"] + 100.0)]
            rows.append(t)
        refw = (pd.concat(rows).groupby(["u", "window_start"]).size())
        assert slide.sort_index().equals(refw.sort_index())
        # 3) session count: gap-split brute force
        n_sessions = 0
        for _, g in pdf.groupby("u"):
            ts = np.sort(g["ts"].to_numpy())
            n_sessions += 1 + int((np.diff(ts) > 15.0).sum())
        assert len(sess_out) == n_sessions
        # 4) pattern count == all-combinations brute force
        exp_pat = 0
        for _, g in pdf.groupby("u"):
            g = g.sort_values("ts")
            ats = g[g["t"] == "a"]["ts"].to_numpy()
            cts = g[g["t"] == "c"]["ts"].to_numpy()
            for ta in ats:
                exp_pat += int(((cts > ta) & (cts <= ta + 30.0)).sum())
        assert len(pat) == exp_pat
        # 5) join == batch inner join
        exp_join = pdf.merge(rt.to_pandas(), on="u")
        assert len(join) == len(exp_join)


class TestEnrichJoin:
    def _op(self):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        return EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                          key=["u"], dim_vals=["tier"], stream_cols=["eid"],
                          dim_ts="up_ts", dim_types=[pa.int64()])

    @staticmethod
    def _dim(rows):
        u, tier, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "tier": pa.array(tier, type=pa.int64()),
                         "up_ts": pa.array(ts, type=pa.float64())})

    @staticmethod
    def _ev(pairs):
        u, eid = zip(*pairs)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "eid": pa.array(eid, type=pa.int64())})

    def _tiers(self, sess):
        df = sess.sinks["en"].read_committed_table().to_pandas()
        return {int(r.eid): (None if pd.isna(r.tier) else int(r.tier))
                for r in df.itertuples()}

    def test_lww_upserts_and_left_join_nulls(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "en1", num_shards=3)
        sess.add(self._op())
        # epoch 0: u1→10, u2→20; a STALE u1→-999 at an older stamp must lose
        sess.process_epoch(0, {"dim": self._dim([(1, 10, 0.0), (2, 20, 0.0),
                                                 (1, -999, -1.0)]),
                               "ev": self._ev([(1, 100), (2, 101), (3, 102)])})
        # epoch 1: u1 re-upserts to 11; u3 appears
        sess.process_epoch(1, {"dim": self._dim([(1, 11, 1.0), (3, 30, 1.0)]),
                               "ev": self._ev([(1, 200), (2, 201), (3, 202)])})
        got = self._tiers(sess)
        sess.store.shutdown()
        assert got == {100: 10, 101: 20, 102: None,
                       200: 11, 201: 20, 202: 30}

    def test_out_of_order_upsert_order_invariant(self, ray_session, tmp_path):
        # the NEWER stamp arrives in an EARLIER epoch: the later, older-stamp
        # upsert must not override it (semilattice, not last-epoch-wins)
        sess = StreamSession(tmp_path / "en2", num_shards=2)
        sess.add(self._op())
        sess.process_epoch(0, {"dim": self._dim([(7, 70, 5.0)]),
                               "ev": self._ev([(7, 1)])})
        sess.process_epoch(1, {"dim": self._dim([(7, -1, 2.0)]),
                               "ev": self._ev([(7, 2)])})
        got = self._tiers(sess)
        sess.store.shutdown()
        assert got == {1: 70, 2: 70}

    def test_resume_restores_registers(self, ray_session, tmp_path):
        root = tmp_path / "en3"
        sess = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess.add(self._op())
        sess.process_epoch(0, {"dim": self._dim([(1, 10, 0.0), (2, 20, 0.0)]),
                               "ev": self._ev([(1, 100)])})
        sess.store.shutdown()  # crash after epoch 0's checkpoint

        sess2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess2.add(self._op())
        assert sess2.resume() == 1
        # epoch 1 events must observe epoch 0's registers from the checkpoint
        sess2.process_epoch(1, {"ev": self._ev([(1, 200), (2, 201)])})
        got = self._tiers(sess2)
        sess2.store.shutdown()
        assert got == {100: 10, 200: 10, 201: 20}

    def test_tombstone_delete_shadows_and_misses(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "en4", num_shards=2)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["u"], dim_vals=["tier"], stream_cols=["eid"],
                            dim_ts="up_ts", dim_types=[pa.int64()],
                            dim_delete_col="del"))

        def dim(rows):
            u, tier, ts, dl = zip(*rows)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "tier": pa.array(tier, type=pa.int64()),
                             "up_ts": pa.array(ts, type=pa.float64()),
                             "del": pa.array(dl, type=pa.bool_())})

        # epoch 0: set u1; epoch 1: DELETE u1 at ts=1, and a LATE stale
        # upsert at ts=0.5 in the same epoch that the tombstone must shadow
        sess.process_epoch(0, {"dim": dim([(1, 10, 0.0, False)]),
                               "ev": self._ev([(1, 100)])})
        sess.process_epoch(1, {"dim": dim([(1, 1, 1.0, True),
                                           (1, -5, 0.5, False)]),
                               "ev": self._ev([(1, 200)])})
        # epoch 2: re-insert after the delete
        sess.process_epoch(2, {"dim": dim([(1, 12, 2.0, False)]),
                               "ev": self._ev([(1, 300)])})
        got = self._tiers(sess)
        sess.store.shutdown()
        assert got == {100: 10, 200: None, 300: 12}

    def test_dim_ttl_expires_stale_registers(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "en5", num_shards=2)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["u"], dim_vals=["tier"], stream_cols=["eid"],
                            dim_ts="up_ts", dim_types=[pa.int64()],
                            dim_ttl=5.0))
        # epoch 0 @ wm 0: u1 stamped at ts=0, u2 at ts=4
        sess.process_epoch(0, {"dim": self._dim([(1, 10, 0.0), (2, 20, 4.0)]),
                               "ev": self._ev([(1, 100), (2, 101)])},
                           watermark=0.0)
        # epoch 1 @ wm 6: u1's stamp (0) < 6−5 → expired; u2 (4) survives
        sess.process_epoch(1, {"ev": self._ev([(1, 200), (2, 201)])},
                           watermark=6.0)
        # epoch 2: after expiry, u1 reads as a miss; u2 still enriches
        sess.process_epoch(2, {"ev": self._ev([(1, 300), (2, 301)])})
        got = self._tiers(sess)
        keys = sum(st["agg_keys"].get("en", 0) for st in sess.store.stats())
        sess.store.shutdown()
        # epoch-1 events are enriched BEFORE the wm-6 sweep runs (watermark
        # advances after the epoch's probe), so 200 still sees tier 10
        assert got == {100: 10, 101: 20, 200: 10, 201: 20,
                       300: None, 301: 20}
        assert keys == 1  # only u2's register remains in shard state


class TestSharedArrangement:
    """share_from: ONE UpsertToRetract arrangement read by two operators —
    the owner's changelog emission and an EnrichJoin's probes — with no
    second copy of the dim state anywhere."""

    @staticmethod
    def _ups(rows):  # (k, v, ts, del)
        k, v, ts, d = zip(*rows) if rows else ((), (), (), ())
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "v": pa.array(v, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "del": pa.array(d, type=pa.bool_())})

    @staticmethod
    def _ev(rows):  # (k, eid)
        k, eid = zip(*rows) if rows else ((), ())
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "eid": pa.array(eid, type=pa.int64())})

    def _mk(self, root, num_shards=3):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            EnrichJoin, UpsertToRetract)

        sess = StreamSession(root, num_shards=num_shards, checkpoint_every=1)
        sess.add(UpsertToRetract(name="chg", input="u", key=["k"],
                                 vals=["v"], key_types=[pa.int64()],
                                 val_types=[pa.int64()], ts_col="ts",
                                 delete_col="del"))
        sess.add(EnrichJoin(name="en", dim_input="", stream_input="ev",
                            key=["k"], dim_vals=["price"],
                            stream_cols=["eid"], share_from="chg"))
        return sess

    def _enriched(self, sess):
        df = sess.sinks["en"].read_committed_table().to_pandas()
        return {int(e): (None if pd.isna(p) else int(p))
                for e, p in zip(df["eid"], df["price"])}

    def test_one_arrangement_two_readers(self, ray_session, tmp_path):
        sess = self._mk(tmp_path / "sa")
        # epoch 0: k1=10, k2=20; same-epoch events see them; k3 misses
        sess.process_epoch(0, {
            "u": self._ups([(1, 10, 1.0, False), (2, 20, 1.0, False)]),
            "ev": self._ev([(1, 100), (2, 101), (3, 102)])})
        # epoch 1: k1 updated, k2 tombstoned — both visible same-epoch
        sess.process_epoch(1, {
            "u": self._ups([(1, 11, 2.0, False), (2, 0, 2.0, True)]),
            "ev": self._ev([(1, 200), (2, 201)])})
        got = self._enriched(sess)
        chg = sess.sinks["chg"].read_committed_table().to_pandas()
        # the dim state lives ONLY under the owner's table name
        keys = {n for st in sess.store.stats()
                for n in st["agg_keys"] if st["agg_keys"][n]}
        sess.store.shutdown()
        assert got == {100: 10, 101: 20, 102: None, 200: 11, 201: None}
        # the SAME arrangement emitted the owner's changelog
        net = chg.groupby(["k", "v"])["diff"].sum()
        assert dict(net[net > 0].reset_index()
                    .set_index("k")["v"]) == {1: 11}
        assert "chg" in keys and "en" not in keys

    def test_share_survives_resume_and_rescale(self, ray_session, tmp_path):
        root = tmp_path / "sar"
        s1 = self._mk(root, num_shards=2)
        s1.process_epoch(0, {
            "u": self._ups([(i, i * 10, 1.0, False) for i in range(20)]),
            "ev": self._ev([(1, 100)])})
        s1.store.shutdown()
        s2 = self._mk(root, num_shards=5)  # rescaled resume
        assert s2.resume() == 1
        s2.process_epoch(1, {"ev": self._ev([(i, 200 + i)
                                             for i in range(22)])})
        got = self._enriched(s2)
        s2.store.shutdown()
        for i in range(20):
            assert got[200 + i] == i * 10
        assert got[220] is None and got[221] is None

    def test_validation(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            EnrichJoin, UpsertToRetract)

        sess = StreamSession(tmp_path / "sv", num_shards=1)
        with pytest.raises(ValueError, match="add the owning"):
            sess.add(EnrichJoin(name="e1", dim_input="", stream_input="ev",
                                key=["k"], dim_vals=["p"],
                                share_from="nope"))
        sess.add(UpsertToRetract(name="chg", input="u", key=["k"],
                                 vals=["a", "b"],
                                 key_types=[pa.int64()],
                                 val_types=[pa.int64(), pa.int64()],
                                 ts_col="ts"))
        with pytest.raises(ValueError, match="must name every column"):
            sess.add(EnrichJoin(name="e2", dim_input="", stream_input="ev",
                                key=["k"], dim_vals=["p"],
                                share_from="chg"))
        with pytest.raises(ValueError, match="dim_ttl"):
            EnrichJoin(name="e3", dim_input="", stream_input="ev",
                       key=["k"], dim_vals=["p", "q"], dim_ttl=10.0,
                       share_from="chg")
        # dim_types inherit from the owner on a valid share
        op = EnrichJoin(name="e5", dim_input="", stream_input="ev",
                        key=["k"], dim_vals=["p", "q"], share_from="chg")
        sess.add(op)
        assert op.dim_types == [pa.int64(), pa.int64()]
        sess.store.shutdown()


class TestStreamDedup:
    def _op(self, **kw):
        from diffdataflowmlpipelines_ray.streaming.engine import StreamDedup

        return StreamDedup(name="dd", input="ev", key=["u"], ts_col="ts",
                           order_cols=["eid"], carry=["eid"], **kw)

    @staticmethod
    def _ev(rows):
        u, ts, eid = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "eid": pa.array(eid, type=pa.int64())})

    def _emitted(self, sess):
        df = sess.sinks["dd"].read_committed_table().to_pandas()
        return sorted(zip(df["u"], df["eid"]))

    def test_first_seen_wins_within_and_across_epochs(self, ray_session,
                                                      tmp_path):
        sess = StreamSession(tmp_path / "dd1", num_shards=3)
        sess.add(self._op())
        # epoch 0: u1 twice (ts tie broken by eid), u2 once
        sess.process_epoch(0, {"ev": self._ev([(1, 5.0, 11), (1, 5.0, 10),
                                               (2, 1.0, 20)])})
        # epoch 1: u1/u2 again (dup), u3 new
        sess.process_epoch(1, {"ev": self._ev([(1, 0.5, 12), (2, 9.0, 21),
                                               (3, 2.0, 30)])})
        got = self._emitted(sess)
        sess.store.shutdown()
        assert got == [(1, 10), (2, 20), (3, 30)]

    def test_dataset_path_matches_table_path(self, ray_session, tmp_path):
        import ray.data as rd

        rng = np.random.default_rng(3)
        n = 600
        rows = list(zip(rng.integers(0, 80, n).tolist(),
                        rng.uniform(0, 100, n).round(3).tolist(),
                        range(n)))
        halves = [rows[:300], rows[300:]]

        outs = []
        for blocks in (0, 5, 4):
            sess = StreamSession(tmp_path / f"dd2_{blocks}", num_shards=4)
            sess.add(self._op())
            for e, chunk in enumerate(halves):
                sess.process_epoch(e, {"ev": as_blocks(self._ev(chunk),
                                                       blocks)})
            outs.append(self._emitted(sess))
            sess.store.shutdown()
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0]) == len({u for u, _, _ in rows})

    def test_replayed_epoch_is_idempotent(self, ray_session, tmp_path):
        root = tmp_path / "dd3"
        sess = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess.add(self._op())
        sess.process_epoch(0, {"ev": self._ev([(1, 1.0, 10), (2, 2.0, 20)])})
        sess.process_epoch(1, {"ev": self._ev([(1, 3.0, 11), (3, 4.0, 30)])})
        before = self._emitted(sess)
        sess.store.shutdown()

        # duplicate delivery of epoch 1 after resume: the claims re-win
        # deterministically and the existing manifest absorbs the commit —
        # the sink stays exactly-once
        sess2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess2.add(self._op())
        assert sess2.resume() == 2
        sess2.process_epoch(1, {"ev": self._ev([(1, 3.0, 11), (3, 4.0, 30)])})
        after = self._emitted(sess2)
        sess2.store.shutdown()
        assert after == before == [(1, 10), (2, 20), (3, 30)]

    def test_ttl_reopens_dedup_window(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "dd4", num_shards=2)
        sess.add(self._op(ttl=5.0))
        sess.process_epoch(0, {"ev": self._ev([(1, 0.0, 10), (2, 6.0, 20)])},
                           watermark=4.0)
        # wm 10: u1's register (ts 0 < 10−5) ages out; u2 (ts 6) survives
        sess.process_epoch(1, {"ev": self._ev([(9, 9.5, 90)])},
                           watermark=10.0)
        # u1 re-emits (window reopened); u2 still suppressed
        sess.process_epoch(2, {"ev": self._ev([(1, 11.0, 12), (2, 11.0, 22)])})
        got = self._emitted(sess)
        sess.store.shutdown()
        assert got == [(1, 10), (1, 12), (2, 20), (9, 90)]


class TestLineage:
    def test_lineage_stamped_into_manifests(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "lin", num_shards=1)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["user_id"],
                                  value_col="value", ts_col="ts",
                                  aggs=("count",),
                                  window=WindowSpec.tumbling(10.0)))
        for e in range(2):
            t = pa.table({"user_id": [1, 2], "ts": [e * 10.0 + 1, e * 10.0 + 2],
                          "value": [1.0, 1.0]})
            sess.process_epoch(e, {"e": t}, watermark=(e + 1) * 10.0,
                               lineage={"source": "s3://bucket/shard", "epoch": e,
                                        "offset": e * 2})
        sess.close()
        rep = sess.sinks["win"].lineage_report()
        assert {0, 1} <= set(rep)  # close() may commit a final flush epoch
        for e in (0, 1):
            assert rep[e]["lineage"]["offset"] == e * 2
            assert rep[e]["metrics"] is not None
            assert rep[e]["files"]

    def test_flagship_manifests_carry_lineage(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.pipelines.flagship import run_flagship

        run_flagship("/root/testdata/sf0.001", tmp_path / "fl", n_epochs=2)
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )

        sink = ExactlyOnceParquetSink(tmp_path / "fl" / "encoded")
        rep = sink.lineage_report()
        assert sorted(rep) == [0, 1]
        for e in (0, 1):
            lin = rep[e]["lineage"]
            assert lin["epoch"] == e and lin["source"].endswith(
                "documents.parquet")



class TestIntervalJoin:
    def _mk(self, tmp_path, max_dt, num_shards=2):
        sess = StreamSession(tmp_path / "ivj", num_shards=num_shards)
        sess.add(StreamJoin(name="ij", left_input="l", right_input="r",
                            left_key=["u"], right_key=["u"],
                            left_cols=["lid"], right_cols=["rid"],
                            left_ts="lts", right_ts="rts", max_dt=max_dt))
        return sess

    def test_boundary_inclusive_and_cross_epoch(self, ray_session, tmp_path):
        sess = self._mk(tmp_path, max_dt=10.0)
        l0 = pa.table({"u": [1, 1], "lid": [100, 101], "lts": [0.0, 50.0]})
        r0 = pa.table({"u": [1], "rid": [200], "rts": [10.0]})   # dt=10 → in
        sess.process_epoch(0, {"l": l0, "r": r0})
        # epoch 1: right row matching the buffered epoch-0 left at dt=10.0001
        r1 = pa.table({"u": [1, 1], "rid": [201, 202],
                       "rts": [10.0001, 55.0]})
        sess.process_epoch(1, {"r": r1})
        df = sess.sinks["ij"].read_committed_table().to_pandas()
        sess.store.shutdown()
        pairs = set(zip(df["lid"], df["rid"]))
        assert pairs == {(100, 200), (101, 202)}  # 201 out by 1e-4 s

    def test_requires_ts_cols(self, ray_session, tmp_path):
        with pytest.raises(ValueError, match="max_dt requires"):
            StreamJoin(name="x", left_input="l", right_input="r",
                       left_key=["u"], right_key=["u"],
                       left_cols=["a"], right_cols=["b"], max_dt=5.0)

    def test_distributed_epoch_path(self, ray_session, tmp_path):
        import ray.data as rd
        sess = self._mk(tmp_path, max_dt=10.0)
        l0 = pa.table({"u": [1, 2], "lid": [1, 2], "lts": [0.0, 0.0]})
        r0 = pa.table({"u": [1, 2], "rid": [11, 12], "rts": [5.0, 30.0]})
        sess.process_epoch(0, {"l": rd.from_arrow(l0), "r": rd.from_arrow(r0)})
        df = sess.sinks["ij"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert set(zip(df["lid"], df["rid"])) == {(1, 11)}

    def test_retraction_cancels_within_window_only(self, ray_session, tmp_path):
        sess = self._mk(tmp_path, max_dt=10.0)
        sess.process_epoch(0, {"l": pa.table({"u": [1], "lid": [1],
                                              "lts": [0.0]}),
                               "r": pa.table({"u": [1], "rid": [9],
                                              "rts": [5.0]})})
        # retract the left row: emits the SAME pair with diff −1
        sess.process_epoch(1, {"l": pa.table({"u": [1], "lid": [1],
                                              "lts": [0.0],
                                              "diff": [-1]})})
        df = sess.sinks["ij"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = df.groupby(["lid", "rid"])["diff"].sum()
        assert (net == 0).all()


class TestCompaction:
    def _sink(self, tmp_path, n_epochs=4, rows_per=5):
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )
        sink = ExactlyOnceParquetSink(tmp_path / "cpk", fsync=False)
        for e in range(n_epochs):
            if e == 2:  # a zero-row epoch
                sink.commit_tables(e, [pa.table({"x": pa.array([], pa.int64()),
                                                 "e": pa.array([], pa.int64())})],
                                   meta={"lineage": {"epoch": e}})
                continue
            sink.commit_tables(e, [pa.table({
                "x": pa.array(range(e * 100, e * 100 + rows_per)),
                "e": pa.array([e] * rows_per)})],
                meta={"lineage": {"epoch": e}})
        return sink

    def test_compact_preserves_reads_and_idempotency(self, ray_session,
                                                     tmp_path):
        sink = self._sink(tmp_path)
        before_all = sink.read_committed_table().to_pandas().sort_values(
            "x").reset_index(drop=True)
        before_e1 = sink.read_committed_table(epochs=[1]).to_pandas()
        res = sink.compact()
        assert res["compacted_epochs"] == 4
        after_all = sink.read_committed_table().to_pandas().sort_values(
            "x").reset_index(drop=True)
        pd.testing.assert_frame_equal(before_all, after_all)
        pd.testing.assert_frame_equal(
            before_e1, sink.read_committed_table(epochs=[1]).to_pandas())
        # replay idempotency: the epoch is still committed; a re-commit no-ops
        assert sink.is_committed(1)
        m = sink.commit_tables(1, [pa.table({"x": [999], "e": [1]})])
        assert m.get("compacted_into")
        assert 999 not in set(
            sink.read_committed_table(epochs=[1]).to_pandas()["x"])
        assert sink.total_rows() == 15
        assert sink.lineage_report()[1]["compacted_into"] == res["id"]
        # only ONE data file remains for the 4 epochs
        assert len(sink.committed_files()) == 1
        # zero-row epoch reads empty
        assert sink.read_committed_table(epochs=[2]).num_rows == 0

    def test_partial_compaction_and_new_epochs(self, ray_session, tmp_path):
        sink = self._sink(tmp_path)
        sink.compact(upto_epoch=1)
        # later epochs untouched; new epochs keep committing
        sink.commit_tables(4, [pa.table({"x": [7], "e": [4]})])
        got = sink.read_committed_table().to_pandas()
        assert len(got) == 16
        with pytest.raises(ValueError, match="compaction"):
            sink.committed_files(epochs=[0])  # partial read of a compaction
        # full compaction file + remaining epoch files
        assert len(sink.committed_files()) == 1 + 2 + 1  # compact, e3, e4 (e2 empty file)

    def test_streamsession_sink_compacts(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "sc", num_shards=1, fsync=False)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts", aggs=("sum",),
                                  window=WindowSpec.tumbling(10.0)))
        for e in range(3):
            t = pa.table({"u": [1], "ts": [e * 10.0 + 1.0], "v": [2.0]})
            sess.process_epoch(e, {"e": t}, watermark=(e + 1) * 10.0)
        before = sess.sinks["win"].read_committed_table().to_pandas()
        sess.sinks["win"].compact()
        after = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        pd.testing.assert_frame_equal(
            before.sort_values("window_start").reset_index(drop=True),
            after.sort_values("window_start").reset_index(drop=True))


class TestExpire:
    def test_expire_plain_and_compacted(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )
        sink = ExactlyOnceParquetSink(tmp_path / "exp", fsync=False)
        for e in range(6):
            sink.commit_tables(e, [pa.table({"x": [e]})])
        sink.compact(upto_epoch=2)  # epochs 0-2 → one compaction
        res = sink.expire(before_epoch=4)
        # compaction (0,1,2) fully below cut → dropped; epoch 3 plain → dropped
        assert res["expired_epochs"] == [0, 1, 2, 3]
        got = sorted(sink.read_committed_table().to_pandas()["x"])
        assert got == [4, 5]
        # exactly-once: expired epochs still committed; re-commit no-ops
        assert sink.is_committed(0)
        sink.commit_tables(0, [pa.table({"x": [999]})])
        assert sorted(sink.read_committed_table().to_pandas()["x"]) == [4, 5]
        # historical record intact
        assert sink.total_rows() == 6
        assert sink.lineage_report()[0]["files"] == []

    def test_expire_keeps_straddling_compaction(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )
        sink = ExactlyOnceParquetSink(tmp_path / "exp2", fsync=False)
        for e in range(4):
            sink.commit_tables(e, [pa.table({"x": [e]})])
        sink.compact()  # covers 0-3
        res = sink.expire(before_epoch=2)  # straddles → keep everything
        assert res["expired_epochs"] == []
        assert sorted(sink.read_committed_table().to_pandas()["x"]) == [0, 1, 2, 3]


class TestCheckpointPrune:
    def test_prune_keeps_newest_and_resume_works(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "pr", num_shards=1,
                             checkpoint_every=1, fsync=False)
        sess.add(KeyedAggregation(name="agg", input="e", key_cols=["u"],
                                  value_col="v", aggs=("count", "sum")))
        for e in range(5):
            sess.process_epoch(e, {"e": pa.table({"u": [1], "v": [1.0]})})
            sess.checkpoint(e)
        dirs = sorted(p.name for p in (tmp_path / "pr" / "_checkpoints")
                      .glob("epoch-*"))
        assert dirs == ["epoch-00000003", "epoch-00000004"]
        sess.store.shutdown()
        # resume from the (pruned-to) latest
        sess2 = StreamSession(tmp_path / "pr", num_shards=1, fsync=False)
        sess2.add(KeyedAggregation(name="agg", input="e", key_cols=["u"],
                                   value_col="v", aggs=("count", "sum")))
        assert sess2.resume() == 5
        tbl = sess2.state_table("agg").to_pandas()
        sess2.store.shutdown()
        assert tbl["count"].iloc[0] == 5


class TestVerifyCompaction:
    def test_verify_detects_missing_compaction_file(self, ray_session,
                                                    tmp_path):
        import shutil
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )
        sink = ExactlyOnceParquetSink(tmp_path / "vc", fsync=False)
        for e in range(3):
            sink.commit_tables(e, [pa.table({"x": [e]})])
        res = sink.compact()
        assert sink.verify()
        shutil.rmtree(tmp_path / "vc" / "data" / f"compact-{res['id']}")
        assert not sink.verify()


class TestSinkLifecycleLongStream:
    def test_compact_expire_prune_keep_storage_bounded(self, ray_session,
                                                       tmp_path):
        """40-epoch stream with periodic compaction + retention + checkpoint
        pruning: storage (files, snapshot dirs) stays bounded while recent
        epochs remain exactly readable — the 10⁶-epoch lifecycle in
        miniature."""
        sess = StreamSession(tmp_path / "life", num_shards=2,
                             checkpoint_every=5, fsync=False)
        sess.add(KeyedAggregation(name="win", input="e", key_cols=["u"],
                                  value_col="v", ts_col="ts", aggs=("sum",),
                                  window=WindowSpec.tumbling(10.0)))
        sink = sess.sinks["win"]
        for e in range(40):
            t = pa.table({"u": [e % 3], "ts": [e * 10.0 + 1.0], "v": [1.0]})
            sess.process_epoch(e, {"e": t}, watermark=(e + 1) * 10.0,
                               lineage={"epoch": e})
            if e and e % 10 == 0:
                sink.compact(upto_epoch=e - 5)
                sink.expire(before_epoch=e - 20)
        # storage bounded: data files ≪ epochs, checkpoints pruned to 2
        files = list((tmp_path / "life" / "win" / "data").rglob("*.parquet"))
        assert len(files) < 20
        chk_dirs = list((tmp_path / "life" / "_checkpoints").glob("epoch-*"))
        assert len(chk_dirs) == 2
        # recent epochs read exactly: one closed window per epoch, sum 1.0
        recent = sink.read_committed_table(
            epochs=list(range(35, 40))).to_pandas()
        assert len(recent) == 5
        assert (recent["sum"] == 1.0).all()
        assert sink.verify()
        # every manifest still present (exactly-once replay intact)
        assert sink.committed_epochs() == list(range(40))
        sess.store.shutdown()


class TestEnrichJoinDatasetTombstone:
    def test_tombstone_on_dataset_dim_path(self, ray_session, tmp_path):
        """Deletes must survive the DISTRIBUTED dim-scatter path (per-block
        partial fold + shard-direct apply), not just driver Tables."""
        import ray.data as rd
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "en5", num_shards=2)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["u"], dim_vals=["tier"], stream_cols=["eid"],
                            dim_ts="up_ts", dim_types=[pa.int64()],
                            dim_delete_col="del"))

        def dim(rows):
            u, tier, ts, dl = zip(*rows)
            return rd.from_arrow(pa.table({
                "u": pa.array(u, type=pa.int64()),
                "tier": pa.array(tier, type=pa.int64()),
                "up_ts": pa.array(ts, type=pa.float64()),
                "del": pa.array(dl, type=pa.bool_())}))

        def ev(pairs):
            u, eid = zip(*pairs)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "eid": pa.array(eid, type=pa.int64())})

        sess.process_epoch(0, {"dim": dim([(1, 10, 0.0, False),
                                           (2, 20, 0.0, False)]),
                               "ev": ev([(1, 100), (2, 101)])})
        # delete u1 + a same-epoch STALE resurrect the tombstone shadows
        sess.process_epoch(1, {"dim": dim([(1, 0, 1.0, True),
                                           (1, 777, 0.5, False)]),
                               "ev": ev([(1, 200), (2, 201)])})
        df = sess.sinks["en"].read_committed_table().to_pandas()
        sess.store.shutdown()
        got = {int(r.eid): (None if pd.isna(r.tier) else int(r.tier))
               for r in df.itertuples()}
        assert got == {100: 10, 101: 20, 200: None, 201: 20}


class TestResumeAfterCompaction:
    def test_replay_noop_and_continue_after_compact(self, ray_session,
                                                    tmp_path):
        """Crash after compaction → resume: replayed epochs must no-op
        against their (compacted) manifests, new epochs append normally,
        and the full read stays exact."""
        def mk():
            s = StreamSession(tmp_path / "rc", num_shards=1,
                              checkpoint_every=2, fsync=False)
            s.add(KeyedAggregation(name="agg", input="e", key_cols=["u"],
                                   value_col="v", ts_col="ts",
                                   aggs=("count",),
                                   window=WindowSpec.tumbling(10.0)))
            return s

        sess = mk()
        for e in range(6):
            t = pa.table({"u": [1], "ts": [e * 10.0 + 1.0], "v": [1.0]})
            sess.process_epoch(e, {"e": t}, watermark=(e + 1) * 10.0)
            sess.checkpoint(e)
        sess.sinks["agg"].compact(upto_epoch=3)
        sess.store.shutdown()  # crash — no close()

        sess2 = mk()
        start = sess2.resume()
        assert start == 6
        # replay attempt of an already-committed (now compacted) epoch: the
        # sink manifest makes the commit a no-op
        sess2.process_epoch(
            3, {"e": pa.table({"u": [1], "ts": [31.0], "v": [99.0]})},
            watermark=40.0)
        for e in (6, 7):
            t = pa.table({"u": [1], "ts": [e * 10.0 + 1.0], "v": [1.0]})
            sess2.process_epoch(e, {"e": t}, watermark=(e + 1) * 10.0)
        out = sess2.sinks["agg"].read_committed_table().to_pandas()
        sess2.store.shutdown()
        # exactly one window per epoch 0..7, each count 1 — no dupes/loss
        assert len(out) == 8
        assert (out["count"] == 1).all()
        assert sorted(out["window_start"]) == [e * 10.0 for e in range(8)]


class TestSchemaEvolution:
    def test_added_column_promotes_on_read(self, ray_session, tmp_path):
        """A later epoch adds a column: read_committed_table promotes the
        union schema (old epochs read null for the new column), and
        compaction preserves exactly that."""
        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink,
        )
        sink = ExactlyOnceParquetSink(tmp_path / "se", fsync=False)
        sink.commit_tables(0, [pa.table({"x": [1, 2]})])
        sink.commit_tables(1, [pa.table({"x": [3], "extra": ["v"]})])
        t = sink.read_committed_table()
        assert set(t.column_names) == {"x", "extra"}
        df = t.to_pandas().sort_values("x")
        assert list(df["extra"].isna()) == [True, True, False]
        sink.compact()
        t2 = sink.read_committed_table().to_pandas().sort_values("x")
        assert list(t2["extra"].isna()) == [True, True, False]
        assert sorted(t2["x"]) == [1, 2, 3]


class TestEnrichJoinAdviceR3:
    """Round-3 ADVICE regressions: empty dim_vals must still maintain
    registers, and stream-side event time must drive the auto-watermark."""

    @staticmethod
    def _dim(rows):
        u, tier, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "tier": pa.array(tier, type=pa.int64()),
                         "up_ts": pa.array(ts, type=pa.float64())})

    @staticmethod
    def _ev_ts(rows):
        u, eid, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "eid": pa.array(eid, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64())})

    def test_empty_dim_vals_registers_kept(self, ray_session, tmp_path):
        # dim_vals=() is an existence register; the old zip(*[]) path
        # silently truncated every upsert to zero rows
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "enr0", num_shards=2)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["u"], dim_vals=(), stream_cols=["eid"],
                            dim_ts="up_ts"))
        sess.process_epoch(0, {"dim": self._dim([(1, 10, 0.0), (2, 20, 0.0)]),
                               "ev": self._ev_ts([(1, 100, 0.0)])})
        keys = sum(st["agg_keys"].get("en", 0) for st in sess.store.stats())
        sess.store.shutdown()
        assert keys == 2

    def test_stream_ts_drives_auto_watermark_ttl(self, ray_session, tmp_path):
        # EnrichJoin-only session, NO explicit watermarks: stream event time
        # must advance the auto-watermark so dim_ttl sweeps fire
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "enr1", num_shards=2,
                             auto_watermark_delay=1.0)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["u"], dim_vals=["tier"], stream_cols=["eid"],
                            dim_ts="up_ts", dim_types=[pa.int64()],
                            dim_ttl=5.0, stream_ts="ts"))
        # epoch 0: u1 stamped at 0, u2 at 4; events at ts≤1 → wm 0
        sess.process_epoch(0, {"dim": self._dim([(1, 10, 0.0), (2, 20, 4.0)]),
                               "ev": self._ev_ts([(1, 100, 1.0),
                                                  (2, 101, 1.0)])})
        # epoch 1: events at ts 7 → wm 6 → u1 (stamp 0 < 6−5) expires AFTER
        # this epoch's probe
        sess.process_epoch(1, {"ev": self._ev_ts([(1, 200, 7.0),
                                                  (2, 201, 7.0)])})
        # epoch 2: u1 reads as a miss, u2 still enriches
        sess.process_epoch(2, {"ev": self._ev_ts([(1, 300, 7.5),
                                                  (2, 301, 7.5)])})
        df = sess.sinks["en"].read_committed_table().to_pandas()
        got = {int(r.eid): (None if pd.isna(r.tier) else int(r.tier))
               for r in df.itertuples()}
        keys = sum(st["agg_keys"].get("en", 0) for st in sess.store.stats())
        sess.store.shutdown()
        assert got == {100: 10, 101: 20, 200: 10, 201: 20,
                       300: None, 301: 20}
        assert keys == 1


class TestAbsenceDetect:
    """CEP negation: first-type events with NO absent-type event within the
    window, watermark-finalized, exactly-once."""

    @staticmethod
    def _ev(rows):
        u, typ, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "event_type": pa.array(typ, type=pa.string()),
                         "ts": pa.array(ts, type=pa.float64())})

    def _op(self, **kw):
        from diffdataflowmlpipelines_ray.streaming.engine import AbsenceDetect

        return AbsenceDetect(name="ab", input="ev", key_cols=["u"],
                             ts_col="ts", type_col="event_type",
                             first="click", absent="purchase",
                             within=10.0, **kw)

    def test_emits_only_uncancelled_and_is_incremental(self, ray_session,
                                                       tmp_path):
        sess = StreamSession(tmp_path / "ab1", num_shards=3)
        sess.add(self._op())
        # u1: click@1 cancelled by purchase@5; u2: click@2 uncancelled;
        # u3: click@3 with purchase@20 OUTSIDE the window → emits
        sess.process_epoch(0, {"ev": self._ev([
            (1, "click", 1.0), (1, "purchase", 5.0),
            (2, "click", 2.0), (3, "click", 3.0),
            (2, "view", 4.0),                      # irrelevant type ignored
        ])}, watermark=4.0)   # nothing finalizable yet (4 < ts+10)
        assert sess.sinks["ab"].read_committed_table().num_rows == 0
        sess.process_epoch(1, {"ev": self._ev([(3, "purchase", 20.0)])},
                           watermark=13.0)  # finalizes ts ≤ 3
        mid = sess.sinks["ab"].read_committed_table().to_pandas()
        # u2@2 and u3@3 emit (u3's purchase@20 is outside (3, 13])
        got_mid = sorted(zip(mid["u"], mid["ts"]))
        assert got_mid == [(2, 2.0), (3, 3.0)]
        sess.process_epoch(2, {"ev": self._ev([(4, "click", 30.0)])},
                           watermark=100.0)  # flush everything
        df = sess.sinks["ab"].read_committed_table().to_pandas()
        keys = sum(st["agg_keys"].get("ab", 0) for st in sess.store.stats())
        sess.store.shutdown()
        got = sorted(zip(df["u"], df["ts"]))
        assert got == [(2, 2.0), (3, 3.0), (4, 30.0)]

    def test_multiset_and_late_drop(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "ab2", num_shards=2)
        sess.add(self._op(allowed_lateness=0.0))
        # two copies of the same uncancelled click → two rows
        sess.process_epoch(0, {"ev": self._ev([
            (7, "click", 1.0), (7, "click", 1.0)])}, watermark=12.0)
        # a late click at ts 0.5 (≤ 12−10) arrives after finalization → drop
        sess.process_epoch(1, {"ev": self._ev([(7, "click", 0.5)])},
                           watermark=50.0)
        df = sess.sinks["ab"].read_committed_table().to_pandas()
        late = sess.metrics["late_dropped"]
        sess.store.shutdown()
        assert sorted(df["ts"]) == [1.0, 1.0]
        assert late >= 1

    def test_dataset_epoch_path_matches_table_path(self, ray_session,
                                                   tmp_path):
        import ray.data as rd

        rows = [(u, "click", float(u)) for u in range(1, 21)]
        rows += [(u, "purchase", float(u) + 5.0) for u in range(1, 21, 2)]
        sess_t = StreamSession(tmp_path / "abT", num_shards=3)
        sess_t.add(self._op())
        sess_t.process_epoch(0, {"ev": self._ev(rows)}, watermark=1000.0)
        want = (sess_t.sinks["ab"].read_committed_table().to_pandas()
                [["u", "ts"]].sort_values(["u", "ts"]).reset_index(drop=True))
        sess_t.store.shutdown()

        sess_d = StreamSession(tmp_path / "abD", num_shards=3)
        sess_d.add(self._op())
        sess_d.process_epoch(0, {"ev": rd.from_arrow(self._ev(rows))
                                 .repartition(4)}, watermark=1000.0)
        got = (sess_d.sinks["ab"].read_committed_table().to_pandas()
               [["u", "ts"]].sort_values(["u", "ts"]).reset_index(drop=True))
        sess_d.store.shutdown()
        pd.testing.assert_frame_equal(got, want)


class TestAbsenceDetectResume:
    def test_crash_resume_pending_firsts_survive(self, ray_session, tmp_path):
        """A pending (not yet finalizable) click must survive a crash: after
        resume it still cancels on a purchase, and an uncancelled one still
        emits exactly once."""
        from diffdataflowmlpipelines_ray.streaming.engine import AbsenceDetect

        def op():
            return AbsenceDetect(name="ab", input="ev", key_cols=["u"],
                                 ts_col="ts", type_col="event_type",
                                 first="click", absent="purchase",
                                 within=10.0)

        def ev(rows):
            u, typ, ts = zip(*rows)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "event_type": pa.array(typ, type=pa.string()),
                             "ts": pa.array(ts, type=pa.float64())})

        root = tmp_path / "abr"
        sess = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess.add(op())
        sess.process_epoch(0, {"ev": ev([(1, "click", 1.0),
                                         (2, "click", 2.0)])}, watermark=3.0)
        sess.store.shutdown()  # crash after epoch-0 checkpoint

        sess2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess2.add(op())
        assert sess2.resume() == 1
        # u1's click cancels post-resume; u2's does not
        sess2.process_epoch(1, {"ev": ev([(1, "purchase", 5.0)])},
                            watermark=50.0)
        df = sess2.sinks["ab"].read_committed_table().to_pandas()
        sess2.store.shutdown()
        assert sorted(zip(df["u"], df["ts"])) == [(2, 2.0)]


class TestIncrementalComponents:
    """The DD iterate primitive maintained across epochs: ±1 label deltas
    whose running sum equals the batch component table."""

    @staticmethod
    def _edges(pairs):
        lo, hi = zip(*pairs)
        return pa.table({"id_lo": pa.array(lo, type=pa.int64()),
                         "id_hi": pa.array(hi, type=pa.int64())})

    def _net(self, sess):
        df = sess.sinks["cc"].read_committed_table().to_pandas()
        net = (df.groupby(["id", "component"])["diff"].sum()
               .reset_index())
        net = net[net["diff"] != 0]
        assert (net["diff"] == 1).all()   # multiset state is 0/1
        return sorted(zip(net["id"], net["component"]))

    def test_cross_epoch_merge_emits_retractions(self, ray_session,
                                                 tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            IncrementalComponents)

        sess = StreamSession(tmp_path / "icc", num_shards=3)
        sess.add(IncrementalComponents(name="cc", input="e"))
        # epoch 0: {1,2} and {5,6} separate components
        sess.process_epoch(0, {"e": self._edges([(1, 2), (5, 6)])})
        assert self._net(sess) == [(1, 1), (2, 1), (5, 5), (6, 5)]
        # epoch 1: edge (2,5) merges them → 5,6 must be RELABELED to 1
        sess.process_epoch(1, {"e": self._edges([(2, 5)])})
        df = sess.sinks["cc"].read_committed_table().to_pandas()
        e1 = df[df["epoch"] == 1]
        # the merge epoch carries retractions of the old label
        assert ((e1["diff"] == -1) & (e1["component"] == 5)).sum() == 2
        assert self._net(sess) == [(1, 1), (2, 1), (5, 1), (6, 1)]
        sess.store.shutdown()

    def test_matches_batch_cc_and_resumes(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components)
        from diffdataflowmlpipelines_ray.streaming.engine import (
            IncrementalComponents)

        rng = np.random.default_rng(9)
        pairs = [(int(a), int(b)) for a, b in
                 zip(rng.integers(0, 60, 80), rng.integers(0, 60, 80))
                 if a != b]
        root = tmp_path / "icc2"
        sess = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess.add(IncrementalComponents(name="cc", input="e"))
        sess.process_epoch(0, {"e": self._edges(pairs[:30])})
        sess.store.shutdown()  # crash after checkpoint

        sess2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess2.add(IncrementalComponents(name="cc", input="e"))
        assert sess2.resume() == 1
        sess2.process_epoch(1, {"e": self._edges(pairs[30:])})
        got = self._net(sess2)
        sess2.store.shutdown()
        batch = connected_components(self._edges(pairs)).to_pandas()
        want = sorted(zip(batch["id"], batch["component"]))
        assert got == want


class TestSourceWatermarks:
    """Per-source watermark alignment: the session frontier is the MIN over
    non-idle tracked sources (multi-input union/join completeness)."""

    def _sess(self, root):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation,
            WindowSpec,
        )

        sess = StreamSession(root, num_shards=2)
        sess.add(KeyedAggregation(
            name="win", input="ev", key_cols=["k"], value_col="v",
            ts_col="ts", aggs=("count",),
            window=WindowSpec.tumbling(10.0)))
        return sess

    @staticmethod
    def _ev(rows):  # (k, ts, v)
        k, ts, v = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "v": pa.array(v, type=pa.float64())})

    def test_min_alignment_gates_emission(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "sw1")
        # window [0,10) is fully fed, A is far ahead — but B lags at 5,
        # so the frontier (min) must hold the window open
        out0 = sess.process_epoch(0, {"ev": self._ev([(1, 2.0, 1.0),
                                                      (1, 7.0, 1.0)])},
                                  source_watermarks={"A": 25.0, "B": 5.0})
        assert out0["win"].num_rows == 0
        # B catches up past the window end → it closes now
        out1 = sess.process_epoch(1, {}, source_watermarks={"B": 12.0})
        sess.store.shutdown()
        df = out1["win"].to_pandas()
        assert len(df) == 1 and int(df["count"].iloc[0]) == 2
        assert float(df["window_start"].iloc[0]) == 0.0

    def test_idle_source_releases_frontier(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "sw2")
        out0 = sess.process_epoch(0, {"ev": self._ev([(1, 2.0, 1.0)])},
                                  source_watermarks={"A": 25.0, "B": 5.0})
        assert out0["win"].num_rows == 0
        sess.mark_source_idle("B")  # B stalled: only A vouches now
        out1 = sess.process_epoch(1, {}, source_watermarks={})
        assert out1["win"].num_rows == 1
        # B waking up with DATA re-enters the min (its stale wm=5 holds the
        # frontier again, so the new window [10,20) stays open despite A=35)
        out2 = sess.process_epoch(
            2, {"ev": self._ev([(1, 12.0, 1.0)])},
            source_watermarks={"A": 35.0})
        assert out2["win"].num_rows == 0
        sess.store.shutdown()

    def test_watermarks_only_ratchet_up(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "sw3")
        sess.process_epoch(0, {"ev": self._ev([(1, 2.0, 1.0)])},
                           source_watermarks={"A": 15.0, "B": 15.0})
        # a LATE lower report from B must not regress its watermark
        out = sess.process_epoch(1, {}, source_watermarks={"B": 3.0})
        sess.store.shutdown()
        assert sess.source_watermarks == {"A": 15.0, "B": 15.0}
        assert out["win"].num_rows == 0  # already emitted at epoch 0

    def test_all_idle_holds_frontier(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "sw4")
        sess.process_epoch(0, {"ev": self._ev([(1, 2.0, 1.0)])},
                           source_watermarks={"A": 25.0})
        sess.mark_source_idle("A")
        before = sess.watermark
        out = sess.process_epoch(1, {}, source_watermarks={})
        sess.store.shutdown()
        # nobody vouches for the frontier → no advance, nothing emitted
        assert sess.watermark == before
        assert "win" not in out or out["win"].num_rows == 0

    def test_resume_restores_source_state(self, ray_session, tmp_path):
        root = tmp_path / "sw5"
        sess = self._sess(root)
        sess.process_epoch(0, {"ev": self._ev([(1, 2.0, 1.0)])},
                           source_watermarks={"A": 25.0, "B": 5.0})
        sess.mark_source_idle("B")
        sess.checkpoint(0)
        sess.store.shutdown()

        sess2 = self._sess(root)
        assert sess2.resume() == 1
        assert sess2.source_watermarks == {"A": 25.0, "B": 5.0}
        assert sess2.idle_sources == {"B"}
        # with B idle the frontier advances on A alone after resume
        out = sess2.process_epoch(1, {}, source_watermarks={})
        sess2.store.shutdown()
        assert out["win"].num_rows == 1


class TestKleenePattern:
    def _sess(self, root, within=15.0):
        from diffdataflowmlpipelines_ray.streaming.engine import KleenePattern

        sess = StreamSession(root, num_shards=2)
        sess.add(KleenePattern(name="k", input="ev", key_cols=["u"],
                               ts_col="ts", type_col="t",
                               first="a", mid="b", last="c", within=within))
        return sess

    @staticmethod
    def _ev(rows):  # (u, ts, t)
        u, ts, t = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "t": pa.array(t, type=pa.string())})

    def _matches(self, sess):
        df = sess.sinks["k"].read_committed_table().to_pandas()
        return sorted((int(r.u), float(r.a_ts), float(r.c_ts), int(r.b_count))
                      for r in df.itertuples())

    def test_pairs_with_aggregated_middle(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "kl1")
        sess.process_epoch(0, {"ev": self._ev([
            (1, 0.0, "a"), (1, 5.0, "b"), (1, 7.0, "b"), (1, 10.0, "c"),
            (1, 20.0, "c"),          # outside within=15 of a@0
            (2, 0.0, "a"), (2, 10.0, "c"),   # no b → no match
            (3, 0.0, "b"), (3, 5.0, "c"),    # no a → no match
        ])})
        out = sess.close()
        sess.store.shutdown()
        assert self._matches(sess) == [(1, 0.0, 10.0, 2)]

    def test_multiset_copies_multiply(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "kl2")
        # two copies of the SAME a and c, two b's between → 2×2 = 4 rows,
        # each counting both b's
        sess.process_epoch(0, {"ev": self._ev([
            (1, 0.0, "a"), (1, 0.0, "a"), (1, 3.0, "b"), (1, 4.0, "b"),
            (1, 9.0, "c"), (1, 9.0, "c")])})
        sess.close()
        sess.store.shutdown()
        assert self._matches(sess) == [(1, 0.0, 9.0, 2)] * 4

    def test_incremental_finalization_and_retention(self, ray_session,
                                                    tmp_path):
        sess = self._sess(tmp_path / "kl3")
        # epoch 0: a@0, b@5 — watermark 10 < a+within(15): nothing final
        out0 = sess.process_epoch(0, {"ev": self._ev([(1, 0.0, "a"),
                                                      (1, 5.0, "b")])},
                                  watermark=10.0)
        assert out0["k"].num_rows == 0
        # epoch 1: c@12 joins in; watermark 16 finalizes a@0 → emit; a
        # SECOND start a@14 stays pending
        out1 = sess.process_epoch(1, {"ev": self._ev([(1, 12.0, "c"),
                                                      (1, 14.0, "a")])},
                                  watermark=16.0)
        assert [(r["a_ts"], r["c_ts"], r["b_count"]) for r in
                out1["k"].to_pylist()] == [(0.0, 12.0, 1)]
        # epoch 2: b@20, c@25 complete the second start
        sess.process_epoch(2, {"ev": self._ev([(1, 20.0, "b"),
                                               (1, 25.0, "c")])},
                           watermark=30.0)
        sess.store.shutdown()
        assert self._matches(sess) == [(1, 0.0, 12.0, 1),
                                       (1, 14.0, 25.0, 1)]

    def test_matches_brute_force_random(self, ray_session, tmp_path):
        rng = np.random.default_rng(11)
        n = 400
        rows = list(zip(rng.integers(0, 12, n).tolist(),
                        np.round(rng.uniform(0, 200, n), 2).tolist(),
                        rng.choice(["a", "b", "c", "x"], n).tolist()))
        within = 25.0
        sess = self._sess(tmp_path / "kl4", within=within)
        tbl = self._ev(rows)
        # 3 Dataset epochs split by time (shard-direct points path)
        srt = sorted(rows, key=lambda r: r[1])
        cuts = [len(srt) // 3, 2 * len(srt) // 3, len(srt)]
        lo = 0
        for e, hi in enumerate(cuts):
            part = self._ev(srt[lo:hi])
            sess.process_epoch(e, {"ev": rd.from_arrow(part)},
                               watermark=float(srt[hi - 1][1]))
            lo = hi
        sess.close(len(cuts))
        got = self._matches(sess)
        sess.store.shutdown()
        want = []
        by_u = {}
        for u, ts, t in rows:
            by_u.setdefault(u, []).append((ts, t))
        for u, evs in by_u.items():
            a_l = [ts for ts, t in evs if t == "a"]
            b_l = sorted(ts for ts, t in evs if t == "b")
            c_l = [ts for ts, t in evs if t == "c"]
            for ta in a_l:
                for tc in c_l:
                    if ta < tc <= ta + within:
                        nb = sum(1 for tb in b_l if ta < tb < tc)
                        if nb >= 1:
                            want.append((u, ta, tc, nb))
        assert got == sorted(want)

    def test_distinct_types_required(self, ray_session):
        from diffdataflowmlpipelines_ray.streaming.engine import KleenePattern

        with pytest.raises(ValueError, match="distinct"):
            KleenePattern(name="k", input="ev", key_cols=["u"], ts_col="ts",
                          type_col="t", first="a", mid="a", last="c",
                          within=10.0)


class TestRouteLate:
    def _sess(self, root):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation,
            WindowSpec,
        )

        sess = StreamSession(root, num_shards=2)
        sess.add(KeyedAggregation(
            name="win", input="ev", key_cols=["k"], value_col="v",
            ts_col="ts", aggs=("count",),
            window=WindowSpec.tumbling(10.0)))
        return sess

    @staticmethod
    def _ev(rows):  # (k, ts, v)
        k, ts, v = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "v": pa.array(v, type=pa.float64())})

    def test_side_output_and_on_time_split(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "rl1")
        sess.process_epoch(0, {"ev": self._ev([(1, 5.0, 1.0),
                                               (1, 22.0, 1.0)])},
                           watermark=22.0)
        # epoch 1 arrives with two droppably-late rows (ts ≤ 22) and one
        # on-time row; route_late diverts the former, feeds the latter
        epoch1 = self._ev([(1, 3.0, 1.0), (1, 22.0, 1.0), (1, 25.0, 1.0)])
        routed = sess.route_late(1, {"ev": epoch1}, {"ev": "ts"})
        assert routed["ev"].num_rows == 1
        sess.process_epoch(1, routed, watermark=40.0)
        late = sess.late_output("ev").to_pandas()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert sorted(late["ts"]) == [3.0, 22.0]
        assert set(late["late_epoch"]) == {1}
        assert set(late["watermark"]) == {22.0}
        # the late rows never reached the operator: window [0,10) counted
        # only the on-time epoch-0 row, [20,30) counts 22@e0 + 25@e1
        got = {(float(r.window_start), int(r.count))
               for r in out.itertuples()}
        assert got == {(0.0, 1), (20.0, 2)}
        assert sess.metrics["late_routed"] == 2
        assert sess.metrics["late_dropped"] == 0  # routed, not dropped

    def test_dataset_input_lazy_split(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "rl2")
        sess.process_epoch(0, {"ev": self._ev([(1, 15.0, 1.0)])},
                           watermark=15.0)
        epoch1 = rd.from_arrow(self._ev(
            [(1, 9.0, 1.0), (2, 16.0, 1.0), (2, 30.0, 1.0)]))
        routed = sess.route_late(1, {"ev": epoch1}, {"ev": "ts"})
        sess.process_epoch(1, routed, watermark=50.0)
        late = sess.late_output("ev").to_pandas()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert late["ts"].tolist() == [9.0]
        got = {(int(r.k), float(r.window_start), int(r.count))
               for r in out.itertuples()}
        assert got == {(1, 10.0, 1), (2, 10.0, 1), (2, 30.0, 1)}

    def test_replay_is_idempotent(self, ray_session, tmp_path):
        root = tmp_path / "rl3"
        sess = self._sess(root)
        sess.process_epoch(0, {"ev": self._ev([(1, 20.0, 1.0)])},
                           watermark=20.0)
        epoch1 = self._ev([(1, 4.0, 1.0), (1, 25.0, 1.0)])
        sess.route_late(1, {"ev": epoch1}, {"ev": "ts"})
        n1 = sess.late_output("ev").num_rows
        # replaying the SAME epoch re-commits into the existing manifest
        sess.route_late(1, {"ev": epoch1}, {"ev": "ts"})
        n2 = sess.late_output("ev").num_rows
        sess.store.shutdown()
        assert n1 == n2 == 1


class TestOpLateOutput:
    """Operator-level ``late_output=True``: the WINDOW-AWARE side output.

    Unlike ``route_late`` (which condemns every row with ts ≤ watermark),
    the op splits at window granularity — a row whose newest containing
    window is still open is ON TIME even when its ts is behind the
    watermark."""

    def _sess(self, root, window=None):
        sess = StreamSession(root, num_shards=2)
        sess.add(KeyedAggregation(
            name="win", input="ev", key_cols=["k"], value_col="v",
            ts_col="ts", aggs=("count",),
            window=window or WindowSpec.tumbling(10.0),
            late_output=True))
        return sess

    @staticmethod
    def _ev(rows):  # (k, ts, v)
        k, ts, v = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "v": pa.array(v, type=pa.float64())})

    def test_window_aware_split_table(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "ol1")
        sess.process_epoch(0, {"ev": self._ev([(1, 5.0, 1.0),
                                               (1, 22.0, 1.0)])},
                           watermark=22.0)
        # ts=3 → window [0,10) finalized → LATE; ts=22 is ≤ watermark but
        # its window [20,30) is still open → ON TIME (route_late would
        # have condemned it)
        sess.process_epoch(1, {"ev": self._ev(
            [(1, 3.0, 1.0), (1, 22.0, 1.0), (1, 25.0, 1.0)])},
            watermark=40.0)
        late = sess.sinks["win__late"].read_committed_table().to_pandas()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert late["ts"].tolist() == [3.0]
        assert list(late.columns) == ["k", "ts", "v"]  # full original cols
        got = {(float(r.window_start), int(r.count))
               for r in out.itertuples()}
        assert got == {(0.0, 1), (20.0, 3)}
        assert sess.metrics["late_routed"] == 1
        assert sess.metrics["late_dropped"] == 0

    def test_dataset_epoch_worker_parts(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "ol2")
        sess.process_epoch(0, {"ev": self._ev([(1, 15.0, 1.0)])},
                           watermark=15.0)
        ds = rd.from_arrow(self._ev(
            [(1, 9.0, 1.0), (2, 3.0, 1.0), (2, 16.0, 1.0),
             (2, 30.0, 1.0)])).repartition(3)
        sess.process_epoch(1, {"ev": ds}, watermark=50.0)
        late = sess.sinks["win__late"].read_committed_table().to_pandas()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        assert sorted(late["ts"]) == [3.0, 9.0]
        assert sess.metrics["late_routed"] == 2
        got = {(int(r.k), float(r.window_start), int(r.count))
               for r in out.itertuples()}
        assert got == {(1, 10.0, 1), (2, 10.0, 1), (2, 30.0, 1)}

    def test_sliding_row_in_open_window_is_on_time(self, ray_session,
                                                   tmp_path):
        # sliding(20, 10): ts=14 spans [0,20) and [10,30); at wm=25 the
        # first is closed, the second open → the row is NOT routed late;
        # partial_batch drops only its closed-window assignment
        sess = self._sess(tmp_path / "ol3",
                          window=WindowSpec.sliding(20.0, 10.0))
        sess.process_epoch(0, {"ev": self._ev([(1, 12.0, 1.0)])},
                           watermark=25.0)
        sess.process_epoch(1, {"ev": self._ev([(1, 14.0, 1.0),
                                               (1, 2.0, 1.0)])},
                           watermark=60.0)
        late = sess.sinks["win__late"].read_committed_table().to_pandas()
        out = sess.sinks["win"].read_committed_table().to_pandas()
        sess.store.shutdown()
        # ts=2: newest window [0,20) closed → routed
        assert late["ts"].tolist() == [2.0]
        got = {(float(r.window_start), int(r.count))
               for r in out.itertuples()}
        # ts=12@e0 into [0,20)+[10,30); ts=14@e1 only into open [10,30)
        assert got == {(0.0, 1), (10.0, 2)}
        assert sess.metrics["late_routed"] == 1

    def test_replay_idempotent(self, ray_session, tmp_path):
        root = tmp_path / "ol4"
        sess = self._sess(root)
        sess.process_epoch(0, {"ev": self._ev([(1, 20.0, 1.0)])},
                           watermark=20.0)
        ep1 = {"ev": self._ev([(1, 4.0, 1.0), (1, 25.0, 1.0)])}
        sess.process_epoch(1, ep1)
        n1 = sess.sinks["win__late"].read_committed_table().num_rows
        sess.process_epoch(1, ep1)  # driver-retry replay
        n2 = sess.sinks["win__late"].read_committed_table().num_rows
        sess.store.shutdown()
        assert n1 == n2 == 1

    def test_replay_idempotent_dataset(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "ol5")
        sess.process_epoch(0, {"ev": self._ev([(1, 20.0, 1.0)])},
                           watermark=20.0)
        mk = lambda: rd.from_arrow(self._ev(
            [(1, 4.0, 1.0), (1, 25.0, 1.0)])).repartition(2)
        sess.process_epoch(1, {"ev": mk()})
        n1 = sess.sinks["win__late"].read_committed_table().num_rows
        sess.process_epoch(1, {"ev": mk()})  # replay: strays invisible
        n2 = sess.sinks["win__late"].read_committed_table().num_rows
        sess.store.shutdown()
        assert n1 == n2 == 1

    @pytest.mark.parametrize("feed", ["table", "dataset"])
    def test_late_rows_feed_a_later_op(self, ray_session, tmp_path, feed):
        """``<op>__late`` chains like any op output: an op declared after
        the window reads the epoch's late rows, from a Table epoch and
        from a Dataset epoch alike."""
        sess = self._sess(tmp_path / f"ol6-{feed}")
        sess.add(KeyedAggregation(name="late_by_k", input="win__late",
                                  key_cols=["k"], aggs=("count",)))
        sess.process_epoch(0, {"ev": self._ev([(1, 25.0, 1.0)])},
                           watermark=25.0)
        ev = self._ev([(1, 4.0, 1.0), (2, 7.0, 1.0), (2, 28.0, 1.0)])
        sess.process_epoch(1, {"ev": ev if feed == "table"
                               else rd.from_arrow(ev).repartition(2)})
        got = sess.state_table("late_by_k").to_pandas()
        sess.store.shutdown()
        assert got[["k", "count"]].sort_values("k").to_dict("list") == \
            {"k": [1, 2], "count": [1, 1]}

    def test_validation(self, ray_session):
        with pytest.raises(ValueError, match="late_output requires"):
            KeyedAggregation(name="w", input="e", key_cols=["k"],
                             value_col="v", ts_col="ts", aggs=("sum",),
                             late_output=True)
        with pytest.raises(ValueError, match="not supported together"):
            KeyedAggregation(name="w", input="e", key_cols=["k"],
                             value_col="v", ts_col="ts", aggs=("sum",),
                             window=WindowSpec.tumbling(10.0),
                             early_firing=True, late_output=True)


class TestStreamOuterJoin:
    def _sess(self, root, **kw):
        sess = StreamSession(root, num_shards=2, **kw)
        sess.add(StreamJoin(
            name="j", left_input="l", right_input="r",
            left_key=["u"], right_key=["u_r"],
            left_cols=["lid"], right_cols=["rid"],
            left_ts="ts", right_ts="ts_r", max_dt=10.0,
            emit_unmatched=True))
        return sess

    @staticmethod
    def _l(rows):  # (u, lid, ts)
        u, lid, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "lid": pa.array(lid, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64())})

    @staticmethod
    def _r(rows):  # (u, rid, ts)
        u, rid, ts = zip(*rows)
        return pa.table({"u_r": pa.array(u, type=pa.int64()),
                         "rid": pa.array(rid, type=pa.int64()),
                         "ts_r": pa.array(ts, type=pa.float64())})

    def _result(self, sess):
        m = sess.sinks["j"].read_committed_table().to_pandas()
        um = sess.sinks["j__unmatched"].read_committed_table().to_pandas()
        return (sorted(zip(m["lid"].astype(int), m["rid"].astype(int))),
                sorted(um["lid"].astype(int)))

    def test_matched_and_unmatched_split(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "oj1")
        # epoch 0: l1@0 (will match r in epoch 1), l2@2 (never matches),
        # l3@0 matches r3@5 immediately
        sess.process_epoch(0, {"l": self._l([(1, 1, 0.0), (2, 2, 2.0),
                                             (3, 3, 0.0)]),
                               "r": self._r([(3, 30, 5.0)])},
                           watermark=5.0)
        # epoch 1: r1@8 matches buffered l1 (dt=8 ≤ 10); watermark 30
        # finalizes everything (bound 20 ≥ all left ts)
        out = sess.process_epoch(1, {"r": self._r([(1, 10, 8.0)])},
                                 watermark=30.0)
        matched, unmatched = self._result(sess)
        sess.store.shutdown()
        assert matched == [(1, 10), (3, 30)]
        assert unmatched == [2]
        assert out["j__unmatched"].num_rows == 1

    def test_multimatch_left_never_unmatched(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "oj2")
        sess.process_epoch(0, {"l": self._l([(1, 1, 0.0)]),
                               "r": self._r([(1, 10, 3.0), (1, 11, 6.0)])},
                           watermark=50.0)
        matched, unmatched = self._result(sess)
        sess.store.shutdown()
        assert matched == [(1, 10), (1, 11)]
        assert unmatched == []

    def test_premature_sweep_does_not_fire(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "oj3")
        # watermark 5 < l.ts + max_dt = 10: the window is still open, no
        # unmatched emission yet
        out = sess.process_epoch(0, {"l": self._l([(1, 1, 0.0)])},
                                 watermark=5.0)
        assert out["j__unmatched"].num_rows == 0
        # a right match arrives late in wall time but on time in event time
        sess.process_epoch(1, {"r": self._r([(1, 10, 9.0)])},
                           watermark=40.0)
        matched, unmatched = self._result(sess)
        sess.store.shutdown()
        assert matched == [(1, 10)] and unmatched == []

    def test_resume_restores_matched_flags(self, ray_session, tmp_path):
        root = tmp_path / "oj4"
        sess = self._sess(root, checkpoint_every=1)
        sess.process_epoch(0, {"l": self._l([(1, 1, 0.0), (2, 2, 0.0)]),
                               "r": self._r([(1, 10, 3.0)])},
                           watermark=3.0)
        sess.store.shutdown()  # crash; l1 matched, l2 still open

        sess2 = self._sess(root, checkpoint_every=1)
        assert sess2.resume() == 1
        sess2.process_epoch(1, {}, watermark=40.0)
        matched, unmatched = self._result(sess2)
        sess2.store.shutdown()
        # l1's matched flag survived the checkpoint: only l2 emits unmatched
        assert matched == [(1, 10)] and unmatched == [2]

    def test_dataset_epochs_match_table_epochs(self, ray_session, tmp_path):
        rng = np.random.default_rng(5)
        nl, nr = 120, 80
        lrows = list(zip(rng.integers(0, 20, nl).tolist(),
                         range(nl),
                         np.round(rng.uniform(0, 100, nl), 2).tolist()))
        rrows = list(zip(rng.integers(0, 20, nr).tolist(),
                         range(1000, 1000 + nr),
                         np.round(rng.uniform(0, 100, nr), 2).tolist()))

        def run(blocks):
            sess = self._sess(tmp_path / f"oj5_{blocks}")
            for e in range(2):
                l = self._l([r for i, r in enumerate(lrows) if i % 2 == e])
                r = self._r([r for i, r in enumerate(rrows) if i % 2 == e])
                sess.process_epoch(e, {"l": as_blocks(l, blocks),
                                       "r": as_blocks(r, blocks)})
            sess.close(2)
            got = self._result(sess)
            sess.store.shutdown()
            return got

        assert run(0) == run(1) == run(4)

    def test_emit_unmatched_requires_max_dt(self, ray_session):
        with pytest.raises(ValueError, match="max_dt"):
            StreamJoin(name="j", left_input="l", right_input="r",
                       left_key=["u"], right_key=["u_r"],
                       left_cols=["lid"], right_cols=["rid"],
                       left_ts="ts", right_ts="ts_r",
                       emit_unmatched=True)


class TestUpsertToRetract:
    """Arrange + consolidate: an upsert stream becomes a consolidated
    retraction changelog whose running sum is the latest-value-per-key
    table (LWW by (ts, tiebreak) stamp; deletes are tombstones)."""

    def _op(self, **kw):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        base = dict(name="chg", input="u", key=["k"], vals=["v"],
                    key_types=[pa.int64()], val_types=[pa.int64()],
                    ts_col="ts", delete_col="del")
        base.update(kw)
        return UpsertToRetract(**base)

    @staticmethod
    def _ups(rows):
        k, v, ts, d = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "v": pa.array(v, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "del": pa.array(d)})

    @staticmethod
    def _rows(tbl):
        return sorted(zip(tbl["diff"].to_pylist(), tbl["k"].to_pylist(),
                          tbl["v"].to_pylist()))

    def test_changelog_semantics(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "u1", num_shards=3)
        sess.add(self._op())
        # epoch 0: inserts (k=1 twice — consolidates to its max-ts value)
        t0 = sess.process_epoch(0, {"u": self._ups(
            [(1, 10, 1.0, False), (1, 11, 2.0, False),
             (2, 20, 1.0, False), (3, 30, 1.0, False)])})["chg"]
        assert self._rows(t0) == [(1, 1, 11), (1, 2, 20), (1, 3, 30)]
        # epoch 1: update k=2; STALE offer for k=1 (older stamp — shadowed);
        # tombstone k=3 (retraction only); same-value re-upsert emits nothing
        t1 = sess.process_epoch(1, {"u": self._ups(
            [(2, 21, 3.0, False), (1, 99, 0.5, False),
             (3, 0, 3.0, True)])})["chg"]
        assert self._rows(t1) == [(-1, 2, 20), (-1, 3, 30), (1, 2, 21)]
        # epoch 2: re-insert after tombstone (+1 only), same-value update
        # for k=2 at a newer stamp (no emission, stamp still advances)
        t2 = sess.process_epoch(2, {"u": self._ups(
            [(3, 33, 4.0, False), (2, 21, 4.0, False)])})["chg"]
        assert self._rows(t2) == [(1, 3, 33)]
        # epoch 3: k=2 offer between the two applied stamps is stale
        t3 = sess.process_epoch(3, {"u": self._ups(
            [(2, 77, 3.5, False)])})["chg"]
        assert t3.num_rows == 0
        sess.store.shutdown()

    def test_tombstone_on_absent_key_emits_nothing(self, ray_session,
                                                   tmp_path):
        sess = StreamSession(tmp_path / "u2", num_shards=2)
        sess.add(self._op())
        t0 = sess.process_epoch(0, {"u": self._ups([(7, 0, 1.0, True)])})[
            "chg"]
        assert t0.num_rows == 0
        # but the tombstone HOLDS the stamp: an older insert cannot win
        t1 = sess.process_epoch(1, {"u": self._ups([(7, 70, 0.5, False)])})[
            "chg"]
        assert t1.num_rows == 0
        t2 = sess.process_epoch(2, {"u": self._ups([(7, 71, 2.0, False)])})[
            "chg"]
        assert self._rows(t2) == [(1, 7, 71)]
        sess.store.shutdown()

    def test_running_sum_is_latest_per_key(self, ray_session, tmp_path):
        rng = np.random.default_rng(17)
        n = 400
        rows = list(zip(rng.integers(0, 25, n).tolist(),
                        rng.integers(0, 50, n).tolist(),
                        rng.permutation(n).astype(float).tolist(),
                        (rng.random(n) < 0.15).tolist()))
        sess = StreamSession(tmp_path / "u3", num_shards=4)
        sess.add(self._op())
        for e in range(5):
            sess.process_epoch(e, {"u": self._ups(rows[e::5])})
        df = sess.sinks["chg"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = df.groupby(["k", "v"])["diff"].sum().reset_index()
        net = net[net["diff"] != 0]
        assert (net["diff"] == 1).all()
        got = sorted(zip(net["k"], net["v"]))
        pdf = pd.DataFrame(rows, columns=["k", "v", "ts", "del"])
        last = pdf.sort_values("ts").groupby("k").tail(1)
        want = sorted(zip(last[~last["del"]]["k"], last[~last["del"]]["v"]))
        assert got == want

    def test_dataset_path_matches_table_path(self, ray_session, tmp_path):
        rng = np.random.default_rng(23)
        n = 300
        rows = list(zip(rng.integers(0, 20, n).tolist(),
                        rng.integers(0, 40, n).tolist(),
                        rng.permutation(n).astype(float).tolist(),
                        (rng.random(n) < 0.2).tolist()))

        def run(as_dataset):
            sess = StreamSession(
                tmp_path / f"u4-{as_dataset}", num_shards=3)
            sess.add(self._op())
            for e in range(3):
                t = self._ups(rows[e::3])
                if as_dataset:
                    t = rd.from_arrow(t).repartition(4)
                sess.process_epoch(e, {"u": t})
            out = [
                sorted(map(tuple, sess.sinks["chg"].read_committed_table(
                    epochs=[e]).to_pandas().itertuples(index=False)))
                for e in range(3)]
            sess.store.shutdown()
            return out

        assert run(False) == run(True)

    def test_crash_resume_and_replay(self, ray_session, tmp_path):
        root = tmp_path / "u5"
        sess = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess.add(self._op())
        sess.process_epoch(0, {"u": self._ups(
            [(1, 10, 1.0, False), (2, 20, 2.0, False)])})
        sess.store.shutdown()  # crash after checkpoint

        sess2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        sess2.add(self._op())
        assert sess2.resume() == 1
        # replaying epoch 0 applies nothing (high-water mark) and publishes
        # what the sink's kept manifest lists
        r0 = sess2.process_epoch(0, {"u": self._ups(
            [(1, 10, 1.0, False), (2, 20, 2.0, False)])})["chg"]
        assert self._rows(r0) == [(1, 1, 10), (1, 2, 20)]
        assert r0.equals(sess2.sinks["chg"].read_committed_table(epochs=[0]))
        # resumed registers still hold stamps: update beats, stale loses
        t1 = sess2.process_epoch(1, {"u": self._ups(
            [(1, 11, 3.0, False), (2, 99, 0.5, False)])})["chg"]
        assert self._rows(t1) == [(-1, 1, 10), (1, 1, 11)]
        df = sess2.sinks["chg"].read_committed_table().to_pandas()
        sess2.store.shutdown()
        net = df.groupby(["k", "v"])["diff"].sum().reset_index()
        net = net[net["diff"] != 0]
        assert sorted(zip(net["k"], net["v"])) == [(1, 11), (2, 20)]

    def test_type_validation(self, ray_session):
        with pytest.raises(ValueError, match="val_types"):
            self._op(val_types=[])


class TestInSessionChaining:
    """Ops that emit during the epoch publish their output under their own
    name, so later-declared ops consume it in the SAME process_epoch call."""

    def _ups(self, rows):
        k, v, ts, d = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "v": pa.array(v, type=pa.int64()),
                         "g": pa.array([x % 3 for x in k], type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "del": pa.array(d)})

    def _chg_op(self):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        return UpsertToRetract(
            name="chg", input="u", key=["k"], vals=["v", "g"],
            key_types=[pa.int64()], val_types=[pa.int64(), pa.int64()],
            ts_col="ts", delete_col="del")

    def _agg_op(self):
        return KeyedAggregation(
            name="agg", input="chg", key_cols=["g"], value_col="v",
            aggs=("count", "sum"), weight_col="diff")

    @staticmethod
    def _state(sess):
        df = sess.state_table("agg").to_pandas()
        return sorted(zip(df["g"], df["count"], df["sum"]))

    def _rand_rows(self, seed, n=240):
        rng = np.random.default_rng(seed)
        return list(zip(rng.integers(0, 30, n).tolist(),
                        rng.integers(1, 100, n).tolist(),
                        rng.permutation(n).astype(float).tolist(),
                        (rng.random(n) < 0.2).tolist()))

    def test_chained_equals_manual_feed(self, ray_session, tmp_path):
        rows = self._rand_rows(5)
        # chained: one session, one call per epoch
        s1 = StreamSession(tmp_path / "c1", num_shards=3)
        s1.add(self._chg_op())
        s1.add(self._agg_op())
        for e in range(4):
            out = s1.process_epoch(e, {"u": self._ups(rows[e::4])})
            assert "chg" in out
        got = self._state(s1)
        s1.store.shutdown()
        # manual: separate sessions, changelog fed by hand
        s2 = StreamSession(tmp_path / "c2p", num_shards=3)
        s2.add(self._chg_op())
        s3 = StreamSession(tmp_path / "c2a", num_shards=3)
        s3.add(self._agg_op())
        for e in range(4):
            chg = s2.process_epoch(e, {"u": self._ups(rows[e::4])})["chg"]
            s3.process_epoch(e, {"chg": chg})
        want = self._state(s3)
        s2.store.shutdown()
        s3.store.shutdown()
        assert got == want
        # and equals the brute-force aggregate over latest-per-key state
        pdf = pd.DataFrame(rows, columns=["k", "v", "ts", "del"])
        last = pdf.sort_values("ts").groupby("k").tail(1)
        live = last[~last["del"]].assign(g=lambda d: d["k"] % 3)
        bf = live.groupby("g").agg(count=("v", "size"), s=("v", "sum"))
        assert got == sorted(zip(bf.index, bf["count"],
                                 bf["s"].astype(float)))

    def test_dataset_epoch_chains_too(self, ray_session, tmp_path):
        rows = self._rand_rows(11)
        s1 = StreamSession(tmp_path / "d1", num_shards=3)
        s1.add(self._chg_op())
        s1.add(self._agg_op())
        for e in range(3):
            s1.process_epoch(
                e, {"u": rd.from_arrow(self._ups(rows[e::3])).repartition(3)})
        got = self._state(s1)
        s1.store.shutdown()
        s2 = StreamSession(tmp_path / "d2", num_shards=3)
        s2.add(self._chg_op())
        s2.add(self._agg_op())
        for e in range(3):
            s2.process_epoch(e, {"u": self._ups(rows[e::3])})
        want = self._state(s2)
        s2.store.shutdown()
        assert got == want

    def test_view_bootstrap_hydration(self, ray_session, tmp_path):
        """A NEW downstream view added after a restart hydrates from
        snapshot_at and then tails the live changelog — final state equals
        the from-scratch chained run."""
        rows = self._rand_rows(11)
        # from-scratch reference
        s0 = StreamSession(tmp_path / "ref", num_shards=3)
        s0.add(self._chg_op())
        s0.add(self._agg_op())
        for e in range(4):
            s0.process_epoch(e, {"u": self._ups(rows[e::4])})
        want = self._state(s0)
        s0.store.shutdown()
        # changelog-only session runs epochs 0-2, dies
        root = tmp_path / "boot"
        s1 = StreamSession(root, num_shards=3, checkpoint_every=1)
        s1.add(self._chg_op())
        for e in range(3):
            s1.process_epoch(e, {"u": self._ups(rows[e::4])})
        s1.store.shutdown()
        # resumed session adds the NEW view, hydrates, tails epoch 3
        s2 = StreamSession(root, num_shards=3, checkpoint_every=1)
        s2.add(self._chg_op())
        s2.add(self._agg_op())
        assert s2.resume() == 3
        snap = s2.sinks["chg"].snapshot_at(2)
        if "epoch" in snap.column_names:
            snap = snap.drop_columns(["epoch"])
        s2.process_epoch(3, {"chg": snap})       # hydration epoch
        s2.process_epoch(4, {"u": self._ups(rows[3::4])})
        got = self._state(s2)
        s2.store.shutdown()
        assert got == want

    def test_fed_and_emitted_collision_raises(self, ray_session, tmp_path):
        """Feeding an op's output name while the op ALSO emits that epoch
        is ambiguous and must raise, not silently drop either side."""
        rows = self._rand_rows(13, n=40)
        sess = StreamSession(tmp_path / "coll", num_shards=2)
        sess.add(self._chg_op())
        sess.add(self._agg_op())
        with pytest.raises(ValueError, match="fed by the caller AND"):
            sess.process_epoch(0, {
                "u": self._ups(rows[:20]),
                "chg": pa.table({
                    "diff": pa.array([1], type=pa.int64()),
                    "k": pa.array([1], type=pa.int64()),
                    "v": pa.array([5], type=pa.int64()),
                    "g": pa.array([1], type=pa.int64())})})
        sess.store.shutdown()

    def test_declaration_order_gates_chaining(self, ray_session, tmp_path):
        # consumer declared BEFORE the producer sees nothing in-epoch
        sess = StreamSession(tmp_path / "o1", num_shards=2)
        sess.add(self._agg_op())   # first: upstream of chg in declaration
        sess.add(self._chg_op())
        sess.process_epoch(0, {"u": self._ups([(1, 10, 1.0, False)])})
        assert sess.state_table("agg").num_rows == 0
        sess.store.shutdown()


class TestUpsertStateTable:
    def test_state_table_is_changelog_running_sum(self, ray_session,
                                                  tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        rng = np.random.default_rng(31)
        n = 200
        rows = list(zip(rng.integers(0, 20, n).tolist(),
                        rng.integers(0, 50, n).tolist(),
                        rng.permutation(n).astype(float).tolist(),
                        (rng.random(n) < 0.2).tolist()))
        sess = StreamSession(tmp_path / "st", num_shards=3)
        sess.add(UpsertToRetract(
            name="chg", input="u", key=["k"], vals=["v"],
            key_types=[pa.int64()], val_types=[pa.int64()],
            ts_col="ts", delete_col="del"))
        for e in range(4):
            k, v, ts, d = zip(*rows[e::4])
            sess.process_epoch(e, {"u": pa.table(
                {"k": pa.array(k, type=pa.int64()),
                 "v": pa.array(v, type=pa.int64()),
                 "ts": pa.array(ts, type=pa.float64()),
                 "del": pa.array(d)})})
        st = sess.state_table("chg").to_pandas()
        chg = sess.sinks["chg"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = chg.groupby(["k", "v"])["diff"].sum().reset_index()
        net = net[net["diff"] != 0]
        assert sorted(zip(st["k"], st["v"])) == sorted(zip(net["k"],
                                                           net["v"]))


class TestAggChangelog:
    """KeyedAggregation(emit_changelog=True): the aggregate's own ±1
    changelog — old finalized value retracted, new added, per touched key
    whose finalized value changed."""

    def _op(self, **kw):
        base = dict(name="agg", input="d", key_cols=["g"], value_col="v",
                    aggs=("count", "sum"), weight_col="diff",
                    emit_changelog=True)
        base.update(kw)
        return KeyedAggregation(**base)

    @staticmethod
    def _deltas(rows):
        g, v, d = zip(*rows)
        return pa.table({"g": pa.array(g, type=pa.int64()),
                         "v": pa.array(v, type=pa.float64()),
                         "diff": pa.array(d, type=pa.int64())})

    @staticmethod
    def _rows(tbl):
        return sorted(zip(tbl["diff"].to_pylist(), tbl["g"].to_pylist(),
                          tbl["count"].to_pylist(), tbl["sum"].to_pylist()))

    def test_emits_old_and_new(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "a1", num_shards=3)
        sess.add(self._op())
        t0 = sess.process_epoch(0, {"d": self._deltas(
            [(1, 10.0, 1), (1, 20.0, 1), (2, 5.0, 1)])})["agg"]
        assert self._rows(t0) == [(1, 1, 2, 30.0), (1, 2, 1, 5.0)]
        # epoch 1: group 1 gains a row; group 2 retracts to identity
        # (pure retraction, no +1); group 3 appears
        t1 = sess.process_epoch(1, {"d": self._deltas(
            [(1, 5.0, 1), (2, 5.0, -1), (3, 7.0, 1)])})["agg"]
        assert self._rows(t1) == [(-1, 1, 2, 30.0), (-1, 2, 1, 5.0),
                                  (1, 1, 3, 35.0), (1, 3, 1, 7.0)]
        sess.store.shutdown()

    def test_cancelling_updates_emit_nothing(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "a2", num_shards=2)
        sess.add(self._op())
        sess.process_epoch(0, {"d": self._deltas([(1, 10.0, 1),
                                                  (1, 20.0, 1)])})
        # same group touched, but +30 and −30 cancel: finalized (count,
        # sum) pair unchanged → NO changelog rows
        t1 = sess.process_epoch(1, {"d": self._deltas(
            [(1, 30.0, 1), (1, 30.0, -1)])})["agg"]
        assert t1.num_rows == 0
        sess.store.shutdown()

    def test_requires_unwindowed(self, ray_session):
        with pytest.raises(ValueError, match="emit_changelog"):
            self._op(window=WindowSpec.tumbling(10.0), ts_col="ts")

    def test_dataset_matches_table_and_resume(self, ray_session, tmp_path):
        rng = np.random.default_rng(41)
        n = 200
        # integer-valued floats: float sums are then EXACT regardless of
        # merge order (block order differs between Table and Dataset paths;
        # fractional values would differ in ulps — the repo-wide policy)
        rows = list(zip(rng.integers(0, 8, n).tolist(),
                        rng.integers(1, 900, n).astype(float).tolist(),
                        rng.choice([1, 1, 1, -1], n).tolist()))

        def run(as_dataset, root):
            sess = StreamSession(root, num_shards=3, checkpoint_every=1)
            sess.add(self._op())
            for e in range(3):
                t = self._deltas(rows[e::3])
                if as_dataset:
                    t = rd.from_arrow(t).repartition(3)
                sess.process_epoch(e, {"d": t})
            out = sess.sinks["agg"].read_committed_table().to_pandas()
            sess.store.shutdown()
            return sorted(map(tuple, out[["diff", "g", "count", "sum",
                                          "epoch"]].itertuples(index=False)))

        a = run(False, tmp_path / "a3t")
        b = run(True, tmp_path / "a3d")
        assert a == b
        # crash-resume: replay of a committed epoch applies nothing and
        # publishes the committed rows
        root = tmp_path / "a3r"
        s1 = StreamSession(root, num_shards=2, checkpoint_every=1)
        s1.add(self._op())
        first = s1.process_epoch(0, {"d": self._deltas(rows[0::3])})["agg"]
        s1.store.shutdown()
        s2 = StreamSession(root, num_shards=2, checkpoint_every=1)
        s2.add(self._op())
        assert s2.resume() == 1
        r0 = s2.process_epoch(0, {"d": self._deltas(rows[0::3])})["agg"]
        assert r0.num_rows > 0 and r0.equals(first)
        assert s2.sinks["agg"].committed_epochs() == [0]
        t1 = s2.process_epoch(1, {"d": self._deltas(rows[1::3])})["agg"]
        assert t1.num_rows > 0  # state survived; transitions keep flowing
        s2.store.shutdown()

    def test_running_sum_is_current_state(self, ray_session, tmp_path):
        rng = np.random.default_rng(47)
        n = 300
        rows = list(zip(rng.integers(0, 10, n).tolist(),
                        rng.integers(1, 20, n).astype(float).tolist(),
                        rng.choice([1, 1, -1], n).tolist()))
        sess = StreamSession(tmp_path / "a4", num_shards=3)
        sess.add(self._op())
        for e in range(4):
            sess.process_epoch(e, {"d": self._deltas(rows[e::4])})
        chg = sess.sinks["agg"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = chg.groupby(["g", "count", "sum"])["diff"].sum().reset_index()
        net = net[net["diff"] != 0]
        assert (net["diff"] == 1).all()
        pdf = pd.DataFrame(rows, columns=["g", "v", "d"])
        bf = pdf.assign(wv=pdf["v"] * pdf["d"]).groupby("g").agg(
            count=("d", "sum"), sum=("wv", "sum"))
        bf = bf[(bf["count"] != 0) | (bf["sum"] != 0)]
        assert (sorted(zip(net["g"], net["count"], net["sum"]))
                == sorted(zip(bf.index, bf["count"], bf["sum"])))


class TestCdcScalerLoop:
    def test_changelog_driven_fit_equals_batch(self, ray_session, tmp_path):
        """CDC → UpsertToRetract changelog → IncrementalEncoderSession:
        the retraction-weighted incremental StandardScaler fit equals a
        numpy fit over the live latest-per-key values."""
        from diffdataflowmlpipelines_ray.stages.encoders import (
            StandardScaler)
        from diffdataflowmlpipelines_ray.streaming.encoders import (
            IncrementalEncoderSession)
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        rng = np.random.default_rng(53)
        n = 250
        rows = list(zip(rng.integers(0, 40, n).tolist(),
                        rng.normal(10, 3, n).round(3).tolist(),
                        rng.permutation(n).astype(float).tolist(),
                        (rng.random(n) < 0.2).tolist()))
        sess = StreamSession(tmp_path / "cs", num_shards=3)
        sess.add(UpsertToRetract(
            name="chg", input="u", key=["k"], vals=["v"],
            key_types=[pa.int64()], val_types=[pa.float64()],
            ts_col="ts", delete_col="del"))
        enc = IncrementalEncoderSession(
            [("v", StandardScaler())], tmp_path / "cs-enc", num_shards=2,
            weight_col="diff")
        for e in range(4):
            k, v, ts, d = zip(*rows[e::4])
            chg = sess.process_epoch(e, {"u": pa.table(
                {"k": pa.array(k, type=pa.int64()),
                 "v": pa.array(v, type=pa.float64()),
                 "ts": pa.array(ts, type=pa.float64()),
                 "del": pa.array(d)})})["chg"]
            chg = chg.append_column("row_id", pa.array(
                np.arange(chg.num_rows), type=pa.int64()))
            enc.process_epoch(e, chg)
        scaler = enc.mce.config[0][1]
        enc.close()
        sess.store.shutdown()
        pdf = pd.DataFrame(rows, columns=["k", "v", "ts", "del"])
        last = pdf.sort_values("ts").groupby("k").tail(1)
        live = last[~last["del"]]["v"].to_numpy()
        assert scaler.mean_ == pytest.approx(live.mean(), rel=1e-9)
        assert scaler.scale_ == pytest.approx(live.var(), rel=1e-9)


class TestRetractableMinMax:
    def test_retracting_extreme_exposes_next(self, ray_session, tmp_path):
        """MinMaxAgg as the KeyedAggregation monoid: deleting the current
        max emits a changelog transition to the next-highest live value."""
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        def mm(a):
            mn, rng = a.get()
            return {"min_v": mn, "max_v": mn + rng}

        sess = StreamSession(tmp_path / "mm", num_shards=2)
        sess.add(KeyedAggregation(
            name="mm", input="d", key_cols=["g"], value_col="v",
            weight_col="diff", make_acc=MinMaxAgg.from_numpy, finalize=mm,
            aggs=(), emit_changelog=True))

        def deltas(rows):
            g, v, d = zip(*rows)
            return pa.table({"g": pa.array(g, type=pa.int64()),
                             "v": pa.array(v, type=pa.float64()),
                             "diff": pa.array(d, type=pa.int64())})

        t0 = sess.process_epoch(0, {"d": deltas(
            [(1, 5.0, 1), (1, 9.0, 1), (1, 7.0, 1)])})["mm"]
        rows0 = sorted(zip(t0["diff"].to_pylist(), t0["min_v"].to_pylist(),
                           t0["max_v"].to_pylist()))
        assert rows0 == [(1, 5.0, 9.0)]
        # retract the max → next-highest (7) exposed
        t1 = sess.process_epoch(1, {"d": deltas([(1, 9.0, -1)])})["mm"]
        rows1 = sorted(zip(t1["diff"].to_pylist(), t1["min_v"].to_pylist(),
                           t1["max_v"].to_pylist()))
        assert rows1 == [(-1, 5.0, 9.0), (1, 5.0, 7.0)]
        # retract everything → pure retraction, key gone
        t2 = sess.process_epoch(2, {"d": deltas(
            [(1, 5.0, -1), (1, 7.0, -1)])})["mm"]
        rows2 = list(zip(t2["diff"].to_pylist(), t2["min_v"].to_pylist(),
                         t2["max_v"].to_pylist()))
        assert rows2 == [(-1, 5.0, 7.0)]
        assert sess.state_table("mm").num_rows == 0
        sess.store.shutdown()


class TestCdcJoin:
    """Bilinear join over two changelogs: diff = diff_l · diff_r, so
    retractions cancel earlier emissions and dead×dead pairs net to 0."""

    def _sess(self, root):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        sess = StreamSession(root, num_shards=3)
        sess.add(UpsertToRetract(
            name="lchg", input="lu", key=["k"], vals=["v", "g"],
            key_types=[pa.int64()], val_types=[pa.int64(), pa.int64()],
            ts_col="ts", delete_col="del"))
        sess.add(UpsertToRetract(
            name="rchg", input="ru", key=["ck"], vals=["bal"],
            key_types=[pa.int64()], val_types=[pa.int64()],
            ts_col="ts", delete_col="del"))
        sess.add(StreamJoin(
            name="j", left_input="lchg", right_input="rchg",
            left_key=["g"], right_key=["ck"],
            left_cols=["k", "v"], right_cols=["bal"]))
        return sess

    @staticmethod
    def _l(rows):
        k, v, g, ts, d = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "v": pa.array(v, type=pa.int64()),
                         "g": pa.array(g, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "del": pa.array(d)})

    @staticmethod
    def _r(rows):
        ck, bal, ts, d = zip(*rows)
        return pa.table({"ck": pa.array(ck, type=pa.int64()),
                         "bal": pa.array(bal, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64()),
                         "del": pa.array(d)})

    def test_net_join_equals_live_state_join(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "cj")
        # epoch 0: left keys 1,2 (group 5), right bucket 5
        sess.process_epoch(0, {
            "lu": self._l([(1, 10, 5, 1.0, False), (2, 20, 5, 1.0, False)]),
            "ru": self._r([(5, 100, 1.0, False)])})
        # epoch 1: left key 1 value updated; right bucket 5 balance updated
        sess.process_epoch(1, {
            "lu": self._l([(1, 11, 5, 2.0, False)]),
            "ru": self._r([(5, 101, 2.0, False)])})
        # epoch 2: left key 2 deleted; dead×dead interactions must cancel
        sess.process_epoch(2, {
            "lu": self._l([(2, 0, 5, 3.0, True)]),
            "ru": self._r([(5, 102, 3.0, False)])})
        df = sess.sinks["j"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = (df.groupby(["g", "k", "v", "bal"])["diff"].sum()
               .reset_index())
        net = net[net["diff"] != 0]
        assert (net["diff"] == 1).all()
        # live: left {1: (11, g5)}; right {5: 102} → single pair
        assert sorted(map(tuple, net[["g", "k", "v", "bal"]]
                          .itertuples(index=False))) == [(5, 1, 11, 102)]

    def test_random_stream_matches_batch_join(self, ray_session, tmp_path):
        rng = np.random.default_rng(61)
        n = 240
        lrows = list(zip(rng.integers(0, 30, n).tolist(),
                         rng.integers(1, 99, n).tolist(),
                         rng.integers(0, 6, n).tolist(),
                         rng.permutation(n).astype(float).tolist(),
                         (rng.random(n) < 0.2).tolist()))
        m = 120
        rrows = list(zip(rng.integers(0, 6, m).tolist(),
                         rng.integers(1, 99, m).tolist(),
                         rng.permutation(m).astype(float).tolist(),
                         (rng.random(m) < 0.2).tolist()))
        sess = self._sess(tmp_path / "cj2")
        for e in range(4):
            sess.process_epoch(e, {"lu": self._l(lrows[e::4]),
                                   "ru": self._r(rrows[e::4])})
        df = sess.sinks["j"].read_committed_table().to_pandas()
        sess.store.shutdown()
        net = (df.groupby(["g", "k", "v", "bal"])["diff"].sum()
               .reset_index())
        net = net[net["diff"] != 0]
        assert (net["diff"] > 0).all()
        got = sorted(net[["g", "k", "v", "bal", "diff"]]
                     .itertuples(index=False, name=None))
        lp = pd.DataFrame(lrows, columns=["k", "v", "g", "ts", "del"])
        rp = pd.DataFrame(rrows, columns=["ck", "bal", "ts", "del"])
        llast = lp.sort_values("ts").groupby("k").tail(1)
        rlast = rp.sort_values("ts").groupby("ck").tail(1)
        bj = (llast[~llast["del"]].merge(
            rlast[~rlast["del"]], left_on="g", right_on="ck")
            .groupby(["g", "k", "v", "bal"]).size().reset_index(name="n"))
        want = sorted(bj.itertuples(index=False, name=None))
        assert got == want


class TestThresholdDistinct:
    """DD's threshold operator: output multiplicity = f(net input count);
    distinct = f(m) = int(m > 0).  Emits diff = f(new) − f(old) only when
    it changes — interior count churn is silent."""

    def _op(self, f=None, **kw):
        # lambdas (cloudpickle-by-value): module-level test functions can't
        # be re-imported inside Ray Data worker processes
        f = f or (lambda m: int(m > 0))
        base = dict(name="d", input="chg", key_cols=["v"], aggs=(),
                    weight_col="diff", emit_changelog=True, threshold_fn=f)
        base.update(kw)
        return KeyedAggregation(**base)

    @staticmethod
    def _t(rows):
        v, d = zip(*rows)
        return pa.table({"v": pa.array(v, type=pa.int64()),
                         "diff": pa.array(d, type=pa.int64())})

    def test_distinct_transitions(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "th1", num_shards=2)
        sess.add(self._op())
        t0 = sess.process_epoch(0, {"chg": self._t(
            [(1, 1), (1, 1), (2, 1)])})["d"]
        assert sorted(zip(t0["v"].to_pylist(), t0["diff"].to_pylist())) == [
            (1, 1), (2, 1)]
        # 2→1 on v=1 is silent; 1→0 on v=2 emits the −1
        t1 = sess.process_epoch(1, {"chg": self._t(
            [(1, -1), (2, -1)])})["d"]
        assert list(zip(t1["v"].to_pylist(), t1["diff"].to_pylist())) == [
            (2, -1)]
        # an insert cancelled by its retraction inside the epoch on a
        # NEVER-seen key emits nothing and leaves no state behind
        t2 = sess.process_epoch(2, {"chg": self._t(
            [(3, 1), (3, -1)])})["d"]
        assert t2.num_rows == 0
        assert sess.state_table("d").num_rows == 1  # only v=1 lives
        sess.store.shutdown()

    def test_general_threshold_at_least_k(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "th2", num_shards=2)
        sess.add(self._op(f=lambda m: int(m >= 2)))
        assert sess.process_epoch(
            0, {"chg": self._t([(7, 1)])})["d"].num_rows == 0  # m=1 < 2
        t1 = sess.process_epoch(1, {"chg": self._t([(7, 1)])})["d"]
        assert list(zip(t1["v"].to_pylist(), t1["diff"].to_pylist())) == [
            (7, 1)]  # crossed the 2-threshold
        assert sess.process_epoch(
            2, {"chg": self._t([(7, 1)])})["d"].num_rows == 0  # 2→3 silent
        t3 = sess.process_epoch(3, {"chg": self._t([(7, -1), (7, -1)])})["d"]
        assert list(zip(t3["v"].to_pylist(), t3["diff"].to_pylist())) == [
            (7, -1)]  # 3→1 drops below
        sess.store.shutdown()

    def test_validation(self, ray_session):
        with pytest.raises(ValueError, match="emit_changelog"):
            KeyedAggregation(name="x", input="i", key_cols=["v"], aggs=(),
                             threshold_fn=lambda m: int(m > 0))
        with pytest.raises(ValueError, match="multiplicities"):
            self._op(value_col="w")
        with pytest.raises(ValueError, match="multiplicities"):
            self._op(aggs=("count",))
        with pytest.raises(ValueError, match="threshold_fn.0. must be 0"):
            self._op(f=lambda m: 1)

    def test_dataset_epochs_match_table(self, ray_session, tmp_path):
        rng = np.random.default_rng(83)
        n = 300
        rows = list(zip(rng.integers(0, 40, n).tolist(),
                        rng.choice([1, 1, 1, -1], n).tolist()))

        def run(as_dataset, root):
            sess = StreamSession(root, num_shards=3, checkpoint_every=1)
            sess.add(self._op())
            for e in range(3):
                t = self._t(rows[e::3])
                if as_dataset:
                    t = rd.from_arrow(t).repartition(3)
                sess.process_epoch(e, {"chg": t})
            out = sess.sinks["d"].read_committed_table().to_pandas()
            sess.store.shutdown()
            return sorted(map(tuple, out[["v", "diff", "epoch"]]
                              .itertuples(index=False)))

        a = run(False, tmp_path / "th3t")
        b = run(True, tmp_path / "th3d")
        assert a == b
        # net sum of the changelog == distinct over the net-live values
        net = pd.DataFrame(a, columns=["v", "diff", "epoch"]).groupby(
            "v")["diff"].sum()
        net = net[net != 0]
        assert (net == 1).all()
        pdf = pd.DataFrame(rows, columns=["v", "d"])
        live = pdf.groupby("v")["d"].sum()
        assert sorted(net.index) == sorted(live[live > 0].index)

    def test_fresh_identity_never_enters_plain_agg_state(
            self, ray_session, tmp_path):
        # the apply_delta twin of the guard: a cancelled fresh key must not
        # surface as a count-0 row in the aggregate's state table
        sess = StreamSession(tmp_path / "th5", num_shards=2)
        sess.add(KeyedAggregation(name="a", input="chg", key_cols=["v"],
                                  aggs=("count",), weight_col="diff"))
        sess.process_epoch(0, {"chg": self._t([(5, 1), (6, 1), (6, -1)])})
        st = sess.state_table("a")
        assert st.num_rows == 1 and st["v"].to_pylist() == [5]
        sess.store.shutdown()


class TestRetractableTopK:
    """Grouped top-k over the changelog chain: MinMaxAgg's value→count map
    finalized to the top-3 live distinct values; retracting a member
    exposes the next live value."""

    def _sess(self, root):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _topk3_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        sess = StreamSession(root, num_shards=2)
        sess.add(KeyedAggregation(
            name="tk", input="chg", key_cols=["g"], value_col="v",
            weight_col="diff", make_acc=MinMaxAgg.from_numpy,
            finalize=_topk3_finalize, aggs=(), emit_changelog=True))
        return sess

    @staticmethod
    def _t(rows):
        g, v, d = zip(*rows)
        return pa.table({"g": pa.array(g, type=pa.int64()),
                         "v": pa.array(v, type=pa.float64()),
                         "diff": pa.array(d, type=pa.int64())})

    @staticmethod
    def _rows(tbl):
        return sorted(zip(tbl["diff"].to_pylist(), tbl["g"].to_pylist(),
                          tbl["topk"].to_pylist()))

    def test_retraction_exposes_next(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "tk1")
        t0 = sess.process_epoch(0, {"chg": self._t(
            [(1, 40.0, 1), (1, 30.0, 1), (1, 20.0, 1), (1, 10.0, 1)])})["tk"]
        assert self._rows(t0) == [(1, 1, "40,30,20")]
        # 4th value (10) is OUTSIDE the top-3 but lives in the arrangement:
        # retracting 30 exposes it
        t1 = sess.process_epoch(1, {"chg": self._t([(1, 30.0, -1)])})["tk"]
        assert self._rows(t1) == [(-1, 1, "40,30,20"), (1, 1, "40,20,10")]
        # a change below the top-3 emits nothing
        t2 = sess.process_epoch(2, {"chg": self._t([(1, 5.0, 1)])})["tk"]
        assert t2.num_rows == 0
        # duplicate of a live value: count 1→2, set unchanged, silent;
        # then one copy retracts (2→1), still silent
        t3 = sess.process_epoch(3, {"chg": self._t([(1, 40.0, 1)])})["tk"]
        assert t3.num_rows == 0
        t4 = sess.process_epoch(4, {"chg": self._t([(1, 40.0, -1)])})["tk"]
        assert t4.num_rows == 0
        sess.store.shutdown()

    def test_group_death_is_pure_retraction(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "tk2")
        sess.process_epoch(0, {"chg": self._t([(7, 3.0, 1), (7, 9.0, 1)])})
        t1 = sess.process_epoch(1, {"chg": self._t(
            [(7, 3.0, -1), (7, 9.0, -1)])})["tk"]
        assert self._rows(t1) == [(-1, 7, "9,3")]
        assert sess.state_table("tk").num_rows == 0
        sess.store.shutdown()


class TestConsolidation:
    """DD arrangement compaction for changelog sinks: history ≤ E nets to
    a SUM(diff) snapshot; the running sum every consumer maintains is
    bit-identical, storage drops to O(live rows)."""

    def _delta_sink(self, root, n_epochs=4):
        sink = ExactlyOnceParquetSink(root, fsync=False)
        rng = np.random.default_rng(19)
        for e in range(n_epochs):
            k = rng.integers(0, 12, 40)
            v = rng.integers(1, 5, 40)
            d = rng.choice([1, 1, 1, -1], 40)
            sink.commit_tables(e, [pa.table({
                "k": pa.array(k, type=pa.int64()),
                "v": pa.array(v, type=pa.int64()),
                "diff": pa.array(d, type=pa.int64()),
                "epoch": pa.array([e] * 40, type=pa.int64())})],
                meta={"lineage": {"epoch": e}})
        return sink

    @staticmethod
    def _net(df):
        net = df.groupby(["k", "v"])["diff"].sum().reset_index()
        return (net[net["diff"] != 0]
                .sort_values(["k", "v"]).reset_index(drop=True))

    def test_net_preserved_snapshot_chain_replay(self, ray_session,
                                                 tmp_path):
        sink = self._delta_sink(tmp_path / "c1")
        before = self._net(sink.read_committed_table().to_pandas())
        res = sink.consolidate(upto_epoch=2)
        assert res["consolidated_epochs"] == 3
        assert res["snapshot_epoch"] == 2
        after = sink.read_committed_table().to_pandas()
        pd.testing.assert_frame_equal(before, self._net(after))
        # covered history reads as the snapshot at its last epoch only
        assert sink.read_committed_table([0]).num_rows == 0
        assert sink.read_committed_table([2]).num_rows == res["rows"]
        assert sink.read_committed_table([3]).num_rows == 40  # untouched
        assert sink.verify()
        # exactly-once: covered epochs stay committed, re-commit no-ops
        m = sink.commit_tables(1, [pa.table({"k": [99], "v": [1],
                                             "diff": [1], "epoch": [1]})])
        assert m["rows"] != 1 or 99 not in set(
            sink.read_committed_table().to_pandas()["k"])
        # chain: a second consolidation covers the first snapshot
        res2 = sink.consolidate()
        assert res2["consolidated_epochs"] == 4
        after2 = sink.read_committed_table().to_pandas()
        pd.testing.assert_frame_equal(before, self._net(after2))
        # pure net state now: ONE row per surviving (k, v), diff = net sum
        assert not after2.duplicated(["k", "v"]).any()
        assert (after2["diff"] != 0).all()
        assert (after2["epoch"] == 3).all()
        # superseded payloads GC'd: exactly one compact manifest remains
        assert len(list((sink.root / "_manifests").glob(
            "compact-*.json"))) == 1

    def test_crash_window_reads_exact_then_recovers(self, ray_session,
                                                    tmp_path):
        sink = self._delta_sink(tmp_path / "c2")
        before = self._net(sink.read_committed_table().to_pandas())
        # crash right after the consolidation manifest commit: GC never ran
        sink._gc_consolidations = lambda: None
        sink.consolidate(upto_epoch=2)
        # originals still on disk, epoch manifests unflipped — reads must
        # already be exact through the owner map
        assert any(sink.manifest(e).get("compacted_into") is None
                   for e in (0, 1, 2))
        pd.testing.assert_frame_equal(
            before, self._net(sink.read_committed_table().to_pandas()))
        # next open finishes the GC
        sink2 = ExactlyOnceParquetSink(tmp_path / "c2", fsync=False)
        assert all(sink2.manifest(e).get("compacted_into")
                   for e in (0, 1, 2))
        assert not (sink2.root / "data" / "epoch=00000000").exists()
        pd.testing.assert_frame_equal(
            before, self._net(sink2.read_committed_table().to_pandas()))
        assert sink2.verify()

    def test_distributed_tier_matches_driver(self, ray_session, tmp_path):
        a = self._delta_sink(tmp_path / "c3a")
        b = self._delta_sink(tmp_path / "c3b")
        a.consolidate(upto_epoch=2)
        b.consolidate(upto_epoch=2, distributed_over_rows=0)  # force Ray tier
        ta = a.read_committed_table().to_pandas()
        tb = b.read_committed_table().to_pandas()
        cols = ["k", "v", "diff", "epoch"]
        pd.testing.assert_frame_equal(
            ta[cols].sort_values(cols).reset_index(drop=True),
            tb[cols].sort_values(cols).reset_index(drop=True))
        # both tiers content-hash their snapshot parts, so a same-size
        # corruption of a Ray-tier part fails the audit
        assert a.verify() and b.verify()
        (cm,) = b._consolidation_manifests()
        flip_middle_byte(b.root / cm["files"][0]["path"])
        assert not b.verify()
        assert_sha256_entries(a)
        assert_sha256_entries(b)

    def test_consolidate_over_legacy_compaction(self, ray_session,
                                                tmp_path):
        sink = self._delta_sink(tmp_path / "c4")
        before = self._net(sink.read_committed_table().to_pandas())
        sink.compact(upto_epoch=2)  # small-file merge first
        sink.consolidate(upto_epoch=3)  # covers the compacted epochs
        after = sink.read_committed_table().to_pandas()
        pd.testing.assert_frame_equal(before, self._net(after))
        # the fully-covered compaction payload is gone
        assert not list((sink.root / "data").glob("compact-*"))
        assert sink.verify()

    def test_empty_net_snapshot(self, ray_session, tmp_path):
        sink = ExactlyOnceParquetSink(tmp_path / "c5", fsync=False)
        t = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                      "diff": pa.array([1, 1], type=pa.int64()),
                      "epoch": pa.array([0, 0], type=pa.int64())})
        sink.commit_tables(0, [t])
        sink.commit_tables(1, [pa.table({
            "k": pa.array([1, 2], type=pa.int64()),
            "diff": pa.array([-1, -1], type=pa.int64()),
            "epoch": pa.array([1, 1], type=pa.int64())})])
        sink.commit_tables(2, [pa.table({
            "k": pa.array([5], type=pa.int64()),
            "diff": pa.array([1], type=pa.int64()),
            "epoch": pa.array([2], type=pa.int64())})])
        res = sink.consolidate(upto_epoch=1)
        assert res["rows"] == 0
        got = sink.read_committed_table().to_pandas()
        assert got["k"].tolist() == [5]
        assert sink.verify()


class TestCdcMatview:
    """Four differential operators in one in-session DAG: two CDC
    changelogs → bilinear join → aggregate changelog = an incrementally
    maintained materialized view."""

    def test_view_tracks_live_join_aggregate(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        sess = StreamSession(tmp_path / "mv", num_shards=2)
        sess.add(UpsertToRetract(
            name="lchg", input="lu", key=["k"], vals=["v", "g"],
            key_types=[pa.int64()], val_types=[pa.int64(), pa.int64()],
            ts_col="ts", delete_col="del"))
        sess.add(UpsertToRetract(
            name="rchg", input="ru", key=["ck"], vals=["bal"],
            key_types=[pa.int64()], val_types=[pa.int64()],
            ts_col="ts", delete_col="del"))
        sess.add(StreamJoin(
            name="j", left_input="lchg", right_input="rchg",
            left_key=["g"], right_key=["ck"],
            left_cols=["k", "v"], right_cols=["bal"]))
        sess.add(KeyedAggregation(
            name="view", input="j", key_cols=["g"], value_col="v",
            aggs=("count", "sum"), weight_col="diff",
            emit_changelog=True))

        def l(rows):
            k, v, g, ts, d = zip(*rows)
            return pa.table({"k": pa.array(k, type=pa.int64()),
                             "v": pa.array(v, type=pa.int64()),
                             "g": pa.array(g, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "del": pa.array(d)})

        def r(rows):
            ck, bal, ts, d = zip(*rows)
            return pa.table({"ck": pa.array(ck, type=pa.int64()),
                             "bal": pa.array(bal, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "del": pa.array(d)})

        def view():
            df = sess.sinks["view"].read_committed_table().to_pandas()
            net = df.groupby(["g", "count", "sum"])["diff"].sum()
            net = net[net != 0].reset_index()
            assert (net["diff"] == 1).all()
            return sorted(map(tuple, net[["g", "count", "sum"]]
                              .itertuples(index=False)))

        # epoch 0: two orders in g5, dim row for bucket 5
        sess.process_epoch(0, {
            "lu": l([(1, 10, 5, 1.0, False), (2, 20, 5, 1.0, False)]),
            "ru": r([(5, 100, 1.0, False)])})
        assert view() == [(5, 2, 30.0)]
        # epoch 1: order 1's value updates — view must move 30 → 31
        sess.process_epoch(1, {"lu": l([(1, 11, 5, 2.0, False)])})
        assert view() == [(5, 2, 31.0)]
        # epoch 2: order 2 deleted — count drops, sum drops
        sess.process_epoch(2, {"lu": l([(2, 0, 5, 3.0, True)])})
        assert view() == [(5, 1, 11.0)]
        # epoch 3: dim row deleted — the whole group leaves the view
        sess.process_epoch(3, {"ru": r([(5, 0, 4.0, True)])})
        assert view() == []
        sess.store.shutdown()


class TestAutoConsolidation:
    """StreamSession(consolidate_every=N): changelog sinks net to a
    snapshot on a cadence; the running sum is unchanged."""

    def test_cadence_nets_history(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            UpsertToRetract)

        def run(root, every):
            sess = StreamSession(root, num_shards=2,
                                 consolidate_every=every)
            sess.add(UpsertToRetract(
                name="chg", input="u", key=["k"], vals=["v"],
                key_types=[pa.int64()], val_types=[pa.int64()],
                ts_col="ts", delete_col="del"))
            rng = np.random.default_rng(29)
            for e in range(6):
                n = 30
                sess.process_epoch(e, {"u": pa.table({
                    "k": pa.array(rng.integers(0, 10, n), type=pa.int64()),
                    "v": pa.array(rng.integers(1, 50, n), type=pa.int64()),
                    "ts": pa.array(np.arange(n) + e * n, type=pa.float64()),
                    "del": pa.array(rng.random(n) < 0.2)})})
            df = sess.sinks["chg"].read_committed_table().to_pandas()
            sess.store.shutdown()
            net = df.groupby(["k", "v"])["diff"].sum()
            net = net[net != 0].reset_index()
            return len(df), sorted(map(tuple, net.itertuples(index=False)))

        rows_plain, net_plain = run(tmp_path / "p", None)
        rows_cons, net_cons = run(tmp_path / "c", 2)
        assert net_plain == net_cons          # live table identical
        assert rows_cons < rows_plain         # history actually netted


class TestRetractableMedian:
    """Holistic aggregate via the value→count arrangement: the exact
    multiset median stays maintainable under retraction."""

    def test_median_shifts_under_retraction(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _median_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        sess = StreamSession(tmp_path / "md", num_shards=2)
        sess.add(KeyedAggregation(
            name="med", input="chg", key_cols=["g"], value_col="v",
            weight_col="diff", make_acc=MinMaxAgg.from_numpy,
            finalize=_median_finalize, aggs=(), emit_changelog=True))

        def t(rows):
            g, v, d = zip(*rows)
            return pa.table({"g": pa.array(g, type=pa.int64()),
                             "v": pa.array(v, type=pa.float64()),
                             "diff": pa.array(d, type=pa.int64())})

        def rows(tbl):
            return sorted(zip(tbl["diff"].to_pylist(),
                              tbl["med"].to_pylist()))

        # odd count {1,2,9} → 2; duplicate values count as multiset copies
        t0 = sess.process_epoch(0, {"chg": t(
            [(1, 1.0, 1), (1, 2.0, 1), (1, 9.0, 1)])})["med"]
        assert rows(t0) == [(1, 2.0)]
        # even count {1,2,2,9} → (2+2)/2 = 2: finalized value UNCHANGED →
        # the changelog stays silent (dict-compare semantics)
        t1 = sess.process_epoch(1, {"chg": t([(1, 2.0, 1)])})["med"]
        assert t1.num_rows == 0
        # retract a 2 → {1,2,9} → 2 again, still silent
        t2 = sess.process_epoch(2, {"chg": t([(1, 2.0, -1)])})["med"]
        assert t2.num_rows == 0
        # retract the median itself → {1,9} → interpolated 5.0
        t3 = sess.process_epoch(3, {"chg": t([(1, 2.0, -1)])})["med"]
        assert rows(t3) == [(-1, 2.0), (1, 5.0)]
        sess.store.shutdown()


class TestFullOuterJoin:
    """emit_unmatched='full': both sides' never-matched rows sweep into
    their own side sinks; matched ∪ both unmatched = the FULL JOIN
    multiset under the interval predicate."""

    def _sess(self, root, **kw):
        sess = StreamSession(root, num_shards=2, **kw)
        sess.add(StreamJoin(
            name="j", left_input="l", right_input="r",
            left_key=["k"], right_key=["k"],
            left_cols=["lv"], right_cols=["rv"],
            left_ts="lt", right_ts="rt", max_dt=5.0,
            emit_unmatched="full"))
        return sess

    @staticmethod
    def _L(rows):
        k, lv, lt = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "lv": pa.array(lv, type=pa.int64()),
                         "lt": pa.array(lt, type=pa.float64())})

    @staticmethod
    def _R(rows):
        k, rv, rt = zip(*rows)
        return pa.table({"k": pa.array(k, type=pa.int64()),
                         "rv": pa.array(rv, type=pa.int64()),
                         "rt": pa.array(rt, type=pa.float64())})

    def test_both_sides_sweep(self, ray_session, tmp_path):
        sess = self._sess(tmp_path / "fo1")
        sess.process_epoch(0, {
            "l": self._L([(1, 10, 1.0), (2, 20, 1.0)]),
            "r": self._R([(1, 100, 2.0), (3, 300, 2.0)])}, watermark=2.0)
        # a LATE-epoch match within the window: right k=2 arrives at
        # t=4 — still inside left k=2's ±5 window (not yet swept)
        sess.process_epoch(1, {"r": self._R([(2, 200, 4.0)])},
                           watermark=4.0)
        sess.process_epoch(2, {}, watermark=50.0)  # close everything
        m = sess.sinks["j"].read_committed_table().to_pandas()
        ul = sess.sinks["j__unmatched"].read_committed_table().to_pandas()
        ur = sess.sinks["j__unmatched_right"].read_committed_table(
        ).to_pandas()
        sess.store.shutdown()
        assert sorted(zip(m["k"], m["lv"], m["rv"])) == [
            (1, 10, 100), (2, 20, 200)]
        assert len(ul) == 0                      # every left matched
        assert sorted(zip(ur["k"], ur["rv"])) == [(3, 300)]

    def test_resume_keeps_right_flags(self, ray_session, tmp_path):
        root = tmp_path / "fo2"
        s1 = self._sess(root, checkpoint_every=1)
        s1.process_epoch(0, {
            "l": self._L([(1, 10, 1.0)]),
            "r": self._R([(1, 100, 2.0), (7, 700, 2.0)])}, watermark=2.0)
        s1.store.shutdown()  # crash after checkpoint
        s2 = self._sess(root, checkpoint_every=1)
        assert s2.resume() == 1
        s2.process_epoch(1, {}, watermark=50.0)
        ur = s2.sinks["j__unmatched_right"].read_committed_table(
        ).to_pandas()
        s2.store.shutdown()
        # matched right row (k=1) must NOT re-emit as unmatched after
        # resume; only the never-matched k=7 sweeps
        assert sorted(zip(ur["k"], ur["rv"])) == [(7, 700)]

    def test_validation(self, ray_session):
        with pytest.raises(ValueError, match="emit_unmatched="):
            StreamJoin(name="x", left_input="l", right_input="r",
                       left_key=["k"], right_key=["k"],
                       left_cols=[], right_cols=[],
                       left_ts="lt", right_ts="rt", max_dt=1.0,
                       emit_unmatched="sideways").unmatched_sides()


class TestEarlyFiring:
    """Beam's accumulating-with-retractions early firing: per-epoch ±1
    changelog of the open tumbling windows in the __early side sink; the
    exactly-once on-close emission is unchanged."""

    def _op(self, **kw):
        base = dict(name="w", input="e", key_cols=["g"], value_col="v",
                    ts_col="ts", aggs=("count", "sum"),
                    window=WindowSpec.tumbling(10.0), early_firing=True)
        base.update(kw)
        return KeyedAggregation(**base)

    @staticmethod
    def _t(rows):
        g, v, ts = zip(*rows)
        return pa.table({"g": pa.array(g, type=pa.int64()),
                         "v": pa.array(v, type=pa.float64()),
                         "ts": pa.array(ts, type=pa.float64())})

    def test_running_sum_tracks_open_windows_and_close_unchanged(
            self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "ef1", num_shards=2)
        sess.add(self._op())
        e0 = sess.process_epoch(0, {"e": self._t(
            [(1, 5.0, 1.0), (1, 7.0, 2.0)])})["w__early"]
        assert sorted(zip(e0["diff"].to_pylist(), e0["count"].to_pylist(),
                          e0["sum"].to_pylist())) == [(1, 2, 12.0)]
        e1 = sess.process_epoch(1, {"e": self._t([(1, 3.0, 4.0)])})[
            "w__early"]
        assert sorted(zip(e1["diff"].to_pylist(), e1["count"].to_pylist(),
                          e1["sum"].to_pylist())) == [
            (-1, 2, 12.0), (1, 3, 15.0)]
        # an epoch that touches a DIFFERENT window leaves this one silent
        e2 = sess.process_epoch(2, {"e": self._t([(1, 9.0, 15.0)])})[
            "w__early"]
        assert sorted(zip(e2["diff"].to_pylist(),
                          e2["window_start"].to_pylist())) == [(1, 10.0)]
        # close: the final exactly-once emission is the usual one
        sess.advance_watermark(3, 100.0)
        fin = sess.sinks["w"].read_committed_table().to_pandas()
        assert sorted(zip(fin["window_start"], fin["count"],
                          fin["sum"])) == [(0.0, 3, 15.0), (10.0, 1, 9.0)]
        # and the early changelog's running sum equals that final state
        early = sess.sinks["w__early"].read_committed_table().to_pandas()
        net = early.groupby(["g", "window_start", "count", "sum"])[
            "diff"].sum().reset_index()
        net = net[net["diff"] != 0]
        assert sorted(zip(net["window_start"], net["count"],
                          net["sum"])) == [(0.0, 3, 15.0), (10.0, 1, 9.0)]
        sess.store.shutdown()

    def test_dataset_matches_table(self, ray_session, tmp_path):
        rng = np.random.default_rng(53)
        n = 120
        rows = list(zip(rng.integers(0, 4, n).tolist(),
                        rng.integers(1, 50, n).astype(float).tolist(),
                        (rng.random(n) * 40).tolist()))

        def run(blocks, root):
            sess = StreamSession(root, num_shards=2)
            sess.add(self._op())
            for e in range(3):
                sess.process_epoch(e, {"e": as_blocks(self._t(rows[e::3]),
                                                      blocks)})
            out = sess.sinks["w__early"].read_committed_table().to_pandas()
            sess.store.shutdown()
            # integer-valued floats → exact sums regardless of block order
            return sorted(map(tuple, out[["diff", "g", "window_start",
                                          "count", "sum", "epoch"]]
                              .itertuples(index=False)))

        want = run(0, tmp_path / "ef2t")
        assert run(2, tmp_path / "ef2d") == want
        assert run(4, tmp_path / "ef2d4") == want

    def test_validation(self, ray_session):
        # sliding is allowed since r3 (per-window accumulators); sessions
        # and unwindowed aggs are not
        self._op(window=WindowSpec.sliding(20.0, 10.0))
        with pytest.raises(ValueError, match="tumbling or sliding"):
            self._op(window=None)
        with pytest.raises(ValueError, match="emit_changelog|early_firing"):
            self._op(emit_changelog=True)


class TestRetractableSessionSplit:
    """Retracting the bridging event SPLITS a session in two — the raw
    point multiset in the shards makes the re-sessionization exact."""

    def test_bridge_retraction_splits(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "rs", num_shards=2)
        sess.add(SessionWindowAggregation(
            name="s", input="e", key_cols=["u"], ts_col="ts", gap=10.0,
            retractable=True, weight_col="diff"))

        def t(rows):
            u, ts, d = zip(*rows)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "diff": pa.array(d, type=pa.int64())})

        # one session 0..25 bridged by the event at t=12
        sess.process_epoch(0, {"e": t([(1, 0.0, 1), (1, 5.0, 1),
                                       (1, 12.0, 1), (1, 21.0, 1),
                                       (1, 25.0, 1)])})
        # retract the bridge: 0,5 and 21,25 are now > gap apart
        sess.process_epoch(1, {"e": t([(1, 12.0, -1)])})
        sess.close(2)
        df = sess.sinks["s"].read_committed_table().to_pandas()
        if sess.store.shards:
            sess.store.shutdown()
        got = sorted(zip(df["session_start"], df["session_end"],
                         df["count"].astype(int)))
        # session_end = last event ts + gap (the close bound)
        assert got == [(0.0, 15.0, 2), (21.0, 35.0, 2)]


class TestSessionEarlyFiring:
    """Early firing for MERGING windows: per-epoch ±1 changelog of touched
    OPEN sessions in the __early side sink; merges retract both prior
    partials, closes retract the final speculative value."""

    @staticmethod
    def _t(rows, diff=False):
        if diff:
            u, ts, d = zip(*rows)
            return pa.table({"u": pa.array(u, type=pa.int64()),
                             "ts": pa.array(ts, type=pa.float64()),
                             "diff": pa.array(d, type=pa.int64())})
        u, ts = zip(*rows)
        return pa.table({"u": pa.array(u, type=pa.int64()),
                         "ts": pa.array(ts, type=pa.float64())})

    def _mk(self, root, retractable=False, num_shards=2):
        sess = StreamSession(root, num_shards=num_shards, checkpoint_every=1)
        sess.add(SessionWindowAggregation(
            name="s", input="e", key_cols=["u"], ts_col="ts", gap=10.0,
            early_firing=True, retractable=retractable,
            weight_col="diff" if retractable else None))
        return sess

    def test_merge_retracts_both_partials(self, ray_session, tmp_path):
        sess = self._mk(tmp_path / "m")
        # u=1: two separate sessions; u=2: one session (untouched later)
        sess.process_epoch(0, {"e": self._t([(1, 0.0), (1, 30.0), (2, 5.0)])})
        e0 = sess.sinks["s__early"].read_committed_table().to_pandas()
        assert sorted(zip(e0["diff"], e0["u"], e0["session_start"])) == [
            (1, 1, 0.0), (1, 1, 30.0), (1, 2, 5.0)]
        # bridge 12.0→22.0 chains 30.0's session onto a new one; 0.0 stays
        sess.process_epoch(1, {"e": self._t([(1, 12.0), (1, 22.0)])})
        e1 = sess.sinks["s__early"].read_committed_table(
            epochs=[1]).to_pandas()
        got = sorted(zip(e1["diff"], e1["u"], e1["session_start"],
                         e1["count"].astype(int)))
        # -1 for the swallowed 30.0 partial, +1 for the merged 12..40
        assert got == [(-1, 1, 30.0, 1), (1, 1, 12.0, 3)]
        # untouched key 2 and untouched session 0.0 emit NOTHING
        assert not ((e1["u"] == 2).any())
        assert not ((e1["session_start"] == 0.0).any())
        sess.store.shutdown()

    def test_retractable_split_emits_changelog(self, ray_session, tmp_path):
        sess = self._mk(tmp_path / "r", retractable=True)
        pts = [(1, 0.0, 1), (1, 5.0, 1), (1, 12.0, 1), (1, 21.0, 1),
               (1, 25.0, 1)]
        sess.process_epoch(0, {"e": self._t(pts, diff=True)})
        e0 = sess.sinks["s__early"].read_committed_table().to_pandas()
        assert list(zip(e0["diff"], e0["session_start"],
                        e0["count"].astype(int))) == [(1, 0.0, 5)]
        # retract the bridge: the joined session splits into two halves
        sess.process_epoch(1, {"e": self._t([(1, 12.0, -1)], diff=True)})
        e1 = sess.sinks["s__early"].read_committed_table(
            epochs=[1]).to_pandas()
        got = sorted(zip(e1["diff"], e1["session_start"],
                         e1["count"].astype(int)))
        assert got == [(-1, 0.0, 5), (1, 0.0, 2), (1, 21.0, 2)]
        sess.store.shutdown()

    def test_close_retraction_nets_zero_and_matches_final(self, ray_session,
                                                          tmp_path):
        sess = self._mk(tmp_path / "c")
        sess.process_epoch(0, {"e": self._t([(1, 0.0), (1, 30.0), (2, 5.0)])})
        sess.process_epoch(1, {"e": self._t([(1, 12.0), (1, 22.0)])})
        sess.close(2)
        early = sess.sinks["s__early"].read_committed_table().to_pandas()
        net = early.groupby(["u", "session_start", "count"])["diff"].sum()
        assert (net == 0).all()
        final = sess.sinks["s"].read_committed_table().to_pandas()
        closes = early[(early["epoch"] == 2)]
        a = closes.sort_values(["u", "session_start"]).reset_index(drop=True)
        b = final.sort_values(["u", "session_start"]).reset_index(drop=True)
        for c in ("u", "session_start", "session_end", "sum", "count",
                  "first_ts", "last_ts"):
            assert list(a[c]) == list(b[c]), c
        assert (a["diff"] == -1).all()
        sess.store.shutdown()

    def test_dataset_epochs_equal_table_epochs(self, ray_session, tmp_path):
        import ray.data as rd

        feeds = [self._t([(1, 0.0), (1, 30.0), (2, 5.0)]),
                 self._t([(1, 12.0), (1, 22.0), (2, 8.0)])]
        cols = ["epoch", "diff", "u", "session_start", "session_end", "sum",
                "count"]
        outs = []
        for blocks in (0, 1, 4):
            sess = self._mk(tmp_path / f"d{blocks}")
            for e, f in enumerate(feeds):
                sess.process_epoch(e, {"e": as_blocks(f, blocks)})
            sess.close(2)
            outs.append(sess.sinks["s__early"].read_committed_table()
                        .to_pandas()[cols].sort_values(cols)
                        .reset_index(drop=True))
            sess.store.shutdown()
        for b in outs[1:]:
            pd.testing.assert_frame_equal(outs[0], b, check_dtype=False)

    def test_crash_resume_early_changelog_identical(self, ray_session,
                                                    tmp_path):
        feeds = [self._t([(1, 0.0), (1, 30.0)]),
                 self._t([(1, 12.0), (1, 22.0)]),
                 self._t([(2, 100.0)])]

        def run(root, crash_after=None):
            sess = self._mk(root)
            start = sess.resume()
            for e in range(start, 3):
                sess.process_epoch(e, {"e": feeds[e]})
                if crash_after is not None and e == crash_after:
                    sess.store.shutdown()
                    return sess
            sess.close(3)
            return sess

        run(tmp_path / "cr", crash_after=1)
        s2 = run(tmp_path / "cr")
        s3 = run(tmp_path / "clean")
        cols = ["epoch", "diff", "u", "session_start", "count"]
        a = (s2.sinks["s__early"].read_committed_table().to_pandas()[cols]
             .sort_values(cols).reset_index(drop=True))
        b = (s3.sinks["s__early"].read_committed_table().to_pandas()[cols]
             .sort_values(cols).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert s2.sinks["s__early"].verify()
        s2.store.shutdown()
        s3.store.shutdown()

    def test_double_advance_guard_covers_early_sink(self, ray_session,
                                                    tmp_path):
        sess = self._mk(tmp_path / "g")
        sess.process_epoch(0, {"e": self._t([(1, 0.0)])})
        sess.advance_watermark(1, 20.0)
        with pytest.raises(RuntimeError, match="already committed"):
            sess.advance_watermark(1, 50.0)
        sess.store.shutdown()


class TestEarlyFiringSliding:
    """Early firing on sliding windows: one accumulator per OPEN window
    (pane optimization deliberately given up for speculation); the early
    changelog covers every containing window, and the close path emits
    exactly what the pane-mode run emits."""

    @staticmethod
    def _t(rows):
        g, v, ts = zip(*rows)
        return pa.table({"g": pa.array(g, type=pa.int64()),
                         "v": pa.array(v, type=pa.float64()),
                         "ts": pa.array(ts, type=pa.float64())})

    def _op(self, early, **kw):
        base = dict(name="w", input="e", key_cols=["g"], value_col="v",
                    ts_col="ts", aggs=("count", "sum"),
                    window=WindowSpec.sliding(20.0, 10.0),
                    early_firing=early)
        base.update(kw)
        return KeyedAggregation(**base)

    def test_row_touches_every_containing_window(self, ray_session,
                                                 tmp_path):
        sess = StreamSession(tmp_path / "s1", num_shards=2)
        sess.add(self._op(True))
        # ts=15 lands in windows [0,20) and [10,30)
        e0 = sess.process_epoch(0, {"e": self._t([(1, 3.0, 15.0)])})[
            "w__early"]
        assert sorted(zip(e0["diff"].to_pylist(),
                          e0["window_start"].to_pylist())) == [
            (1, 0.0), (1, 10.0)]
        # ts=25 lands in [10,30) and [20,40): retracts only the shared one
        e1 = sess.process_epoch(1, {"e": self._t([(1, 5.0, 25.0)])})[
            "w__early"]
        got = sorted(zip(e1["diff"].to_pylist(),
                         e1["window_start"].to_pylist(),
                         e1["sum"].to_pylist()))
        assert got == [(-1, 10.0, 3.0), (1, 10.0, 8.0), (1, 20.0, 5.0)]
        sess.store.shutdown()

    def test_close_equals_pane_mode_run(self, ray_session, tmp_path):
        rng = np.random.default_rng(21)
        rows = [(int(g), float(v), float(ts))
                for g, v, ts in zip(rng.integers(0, 5, 200),
                                    rng.normal(size=200),
                                    rng.uniform(0, 300, 200))]
        feeds = [self._t(rows[i::3]) for i in range(3)]

        def run(root, early):
            sess = StreamSession(root, num_shards=2)
            sess.add(self._op(early))
            for e, f in enumerate(feeds):
                sess.process_epoch(e, {"e": f})
            sess.close(3)
            out = sess.sinks["w"].read_committed_table().to_pandas()
            sess.store.shutdown()
            cols = ["g", "window_start", "window_end", "count", "sum"]
            return (out[cols].sort_values(cols[:3])
                    .reset_index(drop=True).round(9))

        a = run(tmp_path / "early", True)   # per-window accumulators
        b = run(tmp_path / "pane", False)   # pane-merge path
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_early_running_sum_equals_state(self, ray_session, tmp_path):
        sess = StreamSession(tmp_path / "rs", num_shards=2)
        sess.add(self._op(True))
        rng = np.random.default_rng(9)
        for e in range(3):
            rows = [(int(g), float(v), float(ts))
                    for g, v, ts in zip(rng.integers(0, 3, 40),
                                        rng.normal(size=40),
                                        rng.uniform(0, 100, 40))]
            sess.process_epoch(e, {"e": self._t(rows)})
        early = sess.sinks["w__early"].read_committed_table().to_pandas()
        net = (early.assign(c=early["count"] * early["diff"],
                            s=early["sum"] * early["diff"])
               .groupby(["g", "window_start"])[["diff", "c", "s"]].sum())
        live = net[net["diff"] > 0]
        assert (net["diff"].isin([0, 1])).all()
        # running sum == one copy of the current speculative aggregate
        state = sess.state_table("w").to_pandas().set_index(
            ["g", "window_start"])
        for (g, ws), r in live.iterrows():
            assert r["c"] == state.loc[(g, ws)]["count"]
            assert abs(r["s"] - state.loc[(g, ws)]["sum"]) < 1e-9
        sess.store.shutdown()

    def test_session_window_rejected(self):
        with pytest.raises(ValueError, match="tumbling or sliding"):
            KeyedAggregation(name="w", input="e", key_cols=["g"],
                             value_col="v",
                             window=WindowSpec.session(10.0),
                             early_firing=True)


class TestIncrementalPageRank:
    """IncrementalPageRank: warm-started fixpoint maintenance across
    epochs with edge retraction; the changelog's running sum is the rank
    table and equals a from-scratch fixpoint after every epoch."""

    @staticmethod
    def _t(edges):
        s, d, w = zip(*edges)
        return pa.table({"src": pa.array(s, type=pa.int64()),
                         "dst": pa.array(d, type=pa.int64()),
                         "diff": pa.array(w, type=pa.int64())})

    @staticmethod
    def _fixpoint(edge_multiset, damping=0.85, tol=1e-12):
        live = [(u, v, c) for (u, v), c in edge_multiset.items() if c > 0]
        if not live:
            return {}
        src = np.array([u for u, _, _ in live])
        dst = np.array([v for _, v, _ in live])
        w = np.array([c for _, _, c in live], dtype=float)
        ids = np.unique(np.concatenate([src, dst]))
        n = len(ids)
        si, di = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        outw = np.zeros(n)
        np.add.at(outw, si, w)
        safe = np.where(outw > 0, outw, 1.0)
        r = np.full(n, 1.0 / n)
        for _ in range(10000):
            dang = float(r[outw == 0].sum())
            contrib = np.zeros(n)
            np.add.at(contrib, di, r[si] * w / safe[si])
            r_new = (1 - damping) / n + damping * dang / n \
                + damping * contrib
            if np.abs(r_new - r).max() < tol:
                return dict(zip(ids.tolist(), r_new.tolist()))
            r = r_new
        raise AssertionError("reference fixpoint did not converge")

    def _mk(self, root):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            IncrementalPageRank)

        sess = StreamSession(root, num_shards=3, checkpoint_every=1)
        sess.add(IncrementalPageRank(name="pr", input="e",
                                     weight_col="diff"))
        return sess

    def test_matches_fixpoint_every_epoch_incl_deletion(self, ray_session,
                                                        tmp_path):
        rng = np.random.default_rng(17)
        all_edges = [(int(u), int(v), 1)
                     for u, v in rng.integers(0, 30, (60, 2)) if u != v]
        feeds = [all_edges[0::3], all_edges[1::3], all_edges[2::3],
                 [(u, v, -1) for u, v, _ in all_edges if u % 4 == 0]]
        sess = self._mk(tmp_path / "pr")
        ms: dict = {}
        for e, f in enumerate(feeds):
            for u, v, w in f:
                ms[(u, v)] = ms.get((u, v), 0) + w
            sess.process_epoch(e, {"e": self._t(f)})
            chg = sess.sinks["pr"].read_committed_table().to_pandas()
            net = chg.groupby(["id", "rank"])["diff"].sum().reset_index()
            live = net[net["diff"] > 0]
            assert (live.groupby("id").size() == 1).all()
            got = dict(zip(live["id"], live["rank"]))
            want = self._fixpoint(ms)
            assert set(got) == set(want)
            for i, r in want.items():
                assert abs(got[i] - r) < 5e-9, (e, i)
        sess.store.shutdown()

    def test_deleting_all_edges_retracts_all_ranks(self, ray_session,
                                                   tmp_path):
        sess = self._mk(tmp_path / "empty")
        sess.process_epoch(0, {"e": self._t([(1, 2, 1), (2, 3, 1)])})
        sess.process_epoch(1, {"e": self._t([(1, 2, -1), (2, 3, -1)])})
        chg = sess.sinks["pr"].read_committed_table().to_pandas()
        net = chg.groupby(["id", "rank"])["diff"].sum()
        assert (net == 0).all()  # every rank fully retracted
        sess.store.shutdown()

    def test_crash_resume_changelog_identical(self, ray_session, tmp_path):
        feeds = [[(1, 2, 1), (2, 3, 1)], [(3, 1, 1)], [(2, 3, -1)]]

        def run(root, crash_after=None):
            sess = self._mk(root)
            start = sess.resume()
            for e in range(start, 3):
                sess.process_epoch(e, {"e": self._t(feeds[e])})
                if crash_after is not None and e == crash_after:
                    sess.store.shutdown()
                    return sess
            return sess

        run(tmp_path / "cr", crash_after=1)
        s2 = run(tmp_path / "cr")
        s3 = run(tmp_path / "clean")
        cols = ["epoch", "diff", "id", "rank"]
        a = (s2.sinks["pr"].read_committed_table().to_pandas()[cols]
             .sort_values(cols).reset_index(drop=True))
        b = (s3.sinks["pr"].read_committed_table().to_pandas()[cols]
             .sort_values(cols).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        s2.store.shutdown()
        s3.store.shutdown()

    def test_nonconvergence_raises(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            IncrementalPageRank)

        sess = StreamSession(tmp_path / "nc", num_shards=1)
        sess.add(IncrementalPageRank(name="pr", input="e",
                                     weight_col="diff", max_iters=1))
        # asymmetric graph: the uniform warm start is NOT the fixpoint
        # (a symmetric cycle would legitimately converge in one sweep)
        with pytest.raises(Exception, match="did not converge"):
            sess.process_epoch(0, {"e": self._t(
                [(1, 2, 1), (1, 3, 1), (2, 3, 1)])})
        sess.store.shutdown()


class TestRetractableQuantile:
    def test_finalize_matches_numpy_linear(self):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _quantile_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = rng.integers(-50, 50, rng.integers(1, 40))
            acc = MinMaxAgg.from_numpy(vals.astype(float))
            got = _quantile_finalize(acc)
            assert got["q25"] == pytest.approx(
                np.percentile(vals, 25, method="linear"), abs=1e-9)
            assert got["q75"] == pytest.approx(
                np.percentile(vals, 75, method="linear"), abs=1e-9)

    def test_retraction_moves_quantile(self):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _quantile_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        acc = MinMaxAgg.from_numpy(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert _quantile_finalize(acc)["q75"] == 4.0
        neg = MinMaxAgg.from_numpy(np.array([100.0]))
        neg.negate()
        acc.merge(neg)  # retract the outlier: quantiles re-interpolate
        got = _quantile_finalize(acc)
        assert got["q25"] == pytest.approx(1.75)
        assert got["q75"] == pytest.approx(3.25)


class TestRetractableMode:
    def test_retraction_exposes_runner_up_and_tiebreak(self):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _mode_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        acc = MinMaxAgg.from_numpy(np.array([5.0, 5.0, 5.0, 2.0, 2.0, 9.0]))
        assert _mode_finalize(acc) == {"mode_v": 5.0, "mode_n": 3}
        neg = MinMaxAgg.from_numpy(np.array([5.0, 5.0]))
        neg.negate()
        acc.merge(neg)  # 5 drops to 1 copy: 2 (count 2) takes over
        assert _mode_finalize(acc) == {"mode_v": 2.0, "mode_n": 2}
        acc.merge(MinMaxAgg.from_numpy(np.array([9.0])))
        # tie 2x'2' vs 2x'9': smallest value wins deterministically
        assert _mode_finalize(acc) == {"mode_v": 2.0, "mode_n": 2}


class TestStreamNearDup:
    """Streaming MinHash-LSH near-dup: incremental cross-epoch detection
    against shard-resident band-bucket registers; StreamDedup chain gives
    exactly-once distinct pairs."""

    DUP = ("the quick brown fox jumps over the lazy dog and then naps "
           "in the warm afternoon sun near the old barn door")

    @staticmethod
    def _docs(rows):
        ids, texts = zip(*rows)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(texts)})

    def _mk(self, root, **kw):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            StreamDedup, StreamNearDup)

        sess = StreamSession(root, num_shards=3, checkpoint_every=1)
        sess.add(StreamNearDup(name="nd", input="docs", threshold=0.9,
                               **kw))
        sess.add(StreamDedup(name="pairs", input="nd",
                             key=["id_lo", "id_hi"], ts_col="epoch"))
        return sess

    def _distinct(self, rng, n):
        # long random token soups: pairwise similarity ~0
        words = ["w%03d" % i for i in range(600)]
        return [" ".join(rng.choice(words, 40)) for _ in range(n)]

    def test_cross_epoch_detection_superset_and_silence(self, ray_session,
                                                        tmp_path):
        rng = np.random.default_rng(7)
        others = self._distinct(rng, 6)
        sess = self._mk(tmp_path / "a")
        sess.process_epoch(0, {"docs": self._docs(
            [(1, self.DUP), (10, others[0]), (11, others[1])])})
        sess.process_epoch(1, {"docs": self._docs(
            [(2, self.DUP), (12, others[2]), (13, others[3])])})
        sess.process_epoch(2, {"docs": self._docs(
            [(3, self.DUP), (14, others[4]), (15, others[5])])})
        got = sess.sinks["pairs"].read_committed_table().to_pandas()
        pairs = set(zip(got["id_lo"], got["id_hi"]))
        # every identical pair detected (all bands collide: guaranteed)
        assert {(1, 2), (1, 3), (2, 3)} <= pairs
        # dissimilar docs never pair
        assert all(lo in (1, 2, 3) and hi in (1, 2, 3)
                   for lo, hi in pairs)
        sess.store.shutdown()

    def test_dataset_equals_table(self, ray_session, tmp_path):
        import ray.data as rd

        rng = np.random.default_rng(3)
        others = self._distinct(rng, 4)
        feeds = [self._docs([(1, self.DUP), (10, others[0]),
                             (11, others[1])]),
                 self._docs([(2, self.DUP), (12, others[2]),
                             (13, others[3])])]
        cols = ["epoch", "id_lo", "id_hi", "est"]
        outs = []
        for blocks in (0, 1, 4):
            sess = self._mk(tmp_path / f"d{blocks}")
            for e, f in enumerate(feeds):
                sess.process_epoch(e, {"docs": as_blocks(f, blocks)})
            outs.append(sess.sinks["nd"].read_committed_table().to_pandas()
                        [cols].sort_values(cols).reset_index(drop=True))
            sess.store.shutdown()
        for b in outs[1:]:
            pd.testing.assert_frame_equal(outs[0], b)

    def test_crash_resume_no_duplicate_pairs(self, ray_session, tmp_path):
        rng = np.random.default_rng(5)
        others = self._distinct(rng, 3)
        feeds = [self._docs([(1, self.DUP), (10, others[0])]),
                 self._docs([(2, self.DUP), (11, others[1])]),
                 self._docs([(3, self.DUP), (12, others[2])])]

        def run(root, crash_after=None):
            sess = self._mk(root)
            start = sess.resume()
            for e in range(start, 3):
                sess.process_epoch(e, {"docs": feeds[e]})
                if crash_after is not None and e == crash_after:
                    sess.store.shutdown()
                    return sess
            return sess

        run(tmp_path / "cr", crash_after=1)
        s2 = run(tmp_path / "cr")
        got = s2.sinks["pairs"].read_committed_table().to_pandas()
        assert sorted(zip(got["id_lo"], got["id_hi"])) == [
            (1, 2), (1, 3), (2, 3)]
        assert s2.sinks["pairs"].verify()
        s2.store.shutdown()

    def test_bucket_cap_drops_logged_but_members_still_found(
            self, ray_session, tmp_path):
        # cap=1: second identical doc compares against the first (pair
        # emitted) but is NOT retained; a third doc then only pairs with
        # the retained first
        sess = self._mk(tmp_path / "cap", bucket_cap=1)
        sess.process_epoch(0, {"docs": self._docs([(1, self.DUP)])})
        sess.process_epoch(1, {"docs": self._docs([(2, self.DUP)])})
        sess.process_epoch(2, {"docs": self._docs([(3, self.DUP)])})
        got = sess.sinks["pairs"].read_committed_table().to_pandas()
        assert sorted(zip(got["id_lo"], got["id_hi"])) == [(1, 2), (1, 3)]
        sess.store.shutdown()


class TestEarlyFiringTopK:
    def test_speculative_leaderboard(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _topk3_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        sess = StreamSession(tmp_path / "tk", num_shards=2)
        sess.add(KeyedAggregation(
            name="wt", input="e", key_cols=["g"], value_col="v",
            ts_col="ts", window=WindowSpec.tumbling(100.0),
            make_acc=MinMaxAgg.from_numpy, finalize=_topk3_finalize,
            aggs=(), early_firing=True))

        def t(vals):
            return pa.table({"g": pa.array([1] * len(vals), pa.int64()),
                             "v": pa.array([float(v) for v in vals]),
                             "ts": pa.array([5.0] * len(vals))})

        e0 = sess.process_epoch(0, {"e": t([10, 30, 20])})["wt__early"]
        assert e0["topk"].to_pylist() == ["30,20,10"]
        # a new max enters: previous leaderboard retracted, new added
        e1 = sess.process_epoch(1, {"e": t([99])})["wt__early"]
        got = sorted(zip(e1["diff"].to_pylist(), e1["topk"].to_pylist()))
        assert got == [(-1, "30,20,10"), (1, "99,30,20")]
        # a sub-top-3 value changes nothing visible
        e2 = sess.process_epoch(2, {"e": t([1])})["wt__early"]
        assert e2.num_rows == 0
        sess.store.shutdown()


class TestNearDupRetrySafety:
    def test_retried_apply_returns_identical_pairs(self):
        """A retried distributed group task re-calls the shard apply for
        the same epoch; it must get the SAME pairs back (its first result
        died with the failed task), not an empty replay."""
        import pickle as p

        from diffdataflowmlpipelines_ray.streaming.state_store import (
            StateShard)

        shard = StateShard(0, 1)
        sig_a = np.arange(64, dtype=np.uint64).tobytes()
        payload = p.dumps(
            [(b"bucket", [(1, sig_a), (2, sig_a)])],
            protocol=p.HIGHEST_PROTOCOL)
        first = shard.apply_neardup_offers("nd", 0, payload, 0.9, 64)
        again = shard.apply_neardup_offers("nd", 0, payload, 0.9, 64)
        assert first == again
        pairs, _ = p.loads(first)
        assert [(lo, hi) for lo, hi, _ in pairs] == [(1, 2)]
        # a LATER epoch's replay of an OLD epoch stays empty (sink owns it)
        shard.apply_neardup_offers("nd", 1, p.dumps(
            [(b"bucket", [(3, sig_a)])], protocol=p.HIGHEST_PROTOCOL),
            0.9, 64)
        stale = shard.apply_neardup_offers("nd", 0, payload, 0.9, 64)
        assert p.loads(stale) == ([], 0)


class TestRetractableStringAgg:
    def test_delete_removes_exact_copies(self):
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            _stringagg_finalize)
        from diffdataflowmlpipelines_ray.state.aggregates import MinMaxAgg

        acc = MinMaxAgg.from_numpy(np.array([3.0, 1.0, 3.0, 2.0]))
        assert _stringagg_finalize(acc) == {"agg": "1,2,3,3"}
        neg = MinMaxAgg.from_numpy(np.array([3.0]))
        neg.negate()
        acc.merge(neg)  # one copy of 3 retracts; the other stays
        assert _stringagg_finalize(acc) == {"agg": "1,2,3"}


class TestEnrichJoinVectorValues:
    """Feature-store pattern: EnrichJoin attaches EMBEDDING (list<float>)
    dim values to a stream — LWW registers hold vectors (array-safe since
    the cdc_ann work), updates and tombstones behave like scalar dims."""

    def test_embedding_enrichment_with_update_and_delete(self, ray_session,
                                                         tmp_path):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / "fe", num_shards=2)
        sess.add(EnrichJoin(
            name="en", dim_input="dim", stream_input="ev", key=["k"],
            dim_vals=["emb"], stream_cols=["x"],
            dim_types=[pa.list_(pa.float32())], dim_delete_col="del"))

        def dim(rows):
            ks, vecs, ts, dels = zip(*rows)
            return pa.table({
                "k": pa.array(ks, type=pa.int64()),
                "emb": pa.array([None if v is None else list(v)
                                 for v in vecs],
                                type=pa.list_(pa.float32())),
                "ts": pa.array([float(t) for t in ts]),
                "del": pa.array(list(dels))})

        def ev(ks):
            return pa.table({"k": pa.array(ks, type=pa.int64()),
                             "x": pa.array(range(len(ks)), pa.int64())})

        def committed(e):
            t = sess.sinks["en"].read_committed_table([e])
            return {k: v for k, v in zip(t["k"].to_pylist(),
                                         t["emb"].to_pylist())}

        v1, v2 = [1.0, 2.0, 3.0], [9.0, 8.0, 7.0]
        sess.process_epoch(0, {"dim": dim([(1, v1, 1.0, False)]),
                               "ev": ev([1, 2])})
        got = committed(0)
        assert got[1] == v1 and got[2] is None  # unmatched key → null vec
        # update the vector (later stamp): visible to the same epoch's events
        sess.process_epoch(1, {"dim": dim([(1, v2, 5.0, False)]),
                               "ev": ev([1])})
        assert committed(1) == {1: v2}
        # tombstone: the key reads as a miss again
        sess.process_epoch(2, {"dim": dim([(1, None, 9.0, True)]),
                               "ev": ev([1])})
        assert committed(2) == {1: None}
        sess.store.shutdown()


class TestWindowRollup:
    """Cascading window rollup as chained jobs: tier-1's exactly-once sink
    is the topic tier-2 tails; tier-2 watermark = tier-1 watermark − tier-1
    window size (frontier translation).  Pins the staged drain (tier 1
    flushes fully before tier 2 closes) and zero late drops."""

    def test_two_tier_equals_direct(self, ray_session, tmp_path):
        s1 = StreamSession(tmp_path / "c1", num_shards=2)
        s1.add(KeyedAggregation(name="t1", input="ev", key_cols=["k"],
                                value_col="v", ts_col="ts",
                                aggs=("count", "sum"),
                                window=WindowSpec.tumbling(10.0)))
        s2 = StreamSession(tmp_path / "c2", num_shards=2)
        s2.add(KeyedAggregation(name="t2", input="t1c", key_cols=["k"],
                                value_col="sum", ts_col="window_start",
                                aggs=("count", "sum"),
                                window=WindowSpec.tumbling(40.0)))
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0, 120, 300))
        vals = rng.integers(1, 5, 300).astype(np.float64)
        keys = [("ab")[i % 2] for i in range(300)]
        tbl = pa.table({"k": keys, "v": vals, "ts": ts})
        parts = [tbl.slice(0, 100), tbl.slice(100, 100), tbl.slice(200, 100)]
        for e, part in enumerate(parts):
            wm = float(np.max(part["ts"].to_numpy()))
            s1.process_epoch(e, {"ev": part}, watermark=wm)
            closed = s1.sinks["t1"].read_committed_table([e])
            s2.process_epoch(e, {"t1c": closed} if closed.num_rows else {},
                             watermark=wm - 10.0)
        s1.close(3)
        final = s1.sinks["t1"].read_committed_table([3])
        s2.process_epoch(3, {"t1c": final} if final.num_rows else {})
        s2.close(4)
        out = s2.sinks["t2"].read_committed_table().to_pandas()
        assert s2.metrics["late_dropped"] == 0
        # direct hour aggregation over the raw events
        pdf = tbl.to_pandas()
        pdf["ws"] = (pdf["ts"] // 40.0) * 40.0
        pdf["ms"] = (pdf["ts"] // 10.0) * 10.0
        direct = (pdf.groupby(["k", "ws"])
                  .agg(sum=("v", "sum"), count=("ms", "nunique"))
                  .reset_index())
        got = (out[["k", "window_start", "count", "sum"]]
               .sort_values(["k", "window_start"]).reset_index(drop=True))
        want = (direct.rename(columns={"ws": "window_start"})
                [["k", "window_start", "count", "sum"]]
                .sort_values(["k", "window_start"]).reset_index(drop=True))
        got["count"] = got["count"].astype(np.int64)
        want["count"] = want["count"].astype(np.int64)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        for s in (s1, s2):
            s.store.shutdown()


class TestEnrichBlockProbe:
    """probe_mode='block' (async-lookup enrich): events never move — each
    block fetches its own unique keys from the shards.  Must be result-
    identical to the shuffle plan on upserts, tombstones, misses and
    int-typed dim values."""

    def _run(self, tmp_path, mode, blocks=1):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        sess = StreamSession(tmp_path / f"ebp_{mode}{blocks}", num_shards=3)
        sess.add(EnrichJoin(name="en", dim_input="dim", stream_input="ev",
                            key=["uid"], dim_vals=["tier"],
                            stream_cols=["eid"], dim_ts="up_ts",
                            dim_types=[pa.int64()], dim_delete_col="del",
                            probe_mode=mode))
        rng = np.random.default_rng(11)
        out = []
        for e in range(3):
            uids = rng.integers(0, 40, 12)
            dim = pa.table({
                "uid": pa.array(uids, type=pa.int64()),
                "tier": pa.array(uids * 10 + e, type=pa.int64()),
                "up_ts": pa.array(np.full(12, float(e))),
                "del": pa.array(uids % 7 == e, type=pa.bool_()),
            })
            ev_uid = rng.integers(0, 50, 200)  # some keys never upserted
            ev = pa.table({
                "uid": pa.array(ev_uid, type=pa.int64()),
                "eid": pa.array(np.arange(200) + 1000 * e, type=pa.int64()),
            })
            sess.process_epoch(e, {"dim": dim, "ev": as_blocks(ev, blocks)})
            t = sess.sinks["en"].read_committed_table([e])
            out.extend(sorted(zip(t["eid"].to_pylist(),
                                  t["uid"].to_pylist(),
                                  [x if x is not None else -1
                                   for x in t["tier"].to_pylist()])))
        sess.store.shutdown()
        return out

    def test_block_equals_shuffle(self, ray_session, tmp_path):
        want = self._run(tmp_path, "shuffle")
        assert self._run(tmp_path, "block") == want
        assert self._run(tmp_path, "shuffle", 4) == want
        assert self._run(tmp_path, "block", 4) == want

    def test_validation(self, ray_session):
        from diffdataflowmlpipelines_ray.streaming.engine import EnrichJoin

        with pytest.raises(ValueError, match="probe_mode"):
            EnrichJoin(name="x", dim_input="d", stream_input="s",
                       key=["k"], dim_vals=["v"], probe_mode="bogus")


def test_session_route_late_equivalence(ray_session, tmp_path):
    """The session drop rule is exactly the fixed-offset test, so
    route_late(lateness=gap+allowed_lateness) reproduces the operator's
    late set bit-exactly: pre-split inputs leave late_dropped == 0 and
    the side sink holds exactly the rows the bare op would have
    dropped."""
    import numpy as np

    def mk(root):
        s = StreamSession(root, num_shards=2)
        s.add(SessionWindowAggregation(
            name="sw", input="ev", key_cols=["k"], ts_col="ts",
            gap=10.0, allowed_lateness=2.0))
        return s

    ep0 = pa.table({"k": pa.array([1, 1], type=pa.int64()),
                    "ts": pa.array([5.0, 40.0])})
    # at wm=40: late iff ts + 12 <= 40, i.e. ts <= 28
    ep1 = pa.table({"k": pa.array([1, 1, 1], type=pa.int64()),
                    "ts": pa.array([20.0, 28.0, 29.0])})

    bare = mk(tmp_path / "bare")
    bare.process_epoch(0, {"ev": ep0}, watermark=40.0)
    bare.process_epoch(1, {"ev": ep1}, watermark=60.0)
    dropped = bare.metrics["late_dropped"]
    bare_out = bare.sinks["sw"].read_committed_table().to_pandas()
    bare.store.shutdown()
    assert dropped == 2  # ts=20, ts=28

    routed = mk(tmp_path / "routed")
    routed.process_epoch(0, {"ev": ep0}, watermark=40.0)
    on_time = routed.route_late(1, {"ev": ep1}, {"ev": "ts"},
                                lateness=12.0)
    routed.process_epoch(1, on_time, watermark=60.0)
    late = routed.late_output("ev").to_pandas()
    routed_out = routed.sinks["sw"].read_committed_table().to_pandas()
    routed.store.shutdown()
    assert sorted(late["ts"].tolist()) == [20.0, 28.0]
    assert routed.metrics["late_dropped"] == 0
    key = sorted(bare_out.columns)
    a = bare_out[key].sort_values(key).reset_index(drop=True)
    b = routed_out[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


class TestCpuHeadroom:
    """Shard actors reserve fractional CPUs; a pool that leaves Ray less
    than one whole CPU would starve every per-block task, so it is refused
    up front."""

    def test_one_cpu_is_refused(self):
        from diffdataflowmlpipelines_ray.streaming.state_store import (
            check_cpu_headroom,
        )

        for shards in (1, 2):  # two shards at 0.25: the Dataset-epoch hang
            with pytest.raises(ValueError, match="num_cpus_per_shard"):
                check_cpu_headroom(1, shards, 0.25)
        check_cpu_headroom(2, 1, 0.25)  # one shard on two CPUs leaves 1.75
        check_cpu_headroom(1, 2, 0.0)   # shards that reserve nothing

    def test_store_checks_the_running_cluster(self, ray_session):
        import ray

        from diffdataflowmlpipelines_ray.streaming.state_store import (
            ShardedStateStore,
        )

        cpus = ray.cluster_resources()["CPU"]
        with pytest.raises(ValueError, match="num_cpus_per_shard"):
            ShardedStateStore(num_shards=int(cpus * 4), num_cpus_per_shard=0.25)


class TestDatasetEpochExchange:
    """Dataset epochs run through one shard exchange whose block summaries
    carry late counts and max event times, over blocks resolved once per
    epoch."""

    def test_changelog_dataset_epoch_counts_late_rows(self, ray_session,
                                                      tmp_path):
        on_time = pa.table({"u": [1], "ts": [25.0], "v": [1.0]})
        # ts=5: window [0,10) closed at watermark 20 → dropped, counted
        late = pa.table({"u": [1, 1], "ts": [5.0, 26.0], "v": [1.0, 1.0]})
        for blocks in (0, 1, 4):
            sess = StreamSession(tmp_path / f"efl{blocks}", num_shards=2)
            sess.add(KeyedAggregation(
                name="w", input="e", key_cols=["u"], value_col="v",
                ts_col="ts", aggs=("count",),
                window=WindowSpec.tumbling(10.0), early_firing=True))
            sess.process_epoch(0, {"e": as_blocks(on_time, blocks)},
                               watermark=20.0)
            sess.process_epoch(1, {"e": as_blocks(late, blocks)})
            sess.store.shutdown()
            assert sess.metrics["late_dropped"] == 1, blocks

    def test_dataset_join_advances_auto_watermark(self, ray_session,
                                                  tmp_path):
        left = pa.table({"k": [1, 2], "lv": [1.0, 2.0], "ts": [50.0, 100.0]})
        right = pa.table({"k": [1], "rv": [3.0], "ts": [60.0]})
        late_right = pa.table({"k": [1], "rv": [4.0], "ts": [101.0]})
        for blocks in (0, 1, 4):
            sess = StreamSession(tmp_path / f"jaw{blocks}", num_shards=2,
                                 auto_watermark_delay=5.0)
            sess.add(StreamJoin(name="j", left_input="l", right_input="r",
                                left_key=["k"], right_key=["k"],
                                left_cols=["lv"], right_cols=["rv"],
                                left_ts="ts", right_ts="ts", retention=10.0))
            sess.process_epoch(0, {"l": as_blocks(left, blocks),
                                   "r": as_blocks(right, blocks)})
            assert sess.watermark == 95.0, blocks
            # the advance expired the left row at ts 50 (< 95 − 10): the
            # next epoch's right row for key 1 finds nothing to match
            sess.process_epoch(1, {"r": as_blocks(late_right, blocks)})
            assert sess.watermark == 96.0, blocks
            matches = sess.sinks["j"].read_committed_table()
            sess.store.shutdown()
            assert matches["rv"].to_pylist() == [3.0], blocks

    def test_shared_lazy_input_runs_once_per_epoch(self, ray_session,
                                                   tmp_path):
        import uuid

        calls = tmp_path / "calls"
        calls.mkdir()

        def udf(t):
            (calls / uuid.uuid4().hex).touch()
            return t

        tbl = events_table(50)
        sess = StreamSession(tmp_path / "lazy", num_shards=2)
        for name in ("a", "b"):
            sess.add(KeyedAggregation(name=name, input="e",
                                      key_cols=["user_id"],
                                      value_col="value", aggs=("count",)))
        for e in range(2):
            sess.process_epoch(e, {"e": rd.from_arrow(tbl).map_batches(
                udf, batch_size=None, batch_format="pyarrow")})
            assert len(list(calls.iterdir())) == e + 1
        for name in ("a", "b"):  # both ops saw every row of both epochs
            assert sum(sess.state_table(name)["count"].to_pylist()) == 100
        sess.store.shutdown()
