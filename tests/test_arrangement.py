"""Columnar arrangements (``streaming/arrangement.py``): the shard state of
windowed aggregates and the stream join, plus the engine surfaces around
them — typed empty emissions, the Arrow event-time max, the O(closed
windows) sweep, hash collisions and checkpoints this engine cannot load
(pre-columnar state, as-of join buffers)."""

import math
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from diffdataflowmlpipelines_ray.state.aggregates import SumCountAgg
from diffdataflowmlpipelines_ray.streaming.arrangement import (
    Partials, Slab, WindowArrangement, arrow_key_hash, key_hash)
from diffdataflowmlpipelines_ray.streaming.engine import (
    KeyedAggregation, StreamJoin, StreamSession, WindowSpec, _block_max_ts,
    _ts_to_float)
from diffdataflowmlpipelines_ray.streaming.sink import (CheckpointManager,
                                                      write_shard_file)
from diffdataflowmlpipelines_ray.streaming.state_store import StateShard


def win_op(**kw):
    return KeyedAggregation(name="win", input="ev", key_cols=["k"],
                            value_col="v", ts_col="ts", aggs=("count", "sum"),
                            window=WindowSpec.tumbling(10.0), **kw)


def join_op():
    return StreamJoin(name="j", left_input="ev", right_input="ref",
                      left_key=["k"], right_key=["k"], left_cols=["eid"],
                      right_cols=["rid"], left_ts="ts", right_ts="rts",
                      retention=20.0)


def ev(rows):  # (k, ts, v, eid)
    k, ts, v, eid = zip(*rows)
    return pa.table({"k": pa.array(k, pa.int64()),
                     "ts": pa.array(ts, pa.float64()),
                     "v": pa.array(v, pa.float64()),
                     "eid": pa.array(eid, pa.int64())})


def ref(rows):  # (k, rts, rid)
    k, rts, rid = zip(*rows)
    return pa.table({"k": pa.array(k, pa.int64()),
                     "rts": pa.array(rts, pa.float64()),
                     "rid": pa.array(rid, pa.int64())})


class TestTypedEmptyEmissions:
    def test_epoch_without_output_commits_typed_parts(self, ray_session,
                                                      tmp_path):
        """Epoch 0 closes no window and finds no join match; epoch 1 closes
        [0, 10) and matches.  Every committed part carries the typed
        schema, so the sink directories read as one dataset."""
        s = StreamSession(tmp_path / "s", num_shards=2)
        s.add(win_op())
        s.add(join_op())
        s.process_epoch(0, {"ev": ev([(1, 2.0, 5.0, 10)]),
                            "ref": ref([(2, 3.0, 20)])}, watermark=5.0)
        s.process_epoch(1, {"ev": ev([(2, 12.0, 7.0, 11)]),
                            "ref": ref([(1, 13.0, 21)])}, watermark=15.0)
        s.store.shutdown()
        win = pq.read_table(tmp_path / "s" / "win" / "data",
                            partitioning=None)
        assert win.schema.field("k").type == pa.int64()
        assert win.schema.field("count").type == pa.int64()
        assert win.schema.field("sum").type == pa.float64()
        assert win.to_pylist() == [
            {"k": 1, "window_start": 0.0, "window_end": 10.0, "count": 1,
             "sum": 5.0, "epoch": 1}]
        j = pq.read_table(tmp_path / "s" / "j" / "data", partitioning=None)
        assert not any(pa.types.is_null(f.type) for f in j.schema)
        assert sorted(map(tuple, j.select(["k", "eid", "rid", "diff"])
                          .to_pandas().to_numpy().tolist())) == [
            (1, 10, 21, 1), (2, 11, 20, 1)]


class TestBlockMaxTs:
    @staticmethod
    def pandas_rule(tbl, col):
        """The rule ``_block_max_ts`` must keep: pandas conversion, then
        ``_ts_to_float``, then the max."""
        if not tbl.num_rows:
            return -math.inf
        return float(_ts_to_float(tbl.select([col]).to_pandas()[col]).max())

    @pytest.mark.parametrize("arr", [
        pa.array([3.25, -1.5, 7.75]),
        pa.array([5, -2, 40], type=pa.int64()),
        pa.array([1_700_000_000_123_456, 5, 1_699_999_999_000_001],
                 type=pa.timestamp("us")),
        pa.array([1_700_000_000_123_456_789, -5_000_000_001,
                  1_700_000_000_123_456_001], type=pa.timestamp("ns")),
        pa.chunked_array([pa.array([1.0, 9.5]), pa.array([4.0])]),
        pa.chunked_array([pa.array([7], type=pa.timestamp("ns")),
                          pa.array([1_000_000_999], type=pa.timestamp("ns"))]),
        pa.array([], type=pa.float64()),
        pa.array([], type=pa.timestamp("us")),
    ])
    def test_matches_pandas_rule(self, arr):
        tbl = pa.table({"ts": arr})
        assert _block_max_ts(tbl, "ts") == self.pandas_rule(tbl, "ts")

    def test_missing_column_is_minus_inf(self):
        assert _block_max_ts(pa.table({"x": [1.0]}), "ts") == -math.inf
        assert _block_max_ts(pa.table({"x": [1.0]}), None) == -math.inf


KEY_COLUMNS = {
    "int64": pa.array([3, 1, 3, -7, 0], pa.int64()),
    "float64_nan": pa.array([1.5, float("nan"), None, -0.0, 1.5]),
    "string_none": pa.array(["a", None, "", "a", "é"]),
    "bool": pa.array([True, False, True, True, False]),
    "bool_none": pa.array([True, None, False, True, None]),
    "timestamp_us": pa.array([1, None, 2_000_000, 1, -5],
                             pa.timestamp("us")),
    "nullable_int": pa.array([4, None, 4, 2**40, None], pa.int64()),
}


class TestKeyHash:
    """``key_hash`` is persisted: window slabs checkpoint it and
    ``rescale_blobs`` re-splits by it, so it must stay bit-identical to
    ``hash_pandas_object(frame, index=False)`` of the key columns as
    ``to_pandas`` converts them."""

    @pytest.mark.parametrize("names", [[n] for n in KEY_COLUMNS] + [
        ["string_none", "int64"], ["nullable_int", "bool_none"],
        ["int64", "string_none", "timestamp_us"],
        ["float64_nan", "bool", "string_none"]], ids="+".join)
    @pytest.mark.parametrize("rows", [5, 0])
    def test_matches_hash_pandas_object(self, names, rows):
        import pandas as pd

        tbl = pa.table({n: KEY_COLUMNS[n] for n in names}).slice(0, rows)
        df = tbl.to_pandas()
        want = pd.util.hash_pandas_object(df, index=False).to_numpy()
        assert want.dtype == np.uint64 and len(want) == rows
        assert np.array_equal(arrow_key_hash(tbl, names), want)
        assert np.array_equal(key_hash([df[n].values for n in names]), want)
        assert np.array_equal(
            key_hash([df[n].to_numpy() for n in names]), want)

    def test_object_datetimes_hash_as_a_frame_column(self):
        """An object column of datetimes hashes as the datetime64 column
        a frame built from it holds."""
        import pandas as pd

        col = pd.Series(pd.to_datetime([1, 2, None], unit="s", utc=True)
                        ).to_numpy()
        assert col.dtype == object
        want = pd.util.hash_pandas_object(pd.DataFrame({"t": col}),
                                          index=False).to_numpy()
        assert np.array_equal(key_hash([col]), want)

    def test_null_key_hashes_alike_in_every_block(self):
        """A null key keeps one hash whatever else its block holds, so its
        window keeps one slot: an epoch whose only key is null adds to the
        slot of an epoch that also held ``"a"``."""
        op = KeyedAggregation(name="win", input="ev", key_cols=["k"],
                              value_col="v", ts_col="ts",
                              aggs=("count", "sum"),
                              window=WindowSpec.tumbling(10.0))
        blocks = [pa.table({"k": pa.array(k, pa.string()), "ts": ts,
                            "v": v})
                  for k, ts, v in ((["a", None], [1.0, 2.0], [1.0, 2.0]),
                                   ([None], [3.0], [4.0]))]
        arr = WindowArrangement([pa.string()], obj=False)
        for b in blocks:
            arr.apply(op.partial_batch(b, -math.inf)[0])
        out = op.rows_to_table([arr.sweep(10.0)], 0).to_pylist()
        assert sorted((r["k"] or "", r["count"], r["sum"]) for r in out) \
            == [("", 2, 6.0), ("a", 1, 1.0)]


class TestJoinRoute:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_side_shards_match_a_hash_pandas_object_route(self, num_shards):
        """Each shard's ``Rows``: the rows whose ``hash_pandas_object`` key
        hash falls on it, in hash order (stable), with their hash, carried
        columns, event time and diff."""
        import pandas as pd

        rng = np.random.default_rng(num_shards)
        n = 200
        tbl = pa.table({
            "c": pa.array(rng.choice(["x", "y", "z"], n).tolist(),
                          mask=rng.random(n) < 0.2),
            "k": pa.array(rng.integers(0, 9, n), pa.int64()),
            "ts": rng.uniform(0, 50, n),
            "eid": np.arange(n, dtype=np.int64),
            "diff": rng.choice([1, -1], n),
        })
        op = StreamJoin(name="j", left_input="ev", right_input="ref",
                        left_key=["c", "k"], right_key=["c", "k"],
                        left_cols=["eid"], right_cols=["rid"],
                        left_ts="ts", right_ts="rts")
        got = op.side_shards(tbl, "left", num_shards)
        h = pd.util.hash_pandas_object(tbl.select(["c", "k"]).to_pandas(),
                                       index=False).to_numpy()
        order = np.argsort(h, kind="stable")
        shard = h[order] % np.uint64(num_shards)
        assert sorted(got) == sorted(np.unique(shard).tolist())
        for sid, rows in got.items():
            idx = order[shard == sid]
            assert np.array_equal(rows.h, h[idx])
            assert rows.tbl.equals(tbl.select(["c", "k", "eid"]).take(idx))
            assert np.array_equal(rows.ts, tbl["ts"].to_numpy()[idx])
            assert np.array_equal(rows.diff, tbl["diff"].to_numpy()[idx])
            assert rows.key_names == ["c", "k"]


def partials(keys, ends, s, size=10.0):
    keys = np.asarray(keys, dtype=np.int64)
    end = np.asarray(ends, dtype=np.float64)
    return Partials([keys], [pa.int64()], key_hash([keys]),
                    end - size, end, np.asarray(s, dtype=np.float64),
                    np.ones(len(keys), dtype=np.int64))


class TestSweepTouchesClosedWindowsOnly:
    def test_open_slabs_are_untouched(self, monkeypatch):
        """One closed window beside 50 open windows of 2000 keys each: the
        sweep reads the closed slab only and leaves every open slab the
        very same object with the very same columns — live keys do not
        enter the sweep's cost."""
        arr = WindowArrangement([pa.int64()], obj=False)
        n_keys = 2000
        for w in range(51):
            keys = np.arange(n_keys)
            arr.apply(partials(keys, np.full(n_keys, 10.0 * (w + 1)),
                               np.ones(n_keys)))
        open_slabs = {e: (sl, sl.h, sl.keys[0], sl.s, sl.c, sl.index)
                      for e, sl in arr.slabs.items() if e > 10.0}
        read = []
        for meth in ("rows", "live_rows", "identity", "locate", "take"):
            orig = getattr(Slab, meth)

            def spy(self, *a, _orig=orig, **k):
                read.append(id(self))
                return _orig(self, *a, **k)
            monkeypatch.setattr(Slab, meth, spy)
        closed = arr.slabs[10.0]
        out = arr.sweep(10.0)
        monkeypatch.undo()
        assert len(out) == n_keys and set(out.end) == {10.0}
        assert set(read) == {id(closed)}
        assert set(arr.slabs) == set(open_slabs)
        for e, (sl, h, k, s, c, index) in open_slabs.items():
            assert arr.slabs[e] is sl
            assert sl.h is h and sl.keys[0] is k and sl.s is s and sl.c is c
            assert sl.index is index and len(index) == n_keys


class TestSlabCollisions:
    def test_distinct_keys_with_equal_hash_get_own_slots(self):
        """Force a 64-bit collision: two keys, one hash.  The key-value check
        gives each its own slot, through apply, a checkpoint round trip and
        a later apply."""
        keys = np.array([7, 8, 7], dtype=np.int64)
        h = np.full(3, 12345, dtype=np.uint64)
        p = Partials([keys], [pa.int64()], h, np.zeros(3), np.full(3, 10.0),
                     np.array([1.0, 2.0, 4.0]), np.ones(3, dtype=np.int64))
        arr = WindowArrangement([pa.int64()], obj=False)
        arr.apply(p)
        arr = pickle.loads(pickle.dumps(arr))
        arr.apply(p.take(np.array([1])))
        out = arr.sweep(10.0)
        got = sorted(zip(out.keys[0].tolist(), out.s.tolist(),
                         out.c.tolist()))
        assert got == [(7, 5.0, 2), (8, 4.0, 2)]


class TestChangelogIdentity:
    def test_retraction_to_identity_emits_only_the_retraction(self):
        """Early firing: a window whose key nets back to the identity leaves
        the speculative set (−1, no +1), exactly as a key absent before."""
        op = win_op(weight_col="w", early_firing=True)
        shard = StateShard(0, 1)
        t0 = ev([(1, 2.0, 5.0, 0)]).append_column("w", pa.array([1]))
        t1 = ev([(1, 2.0, 5.0, 0)]).append_column("w", pa.array([-1]))
        rows = []
        for e, t in enumerate((t0, t1)):
            part, _ = op.partial_batch(t, -math.inf)
            out = shard.apply_window_partials("win", e, part, changelog=True)
            rows += op.changelog_to_table([out], e).select(
                ["k", "count", "sum", "diff"]).to_pylist()
        assert rows == [{"k": 1, "count": 1, "sum": 5.0, "diff": 1},
                        {"k": 1, "count": 1, "sum": 5.0, "diff": -1}]
        assert shard.stats()["agg_keys"] == {"win": 0}


class TestLegacyCheckpoint:
    @pytest.mark.parametrize("family,state,op", [
        ("aggs", {"win": {pickle.dumps((1, 0.0, 10.0)): SumCountAgg(1.0, 1)}},
         win_op),
        ("joins", {"j": {"left": object(), "right": None,
                         "lk": ["k"], "rk": ["k"]}}, join_op),
        # buffers of the removed as-of join, under the name of a kept op
        ("asof", {"win": {"left": object(), "right": None,
                          "lk": ["k"], "rk": ["k"]}}, win_op),
    ])
    def test_resume_names_the_op(self, ray_session, tmp_path, family, state,
                                 op):
        """A checkpoint holding a ported op's state in the per-key format,
        or the buffers of the removed as-of join, refuses to resume (it
        must not load as empty state)."""
        blob = {"shard_id": 0, "aggs": {}, "sessions": {}, "joins": {},
                "applied": {}}
        blob[family] = state
        if family in ("joins", "asof"):
            import pandas as pd

            state[op().name]["left"] = pd.DataFrame({"k": [1],
                                                     "__ts_left": [1.0]})
        chk = CheckpointManager(tmp_path / "s" / "_checkpoints")
        write_shard_file(chk.epoch_dir(0), 0, pickle.dumps(blob))
        chk.save(0, [0], extra={"watermark": 0.0})
        s = StreamSession(tmp_path / "s", num_shards=1)
        s.add(op())
        try:
            with pytest.raises(ValueError, match=f"'{op().name}'"):
                s.resume()
        finally:
            s.store.shutdown()
