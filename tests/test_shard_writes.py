"""The shards write their own epoch output and snapshot: every
``StateShard.step`` request is its own actor-call argument, row-emitting
kernels reply with manifest entries only, the snapshot lands in the
checkpoint dir from the shard, and replays never rewrite what a manifest or
a complete checkpoint already holds.  Also the duplicate-advance guard,
which only checks sinks that a sweep commits."""

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from diffdataflowmlpipelines_ray.streaming.arrangement import (Rows,
                                                               arrow_key_hash)
from diffdataflowmlpipelines_ray.streaming.engine import (
    IncrementalComponents,
    KeyedAggregation,
    StreamJoin,
    StreamSession,
    UpsertToRetract,
)
from diffdataflowmlpipelines_ray.streaming.sink import write_shard_file
from diffdataflowmlpipelines_ray.streaming.state_store import Emit, StateShard

from test_epoch_step import EPOCHS, canon, epoch_inputs, session, watermark


def data_files(sink, epoch: int) -> dict:
    """{name: bytes} of every file in the sink's epoch dir."""
    d = sink.root / "data" / f"epoch={epoch:08d}"
    return {p.name: p.read_bytes() for p in d.glob("*.parquet")}


# ------------------------------------------------------------- transport
class _Recorder:
    """Stands in for a shard actor handle: records each ``step.remote``
    call's positional arguments and forwards it."""

    def __init__(self, handle, calls: list):
        self._handle, self._calls = handle, calls

    @property
    def step(self):
        handle, calls = self._handle, self._calls

        class _Method:
            @staticmethod
            def remote(*args):
                calls.append(args)
                return handle.step.remote(*args)
        return _Method


def test_each_request_is_its_own_argument(ray_session, tmp_path):
    sess = session(tmp_path / "a", checkpoint_every=1)
    calls: list = []
    sess.store.shards = [_Recorder(h, calls) for h in sess.store.shards]
    sess.process_epoch(0, epoch_inputs(0), watermark=watermark(0))
    sess.store.shards = [r._handle for r in sess.store.shards]
    sess.store.shutdown()
    assert len(calls) == 2  # one call per shard
    for epoch, snapshot, *requests in calls:
        assert epoch == 0
        assert snapshot == str(sess.chk.epoch_dir(0))
        # window apply, join probe, window sweep, join expiry: each a
        # (kernel, name, args, emit) argument of its own
        assert [r[0] for r in requests] == [
            "apply_window_partials", "join_insert_probe", "sweep_windows",
            "join_expire"]
        assert all(isinstance(r, tuple) and len(r) == 4 for r in requests)
        emits = {r[0]: r[3] for r in requests}
        assert emits["join_insert_probe"].root == str(sess.sinks["j"].root)
        assert emits["sweep_windows"].root == str(sess.sinks["win"].root)
        assert emits["apply_window_partials"] is None
        assert emits["join_expire"] is None


def _join_rows(keys, ts0: float, id_col: str = "eid") -> Rows:
    """One join side's rows: key ``k``, a row id, event time ``ts0``."""
    k = np.asarray(keys, dtype=np.int64)
    tbl = pa.table({"k": k, id_col: np.arange(len(k), dtype=np.int64)})
    h = arrow_key_hash(tbl, ["k"])
    return Rows(tbl, ["k"], h, np.full(len(k), ts0),
                np.ones(len(k), dtype=np.int64)).sorted()


def test_reply_does_not_grow_with_matches(tmp_path):
    """A step's pickled reply carries the part's entry, not its rows: ten
    times the matches leave it the same size."""
    op = StreamJoin(name="j", left_input="l", right_input="r",
                    left_key=["k"], right_key=["k"], left_cols=["eid"],
                    right_cols=["rid"])
    emit = Emit(op.matches_to_table, str(tmp_path / "j"), False)
    base = op.payload_base()
    shard = StateShard(0, 1)

    def reply_size(epoch: int, n_right: int) -> tuple[int, int]:
        payload = {**base, "left": _join_rows(np.arange(200) % 20, 1.0),
                   "right": _join_rows(np.arange(n_right) % 20, 1.0, "rid")}
        reply = shard.step(epoch, None,
                           ("join_insert_probe", "j", (payload,), emit))
        return len(pickle.dumps(reply)), reply["out"][0]["rows"]

    small, n_small = reply_size(0, 20)
    big, n_big = reply_size(1, 200)
    assert n_big >= 10 * n_small > 0
    assert big <= small + 16  # only the numbers' widths may differ


def test_stats_report_written_bytes(ray_session, tmp_path):
    sess = session(tmp_path / "b", checkpoint_every=1)
    sess.checkpoint_keep = EPOCHS + 1
    for e in range(EPOCHS):
        sess.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    st = sess.stats()["store"]
    sess.store.shutdown()
    parts = sum((s.root / f["path"]).stat().st_size
                for s in sess.sinks.values() for e in s.committed_epochs()
                for f in s.manifest(e)["files"]
                if f["path"].split("/")[-1].startswith("part-s"))
    snaps = sum(p.stat().st_size
                for p in sess.chk.root.glob("epoch-*/shard-*.bin"))
    assert st["part_bytes"] == parts > 0
    assert st["snapshot_bytes"] == snaps > 0


# ------------------------------------------------------------- replays
def test_replay_never_rewrites_a_committed_part(ray_session, tmp_path):
    """Epochs whose sinks committed after the last checkpoint replay on
    resume without writing: the committed parts keep their bytes and no
    new file appears."""
    root = tmp_path / "r"
    sess = session(root, checkpoint_every=2)
    for e in range(2):
        sess.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    sess.store.shutdown()  # crash: epoch 1 committed, checkpoint at 0
    before = {n: data_files(s, 1) for n, s in sess.sinks.items()}
    assert all(before.values())

    resumed = session(root, checkpoint_every=2)
    assert resumed.resume() == 1
    out = resumed.process_epoch(1, epoch_inputs(1), watermark=watermark(1))
    resumed.store.shutdown()
    assert {n: data_files(s, 1) for n, s in resumed.sinks.items()} == before
    # the replay still publishes the committed rows
    for name, sink in resumed.sinks.items():
        assert canon(out[name]) == canon(sink.read_committed_table([1]))


def test_crash_between_part_write_and_commit(ray_session, tmp_path):
    """A crash after the shards wrote their parts but before the manifest
    commit resumes to the same committed output as a clean run: the
    retry's parts get new tags and the strays stay unlisted."""
    root = tmp_path / "c"
    sess = session(root, checkpoint_every=1)
    commit = sess.sinks["j"].commit_files

    def failing(epoch, *a, **k):
        if epoch == 2:
            raise OSError("power loss")
        return commit(epoch, *a, **k)

    sess.sinks["j"].commit_files = failing
    with pytest.raises(OSError):
        for e in range(EPOCHS):
            sess.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    sess.store.shutdown()
    strays = set(data_files(sess.sinks["j"], 2))
    assert strays and not sess.sinks["j"].is_committed(2)

    resumed = session(root, checkpoint_every=1)
    start = resumed.resume()
    assert start == 2
    for e in range(start, EPOCHS):
        resumed.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    resumed.close()
    clean = session(tmp_path / "clean", checkpoint_every=1)
    for e in range(EPOCHS):
        clean.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    clean.close()
    listed = {f["path"].split("/")[-1]
              for f in resumed.sinks["j"].manifest(2)["files"]}
    assert listed and not listed & strays
    for name in ("win", "j"):
        assert canon(resumed.sinks[name].read_committed_table()) == \
            canon(clean.sinks[name].read_committed_table())
        assert resumed.sinks[name].verify()


def test_snapshot_never_overwrites_a_complete_checkpoint(ray_session,
                                                         tmp_path):
    """The shard writer refuses a complete checkpoint's dir; taking an
    epoch's checkpoint again first withdraws its marker, so a crash before
    the new marker falls back to the checkpoint before it."""
    sess = session(tmp_path / "k", checkpoint_every=1)
    for e in range(2):
        sess.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
    d0, d1 = sess.chk.epoch_dir(0), sess.chk.epoch_dir(1)
    files0 = {p.name: p.read_bytes() for p in d0.iterdir()}
    assert write_shard_file(d1, 0, b"other") is None
    assert (d1 / "shard-0000.bin").read_bytes() != b"other"

    def failing(*a, **k):
        raise OSError("power loss")

    sess.chk.save = failing
    with pytest.raises(OSError):
        sess.checkpoint(1)
    sess.store.shutdown()
    assert not (d1 / "DONE").exists()
    assert sess.chk.latest() == 0
    assert {p.name: p.read_bytes() for p in d0.iterdir()} == files0


def test_epoch_without_matches_commits_typed_columns(ray_session, tmp_path):
    sess = session(tmp_path / "e", checkpoint_every=0)
    ev = pa.table({"k": [1, 2], "ts": [1.0, 2.0], "v": [1.0, 2.0],
                   "eid": [1, 2]})
    ref = pa.table({"k": [7], "rts": [1.5], "rid": [9]})
    out = sess.process_epoch(0, {"ev": ev, "ref": ref}, watermark=-1.0)
    sess.store.shutdown()
    j = sess.sinks["j"]
    files = j.manifest(0)["files"]
    assert len(files) == 1 and files[0]["rows"] == 0
    schema = pq.read_schema(j.root / files[0]["path"])
    assert {f.name: f.type for f in schema} == {
        "k": pa.int64(), "eid": pa.int64(), "rid": pa.int64(),
        "diff": pa.int64(), "epoch": pa.int64()}
    assert out["j"].num_rows == 0 and out["j"].schema.equals(schema,
                                                             False)


# ------------------------------------------------------------- join rows
def test_join_rows_pickle_without_implied_columns():
    rows = _join_rows(np.arange(50) % 7, 3.0)
    state = rows.__getstate__()
    assert state[4] is None and state[5] is None  # all-ones diff, unmatched
    back = pickle.loads(pickle.dumps(rows))
    assert back.tbl.equals(rows.tbl) and back.key_names == rows.key_names
    for a in ("h", "ts", "diff", "matched"):
        assert np.array_equal(getattr(back, a), getattr(rows, a))
    assert back.diff.dtype == np.int64 and back.matched.dtype == bool
    # a retraction and a matched row travel as they are
    rows.diff[3], rows.matched[5] = -1, True
    back = pickle.loads(pickle.dumps(rows))
    assert np.array_equal(back.diff, rows.diff)
    assert np.array_equal(back.matched, rows.matched)
    assert len(pickle.dumps(_join_rows(np.arange(50) % 7, 3.0))) < \
        len(pickle.dumps(rows))


# ------------------------------------------------- duplicate-advance guard
@pytest.mark.parametrize("op,row", [
    (KeyedAggregation(name="c", input="ev", key_cols=["k"], value_col="v",
                      emit_changelog=True),
     {"k": [1], "v": [2.0]}),
    (UpsertToRetract(name="c", input="ev", key=["k"], vals=["v"],
                     key_types=[pa.int64()], val_types=[pa.float64()]),
     {"k": [1], "v": [2.0], "ts": [1.0]}),
    (IncrementalComponents(name="c", input="ev"),
     {"id_lo": [1], "id_hi": [2]}),
], ids=["emit_changelog", "upsert_to_retract", "components"])
def test_in_epoch_commit_is_not_a_sweep(ray_session, tmp_path, op, row):
    """An op that commits its own sink during the epoch does not trip the
    duplicate-advance guard when the same call advances the watermark."""
    sess = StreamSession(tmp_path / "g", num_shards=1)
    sess.add(op)
    out = sess.process_epoch(0, {"ev": pa.table(row)}, watermark=5.0)
    assert out["c"].num_rows > 0
    sess.close()
    assert sess.sinks["c"].is_committed(0)
