"""Group-commit (sync_every) sink semantics, and the encoder session on it.

The durability contract under test (sink.py ExactlyOnceParquetSink
docstring): with ``sync_every=K`` commits defer fsyncs to one barrier per K
epochs; the barrier durably records a watermark; on reopen every epoch above
the watermark is verified (manifest parses, every file matches its recorded
sha256/size) and the suffix from the first failure is dropped — the
surviving sink is a consistent prefix that exactly-once replay extends.
"""

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from diffdataflowmlpipelines_ray.streaming import sink as sink_mod
from diffdataflowmlpipelines_ray.streaming.encoders import (
    IncrementalEncoderSession,
)
from diffdataflowmlpipelines_ray.streaming.sink import (
    ExactlyOnceParquetSink,
    write_epoch_part,
)
from diffdataflowmlpipelines_ray.stages.encoders import (
    OrdinalEncoder,
    StandardScaler,
)


def _tbl(e: int, n: int = 5) -> pa.Table:
    return pa.table({"row_id": np.arange(e * 100, e * 100 + n),
                     "v": np.arange(n, dtype=np.float64) + e})


def test_group_commit_watermark_advances(tmp_path):
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    wm = tmp_path / "s" / "_manifests" / "_durable.json"
    for e in range(3):
        sink.commit_tables(e, [_tbl(e)])
    assert not wm.exists()  # no barrier yet
    sink.commit_tables(3, [_tbl(3)])  # 4th commit → barrier
    assert json.loads(wm.read_text())["epoch"] == 3
    sink.commit_tables(4, [_tbl(4)])
    assert json.loads(wm.read_text())["epoch"] == 3  # pending again
    sink.sync()  # explicit barrier
    assert json.loads(wm.read_text())["epoch"] == 4
    assert sink.committed_epochs() == [0, 1, 2, 3, 4]
    assert sink.read_committed_table().num_rows == 25


def test_group_commit_idempotent_replay(tmp_path):
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=3)
    for e in range(5):
        sink.commit_tables(e, [_tbl(e)])
    m1 = sink.manifest(2)
    m2 = sink.commit_tables(2, [_tbl(2)])  # replay is a no-op
    assert m1 == m2
    assert sink.read_committed_table().num_rows == 25


def test_recovery_drops_torn_suffix(tmp_path):
    """Power-loss simulation: epochs above the watermark with torn data are
    dropped on reopen, and the drop is a suffix (ordering invariant)."""
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    for e in range(6):  # barrier at e=3; epochs 4,5 unsynced
        sink.commit_tables(e, [_tbl(e)])
    # tear epoch 4's data file (what an unflushed page could look like)
    f4 = tmp_path / "s" / sink.manifest(4)["files"][0]["path"]
    f4.write_bytes(f4.read_bytes()[:10])
    del sink
    re = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    # epoch 4 torn → 4 AND 5 dropped (suffix), 0..3 intact
    assert re.committed_epochs() == [0, 1, 2, 3]
    assert re.read_committed_table().num_rows == 20
    # exactly-once replay simply re-commits the dropped epochs
    for e in (4, 5):
        re.commit_tables(e, [_tbl(e)])
    assert re.read_committed_table().num_rows == 30


def test_recovery_keeps_verified_suffix_and_advances_watermark(tmp_path):
    """Intact epochs above the watermark survive reopen, get fsynced, and
    the watermark advances over them (no later overclaim)."""
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    for e in range(6):
        sink.commit_tables(e, [_tbl(e)])
    del sink  # crash without barrier: epochs 4,5 intact but unsynced
    re = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    assert re.committed_epochs() == [0, 1, 2, 3, 4, 5]
    wm = tmp_path / "s" / "_manifests" / "_durable.json"
    assert json.loads(wm.read_text())["epoch"] == 5


def test_recovery_torn_manifest(tmp_path):
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=8)
    for e in range(3):
        sink.commit_tables(e, [_tbl(e)])
    sink.sync()
    for e in (3, 4):
        sink.commit_tables(e, [_tbl(e)])
    # torn manifest JSON for epoch 3 (deferred fsync never ran)
    (tmp_path / "s" / "_manifests" / "epoch-00000003.json").write_text("{\"ep")
    del sink
    re = ExactlyOnceParquetSink(tmp_path / "s", sync_every=8)
    assert re.committed_epochs() == [0, 1, 2]


def test_sync_every_one_unchanged(tmp_path):
    """Default mode writes no watermark and never defers."""
    sink = ExactlyOnceParquetSink(tmp_path / "s")
    for e in range(3):
        sink.commit_tables(e, [_tbl(e)])
    assert not (tmp_path / "s" / "_manifests" / "_durable.json").exists()
    assert sink.committed_epochs() == [0, 1, 2]


def test_session_group_commit_matches_default(tmp_path, ray_session):
    """Group commit with sparse checkpoints produces byte-identical encoded
    output to the default durable configuration."""
    rng = np.random.default_rng(7)
    epochs = []
    for e in range(12):
        n = 40
        epochs.append(pa.table({
            "row_id": np.arange(e * 1000, e * 1000 + n),
            "cat": np.array([str(int(x)) for x in rng.integers(0, 9, n)]),
            "x": rng.normal(0.0, 2.0, n),
        }))
    outs = {}
    for label, kw in (("base", {}),
                      ("group", {"sync_every": 8, "checkpoint_every": 10})):
        sess = IncrementalEncoderSession(
            [("cat", OrdinalEncoder()), ("x", StandardScaler())],
            tmp_path / label, num_shards=1, **kw)
        outs[label] = [sess.process_epoch(e, t)
                       for e, t in enumerate(epochs)]
        sess.close()
    for a, b in zip(outs["base"], outs["group"]):
        assert a.equals(b)


def test_session_group_commit_resume(tmp_path, ray_session):
    """Kill between barriers: resume replays only uncommitted epochs and
    converges to the same sink contents."""
    cfg = [("cat", OrdinalEncoder())]
    rng = np.random.default_rng(3)

    def mk(e):
        return pa.table({
            "row_id": np.arange(e * 100, e * 100 + 20),
            "cat": np.array([str(int(x)) for x in rng.integers(0, 5, 20)]),
        })

    epochs = [mk(e) for e in range(9)]
    root = tmp_path / "sess"
    sess = IncrementalEncoderSession(cfg, root, num_shards=1, sync_every=4,
                                     checkpoint_every=2)
    for e in range(6):
        sess.process_epoch(e, epochs[e])
    sess.store.shutdown()  # crash: no close(), no final barrier

    sess2 = IncrementalEncoderSession(cfg, root, num_shards=1, sync_every=4,
                                      checkpoint_every=2)
    start = sess2.resume()
    assert start >= 1
    for e in range(start, 9):
        sess2.process_epoch(e, epochs[e])
    # replaying already-committed epochs is a no-op either way
    got = sess2.sink.read_committed_table()
    sess2.close()

    ref = IncrementalEncoderSession(cfg, tmp_path / "ref", num_shards=1)
    for e in range(9):
        ref.process_epoch(e, epochs[e])
    want = ref.sink.read_committed_table()
    ref.close()
    assert got.sort_by("row_id").equals(want.sort_by("row_id"))


def test_stream_session_group_commit(tmp_path, ray_session):
    """StreamSession(sync_every=K): identical sink contents to the default
    config, and the barrier watermark lands on close()."""
    import math

    from diffdataflowmlpipelines_ray.streaming.engine import (
        KeyedAggregation,
        StreamSession,
        WindowSpec,
    )

    def run(root, **kw):
        sess = StreamSession(root, num_shards=2, **kw)
        sess.add(KeyedAggregation(
            name="win", input="ev", key_cols=["k"], value_col="v",
            ts_col="ts", aggs=("count", "sum"),
            window=WindowSpec.tumbling(10.0)))
        try:
            for e in range(6):
                n = 30
                sess.process_epoch(e, {"ev": pa.table({
                    "k": pa.array((np.arange(n) % 3).astype(np.int64)),
                    "v": np.arange(n, dtype=np.float64) + e,
                    "ts": np.linspace(e * 10, e * 10 + 9.9, n)})})
            sess.close(6)
            got = sess.sinks["win"].read_committed_table()
        finally:
            if sess.store.shards:
                sess.store.shutdown()
        return got, sess

    base, _ = run(tmp_path / "base")
    grouped, sess = run(tmp_path / "gc", sync_every=4)
    cols = sorted(base.column_names)
    key = [(c, "ascending") for c in cols]
    assert base.select(cols).sort_by(key).equals(
        grouped.select(cols).sort_by(key))
    wm = tmp_path / "gc" / "win" / "_manifests" / "_durable.json"
    assert wm.exists()  # close() forced the barrier
    assert json.loads(wm.read_text())["epoch"] >= 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_group_commit_crash_recovery_property(tmp_path, seed):
    """Randomized power-loss property: commit N epochs under a random
    sync_every, then simulate a power loss by corrupting a RANDOM subset
    of files above the durable watermark (torn data, torn manifests,
    deleted files).  Invariants on reopen:

    1. everything ≤ the watermark survives intact;
    2. the surviving epoch set is a consistent PREFIX (no gaps);
    3. idempotent replay of the dropped suffix converges to the full
       contents, bit-equal to an undamaged run.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    n = int(rng.integers(6, 14))
    root = tmp_path / "s"
    sink = ExactlyOnceParquetSink(root, sync_every=k)
    for e in range(n):
        sink.commit_tables(e, [_tbl(e)])
    wm_path = root / "_manifests" / "_durable.json"
    wm = json.loads(wm_path.read_text())["epoch"] if wm_path.exists() else -1
    assert wm == (n - 1) - (n % k) if n % k else wm == n - 1

    # corrupt a random subset of epochs above the watermark
    for e in range(wm + 1, n):
        action = rng.integers(0, 4)
        if action == 0:
            continue  # this epoch survives intact
        m = sink.manifest(e)
        if action == 1:  # torn data file
            f = root / m["files"][0]["path"]
            f.write_bytes(f.read_bytes()[: int(rng.integers(0, 20))])
        elif action == 2:  # torn manifest
            (root / "_manifests" / f"epoch-{e:08d}.json").write_text(
                '{"epo')
        else:  # lost data file
            (root / m["files"][0]["path"]).unlink()
    del sink

    re = ExactlyOnceParquetSink(root, sync_every=k)
    survived = re.committed_epochs()
    # invariant 1+2: intact prefix including everything <= watermark
    assert survived == list(range(len(survived)))
    assert len(survived) >= wm + 1
    for e in survived:
        assert re.read_committed_table([e]).num_rows == 5
    assert re.verify()
    # invariant 3: replay everything (idempotent over survivors)
    for e in range(n):
        re.commit_tables(e, [_tbl(e)])
    got = re.read_committed_table().to_pandas().sort_values(
        ["row_id"]).reset_index(drop=True)
    ref_sink = ExactlyOnceParquetSink(tmp_path / "ref")
    for e in range(n):
        ref_sink.commit_tables(e, [_tbl(e)])
    want = ref_sink.read_committed_table().to_pandas().sort_values(
        ["row_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


@pytest.fixture
def fsyncs(monkeypatch):
    """Record every directory and file fsync the sink module makes, as
    ("dir" | "file", path) in call order."""
    calls: list[tuple[str, Path]] = []
    real_dir, real_file = sink_mod._fsync_dir, sink_mod._fsync_file

    def rec_dir(p):
        calls.append(("dir", Path(p)))
        real_dir(p)

    def rec_file(p):
        calls.append(("file", Path(p)))
        real_file(p)

    monkeypatch.setattr(sink_mod, "_fsync_dir", rec_dir)
    monkeypatch.setattr(sink_mod, "_fsync_file", rec_file)
    return calls


def test_commit_files_fsyncs_data_dir(tmp_path, fsyncs):
    """Worker-written parts: the worker fsyncs its file and the epoch dir,
    and the commit fsyncs data/, where the new epoch dir appeared.
    ``commit_tables`` writes its parts the same way and makes the same
    flushes."""
    sink = ExactlyOnceParquetSink(tmp_path / "s")
    assert sink.part_fsync
    entry = write_epoch_part(sink.root, 0, _tbl(0), "00000",
                             fsync=sink.part_fsync)
    edir = sink.root / "data" / "epoch=00000000"
    assert ("dir", edir) in fsyncs
    fsyncs.clear()
    sink.commit_files(0, [entry])
    assert ("dir", sink.root / "data") in fsyncs
    fsyncs.clear()
    sink.commit_tables(1, [_tbl(1)])
    edir = sink.root / "data" / "epoch=00000001"
    assert fsyncs.index(("dir", edir)) < fsyncs.index(
        ("dir", sink.root / "data"))


def test_commit_files_group_commit_defers_to_barrier(tmp_path, fsyncs):
    """sync_every > 1: workers skip fsync and the commit defers the part,
    its epoch dir and data/ to the barrier; so does ``commit_tables``."""
    def via_files(sink):
        entry = write_epoch_part(sink.root, 0, _tbl(0), "00000",
                                 fsync=sink.part_fsync)
        sink.commit_files(0, [entry])

    def via_tables(sink):
        sink.commit_tables(0, [_tbl(0)])

    for commit in (via_files, via_tables):
        fsyncs.clear()
        sink = ExactlyOnceParquetSink(tmp_path / commit.__name__,
                                      sync_every=4)
        assert not sink.part_fsync
        commit(sink)
        assert fsyncs == []
        sink.sync()
        part = sink.root / sink.manifest(0)["files"][0]["path"]
        for want in (("file", part), ("dir", part.parent),
                     ("dir", sink.root / "data")):
            assert want in fsyncs
        wm = sink.root / "_manifests" / "_durable.json"
        assert json.loads(wm.read_text())["epoch"] == 0


def test_recovery_fsyncs_data_before_watermark(tmp_path, monkeypatch):
    """Reopen after a crash between barriers: the verified epochs' dirs live
    in data/, which is fsynced while the watermark still has its old value."""
    sink = ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    for e in range(6):  # barrier at e=3; epochs 4, 5 unsynced
        sink.commit_tables(e, [_tbl(e)])
    del sink
    wm = tmp_path / "s" / "_manifests" / "_durable.json"
    seen = []
    real = sink_mod._fsync_dir

    def watch(p):
        if Path(p) == tmp_path / "s" / "data":
            seen.append(json.loads(wm.read_text())["epoch"])
        real(p)

    monkeypatch.setattr(sink_mod, "_fsync_dir", watch)
    ExactlyOnceParquetSink(tmp_path / "s", sync_every=4)
    assert seen == [3]
    assert json.loads(wm.read_text())["epoch"] == 5


def _tear_above_watermarks(root: Path) -> int:
    """Power-loss simulation over every sink under ``root``: each committed
    epoch above its sink's durable watermark loses its first data file (or
    its manifest, for an epoch with no files).  Returns the epochs torn."""
    torn = 0
    for mdir in root.rglob("_manifests"):
        wm_path = mdir / "_durable.json"
        wm = json.loads(wm_path.read_text())["epoch"] if wm_path.exists() else -1
        for mpath in sorted(mdir.glob("epoch-*.json")):
            if int(mpath.stem.split("-")[1]) <= wm:
                continue
            files = json.loads(mpath.read_text())["files"]
            victim = mdir.parent / files[0]["path"] if files else mpath
            victim.write_bytes(victim.read_bytes()[:7])
            torn += 1
    return torn


def test_encoder_checkpoint_never_outruns_sink(tmp_path, ray_session):
    """Group commit + checkpoints: tear every sink epoch above the durable
    watermark while a durable checkpoint exists.  Resume must replay the
    torn epochs, so the sink converges to the undamaged run's contents."""
    cfg = [("cat", OrdinalEncoder())]
    rng = np.random.default_rng(5)
    epochs = [pa.table({
        "row_id": np.arange(e * 100, e * 100 + 20),
        "cat": np.array([str(int(x)) for x in rng.integers(0, 5, 20)]),
    }) for e in range(8)]
    root = tmp_path / "sess"
    sess = IncrementalEncoderSession(cfg, root, num_shards=1, sync_every=4,
                                     checkpoint_every=2)
    for e in range(6):  # checkpoints at 0, 2, 4; epoch 5 past the last one
        sess.process_epoch(e, epochs[e])
    sess.store.shutdown()  # power loss: no close(), no final barrier
    assert sess.chk.latest() == 4
    assert _tear_above_watermarks(root) > 0

    sess2 = IncrementalEncoderSession(cfg, root, num_shards=1, sync_every=4,
                                      checkpoint_every=2)
    start = sess2.resume()
    assert min(s.committed_epochs()[-1] for s in (
        sess2.sink, sess2.input_archive)) >= start - 1
    for e in range(start, 8):
        sess2.process_epoch(e, epochs[e])
    got = sess2.sink.read_committed_table()
    assert sess2.sink.committed_epochs() == list(range(8))
    sess2.close()

    ref = IncrementalEncoderSession(cfg, tmp_path / "ref", num_shards=1)
    for e in range(8):
        ref.process_epoch(e, epochs[e])
    want = ref.sink.read_committed_table()
    ref.close()
    assert got.sort_by("row_id").equals(want.sort_by("row_id"))


def test_stream_checkpoint_never_outruns_sink(tmp_path, ray_session):
    """StreamSession twin of the encoder test: a checkpoint taken under
    group commit covers only durable sink epochs."""
    from diffdataflowmlpipelines_ray.streaming.engine import (
        KeyedAggregation,
        StreamSession,
        WindowSpec,
    )

    def mk(root, **kw):
        s = StreamSession(root, num_shards=1, **kw)
        s.add(KeyedAggregation(
            name="win", input="ev", key_cols=["k"], value_col="v",
            ts_col="ts", aggs=("count", "sum"),
            window=WindowSpec.tumbling(10.0)))
        return s

    def feed(s, e):
        n = 12
        s.process_epoch(e, {"ev": pa.table({
            "k": pa.array((np.arange(n) % 3).astype(np.int64)),
            "v": np.arange(n, dtype=np.float64) + e,
            "ts": np.linspace(e * 10, e * 10 + 9.9, n)})},
            watermark=e * 10.0)

    root = tmp_path / "stream"
    s1 = mk(root, sync_every=4, checkpoint_every=2)
    for e in range(6):
        feed(s1, e)
    s1.store.shutdown()  # power loss
    assert s1.chk.latest() == 4
    assert _tear_above_watermarks(root) > 0

    s2 = mk(root, sync_every=4, checkpoint_every=2)
    for e in range(s2.resume(), 8):
        feed(s2, e)
    assert s2.sinks["win"].committed_epochs() == list(range(8))
    got = s2.sinks["win"].read_committed_table()
    s2.store.shutdown()

    ref = mk(tmp_path / "ref")
    for e in range(8):
        feed(ref, e)
    want = ref.sinks["win"].read_committed_table()
    ref.store.shutdown()
    cols = sorted(want.column_names)
    key = [(c, "ascending") for c in cols]
    assert got.select(cols).sort_by(key).equals(want.select(cols).sort_by(key))
