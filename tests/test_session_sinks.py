"""Which sinks ``StreamSession.add`` opens, and with which settings.

Every operator sink and every late-row side sink is
``ExactlyOnceParquetSink(<root>/<name>)`` carrying the session's
``fsync``/``sync_every``; these tests pin the sink names per operator
shape and that no sink drops the session's durability settings."""

from __future__ import annotations

import pyarrow as pa
import pytest

from diffdataflowmlpipelines_ray.streaming.engine import (
    KeyedAggregation,
    SessionWindowAggregation,
    StreamDedup,
    StreamJoin,
    StreamSession,
    UpsertToRetract,
    WindowSpec,
)


def _agg(**kw):
    return KeyedAggregation(name="win", input="ev", key_cols=["k"],
                            value_col="v", ts_col="ts", aggs=("count",),
                            **kw)


def _join(**kw):
    return StreamJoin(name="j", left_input="l", right_input="r",
                      left_key=["u"], right_key=["u_r"],
                      left_cols=["lid"], right_cols=["rid"],
                      left_ts="ts", right_ts="ts_r", max_dt=10.0, **kw)


OPS = {
    "tumbling": (lambda: _agg(window=WindowSpec.tumbling(10.0)),
                 ["win"]),
    "early_firing": (lambda: _agg(window=WindowSpec.tumbling(10.0),
                                  early_firing=True),
                     ["win", "win__early"]),
    "late_output": (lambda: _agg(window=WindowSpec.tumbling(10.0),
                                 late_output=True),
                    ["win", "win__late"]),
    "changelog": (lambda: _agg(emit_changelog=True), ["win"]),
    "unwindowed": (lambda: _agg(), []),
    "session_window": (lambda: SessionWindowAggregation(
        name="sw", input="ev", key_cols=["k"], ts_col="ts", gap=5.0),
        ["sw"]),
    "join_inner": (lambda: _join(), ["j"]),
    "join_left": (lambda: _join(emit_unmatched=True),
                  ["j", "j__unmatched"]),
    "join_right": (lambda: _join(emit_unmatched="right"),
                   ["j", "j__unmatched_right"]),
    "join_full": (lambda: _join(emit_unmatched="full"),
                  ["j", "j__unmatched", "j__unmatched_right"]),
    "dedup": (lambda: StreamDedup(name="d", input="ev", key=["k"]), ["d"]),
    "upsert": (lambda: UpsertToRetract(
        name="u", input="ev", key=["k"], vals=["v"],
        key_types=[pa.int64()], val_types=[pa.float64()]), ["u"]),
}

SETTINGS = [(True, 1), (False, 3)]


@pytest.mark.parametrize("fsync,sync_every", SETTINGS)
@pytest.mark.parametrize("case", sorted(OPS))
def test_add_opens_named_sinks_with_session_settings(
        ray_session, tmp_path, case, fsync, sync_every):
    make_op, names = OPS[case]
    sess = StreamSession(tmp_path / "s", num_shards=1, fsync=fsync,
                         sync_every=sync_every)
    try:
        sess.add(make_op())
        assert sorted(sess.sinks) == sorted(names)
        for name, sink in sess.sinks.items():
            assert sink.root == tmp_path / "s" / name
            assert (sink.fsync, sink.sync_every) == (fsync, sync_every)
            assert (sink.root / "_manifests").is_dir()
    finally:
        sess.store.shutdown()


def _ev(rows):  # (k, ts, v)
    k, ts, v = zip(*rows)
    return pa.table({"k": pa.array(k, type=pa.int64()),
                     "ts": pa.array(ts, type=pa.float64()),
                     "v": pa.array(v, type=pa.float64())})


def test_late_sink_is_lazy_and_one_per_input(ray_session, tmp_path):
    root = tmp_path / "s"
    sess = StreamSession(root, num_shards=1, fsync=False, sync_every=3)
    try:
        assert sess._late_sinks == {}
        assert not (root / "_late_ev").exists()
        first = sess._late_sink("ev")
        assert sess._late_sink("ev") is first
        assert first.root == root / "_late_ev"
        assert (first.fsync, first.sync_every) == (False, 3)
        other = sess._late_sink("other")
        assert other is not first
        assert sorted(sess._late_sinks) == ["ev", "other"]
        # late sinks are side outputs, never operator sinks
        assert sess.sinks == {}
    finally:
        sess.store.shutdown()


def test_late_output_before_routing_is_empty(ray_session, tmp_path):
    sess = StreamSession(tmp_path / "s", num_shards=1)
    try:
        assert sess.late_output("ev").num_rows == 0
    finally:
        sess.store.shutdown()


@pytest.mark.parametrize("fsync,sync_every", SETTINGS)
def test_route_late_and_late_output_share_one_sink(
        ray_session, tmp_path, fsync, sync_every):
    sess = StreamSession(tmp_path / "s", num_shards=1, fsync=fsync,
                         sync_every=sync_every)
    try:
        sess.add(_agg(window=WindowSpec.tumbling(10.0)))
        sess.process_epoch(0, {"ev": _ev([(1, 20.0, 1.0)])},
                           watermark=20.0)
        sess.route_late(1, {"ev": _ev([(1, 4.0, 1.0), (1, 25.0, 1.0)])},
                        {"ev": "ts"})
        sink = sess._late_sinks["ev"]
        assert (sink.fsync, sink.sync_every) == (fsync, sync_every)
        late = sess.late_output("ev")
        assert sess._late_sinks["ev"] is sink
        assert late.column("ts").to_pylist() == [4.0]
        assert late.column("late_epoch").to_pylist() == [1]
    finally:
        sess.store.shutdown()
