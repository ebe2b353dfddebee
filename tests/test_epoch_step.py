"""Keyed ops send each epoch's shard work as one ``ShardedStateStore.step``
call: one actor call per touched shard, for ``pa.Table`` and
``ray.data.Dataset`` inputs alike, an earlier flush when a later op reads a
pending output or an enrich probe reads the applies, sweeps, early session
emissions and graph ops in the same step, checkpoints that never get ahead
of the sinks, and per-kernel stats in ``stats()``."""

import gc
import weakref

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from diffdataflowmlpipelines_ray.streaming.engine import (
    EnrichJoin,
    IncrementalComponents,
    IncrementalPageRank,
    KeyedAggregation,
    PatternMatch,
    SessionWindowAggregation,
    StreamJoin,
    StreamSession,
    UpsertToRetract,
    WindowSpec,
)
from diffdataflowmlpipelines_ray.streaming.state_store import (
    ShardedStateStore,
)

EPOCHS = 5


def epoch_inputs(e: int, n: int = 40) -> dict:
    rng = np.random.default_rng(e)
    ev = pa.table({
        "k": rng.integers(0, 12, n),
        "ts": e * 10.0 + rng.uniform(0, 10, n),
        "v": rng.integers(1, 9, n).astype(np.float64),
        "eid": np.arange(n) + 1000 * e,
    })
    ref = pa.table({
        "k": rng.integers(0, 12, 8),
        "rts": e * 10.0 + rng.uniform(0, 10, 8),
        "rid": np.arange(8) + 1000 * e,
    })
    return {"ev": ev, "ref": ref}


#: how an epoch's tables are fed: as they are, or as Ray Datasets
FEEDS = {"table": lambda t: t, "dataset": rd.from_arrow}


def watermark(e: int) -> float:
    return e * 10.0 + 5.0


def session(root, **kw) -> StreamSession:
    s = StreamSession(root, num_shards=2, **kw)
    s.add(KeyedAggregation(name="win", input="ev", key_cols=["k"],
                           value_col="v", ts_col="ts", aggs=("count", "sum"),
                           window=WindowSpec.tumbling(10.0)))
    s.add(StreamJoin(name="j", left_input="ev", right_input="ref",
                     left_key=["k"], right_key=["k"], left_cols=["eid"],
                     right_cols=["rid"], left_ts="ts", right_ts="rts",
                     retention=20.0))
    return s


def keyed_inputs(e: int, n: int = 40) -> dict:
    """An upsert stream ``up`` and an event stream ``ev`` with ±1 diffs
    and event types, for the pickled-key families."""
    rng = np.random.default_rng(100 + e)
    up = pa.table({
        "k": rng.integers(0, 10, n // 2),
        "v": rng.integers(0, 4, n // 2),
        "ts": e * 10.0 + rng.uniform(0, 10, n // 2),
    })
    ev = pa.table({
        "k": rng.integers(0, 10, n),
        "ts": e * 10.0 + rng.uniform(0, 10, n),
        "x": rng.integers(1, 9, n).astype(np.float64),
        "diff": rng.choice(np.array([1, 1, 1, -1]), n),
        "typ": rng.choice(np.array(["a", "b", "c"]), n),
    })
    return {"up": up, "ev": ev}


def keyed_session(root, **kw) -> StreamSession:
    """Every pickled-key family: an upsert changelog chained into an
    aggregate's changelog, a distinct, an enrich join, a retractable
    session with early firing and a pattern."""
    s = StreamSession(root, num_shards=2, **kw)
    s.add(UpsertToRetract(name="chg", input="up", key=["k"], vals=["v"],
                          key_types=[pa.int64()], val_types=[pa.int64()]))
    s.add(KeyedAggregation(name="per_v", input="chg", key_cols=["v"],
                           aggs=("count",), weight_col="diff",
                           emit_changelog=True))
    s.add(KeyedAggregation(name="distinct_k", input="ev", key_cols=["k"],
                           aggs=(), weight_col="diff", emit_changelog=True,
                           threshold_fn=lambda m: int(m > 0)))
    s.add(EnrichJoin(name="en", dim_input="up", stream_input="ev", key=["k"],
                     dim_vals=["v"], stream_cols=["x"],
                     dim_types=[pa.int64()]))
    s.add(SessionWindowAggregation(name="sess", input="ev", key_cols=["k"],
                                   ts_col="ts", gap=3.0, value_col="x",
                                   retractable=True, weight_col="diff",
                                   early_firing=True))
    s.add(PatternMatch(name="pat", input="ev", key_cols=["k"], ts_col="ts",
                       type_col="typ", pattern=["a", "b"], within=5.0))
    return s


def four_blocks(t: pa.Table):
    """``t`` as a Dataset of four blocks."""
    q = -(-t.num_rows // 4)
    return rd.from_arrow([t.slice(i * q, q) for i in range(4)])


#: the sessions a kill/resume must replay: (builder, epoch inputs, the
#: epoch's watermark).  Both advance the watermark in ``process_epoch``, so
#: the keyed session's session and pattern sweeps and early emissions run
#: in every epoch's step.
SESSIONS = {"windowed": (session, epoch_inputs, watermark),
            "keyed": (keyed_session, keyed_inputs, watermark)}


def spy(sess: StreamSession) -> tuple[list, list]:
    """Record each ``store.step`` call as (epoch, shards, snapshot), and
    the name of every other store method that makes actor calls."""
    steps, others = [], []
    step = sess.store.step

    def counted(epoch, msgs, snapshot=False):
        steps.append((epoch, sorted(msgs), snapshot))
        return step(epoch, msgs, snapshot)

    for attr, fn in vars(ShardedStateStore).items():
        if callable(fn) and not attr.startswith("_") and attr not in (
                "step", "stats", "shutdown"):
            bound = getattr(sess.store, attr)
            setattr(sess.store, attr,
                    lambda *a, _n=attr, _f=bound, **k: (others.append(_n),
                                                        _f(*a, **k))[1])
    sess.store.step = counted
    return steps, others


def canon(tbl: pa.Table) -> list:
    df = tbl.to_pandas()
    df = df[sorted(df.columns)].astype(object)
    df = df.where(df.notna(), None)  # a null compares equal to a null
    return sorted(map(tuple, df.to_numpy().tolist()), key=repr)


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_one_step_call_per_epoch(ray_session, tmp_path, feed):
    sess = session(tmp_path / "s", checkpoint_every=1)
    steps, others = spy(sess)
    for e in range(EPOCHS):
        inputs = {k: FEEDS[feed](t) for k, t in epoch_inputs(e).items()}
        sess.process_epoch(e, inputs, watermark=watermark(e))
    stats = sess.stats()
    sess.store.shutdown()
    # applies, probes, sweeps, expiry and the due snapshot: one call per
    # shard (the sweeps touch both) and no other store call
    assert steps == [(e, [0, 1], True) for e in range(EPOCHS)]
    assert others == []
    st = stats["store"]
    assert st["calls"] == 2 * EPOCHS
    assert set(st["kernel_s"]) == {"apply_window_partials",
                                   "join_insert_probe", "sweep_windows",
                                   "join_expire", "dump"}
    assert all(v >= 0 for v in st["kernel_s"].values())
    assert set(st["live_keys"]) == {0, 1}
    assert sum(st["live_keys"].values()) > 0
    # the replies' stats stay out of the metrics manifests carry
    assert set(stats["metrics"]) == {"late_dropped", "late_routed", "epochs",
                                     "input_rows", "emitted_rows"}


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_untouched_shard_gets_no_call(ray_session, tmp_path, feed):
    sess = session(tmp_path / "u", checkpoint_every=0)
    steps, _ = spy(sess)
    one_key = pa.table({"k": [3, 3], "ts": [1.0, 2.0], "v": [1.0, 2.0],
                        "eid": [1, 2]})
    sess.process_epoch(0, {"ev": FEEDS[feed](one_key)})
    sess.store.shutdown()
    # no watermark, no checkpoint: the window apply and the join insert
    # of key 3 go to its one shard, in one call
    assert len(steps) == 1
    epoch, shards, snapshot = steps[0]
    assert epoch == 0 and len(shards) == 1 and not snapshot


def test_route_time_reported_per_op(ray_session, tmp_path):
    """The windowed aggregate's and the join's routes time themselves: a
    Table epoch routed on the driver and a Dataset epoch routed in route
    tasks each add to ``stats()["route_s"]`` of both ops."""
    sess = session(tmp_path / "r", checkpoint_every=0)
    seen = []
    for e, feed in enumerate(("table", "dataset")):
        inputs = {k: FEEDS[feed](t) for k, t in epoch_inputs(e).items()}
        sess.process_epoch(e, inputs, watermark=watermark(e))
        seen.append(sess.stats())
    sess.store.shutdown()
    table, dataset = (st["route_s"] for st in seen)
    assert set(table) == set(dataset) == {"win", "j"}
    assert all(table[op] > 0 and dataset[op] > table[op] for op in table)
    assert "route_s" not in seen[-1]["metrics"]


def test_op_chained_off_the_join_sees_its_matches(ray_session, tmp_path):
    sess = session(tmp_path / "c", checkpoint_every=0)
    sess.add(KeyedAggregation(name="per_k", input="j", key_cols=["k"],
                              value_col="rid", aggs=("count",),
                              weight_col="diff", emit_changelog=True))
    steps, _ = spy(sess)
    out = sess.process_epoch(0, epoch_inputs(0))
    sess.store.shutdown()
    j = out["j"].to_pandas()
    assert len(j)
    # per_k read "j" while its probe was queued: the batch flushed before
    # per_k ran, and per_k's changelog apply went in the end-of-epoch call
    assert len(steps) == 2
    got = out["per_k"].to_pandas()
    assert (got["diff"] == 1).all()
    assert dict(zip(got["k"], got["count"])) == \
        j.groupby("k").size().to_dict()


@pytest.mark.parametrize("crash", ["after_epoch", "before_save"])
@pytest.mark.parametrize("kind", sorted(SESSIONS))
def test_kill_resume_replays_identically(ray_session, tmp_path, crash, kind):
    """A crash after an epoch, or between its sink commits and its
    checkpoint save, resumes to the outputs of a run without one."""
    build, epoch_inputs, watermark = SESSIONS[kind]

    def run(root, crash_at=None):
        sess = build(root, checkpoint_every=1)
        start = sess.resume()
        if crash == "before_save" and crash_at is not None:
            save = sess.chk.save

            def failing(epoch, *a, **k):
                if epoch == crash_at:
                    raise OSError("power loss")
                return save(epoch, *a, **k)
            sess.chk.save = failing
        for e in range(start, EPOCHS):
            try:
                sess.process_epoch(e, epoch_inputs(e), watermark=watermark(e))
            except OSError:
                sess.store.shutdown()
                return sess, start
            if e == crash_at:
                sess.store.shutdown()
                return sess, start
        sess.close()
        return sess, start

    run(tmp_path / "cr", crash_at=2)
    resumed, start = run(tmp_path / "cr")
    clean, _ = run(tmp_path / "clean")
    assert start == (3 if crash == "after_epoch" else 2)
    assert set(resumed.sinks) == set(clean.sinks)
    for name in clean.sinks:
        assert canon(resumed.sinks[name].read_committed_table()) == \
            canon(clean.sinks[name].read_committed_table())
        assert resumed.sinks[name].verify()


def test_keyed_families_ride_one_route_and_step(ray_session, tmp_path):
    """Upserts, aggregate changelogs, a distinct, enrich registers, a
    retractable session and a pattern commit the same rows and make the
    same shard calls whether an epoch comes as a Table or as a Dataset of
    four blocks, and their applies run as step kernels."""

    def run(root, feed):
        sess = keyed_session(root, checkpoint_every=1)
        for e in range(EPOCHS):
            # the watermark advances under its own epoch id (see SESSIONS)
            sess.process_epoch(2 * e, {k: feed(t) for k, t in
                                       keyed_inputs(e).items()})
            sess.advance_watermark(2 * e + 1, watermark(e))
        sess.close(2 * EPOCHS)
        return sess

    table, dataset = run(tmp_path / "t", FEEDS["table"]), run(
        tmp_path / "d", four_blocks)
    for name in table.sinks:
        rows = canon(table.sinks[name].read_committed_table())
        assert rows == canon(dataset.sinks[name].read_committed_table()), name
        assert rows or name == "pat", name
    st = table.stats()["store"]
    assert st["calls"] == dataset.stats()["store"]["calls"]
    assert {"apply_delta", "apply_delta_changelog", "apply_upsert_retract",
            "apply_session_point_deltas",
            "apply_pattern_points"} <= set(st["kernel_s"])


def test_early_session_watermark_in_the_same_epoch(ray_session, tmp_path):
    """``process_epoch(e, …, watermark=w)`` on a session with an early-
    firing session commits the rows that ``process_epoch(2e)`` followed by
    ``advance_watermark(2e + 1, w)`` commits: the epoch's early rows and
    its close retractions in one ``__early`` commit, with the watermark."""

    def run(root, same_epoch):
        sess = keyed_session(root, checkpoint_every=1)
        for e in range(EPOCHS):
            if same_epoch:
                sess.process_epoch(e, keyed_inputs(e), watermark=watermark(e))
            else:
                sess.process_epoch(2 * e, keyed_inputs(e))
                sess.advance_watermark(2 * e + 1, watermark(e))
        sess.close(EPOCHS if same_epoch else 2 * EPOCHS)
        return sess

    def rows(sink) -> list:
        tbl = sink.read_committed_table()
        return canon(tbl.drop_columns(["epoch"]))

    one, two = run(tmp_path / "one", True), run(tmp_path / "two", False)
    assert set(one.sinks) == set(two.sinks)
    for name in one.sinks:
        assert rows(one.sinks[name]) == rows(two.sinks[name]), name
    early = one.sinks["sess__early"]
    assert rows(early)
    # one commit per epoch, each with the epoch's watermark
    assert early.committed_epochs() == list(range(EPOCHS + 1))
    assert [early.manifest(e)["meta"]["watermark"] for e in range(EPOCHS)] \
        == [watermark(e) for e in range(EPOCHS)]
    # an epoch's one commit holds its early rows and its retractions
    assert any({-1, 1} <= set(early.read_committed_table([e])["diff"]
                              .to_pylist()) for e in range(EPOCHS))


def test_moved_kernels_ride_the_step(ray_session, tmp_path):
    """The early session emission, the session and pattern sweeps and the
    graph ops run as step kernels: an epoch with a watermark makes no
    store call but ``step``."""
    sess = keyed_session(tmp_path / "k", checkpoint_every=1)
    steps, others = spy(sess)
    for e in range(3):
        sess.process_epoch(e, keyed_inputs(e), watermark=watermark(e))
    kernels = set(sess.stats()["store"]["kernel_s"])
    sess.store.shutdown()
    assert others == [] and steps
    assert {"emit_early_sessions", "sweep_closed_retractable_sessions",
            "sweep_pattern_matches"} <= kernels

    graph = StreamSession(tmp_path / "g", num_shards=2, checkpoint_every=1)
    graph.add(IncrementalComponents(name="cc", input="edges", lo_col="src",
                                    hi_col="dst"))
    graph.add(IncrementalPageRank(name="pr", input="edges"))
    steps, others = spy(graph)
    for e in range(3):
        edges = pa.table({"src": [e, e + 1, 7], "dst": [e + 1, e + 2, 8]})
        out = graph.process_epoch(e, {"edges": edges}, watermark=float(e))
        assert out["cc"].num_rows and out["pr"].num_rows
    kernels = set(graph.stats()["store"]["kernel_s"])
    graph.store.shutdown()
    assert others == [] and len(steps) == 3
    assert {"apply_cc_edges", "apply_pagerank_edges"} <= kernels


def test_enrich_table_epoch_publishes_a_table(ray_session, tmp_path):
    """A Table epoch's enrich output reaches later ops as a Table, and an
    epoch without stream rows as typed empty columns."""
    sess = StreamSession(tmp_path / "e", num_shards=1, checkpoint_every=0)
    sess.add(EnrichJoin(name="e", dim_input="dim", stream_input="ev",
                        key=["k"], dim_vals=["name"], stream_cols=["x"],
                        dim_types=[pa.string()]))
    dim = pa.table({"k": [1, 2], "name": ["a", "b"], "ts": [0.0, 0.0]})
    ev = pa.table({"k": [1, 3], "x": [10, 30]})
    out = sess.process_epoch(0, {"dim": dim, "ev": ev})["e"]
    empty = sess.process_epoch(1, {"ev": ev.slice(0, 0)})["e"]
    sess.store.shutdown()
    assert isinstance(out, pa.Table)
    assert sorted(out.select(["k", "x", "name"]).to_pylist(),
                  key=lambda r: r["k"]) == [
        {"k": 1, "x": 10, "name": "a"}, {"k": 3, "x": 30, "name": None}]
    assert isinstance(empty, pa.Table) and empty.num_rows == 0
    assert [(f.name, f.type) for f in empty.schema] == \
        [(f.name, f.type) for f in out.schema]


def test_process_epoch_returns_one_class(ray_session, tmp_path):
    sess = session(tmp_path / "t", checkpoint_every=0)
    first = sess.process_epoch(0, epoch_inputs(0))
    second = sess.process_epoch(1, epoch_inputs(1))
    sess.store.shutdown()
    assert type(first) is type(second)


def test_epoch_inputs_freed_without_cycle_collection(ray_session, tmp_path):
    sess = session(tmp_path / "g", checkpoint_every=0)
    gc.disable()
    try:
        inputs = epoch_inputs(0)
        ref = weakref.ref(inputs["ev"])
        sess.process_epoch(0, inputs)
        del inputs
        alive = ref() is not None
    finally:
        gc.enable()
        sess.store.shutdown()
    assert not alive
