"""Hypothesis properties for the streaming algebra added in round 2:
session-interval merge invariance, pattern sweep vs brute force, window
assignment coverage.  Pure functions — no Ray session needed."""

import pickle

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdataflowmlpipelines_ray.streaming.engine import WindowSpec
from diffdataflowmlpipelines_ray.streaming.state_store import StateShard

ts_floats = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
                      allow_infinity=False)


class TestSessionAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(ts_floats, ts_floats), min_size=1,
                    max_size=40),
           st.integers(0, 2**31 - 1))
    def test_split_order_invariance(self, points, seed):
        """build_sessions(all) == merge of build_sessions over ANY split —
        the associativity the distributed per-block compression relies on."""
        gap = 10.0
        whole = StateShard.build_sessions(points, gap)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        parts = [[] for _ in range(k)]
        for p in points:
            parts[int(rng.integers(0, k))].append(p)
        merged = []
        for part in parts:
            merged = StateShard.merge_session_lists(
                merged, StateShard.build_sessions(part, gap))
        assert len(merged) == len(whole)
        for a, b in zip(merged, whole):
            assert a[0] == pytest.approx(b[0])
            assert a[1] == pytest.approx(b[1])
            assert a[2][0] == pytest.approx(b[2][0])  # sum
            assert a[2][1] == b[2][1]  # count


class TestPatternSweepProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ts_floats, st.sampled_from("abx")),
                    min_size=0, max_size=25))
    def test_sweep_equals_bruteforce(self, events):
        import pickle

        shard = StateShard(0, 1)
        key = pickle.dumps(("k",), protocol=pickle.HIGHEST_PROTOCOL)
        payload = pickle.dumps([(key, events)],
                               protocol=pickle.HIGHEST_PROTOCOL)
        shard.apply_pattern_points("p", 0, payload)
        within = 50.0
        out = pickle.loads(
            shard.sweep_pattern_matches("p", float("inf"), ["a", "b"],
                                        within))
        got = sorted(chain for _, chain in out)
        evs = sorted(events)
        exp = sorted(
            (ta, tb)
            for i, (ta, ca) in enumerate(evs) if ca == "a"
            for (tb, cb) in evs[i + 1:]
            if cb == "b" and tb > ta and tb <= ta + within
        )
        assert [tuple(c) for c in got] == [tuple(e) for e in exp]

    def test_sweep_respects_watermark_and_drops_state(self):
        import pickle

        shard = StateShard(0, 1)
        key = pickle.dumps(("k",), protocol=pickle.HIGHEST_PROTOCOL)
        events = [(1.0, "a"), (2.0, "b"), (90.0, "a"), (95.0, "b")]
        shard.apply_pattern_points("p", 0, pickle.dumps(
            [(key, events)], protocol=pickle.HIGHEST_PROTOCOL))
        # wm=60, within=10 → start 1.0 final (1+10 ≤ 60); start 90 not
        out = pickle.loads(shard.sweep_pattern_matches("p", 60.0,
                                                       ["a", "b"], 10.0))
        assert [tuple(c) for _, c in out] == [(1.0, 2.0)]
        # swept events ≤ 50 dropped; later sweep emits only the second chain
        out2 = pickle.loads(shard.sweep_pattern_matches("p", float("inf"),
                                                        ["a", "b"], 10.0))
        assert [tuple(c) for _, c in out2] == [(90.0, 95.0)]


class TestWindowAssignProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(ts_floats, min_size=1, max_size=50))
    def test_sliding_assignment_exact_cover(self, ts):
        spec = WindowSpec.sliding(30.0, 10.0)
        arr = np.asarray(ts)
        idx, ws, we = spec.assign(arr)
        # every (row, window) pair satisfies containment
        assert ((arr[idx] >= ws) & (arr[idx] < we)).all()
        # and the count per row equals the number of covering windows
        for i, t in enumerate(arr):
            n_windows = sum(
                1 for j in range(4)
                if (np.floor(t / 10.0) - j) * 10.0 + 30.0 > t >= (
                    np.floor(t / 10.0) - j) * 10.0
            )
            assert (idx == i).sum() == n_windows


class TestThresholdProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 5),
                                       st.sampled_from([1, -1])),
                             min_size=0, max_size=15),
                    min_size=1, max_size=6))
    def test_changelog_sum_equals_threshold_of_net(self, epochs):
        """For ANY delta stream (including nets that go negative), the
        threshold changelog's running sum per key equals f(net count)
        after every epoch — the semantic contract of DD's threshold."""
        import pickle

        import pyarrow as pa

        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation)

        op = KeyedAggregation(name="d", input="chg", key_cols=["v"],
                              aggs=(), weight_col="diff",
                              emit_changelog=True,
                              threshold_fn=lambda m: int(m > 0))
        shard = StateShard(0, 1)
        net: dict[int, int] = {}
        running: dict[int, int] = {}
        for e, rows in enumerate(epochs):
            if rows:
                v, d = zip(*rows)
                tbl = pa.table({"v": pa.array(v, type=pa.int64()),
                                "diff": pa.array(d, type=pa.int64())})
                partials, _ = op.partial_batch(tbl, float("-inf"))
            else:
                partials = {}
            payload = pickle.dumps(sorted(partials.items()),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            pairs = pickle.loads(
                shard.apply_delta_changelog("d", e, payload))
            out = op.changelog_to_table(pairs, e)
            for kb, diff in zip(out["v"].to_pylist(),
                                out["diff"].to_pylist()):
                running[kb] = running.get(kb, 0) + diff
            for k, d2 in rows:
                net[k] = net.get(k, 0) + d2
            for k in set(net) | set(running):
                assert running.get(k, 0) == int(net.get(k, 0) > 0), (
                    e, k, net, running)


class TestConsolidationProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 4),
                                       st.sampled_from([1, 1, -1])),
                             min_size=0, max_size=10),
                    min_size=2, max_size=5),
           st.integers(0, 10))
    def test_any_cut_preserves_running_sum(self, epochs, cut_seed):
        """consolidate(upto_epoch=ANY cut) leaves the sink's running sum
        (net diff per key) bit-identical — the consumer-facing contract."""
        import shutil
        import tempfile

        import pandas as pd
        import pyarrow as pa

        from diffdataflowmlpipelines_ray.streaming.sink import (
            ExactlyOnceParquetSink)

        root = tempfile.mkdtemp(prefix="consol-prop-", dir="/tmp")
        try:
            sink = ExactlyOnceParquetSink(root, fsync=False)
            for e, rows in enumerate(epochs):
                k = [r[0] for r in rows]
                d = [r[1] for r in rows]
                sink.commit_tables(e, [pa.table({
                    "k": pa.array(k, type=pa.int64()),
                    "diff": pa.array(d, type=pa.int64()),
                    "epoch": pa.array([e] * len(rows), type=pa.int64())})])
            before = sink.read_committed_table().to_pandas()
            net_b = before.groupby("k")["diff"].sum()
            net_b = net_b[net_b != 0].to_dict()
            cut = cut_seed % len(epochs)
            sink.consolidate(upto_epoch=cut)
            after = sink.read_committed_table().to_pandas()
            net_a = after.groupby("k")["diff"].sum() if len(after) else \
                pd.Series(dtype="int64")
            net_a = net_a[net_a != 0].to_dict()
            assert net_a == net_b
            assert sink.verify()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestSessionEarlyFiringProperty:
    """For ANY insert stream split across epochs, the early changelog's
    running sum per key equals gap-sessionization over the points seen so
    far, after EVERY epoch; closing retracts everything to net zero and
    the final emission is exactly the full sessionization.  (Values are
    1.0 so session sums are small integers — float-exact, order-free.)"""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), ts_floats,
                              st.integers(0, 3)),
                    min_size=1, max_size=50))
    def test_running_sum_tracks_open_sessions(self, rows):
        import pickle as p
        from collections import Counter

        gap = 25.0
        shard = StateShard(0, 1)
        seen: dict = {}
        net: Counter = Counter()
        for e in range(4):
            per_key: dict = {}
            for k, ts, ea in rows:
                if ea == e:
                    kb = p.dumps((k,), protocol=p.HIGHEST_PROTOCOL)
                    per_key.setdefault(kb, []).append((ts, 1.0))
            payload = p.dumps(sorted(per_key.items()),
                              protocol=p.HIGHEST_PROTOCOL)
            shard.apply_session_points("s", e, payload, gap)
            for kb, pts in per_key.items():
                seen.setdefault(kb, []).extend(pts)
            for kb, d, sess in p.loads(
                    shard.emit_early_sessions("s", gap, False)):
                net[(kb, sess)] += d
            for kb, pts in seen.items():
                want = Counter(
                    (kb, StateShard._session_tuple(s))
                    for s in StateShard.build_sessions(pts, gap))
                got = Counter({kk: v for kk, v in net.items()
                               if kk[0] == kb and v != 0})
                assert got == want
        emitted, rets = p.loads(
            shard.sweep_closed_sessions("s", float("inf"), gap, True))
        for kb, d, sess in rets:
            net[(kb, sess)] += d
        assert all(v == 0 for v in net.values())
        want_final = sorted(
            (kb, StateShard._session_tuple(s))
            for kb, pts in seen.items()
            for s in StateShard.build_sessions(pts, gap))
        got_final = sorted((kb, StateShard._session_tuple(s))
                           for kb, s in emitted)
        assert got_final == want_final

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(ts_floats, st.booleans()), min_size=1,
                    max_size=30))
    def test_retractable_split_running_sum(self, rows):
        """Insert everything, then retract a marked subset: the early
        changelog's running sum equals sessionization over the LIVE
        multiset — including bridge deletions that split sessions."""
        import pickle as p
        from collections import Counter

        gap = 20.0
        shard = StateShard(0, 1)
        kb = p.dumps((1,), protocol=p.HIGHEST_PROTOCOL)
        net: Counter = Counter()

        def apply(epoch, pts):
            payload = p.dumps([(kb, pts)], protocol=p.HIGHEST_PROTOCOL)
            shard.apply_session_point_deltas("s", epoch, payload)
            for _, d, sess in p.loads(
                    shard.emit_early_sessions("s", gap, True)):
                net[sess] += d

        apply(0, [(ts, 1.0, 1) for ts, _ in rows])
        apply(1, [(ts, 1.0, -1) for ts, rm in rows if rm])
        live = [(ts, 1.0) for ts, rm in rows if not rm]
        want = Counter(StateShard._session_tuple(s)
                       for s in StateShard.build_sessions(live, gap))
        got = Counter({s: v for s, v in net.items() if v != 0})
        assert got == want


class TestRescaleAlgebra:
    """rescale_blobs (savepoint rescale) as a pure function: for ANY
    weighted keyed delta stream split across epochs and ANY shard move
    n0→n1 (up, down, identity), rescaling mid-stream preserves the exact
    final state a single-shard reference accumulates."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 30),                # key
                           st.floats(-50, 50, allow_nan=False),
                           st.integers(-3, 3)),               # weight
                 min_size=1, max_size=120),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    def test_keyed_state_rescale_roundtrip(self, rows, n0, n1, seed):
        import pickle

        from diffdataflowmlpipelines_ray.state.aggregates import SumCountAgg
        from diffdataflowmlpipelines_ray.streaming.state_store import (
            rescale_blobs, shard_of)

        rng = np.random.default_rng(seed)
        cut = int(rng.integers(0, len(rows) + 1))   # the "crash point"
        halves = [rows[:cut], rows[cut:]]

        def partials(batch):
            out = {}
            for k, v, w in batch:
                kb = pickle.dumps((k,), protocol=pickle.HIGHEST_PROTOCOL)
                acc = out.setdefault(kb, SumCountAgg())
                add = SumCountAgg(s=v * w, count=w)
                acc.merge(add)
            return out

        def apply_to(shards, n, batch, epoch):
            by = {}
            for kb, acc in partials(batch).items():
                by.setdefault(shard_of(kb, n), []).append((kb, acc))
            for sid, items in by.items():
                shards[sid].apply_delta(
                    "t", epoch, pickle.dumps(sorted(items)))

        # phase 1 at n0 shards
        s0 = [StateShard(i, n0) for i in range(n0)]
        apply_to(s0, n0, halves[0], 0)
        blobs = {i: sh.dump() for i, sh in enumerate(s0)}
        # rescale to n1, continue
        s1 = [StateShard(i, n1) for i in range(n1)]
        for sid, blob in rescale_blobs(blobs, n1).items():
            s1[sid].load(blob)
        apply_to(s1, n1, halves[1], 1)
        got = {}
        for sh in s1:
            for kb, acc in pickle.loads(sh.collect("t")):
                assert kb not in got, "key on two shards after rescale"
                got[kb] = (acc.s, acc.count)
        # reference: single shard, no rescale
        ref_sh = StateShard(0, 1)
        apply_to([ref_sh], 1, halves[0], 0)
        apply_to([ref_sh], 1, halves[1], 1)
        ref = {kb: (acc.s, acc.count)
               for kb, acc in pickle.loads(ref_sh.collect("t"))}
        assert set(got) == set(ref)
        for kb in ref:
            assert got[kb][1] == ref[kb][1]
            assert got[kb][0] == pytest.approx(ref[kb][0])
        # routing invariant: every key sits where shard_of(·, n1) says
        for i, sh in enumerate(s1):
            for kb, _ in pickle.loads(sh.collect("t")):
                assert shard_of(kb, n1) == i


class TestArrangementAlgebra:
    """Columnar arrangements on pure ``StateShard``s (no Ray): for ANY
    epoch split, with ``weight_col`` retractions, and an N→M
    ``rescale_blobs`` mid-stream, the emissions of a tumbling aggregate, a
    pane-mode sliding aggregate, a ``make_acc`` monoid and a left outer
    interval join equal a 1-shard run and a pandas recompute.  Timestamps
    and values are small integers, so every float sum is exact; the
    watermark trails the earliest future row, so no row is ever late."""

    MAX_DT = 5.0

    @staticmethod
    def ops():
        from diffdataflowmlpipelines_ray.state.aggregates import SumCountAgg
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation, StreamJoin)

        common = dict(input="ev", key_cols=["k"], value_col="v", ts_col="ts",
                      weight_col="w")
        aggs = {
            "tum": KeyedAggregation(name="tum", aggs=("count", "sum"),
                                    window=WindowSpec.tumbling(10.0),
                                    **common),
            "sli": KeyedAggregation(name="sli", aggs=("count", "sum"),
                                    window=WindowSpec.sliding(30.0, 10.0),
                                    **common),
            "mx": KeyedAggregation(
                name="mx", aggs=("count", "max"),
                window=WindowSpec.tumbling(20.0),
                make_acc=lambda v, w: SumCountAgg.from_numpy(
                    v, w, track_extremes=True),
                finalize=lambda a: {"count": a.count,
                                    "max": a.min_max()[1]}, **common),
        }
        join = StreamJoin(name="j", left_input="L", right_input="R",
                          left_key=["k"], right_key=["k"], left_cols=["lid"],
                          right_cols=["rid"], left_ts="ts", right_ts="ts",
                          max_dt=TestArrangementAlgebra.MAX_DT,
                          emit_unmatched="left")
        return aggs, join

    def run(self, epochs, n0, n1, cut):
        from diffdataflowmlpipelines_ray.streaming.state_store import (
            rescale_blobs)

        aggs, join = self.ops()
        shards = [StateShard(i, n0) for i in range(n0)]
        out = {n: [] for n in list(aggs) + ["j", "j__unmatched"]}
        wm_prev = -np.inf

        def sweep(e, wm):
            for name, op in aggs.items():
                panes = op.window.use_panes
                parts = [sh.sweep_windows(
                    name, wm, *((op.window.size, op.window.slide)
                                if panes else ())) for sh in shards]
                out[name].append(op.rows_to_table(
                    [p for p in parts if p is not None], e))
            um = [sh.sweep_join_unmatched("j", wm - self.MAX_DT, "left")
                  for sh in shards]
            out["j__unmatched"].append(join.unmatched_to_table(
                [u for u in um if u is not None], e, side="left"))

        for e, (ev, left, right, wm) in enumerate(epochs):
            if e == cut:
                blobs = {i: sh.dump() for i, sh in enumerate(shards)}
                shards = [StateShard(i, n1) for i in range(n1)]
                for sid, blob in rescale_blobs(blobs, n1).items():
                    shards[sid].load(blob)
            n = len(shards)
            for name, op in aggs.items():
                part, late = op.partial_batch(ev, wm_prev)
                assert late == 0
                for sid, rows in part.split(n).items():
                    shards[sid].apply_window_partials(name, e, rows)
            payloads = join.shard_payloads(left, right, n)
            tables = [shards[sid].join_insert_probe("j", e, p)
                      for sid, p in payloads.items()]
            if payloads:  # the session commits a join epoch with input
                out["j"].append(join.matches_to_table(
                    [t for t in tables if t is not None], e))
            sweep(e, wm)
            wm_prev = wm
        sweep(len(epochs), np.inf)
        return {n: pa.concat_tables(ts) if ts else None
                for n, ts in out.items()}

    @staticmethod
    def canon(tbl, cols):
        if tbl is None:
            return []
        df = tbl.to_pandas()[cols]
        return sorted(map(tuple, df.to_numpy(dtype=np.float64).tolist()))

    @staticmethod
    def expected(ev, left, right):
        import pandas as pd

        ev = ev.to_pandas()
        out = {}
        for name, size, slide in (("tum", 10.0, 10.0), ("sli", 30.0, 10.0),
                                  ("mx", 20.0, 20.0)):
            parts = []
            for j in range(int(size // slide)):
                ws = (np.floor(ev["ts"] / slide) - j) * slide
                parts.append(ev.assign(window_start=ws))
            rows = pd.concat(parts)
            rows = rows[rows["ts"] < rows["window_start"] + size]
            if name == "mx":
                rows = rows.assign(n=rows["w"])
                net = rows.groupby(["k", "window_start", "ts", "v"])["n"].sum()
                net = net[net != 0].reset_index()
                g = net.groupby(["k", "window_start"])
                res = pd.DataFrame({"count": g["n"].sum(), "max": g["v"].max()})
                out[name] = sorted(map(tuple, res.reset_index()
                                       .to_numpy(dtype=np.float64).tolist()))
                continue
            rows = rows.assign(wv=rows["v"] * rows["w"])
            g = rows.groupby(["k", "window_start"])
            res = pd.DataFrame({"count": g["w"].sum(), "sum": g["wv"].sum()})
            res = res[(res["count"] != 0) | (res["sum"] != 0)]
            out[name] = sorted(map(tuple, res.reset_index()
                                   .to_numpy(dtype=np.float64).tolist()))
        lf, rf = left.to_pandas(), right.to_pandas()
        m = lf.merge(rf, on="k", suffixes=("", "_r"))
        m = m[(m["ts"] - m["ts_r"]).abs() <= TestArrangementAlgebra.MAX_DT]
        out["j"] = sorted(map(tuple, m[["k", "lid", "rid"]]
                              .to_numpy(dtype=np.float64).tolist()))
        um = lf[~lf["lid"].isin(m["lid"])]
        out["j__unmatched"] = sorted(map(tuple, um[["k", "lid", "ts"]]
                                         .to_numpy(dtype=np.float64)
                                         .tolist()))
        return out

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_any_split_and_rescale_equals_one_shard_and_pandas(self, data):
        row = st.tuples(st.integers(0, 3), st.integers(0, 60),
                        st.integers(1, 5))
        ins = data.draw(st.lists(row, min_size=1, max_size=40))
        rets = data.draw(st.lists(st.booleans(), min_size=len(ins),
                                  max_size=len(ins)))
        refs = data.draw(st.lists(st.tuples(st.integers(0, 3),
                                            st.integers(0, 60)),
                                  max_size=20))
        n_ep = data.draw(st.integers(1, 5))
        ep = lambda n: data.draw(st.lists(  # noqa: E731
            st.integers(0, n_ep - 1), min_size=n, max_size=n))
        ins_ep, ref_ep = ep(len(ins)), ep(len(refs))
        # a retraction arrives in its insert's epoch or later
        ret_ep = [data.draw(st.integers(e, n_ep - 1)) for e in ins_ep]
        n0, n1 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cut = data.draw(st.integers(0, n_ep))

        ev_rows = ([(k, t, v, 1, e) for (k, t, v), e in zip(ins, ins_ep)]
                   + [(k, t, v, -1, e) for (k, t, v), r, e
                      in zip(ins, rets, ret_ep) if r])
        ev = pa.table({c: pa.array([r[i] for r in ev_rows], type=typ)
                       for i, (c, typ) in enumerate(
                           (("k", pa.int64()), ("ts", pa.float64()),
                            ("v", pa.float64()), ("w", pa.int64()),
                            ("e", pa.int64())))})
        left = pa.table({"k": pa.array([k for k, _, _ in ins], pa.int64()),
                         "ts": pa.array([t for _, t, _ in ins], pa.float64()),
                         "lid": pa.array(range(len(ins)), pa.int64()),
                         "e": pa.array(ins_ep, pa.int64())})
        right = pa.table({"k": pa.array([k for k, _ in refs], pa.int64()),
                          "ts": pa.array([t for _, t in refs], pa.float64()),
                          "rid": pa.array(range(100, 100 + len(refs)),
                                          pa.int64()),
                          "e": pa.array(ref_ep, pa.int64())})
        epochs = []
        for e in range(n_ep):
            later = np.concatenate([
                t["ts"].to_numpy()[t["e"].to_numpy() > e]
                for t in (ev, left, right)])
            # one below the earliest future event: no future row can be late
            # or match a swept left row
            wm = float(later.min()) - 1 if len(later) else 1000.0
            pick = lambda t: t.filter(pa.array(t["e"].to_numpy() == e))  # noqa: E731
            epochs.append((pick(ev), pick(left), pick(right), wm))

        cols = {"tum": ["k", "window_start", "count", "sum"],
                "sli": ["k", "window_start", "count", "sum"],
                "mx": ["k", "window_start", "count", "max"],
                "j": ["k", "lid", "rid"], "j__unmatched": ["k", "lid", "ts"]}
        got = self.run(epochs, n0, n1, cut)
        ref = self.run(epochs, 1, 1, n_ep + 1)
        want = self.expected(ev, left, right)
        for name, c in cols.items():
            assert self.canon(got[name], c) == self.canon(ref[name], c), name
            assert self.canon(got[name], c) == want[name], name


class TestPartialBatchReference:
    """``KeyedAggregation.partial_batch`` (factorize + ``np.bincount``)
    equals a pandas ``groupby(keys + [window start], sort=True,
    dropna=False)`` over the same window assignment: the same rows in the
    same order, key values, hashes (the input frame's
    ``hash_pandas_object`` of each group's rows), bounds, counts, late
    count, and sums — exact on integer-valued inputs, within ``rtol=1e-12``
    on arbitrary floats (pandas sums with Kahan compensation,
    ``np.bincount`` does not).  Monoid ops get each group's rows in input
    order."""

    WINDOWS = {
        "tumbling": (WindowSpec.tumbling(10.0), False),
        "tumbling_lateness": (WindowSpec.tumbling(10.0, 5.0), False),
        "sliding_panes": (WindowSpec.sliding(30.0, 10.0), False),
        "sliding_replicated": (WindowSpec.sliding(30.0, 10.0), True),
        "sliding_uneven": (WindowSpec.sliding(25.0, 10.0, 5.0), False),
    }

    @staticmethod
    def op(window: str, agg: str, key_cols: list, weighted: bool):
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation)

        spec, early = TestPartialBatchReference.WINDOWS[window]
        kw = dict(name="a", input="ev", key_cols=key_cols, value_col="v",
                  ts_col="ts", window=spec, early_firing=early,
                  weight_col="w" if weighted else None)
        if agg == "minmax":
            kw["aggs"] = ("count", "min", "max")
        elif agg == "make_acc":  # records each group's rows, in order
            kw["make_acc"] = lambda v, w: ("acc", v.tolist(),
                                           None if w is None else w.tolist())
            kw["finalize"] = lambda a: {}
        return KeyedAggregation(**kw)

    @staticmethod
    def reference(op, tbl: pa.Table, finalized_before: float) -> dict:
        import pandas as pd

        pdf = tbl.to_pandas()
        ts = pdf["ts"].to_numpy(dtype=np.float64)
        w = op.window
        if w.use_panes and not op.early_firing:
            idx, start, _ = w.assign_panes(ts)
            last_end = start + w.size
        else:
            idx, start, last_end = w.assign(ts)
        keep = last_end + w.allowed_lateness > finalized_before
        idx, start = idx[keep], start[keep]
        keys = list(op.key_cols)
        values = pdf["v"].to_numpy(dtype=np.float64)[idx]
        weights = (pdf["w"].to_numpy(dtype=np.int64)[idx]
                   if op.weight_col else np.ones(len(idx), dtype=np.int64))
        frame = pd.DataFrame({**{k: pdf[k].to_numpy()[idx] for k in keys},
                              "__ws": start, "__row": idx,
                              "__pos": np.arange(len(idx)),
                              "__wv": values * weights, "__w": weights})
        g = frame.groupby(keys + ["__ws"], sort=True, dropna=False)
        rows = g["__row"].first().to_numpy()
        h = pd.util.hash_pandas_object(pdf[keys], index=False).to_numpy()
        width = w.slide if w.use_panes and not op.early_firing else w.size
        ws = g["__ws"].first().to_numpy()
        return {"keys": [pdf[k].to_numpy()[rows] for k in keys],
                "h": h[rows], "start": ws, "end": ws + width,
                "s": g["__wv"].sum().to_numpy(),
                "c": g["__w"].sum().to_numpy(),
                "pos": [grp["__pos"].to_numpy() for _, grp in g],
                "values": values, "weights": weights,
                "late": int((~keep).sum())}

    @staticmethod
    def same_values(a, b) -> bool:
        import pandas as pd

        na, nb = pd.isna(a), pd.isna(b)
        return len(a) == len(b) and bool((na == nb).all()) and all(
            x == y for x, y in zip(np.asarray(a)[~na], np.asarray(b)[~nb]))

    def check(self, op, tbl, finalized_before, exact: bool = True):
        part, late = op.partial_batch(tbl, finalized_before)
        ref = self.reference(op, tbl, finalized_before)
        assert late == ref["late"]
        assert len(part) == len(ref["h"])
        for got, want in zip(part.keys, ref["keys"]):
            assert self.same_values(got, want)
        assert part.h.dtype == np.uint64
        assert np.array_equal(part.h, ref["h"])
        assert np.array_equal(part.start, ref["start"])
        assert np.array_equal(part.end, ref["end"])
        if part.acc is None:
            assert part.c.dtype == np.int64
            assert np.array_equal(part.c, ref["c"])
            if exact:
                assert np.array_equal(part.s, ref["s"])
            else:
                # atol: a sum that cancels to ~0 keeps no relative digits
                np.testing.assert_allclose(part.s, ref["s"], rtol=1e-12,
                                           atol=1e-9)
            return
        assert part.s is None and part.c is None
        weighted = op.weight_col is not None
        for acc, pos in zip(part.acc, ref["pos"]):
            want = op._group_acc(ref["values"], ref["weights"]
                                 if weighted else None, pos)
            assert pickle.dumps(acc) == pickle.dumps(want)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_pandas_groupby(self, data):
        window = data.draw(st.sampled_from(sorted(self.WINDOWS)))
        agg = data.draw(st.sampled_from(["sum", "minmax", "make_acc"]))
        key_cols = data.draw(st.sampled_from(
            [["s"], ["i"], ["s", "i"], ["i", "s"], ["s", "i", "s2"]]))
        weighted = data.draw(st.booleans())
        ints = data.draw(st.booleans())
        n = data.draw(st.integers(0, 40))
        col = lambda s: data.draw(st.lists(s, min_size=n, max_size=n))  # noqa: E731
        ts = col(st.integers(0, 60).map(float) if ints else
                 st.floats(0.0, 60.0, allow_nan=False))
        if ints:  # integer-valued, some null (a NaN value the sum skips)
            v = col(st.one_of(st.none(), st.integers(-5, 20).map(float)))
        else:
            v = col(st.floats(-1e3, 1e3, allow_nan=False))
        tbl = pa.table({
            "s": pa.array(col(st.sampled_from(["a", "b", "c", None])),
                          pa.string()),
            "s2": pa.array(col(st.sampled_from(["x", "", None])),
                           pa.string()),
            "i": pa.array(col(st.sampled_from([0, 1, -2, None])), pa.int64()),
            "ts": pa.array(ts, pa.float64()),
            "v": pa.array(v, pa.float64()),
            "w": pa.array(col(st.sampled_from([1, -1])), pa.int64()),
        })
        finalized_before = data.draw(st.sampled_from(
            [-np.inf, 0.0, 10.0, 25.0, 40.0]))
        self.check(self.op(window, agg, key_cols, weighted), tbl,
                   finalized_before, exact=ints)

    @pytest.mark.parametrize("agg", ["sum", "make_acc"])
    def test_cardinalities_past_int64(self, agg):
        """Eleven key columns of 60 distinct values each, plus the window
        start: the product of the cardinalities passes 2^63, so the group
        id cannot be one fold of all the codes."""
        rng = np.random.default_rng(0)
        n, key_cols = 60, [f"k{j}" for j in range(11)]
        cols = {k: pa.array(rng.permutation(n) - 30, pa.int64())
                for k in key_cols}
        # a few repeated key tuples, so groups of several rows exist
        cols = {k: pa.concat_arrays([c, c.slice(0, 10)])
                for k, c in cols.items()}
        ts = rng.integers(0, 30, n + 10).astype(np.float64)
        tbl = pa.table({**cols, "ts": ts,
                        "v": rng.integers(0, 9, n + 10).astype(np.float64),
                        "w": np.ones(n + 10, dtype=np.int64)})
        starts = len(np.unique(np.floor(ts / 10.0)))
        assert n ** len(key_cols) * starts > 2 ** 63
        self.check(self.op("tumbling", agg, key_cols, False), tbl, -np.inf)
