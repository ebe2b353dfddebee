"""IncrementalEncoderSession + flagship pipeline tests."""

import os

import numpy as np
import pyarrow as pa
import pytest

from diffdataflowmlpipelines_ray.pipelines.flagship import (
    run_flagship,
    token_features_table,
)
from diffdataflowmlpipelines_ray.sources.tokenized import (
    derive_tokenized,
    epoch_tables,
    tokenized_dataset,
)
from diffdataflowmlpipelines_ray.stages.encoders import (
    OneHotEncoder,
    OrdinalEncoder,
    StandardScaler,
)
from diffdataflowmlpipelines_ray.streaming.encoders import IncrementalEncoderSession

SF = "/root/testdata/sf0.001"


def _sf(name: str) -> str:
    """The scale-factor directory ``name`` beside ``SF``."""
    return os.path.join(os.path.dirname(SF), name)


class TestTokenizedSource:
    def test_derive_deterministic_schema(self, ray_session):
        import pyarrow.parquet as pq

        docs = pq.read_table(f"{SF}/documents.parquet")
        t1 = derive_tokenized(docs)
        t2 = derive_tokenized(docs)
        assert t1.schema.field("tokens").type == pa.list_(pa.int32())
        assert t1.schema.field("doc_id").type == pa.string()
        assert t1["tokens"].to_pylist() == t2["tokens"].to_pylist()  # token-array equality
        assert t1["n_tok"].to_pylist() == [len(x) for x in t1["tokens"].to_pylist()]

    def test_dataset_source(self, ray_session):
        ds = tokenized_dataset(SF)
        assert ds.count() == 500

    @staticmethod
    def _blocks(ds) -> list[pa.Table]:
        import ray
        from ray.data.dataset import MaterializedDataset

        assert isinstance(ds, MaterializedDataset)
        return ray.get(ds.to_arrow_refs())

    @pytest.mark.parametrize("sf, parallelism", [
        ("sf0.1", 1), ("sf0.1", 4), ("sf0.001", 3), ("sf0.001", 7)])
    def test_rows_equal_local_derive(self, ray_session, sf, parallelism):
        import pyarrow.parquet as pq

        d = _sf(sf)
        blocks = self._blocks(tokenized_dataset(d, parallelism=parallelism))
        sizes = [b.num_rows for b in blocks]
        assert len(blocks) == parallelism
        assert max(sizes) - min(sizes) <= 1
        want = derive_tokenized(pq.read_table(f"{d}/documents.parquet"))
        assert pa.concat_tables(blocks).equals(want)

    @pytest.mark.parametrize("parallelism", [1, 3, 7])
    def test_many_row_groups(self, ray_session, tmp_path, parallelism):
        import pyarrow.parquet as pq

        docs = pq.read_table(f"{SF}/documents.parquet")
        pq.write_table(docs, tmp_path / "documents.parquet", row_group_size=37)
        blocks = self._blocks(tokenized_dataset(str(tmp_path),
                                                parallelism=parallelism))
        assert len(blocks) == parallelism
        assert pa.concat_tables(blocks).equals(derive_tokenized(docs))

    def test_replicate_and_hot_source_equal_local_recompute(self, ray_session):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from diffdataflowmlpipelines_ray.functions.hashing import fast_hash64_array

        d, rep, frac = _sf("sf0.1"), 3, 0.3
        blocks = self._blocks(tokenized_dataset(
            d, replicate=rep, parallelism=4, hot_source_frac=frac))
        sizes = [b.num_rows // rep for b in blocks]
        assert [b.num_rows for b in blocks] == [s * rep for s in sizes]
        assert max(sizes) - min(sizes) <= 1
        docs = derive_tokenized(pq.read_table(f"{d}/documents.parquet"))
        start = 0
        for block, size in zip(blocks, sizes):
            part = docs.slice(start, size)
            start += size
            ids = [f"{r}_{i}" for r in range(rep)
                   for i in part["doc_id"].to_pylist()]
            hot = fast_hash64_array(pa.array(ids), seed=7) % np.uint64(1000) \
                < np.uint64(300)
            src = np.where(hot, "web", np.tile(
                np.asarray(part["source"].to_pylist(), dtype=object), rep))
            assert block["doc_id"].to_pylist() == ids
            assert block["source"].to_pylist() == src.tolist()
            assert block["tokens"].to_pylist() == part["tokens"].to_pylist() * rep
            assert block["n_tok"].to_pylist() == part["n_tok"].to_pylist() * rep
            assert pc.sum(pc.equal(block["source"], "web")).as_py() > 0
        assert start == docs.num_rows

    def test_hot_rows_independent_of_parallelism(self, ray_session):
        d = _sf("sf0.1")

        def hot_ids(parallelism):
            tbl = pa.concat_tables(self._blocks(tokenized_dataset(
                d, parallelism=parallelism, hot_source_frac=0.3)))
            src, ids = tbl["source"].to_pylist(), tbl["doc_id"].to_pylist()
            return {i for i, s in zip(ids, src) if s == "web"}

        assert hot_ids(1) == hot_ids(4)
        assert len(hot_ids(1)) > 0

    def test_blocks_in_file_order_on_every_call(self, ray_session):
        import pyarrow.parquet as pq

        want = [str(i) for i in pq.read_table(
            f"{SF}/documents.parquet", columns=["doc_id"])["doc_id"].to_pylist()]
        for _ in range(20):
            blocks = self._blocks(tokenized_dataset(SF, parallelism=4))
            got = [i for b in blocks for i in b["doc_id"].to_pylist()]
            assert got == want


    def test_no_metadata_task_same_dataset(self, ray_session, monkeypatch):
        """The blocks' metadata comes back from the tokenize tasks: the
        result never calls ``from_arrow_refs`` and matches what it builds."""
        import pyarrow.parquet as pq
        import ray
        import ray.data

        from diffdataflowmlpipelines_ray.sources.tokenized import epoch_datasets

        want = derive_tokenized(pq.read_table(f"{SF}/documents.parquet"))
        from_arrow_refs = ray.data.from_arrow_refs

        def refuse(refs):
            raise AssertionError("from_arrow_refs called")

        monkeypatch.setattr(ray.data, "from_arrow_refs", refuse)
        ds = tokenized_dataset(SF, parallelism=3)
        monkeypatch.undo()

        def metas(d):
            return [(m.num_rows, m.size_bytes, bundle.schema)
                    for bundle in d.iter_internal_ref_bundles()
                    for _, m in bundle.blocks]

        refs = ds.to_arrow_refs()
        assert metas(ds) == metas(from_arrow_refs(refs))
        assert [n for n, _, _ in metas(ds)] == [167, 167, 166]

        def rows(d):
            return pa.concat_tables(ray.get(d.to_arrow_refs()))

        mat = ds.materialize()
        assert rows(mat).equals(want)
        assert ds.count() == mat.count() == 500
        assert ds.schema() == mat.schema()
        assert ds.schema().base_schema == want.schema
        splits = epoch_datasets(mat, 3)
        assert [d.count() for d in splits] == [
            d.count() for d in epoch_datasets(from_arrow_refs(refs), 3)]
        assert pa.concat_tables([rows(d) for d in splits]).equals(want)


class TestIncrementalEncoderSession:
    def test_epochs_converge_to_batch(self, ray_session, tmp_path):
        """Final-state refresh == single-batch fit_transform (DD convergence)."""
        n = 60
        tbl = pa.table(
            {
                "row_id": list(range(n)),
                "x": [float(i % 13) for i in range(n)],
                "cat": [str(i % 4) for i in range(n)],
            }
        )
        sess = IncrementalEncoderSession(
            [("x", StandardScaler()), ("cat", OneHotEncoder())],
            tmp_path / "inc", num_shards=2, keep_input=True,
        )
        for e, part in enumerate(epoch_tables(tbl, 4)):
            sess.process_epoch(e, part)
        got = sess.refresh().sort_by("row_id")
        sess.close()

        from diffdataflowmlpipelines_ray.stages.multi_column import MultiColumnEncoder
        import ray.data as rd

        mce = MultiColumnEncoder([("x", StandardScaler()), ("cat", OneHotEncoder())])
        mce.fit(rd.from_arrow(tbl))
        exp = mce.transform_table(tbl, "features")
        np.testing.assert_allclose(
            np.array(got["features"].to_pylist()),
            np.array(exp["features"].to_pylist()),
        )

    def test_epoch_outputs_use_running_state(self, ray_session, tmp_path):
        # epoch 0 output is encoded with epoch-0 stats (incl. that epoch),
        # like DD's same-timestamp join
        t0 = pa.table({"row_id": [0, 1], "x": [0.0, 10.0]})
        t1 = pa.table({"row_id": [2], "x": [100.0]})
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "run", num_shards=1, keep_input=True
        )
        out0 = sess.process_epoch(0, t0)
        # epoch 0: mean 5, var 25 → (0-5)/25, (10-5)/25
        assert [v[0] for v in out0["features"].to_pylist()] == pytest.approx([-0.2, 0.2])
        out1 = sess.process_epoch(1, t1)
        # epoch 1 state: all three rows
        import numpy as np

        xs = np.array([0.0, 10.0, 100.0])
        m, v = xs.mean(), xs.var()
        assert out1["features"].to_pylist()[0][0] == pytest.approx((100.0 - m) / v)
        sess.close()

    def test_resume_skips_committed(self, ray_session, tmp_path):
        tbl = pa.table({"row_id": list(range(20)), "x": [float(i) for i in range(20)]})
        parts = epoch_tables(tbl, 4)
        s1 = IncrementalEncoderSession([("x", StandardScaler())], tmp_path / "r",
                                       num_shards=1)
        s1.process_epoch(0, parts[0])
        s1.process_epoch(1, parts[1])
        s1.close()  # "crash" after epoch 1 (checkpoint_every=1 → state at 1)
        s2 = IncrementalEncoderSession([("x", StandardScaler())], tmp_path / "r",
                                       num_shards=1)
        start = s2.resume()
        assert start == 2
        for e in range(start, 4):
            s2.process_epoch(e, parts[e])
        # final state must equal batch over all 20 rows
        assert s2.mce.config[0][1].mean_ == pytest.approx(9.5)
        assert s2.sink.committed_epochs() == [0, 1, 2, 3]
        s2.close()


class TestFlagship:
    def test_token_features(self, ray_session):
        tbl = pa.table(
            {"doc_id": ["a", "b"], "tokens": [[1, 2, 2], []],
             "n_tok": pa.array([3, 0], type=pa.int32()), "source": ["w", "w"]}
        )
        out = token_features_table(tbl, n_buckets=8)
        v = out["tok_buckets"].to_pylist()
        assert v[0][1] == 1.0 and v[0][2] == 2.0 and sum(v[0]) == 3.0
        assert sum(v[1]) == 0.0
        # fingerprint: deterministic, order-sensitive
        tbl2 = pa.table(
            {"doc_id": ["a"], "tokens": [[2, 1, 2]],
             "n_tok": pa.array([3], type=pa.int32()), "source": ["w"]}
        )
        fp2 = token_features_table(tbl2, 8)["fingerprint"].to_pylist()[0]
        assert fp2 != out["fingerprint"].to_pylist()[0]

    def test_flagship_end_to_end_sf0001(self, ray_session, tmp_path):
        res = run_flagship(SF, tmp_path / "flag", n_epochs=3, num_shards=2)
        assert res["sequences"] == 500
        assert res["output_rows"] == 500
        assert res["tokens"] > 0
        assert res["committed_epochs"] == [0, 1, 2]
        # windowed per-source aggregate: n_epochs x #sources rows committed
        import pyarrow.parquet as pq
        srcs = len(set(pq.read_table(f"{SF}/documents.parquet")["source"].to_pylist()))
        assert res["window_rows"] == 3 * srcs


class TestTokenFeaturesKernel:
    """``token_features_table`` against an ``np.add.at`` bucket count and a
    per-row FNV-1a loop, bit for bit."""

    @staticmethod
    def _reference(rows: list, n_buckets: int):
        dense = np.zeros((len(rows), n_buckets), dtype=np.float32)
        fp = []
        for i, row in enumerate(rows):
            toks = np.asarray(row, dtype=np.int64)
            np.add.at(dense[i], toks % n_buckets, 1.0)
            h = 14695981039346656037
            for t in row:
                h = ((h ^ (t & (2**64 - 1))) * 1099511628211) % 2**64
            fp.append(h - 2**64 if h >= 2**63 else h)
        return dense, fp

    def _check(self, rows: list, n_buckets: int):
        tbl = pa.table({"tokens": pa.array(rows, type=pa.list_(pa.int32()))})
        out = token_features_table(tbl, n_buckets)
        dense, fp = self._reference(rows, n_buckets)
        buckets = out["tok_buckets"].combine_chunks()
        assert buckets.type == pa.list_(pa.float32())
        got = buckets.flatten().to_numpy().reshape(len(rows), n_buckets)
        assert got.tobytes() == dense.tobytes()
        assert out["fingerprint"].type == pa.int64()
        assert out["fingerprint"].to_pylist() == fp

    # 10 takes the modulo branch, the powers of two the mask
    @pytest.mark.parametrize("n_buckets", [1, 8, 10, 64])
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 300])
    def test_matches_add_at_reference(self, n_buckets, n_rows):
        rng = np.random.default_rng(n_rows * 100 + n_buckets)
        lengths = rng.integers(0, 40, n_rows) * (rng.random(n_rows) > 0.2)
        self._check([rng.integers(-2**31, 2**31, k).tolist() for k in lengths],
                    n_buckets)

    @pytest.mark.parametrize("n_buckets", [8, 10])
    def test_equal_and_zero_length_rows(self, n_buckets):
        # ties in the length sort, empty rows between long ones, and rows
        # that are all empty
        rng = np.random.default_rng(n_buckets)
        lengths = [5, 0, 5, 5, 0, 1, 5, 0, 1]
        rows = [rng.integers(-2**31, 2**31, k).tolist() for k in lengths]
        self._check(rows, n_buckets)
        self._check([[], [], []], n_buckets)
        self._check([[-1, -2**31, 2**31 - 1]] * 4, n_buckets)


class TestEpochAggsEmptyEpoch:
    @pytest.mark.parametrize("as_dataset", [False, True])
    def test_empty_epoch_commits_typed_columns(self, ray_session, tmp_path,
                                               as_dataset):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data as rd

        full = pa.table({"row_id": np.arange(6),
                         "x": np.arange(6, dtype=np.float64),
                         "src": pa.array([3, 1, 3, 2, 1, 3], type=pa.int32())})
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "s", num_shards=1,
            archive_input=False,
            epoch_aggs=[{"name": "by_src", "key_cols": ["src"],
                         "value_col": "x",
                         "aggs": ("count", "sum", "min", "max")}])
        for e, tbl in enumerate([full, full.slice(0, 0), full]):
            sess.process_epoch(e, rd.from_arrow(tbl) if as_dataset else tbl)
        sink = sess.epoch_agg_sinks["by_src"]
        schemas = [pq.read_schema(sink.root / f["path"])
                   for e in range(3) for f in sink.manifest(e)["files"]]
        sess.close()
        want = pa.schema([("src", pa.int32()), ("window_start", pa.float64()),
                          ("window_end", pa.float64()), ("count", pa.int64()),
                          ("sum", pa.float64()), ("min", pa.float64()),
                          ("max", pa.float64()), ("epoch", pa.int64())])
        assert [sch.names for sch in schemas] == [want.names] * 3
        for sch in schemas:
            assert sch.remove_metadata().equals(want), sch
        got = sink.read_committed_table()
        assert got.num_rows == 6
        assert got.filter(pc.equal(got["epoch"], 2)).to_pydict() == {
            "src": [1, 2, 3], "window_start": [2.0] * 3,
            "window_end": [3.0] * 3, "count": [2, 1, 3],
            "sum": [5.0, 3.0, 7.0], "min": [1.0, 3.0, 0.0],
            "max": [4.0, 3.0, 5.0], "epoch": [2, 2, 2]}


class TestSessionExtras:
    def test_retraction_through_session(self, ray_session, tmp_path):
        import numpy as np

        tbl = pa.table({"row_id": [0, 1, 2], "x": [0.0, 10.0, 1000.0],
                        "diff": [1, 1, 1]})
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "retr", num_shards=1,
            weight_col="diff",
        )
        sess.process_epoch(0, tbl)
        # retract the outlier in epoch 1
        sess.process_epoch(1, pa.table({"row_id": [2], "x": [1000.0],
                                        "diff": [-1]}))
        enc = sess.mce.config[0][1]
        assert enc.mean_ == pytest.approx(5.0)  # mean of {0, 10}
        assert enc.scale_ == pytest.approx(25.0)
        sess.close()

    def test_inspect_meta_fires_on_change(self, ray_session, tmp_path):
        seen = []
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "insp", num_shards=1
        )
        sess.inspect_meta = lambda epoch, i, col, st: seen.append((epoch, col))
        sess.process_epoch(0, pa.table({"row_id": [0, 1], "x": [0.0, 2.0]}))
        sess.process_epoch(1, pa.table({"row_id": [2], "x": [4.0]}))
        # same stats again → no meta change → no new inspect call
        sess.process_epoch(2, pa.table({"row_id": [3], "x": [2.0]}))
        sess.close()
        assert seen[0] == (0, "x")
        assert (1, "x") in seen
        assert len(seen) >= 2

    def test_corrections_converge_to_recompute(self, ray_session, tmp_path):
        """DD delta-output semantics: base epoch outputs ⊕ correction deltas
        == full recompute under the final state (multiset equality)."""
        import pandas as pd

        tbl = pa.table({"row_id": list(range(12)),
                        "x": [float(i * i % 7) for i in range(12)]})
        parts = epoch_tables(tbl, 3)
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "corr", num_shards=1,
            keep_input=True,
        )
        sess.emit_corrections = True
        for e, part in enumerate(parts):
            sess.process_epoch(e, part)
        base = sess.sink.read_committed_table().to_pandas()
        corr = sess.corrections_sink.read_committed_table().to_pandas()
        final = sess.refresh().to_pandas()
        sess.close()
        assert len(corr) > 0  # meta changed every epoch (no rounding)

        def canon(df, diff_col=None):
            out = pd.DataFrame({
                "row_id": df["row_id"],
                "feat": df["features"].map(lambda v: tuple(np.round(v, 12))),
                "diff": df[diff_col] if diff_col else 1,
            })
            return out

        applied = pd.concat([canon(base), canon(corr, "diff")], ignore_index=True)
        net = applied.groupby(["row_id", "feat"])["diff"].sum()
        net = net[net != 0]
        expect = canon(final).groupby(["row_id", "feat"])["diff"].sum()
        pd.testing.assert_series_equal(
            net.sort_index(), expect.sort_index(), check_names=False
        )


class TestCrashMatrix:
    @pytest.mark.parametrize("crash_after", [0, 1, 2])
    def test_resume_from_every_epoch_boundary(self, ray_session, tmp_path,
                                              crash_after):
        """Kill after each epoch boundary; resumed run's final state and
        committed outputs must equal the clean run's exactly."""
        tbl = pa.table({"row_id": list(range(24)),
                        "x": [float(i * 7 % 11) for i in range(24)]})
        parts = epoch_tables(tbl, 4)
        root = tmp_path / f"cm{crash_after}"

        s1 = IncrementalEncoderSession([("x", StandardScaler())], root,
                                       num_shards=2)
        for e in range(crash_after + 1):
            s1.process_epoch(e, parts[e])
        s1.close()  # crash

        s2 = IncrementalEncoderSession([("x", StandardScaler())], root,
                                       num_shards=2)
        start = s2.resume()
        assert start == crash_after + 1
        for e in range(start, 4):
            s2.process_epoch(e, parts[e])
        assert s2.sink.committed_epochs() == [0, 1, 2, 3]
        # final state equals batch fit over all rows
        import ray.data as rd

        ref = StandardScaler().fit(rd.from_arrow(tbl), "x")
        assert s2.mce.config[0][1].mean_ == pytest.approx(ref.mean_)
        assert s2.mce.config[0][1].scale_ == pytest.approx(ref.scale_)
        s2.close()


class TestOneStepPerEpoch:
    """The fit apply and the due snapshot ride one ``store.step`` per
    epoch, before the encode; the checkpoint's ``DONE`` follows the
    sinks."""

    CONFIG = [("cat", OrdinalEncoder()), ("x", StandardScaler())]

    @staticmethod
    def epochs(n: int = 5) -> list:
        rng = np.random.default_rng(11)
        return [pa.table({
            "row_id": np.arange(e * 100, e * 100 + 30),
            "cat": np.array([str(int(v)) for v in rng.integers(0, 6, 30)]),
            "x": rng.normal(0.0, 3.0, 30)}) for e in range(n)]

    def test_one_store_call_per_epoch(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.streaming.state_store import (
            ShardedStateStore,
        )

        sess = IncrementalEncoderSession(self.CONFIG, tmp_path / "s",
                                         num_shards=2)
        calls = []
        for attr, fn in vars(ShardedStateStore).items():
            if callable(fn) and not attr.startswith("_"):
                bound = getattr(sess.store, attr)
                setattr(sess.store, attr,
                        lambda *a, _n=attr, _f=bound, **k: (calls.append(_n),
                                                            _f(*a, **k))[1])
        for e, t in enumerate(self.epochs()):
            calls.clear()
            sess.process_epoch(e, t)
            assert calls == ["step"], e
        sess.close()

    def test_crash_after_snapshot_before_sinks(self, ray_session, tmp_path):
        """A crash after the epoch's snapshot files are written but before
        its sinks commit resumes from the previous ``DONE`` to the sink
        contents of a clean run."""
        epochs, crash_at = self.epochs(), 2
        root = tmp_path / "crash"
        s1 = IncrementalEncoderSession(self.CONFIG, root, num_shards=2)
        commit = s1.sink.commit_tables

        def failing(epoch, *a, **k):
            if epoch == crash_at:
                raise OSError("crash before the sink commit")
            return commit(epoch, *a, **k)
        s1.sink.commit_tables = failing
        with pytest.raises(OSError):
            for e, t in enumerate(epochs):
                s1.process_epoch(e, t)
        s1.store.shutdown()
        # the crashed epoch's snapshot files are there, its DONE is not
        snap = s1.chk.epoch_dir(crash_at)
        assert sorted(p.name for p in snap.iterdir()) == ["shard-0000.bin",
                                                          "shard-0001.bin"]

        s2 = IncrementalEncoderSession(self.CONFIG, root, num_shards=2)
        assert s2.resume() == crash_at
        for e in range(crash_at, len(epochs)):
            s2.process_epoch(e, epochs[e])
        clean = IncrementalEncoderSession(self.CONFIG, tmp_path / "clean",
                                          num_shards=2)
        for e, t in enumerate(epochs):
            clean.process_epoch(e, t)
        for name in ("sink", "input_archive"):
            got = getattr(s2, name).read_committed_table()
            want = getattr(clean, name).read_committed_table()
            assert got.sort_by("row_id").equals(want.sort_by("row_id")), name
        assert s2.chk.latest() == clean.chk.latest() == len(epochs) - 1
        s2.close()
        clean.close()


class TestStreamingSlotSemantics:
    def test_new_category_gets_next_slot_prior_slots_stable(self, ray_session,
                                                            tmp_path):
        """Streaming OneHot: epoch boundaries never reshuffle existing slots;
        new categories append (integer_assignment_aggregate.rs:43-50)."""
        sess = IncrementalEncoderSession([("cat", OneHotEncoder())],
                                         tmp_path / "slots", num_shards=1)
        sess.process_epoch(0, pa.table({"row_id": [0, 1], "cat": ["a", "b"]}))
        m0, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        sess.process_epoch(1, pa.table({"row_id": [2], "cat": ["c"]}))
        m1, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        assert {k: m1[k] for k in m0} == m0  # prior slots unchanged
        assert m1["c"] == max(m0.values()) + 1
        sess.close()

    def test_freed_slot_reused_after_retraction(self, ray_session, tmp_path):
        sess = IncrementalEncoderSession([("cat", OneHotEncoder())],
                                         tmp_path / "free", num_shards=1,
                                         weight_col="diff")
        sess.process_epoch(0, pa.table({"row_id": [0, 1, 2],
                                        "cat": ["a", "b", "c"],
                                        "diff": [1, 1, 1]}))
        sess.process_epoch(1, pa.table({"row_id": [1], "cat": ["b"],
                                        "diff": [-1]}))
        m1, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        assert "b" not in m1
        sess.process_epoch(2, pa.table({"row_id": [3], "cat": ["d"],
                                        "diff": [1]}))
        m2, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        assert m2["d"] == 1  # b's freed slot reused (LIFO free list)
        sess.close()

    def test_count_vectorizer_streaming_retraction(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.stages.encoders import CountVectorizer

        sess = IncrementalEncoderSession([("text", CountVectorizer())],
                                         tmp_path / "cvr", num_shards=1,
                                         weight_col="diff")
        sess.process_epoch(0, pa.table({"row_id": [0, 1],
                                        "text": ["aa bb", "bb cc"],
                                        "diff": [1, 1]}))
        v0, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        assert set(v0) == {"aa", "bb", "cc"}
        # retract the only doc containing 'aa'
        sess.process_epoch(1, pa.table({"row_id": [0], "text": ["aa bb"],
                                        "diff": [-1]}))
        v1, _ = sess.mce.config[0][1].acc_.get_map_and_len()
        assert "aa" not in v1 and "bb" in v1 and "cc" in v1
        sess.close()

    def test_empty_epoch_is_harmless(self, ray_session, tmp_path):
        sess = IncrementalEncoderSession([("x", StandardScaler())],
                                         tmp_path / "empty", num_shards=1)
        sess.process_epoch(0, pa.table({"row_id": [0, 1], "x": [1.0, 3.0]}))
        empty = pa.table({"row_id": pa.array([], type=pa.int64()),
                          "x": pa.array([], type=pa.float64())})
        sess.process_epoch(1, empty)  # must not crash or disturb state
        assert sess.mce.config[0][1].mean_ == pytest.approx(2.0)
        assert sess.sink.committed_epochs() == [0, 1]
        sess.close()


class TestPreTransformInFit:
    """pre_transform_in_fit=True: a stateful encoder fits on a column the
    pre_transform DERIVES (TF-IDF over a vectorizer's output) — retraction
    rows re-derive the identical vector so the negative partial cancels the
    original DF contribution exactly."""

    def _mk(self, tmp_path, name, num_shards=1):
        from diffdataflowmlpipelines_ray.stages.encoders import (
            CountVectorizer, TfidfTransformer)
        from diffdataflowmlpipelines_ray.state.aggregates import (
            PositionAssignmentAgg)

        cv = CountVectorizer().load_accumulator(
            PositionAssignmentAgg.from_sorted_values({"aa", "bb", "cc", "dd"}))
        sess = IncrementalEncoderSession(
            [("vec", TfidfTransformer(reference_compat=False))],
            tmp_path / name, num_shards=num_shards, weight_col="diff",
            pre_transform=lambda t: cv.transform_table(t, "text", "vec"),
            pre_transform_in_fit=True)
        return cv, sess

    def test_retraction_cancels_df_exactly(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.stages.encoders import TfidfTransformer

        cv, sess = self._mk(tmp_path, "tf1")
        docs = ["aa bb", "bb cc", "aa aa cc", "dd"]
        sess.process_epoch(0, pa.table({
            "row_id": list(range(4)), "text": docs, "diff": [1] * 4}))
        # retract doc 0 and doc 3
        sess.process_epoch(1, pa.table({
            "row_id": [0, 3], "text": ["aa bb", "dd"], "diff": [-1, -1]}))
        tf = sess.mce.config[0][1]
        # live corpus: {"bb cc", "aa aa cc"} → df: aa=1 bb=1 cc=2 dd=0
        assert tf.n_docs_ == 2
        # width is the slot-map CAPACITY (×1.5 growth); slots 0-3 are the vocab
        np.testing.assert_array_equal(tf.freq_[:4], [1, 1, 2, 0])
        assert not tf.freq_[4:].any()
        # batch fit over the live docs only must be bit-identical
        batch = TfidfTransformer(reference_compat=False)
        live = cv.transform_table(
            pa.table({"text": ["bb cc", "aa aa cc"]}), "text", "vec")
        batch.load_accumulator(batch.make_partial(live, "vec"))
        np.testing.assert_array_equal(tf.freq_, batch.freq_)
        assert tf.n_docs_ == batch.n_docs_
        sess.close()

    def test_dataset_epoch_applies_pre_in_fit(self, ray_session, tmp_path):
        import ray.data as rd

        cv, sess = self._mk(tmp_path, "tf2", num_shards=2)
        tbl = pa.table({
            "row_id": list(range(6)),
            "text": ["aa bb", "bb cc", "cc", "aa", "dd dd", "bb"],
            "diff": [1, 1, 1, 1, 1, 1],
        })
        sess.process_epoch(0, rd.from_arrow(tbl))
        tf = sess.mce.config[0][1]
        assert tf.n_docs_ == 6
        np.testing.assert_array_equal(tf.freq_[:4], [2, 3, 2, 1])
        assert not tf.freq_[4:].any()
        sess.close()

    def test_default_fit_skips_pre(self, ray_session, tmp_path):
        """pre_transform_in_fit defaults False: fit sees raw columns only
        (the flagship path — derivation cost is paid once, in encode)."""
        sess = IncrementalEncoderSession(
            [("x", StandardScaler())], tmp_path / "tf3", num_shards=1,
            pre_transform=lambda t: t.append_column(
                "derived", pa.array([0.0] * len(t))))
        sess.process_epoch(0, pa.table({"row_id": [0, 1], "x": [1.0, 3.0]}))
        assert sess.mce.config[0][1].mean_ == pytest.approx(2.0)
        sess.close()


def _files(root):
    """{path: (inode, mtime_ns)} of every data and manifest file under root
    (checkpoints excluded: each epoch re-saves them by design)."""
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in root.rglob("*")
            if p.is_file() and "_checkpoints" not in p.parts}


class TestDatasetEpochs:
    """Dataset epochs run the same block kernels as Table epochs, as one
    task per block, over a single execution of the upstream."""

    @staticmethod
    def _counting(tbl, calls, batch_format="pyarrow"):
        """A lazy Dataset over ``tbl`` whose UDF leaves one file in
        ``calls`` per block it processes."""
        import uuid

        import ray.data as rd

        calls.mkdir(exist_ok=True)

        def udf(t):
            (calls / uuid.uuid4().hex).touch()
            return t

        return rd.from_arrow(tbl).map_batches(udf, batch_size=None,
                                              batch_format=batch_format)

    def test_four_block_epoch_equals_table_epoch(self, ray_session, tmp_path):
        import ray.data as rd

        # 4 blocks of 8 rows, each holding x = 0..7 and all four categories:
        # every partial and every merge is exact in floating point and
        # assigns the same one-hot slots, so a bit-level comparison with the
        # single-partial Table path is meaningful.  The diff column makes
        # the categorical partials count rows (unweighted ones count
        # distinct values per partial, which depends on the block split)
        n = 32
        tbl = pa.table({"row_id": np.arange(n),
                        "x": (np.arange(n) % 8).astype(np.float64),
                        "cat": [str(i % 4) for i in range(n)],
                        "diff": np.ones(n, dtype=np.int64)})
        outs = {}
        for label, data in (("table", tbl),
                            ("dataset", rd.from_arrow(tbl).repartition(4))):
            sess = IncrementalEncoderSession(
                [("x", StandardScaler()), ("cat", OneHotEncoder())],
                tmp_path / label, num_shards=1, weight_col="diff",
                epoch_aggs=[{"name": "by_cat", "key_cols": ["cat"],
                             "value_col": "x",
                             "aggs": ("count", "sum", "min", "max")}])
            sess.process_epoch(0, data)
            outs[label] = (
                sess.read_epoch_output(0).sort_by("row_id"),
                [enc.acc_ for _, enc in sess.mce.config],
                sess.epoch_agg_sinks["by_cat"].read_committed_table(),
                sess.sink.manifest(0),
                sess.input_archive.read_committed_table().sort_by("row_id"),
            )
            sess.close()
        t_out, t_state, t_agg, _, t_in = outs["table"]
        d_out, d_state, d_agg, d_manifest, d_in = outs["dataset"]
        assert len(d_manifest["files"]) == 4  # one output part per block
        assert d_out.equals(t_out)
        assert d_state == t_state  # accumulator __dict__ equality: bit-exact
        assert d_agg.equals(t_agg)
        assert d_in.equals(t_in)

    def test_lazy_upstream_runs_once_per_epoch(self, ray_session, tmp_path):
        tbl = pa.table({"row_id": np.arange(40),
                        "x": np.arange(40, dtype=np.float64)})
        calls = tmp_path / "calls"
        sess = IncrementalEncoderSession([("x", StandardScaler())],
                                         tmp_path / "lazy", num_shards=1,
                                         archive_input=False)
        for e in range(2):  # pandas blocks: the block task converts them
            sess.process_epoch(e, self._counting(tbl, calls, "pandas"))
            assert len(list(calls.iterdir())) == e + 1
        assert sess.sink.committed_epochs() == [0, 1]
        assert sess.sink.total_rows() == 80
        sess.close()

    def test_replay_of_committed_epoch_writes_nothing(self, ray_session,
                                                       tmp_path):
        import ray.data as rd

        tbl = pa.table({"row_id": np.arange(24),
                        "x": np.arange(24, dtype=np.float64)})
        root = tmp_path / "replay"
        sess = IncrementalEncoderSession([("x", StandardScaler())], root,
                                         num_shards=1)
        sess.process_epoch(0, rd.from_arrow(tbl).repartition(3))
        before = _files(root)
        m = sess.process_epoch(0, rd.from_arrow(tbl).repartition(3))
        assert _files(root) == before
        assert m == sess.sink.manifest(0)
        assert sess.mce.config[0][1].acc_.count == 24  # state applied once
        sess.close()

    def test_archived_dataset_epochs_refresh_to_batch(self, ray_session,
                                                      tmp_path):
        import ray.data as rd

        from diffdataflowmlpipelines_ray.stages.multi_column import (
            MultiColumnEncoder)

        n = 60
        tbl = pa.table({"row_id": np.arange(n),
                        "x": [float(i * 7 % 13) for i in range(n)],
                        "cat": [str(i % 5) for i in range(n)]})
        cfg = [("x", StandardScaler()), ("cat", OneHotEncoder())]
        calls = tmp_path / "calls"
        sess = IncrementalEncoderSession(cfg, tmp_path / "arch", num_shards=1,
                                         keep_input=True)
        parts = epoch_tables(tbl, 3)
        for e, part in enumerate(parts):
            sess.process_epoch(e, self._counting(part, calls).repartition(2))
            # the upstream (one input block) ran once; the archive holds
            # the epoch exactly once, one part per repartitioned block
            assert len(list(calls.iterdir())) == e + 1
            m = sess.input_archive.manifest(e)
            assert (m["rows"], len(m["files"])) == (part.num_rows, 2)
        got = sess.refresh().sort_by("row_id")
        sess.close()
        mce = MultiColumnEncoder([("x", StandardScaler()),
                                  ("cat", OneHotEncoder())])
        mce.fit(rd.from_arrow(tbl))
        exp = mce.transform_table(tbl, "features")
        np.testing.assert_allclose(np.array(got["features"].to_pylist()),
                                   np.array(exp["features"].to_pylist()))
