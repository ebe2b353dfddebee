"""The benchmark's workloads: seeded input generators, the session each one
drives, and the checks that its committed outputs are correct.

Every workload is a closed loop with one caller, the driver's epoch loop,
which waits for each epoch to commit before it sends the next.  A workload
object goes through ``setup`` (input generation, session construction and one
warm-up epoch), then ``prepare``/``step`` per measured epoch, then ``close``
and ``check``.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import functools
import math
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

#: one state-store actor: on a few shared cores a second shard adds a process
#: that contends for them, which made the measured CPU per row less steady
#: and larger without making the stream faster
NUM_SHARDS = 1


class Workload:
    name = ""
    #: epochs the generator prepared; ``prepare`` refuses to go past them
    capacity = 0

    def __init__(self, seed: int, size: float = 1.0):
        self.seed = seed
        self.size = size
        self.session = None
        self.root: Path | None = None
        self.fed: list[int] = []  # input-pool index fed at each epoch

    def setup(self, root: Path) -> None:
        """Generate inputs, construct the session and run epoch 0."""
        self.root = root
        self.fed = []
        self.generate()
        self.open()
        self.step(0, self.prepare(0))

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def teardown(self) -> None:
        self.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)

    def rows(self, epoch: int) -> int:
        raise NotImplementedError

    def tokens(self, epoch: int) -> int:
        return 0


# --------------------------------------------------------------------------
# tokenized_stream
# --------------------------------------------------------------------------

SOURCES = ("web", "news", "wiki", "books", "code", "forum")


class TokenizedStream(Workload):
    """Generated documents → ``sources.tokenized`` → IncrementalEncoderSession
    over Dataset epochs → ExactlyOnceParquetSink: the flagship pipeline's
    shape, one tokenized Parquet directory per epoch."""

    name = "tokenized_stream"
    pool = 4  # distinct generated epochs, fed in turn

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        docs = max(16, int(6000 * self.size))
        vocab = [f"w{i:x}" for i in range(4096)]
        word_len = np.array([len(w) for w in vocab])
        src_p = np.array([0.35, 0.2, 0.15, 0.12, 0.1, 0.08])
        self.n_tok: list[np.ndarray] = []
        self.dirs: list[Path] = []
        for p in range(self.pool):
            n_tok = rng.poisson(48, docs) + 1
            words = (rng.zipf(1.3, int(n_tok.sum())) % len(vocab)).tolist()
            # one buffer of space-terminated words; document i is the run of
            # its n_tok[i] words, so the offsets are cumulative word lengths
            ends = np.cumsum(word_len[words] + 1)
            offsets = np.concatenate([[0], ends[np.cumsum(n_tok) - 1]]).astype(np.int32)
            data = (" ".join([vocab[w] for w in words]) + " ").encode()
            tbl = pa.table({
                "doc_id": [f"p{p}-{i}" for i in range(docs)],
                "text": pa.StringArray.from_buffers(docs, pa.py_buffer(offsets), pa.py_buffer(data)),
                "source": np.array(SOURCES)[rng.choice(len(SOURCES), docs, p=src_p)],
            })
            d = self.root / "docs" / f"p{p}"
            d.mkdir(parents=True, exist_ok=True)
            pq.write_table(tbl, d / "documents.parquet")
            self.n_tok.append(n_tok)
            self.dirs.append(d)
        self.capacity = math.inf

    def open(self) -> None:
        from diffdataflowmlpipelines_ray.pipelines.flagship import token_features_table
        from diffdataflowmlpipelines_ray.stages.encoders import OneHotEncoder, StandardScaler
        from diffdataflowmlpipelines_ray.streaming.encoders import IncrementalEncoderSession

        self.session = IncrementalEncoderSession(
            config=[("n_tok", StandardScaler(round_to=(-2, 0))),
                    ("source", OneHotEncoder())],
            root=self.root / "session", num_shards=NUM_SHARDS,
            keep_input=False, output_cols=["n_tok", "source", "fingerprint"],
            pre_transform=functools.partial(token_features_table, n_buckets=64),
            archive_input=False,
            epoch_aggs=[{"name": "tokens_by_source", "key_cols": ["source"],
                         "value_col": "n_tok", "aggs": ("count", "sum")}],
        )

    def prepare(self, epoch: int):
        """Tokenize the epoch's documents (a Ray Data execution)."""
        from diffdataflowmlpipelines_ray.sources import tokenized

        p = epoch % self.pool
        self.fed.append(p)
        return tokenized.tokenized_dataset(str(self.dirs[p])).materialize()

    def step(self, epoch: int, data) -> None:
        self.session.process_epoch(epoch, data, lineage={"pool": self.fed[epoch]})

    def rows(self, epoch: int) -> int:
        return int(self.n_tok[self.fed[epoch]].size)

    def tokens(self, epoch: int) -> int:
        return int(self.n_tok[self.fed[epoch]].sum())

    def check(self, session) -> list[str]:
        errs = []
        sink = session.sink
        n = len(self.fed)
        if sink.committed_epochs() != list(range(n)):
            errs.append(f"manifests {sink.committed_epochs()[:5]}... != one per epoch 0..{n - 1}")
        for e in range(n):
            if sink.is_committed(e) and sink.manifest(e)["rows"] != self.rows(e):
                errs.append(f"epoch {e}: manifest rows {sink.manifest(e)['rows']} != {self.rows(e)}")
        n_tok = pa.concat_arrays([
            pq.read_table(f, columns=["n_tok"])["n_tok"].combine_chunks()
            for f in sink.committed_files()]) if sink.committed_files() else pa.array([])
        want = np.concatenate([self.n_tok[p] for p in self.fed])
        if len(n_tok) != want.size:
            errs.append(f"committed rows {len(n_tok)} != generated {want.size}")
        if int(np.asarray(n_tok, dtype=np.int64).sum()) != int(want.sum()):
            errs.append(f"committed sum(n_tok) {np.asarray(n_tok).sum()} != generated {want.sum()}")
        acc = session.mce.config[0][1].acc_
        mean, var = float(want.mean()), float(want.var())
        if acc.count != want.size or not math.isclose(acc.mean, mean, rel_tol=1e-9) \
                or not math.isclose(acc.m2 / acc.count, var, rel_tol=1e-9):
            errs.append(f"fitted n_tok (count, mean, var) = ({acc.count}, {acc.mean}, "
                        f"{acc.m2 / max(acc.count, 1)}) != numpy ({want.size}, {mean}, {var})")
        return errs


# --------------------------------------------------------------------------
# windowed_join
# --------------------------------------------------------------------------


class WindowedJoin(Workload):
    """StreamSession with a tumbling-window KeyedAggregation and a
    retention-bounded StreamJoin over Zipf-skewed keys, with out-of-order and
    late events and a watermark advance every epoch."""

    name = "windowed_join"
    span = 10.0        # event time covered by one epoch
    window = 10.0      # tumbling window size: one window closes per epoch
    lag = 5.0          # watermark trails the epoch's end by this much
    retention = 20.0   # join buffer retention behind the watermark
    delay = 15.0       # max lateness of an out-of-order event
    keys = 4000

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n_ep = 800
        nl, nr = max(8, int(1500 * self.size)), max(2, int(150 * self.size))
        key_p = 1.0 / np.arange(1, self.keys + 1) ** 0.8
        key_p /= key_p.sum()
        perm = rng.permutation(self.keys)
        ts = np.repeat(np.arange(n_ep) * self.span, nl) + rng.uniform(0, self.span, n_ep * nl)
        ooo = rng.random(ts.size) < 0.1
        ts[ooo] -= rng.uniform(0, self.delay, int(ooo.sum()))
        self.left = pa.table({
            "k": perm[rng.choice(self.keys, n_ep * nl, p=key_p)].astype(np.int64),
            "ts": ts,
            "v": rng.integers(1, 100, n_ep * nl).astype(np.float64),
            "eid": np.arange(n_ep * nl, dtype=np.int64),
        })
        self.right = pa.table({
            "k": perm[rng.choice(self.keys, n_ep * nr, p=key_p)].astype(np.int64),
            "rts": np.repeat(np.arange(n_ep) * self.span, nr) + rng.uniform(0, self.span, n_ep * nr),
            "rid": np.arange(n_ep * nr, dtype=np.int64),
        })
        self.nl, self.nr = nl, nr
        self.watermarks = list((np.arange(n_ep) + 1) * self.span - self.lag)
        self.capacity = n_ep

    def open(self) -> None:
        from diffdataflowmlpipelines_ray.streaming.engine import (
            KeyedAggregation, StreamJoin, StreamSession, WindowSpec)

        s = StreamSession(self.root / "session", num_shards=NUM_SHARDS)
        s.add(KeyedAggregation(name="win", input="ev", key_cols=["k"], value_col="v",
                               ts_col="ts", aggs=("count", "sum"),
                               window=WindowSpec.tumbling(self.window)))
        s.add(StreamJoin(name="j", left_input="ev", right_input="ref",
                         left_key=["k"], right_key=["k"], left_cols=["eid"],
                         right_cols=["rid"], left_ts="ts", right_ts="rts",
                         retention=self.retention))
        self.session = s

    def prepare(self, epoch: int):
        if epoch >= self.capacity:
            raise IndexError("input pool exhausted")
        self.fed.append(epoch)
        return {"ev": self.left.slice(epoch * self.nl, self.nl),
                "ref": self.right.slice(epoch * self.nr, self.nr)}

    def step(self, epoch: int, data) -> None:
        self.session.process_epoch(epoch, data, watermark=self.watermarks[epoch])

    def rows(self, epoch: int) -> int:
        return self.nl + self.nr

    def expected(self, n: int):
        """pandas recompute of the window aggregate, late drops and join
        matches for the first ``n`` epochs, followed by a final flush."""
        left = self.left.slice(0, n * self.nl).to_pandas().assign(
            e=np.repeat(np.arange(n), self.nl))
        right = self.right.slice(0, n * self.nr).to_pandas().assign(
            e=np.repeat(np.arange(n), self.nr))
        wm_prev = np.array([-np.inf] + self.watermarks[:n - 1])
        wend = np.floor(left["ts"].to_numpy() / self.window) * self.window + self.window
        late = wend <= wm_prev[left["e"].to_numpy()]
        on_time = left[~late].assign(window_start=wend[~late] - self.window)
        win = (on_time.groupby(["k", "window_start"])
               .agg(count=("v", "size"), sum=("v", "sum")).reset_index())
        # a buffered row survives to a later epoch's probe while its event
        # time is >= (that epoch's previous watermark - retention)
        reach = int(math.ceil((self.lag + self.retention) / self.span)) + 1
        pairs = []
        for d in range(-reach, reach + 1):
            m = left.assign(er=left["e"] + d).merge(
                right, left_on=["k", "er"], right_on=["k", "e"], suffixes=("", "_r"))
            if d > 0:
                m = m[m["ts"] >= wm_prev[m["er"].to_numpy()] - self.retention]
            elif d < 0:
                m = m[m["rts"] >= wm_prev[m["e"].to_numpy()] - self.retention]
            pairs.append(m[["eid", "rid"]])
        join = pd.concat(pairs, ignore_index=True)
        return win, int(late.sum()), join

    def check(self, session) -> list[str]:
        errs = []
        n = len(self.fed)
        win, late, join = self.expected(n)
        # every value is a small integer, so float64 comparison is exact
        cols = ["k", "window_start", "count", "sum"]
        got = (session.sinks["win"].read_committed_table().to_pandas()[cols]
               .sort_values(cols[:2]).to_numpy(dtype=np.float64))
        want = win[cols].sort_values(cols[:2]).to_numpy(dtype=np.float64)
        if got.shape != want.shape or not (got == want).all():
            errs.append(f"window aggregates differ from pandas ({len(got)} vs {len(want)} rows)")
        if session.metrics["late_dropped"] != late:
            errs.append(f"late drops {session.metrics['late_dropped']} != pandas {late}")
        j = session.sinks["j"].read_committed_table().to_pandas()
        got_pairs = np.sort(j["eid"].to_numpy() * (1 << 32) + j["rid"].to_numpy())
        want_pairs = np.sort(join["eid"].to_numpy() * (1 << 32) + join["rid"].to_numpy())
        if got_pairs.size != want_pairs.size or not (got_pairs == want_pairs).all():
            errs.append(f"join matches differ from pandas ({got_pairs.size} vs {want_pairs.size})")
        if (j["diff"].to_numpy() != 1).any():
            errs.append("join emitted a retraction on an insert-only stream")
        return errs


WORKLOADS = {w.name: w for w in (TokenizedStream, WindowedJoin)}
