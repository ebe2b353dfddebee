"""In-memory span tracer that wraps the package's public functions from the
benchmark side; no package code is modified.

A span records ``(name, layer, start, end, parent, epoch)``.  The epoch the
driver loop is processing is the request id every span of that epoch shares.
Spans are recorded on the driver's main thread only: work Ray runs inside
worker processes is seen through the driver-side call that triggers it (for
example ``ExactlyOnceParquetSink.commit_dataset`` around a ``write_parquet``).

A layer's self time is the sum over its spans of the span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("sources", "encoders", "engine", "state_store", "sink", "ray_data")


class Tracer:
    """Span recorder plus counters, installed by wrapping class attributes.

    ``install()`` patches methods in place and ``uninstall()`` restores the
    originals, so one process can run an untraced and a traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.epoch: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()

    # ------------------------------------------------------------- spans
    def _open(self, name: str, layer: str) -> int | None:
        if threading.current_thread() is not self._main:
            return None
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name, "layer": layer,
            "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "epoch": self.epoch,
        })
        self._stack.append(sid)
        return sid

    def _close(self, sid: int | None) -> None:
        if sid is None:
            return
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def inside(self, layer: str) -> bool:
        return any(self.spans[s]["layer"] == layer for s in self._stack)

    # ---------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             after=None, reentrant: bool = True) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``after(result, args, kwargs)`` runs outside the span to record
        counters from the call's result.  ``reentrant=False`` records only
        the outermost call of a layer (Ray Data methods call each other)."""
        func = owner.__dict__[attr]
        label = name or f"{layer}.{attr}"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not reentrant and tracer.inside(layer):
                return func(*args, **kwargs)
            sid = tracer._open(label, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None and sid is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, func))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def install(self) -> "Tracer":
        """Wrap the public entry points of every layer the workloads use."""
        import ray.data as rd

        from diffdataflowmlpipelines_ray.streaming import engine, sink, state_store
        from diffdataflowmlpipelines_ray.streaming.encoders import IncrementalEncoderSession

        from perfbench.workloads import TokenizedStream

        c = self.counters

        # sources: building and executing an epoch's tokenize plan
        self.wrap(TokenizedStream, "prepare", "sources", "sources.tokenize")

        # Ray Data: every call that executes a plan and returns when it is
        # done (iterators return before the work, so they are not timed)
        for attr in ("materialize", "take_all", "take", "count", "sum",
                     "to_pandas", "to_arrow_refs", "write_parquet"):
            self.wrap(rd.Dataset, attr, "ray_data", reentrant=False,
                      after=lambda r, a, k: c.__setitem__(
                          "ray_data.executions", c["ray_data.executions"] + 1))

        # encoders: the incremental session's epoch step
        self.wrap(IncrementalEncoderSession, "process_epoch", "encoders")

        # engine: epoch step, partials, join routing, watermark advance
        self.wrap(engine.StreamSession, "process_epoch", "engine")
        self.wrap(engine.StreamSession, "advance_watermark", "engine")
        self.wrap(engine.KeyedAggregation, "partial_batch", "engine")
        self.wrap(engine.KeyedAggregation, "rows_to_table", "engine")
        self.wrap(engine.StreamJoin, "shard_payloads", "engine")
        self.wrap(engine.StreamJoin, "matches_to_table", "engine")

        # state store: every public method of the driver-side handle
        def store_after(attr):
            def after(result, args, kwargs):
                c["state_store.calls"] += 1
                if attr == "dump_all":
                    c["state_store.snapshot_bytes"] = float(
                        sum(len(b) for b in result.values()))
            return after

        for attr, fn in list(vars(state_store.ShardedStateStore).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                self.wrap(state_store.ShardedStateStore, attr, "state_store",
                          after=store_after(attr))

        # sink: commits (with bytes written) and checkpoints
        def commit_after(result, args, kwargs):
            root = Path(args[0].root)
            c["sink.commits"] += 1
            c["sink.rows"] += result.get("rows", 0)
            c["sink.bytes"] += sum((root / f["path"]).stat().st_size
                                   for f in result.get("files", []))

        for attr in ("commit_tables", "commit_dataset", "commit_files"):
            self.wrap(sink.ExactlyOnceParquetSink, attr, "sink",
                      "sink.commit", after=commit_after)
        self.wrap(sink.ExactlyOnceParquetSink, "sync", "sink")
        self.wrap(sink.CheckpointManager, "save", "sink", "sink.checkpoint")
        self.wrap(sink.CheckpointManager, "prune", "sink", "sink.checkpoint")
        return self

    # ----------------------------------------------------------- reports
    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s["layer"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def inclusive(self, match) -> float:
        """Total time of spans whose name satisfies ``match``, counting a
        matching span nested in another matching span once."""
        total = 0.0
        for s in self.spans:
            if not match(s["name"]):
                continue
            p = s["parent"]
            while p is not None and not match(self.spans[p]["name"]):
                p = self.spans[p]["parent"]
            if p is None:
                total += s["end"] - s["start"]
        return total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
