"""One benchmark run, executed in a child process of ``run.py``.

Starts Ray, sets the workload up ``SETUP_REPS`` times (the last set-up is
kept), drives the closed epoch loop for ``--seconds``, closes the session and
checks its outputs.  With ``--trace 1`` it then repeats the same epochs on a
fresh session with the tracer installed and reports per-layer metrics plus
the tracing overhead.  Every computed metric goes to the ``--result`` JSON
file; ``run.py`` selects the ones ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import NUM_SHARDS, WORKLOADS

SETUP_REPS = 3
#: calibration CPU time spent after each epoch, as a share of the epoch's time
CAL_SHARE = 0.05
#: about the calibration's chunks per CPU-second on the 4-vCPU Xeon VM the
#: benchmark was tuned on.  It only puts ``rows_per_ref_cpu_s`` on the scale
#: of plain CPU-seconds; comparisons between runs do not depend on it
CAL_REF_CHUNKS_PER_S = 3500.0


def logical_cpus() -> int:
    """Smallest Ray CPU count that leaves one whole CPU for Ray Data tasks
    after the shard actors' fractional reservations."""
    from diffdataflowmlpipelines_ray.streaming.state_store import ShardedStateStore

    per_shard = inspect.signature(ShardedStateStore.__init__).parameters[
        "num_cpus_per_shard"].default
    return math.ceil(NUM_SHARDS * per_shard) + 1


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of this machine, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def session_cpu_s() -> float:
    """CPU seconds used so far by this process's session: the runner, Ray's
    daemons, workers and actors.

    A process's user and system time plus that of its reaped children, so a
    Ray worker that exits mid-stream still counts through the raylet.  The
    kernel leaves out time the hypervisor stole from the VM, which is what
    makes this steadier on a shared host than wall time."""
    sid, ticks = os.getsid(0), os.sysconf("SC_CLK_TCK")
    total = 0
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = Path("/proc", d, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            total += sum(int(f) for f in fields[11:15])
    return total / ticks


class Calibration:
    """A fixed mix of interpreter and numpy work, timed by its own thread's
    CPU time between epochs while the rest of the run is idle.

    A shared host's speed per CPU-second drifts by a fifth or more over tens
    of seconds as its neighbours' load changes, and moves every timed metric
    with it.  The calibration's speed, measured through the same stretch of
    time, is the yardstick that divides that drift out."""

    def __init__(self):
        self.arr = np.random.default_rng(0).random(20_000)
        self.keys = [f"k{i}" for i in range(400)]
        self.chunks = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def chunk(self) -> None:
        d: dict[str, int] = {}
        for i, k in enumerate(self.keys):
            d[k] = d.get(k, 0) + i
        np.sort(self.arr.copy())

    def run(self, budget_s: float) -> None:
        """Chunks until ``budget_s`` of CPU is spent."""
        w, spent = time.perf_counter(), 0.0
        while spent < budget_s:
            t = time.thread_time()
            self.chunk()
            spent += time.thread_time() - t
            self.chunks += 1
        self.cpu_s += spent
        self.wall_s += time.perf_counter() - w

    def speed(self) -> float:
        """Chunks per CPU-second."""
        return self.chunks / self.cpu_s


def stream(wl, seconds: float | None = None, epochs: int | None = None,
           tracer: Tracer | None = None) -> dict:
    """Closed loop from epoch 1: prepare the input, call the epoch step and
    wait for it to commit, until the time or epoch budget is spent.  The
    calibration runs after each epoch; its wall and CPU time are taken out of
    the stream's."""
    lat: list[float] = []
    rows = tokens = failed = 0
    e = 1
    cal = Calibration()
    steal0, total0 = cpu_ticks()
    cpu0 = session_cpu_s()
    t0 = time.perf_counter()
    while e < wl.capacity:
        if epochs is not None and e > epochs:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
        if tracer is not None:
            tracer.epoch = e
        try:
            data = wl.prepare(e)
            t = time.perf_counter()
            wl.step(e, data)
            lat.append(time.perf_counter() - t)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        rows += wl.rows(e)
        tokens += wl.tokens(e)
        e += 1
        cal.run(CAL_SHARE * lat[-1])
    wall = time.perf_counter() - t0 - cal.wall_s
    cpu = session_cpu_s() - cpu0 - cal.cpu_s
    steal1, total1 = cpu_ticks()
    return {"wall": wall, "cpu": cpu, "cal_speed": cal.speed() if cal.chunks else 0.0,
            "latencies": lat, "rows": rows, "tokens": tokens,
            "epochs": len(lat) + failed, "failed": failed,
            "steal_pct": 100.0 * (steal1 - steal0) / max(total1 - total0, 1)}


def close_and_check(wl) -> list[str]:
    session = wl.session
    wl.close()
    try:
        return wl.check(session)
    except Exception as exc:
        traceback.print_exc()
        return [f"check raised {exc!r}"]


def layer_counters(session) -> dict:
    live = 0
    for sh in session.store.stats():
        live += sum(sh["agg_keys"].values())
        live += sum(sum(v.values()) for v in sh["join_keys"].values())
    m = getattr(session, "metrics", {})
    return {"state_store.live_keys": live,
            "engine.late_dropped": m.get("late_dropped", 0),
            "engine.emitted_rows": m.get("emitted_rows", 0)}


def per_layer(tracer: Tracer, counters: dict, untraced: dict, traced: dict) -> dict:
    st = tracer.self_times()
    c = tracer.counters
    inc = tracer.inclusive
    prefix = lambda *p: (lambda n: n.startswith(p))  # noqa: E731
    over = traced["wall"] - untraced["wall"]
    return {
        "ray_data.executions": c["ray_data.executions"],
        "ray_data.exec_s": inc(prefix("ray_data.")),
        "ray_data.self_s": st["ray_data"],
        "sources.tokenize_s": inc(prefix("sources.tokenize")),
        "sources.self_s": st["sources"],
        "encoders.epoch_self_s": st["encoders"],
        "engine.epoch_self_s": st["engine"],
        "engine.partial_s": inc(prefix("engine.partial_batch")),
        "engine.join_route_s": inc(prefix("engine.shard_payloads")),
        "engine.watermark_s": inc(prefix("engine.advance_watermark")),
        "engine.late_dropped": counters["engine.late_dropped"],
        "engine.emitted_rows": counters["engine.emitted_rows"],
        "state_store.calls": c["state_store.calls"],
        "state_store.apply_s": inc(prefix("state_store.apply_")),
        "state_store.probe_s": inc(lambda n: n.startswith("state_store.") and "probe" in n),
        "state_store.sweep_s": inc(lambda n: n.startswith("state_store.")
                                   and ("sweep" in n or "expire" in n)),
        "state_store.snapshot_s": inc(prefix("state_store.dump_all")),
        "state_store.snapshot_bytes": c["state_store.snapshot_bytes"],
        "state_store.live_keys": counters["state_store.live_keys"],
        "state_store.self_s": st["state_store"],
        "sink.commits": c["sink.commits"],
        "sink.commit_s": inc(prefix("sink.commit")),
        "sink.bytes_per_row": c["sink.bytes"] / c["sink.rows"] if c["sink.rows"] else 0.0,
        "sink.checkpoint_s": inc(prefix("sink.checkpoint")),
        "sink.self_s": st["sink"],
        "trace.epochs": traced["epochs"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": over,
        "trace.overhead_pct": 100.0 * over / untraced["wall"] if untraced["wall"] else 0.0,
    }


def end_to_end(setup_s: float, res: dict) -> dict:
    return {
        "setup_s": setup_s,
        "rows_per_ref_cpu_s": (res["rows"] / res["cpu"] * CAL_REF_CHUNKS_PER_S / res["cal_speed"]
                               if res["cal_speed"] else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_times(res: dict) -> dict:
    """Wall-clock throughput and epoch latency: what a user on a quiet
    machine sees, but at the mercy of the host's load on a shared one."""
    lat_ms = np.array(res["latencies"]) * 1e3
    out = {"rows_per_s": round(res["rows"] / res["wall"], 1),
           "epoch_p50_ms": round(float(np.percentile(lat_ms, 50)), 3) if lat_ms.size else None}
    # a p95 rests on at least ten samples beyond it only from 200 epochs
    if lat_ms.size >= 200:
        out["epoch_p95_ms"] = round(float(np.percentile(lat_ms, 95)), 3)
    return out


def run(args, ray_start_s: float) -> dict:
    wl = WORKLOADS[args.workload](args.seed, args.size)
    work = Path(args.work)
    setups = []
    for rep in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup(work / f"setup{rep}")
        setups.append(time.perf_counter() - t)
        if rep < SETUP_REPS - 1:
            wl.teardown()
    setup_s = ray_start_s + statistics.median(setups)
    gc.collect()  # set-up garbage is not the stream's to collect

    res = stream(wl, seconds=args.seconds)
    metrics = end_to_end(setup_s, res)
    res["errors"] = close_and_check(wl)
    passes = [res]
    if args.trace:
        wl.teardown()
        wl.setup(work / "traced")
        tracer = Tracer().install()
        try:
            traced = stream(wl, epochs=res["epochs"], tracer=tracer)
        finally:
            tracer.uninstall()
        counters = layer_counters(wl.session)
        traced["errors"] = close_and_check(wl)
        passes.append(traced)
        metrics.update(per_layer(tracer, counters, res, traced))
        tracer.dump(Path(args.trace_out))
    wl.teardown()

    errors = [e for p in passes for e in p["errors"]]
    failed = sum(p["failed"] + bool(p["errors"]) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p["epochs"] for p in passes) + len(passes),
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "info": {
            "workload": args.workload, "seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
            "ray_logical_cpus": logical_cpus(), "shards": NUM_SHARDS,
            "epochs": res["epochs"], "rows": res["rows"],
            "stream_s": round(res["wall"], 3),
            "stream_cpu_s": round(res["cpu"], 3),
            "rows_per_cpu_s": round(res["rows"] / res["cpu"], 1),
            "calibration_chunks_per_cpu_s": round(res["cal_speed"], 1),
            **wall_times(res),
            "tokens_per_s": round(res["tokens"] / res["wall"], 1),
            "setup_reps_s": [round(s, 3) for s in setups],
            "ray_start_s": round(ray_start_s, 3),
            # CPU time the hypervisor took from this machine during the stream
            "host_steal_pct": round(res["steal_pct"], 2),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", type=float, default=1.0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    import ray
    from ray.data import DataContext

    t = time.perf_counter()
    ray.init(address="local", num_cpus=logical_cpus(), include_dashboard=False,
             logging_level="ERROR", _temp_dir=args.ray_tmp,
             object_store_memory=512 << 20)
    ray_start_s = time.perf_counter() - t
    DataContext.get_current().enable_progress_bars = False
    try:
        out = run(args, ray_start_s)
    finally:
        ray.shutdown()
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
