"""Session CPU per epoch of a perfbench workload, split by process.

Runs one perfbench workload in process (its set-up, then ``--epochs``
measured epochs through ``prepare`` and ``step``, as perfbench's stream loop
does) and prints, per epoch, the CPU milliseconds each kind of process of
this session spent: the driver, the Ray workers that run tasks, the raylet,
the GCS, the state-store shard actors, Ray Data's ``_StatsActor`` and the
rest.  It also prints the Ray tasks, actor calls and ``ray.put`` calls the
driver made per epoch.

Like ``perfbench/runner.py:session_cpu_s`` it reads ``/proc/<pid>/stat``
only: user and system time plus that of reaped children, so a worker that
exits mid-run counts under its parent, the raylet.  The tool re-runs itself
in a new session so that only the processes it started are counted.

    python tools/session_cpu.py --workload tokenized_stream --epochs 200
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: (role, test on the process name) in match order; the name is the
#: kernel's 15-character ``comm``, which Ray sets to ``ray::<task or actor>``
ROLES = (
    ("raylet", lambda c: c == "raylet"),
    ("gcs", lambda c: c.startswith("gcs_server")),
    ("shard", lambda c: c.startswith("ray::StateShard")),
    ("stats_actor", lambda c: c.startswith("ray::_StatsActo")),
    ("workers", lambda c: c.startswith("ray::")),
)


def session_ticks() -> dict[int, tuple[str, int]]:
    """pid → (process name, CPU ticks so far) for every process of this
    session."""
    sid = os.getsid(0)
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = Path("/proc", d, "stat").read_text()
        except OSError:
            continue
        comm = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            out[int(d)] = (comm, sum(int(f) for f in fields[11:15]))
    return out


def role(pid: int, comm: str) -> str:
    if pid == os.getpid():
        return "driver"
    return next((r for r, match in ROLES if match(comm)), "other")


def cpu_by_role(before: dict, after: dict) -> dict[str, float]:
    """CPU seconds per role between two ``session_ticks`` snapshots; a
    process that exited in between is left out (a reaped worker's time
    shows under the raylet)."""
    hz = os.sysconf("SC_CLK_TCK")
    out: dict[str, float] = {}
    for pid, (comm, ticks) in after.items():
        r = role(pid, comm)
        out[r] = out.get(r, 0.0) + (ticks - before.get(pid, (comm, 0))[1]) / hz
    return out


class CallCounter:
    """Counts the driver's Ray task submissions, actor calls and
    ``ray.put`` calls while installed."""

    def __init__(self):
        self.counts = {"tasks": 0, "actor_calls": 0, "puts": 0}

    def install(self) -> "CallCounter":
        import ray
        from ray.actor import ActorMethod
        from ray.remote_function import RemoteFunction

        self._undo = []
        for owner, name, key in ((RemoteFunction, "_remote", "tasks"),
                                 (ActorMethod, "_remote", "actor_calls"),
                                 (ray, "put", "puts")):
            orig = getattr(owner, name)
            setattr(owner, name, self._counted(orig, key))
            self._undo.append((owner, name, orig))
        return self

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for owner, name, orig in self._undo:
            setattr(owner, name, orig)


def measure(workload: str, seed: int, epochs: int, work: Path) -> dict:
    import ray
    from ray.data import DataContext

    from perfbench.runner import logical_cpus
    from perfbench.workloads import WORKLOADS

    ray.init(address="local", num_cpus=logical_cpus(), include_dashboard=False,
             logging_level="ERROR", _temp_dir=str(work / "ray"),
             object_store_memory=512 << 20)
    DataContext.get_current().enable_progress_bars = False
    wl = WORKLOADS[workload](seed)
    try:
        wl.setup(work / "run")
        calls = CallCounter().install()
        before = session_ticks()
        try:
            for e in range(1, epochs + 1):
                wl.step(e, wl.prepare(e))
        finally:
            calls.uninstall()
        cpu = cpu_by_role(before, session_ticks())
        wl.teardown()
    finally:
        ray.shutdown()
    ms = {r: round(s * 1e3 / epochs, 2) for r, s in sorted(cpu.items())}
    ms["total"] = round(sum(cpu.values()) * 1e3 / epochs, 2)
    return {"workload": workload, "seed": seed, "epochs": epochs,
            "cpu_ms_per_epoch": ms,
            "per_epoch": {k: v / epochs for k, v in calls.counts.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="tokenized_stream")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--json", action="store_true", help="print one JSON line")
    args = ap.parse_args()
    if os.getsid(0) != os.getpid():
        # a session of our own: the count must not include the caller's shell
        path = [str(ROOT), *filter(None, os.environ.get(
            "PYTHONPATH", "").split(os.pathsep))]
        env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
                   PYTHONPATH=os.pathsep.join(path))
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]],
                              env=env, cwd=ROOT,
                              start_new_session=True).returncode
    with tempfile.TemporaryDirectory(prefix="scpu") as work:
        out = measure(args.workload, args.seed, args.epochs, Path(work))
    if args.json:
        print(json.dumps(out))
        return 0
    print(f"{out['workload']} seed {out['seed']}, {out['epochs']} epochs: "
          "session CPU ms per epoch")
    for r, v in out["cpu_ms_per_epoch"].items():
        print(f"  {r:<12} {v:8.2f}")
    print("  per epoch: " + ", ".join(f"{k} {v:.2f}"
                                       for k, v in out["per_epoch"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
