"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``) in a
child process under a timeout, so a hung epoch becomes a counted failure
instead of a stalled run, then stops every process the child left behind.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes stays under the checkout (``.perfbench_out/`` and
Ray's temp dir ``.pbr/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 160
#: Ray puts AF_UNIX sockets (at most 107 bytes) about 70 bytes below its
#: temp dir, so the temp dir path must stay short
MAX_RAY_TMP = 36


def group_alive(pgid: int) -> bool:
    """Any process of the group that is not a zombie."""
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = Path("/proc", d, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid: int) -> None:
    """Kill what is left of the child's process group and wait for it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if not group_alive(pgid):
                return
            time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="input size factor (1.0 for measured runs)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "diffdataflowmlpipelines_ray" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: package diffdataflowmlpipelines_ray or BENCHMARK.json "
              f"not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".perfbench_out"
    run_dir = out_dir / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ray_tmp = ROOT / ".pbr"
    if len(str(ray_tmp)) > MAX_RAY_TMP:
        ray_tmp = Path(tempfile.mkdtemp(prefix="pbr"))
    result_path = run_dir / "result.json"
    trace_path = out_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, "-m", "perfbench.runner",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", str(args.size), "--work", str(run_dir / "work"),
           "--ray-tmp", str(ray_tmp), "--result", str(result_path),
           "--trace-out", str(trace_path)]
    # the child's output goes to stderr: our stdout ends with the result
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    timed_out = False
    try:
        proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        stop_group(proc.pid)
        proc.wait()

    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)

    if result is None and not timed_out:
        print(f"perfbench: run failed (exit code {proc.returncode}) without a result",
              file=sys.stderr)
        return 1
    if result is None:
        # a hang is a counted failure, not a stalled benchmark
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "errors": [f"timed out after {TIMEOUT_S} s"], "info": {}}
    metrics, missing = {}, []
    for m in wanted:
        if m["name"] not in result["metrics"]:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": result["metrics"].get(m["name"], 0.0),
                              "unit": m["unit"]}
    errors = result["errors"] + [f"metric {n} not reported" for n in missing]
    info = dict(result["info"], error_rate=result["failed"] / result["attempted"],
                errors=errors)
    print("perfbench " + json.dumps(info))
    print(json.dumps({"correct": result["correct"] and not missing,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
