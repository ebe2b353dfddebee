"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric ``BENCHMARK.json`` names is printed, with its unit,
for every workload in both modes, and that each workload's correctness check
trips on a deliberately corrupted output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = 0.02


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", str(TOY)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    res = run_bench(workload, trace)
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "windowed_join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout.strip() == ""


@pytest.fixture(scope="module")
def ray_local():
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    yield
    ray.shutdown()


def rewrite_last_file(sink, edit) -> None:
    path = [f for f in sink.committed_files() if pq.read_metadata(f).num_rows][-1]
    pq.write_table(edit(pq.read_table(path)), path)


def drop_a_row(session):
    rewrite_last_file(session.sink, lambda t: t.slice(1))


def bump_a_window_count(session):
    def edit(t):
        i = t.schema.get_field_index("count")
        return t.set_column(i, "count", pc.add(t["count"], 1))
    rewrite_last_file(session.sinks["win"], edit)


def drop_a_join_match(session):
    rewrite_last_file(session.sinks["j"], lambda t: t.slice(1))


@pytest.mark.parametrize("workload,corrupt", [
    ("tokenized_stream", drop_a_row),
    ("windowed_join", bump_a_window_count),
    ("windowed_join", drop_a_join_match),
])
def test_check_trips_on_corrupted_output(ray_local, tmp_path, workload, corrupt):
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload](seed=5, size=TOY)
    wl.setup(tmp_path)
    for e in range(1, 6):
        wl.step(e, wl.prepare(e))
    session = wl.session
    wl.close()
    assert wl.check(session) == []
    corrupt(session)
    assert wl.check(session)
