"""``streaming/exchange.py``: the block runner and the keyed shard exchange
under both sessions' Dataset epochs, checked on their own."""

from __future__ import annotations

import math

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from diffdataflowmlpipelines_ray.streaming.exchange import (
    Summary,
    block_refs,
    blocks_to_table,
    combine,
    route_blocks,
    run_blocks,
    shard_exchange,
)


def _tbl(lo, hi):
    return pa.table({"k": pa.array(range(lo, hi), type=pa.int64())})


def test_combine_sums_late_maxes_ts_and_concatenates_entries():
    got = combine([Summary(2, 5.0, ("a",)), Summary(), Summary(1, 9.0,
                                                               ["b", "c"])])
    assert got == Summary(3, 9.0, ["a", "b", "c"])


def test_combine_of_nothing_is_the_empty_summary():
    got = combine([])
    assert got.late == 0
    assert got.max_ts == -math.inf
    assert list(got.entries) == []


def test_block_refs_of_a_table_is_one_block(ray_session):
    t = _tbl(0, 7)
    refs = block_refs(t)
    assert len(refs) == 1
    assert blocks_to_table(refs).equals(t)


def test_block_refs_of_a_dataset_keeps_every_row(ray_session):
    ds = rd.from_arrow([_tbl(0, 3), _tbl(3, 8), _tbl(8, 10)])
    refs = block_refs(ds)
    assert len(refs) == 3
    assert blocks_to_table(refs).column("k").to_pylist() == list(range(10))


def test_blocks_to_table_reads_pandas_blocks(ray_session):
    import pandas as pd

    ds = rd.from_pandas([pd.DataFrame({"k": [1, 2]}),
                         pd.DataFrame({"k": [3]})])
    out = blocks_to_table(block_refs(ds))
    assert isinstance(out, pa.Table)
    assert out.column("k").to_pylist() == [1, 2, 3]


def test_blocks_to_table_skips_empty_blocks(ray_session):
    import ray

    empty = _tbl(0, 0)
    refs = [ray.put(empty), ray.put(_tbl(0, 2)), ray.put(empty),
            ray.put(_tbl(2, 3))]
    assert blocks_to_table(refs).column("k").to_pylist() == [0, 1, 2]
    # all blocks empty: the first one, schema intact
    only_empty = blocks_to_table([ray.put(empty), ray.put(empty)])
    assert only_empty.num_rows == 0
    assert only_empty.schema == empty.schema
    assert blocks_to_table([]).num_rows == 0


def test_run_blocks_keeps_block_order_and_tags(ray_session):
    blocks = block_refs(rd.from_arrow([_tbl(0, 4), _tbl(4, 5), _tbl(5, 9)]))

    def kernel(block, tag):
        return tag, block.num_rows, block.column("k")[0].as_py()

    assert run_blocks(kernel, blocks) == [("00000", 4, 0), ("00001", 1, 4),
                                          ("00002", 4, 5)]


@pytest.fixture
def count_puts(monkeypatch):
    """The number of ``ray.put`` calls made since the fixture started."""
    calls = []
    put = ray.put

    def counted(*args, **kwargs):
        calls.append(1)
        return put(*args, **kwargs)

    monkeypatch.setattr(ray, "put", counted)
    return calls


@pytest.mark.parametrize("n_blocks, puts", [(1, 0), (3, 1)])
def test_a_closure_is_put_only_when_several_tasks_read_it(
        ray_session, count_puts, n_blocks, puts):
    tables = [_tbl(0, 4), _tbl(4, 5), _tbl(5, 9)][:n_blocks]
    blocks = block_refs(rd.from_arrow(tables))
    count_puts.clear()

    def kernel(block, tag):
        return tag, block.column("k").to_pylist()

    assert run_blocks(kernel, blocks) == [
        (f"{i:05d}", t.column("k").to_pylist()) for i, t in enumerate(tables)]
    assert len(count_puts) == puts

    count_puts.clear()
    summary, by_shard = route_blocks([(_mod_route(2), blocks)], 2)
    assert len(count_puts) == puts
    assert sorted(summary.entries) == sorted(
        f"b{t.column('k')[0].as_py()}" for t in tables)
    got = {s: [k for obj in ray.get(refs) for k in obj]
           for s, refs in by_shard.items()}
    keys = [k for t in tables for k in t.column("k").to_pylist()]
    assert got == {s: [k for k in keys if k % 2 == s] for s in (0, 1)}


def _mod_route(num_shards, late_below=None):
    def route(block):
        keys = block.column("k").to_pylist()
        parts = {}
        for s in range(num_shards):
            mine = [k for k in keys if k % num_shards == s]
            if mine:
                parts[s] = mine
        late = 0 if late_below is None else sum(k < late_below for k in keys)
        return parts, Summary(late, float(max(keys)), (f"b{keys[0]}",))
    return route


@pytest.mark.parametrize("num_shards", [1, 3])
def test_shard_exchange_routes_each_key_to_its_shard(ray_session,
                                                     num_shards):
    blocks = block_refs(rd.from_arrow([_tbl(0, 5), _tbl(5, 12)]))

    def reduce(sid, objs):
        return sid, objs

    summary, results = shard_exchange(
        [(_mod_route(num_shards, late_below=2), blocks)], reduce, num_shards)
    assert summary.late == 2
    assert summary.max_ts == 11.0
    assert sorted(summary.entries) == ["b0", "b5"]
    assert [sid for sid, _ in results] == list(range(num_shards))
    for sid, objs in results:
        # one object per block that had keys of this shard, in block order
        assert [k for obj in objs for k in obj] == \
            [k for k in range(12) if k % num_shards == sid]


def test_shard_exchange_skips_untouched_shards(ray_session):
    blocks = block_refs(pa.table({"k": pa.array([4, 8], type=pa.int64())}))
    _, results = shard_exchange([(_mod_route(4), blocks)],
                                lambda sid, objs: (sid, objs), 4)
    # every key is 0 mod 4: one reduce, for shard 0 only
    assert results == [(0, [[4, 8]])]


def test_shard_exchange_orders_objects_input_then_block(ray_session):
    left = block_refs(rd.from_arrow([_tbl(0, 2), _tbl(2, 4)]))
    right = block_refs(_tbl(10, 12))

    def tagged(tag):
        def route(block):
            return ({0: (tag, block.column("k").to_pylist())},
                    Summary())
        return route

    _, results = shard_exchange(
        [(tagged("L"), left), (tagged("R"), right)],
        lambda sid, objs: objs, 1)
    assert results == [[("L", [0, 1]), ("L", [2, 3]), ("R", [10, 11])]]


def test_shard_exchange_never_routes_an_empty_block(ray_session):
    import ray

    blocks = [ray.put(pa.table({})), ray.put(_tbl(0, 0)),
              ray.put(_tbl(1, 3))]

    def route(block):
        assert block.num_rows > 0
        return {0: block.column("k").to_pylist()}, Summary(0, 2.0, ())

    summary, results = shard_exchange([(route, blocks)],
                                      lambda sid, objs: objs, 2)
    assert results == [[[1, 2]]]
    assert summary.max_ts == 2.0
