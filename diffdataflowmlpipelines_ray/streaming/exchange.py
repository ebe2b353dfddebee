"""Block runner and shard exchange: how both sessions run Dataset epochs.

An epoch input becomes a list of blocks once (``block_refs``): a
``ray.data.Dataset`` executes its upstream a single time and hands back its
block refs; a ``pa.Table`` is one block.  The epoch's kernels then run as
plain Ray tasks over those blocks, never as Ray Data executions:

- ``run_blocks`` runs a map-only kernel, one task per block, results in
  block order (``IncrementalEncoderSession``'s partials and encode passes,
  ``StreamSession``'s block-probe enrich plan);
- ``route_blocks`` is the keyed exchange under every ``StreamSession``
  arrangement — timely's hash exchange in the reference's Differential
  Dataflow.  A route task per block splits its block into one object per
  shard (``num_returns``) plus a small ``Summary``.  Every keyed op sends
  each shard its objects' refs in the epoch's ``StateShard.step``;
  ``shard_exchange`` adds, for the enrich probe, ``StreamDedup`` and
  ``StreamNearDup``, a reduce task per touched shard that receives that
  shard's objects in block order, makes the shard's one actor call and
  writes its sink part.
  The driver only sums the summaries and commits the parts.

An epoch thus costs one task per block plus, in ``shard_exchange``, one per
touched shard.  A kernel, route or reduce closure goes to the object store
once per epoch only when two or more tasks read it (``_shared``); one read
by a single task travels in that task's spec, which is cheaper than a put
plus a fetch (Ray still puts a large spec argument itself).

The flagship source (``sources/tokenized.py``) follows the same rule: one
plain task per block, no Ray Data execution.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable, NamedTuple

import pyarrow as pa
import ray

__all__ = ["Summary", "combine", "timed", "block_refs", "blocks_to_table",
           "run_blocks", "route_blocks", "shard_exchange"]


class Summary(NamedTuple):
    """What a block task reports to the driver: rows it dropped as late,
    its max event time, the manifest entries of the parts it wrote and, for
    a timed route (``timed``), the seconds the route ran."""
    late: int = 0
    max_ts: float = -math.inf
    entries: tuple | list = ()
    route_s: float = 0.0


def combine(summaries: Iterable[Summary]) -> Summary:
    late, max_ts, entries, route_s = 0, -math.inf, [], 0.0
    for s in summaries:
        late += s.late
        max_ts = max(max_ts, s.max_ts)
        entries.extend(s.entries)
        route_s += s.route_s
    return Summary(late, max_ts, entries, route_s)


def timed(route: Callable) -> Callable:
    """``route`` that reports its own run time as ``Summary.route_s``,
    wherever it runs (inline on the driver or in a route task)."""
    def run(block: pa.Table):
        t0 = time.perf_counter()
        parts, summary = route(block)
        return parts, summary._replace(route_s=time.perf_counter() - t0)
    return run


def _arrow(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor  # e.g. a pandas-format block

    return BlockAccessor.for_block(block).to_arrow()


def block_refs(data) -> list:
    """An epoch input's blocks: one execution of a Dataset's upstream
    (``to_arrow_refs`` would re-run a lazy plan's head for the schema), or
    the ``pa.Table`` put once as a single block."""
    if isinstance(data, pa.Table):
        return [ray.put(data)]
    return [r for b in data.iter_internal_ref_bundles() for r in b.block_refs]


def blocks_to_table(blocks: list) -> pa.Table:
    """Fetch blocks to the driver as one table (empty blocks skipped)."""
    tables = [_arrow(b) for b in ray.get(blocks)]
    rows = [t for t in tables if t.num_rows]
    if rows:
        return pa.concat_tables(rows, promote_options="default")
    return tables[0] if tables else pa.table({})


def _shared(fn: Callable, readers: int):
    """``fn`` as the tasks' argument: put once when ``readers`` tasks read
    it, inline in the one task's spec otherwise."""
    return ray.put(fn) if readers > 1 else fn


@ray.remote
def _run_block(kernel, block, tag: str):
    return kernel(_arrow(block), tag)


def run_blocks(kernel: Callable[[pa.Table, str], Any], blocks: list) -> list:
    """Run ``kernel(block, tag)`` as one task per block, results in block
    order; ``tag`` is the block's zero-padded index.  ``kernel`` goes to
    the object store only when there are two or more blocks."""
    ref = _shared(kernel, len(blocks))
    return ray.get([_run_block.remote(ref, b, f"{i:05d}")
                    for i, b in enumerate(blocks)])


@ray.remote
def _route_block(route, block, num_shards: int):
    block = _arrow(block)
    # a block without rows routes nothing (it may not even have columns)
    parts, summary = route(block) if block.num_rows else ({}, Summary())
    return (*(parts.get(s) for s in range(num_shards)),
            (sorted(parts), summary))


@ray.remote
def _reduce_shard(reduce, sid: int, *parts):
    return reduce(sid, list(parts))


def route_blocks(routes: list[tuple[Callable, list]],
                 num_shards: int) -> tuple[Summary, dict[int, list]]:
    """The route half of ``shard_exchange``: ``route(block) -> ({shard:
    object}, Summary)`` as one task per block over ``routes`` = [(route,
    blocks), …].  Returns the summed summaries and, per touched shard, the
    object refs of its objects in input-then-block order."""
    routed = []
    for route, blocks in routes:
        ref = _shared(route, len(blocks))
        routed += [_route_block.options(num_returns=num_shards + 1)
                   .remote(ref, b, num_shards) for b in blocks]
    heads = ray.get([r[-1] for r in routed])
    by_shard: dict[int, list] = {}
    for refs, (sids, _) in zip(routed, heads):
        for s in sids:
            by_shard.setdefault(s, []).append(refs[s])
    return combine(s for _, s in heads), by_shard


def shard_exchange(routes: list[tuple[Callable, list]],
                   reduce: Callable[[int, list], Any],
                   num_shards: int) -> tuple[Summary, list]:
    """One keyed exchange over ``routes`` = [(route, blocks), …].

    ``route(block) -> ({shard: object}, Summary)`` runs once per block
    with rows (``route_blocks``); ``reduce(shard, objects)`` runs once per
    touched shard with that shard's objects in input-then-block order.
    Returns the summed route summaries and the reduce results in shard
    order."""
    summary, by_shard = route_blocks(routes, num_shards)
    ref = _shared(reduce, len(by_shard))
    results = ray.get([_reduce_shard.remote(ref, s, *by_shard[s])
                       for s in sorted(by_shard)])
    return summary, results
