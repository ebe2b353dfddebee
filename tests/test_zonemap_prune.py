"""``stages/zonemap.py:zone_map_fragments``, the footer-only prune under
``zone_pruned_scan``, checked without Ray: a row group is kept exactly when
its actual [min, max] meets [lo, hi], and a group without statistics is
always kept."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from diffdataflowmlpipelines_ray.stages.zonemap import zone_map_fragments


@pytest.fixture
def files(tmp_path):
    """Two files of unsorted keys in uneven row groups."""
    rng = np.random.default_rng(7)
    paths = []
    for i, (n, rg) in enumerate([(500, 64), (300, 100)]):
        # cluster keys by position so zones differ but overlap
        k = (np.arange(n) // 50 * 40 + rng.integers(0, 60, n)).astype(
            np.int64)
        path = str(tmp_path / f"f{i}.parquet")
        pq.write_table(pa.table({"k": k, "v": k * 2}), path,
                       row_group_size=rg)
        paths.append(path)
    return paths


def _truth(paths, column, lo, hi):
    keep, skipped = [], 0
    for path in paths:
        f = pq.ParquetFile(path)
        for i in range(f.metadata.num_row_groups):
            col = f.read_row_group(i, columns=[column])[column].to_numpy()
            if col.min() <= hi and col.max() >= lo:
                keep.append((path, i))
            else:
                skipped += len(col)
    return keep, skipped


@pytest.mark.parametrize("lo,hi", [
    (-10, -1), (0, 0), (100, 140), (35, 35), (200, 260), (0, 10_000),
    (395, 420), (10_000, 20_000),
])
def test_kept_groups_are_exactly_the_overlapping_zones(files, lo, hi):
    frags, stats = zone_map_fragments(files, "k", lo, hi)
    keep, skipped = _truth(files, "k", lo, hi)
    assert frags == keep
    assert stats.files == 2
    assert stats.row_groups_total == 8 + 3
    assert stats.row_groups_read == len(keep)
    assert stats.rows_skipped_bound == skipped


def test_groups_without_statistics_are_kept(tmp_path):
    path = str(tmp_path / "nostats.parquet")
    pq.write_table(pa.table({"k": np.arange(100, dtype=np.int64)}), path,
                   row_group_size=25, write_statistics=False)
    frags, stats = zone_map_fragments([path], "k", 1000, 2000)
    assert frags == [(path, i) for i in range(4)]
    assert stats.rows_skipped_bound == 0


def test_prunes_on_the_named_column_only(files):
    # v = 2k: the range [0, 40] on v keeps fewer groups than on k
    on_v, _ = zone_map_fragments(files, "v", 0, 40)
    on_k, _ = zone_map_fragments(files, "k", 0, 40)
    assert on_v == _truth(files, "v", 0, 40)[0]
    assert set(on_v) <= set(on_k)
