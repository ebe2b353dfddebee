"""Exactly-once Parquet sink with per-epoch/partition manifests + checkpoints.

The reference has NO sink — results are observed via ``inspect`` printing and
the probe frontier (src/main.rs:71-72); this module is the genuinely new
surface the north rule requires (SURVEY §2.5 "sink").

Design (SURVEY §4 "Exactly-once output"):

- Data lives under ``root/data/epoch=NNNNNNNN/part-*.parquet``.
- Every file the sink writes — data parts, epoch/compaction/consolidation
  manifests, the durable watermark, checkpoint blobs and their ``DONE``
  marker — goes through one atomic writer, ``_write_atomic``: same-dir
  temp file → write → optional ``_fsync_file`` → rename over the target.
  Only ``compact()``'s streamed row-group file bypasses it.
- There is one Parquet part writer, ``write_epoch_part``: it serializes a
  table to memory once, hashes that buffer and writes it atomically,
  returning the manifest entry (path, rows, sha256).  ``commit_tables``
  runs it on the driver, once per table; ``commit_dataset`` and
  ``consolidate``'s Ray tier run it in workers, one task per block
  (``exchange.run_blocks``); both sessions' Ray tasks call it directly, and
  the state shards write their epoch output with it inside
  ``StateShard.step``.
- A **commit** is the atomic replace of ``root/_manifests/epoch-N.json``
  listing every file with row count + sha256 (entries written before
  hashing moved into the writer may carry only a size; readers accept
  both).  ``commit_tables``/``commit_files``/``commit_dataset`` share one
  commit core, so each makes the same flushes.  Readers (and resume)
  trust ONLY manifests; stray files from a crashed attempt are invisible
  and simply overwritten on retry.
- Commits are idempotent: re-committing an already-committed epoch is a
  no-op returning the existing manifest, so a restarted driver can blindly
  replay uncommitted epochs.
- The **frontier** (probe analogue, src/main.rs:86) is "epoch e is committed";
  ``committed_epochs()`` exposes it.
- Checkpoints pair a sink frontier with a state-store snapshot so a killed
  job resumes from the last committed epoch with matching state
  (``CheckpointManager``).  Each shard writes its own file
  (``write_shard_file``); the driver's ``DONE`` marker completes the
  checkpoint, and the files of a complete checkpoint never change.

At cluster scale each epoch directory holds one file per output partition —
a failed run skips finished epochs entirely and re-runs only uncommitted
ones; no giant single file is ever produced.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["ExactlyOnceParquetSink", "CheckpointManager", "write_epoch_part",
           "write_shard_file"]

ENGINE_VERSION = "0.1.0"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_file(path: Path) -> None:
    """fdatasync: flushes file data + the metadata needed to read it back
    (including size) — all this sink requires for durability; skips the
    timestamp-only metadata flush that makes fsync ~3× slower here."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fdatasync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Durably persist a rename: fsync the containing directory (POSIX —
    without this a power loss can keep the manifest but lose the rename)."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: Path, data: bytes | pa.Buffer, fsync: bool) -> None:
    """Write ``data`` to ``path`` atomically: a same-dir temp file, flushed
    with ``_fsync_file`` when ``fsync``, then ``os.replace``.  The rename's
    own durability (a ``_fsync_dir`` of the parent) is the caller's
    choice."""
    tmp = path.with_name(f".{path.name}.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "wb") as f:
        f.write(data)
    if fsync:
        _fsync_file(tmp)
    os.replace(tmp, path)


def _write_part(root: Path, pdir: Path, tbl: pa.Table, tag: str,
                fsync: bool) -> dict:
    """``pdir/part-{tag}.parquet``, serialized once to memory; the entry's
    sha256 hashes that buffer, so the file is never read back."""
    pdir.mkdir(parents=True, exist_ok=True)
    out = pa.BufferOutputStream()
    pq.write_table(tbl, out)
    data = out.getvalue()
    fpath = pdir / f"part-{tag}.parquet"
    _write_atomic(fpath, data, fsync)
    if fsync:
        _fsync_dir(pdir)
    return {
        "path": str(fpath.relative_to(root)),
        "rows": tbl.num_rows,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def write_epoch_part(root: str | os.PathLike, epoch: int, tbl: pa.Table,
                     tag: str, fsync: bool = True) -> dict:
    """The sink's one Parquet part writer: writes ``tbl`` as
    ``data/epoch=N/part-{tag}.parquet`` (serialize to memory, sha256 the
    buffer, atomic write; with ``fsync`` the file and the epoch dir are
    flushed) and returns the manifest entry.  ``commit_tables`` calls it on
    the driver; distributed stages call it in their workers, and the state
    shards in ``StateShard.step``, so rows never route through the driver —
    each writer ships back only the tiny entry and the driver's
    ``commit_files`` makes the epoch visible atomically.  Files without a
    manifest are invisible (crashed attempts leave only ignorable strays);
    writers whose epoch may be retried give each attempt its own ``tag``,
    so a retry never rewrites a part a manifest lists."""
    root = Path(root)
    return _write_part(root, root / "data" / f"epoch={epoch:08d}", tbl, tag,
                       fsync)


def _write_block_part(root: Path, pdir: Path, fsync: bool, tbl: pa.Table,
                      tag: str) -> dict | None:
    """``run_blocks`` kernel: one part per non-empty block."""
    return _write_part(root, pdir, tbl, tag, fsync) if tbl.num_rows else None


def _write_blocks(root: Path, pdir: Path, ds, fsync: bool) -> list[dict]:
    """Write a Dataset's non-empty blocks into ``pdir`` as one Ray task per
    block; returns their manifest entries in block order."""
    from .exchange import block_refs, run_blocks

    kernel = functools.partial(_write_block_part, root, pdir, fsync)
    return [e for e in run_blocks(kernel, block_refs(ds)) if e is not None]


class ExactlyOnceParquetSink:
    def __init__(self, root: str | os.PathLike, fsync: bool = True,
                 sync_every: int = 1):
        """``fsync=True`` (default) makes commits power-loss durable: data
        files are fsynced before rename and the epoch/data/_manifests
        directories after — a durable manifest can then never reference torn
        or absent data.  ``fsync=False`` trades that for latency (tests,
        throwaway dirs).

        ``sync_every=K`` (with ``fsync=True``) enables **group commit**: the
        per-epoch commit does every write and atomic rename but defers the
        fsyncs; every K commits (or on ``sync()``/``close()``) one barrier
        fsyncs all files written since the last barrier and then durably
        records the **durable watermark** (``_manifests/_durable.json``).
        Commit-ordering invariant: epochs become power-loss durable in
        commit order, a barrier at a time — after a power loss everything
        ≤ the watermark is intact, and the next open *verifies* each epoch
        above it (manifest parses; every listed file present with matching
        sha256/size), truncating from the first failure onward so the
        surviving sink is always a consistent prefix that replay simply
        extends.  Crash-level exactly-once (kill -9, no fs loss) is
        unaffected — renames are atomic either way."""
        self.root = Path(root)
        self.fsync = fsync
        self.sync_every = max(int(sync_every), 1)
        self._pending_files: list[Path] = []
        self._pending_dirs: list[Path] = []
        self._commits_since_sync = 0
        #: max epoch committed THROUGH THIS HANDLE (watermark source) —
        #: tracked incrementally so a barrier never globs the manifest dir
        #: (O(total epochs) on a 10^6-epoch stream)
        self._max_epoch: int | None = None
        (self.root / "data").mkdir(parents=True, exist_ok=True)
        (self.root / "_manifests").mkdir(parents=True, exist_ok=True)
        # group-commit recovery: drop the torn suffix above the durable
        # watermark BEFORE anything reads manifests
        self._recover_group_commit()
        # finish any consolidation whose manifest committed but whose
        # epoch-manifest flips / original-data deletion didn't (crash
        # window) — reads are already correct before this runs (the
        # consolidation owner map overrides epoch manifests); this is GC
        self._gc_consolidations()

    # ------------------------------------------------------- group commit
    def _deferred(self) -> bool:
        return self.fsync and self.sync_every > 1

    @property
    def part_fsync(self) -> bool:
        """The ``fsync`` flag for ``write_epoch_part`` calls feeding this
        sink: workers fsync their own parts only when commits are not
        deferred — under group commit ``commit_files`` hands the parts to
        the next barrier instead."""
        return self.fsync and not self._deferred()

    def _watermark_path(self) -> Path:
        return self.root / "_manifests" / "_durable.json"

    def sync(self) -> None:
        """Group-commit barrier: fsync everything deferred since the last
        barrier, then durably advance the watermark.  No-op unless
        ``fsync=True and sync_every > 1`` and something is pending."""
        if not self._deferred():
            return
        if not self._pending_files and not self._pending_dirs:
            return
        for p in self._pending_files:
            try:
                _fsync_file(p)
            except FileNotFoundError:
                pass  # compacted/expired between commit and barrier
        seen: set[Path] = set()
        for d in self._pending_dirs:
            if d in seen:
                continue
            seen.add(d)
            try:
                _fsync_dir(d)
            except FileNotFoundError:
                pass
        self._pending_files = []
        self._pending_dirs = []
        self._commits_since_sync = 0
        if self._max_epoch is not None:
            self._write_watermark(self._max_epoch)

    def _write_watermark(self, epoch: int) -> None:
        wpath = self._watermark_path()
        _write_atomic(wpath, json.dumps({"epoch": epoch,
                                         "at": time.time()}).encode(), True)
        _fsync_dir(wpath.parent)

    def _note_deferred(self, files: list[Path], dirs: list[Path]) -> None:
        self._pending_files.extend(files)
        self._pending_dirs.extend(dirs)

    def _after_commit(self) -> None:
        if not self._deferred():
            return
        self._commits_since_sync += 1
        if self._commits_since_sync >= self.sync_every:
            self.sync()

    def _recover_group_commit(self) -> None:
        """On open: verify every epoch above the durable watermark (a power
        loss may have torn anything not yet barrier-synced) and drop the
        suffix from the first failure — manifests are only trusted below
        the watermark or when their data verifies."""
        wpath = self._watermark_path()
        if not wpath.exists():
            return
        try:
            with open(wpath) as f:
                wm = int(json.load(f).get("epoch", -1))
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            wm = -1
        bad = False
        dropped = []
        verified_last = None
        for e in self.committed_epochs():
            if e <= wm:
                continue
            if not bad:
                try:
                    m = self.manifest(e)
                    for fent in m["files"]:
                        if not self._intact(fent):
                            raise ValueError(f"torn {fent['path']}")
                    # a verified epoch above the watermark survived the
                    # crash but was never barrier-fsynced — make it durable
                    # NOW, else a later watermark would overclaim it
                    for fent in m["files"]:
                        _fsync_file(self.root / fent["path"])
                    _fsync_file(self._manifest_path(e))
                    if m["files"]:
                        _fsync_dir(self._epoch_dir(e))
                    verified_last = e
                except (OSError, json.JSONDecodeError, KeyError, ValueError):
                    bad = True
            if bad:
                self._manifest_path(e).unlink(missing_ok=True)
                shutil.rmtree(self._epoch_dir(e), ignore_errors=True)
                dropped.append(e)
        if dropped or verified_last is not None:
            # epoch dirs were verified or removed above: persist data/'s
            # entries before any watermark can claim them
            _fsync_dir(self.root / "data")
            _fsync_dir(self.root / "_manifests")
        if verified_last is not None:
            self._max_epoch = verified_last
            self._write_watermark(verified_last)

    # ------------------------------------------------------------ frontier
    def _manifest_path(self, epoch: int) -> Path:
        return self.root / "_manifests" / f"epoch-{epoch:08d}.json"

    def _epoch_dir(self, epoch: int) -> Path:
        return self.root / "data" / f"epoch={epoch:08d}"

    def is_committed(self, epoch: int) -> bool:
        return self._manifest_path(epoch).exists()

    def committed_epochs(self) -> list[int]:
        out = []
        for p in sorted((self.root / "_manifests").glob("epoch-*.json")):
            out.append(int(p.stem.split("-")[1]))
        return out

    def manifest(self, epoch: int) -> dict:
        with open(self._manifest_path(epoch)) as f:
            return json.load(f)

    # ------------------------------------------------------------ commit
    def commit_tables(self, epoch: int, tables: list[pa.Table],
                      meta: dict | None = None) -> dict:
        """Write partition tables for an epoch (``write_epoch_part`` each)
        and atomically commit them.

        Idempotent: an already-committed epoch returns its manifest untouched.
        Partial files from a previous crashed attempt are overwritten (they
        were never visible — only manifests are read).
        """
        if self.is_committed(epoch):
            return self.manifest(epoch)
        return self._commit(epoch, [
            write_epoch_part(self.root, epoch, tbl, f"{i:05d}",
                             fsync=self.part_fsync)
            for i, tbl in enumerate(tables)], meta)

    def commit_dataset(self, epoch: int, ds, meta: dict | None = None) -> dict:
        """Commit a Ray Dataset as one epoch: each non-empty block is written
        by ``write_epoch_part`` in its own Ray task (``exchange.run_blocks``,
        so rows never reach the driver and every entry carries its sha256),
        then the manifest commits the parts atomically like
        ``commit_files``."""
        if self.is_committed(epoch):
            return self.manifest(epoch)
        return self._commit(epoch, _write_blocks(
            self.root, self._epoch_dir(epoch), ds, self.part_fsync), meta)

    def commit_files(self, epoch: int, entries: list[dict],
                     meta: dict | None = None) -> dict:
        """Commit worker-written partition files (see ``write_epoch_part``).

        Idempotent like ``commit_tables``; ``entries`` are the workers'
        returned manifest entries (root-relative paths)."""
        return self._commit(epoch, entries, meta)

    def _commit(self, epoch: int, entries: list[dict],
                meta: dict | None) -> dict:
        """The commit core behind every ``commit_*``.  The parts' writers
        fsynced each part and the epoch dir (``fsync=part_fsync``), so a
        non-deferred commit fsyncs ``data/``, where the epoch dir appeared;
        under group commit the parts, the epoch dir and ``data/`` wait for
        the barrier.  Then the manifest lands atomically."""
        if self.is_committed(epoch):
            return self.manifest(epoch)
        deferred = self._deferred()
        if self.fsync and entries:
            if deferred:
                self._note_deferred([self.root / e["path"] for e in entries],
                                    [self._epoch_dir(epoch), self.root / "data"])
            else:
                _fsync_dir(self.root / "data")
        if self._max_epoch is None or epoch > self._max_epoch:
            self._max_epoch = epoch
        files = sorted(entries, key=lambda e: e["path"])
        manifest = {
            "epoch": epoch,
            "engine_version": ENGINE_VERSION,
            "committed_at": time.time(),
            "files": files,
            "rows": sum(f["rows"] for f in files),
            "meta": meta or {},
        }
        mpath = self._manifest_path(epoch)
        _write_atomic(mpath, json.dumps(manifest).encode(),
                      self.fsync and not deferred)
        if self.fsync:
            if deferred:
                self._note_deferred([mpath], [mpath.parent])
            else:
                _fsync_dir(mpath.parent)
        self._after_commit()
        return manifest

    # ------------------------------------------------------------ read
    def committed_files(self, epochs: list[int] | None = None) -> list[str]:
        """Manifest-listed file paths.  Compacted epochs resolve to their
        consolidated file (included once) — valid only when the requested
        set covers the WHOLE compaction (always true for ``epochs=None``);
        partial reads of a compaction go through ``read_committed_table``,
        which prunes per-epoch row groups exactly."""
        eps = self.committed_epochs() if epochs is None else epochs
        out: list[str] = []
        seen_cids: set[str] = set()
        requested = set(eps)
        owner = self._consolidation_owner()
        for e in eps:
            cm_own = owner.get(e)
            if cm_own is not None:
                cid = cm_own["id"]
                if cid in seen_cids:
                    continue
                if not requested.issuperset(int(c) for c in
                                            cm_own["covers"]):
                    raise ValueError(
                        f"epoch {e} was consolidated into {cid} covering "
                        f"{cm_own['covers']}; its per-epoch history is "
                        "gone — read the whole consolidation")
                seen_cids.add(cid)
                out.extend(str(self.root / f["path"])
                           for f in cm_own["files"])
                continue
            m = self.manifest(e)
            if m.get("expired"):
                continue
            cid = m.get("compacted_into")
            if cid is None:
                for f in m["files"]:
                    out.append(str(self.root / f["path"]))
                continue
            if cid in seen_cids:
                continue
            cm = self._compaction(cid)
            if not requested.issuperset(cm["covers"]):
                raise ValueError(
                    f"epoch {e} lives in compaction {cid} covering "
                    f"{cm['covers']}; read a full compaction via "
                    "committed_files, or use read_committed_table(epochs=...) "
                    "for exact per-epoch row-group reads")
            seen_cids.add(cid)
            if cm["file"]:
                out.append(str(self.root / cm["file"]))
        return out

    def read_committed(self, epochs: list[int] | None = None, columns=None):
        """Ray Dataset over manifest-listed files only (stray files invisible)."""
        import ray.data as rd

        files = self.committed_files(epochs)
        if not files:
            return rd.from_arrow(pa.table({}))
        return rd.read_parquet(files, columns=columns)

    def read_committed_table(self, epochs: list[int] | None = None) -> pa.Table:
        eps = self.committed_epochs() if epochs is None else epochs
        parts: list[pa.Table] = []
        pf_cache: dict[str, pq.ParquetFile] = {}
        seen_cids: set[str] = set()
        owner = self._consolidation_owner()
        for e in eps:
            cm_own = owner.get(e)
            if cm_own is not None:
                # consolidated history reads as ONE net snapshot at its
                # snapshot epoch; other covered epochs read empty
                if (e == cm_own["snapshot_epoch"]
                        and cm_own["id"] not in seen_cids):
                    seen_cids.add(cm_own["id"])
                    parts.extend(pq.read_table(self.root / f["path"])
                                 for f in cm_own["files"])
                continue
            m = self.manifest(e)
            if m.get("expired"):
                continue
            cid = m.get("compacted_into")
            if cid is None:
                parts.extend(pq.read_table(self.root / f["path"])
                             for f in m["files"])
                continue
            cm = self._compaction(cid)
            rg = cm["row_groups"].get(str(e))
            if rg is None:
                continue  # epoch committed zero rows
            fp = str(self.root / cm["file"])
            if fp not in pf_cache:
                pf_cache[fp] = pq.ParquetFile(fp)
            parts.append(pf_cache[fp].read_row_group(rg))
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="default")

    def snapshot_at(self, epoch: int, diff_col: str = "diff",
                    exclude_cols: tuple = ("epoch",),
                    as_dataset: bool = False):
        """Time-travel read: the NET live table *as of* ``epoch`` — the
        running ``SUM(diff_col)`` per distinct row over every committed
        epoch ≤ ``epoch``, net ≠ 0 only.  For a changelog sink this is the
        exact historical state any consumer that stopped reading at that
        epoch would hold; the per-epoch manifests (and the row-group-exact
        reads through legacy compactions) make it reproducible after the
        fact, restart-safe, with no engine state.

        History limits are explicit, never silent: a consolidation whose
        cover extends PAST the requested epoch has traded that granularity
        away (``consolidate`` docs) and raises, as does retention-expired
        history below the horizon — a time-travel read must be the exact
        state, not a best effort.  ``as_dataset=True`` computes the net as
        a Ray Dataset groupby (one shuffle) for histories too large to net
        on the driver."""
        import pyarrow.compute as pc

        eps = [e for e in self.committed_epochs() if e <= epoch]
        owner = self._consolidation_owner()
        for e in eps:
            cm = owner.get(e)
            if cm is not None:
                beyond = sorted(int(c) for c in cm["covers"]
                                if int(c) > epoch)
                if beyond:
                    raise ValueError(
                        f"epoch {e} was consolidated into {cm['id']} "
                        f"together with later epochs {beyond}; history at "
                        f"epoch {epoch} is gone — snapshot at ≥ "
                        f"{beyond[-1]}, or consolidate only up to the "
                        "epochs you still need to travel to")
                continue  # consolidation owns this epoch's read (its
                # manifest may be GC-flipped; the net snapshot is exact)
            if self.manifest(e).get("expired"):
                raise ValueError(
                    f"epoch {e} ≤ {epoch} was retention-expired; the "
                    f"snapshot at {epoch} would be incomplete")

        def net_of(tbl: pa.Table, diff_type, names) -> pa.Table:
            scol = f"{diff_col}_sum"
            tbl = tbl.filter(pc.not_equal(tbl[scol], 0))
            cols = {n: tbl[n] for n in tbl.column_names if n != scol}
            cols[diff_col] = tbl[scol].cast(diff_type)
            return pa.table({n: cols[n] for n in names if n in cols})

        if as_dataset:
            ds = self.read_committed(eps)
            schema = ds.schema()
            names = list(schema.names)
            diff_type = schema.base_schema.field(diff_col).type
            keys = [c for c in names
                    if c != diff_col and c not in exclude_cols]
            return (ds.groupby(keys).sum(diff_col)
                    .map_batches(
                        lambda t: net_of(
                            t.rename_columns([
                                n if n != f"sum({diff_col})"
                                else f"{diff_col}_sum"
                                for n in t.column_names]),
                            diff_type, names),
                        batch_format="pyarrow"))
        tbl = self.read_committed_table(eps)
        if not tbl.num_rows:
            return tbl
        keys = [c for c in tbl.column_names
                if c != diff_col and c not in exclude_cols]
        return net_of(tbl.group_by(keys).aggregate([(diff_col, "sum")]),
                      tbl[diff_col].type, tbl.column_names)

    def total_rows(self) -> int:
        return sum(self.manifest(e)["rows"] for e in self.committed_epochs())

    def lineage_report(self) -> dict[int, dict]:
        """Per-epoch audit trail: output partitions ↔ the input slice that
        produced them (the ``lineage`` dict the caller stamped at commit)
        plus row counts and the metrics snapshot, straight from the durable
        manifests — survives restarts, needs no engine state."""
        out = {}
        for e in self.committed_epochs():
            m = self.manifest(e)
            meta = m.get("meta") or {}
            out[e] = {
                "rows": m["rows"],
                "files": [f["path"] for f in m["files"]],
                "lineage": meta.get("lineage"),
                "metrics": meta.get("metrics"),
            }
            if m.get("compacted_into"):
                out[e]["compacted_into"] = m["compacted_into"]
        return out

    def _intact(self, fent: dict) -> bool:
        """A manifest entry's file exists and matches its sha256 (or, for
        entries written before every part was hashed, its size)."""
        p = self.root / fent["path"]
        if not p.exists():
            return False
        if "sha256" in fent:
            return _sha256_file(p) == fent["sha256"]
        return "size" not in fent or p.stat().st_size == fent["size"]

    def verify(self) -> bool:
        """Audit every committed file against its manifest (sha256 when
        recorded, else size); compacted epochs audit their consolidated
        file (existence + readable row-group count)."""
        cids: set[str] = set()
        for e in self.committed_epochs():
            m = self.manifest(e)
            if m.get("compacted_into") and not m.get("expired"):
                cids.add(m["compacted_into"])
            if not all(self._intact(f) for f in m["files"]):
                return False
        for cm in self._consolidation_manifests():
            cids.discard(cm["id"])
            if not all(self._intact(f) for f in cm.get("files") or []):
                return False
        for cid in cids:
            cm = self._compaction(cid)
            if cm.get("file") is None:
                continue
            fp = self.root / cm["file"]
            if not fp.exists():
                return False
            need = max((rg for rg in cm["row_groups"].values()
                        if rg is not None), default=-1) + 1
            if pq.ParquetFile(fp).num_row_groups < need:
                return False
        return True

    # ------------------------------------------------------------ compaction
    def _compaction_path(self, cid: str) -> Path:
        return self.root / "_manifests" / f"compact-{cid}.json"

    def _compaction(self, cid: str) -> dict:
        with open(self._compaction_path(cid)) as f:
            return json.load(f)

    def _commit_compaction(self, cmanifest: dict) -> None:
        """Atomically land a compaction/consolidation manifest — the
        commit point of ``compact`` and ``consolidate``."""
        cpath = self._compaction_path(cmanifest["id"])
        _write_atomic(cpath, json.dumps(cmanifest).encode(), True)
        if self.fsync:
            _fsync_dir(cpath.parent)

    def _flip_manifest(self, epoch: int, **changes) -> None:
        """Atomically rewrite epoch ``epoch``'s manifest without its files
        (compacted, consolidated or expired away) plus ``changes``."""
        m = self.manifest(epoch)
        m["files"] = []
        m.update(changes)
        _write_atomic(self._manifest_path(epoch), json.dumps(m).encode(),
                      True)

    def compact(self, upto_epoch: int | None = None) -> dict:
        """Merge committed epochs (≤ ``upto_epoch``) into ONE consolidated
        parquet file — the small-file problem killer for long streams
        (10⁶ epochs × K part files each would otherwise accumulate forever).

        Each epoch becomes exactly one ROW GROUP of the compacted file, so
        per-epoch reads stay exact (row-group pruning) with no schema
        change.  Exactly-once is preserved end-to-end: epoch manifests KEEP
        existing (``is_committed`` still true for replay idempotency) but
        point at the compaction; crash at any step leaves a readable sink
        (compaction manifest commits first, epoch manifests flip one
        atomic rename at a time, originals are deleted only after all
        flips).  Driver memory = one epoch's table at a time.
        """
        eps = [e for e in self.committed_epochs()
               if (upto_epoch is None or e <= upto_epoch)
               and "compacted_into" not in self.manifest(e)
               and not self.manifest(e).get("expired")]
        if len(eps) < 2:
            return {"compacted_epochs": 0}
        cid = f"{eps[0]:08d}-{eps[-1]:08d}-{uuid.uuid4().hex[:8]}"
        cdir = self.root / "data" / f"compact-{cid}"
        cdir.mkdir(parents=True, exist_ok=True)
        fpath = cdir / "part-00000.parquet"
        tmp = cdir / f".part.tmp-{uuid.uuid4().hex[:8]}"
        # schema evolution: unify across ALL covered epochs from the file
        # footers (cheap metadata reads) so early epochs missing a
        # later-added column compact as typed nulls
        schemas = []
        for e in eps:
            for f in self.manifest(e)["files"]:
                schemas.append(pq.read_schema(self.root / f["path"]))
        unified = pa.unify_schemas(schemas, promote_options="permissive") \
            if schemas else None
        writer = None
        rg_of: dict[str, int | None] = {}
        rg = 0
        total = 0
        for e in eps:
            files = [self.root / f["path"] for f in self.manifest(e)["files"]]
            if files:
                tbl = pa.concat_tables([pq.read_table(f) for f in files],
                                       promote_options="default")
            else:
                tbl = None
            if tbl is None or tbl.num_rows == 0:
                rg_of[str(e)] = None
                continue
            cols = {}
            for fld in unified:
                if fld.name in tbl.column_names:
                    cols[fld.name] = tbl[fld.name].cast(fld.type)
                else:
                    cols[fld.name] = pa.nulls(tbl.num_rows, fld.type)
            tbl = pa.table(cols)
            if writer is None:
                writer = pq.ParquetWriter(tmp, unified)
            # one row group per epoch → per-epoch reads prune exactly
            writer.write_table(tbl, row_group_size=max(tbl.num_rows, 1))
            rg_of[str(e)] = rg
            rg += 1
            total += tbl.num_rows
        if writer is not None:
            writer.close()
            if self.fsync:
                _fsync_file(tmp)
            os.replace(tmp, fpath)
            if self.fsync:
                _fsync_dir(cdir)
        cmanifest = {
            "id": cid,
            "file": str(fpath.relative_to(self.root)) if writer else None,
            "covers": eps,
            "row_groups": rg_of,
            "rows": total,
            "committed_at": time.time(),
        }
        self._commit_compaction(cmanifest)
        # flip epoch manifests (each flip atomic; originals still on disk
        # until every flip landed, so any crash state reads consistently)
        for e in eps:
            self._flip_manifest(e, compacted_into=cid)
        if self.fsync:
            _fsync_dir(self.root / "_manifests")
        for e in eps:
            shutil.rmtree(self._epoch_dir(e), ignore_errors=True)
        return {"compacted_epochs": len(eps), "rows": total, "id": cid,
                "file": cmanifest["file"]}

    # ------------------------------------------------------ consolidation
    def _consolidation_manifests(self) -> list[dict]:
        out = []
        for p in sorted((self.root / "_manifests").glob("compact-*.json")):
            try:
                with open(p) as f:
                    m = json.load(f)
            except (OSError, json.JSONDecodeError):
                continue
            if m.get("kind") == "consolidation":
                out.append(m)
        out.sort(key=lambda m: m["committed_at"])
        return out

    def _consolidation_owner(self) -> dict[int, dict]:
        """epoch → OWNING consolidation manifest (newest commit wins —
        consolidations chain).  Authoritative over the epoch manifests'
        own ``compacted_into`` (those flip lazily during GC): from the
        instant a consolidation manifest lands, its covered epochs read
        through it, so every crash state reads exactly."""
        owner: dict[int, dict] = {}
        for cm in self._consolidation_manifests():
            for e in cm["covers"]:
                owner[int(e)] = cm
        return owner

    def _gc_consolidations(self) -> None:
        """Finish consolidation bookkeeping: flip covered epoch manifests
        to their owner (atomic each), drop the original epoch data, and
        delete compaction/consolidation payloads no manifest references
        anymore.  Pure GC — reads are exact whether or not this ran."""
        cms = self._consolidation_manifests()
        if not cms:
            return
        owner: dict[int, dict] = {}
        for cm in cms:
            for e in cm["covers"]:
                owner[int(e)] = cm
        flipped = False
        for e, cm in sorted(owner.items()):
            if not self.is_committed(e):
                continue
            m = self.manifest(e)
            if m.get("compacted_into") == cm["id"] or m.get("expired"):
                continue
            self._flip_manifest(e, compacted_into=cm["id"])
            flipped = True
            shutil.rmtree(self._epoch_dir(e), ignore_errors=True)
        if flipped and self.fsync:
            _fsync_dir(self.root / "_manifests")
        referenced = {self.manifest(e).get("compacted_into")
                      for e in self.committed_epochs()}
        for p in (self.root / "_manifests").glob("compact-*.json"):
            try:
                with open(p) as f:
                    cm = json.load(f)
            except (OSError, json.JSONDecodeError):
                continue
            if cm["id"] in referenced:
                continue
            # superseded by a newer consolidation (or a crashed commit
            # whose originals are all still live): payload unreachable
            for fent in cm.get("files") or []:
                shutil.rmtree((self.root / fent["path"]).parent,
                              ignore_errors=True)
            if cm.get("file"):
                shutil.rmtree((self.root / cm["file"]).parent,
                              ignore_errors=True)
            p.unlink(missing_ok=True)

    def consolidate(self, diff_col: str = "diff",
                    upto_epoch: int | None = None,
                    exclude_cols: tuple = ("epoch",),
                    distributed_over_rows: int = 5_000_000) -> dict:
        """DD arrangement compaction for changelog sinks: replace the
        committed ±diff history (epochs ≤ ``upto_epoch``) with its NET
        state — one snapshot holding ``SUM(diff_col)`` per distinct row,
        net ≠ 0 only, stamped at the last covered epoch.  Afterwards
        ``read_committed_table()`` returns snapshot + later deltas, so
        the running sum (the live table every changelog consumer
        maintains) is bit-identical while sink storage drops from
        O(delta history) to O(live rows) — the operation that keeps a
        10¹²-row changelog stream's sink bounded.

        Commit point = ONE atomic rename of the consolidation manifest.
        Epoch-manifest flips and original-data deletion are GC that a
        crash leaves for the next open to finish; readers consult the
        consolidation owner map FIRST, so every intermediate state reads
        exactly.  Exactly-once replay is preserved (covered epochs stay
        committed).  Consolidations chain — a later call may cover an
        earlier snapshot.  Per-epoch read granularity of covered history
        is gone by design; ``lineage_report`` keeps the audit record.

        Grouping covers every column except ``diff_col`` and
        ``exclude_cols`` (scalar-typed).  Above ``distributed_over_rows``
        readable rows the net is computed as a Ray Dataset groupby (one
        shuffle) whose blocks the sink's part writer writes, one Ray task
        per block; below, a driver-side Arrow ``group_by`` (latency
        path).  Every snapshot part's entry carries its sha256."""
        import pyarrow.compute as pc

        self._gc_consolidations()
        owner = self._consolidation_owner()
        eps = [e for e in self.committed_epochs()
               if (upto_epoch is None or e <= upto_epoch)
               and not self.manifest(e).get("expired")]
        if len(eps) < 2:
            return {"consolidated_epochs": 0}
        readable = 0
        seen: set[str] = set()
        for e in eps:
            cm0 = owner.get(e)
            if cm0 is not None:
                if cm0["id"] not in seen:
                    seen.add(cm0["id"])
                    readable += cm0["rows"]
            else:
                readable += self.manifest(e)["rows"]
        snapshot_epoch = int(eps[-1])
        cid = f"{eps[0]:08d}-{eps[-1]:08d}-{uuid.uuid4().hex[:8]}"
        cdir = self.root / "data" / f"consol-{cid}"

        def finish_tbl(net: pa.Table, diff_type, epoch_type,
                       col_order: list[str]) -> pa.Table:
            scol = f"{diff_col}_sum"
            net = net.filter(pc.not_equal(net[scol], 0))
            cols = {n: net[n] for n in net.column_names if n != scol}
            cols[diff_col] = net[scol].cast(diff_type)
            if epoch_type is not None:
                cols["epoch"] = pa.nulls(net.num_rows, epoch_type).fill_null(
                    snapshot_epoch)
            return pa.table({n: cols[n] for n in col_order if n in cols})

        entries: list[dict] = []
        if readable <= distributed_over_rows:
            tbl = self.read_committed_table(eps)
            if tbl.num_rows:
                keys = [c for c in tbl.column_names
                        if c != diff_col and c not in exclude_cols]
                net = finish_tbl(
                    tbl.group_by(keys).aggregate([(diff_col, "sum")]),
                    tbl[diff_col].type,
                    tbl["epoch"].type if "epoch" in tbl.column_names
                    else None,
                    tbl.column_names)
                if net.num_rows:
                    entries.append(_write_part(self.root, cdir, net, "00000",
                                               self.fsync))
        else:
            ds = self.read_committed(eps)
            schema = ds.schema()
            names = list(schema.names)
            diff_type = schema.base_schema.field(diff_col).type
            epoch_type = (schema.base_schema.field("epoch").type
                          if "epoch" in names else None)
            keys = [c for c in names
                    if c != diff_col and c not in exclude_cols]
            net_ds = (ds.groupby(keys).sum(diff_col)
                      .map_batches(
                          lambda t: finish_tbl(
                              t.rename_columns([
                                  n if n != f"sum({diff_col})"
                                  else f"{diff_col}_sum"
                                  for n in t.column_names]),
                              diff_type, epoch_type, names),
                          batch_format="pyarrow"))
            entries = _write_blocks(self.root, cdir, net_ds, self.fsync)
        net_rows = sum(f["rows"] for f in entries)
        cmanifest = {
            "id": cid,
            "kind": "consolidation",
            "file": None,  # legacy-compaction reader compat
            "covers": [int(e) for e in eps],
            "snapshot_epoch": snapshot_epoch,
            "files": entries,
            "rows": net_rows,
            "committed_at": time.time(),
        }
        self._commit_compaction(cmanifest)  # ← the commit
        self._gc_consolidations()
        return {"consolidated_epochs": len(eps), "rows": net_rows,
                "id": cid, "snapshot_epoch": snapshot_epoch}

    def expire(self, before_epoch: int) -> dict:
        """Retention: drop the DATA of epochs < ``before_epoch`` while
        keeping their manifests (flagged ``expired``) so exactly-once
        replay still no-ops and ``lineage_report`` keeps the historical
        record.  Each manifest flips atomically BEFORE its data is deleted
        (crash leaves only invisible orphans).  A compaction is dropped
        only when EVERY epoch it covers is below the cut.  ``total_rows``
        keeps counting expired epochs (it reports what was committed, not
        what is readable)."""
        plain: list[int] = []
        by_cid: dict[str, list[int]] = {}
        for e in self.committed_epochs():
            if e >= before_epoch:
                continue
            m = self.manifest(e)
            if m.get("expired"):
                continue
            cid = m.get("compacted_into")
            if cid is None:
                plain.append(e)
            else:
                by_cid.setdefault(cid, []).append(e)

        expired = []
        for e in plain:
            self._flip_manifest(e, expired=True)
            shutil.rmtree(self._epoch_dir(e), ignore_errors=True)
            expired.append(e)
        for cid, eps in by_cid.items():
            cm = self._compaction(cid)
            if not all(c < before_epoch for c in cm["covers"]):
                continue  # compaction straddles the cut — keep whole
            for e in cm["covers"]:
                self._flip_manifest(e, expired=True)
                expired.append(e)
            if cm.get("file"):
                shutil.rmtree((self.root / cm["file"]).parent,
                              ignore_errors=True)
            for fent in cm.get("files") or []:  # consolidation snapshots
                shutil.rmtree((self.root / fent["path"]).parent,
                              ignore_errors=True)
            self._compaction_path(cid).unlink(missing_ok=True)
        if self.fsync and expired:
            _fsync_dir(self.root / "_manifests")
        return {"expired_epochs": sorted(set(expired))}


def write_shard_file(epoch_dir: str | os.PathLike, shard_id: int,
                     blob: bytes) -> int | None:
    """The one writer of a checkpoint's shard files: ``blob`` lands
    atomically and fsynced as ``epoch_dir/shard-K.bin``; the state shard
    runs it in its own process, so the snapshot never crosses to the
    driver.  The files of a complete checkpoint never change: when
    ``epoch_dir`` holds its ``DONE`` marker nothing is written and None is
    returned (``CheckpointManager.reopen`` withdraws the marker first), else
    the bytes written."""
    d = Path(epoch_dir)
    if (d / "DONE").exists():
        return None
    d.mkdir(parents=True, exist_ok=True)
    _write_atomic(d / f"shard-{shard_id:04d}.bin", blob, True)
    return len(blob)


class CheckpointManager:
    """State snapshots aligned with the sink frontier.

    Layout: ``root/epoch-NNNNNNNN/shard-K.bin`` + ``root/epoch-NNNNNNNN/DONE``
    (the atomic marker).  The shards write their own files
    (``write_shard_file``); ``save`` then commits the checkpoint with the
    marker.  ``latest()`` returns the newest complete checkpoint.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def epoch_dir(self, epoch: int) -> Path:
        return self.root / f"epoch-{epoch:08d}"

    def reopen(self, epoch: int) -> None:
        """Make ``epoch``'s checkpoint writable before its shards snapshot:
        a complete one first loses its ``DONE`` marker (durably), because
        the files of a complete checkpoint never change under it.  A crash
        before the next ``save`` leaves it incomplete, and resume takes the
        newest complete checkpoint before it."""
        done = self.epoch_dir(epoch) / "DONE"
        if done.exists():
            done.unlink()
            _fsync_dir(done.parent)

    def save(self, epoch: int, shards: list[int],
             extra: dict | None = None) -> None:
        """Commit the checkpoint of ``epoch`` whose ``shards`` (shard ids)
        wrote their files: the ``DONE`` marker lands atomically and the
        epoch dir is fsynced, which also persists the shard files'
        renames."""
        d = self.epoch_dir(epoch)
        marker = {"epoch": epoch, "shards": sorted(shards), "extra": extra or {}}
        _write_atomic(d / "DONE", json.dumps(marker).encode(), True)
        _fsync_dir(d)

    def latest(self) -> int | None:
        done = sorted(self.root.glob("epoch-*/DONE"))
        if not done:
            return None
        return int(done[-1].parent.name.split("-")[1])

    def prune(self, keep_last: int = 2) -> list[int]:
        """Delete all but the newest ``keep_last`` COMPLETE checkpoints plus
        any incomplete (crash-orphaned) dirs older than the newest complete
        one.  Called after every save — without it a 10⁶-epoch stream keeps
        10⁶/K full state snapshots on disk."""
        done = sorted(int(p.parent.name.split("-")[1])
                      for p in self.root.glob("epoch-*/DONE"))
        drop = done[:-keep_last] if keep_last > 0 else list(done)
        for e in drop:
            shutil.rmtree(self.epoch_dir(e), ignore_errors=True)
        if done:
            newest = done[-1]
            for d in self.root.glob("epoch-*"):
                e = int(d.name.split("-")[1])
                if e < newest and not (d / "DONE").exists():
                    shutil.rmtree(d, ignore_errors=True)
        return drop

    def load(self, epoch: int) -> tuple[dict[int, bytes], dict]:
        d = self.epoch_dir(epoch)
        marker = json.loads((d / "DONE").read_text())
        blobs = {
            sid: (d / f"shard-{sid:04d}.bin").read_bytes() for sid in marker["shards"]
        }
        return blobs, marker["extra"]
