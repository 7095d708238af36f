"""Incremental dataset updates for :class:`~repro.engine.QuerySession`.

Real deployments see objects arrive and expire continuously; rebuilding
the grid index, channel suffix tables and lattice intervals per change
throws away everything a session memoizes.  This module implements the
mutation path (DESIGN.md §9): :func:`apply_update` takes an
:class:`UpdateBatch` (rows to append and/or delete), derives the mutated
dataset, and *surgically* patches the session's warm artefacts so that
every subsequent answer is **bitwise-identical** to a cold
:class:`~repro.engine.QuerySession` built on the final dataset at the
same granularity and settings -- while re-deriving only what the update
actually touched:

* the :class:`~repro.index.GridIndex` is patched per dirty cell
  (:meth:`GridIndex.updated`); a bounds-changing update falls back to a
  lazy cold rebuild (still correct, no longer sublinear);
* cached :class:`~repro.core.channels.ChannelCompiler` s are row-remapped
  (kept rows gathered, appended rows compiled alone);
* channel suffix tables are re-summed only at dirty cells from the
  retained pre-suffix cell sums;
* ASP reductions are row-patched and their GPS accuracies recomputed;
* candidate-lattice intervals are re-derived from the patched channel
  table and the kept lattice geometry, beside solves, so the next solve
  of each shape finds its lattice warm (DESIGN.md §10.4);
* memoized spaces survive unless a changed rectangle overlaps their
  key rectangle (deletes renumber the surviving active indices).

When a :class:`~repro.engine.wal.WriteAheadLog` is attached to the
session, every effective batch is durably logged before any state
mutates, so a crashed server replays instead of rebuilding.

Bitwise fidelity rests on one property: every per-cell float sum is
accumulated over member rows in ascending row order, and updates
preserve each clean cell's member sequence exactly (appends land at the
end of the dataset; deletes preserve relative order).

Concurrency: :func:`apply_update` derives the replacement state while
holding the session's update gate *shared*, beside ``solve``/``warm``,
and takes the gate *exclusively* only to log the batch and swap the
state in: the swap waits for in-flight solves to drain and blocks new
ones, so a solve observes either the pre- or the post-update session,
never a mix.  An update that finds another one committed since its
derivation derives again under the exclusive hold.  The in-flight
deduplication and pinning semantics of the caches are untouched (the
swap happens under the memo lock, with no solves live).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import faults
from ..asp.rectset import RectSet
from ..asp.reduction import reduce_to_asp
from ..core.channels import ChannelCompiler
from ..core.objects import SpatialDataset
from ..dssearch.drop import gps_accuracy
from ..index.gids import candidate_lattice_intervals
from ..index.summary import cell_sums_to_suffix_table
from .wal import WalRollbackError, WalWriteError

#: Fires between the durable WAL append and the in-memory apply: a
#: crash here is the canonical logged-but-unapplied state replay must
#: resurrect; a raise here exercises the rollback path.
FP_POST_LOG = faults.register("update.post-log")


@dataclass(frozen=True)
class UpdateBatch:
    """One batched mutation: delete current rows, then append new ones.

    ``delete`` selects rows of the dataset *as it is when the batch is
    applied* (boolean mask or index array); ``append`` is a
    :class:`SpatialDataset` sharing the session's schema, or a sequence
    of ``(x, y, {attr: value})`` records.  Deletions are applied first,
    appends land at the end of the surviving rows.
    """

    append: object | None = None
    delete: object | None = None

    def append_dataset(self, schema) -> SpatialDataset | None:
        """The append payload as an encoded dataset (or ``None``)."""
        if self.append is None:
            return None
        if isinstance(self.append, SpatialDataset):
            return self.append
        return SpatialDataset.from_records(list(self.append), schema)


@dataclass
class UpdateStats:
    """What one :func:`apply_update` call did (tests, benches, logging)."""

    appended: int = 0
    deleted: int = 0
    epoch: int = 0
    index_patched: bool = False
    dirty_cells: int = 0
    tables_patched: int = 0
    tables_dropped: int = 0
    reductions_patched: int = 0
    lattices_refreshed: int = 0
    lattices_dropped: int = 0
    # Always 0 (no update patches a lattice in place); the serve
    # benchmark's trace bootstrap still reads both on every apply_update.
    lattices_patched: int = 0
    lattice_positions_refreshed: int = 0
    # Space-memo entries kept and dropped (DESIGN.md §9.2), under the
    # names the service JSON and the CLI print.
    cell_entries_kept: int = 0
    cell_entries_dropped: int = 0
    wal_logged: bool = False


def apply_update(session, batch: UpdateBatch, *, log: bool = True) -> UpdateStats:
    """Mutate a session's dataset in place, patching its warm state.

    See the module docstring for the contract.  The replacement state is
    derived beside solves, holding the session's update gate shared;
    only the write-ahead append and the swap hold it exclusively, so a
    solve sees the pre- or the post-update session, never a mix
    (DESIGN.md §9.3).  When the session has a write-ahead log attached
    and ``log`` is true (the default), the batch is durably logged
    *before* any state changes -- :func:`~repro.engine.wal.replay`
    passes ``log=False`` so re-applied records are not re-logged.
    Returns an :class:`UpdateStats`.
    """
    with session._update_gate.shared():
        update = _derive(session, batch)
    if update.state is None:
        return update.stats  # no-op: nothing invalidated, epoch unchanged
    with session._update_gate.exclusive():
        if session.dataset is not update.base or session.epoch != update.epoch:
            # Another update committed since this one was derived: derive
            # again from the state it left, now with solves held off.
            update = _derive(session, batch)
            if update.state is None:
                return update.stats
        return _commit(session, update, log=log)


@dataclass
class _Update:
    """One derived update, ready to commit: what it was derived from,
    the batch to log, its stats and the replacement session state
    (``None`` for a no-op)."""

    base: SpatialDataset
    epoch: int
    logged: UpdateBatch
    stats: UpdateStats
    state: dict | None


def _commit(session, update: _Update, *, log: bool) -> UpdateStats:
    """Log and swap in a derived update; the caller holds the gate exclusively."""
    stats = update.stats
    # Write-ahead: the effective batch is durably logged before any
    # session state changes.  A crash after this line replays the batch
    # from the log; a crash before it loses only an unacknowledged
    # request.  (The exclusive gate serializes appends, so log order is
    # mutation order; no-ops are never logged.)  If the swap then
    # *fails* -- nothing committed -- the record is rolled back: an
    # orphan at this epoch would be replayed in place of the batch a
    # retry successfully logs at the same epoch.
    wal = session.wal if log else None
    wal_token = None
    if wal is not None:
        try:
            wal_token = wal.append(
                update.logged,
                epoch=session.epoch,
                pre_n=update.base.n,
                schema=update.base.schema,
            )
        except ValueError:
            raise  # epoch-lineage validation, not an I/O failure
        except Exception as exc:
            # Nothing applied, nothing acknowledged; the log truncated
            # itself back to the last good record.  Typed so the serving
            # layer can degrade the dataset instead of guessing.
            raise WalWriteError(
                f"WAL append failed at epoch {session.epoch}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        stats.wal_logged = True
    try:
        faults.failpoint(FP_POST_LOG)
        _swap(session, update.state, stats)
        return stats
    except BaseException as primary:
        if wal is not None:
            try:
                wal.rollback(wal_token)
            except BaseException as exc:
                # The orphaned record is still in the log and a later
                # replay would wrongly apply it; only an explicit
                # recover (replay) makes log and session agree again.
                raise WalRollbackError(
                    "WAL rollback failed after the apply raised "
                    f"{type(primary).__name__}: {primary} -- the log now "
                    f"holds an unapplied record at epoch {session.epoch} "
                    f"(rollback error: {type(exc).__name__}: {exc})"
                ) from exc
            stats.wal_logged = False
        raise


def _derive(session, batch: UpdateBatch) -> _Update:
    """Derive the post-update session state from a snapshot of this one.

    The caller holds the update gate, shared or exclusive, so the
    dataset cannot change underneath.  Solves running beside it (and a
    ``clear_caches`` from a pool evicting under memory pressure) may
    still add or drop cache entries, so the cache dicts are
    shallow-snapshotted under the memo lock and the derivation works
    off the snapshot.  Entries added after it belong to the old dataset
    and go with the swap; racing an eviction is merely a missed
    reclamation: the swap re-installs patched artefacts, all
    deterministic for the new dataset, and the pool re-measures on its
    next touch.
    """
    old_ds: SpatialDataset = session.dataset
    epoch = session.epoch
    append_ds = batch.append_dataset(old_ds.schema)
    if append_ds is not None and append_ds.schema != old_ds.schema:
        raise ValueError("appended rows must share the session dataset's schema")

    if batch.delete is not None:
        keep_mask = old_ds.delete_mask(batch.delete)
        kept = np.flatnonzero(keep_mask)
    else:
        kept = np.arange(old_ds.n, dtype=np.int64)
    n_deleted = old_ds.n - kept.size
    n_appended = append_ds.n if append_ds is not None else 0
    stats = UpdateStats(appended=n_appended, deleted=n_deleted, epoch=epoch)
    logged = UpdateBatch(append=append_ds, delete=batch.delete)
    if n_deleted == 0 and n_appended == 0:
        return _Update(old_ds, epoch, logged, stats, None)
    survivors = old_ds if n_deleted == 0 else old_ds.subset(kept)
    new_ds = survivors if n_appended == 0 else survivors.append(append_ds)

    with session._memo_lock:
        old_compilers = dict(session._compilers)
        old_pins = dict(session._pins)
        old_tables = dict(session._tables)
        old_table_cells = dict(session._table_cells)
        old_contexts = dict(session._contexts)
        old_empty_reps = dict(session._empty_reps)
        old_reductions = dict(session._reductions)
        old_spaces = dict(session._spaces)
        old_lattices = list(session._lattices)
        old_geometry = dict(session._lattice_geometry)
    old_index = session._index
    new_index = None
    dirty_flat = members = local = None
    if old_index is not None and new_ds.n:
        patched = old_index.updated(new_ds, kept)
        if patched is not None:
            new_index, dirty_flat = patched
            members, local = new_index.dirty_members(dirty_flat)
            stats.index_patched = True
            stats.dirty_cells = int(dirty_flat.size)

    # Row-remap every cached compiler (same aggregator objects, so the
    # id-keyed aggregator caches keep their keys; compiler-keyed caches
    # are re-keyed to the new compiler ids below).
    new_compilers: dict = {}
    remap: dict = {}  # id(old compiler) -> new compiler
    for agg_id, old_comp in old_compilers.items():
        aggregator = old_pins[agg_id]
        app_comp = (
            ChannelCompiler(append_ds, aggregator) if n_appended else None
        )
        new_comp = old_comp.remapped(new_ds, kept, app_comp)
        new_compilers[agg_id] = new_comp
        remap[id(old_comp)] = new_comp

    # Channel tables: patch at dirty cells where the pre-suffix cell
    # sums were retained; anything unpatchable is dropped and lazily
    # recomputed cold (answers unaffected either way).
    new_tables: dict = {}
    new_table_cells: dict = {}
    for old_cid, _ in old_tables.items():
        new_comp = remap.get(old_cid)
        cells = old_table_cells.get(old_cid)
        if new_comp is None or new_index is None or cells is None:
            stats.tables_dropped += 1
            continue
        patched_cells = new_index.patch_cell_sums(
            cells, dirty_flat, local, new_comp.weights[members]
        )
        new_table_cells[id(new_comp)] = patched_cells
        new_tables[id(new_comp)] = cell_sums_to_suffix_table(patched_cells)
        stats.tables_patched += 1

    # Bound contexts and empty representations: cheap, recompute eagerly
    # for whatever was warm.
    new_contexts = {
        id(remap[cid]): remap[cid].make_context()
        for cid in old_contexts
        if cid in remap
    }
    new_empty_reps = {
        agg_id: old_pins[agg_id].empty_representation(new_ds)
        for agg_id in old_empty_reps
        if agg_id in old_pins
    }

    # Candidate lattices: re-derived from the patched table, the new
    # context and the kept geometry -- the call a solve's lattice_for
    # makes, so bitwise its result -- here, beside solves, instead of in
    # the next solve of each shape.  A cold index rebuild may move the
    # geometry, so those lattices are dropped and re-derived lazily.
    new_lattices: dict = {}
    for width, height, old_cid in old_lattices:
        new_comp = remap.get(old_cid)
        cid = None if new_comp is None else id(new_comp)
        geometry = old_geometry.get((width, height))
        if (
            new_index is None
            or geometry is None
            or cid not in new_tables
            or cid not in new_contexts
        ):
            stats.lattices_dropped += 1
            continue
        new_lattices[(width, height, cid)] = candidate_lattice_intervals(
            new_index,
            new_comp,
            width,
            height,
            tables=new_tables[cid],
            ctx=new_contexts[cid],
            geometry=geometry,
        )
        stats.lattices_refreshed += 1

    # ASP reductions: row-patch the rectangles (elementwise per object,
    # so gather+concat is bitwise the cold reduction) and recompute the
    # GPS accuracies over the full new set, exactly as cold would.
    new_reductions: dict = {}
    changed_rects: dict = {}  # (w, h, anchor) -> coords of changed rects
    deleted_mask = np.ones(old_ds.n, dtype=bool)
    deleted_mask[kept] = False
    for (width, height, anchor), (rects, _) in old_reductions.items():
        app_rects = (
            reduce_to_asp(append_ds, width, height, anchor)
            if n_appended
            else None
        )
        parts = lambda old, app: (  # noqa: E731 - local 4-column zipper
            np.concatenate([old[kept], app]) if app is not None else old[kept]
        )
        new_rects = RectSet(
            parts(rects.x_min, None if app_rects is None else app_rects.x_min),
            parts(rects.y_min, None if app_rects is None else app_rects.y_min),
            parts(rects.x_max, None if app_rects is None else app_rects.x_max),
            parts(rects.y_max, None if app_rects is None else app_rects.y_max),
        )
        new_reductions[(width, height, anchor)] = (
            new_rects,
            gps_accuracy(new_rects),
        )
        stats.reductions_patched += 1
        changed = [
            np.stack(
                [
                    rects.x_min[deleted_mask],
                    rects.y_min[deleted_mask],
                    rects.x_max[deleted_mask],
                    rects.y_max[deleted_mask],
                ]
            )
        ]
        if app_rects is not None:
            changed.append(
                np.stack(
                    [
                        app_rects.x_min,
                        app_rects.y_min,
                        app_rects.x_max,
                        app_rects.y_max,
                    ]
                )
            )
        changed_rects[(width, height, anchor)] = np.concatenate(changed, axis=1)

    # Memoized spaces: keep entries whose key rectangle no changed
    # rectangle overlaps (their active set and visit are bitwise the
    # cold ones); renumber active indices after deletes.  Moved
    # bounds move every GI-DS cell and canonical piece (the index
    # rebuilds cold), so they drop the memo whole.
    new_spaces: dict = {}
    if old_ds.n and new_ds.n and old_ds.bounds() == new_ds.bounds():
        new_of_old = None
        if n_deleted:
            new_of_old = np.full(old_ds.n, -1, dtype=np.int64)
            new_of_old[kept] = np.arange(kept.size, dtype=np.int64)
        anchor = session.settings.anchor
        for (width, height, old_cid), memo in old_spaces.items():
            new_comp = remap.get(old_cid)
            changed = changed_rects.get((width, height, anchor))
            if new_comp is None or changed is None:
                stats.cell_entries_dropped += len(memo)
                continue
            surviving = _surviving_entries(memo, changed, new_of_old)
            stats.cell_entries_kept += len(surviving)
            stats.cell_entries_dropped += len(memo) - len(surviving)
            new_spaces[(width, height, id(new_comp))] = surviving
    else:
        stats.cell_entries_dropped = sum(len(memo) for memo in old_spaces.values())

    pins = {
        agg_id: old_pins[agg_id]
        for agg_id in set(new_compilers) | set(new_empty_reps)
    }
    for new_comp in new_compilers.values():
        pins[id(new_comp)] = new_comp
    state = {
        "dataset": new_ds,
        "_index": new_index,
        "_compilers": new_compilers,
        "_tables": new_tables,
        "_table_cells": new_table_cells,
        "_contexts": new_contexts,
        "_empty_reps": new_empty_reps,
        "_reductions": new_reductions,
        "_lattices": new_lattices,
        "_spaces": new_spaces,
        "_pins": pins,
    }
    if new_index is None:
        # The index geometry may shift on a cold rebuild; the cached
        # lattice geometry is only valid while it is preserved.
        state["_lattice_geometry"] = {}
    return _Update(old_ds, epoch, logged, stats, state)


def _swap(session, state: dict, stats: UpdateStats) -> None:
    """Install a derived state, atomically w.r.t. everything that takes
    the memo lock (``save_session``'s read, ``clear_caches``)."""
    with session._memo_lock:
        for name, value in state.items():
            setattr(session, name, value)
        session.epoch += 1
        stats.epoch = session.epoch


def _surviving_entries(
    memo: dict, changed: np.ndarray, new_of_old: np.ndarray | None
) -> dict:
    """The space-memo entries no changed rectangle overlaps.

    A key is ``(root, x_min, y_min, x_max, y_max)``; an entry survives
    when no changed rectangle's open interior meets its key rectangle
    (the test of :meth:`~repro.asp.rectset.RectSet.overlap_mask`), so
    every rectangle of its active set, with its weights and values, is
    unchanged, and so is the visit derived from them; the visit holds
    no row index and is carried as it is.  ``new_of_old`` (``None``
    when no row was deleted) renumbers the active indices.
    """
    if not memo:
        return {}
    keys = list(memo)
    boxes = np.array([key[1:] for key in keys], dtype=np.float64)
    cx_min, cy_min, cx_max, cy_max = (c[np.newaxis, :] for c in changed)
    hit = np.zeros(len(keys), dtype=bool)
    # Chunked so the (keys x changed) masks stay small on bulk updates.
    step = max(1, 4_000_000 // max(1, changed.shape[1]))
    for start in range(0, len(keys), step):
        x0, y0, x1, y1 = (c[:, np.newaxis] for c in boxes[start : start + step].T)
        hit[start : start + step] = (
            (cx_min < x1) & (x0 < cx_max) & (cy_min < y1) & (y0 < cy_max)
        ).any(axis=1)
    surviving: dict = {}
    for key, overlapped in zip(keys, hit.tolist()):
        if overlapped:
            continue
        active, visit = memo[key]
        if new_of_old is not None:
            active = new_of_old[active]
            active.setflags(write=False)
        surviving[key] = (active, visit)
    return surviving
