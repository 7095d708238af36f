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
* candidate-lattice intervals, live and restored, are dropped: the next
  solve re-derives them from the patched channel table and the kept
  lattice geometry (DESIGN.md §10.4);
* signature-keyed pending channel tables restored from a bundle are
  patched through recipe-reconstructed compilers, so a replayed restore
  never pays a cold channel-table rebuild;
* per-cell level-0 accumulations survive unless a changed rectangle
  overlaps their cell (deletes renumber the surviving active indices).

When a :class:`~repro.engine.wal.WriteAheadLog` is attached to the
session, every effective batch is durably logged before any state
mutates, so a crashed server replays instead of rebuilding.

Bitwise fidelity rests on one property: every per-cell float sum is
accumulated over member rows in ascending row order, and updates
preserve each clean cell's member sequence exactly (appends land at the
end of the dataset; deletes preserve relative order).

Concurrency: the session's update gate makes :func:`apply_update`
exclusive with ``solve``/``solve_batch``/``warm`` -- an update waits for
in-flight solves to drain and blocks new ones, so a solve observes
either the pre- or the post-update session, never a mix.  The PR-2
in-flight-deduplication and pinning semantics of the caches are
untouched (the swap happens under the memo lock, with no solves live).
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
    pending_tables_patched: int = 0
    pending_tables_dropped: int = 0
    reductions_patched: int = 0
    lattices_dropped: int = 0  # live and pending
    # Always 0 (updates drop every lattice); the serve benchmark's
    # trace bootstrap still reads both on every apply_update.
    lattices_patched: int = 0
    lattice_positions_refreshed: int = 0
    cell_entries_kept: int = 0
    cell_entries_dropped: int = 0
    wal_logged: bool = False


def apply_update(session, batch: UpdateBatch, *, log: bool = True) -> UpdateStats:
    """Mutate a session's dataset in place, patching its warm state.

    Exclusive with solves via the session's update gate; see the module
    docstring for the contract.  When the session has a write-ahead log
    attached and ``log`` is true (the default), the batch is durably
    logged *before* any state mutates -- :func:`~repro.engine.wal.replay`
    passes ``log=False`` so re-applied records are not re-logged.
    Returns an :class:`UpdateStats`.
    """
    with session._update_gate.exclusive():
        return _apply_exclusive(session, batch, log=log)


def _apply_exclusive(session, batch: UpdateBatch, *, log: bool) -> UpdateStats:
    old_ds: SpatialDataset = session.dataset
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
    stats = UpdateStats(appended=n_appended, deleted=n_deleted, epoch=session.epoch)
    if n_deleted == 0 and n_appended == 0:
        return stats  # no-op: nothing invalidated, epoch unchanged

    # Write-ahead: the effective batch is durably logged before any
    # session state changes.  A crash after this line replays the batch
    # from the log; a crash before it loses only an unacknowledged
    # request.  (The update gate serializes appends, so log order is
    # mutation order; no-ops above are never logged.)  If the apply
    # itself then *fails* -- nothing committed -- the record is rolled
    # back: an orphan at this epoch would be replayed in place of the
    # batch a retry successfully logs at the same epoch.
    wal = session.wal if log else None
    wal_token = None
    if wal is not None:
        try:
            wal_token = wal.append(
                UpdateBatch(append=append_ds, delete=batch.delete),
                epoch=session.epoch,
                pre_n=old_ds.n,
                schema=old_ds.schema,
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
        return _derive_and_swap(session, append_ds, kept, stats)
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


def _derive_and_swap(
    session,
    append_ds: SpatialDataset | None,
    kept: np.ndarray,
    stats: UpdateStats,
) -> UpdateStats:
    old_ds: SpatialDataset = session.dataset
    n_deleted = stats.deleted
    n_appended = stats.appended
    survivors = old_ds if n_deleted == 0 else old_ds.subset(kept)
    new_ds = survivors if n_appended == 0 else survivors.append(append_ds)

    # ------------------------------------------------------------------
    # Derive every replacement artefact *before* the swap.  The update
    # gate excludes solves/warms, but not clear_caches (a SessionPool
    # evicting under memory pressure calls it from another key's
    # traffic), so the cache dicts are shallow-snapshotted under the
    # memo lock and the derivation works off the snapshot.  Racing an
    # eviction is then merely a missed reclamation: the swap below
    # re-installs patched artefacts, all deterministic for the new
    # dataset, and the pool re-measures on its next touch.
    # ------------------------------------------------------------------
    with session._memo_lock:
        old_compilers = dict(session._compilers)
        old_pins = dict(session._pins)
        old_tables = dict(session._tables)
        old_table_cells = dict(session._table_cells)
        old_contexts = dict(session._contexts)
        old_empty_reps = dict(session._empty_reps)
        old_reductions = dict(session._reductions)
        old_cell_caches = dict(session._cells)
        old_pending_tables = dict(session._pending_tables)
        old_pending_cells = dict(session._pending_table_cells)
        old_pending_recipes = dict(session._pending_recipes)
        # Every cached lattice, live or pending, is dropped below and
        # re-derived lazily from the patched table by the next solve.
        stats.lattices_dropped = len(session._lattices) + len(
            session._pending_lattices
        )
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

    # Disk-restored channel tables not yet adopted by a live aggregator
    # object (signature-keyed "pendings", DESIGN.md §10.3): patch them
    # too, or a replay onto a freshly loaded bundle would drop every
    # persisted channel table and pay the cold rebuild the persisted
    # cell sums exist to avoid.  A pending whose signature matches a
    # live compiler simply aliases that compiler's patched artefacts;
    # the rest are patched through a compiler reconstructed from the
    # persisted recipe, compiled over *only* the dirty-cell member rows
    # (channel weights are per-row functions of the columns, so the
    # member-subset compile is bitwise the full compile's member rows).
    from .session import aggregator_from_recipe, aggregator_signature

    new_pending_tables: dict = {}
    new_pending_cells: dict = {}
    new_pending_recipes: dict = {}
    if old_pending_tables:
        live_by_sig: dict = {}
        for new_comp in new_compilers.values():
            sig = aggregator_signature(new_comp.aggregator)
            if sig is not None:
                live_by_sig.setdefault(sig, new_comp)
        members_ds = None
        for sig, _ in old_pending_tables.items():
            live = live_by_sig.get(sig)
            if live is not None and id(live) in new_tables:
                new_pending_tables[sig] = new_tables[id(live)]
                new_pending_cells[sig] = new_table_cells[id(live)]
                if sig in old_pending_recipes:
                    new_pending_recipes[sig] = old_pending_recipes[sig]
                continue
            cells = old_pending_cells.get(sig)
            recipe = old_pending_recipes.get(sig)
            if new_index is None or cells is None or recipe is None:
                stats.pending_tables_dropped += 1
                continue
            try:
                aggregator = aggregator_from_recipe(recipe)
                if members_ds is None:
                    members_ds = new_ds.subset(members)
                member_weights = ChannelCompiler(members_ds, aggregator).weights
            except (KeyError, ValueError, TypeError):
                # The recipe no longer matches the schema (attribute or
                # domain value gone): fall back to a lazy cold recompute.
                stats.pending_tables_dropped += 1
                continue
            patched_cells = new_index.patch_cell_sums(
                cells, dirty_flat, local, member_weights
            )
            new_pending_cells[sig] = patched_cells
            new_pending_tables[sig] = cell_sums_to_suffix_table(patched_cells)
            new_pending_recipes[sig] = recipe
            stats.pending_tables_patched += 1

    # Per-cell level-0 accumulations: keep entries no changed rectangle
    # overlaps (their active set, gathered coordinates and accumulation
    # are bitwise the cold ones); renumber active indices after deletes.
    new_cells: dict = {}
    if new_index is not None:
        new_of_old = np.full(old_ds.n, -1, dtype=np.int64)
        new_of_old[kept] = np.arange(kept.size, dtype=np.int64)
        anchor = session.settings.anchor
        for (width, height, old_cid), cache in old_cell_caches.items():
            new_comp = remap.get(old_cid)
            changed = changed_rects.get((width, height, anchor))
            if new_comp is None or changed is None:
                stats.cell_entries_dropped += len(cache)
                continue
            surviving = _surviving_cell_entries(
                new_index,
                width,
                height,
                cache,
                changed,
                new_of_old,
                renumber=n_deleted > 0,
            )
            stats.cell_entries_kept += len(surviving)
            stats.cell_entries_dropped += len(cache) - len(surviving)
            new_cells[(width, height, id(new_comp))] = surviving
    else:
        stats.cell_entries_dropped = sum(
            len(cache) for cache in old_cell_caches.values()
        )

    # ------------------------------------------------------------------
    # Swap, atomically w.r.t. everything that takes the memo lock
    # (save_session snapshots, clear_caches).
    # ------------------------------------------------------------------
    with session._memo_lock:
        session.dataset = new_ds
        session._index = new_index
        session._compilers = new_compilers
        session._tables = new_tables
        session._table_cells = new_table_cells
        session._contexts = new_contexts
        session._empty_reps = new_empty_reps
        session._reductions = new_reductions
        session._lattices = {}
        if new_index is None:
            # The index geometry may shift on a cold rebuild; the cached
            # lattice geometry is only valid while it is preserved.
            session._lattice_geometry = {}
        session._cells = new_cells
        # Root seeds hold whole-piece accumulations and pieces follow
        # the rectangle bounds: dropped, and refilled by the next solve.
        session._root_seeds = {}
        session._pending_tables = new_pending_tables
        session._pending_table_cells = new_pending_cells
        session._pending_recipes = new_pending_recipes
        session._pending_lattices = {}
        session._pins = {
            agg_id: old_pins[agg_id]
            for agg_id in set(new_compilers) | set(new_empty_reps)
        }
        for new_comp in new_compilers.values():
            session._pins[id(new_comp)] = new_comp
        session.epoch += 1
        stats.epoch = session.epoch
    return stats


def _surviving_cell_entries(
    new_index,
    width: float,
    height: float,
    cache: dict,
    changed: np.ndarray,
    new_of_old: np.ndarray,
    renumber: bool,
) -> dict:
    """The cell-cache entries untouched by the changed rectangles.

    Reconstructs each cached lattice cell's rectangle from the (shared)
    index geometry, keeps entries whose cell no changed rectangle
    overlaps, and (when ``renumber``, i.e. rows were deleted) maps
    surviving active-index arrays through ``new_of_old``.
    """
    if not cache:
        return {}
    cw, ch = new_index.cell_width, new_index.cell_height
    pad_rows = int(np.ceil(float(height) / ch))
    lat_rows = pad_rows + new_index.sy
    pad_cols = int(np.ceil(float(width) / cw))
    keys = np.fromiter(cache.keys(), dtype=np.int64, count=len(cache))
    ci, ri = keys // lat_rows, keys % lat_rows
    x0 = new_index.space.x_min + (ci - pad_cols) * cw
    y0 = new_index.space.y_min + (ri - pad_rows) * ch
    cx_min, cy_min, cx_max, cy_max = changed
    hit = (
        (cx_min[np.newaxis, :] < (x0 + cw)[:, np.newaxis])
        & (x0[:, np.newaxis] < cx_max[np.newaxis, :])
        & (cy_min[np.newaxis, :] < (y0 + ch)[:, np.newaxis])
        & (y0[:, np.newaxis] < cy_max[np.newaxis, :])
    ).any(axis=1)
    surviving: dict = {}
    for key, overlapped in zip(keys.tolist(), hit.tolist()):
        if overlapped:
            continue
        entry = cache[key]
        if entry and renumber:
            active, sub, acc = entry
            entry = (new_of_old[active], sub, acc)
        surviving[key] = entry
    return surviving
