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
* candidate-lattice intervals are *delta-patched* (DESIGN.md §10.4):
  only positions whose Lemma-8 cell range saw a dirty cell get their
  range sums and bounds recomputed, the rest keep bitwise-identical
  cached values -- falling back to a full lazy refresh when the index
  geometry shifts or the compiler's bound context moves;
* signature-keyed pending artefacts restored from a v3 bundle are
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
from ..core.aggregators import AverageAggregator
from ..core.channels import BoundContext, ChannelCompiler
from ..core.objects import SpatialDataset
from ..dssearch.drop import gps_accuracy
from ..index.summary import cell_sums_to_suffix_table, range_sums
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
    lattices_patched: int = 0
    lattices_dropped: int = 0
    pending_lattices_patched: int = 0
    pending_lattices_dropped: int = 0
    lattice_positions_refreshed: int = 0
    cell_entries_kept: int = 0
    cell_entries_dropped: int = 0
    wal_logged: bool = False


def apply_update(
    session,
    batch: UpdateBatch,
    *,
    log: bool = True,
    delta_lattice: bool = True,
) -> UpdateStats:
    """Mutate a session's dataset in place, patching its warm state.

    Exclusive with solves via the session's update gate; see the module
    docstring for the contract.  When the session has a write-ahead log
    attached and ``log`` is true (the default), the batch is durably
    logged *before* any state mutates -- :func:`~repro.engine.wal.replay`
    passes ``log=False`` so re-applied records are not re-logged.
    ``delta_lattice=False`` forces the cached lattice intervals to drop
    (full lazy refresh) instead of being delta-patched; answers are
    bitwise-identical either way (benchmarks use it as the baseline).
    Returns an :class:`UpdateStats`.
    """
    with session._update_gate.exclusive():
        return _apply_exclusive(
            session, batch, log=log, delta_lattice=delta_lattice
        )


def _apply_exclusive(
    session, batch: UpdateBatch, *, log: bool, delta_lattice: bool
) -> UpdateStats:
    restored_version = getattr(session, "_nonpatchable_restore", None)
    if restored_version is not None:
        raise ValueError(
            "this session was restored from a format "
            f"v{restored_version} bundle, which carries no pre-suffix cell "
            "sums; it can serve queries but not accept append/delete/apply.  "
            "Rebuild the bundle with `repro index-build` (current format), "
            "or call clear_caches() to drop the restored index and rebuild "
            "from the dataset"
        )
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
        return _derive_and_swap(
            session, append_ds, kept, stats, delta_lattice=delta_lattice
        )
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
    *,
    delta_lattice: bool,
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
        old_lattices = dict(session._lattices)
        old_lattice_sums = dict(session._lattice_sums)
        old_geometry = dict(session._lattice_geometry)
        old_cell_caches = dict(session._cells)
        old_pending_tables = dict(session._pending_tables)
        old_pending_cells = dict(session._pending_table_cells)
        old_pending_recipes = dict(session._pending_recipes)
        old_pending_lattices = dict(session._pending_lattices)
        old_pending_lattice_sums = dict(session._pending_lattice_sums)
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

    # Disk-restored artefacts not yet adopted by a live aggregator
    # object (signature-keyed "pendings", DESIGN.md §10.3): patch them
    # too, or a replay onto a freshly loaded bundle would drop every
    # persisted channel table and pay the cold rebuild the v3 format
    # exists to avoid.  A pending whose signature matches a live
    # compiler simply aliases that compiler's patched artefacts; the
    # rest are patched through a compiler reconstructed from the
    # persisted recipe, compiled over *only* the dirty-cell member rows
    # (channel weights are per-row functions of the columns, so the
    # member-subset compile is bitwise the full compile's member rows).
    from .session import aggregator_from_recipe, aggregator_signature

    new_pending_tables: dict = {}
    new_pending_cells: dict = {}
    new_pending_recipes: dict = {}
    live_by_sig: dict = {}
    if old_pending_tables or old_pending_lattices:
        for new_comp in new_compilers.values():
            sig = aggregator_signature(new_comp.aggregator)
            if sig is not None:
                live_by_sig.setdefault(sig, new_comp)
    if old_pending_tables:
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

    # Candidate lattices: their (full, over) channel range sums only
    # change at lattice positions whose Lemma-8 cell range has a dirty
    # cell in its corner quadrant (DESIGN.md §10.4); everything else is
    # bitwise what a recompute from the patched table would produce.
    # Patch those positions in place instead of recomputing O(lattice·C)
    # per update -- falling back to a full (lazy) refresh when the index
    # geometry shifted, the cached sums are missing (e.g. adopted from
    # disk), or the compiler's bound context moved (average-term bounds
    # depend on it at every position).
    new_lattices: dict = {}
    new_lattice_sums: dict = {}
    if delta_lattice and new_index is not None and old_lattices:
        changed_map = _changed_corner_map(new_index, dirty_flat)
        for (width, height, old_cid), lattice in old_lattices.items():
            new_comp = remap.get(old_cid)
            sums = old_lattice_sums.get((width, height, old_cid))
            geometry = old_geometry.get((width, height))
            old_ctx = old_contexts.get(old_cid)
            if (
                new_comp is None
                or sums is None
                or geometry is None
                or old_ctx is None
                or id(new_comp) not in new_tables
            ):
                stats.lattices_dropped += 1
                continue
            new_ctx = new_contexts[id(new_comp)]
            if old_ctx != new_ctx:
                stats.lattices_dropped += 1
                continue
            patched = _patch_lattice(
                lattice,
                sums,
                geometry,
                changed_map,
                new_tables[id(new_comp)],
                new_comp,
                new_ctx,
            )
            if patched is None:  # too many touched positions: not worth it
                stats.lattices_dropped += 1
                continue
            key = (width, height, id(new_comp))
            new_lattices[key], new_lattice_sums[key], refreshed = patched
            stats.lattices_patched += 1
            stats.lattice_positions_refreshed += refreshed
    else:
        stats.lattices_dropped = len(old_lattices)

    # Pending lattices restored from a v4 bundle but not yet adopted by
    # a live aggregator: patch them like live ones, or a WAL replay onto
    # a fresh restore would drop every persisted lattice to the full
    # lazy recompute the persisted range sums exist to avoid.  The
    # interval bounds are recomputed through a *structural* compiler
    # rebuilt from the persisted recipe (``bounds_from_sums`` reads only
    # the term layout, never the weights, so an empty-row compile is
    # bitwise the live one) against the already-patched pending table;
    # the bound-context gate compares extremes computed straight from
    # the recipe's selections over the old and new datasets, which is
    # bitwise ``ChannelCompiler.make_context`` on either side.
    new_pending_lattices: dict = {}
    new_pending_lattice_sums: dict = {}
    computed_geometry: dict = {}
    if delta_lattice and new_index is not None and old_pending_lattices:
        from ..index.gids import candidate_lattice_geometry

        changed_map = _changed_corner_map(new_index, dirty_flat)
        ctx_cache: dict = {}
        for (width, height, sig), lattice in old_pending_lattices.items():
            live = live_by_sig.get(sig)
            if live is not None:
                live_key = (width, height, id(live))
                if live_key in new_lattices:
                    # The live compiler's patched lattice IS this one.
                    key = (width, height, sig)
                    new_pending_lattices[key] = new_lattices[live_key]
                    new_pending_lattice_sums[key] = new_lattice_sums[live_key]
                    stats.pending_lattices_patched += 1
                    continue
            sums = old_pending_lattice_sums.get((width, height, sig))
            recipe = (
                new_pending_recipes.get(sig) or old_pending_recipes.get(sig)
            )
            table = new_pending_tables.get(sig)
            if sums is None or recipe is None or table is None:
                stats.pending_lattices_dropped += 1
                continue
            cached = ctx_cache.get(sig)
            if cached is None:
                try:
                    aggregator = aggregator_from_recipe(recipe)
                    old_ctx = _recipe_context(old_ds, aggregator)
                    new_ctx = _recipe_context(new_ds, aggregator)
                    stub = ChannelCompiler(
                        new_ds.subset(np.empty(0, dtype=np.int64)), aggregator
                    )
                except (KeyError, ValueError, TypeError):
                    cached = ctx_cache[sig] = (None, None, None)
                else:
                    cached = ctx_cache[sig] = (old_ctx, new_ctx, stub)
            old_ctx, new_ctx, stub = cached
            if stub is None or old_ctx != new_ctx:
                stats.pending_lattices_dropped += 1
                continue
            geometry = old_geometry.get((width, height)) or computed_geometry.get(
                (width, height)
            )
            if geometry is None:
                # Deterministic from the (geometry-preserving) patched
                # index, so computing it here is bitwise the cached one.
                geometry = computed_geometry[
                    (width, height)
                ] = candidate_lattice_geometry(new_index, width, height)
            patched = _patch_lattice(
                lattice, sums, geometry, changed_map, table, stub, new_ctx
            )
            if patched is None:
                stats.pending_lattices_dropped += 1
                continue
            key = (width, height, sig)
            new_pending_lattices[key], new_pending_lattice_sums[key], refreshed = (
                patched
            )
            stats.pending_lattices_patched += 1
            stats.lattice_positions_refreshed += refreshed
    else:
        stats.pending_lattices_dropped = len(old_pending_lattices)

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
        session._lattices = new_lattices
        session._lattice_sums = new_lattice_sums
        if new_index is None:
            # The index geometry may shift on a cold rebuild; the cached
            # lattice geometry is only valid while it is preserved.
            session._lattice_geometry = {}
        else:
            session._lattice_geometry.update(computed_geometry)
        session._cells = new_cells
        # Root seeds hold whole-piece accumulations and pieces follow
        # the rectangle bounds: dropped, and refilled by the next solve.
        session._root_seeds = {}
        session._pending_tables = new_pending_tables
        session._pending_table_cells = new_pending_cells
        session._pending_recipes = new_pending_recipes
        session._pending_lattices = new_pending_lattices
        session._pending_lattice_sums = new_pending_lattice_sums
        session._pins = {
            agg_id: old_pins[agg_id]
            for agg_id in set(new_compilers) | set(new_empty_reps)
        }
        for new_comp in new_compilers.values():
            session._pins[id(new_comp)] = new_comp
        session.epoch += 1
        stats.epoch = session.epoch
    return stats


def _recipe_context(dataset: SpatialDataset, aggregator) -> BoundContext:
    """The full-dataset bound context of a recipe-rebuilt aggregator.

    Bitwise :meth:`ChannelCompiler.make_context` -- same raw column,
    same selection mask, same min/max -- but without compiling the
    weight matrix, so pending-lattice patching can gate on context
    movement at O(n) per average term instead of a full O(n·C) compile.
    """
    extremes: dict = {}
    for index, term in enumerate(aggregator.terms):
        if not isinstance(term, AverageAggregator):
            continue
        sel = term.selection.mask(dataset)
        chosen = dataset.column(term.attribute)[sel]
        if chosen.size:
            extremes[index] = (float(chosen.min()), float(chosen.max()))
    return BoundContext(extremes)


def _changed_corner_map(index, dirty_flat: np.ndarray) -> np.ndarray:
    """Boolean ``(sx+1, sy+1)`` map: suffix-table corners whose value moved.

    The suffix table ``T[i, j]`` sums cells ``i' >= i, j' >= j``, so a
    dirty cell at ``(di, dj)`` perturbs exactly the corners in its
    south-west quadrant ``i <= di, j <= dj`` -- a suffix-OR over the
    dirty mask.  A Lemma-8 range sum reads four corners of which
    ``(col_lo, row_lo)`` has the smallest indices; if *that* corner is
    unchanged, all four are, and the range sum recomputed from the new
    table is bitwise the cached one (same operand bits, same formula,
    and the suffix cumsum re-accumulates unchanged quadrants over
    identical values in identical order).
    """
    changed = np.zeros((index.sx + 1, index.sy + 1), dtype=bool)
    changed[dirty_flat // index.sy, dirty_flat % index.sy] = True
    changed[::-1] = np.logical_or.accumulate(changed[::-1], axis=0)
    changed[:, ::-1] = np.logical_or.accumulate(changed[:, ::-1], axis=1)
    return changed


#: Touched-position fraction above which a delta lattice refresh stops
#: paying for itself: the subset gathers + array copies then cost more
#: than the one vectorized full recompute the lazy path performs, so
#: the update drops the lattice instead.  Scattered bulk updates (dirty
#: cells all over the grid) land here; localized streams stay below it.
DELTA_LATTICE_MAX_TOUCHED = 0.5


def _patch_lattice(
    lattice: tuple,
    sums: tuple,
    geometry: tuple,
    changed_map: np.ndarray,
    table: np.ndarray,
    compiler: ChannelCompiler,
    ctx,
) -> tuple | None:
    """Delta-refresh one cached lattice: ``(intervals, sums, n_refreshed)``.

    Recomputes the (full, over) range sums and the derived interval
    bounds only at lattice positions whose cell-range corner moved
    (see :func:`_changed_corner_map`); every other position keeps values
    that are bitwise what a full recompute from ``table`` would yield.
    The bounds arithmetic (``bounds_from_sums``) is elementwise per
    position, so computing it on the touched subset and splicing is
    bitwise the full-lattice computation.  Returns ``None`` when too
    many positions are touched (:data:`DELTA_LATTICE_MAX_TOUCHED`) --
    the caller drops the lattice to the (equally bitwise-faithful)
    lazy full refresh instead of paying delta overhead for no gain.
    """
    x0, y0, lo, hi = lattice
    full_sums, over_sums = sums
    _, _, over_ranges, full_ranges = geometry
    oc_lo, oc_hi, or_lo, or_hi = over_ranges
    fc_lo, fc_hi, fr_lo, fr_hi = full_ranges
    # range_sums collapses empty ranges through min(lo, hi); test the
    # corner the formula actually reads.
    touched = changed_map[np.minimum(oc_lo, oc_hi), np.minimum(or_lo, or_hi)]
    touched |= changed_map[np.minimum(fc_lo, fc_hi), np.minimum(fr_lo, fr_hi)]
    idx = np.flatnonzero(touched)
    if idx.size == 0:
        return (x0, y0, lo, hi), (full_sums, over_sums), 0
    if idx.size > DELTA_LATTICE_MAX_TOUCHED * touched.size:
        return None
    sub_full = range_sums(table, fc_lo[idx], fc_hi[idx], fr_lo[idx], fr_hi[idx])
    sub_over = range_sums(table, oc_lo[idx], oc_hi[idx], or_lo[idx], or_hi[idx])
    new_full = full_sums.copy()
    new_over = over_sums.copy()
    new_full[idx] = sub_full
    new_over[idx] = sub_over
    sub_lo, sub_hi = compiler.bounds_from_sums(sub_full, sub_over, ctx)
    new_lo = lo.copy()
    new_hi = hi.copy()
    new_lo[idx] = sub_lo
    new_hi[idx] = sub_hi
    return (x0, y0, new_lo, new_hi), (new_full, new_over), int(idx.size)


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
