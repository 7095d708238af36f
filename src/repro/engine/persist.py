"""Disk persistence of :class:`~repro.engine.QuerySession` state.

A restarted server should not re-pay the cold build (DESIGN.md §8.3):
:func:`save_session` snapshots every *persistable* warm artefact of a
session -- the built :class:`~repro.index.GridIndex`, the channel
suffix tables, the ASP reductions with their GPS accuracies, and the
candidate-lattice intervals -- into a single compressed ``.npz`` bundle
whose ``meta`` member is a JSON document describing the payload;
:func:`load_session` restores them into a fresh session without
recomputation.

Identity-keyed caches cannot survive a process restart, so persisted
per-aggregator artefacts are keyed by the structural
:func:`~repro.engine.session.aggregator_signature` and adopted lazily
by the session when a matching aggregator first appears.  Artefacts
that are cheap to rebuild (compilers, bound contexts, empty
representations) or unboundedly large (the per-cell level-0 cache) are
deliberately not persisted.

Every saved array round-trips bit-for-bit through ``.npz``, so a
``load_session``-warmed session answers queries bitwise-identically to
the session that was saved -- and therefore to the cold paths.  The
bundle records a fingerprint (length + SHA-256 over coordinates and
attribute columns) of the dataset it was built over; loading against
any other dataset raises ``ValueError`` instead of silently answering
from the wrong index.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict

import numpy as np

from .. import faults
from ..asp.rectset import RectSet
from ..core.atomicio import replace_atomically
from ..core.objects import SpatialDataset
from ..dssearch.search import SearchSettings
from ..index.grid_index import GridIndex
from .session import QuerySession, aggregator_recipe, aggregator_signature

#: A fault at ``save`` must leave the previous bundle (and the WAL
#: records the new one would have truncated) intact; a fault at
#: ``restore`` must surface loudly -- never a half-restored session.
FP_SAVE = faults.register("persist.save")
FP_RESTORE = faults.register("persist.restore")

#: Bump when the bundle layout changes.  v2 added the dataset epoch and
#: the index's pre-suffix cell sums (incremental updates); v3 adds the
#: per-compiler channel-table cell sums and an aggregator rebuild
#: recipe per table, so a restored session accepts updates (and WAL
#: replay) without one cold channel-table rebuild; v4 adds the (full,
#: over) range sums next to each lattice, so a restored-but-not-yet-
#: adopted ("pending") lattice is *delta-patched* through updates and
#: replay instead of dropping to a full lazy recompute.  v1 bundles are
#: still read but the restored session refuses mutation (no cell sums
#: to patch); v2 bundles mutate with a lazy cold table recompute; v3
#: bundles mutate but re-derive lattices lazily.  Versions newer than
#: this build are refused with a targeted message.
FORMAT_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, 4)


def dataset_fingerprint(dataset: SpatialDataset) -> dict:
    """A content fingerprint binding a bundle to one dataset."""
    digest = hashlib.sha256()
    digest.update(dataset.xs.tobytes())
    digest.update(dataset.ys.tobytes())
    for name in dataset.schema.names:
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    return {
        "n": dataset.n,
        "sha256": digest.hexdigest(),
        "attributes": list(dataset.schema.names),
    }


def save_session(session: QuerySession, path, *, checkpoint_wal: bool = True) -> str:
    """Snapshot a session's warm state to an ``.npz``+JSON bundle.

    Saves exactly what is warm: call
    :meth:`~repro.engine.QuerySession.warm` (or solve representative
    queries) first -- ``repro index-build`` does precisely that.
    When the session has a write-ahead log attached, the log is
    checkpoint-truncated (records the new bundle covers are dropped)
    unless ``checkpoint_wal=False`` -- pass that when the *dataset*
    behind the bundle is not yet durably persisted alongside it, or
    the truncation destroys the only recoverable copy of the updates.
    Returns the path written.
    """
    # Shallow-snapshot the cache dicts under the session's memo lock:
    # a session may be serving queries while it is saved, and _memo
    # inserts mid-iteration would otherwise blow up the save.  The
    # values themselves are immutable-once-stored, so copies of the
    # dicts are a consistent snapshot.  The dataset and epoch are
    # captured under the same acquisition: an incremental update swaps
    # dataset, epoch and caches in one memo-locked section
    # (engine/updates.py), so fingerprinting the captured dataset object
    # -- itself immutable -- keeps the bundle's fingerprint consistent
    # with the snapshotted caches even when a save races an update.
    faults.failpoint(FP_SAVE)
    with session._memo_lock:
        dataset = session.dataset
        epoch = session.epoch
        index = session._index
        reductions = dict(session._reductions)
        compilers = dict(session._compilers)
        tables_by_id = dict(session._tables)
        table_cells_by_id = dict(session._table_cells)
        lattices_by_key = dict(session._lattices)
        lattice_sums_by_key = dict(session._lattice_sums)
        pending_tables = dict(session._pending_tables)
        pending_table_cells = dict(session._pending_table_cells)
        pending_recipes = dict(session._pending_recipes)
        pending_lattices = dict(session._pending_lattices)
        pending_lattice_sums = dict(session._pending_lattice_sums)

    meta: dict = {
        "format_version": FORMAT_VERSION,
        "granularity": list(session.granularity),
        "settings": asdict(session.settings),
        "fingerprint": dataset_fingerprint(dataset),
        "epoch": epoch,
        "reductions": [],
        "tables": [],
        "lattices": [],
    }
    arrays: dict = {}

    if index is not None:
        index_meta, index_arrays = index.snapshot()
        meta["index"] = index_meta
        for name, arr in index_arrays.items():
            arrays[f"index_{name}"] = arr

    for (width, height, anchor), (rects, accuracy) in reductions.items():
        j = len(meta["reductions"])
        meta["reductions"].append(
            {
                "width": width,
                "height": height,
                "anchor": anchor,
                "accuracy": list(accuracy),
            }
        )
        arrays[f"red_{j}"] = np.stack(
            [rects.x_min, rects.y_min, rects.x_max, rects.y_max]
        )

    # Per-aggregator artefacts: translate id-keys to structural
    # signatures.  Unsignaturable aggregators (custom terms, predicate
    # selections) are skipped; not-yet-adopted artefacts of a loaded
    # session (still signature-keyed) are carried over as-is.
    compiler_of = {id(compiler): compiler for compiler in compilers.values()}
    signature_of = {
        compiler_id: aggregator_signature(compiler.aggregator)
        for compiler_id, compiler in compiler_of.items()
    }

    # Each table travels with its pre-suffix cell sums (what updates
    # patch) and an aggregator rebuild recipe (format v3): a restored
    # session can then accept updates -- including a WAL replay --
    # before any live aggregator adopts the table, with no cold
    # channel-table rebuild.  Cells/recipe may individually be absent
    # (adopted from an older bundle, unrecipeable selection value);
    # the table still loads, updates just drop it to a lazy recompute.
    tables: dict = {}
    for compiler_id, table in tables_by_id.items():
        signature = signature_of.get(compiler_id)
        if signature is not None:
            tables.setdefault(
                signature,
                (
                    table,
                    table_cells_by_id.get(compiler_id),
                    aggregator_recipe(compiler_of[compiler_id].aggregator),
                ),
            )
    for signature, table in pending_tables.items():
        tables.setdefault(
            signature,
            (
                table,
                pending_table_cells.get(signature),
                pending_recipes.get(signature),
            ),
        )
    for signature, (table, cells, recipe) in tables.items():
        j = len(meta["tables"])
        meta["tables"].append(
            {
                "signature": signature,
                "has_cells": cells is not None,
                "recipe": recipe,
            }
        )
        arrays[f"tab_{j}"] = table
        if cells is not None:
            arrays[f"tabcells_{j}"] = cells

    # Each lattice travels with the (full, over) range sums it was
    # derived from (format v4): a restored pending lattice can then be
    # delta-patched through updates and WAL replay exactly like a live
    # one.  Sums may be absent (carried over from an older bundle);
    # the lattice still loads, updates just drop it to a lazy refresh.
    lattices: dict = {}
    for (width, height, compiler_id), lattice in lattices_by_key.items():
        signature = signature_of.get(compiler_id)
        if signature is not None:
            lattices.setdefault(
                (width, height, signature),
                (lattice, lattice_sums_by_key.get((width, height, compiler_id))),
            )
    for key, lattice in pending_lattices.items():
        lattices.setdefault(key, (lattice, pending_lattice_sums.get(key)))
    for (width, height, signature), (lattice, sums) in lattices.items():
        j = len(meta["lattices"])
        meta["lattices"].append(
            {
                "width": width,
                "height": height,
                "signature": signature,
                "has_sums": sums is not None,
            }
        )
        for part, arr in zip(("x0", "y0", "lo", "hi"), lattice):
            arrays[f"lat_{j}_{part}"] = arr
        if sums is not None:
            arrays[f"lat_{j}_full"], arrays[f"lat_{j}_over"] = sums

    # repro: ignore[RPL004] -- bundle 'meta' member inside the .npz binary
    # format; floats in it are never non-finite (sizes, epochs, accuracies)
    arrays["meta"] = np.array(json.dumps(meta))
    # Atomic + fsynced write-then-rename: a crash mid-save must not
    # destroy the previous good bundle a server's restart path depends
    # on, and the rename gates a WAL checkpoint that *destroys* the
    # records this bundle supersedes -- an un-fsynced rename could
    # commit before the data blocks on a power loss, leaving a corrupt
    # bundle and no log to rebuild it from.
    target = replace_atomically(path, lambda fh: _write_bundle(fh, arrays))
    # Checkpoint-and-truncate: the bundle now covers everything up to
    # the snapshotted epoch, so an attached write-ahead log can drop
    # those records -- the bundle+WAL pair stays small and replayable.
    # Updates racing this save append records at >= the snapshot epoch
    # and survive the checkpoint.
    wal = session.wal
    if wal is not None and checkpoint_wal:
        wal.checkpoint(epoch)
    return target


def _write_bundle(fh, arrays: dict) -> None:
    """``np.savez_compressed``'s ``.npz`` layout at deflate level 1.

    The default level spends about 2.5x the time for a file about a
    fifth smaller (DESIGN.md §10.3), and a checkpoint holds updates out
    for as long as this write runs.  Each member is the ``.npy`` bytes
    ``np.savez`` would store, so :func:`np.load` reads the bundle as
    before.
    """
    with zipfile.ZipFile(
        fh, "w", zipfile.ZIP_DEFLATED, compresslevel=1, allowZip64=True
    ) as bundle:
        for name, arr in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(arr), allow_pickle=False)
            with member.getbuffer() as payload:
                bundle.writestr(name + ".npy", payload)


def load_session(
    path,
    dataset: SpatialDataset,
    settings: SearchSettings | None = None,
) -> QuerySession:
    """Restore a session from a :func:`save_session` bundle.

    ``dataset`` must be the dataset the bundle was saved over (verified
    by fingerprint).  ``settings`` defaults to the saved settings; a
    caller override is honoured, but saved reductions are keyed by
    their anchor, so an override with a different anchor falls back to
    cold reductions (answers stay correct either way).
    """
    faults.failpoint(FP_RESTORE)
    with np.load(path, allow_pickle=False) as bundle:
        if "meta" not in bundle.files:
            raise ValueError(
                f"{path!s} is not a session bundle (no 'meta' member); "
                "build one with `repro index-build`"
            )
        meta = json.loads(str(bundle["meta"][()]))
        version = meta.get("format_version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"session bundle {path!s} has format version {version}; this "
                f"build reads versions {_READABLE_VERSIONS[0]}-"
                f"{_READABLE_VERSIONS[-1]}.  The bundle was written by a newer "
                "build -- upgrade, or rebuild it with `repro index-build`"
            )
        fingerprint = dataset_fingerprint(dataset)
        if fingerprint != meta["fingerprint"]:
            saved_epoch = meta.get("epoch", 0)
            raise ValueError(
                f"session bundle {path!s} was built over a different dataset "
                f"(saved n={meta['fingerprint']['n']} at epoch {saved_epoch}, "
                f"got n={fingerprint['n']}); the bundle is stale if the "
                "dataset has been mutated since -- re-save the live session "
                "or rebuild with `repro index-build`"
            )
        session = QuerySession(
            dataset,
            granularity=tuple(int(g) for g in meta["granularity"]),
            settings=settings or SearchSettings(**meta["settings"]),
        )
        # Resume the mutation counter where the saved session left off
        # (pre-v2 bundles predate epochs and resume at 0).
        session.epoch = int(meta.get("epoch", 0))
        if "index" in meta:
            index_arrays = {
                name[len("index_"):]: bundle[name]
                for name in bundle.files
                if name.startswith("index_")
            }
            session._index = GridIndex.restore(dataset, meta["index"], index_arrays)
            if session._index._categorical_cells is None:
                # Pre-v2 bundle: the restored index answers queries
                # identically but holds no cell sums to patch, so the
                # session refuses append/delete/apply with a targeted
                # error naming this version (engine/updates.py) instead
                # of proceeding on missing state.
                session._nonpatchable_restore = int(version)
        for j, entry in enumerate(meta["reductions"]):
            block = bundle[f"red_{j}"]
            key = (float(entry["width"]), float(entry["height"]), entry["anchor"])
            session._reductions[key] = (
                RectSet(block[0], block[1], block[2], block[3]),
                tuple(float(v) for v in entry["accuracy"]),
            )
        for j, entry in enumerate(meta["tables"]):
            signature = entry["signature"]
            session._pending_tables[signature] = bundle[f"tab_{j}"]
            if entry.get("has_cells") and f"tabcells_{j}" in bundle.files:
                session._pending_table_cells[signature] = bundle[f"tabcells_{j}"]
            if entry.get("recipe"):
                session._pending_recipes[signature] = entry["recipe"]
        for j, entry in enumerate(meta["lattices"]):
            key = (float(entry["width"]), float(entry["height"]), entry["signature"])
            session._pending_lattices[key] = tuple(
                bundle[f"lat_{j}_{part}"] for part in ("x0", "y0", "lo", "hi")
            )
            if entry.get("has_sums") and f"lat_{j}_full" in bundle.files:
                session._pending_lattice_sums[key] = (
                    bundle[f"lat_{j}_full"],
                    bundle[f"lat_{j}_over"],
                )
        session.bundle_version = int(version)
    return session
