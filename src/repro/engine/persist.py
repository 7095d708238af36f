"""The session bundle: the epoch record a checkpoint leaves next to its CSV.

A checkpoint writes the dataset CSV, then this bundle, then truncates
the write-ahead log (DESIGN.md §8.3, §10.3).  The CSV carries no epoch,
so the bundle is what tells a restart which log records the CSV already
holds.  :func:`save_session` writes one ``.npz`` member, ``meta``: a
JSON document with the dataset ``epoch``, a ``fingerprint`` of the
dataset (length + SHA-256 over coordinates and attribute columns), the
grid ``granularity`` and the DS-Search ``settings``.
:func:`load_session` returns a cold :class:`~repro.engine.QuerySession`
at that epoch and grid; the caches rebuild on first use, which is
faster than reading them back was (DESIGN.md §8.3).

Loading against any dataset other than the fingerprinted one raises
``ValueError`` instead of replaying the log onto the wrong rows -- the
check that fails a torn checkpoint closed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from .. import faults
from ..core.atomicio import replace_atomically
from ..core.objects import SpatialDataset
from ..dssearch.search import SearchSettings
from .session import QuerySession

#: A fault at ``save`` must leave the previous bundle (and the WAL
#: records the new one would have truncated) intact; a fault at
#: ``restore`` must surface loudly -- never a half-opened session.
FP_SAVE = faults.register("persist.save")
FP_RESTORE = faults.register("persist.restore")

#: The layout this build writes: a ``meta`` member only.
FORMAT_VERSION = 5
#: Layouts this build reads.  Version 4 bundles also hold the warm
#: arrays earlier builds saved; the reader ignores every member but
#: ``meta``, so a server upgraded in place still opens the bundle its
#: log was checkpointed against (DESIGN.md §9.4).
READABLE_VERSIONS = (4, 5)


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
    """Write a session's epoch record to a bundle at ``path``.

    When the session has a write-ahead log attached, the log is then
    checkpoint-truncated (records the bundle's epoch covers are
    dropped) unless ``checkpoint_wal=False`` -- pass that when the
    *dataset* behind the bundle is not yet durably persisted alongside
    it, or the truncation destroys the only recoverable copy of the
    updates.  Returns the path written.
    """
    faults.failpoint(FP_SAVE)
    # An update swaps dataset and epoch in one memo-locked section
    # (engine/updates.py), so one acquisition reads a matching pair.
    with session._memo_lock:
        dataset = session.dataset
        epoch = session.epoch
    meta = {
        "format_version": FORMAT_VERSION,
        "granularity": list(session.granularity),
        "settings": asdict(session.settings),
        "fingerprint": dataset_fingerprint(dataset),
        "epoch": epoch,
    }
    # repro: ignore[RPL004] -- bundle 'meta' member inside the .npz binary
    # format; floats in it are never non-finite (grid sizes, settings)
    document = np.array(json.dumps(meta))
    # Atomic + fsynced write-then-rename: the rename gates a WAL
    # checkpoint that *destroys* the records this bundle supersedes, so
    # an un-fsynced rename must never commit before the data blocks.
    target = replace_atomically(path, lambda fh: np.savez(fh, meta=document))
    # Updates racing this save append records at >= the saved epoch and
    # survive the checkpoint.
    wal = session.wal
    if wal is not None and checkpoint_wal:
        wal.checkpoint(epoch)
    return target


def load_session(
    path,
    dataset: SpatialDataset,
    settings: SearchSettings | None = None,
) -> QuerySession:
    """A cold session over ``dataset`` at the epoch a bundle records.

    ``dataset`` must be the dataset the bundle was saved over (verified
    by fingerprint).  ``settings`` defaults to the saved settings.  A
    bundle that is not a readable version, or whose ``meta`` lacks or
    garbles a field, raises ``ValueError`` naming it.
    """
    faults.failpoint(FP_RESTORE)
    with np.load(path, allow_pickle=False) as bundle:
        if "meta" not in bundle.files:
            raise ValueError(f"{path!s} is not a session bundle (no 'meta' member)")
        meta = json.loads(str(bundle["meta"][()]))
    if not isinstance(meta, dict):
        raise ValueError(f"session bundle {path!s} has no 'meta' document")
    version = meta.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"session bundle {path!s} has format version {version}; this "
            f"build reads versions {READABLE_VERSIONS[0]}-{READABLE_VERSIONS[-1]}"
        )
    for field in ("fingerprint", "epoch", "settings", "granularity"):
        if field not in meta:
            raise ValueError(f"session bundle {path!s} has no {field!r} in its meta")
    saved = meta["fingerprint"]
    if dataset_fingerprint(dataset) != saved:
        saved_n = saved.get("n") if isinstance(saved, dict) else None
        raise ValueError(
            f"session bundle {path!s} was built over a different dataset "
            f"(saved n={saved_n} at epoch {meta['epoch']}, got "
            f"n={dataset.n}); the bundle is stale if the dataset has been "
            "mutated since -- checkpoint the live session again"
        )
    try:
        epoch = int(meta["epoch"])
    except (TypeError, ValueError):
        raise ValueError(
            f"session bundle {path!s} has a malformed 'epoch' {meta['epoch']!r}"
        ) from None
    try:
        saved_settings = SearchSettings(**meta["settings"])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"session bundle {path!s} has malformed 'settings': {exc}"
        ) from None
    try:
        granularity = tuple(int(g) for g in meta["granularity"])
        session = QuerySession(
            dataset, granularity=granularity, settings=settings or saved_settings
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"session bundle {path!s} has a malformed 'granularity': {exc}"
        ) from None
    session.epoch = epoch
    session.bundle_version = version
    return session
