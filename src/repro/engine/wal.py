"""Write-ahead logging of :class:`~repro.engine.QuerySession` mutations.

A crashed server used to lose every ``apply``/``append``/``delete``
since its last :func:`~repro.engine.persist.save_session` and had to
rebuild from raw data -- exactly the cold build the engine exists to
avoid.  This module closes that gap (DESIGN.md §10) the way LSM-style
systems do: the in-place-patched index pairs with an append-only
redo log.

:class:`WriteAheadLog` is an append-only file of length-prefixed
records, one per *effective* :class:`~repro.engine.updates.UpdateBatch`.
Each record frame carries the pre-update dataset epoch and row count
plus a CRC-32 over the payload, so a torn tail (a crash mid-write)
is detected and cleanly truncated rather than misread; the payload is
an ``.npz`` blob of the batch's encoded rows, which round-trip
bit-for-bit.  ``QuerySession.apply`` writes through the log *before*
mutating (``session.attach_wal``), under the session's exclusive
update gate, so the log order is the mutation order.

:func:`replay` fast-forwards a :func:`~repro.engine.persist.load_session`
-restored session from its saved epoch to the log head: records older
than the bundle are skipped, the rest are composed into one equivalent
batch and re-applied through the normal (bitwise-faithful) update path
in a single index patch, so the recovered session answers
bitwise-identically to a cold session on the final dataset at the cost
of one update.  A gap --
the log's oldest record is newer than the bundle -- raises instead of
silently serving a stale index.

Durability policy: every append is flushed to the OS; ``fsync`` is
issued every ``fsync_batch`` records (1 = per-record, the durable
default; larger values amortize group commits).  ``save_session`` on a
WAL-attached session *checkpoints* the log -- records the new bundle
already covers are dropped -- so the bundle + WAL pair stays small and
replayable.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..analysis.sanitizer import make_lock, sanitize_class
from ..core.atomicio import fsync_dir, replace_atomically
from ..core.attributes import Schema
from ..core.objects import SpatialDataset

if TYPE_CHECKING:  # circular at runtime: updates.py imports this module
    from .session import QuerySession
    from .updates import UpdateBatch

#: Failpoints at the WAL's own commit boundaries (DESIGN.md §12).
#: ``frame-write`` sits where a torn frame lands on real storage;
#: ``crc`` simulates corruption detected while framing; ``truncate``
#: fires before checkpoint rewrites the log; ``rollback`` simulates the
#: repair path itself failing (the one fault that leaves log and
#: session out of agreement).
FP_APPEND_CRC = faults.register("wal.append.crc")
FP_APPEND_FRAME = faults.register("wal.append.frame-write")
FP_CHECKPOINT_TRUNCATE = faults.register("wal.checkpoint.truncate")
FP_ROLLBACK = faults.register("wal.rollback")


class WalWriteError(RuntimeError):
    """A WAL append failed: nothing was applied, nothing acknowledged.

    The serving layer maps this to a *degraded* dataset -- queries keep
    serving the last applied epoch, mutations are refused with the
    cause -- rather than retrying into a log of unknown state.
    """


class WalRollbackError(RuntimeError):
    """Rolling back a logged-but-unapplied record failed.

    The log now holds a record the session never applied; a later
    replay would wrongly apply it.  The serving layer treats this as
    *failed* (mutations, checkpoints and compactions all refused) until
    an explicit recover replays log and session back into agreement.
    """

#: File layout: MAGIC, then ``<II`` (format version, header-meta length),
#: then the header-meta JSON, then records.  Each record frame is
#: ``<IIqq`` (payload length, CRC-32, pre-update epoch, pre-update row
#: count) followed by the payload; the CRC covers the epoch/row-count
#: words and the payload, so any torn or bit-flipped tail fails closed.
WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 1
_FRAME = struct.Struct("<IIqq")
_HEAD = struct.Struct("<II")


@dataclass(frozen=True)
class _AppendToken:
    """Identity of one appended record, for failure rollback."""

    epoch: int
    pre_n: int
    crc: int


@dataclass
class ReplayStats:
    """What one :func:`replay` call did.

    ``applied`` counts **source records** the replay covered, even
    though the pending tail is coalesced and applied through one index
    patch; ``appended``/``deleted`` are the *net* row counts of the
    coalesced batch (a row appended then deleted within the tail
    contributes to neither).
    """

    applied: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    appended: int = 0
    deleted: int = 0
    final_epoch: int = 0


@dataclass
class CompactStats:
    """What one :meth:`WriteAheadLog.compact` call did."""

    records_before: int = 0
    records_after: int = 0
    merged: int = 0
    base_epoch: int = 0
    head_epoch: int = 0
    bytes_before: int = 0
    bytes_after: int = 0


def _frame_crc(epoch: int, pre_n: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(struct.pack("<qq", epoch, pre_n)))


def _encode_record(batch: "UpdateBatch", schema: Schema, span: int = 1) -> bytes:
    """The ``.npz`` payload of one update batch (arrays round-trip bitwise).

    ``span`` > 1 marks a record produced by :meth:`WriteAheadLog.compact`
    that stands in for that many original single-epoch records; replay
    uses it to fail closed when a bundle's epoch falls *inside* the
    merged span (the merged record can neither be skipped nor applied
    for such a bundle).
    """
    append_ds = batch.append_dataset(schema)
    if append_ds is not None and append_ds.schema != schema:
        raise ValueError("WAL record append rows must share the session schema")
    meta = {
        "columns": list(schema.names),
        "append_n": 0 if append_ds is None else append_ds.n,
        "has_delete": batch.delete is not None,
    }
    if span != 1:
        meta["span"] = int(span)
    # repro: ignore[RPL004] -- npz member metadata (ints/strings only),
    # part of the WAL's binary frame format, not the serving codec
    arrays: dict = {"meta": np.array(json.dumps(meta))}
    if batch.delete is not None:
        arrays["delete"] = np.asarray(batch.delete)
    if append_ds is not None:
        arrays["app_xs"] = append_ds.xs
        arrays["app_ys"] = append_ds.ys
        for name in schema.names:
            arrays[f"app_{name}"] = append_ds.column(name)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _payload_span(payload: bytes) -> int:
    """The epoch span of a record payload (1 unless written by compact).

    A span-``s`` record at epoch ``e`` stands for the original records
    at epochs ``[e, e+s)``: applying it advances a session from ``e``
    straight to ``e + s``, and the record *after* it (if any) carries
    epoch ``e + s``.  Epoch numbering is therefore stable across
    compaction -- replicas and bundles that reference the old numbers
    keep working.
    """
    with np.load(io.BytesIO(payload), allow_pickle=False) as blob:
        meta = json.loads(str(blob["meta"][()]))
    return int(meta.get("span", 1))


def _keep_mask(
    n: int, mask_or_indices: "np.ndarray | Sequence[int]"
) -> np.ndarray:
    """Boolean keep-mask over ``n`` rows for a delete selection.

    Mirrors :meth:`SpatialDataset.delete_mask` so compaction can compose
    delete selections without materializing intermediate datasets.
    """
    sel = np.asarray(mask_or_indices)
    keep = np.ones(n, dtype=bool)
    if sel.dtype == bool:
        if sel.shape != (n,):
            raise ValueError(f"delete mask has shape {sel.shape}, expected ({n},)")
        keep[sel] = False
    else:
        if sel.size and (sel.min() < -n or sel.max() >= n):
            raise IndexError(f"delete index out of range for dataset of {n} rows")
        keep[sel] = False
    return keep


def _compose_frames(
    frames: "Sequence[Tuple[int, int, bytes]]",
    schema: Schema,
    path: str,
) -> "Tuple[UpdateBatch, int]":
    """Compose contiguous record frames into one equivalent batch.

    The returned batch, applied to the dataset at the first frame's
    epoch, yields the bitwise-identical final dataset: deletes preserve
    row order and appends land at the end, so surviving original rows
    and surviving appended rows each keep their relative order -- the
    merged batch deletes the originals that did not survive and appends
    the appended rows that did, in order.  The returned span sums the
    input spans (inputs may themselves be prior compactions' merges),
    so applying the batch stands for advancing through every input
    epoch.  Shared by :meth:`WriteAheadLog.compact` (rewrite the log as
    one record) and :func:`replay` (apply the whole pending tail
    through one index patch).
    """
    from .updates import UpdateBatch

    base_epoch, base_n = frames[0][0], frames[0][1]
    # Compose the record sequence over a row-provenance array:
    # entries < base_n are original rows, entries >= base_n
    # index into the concatenation of all appended datasets.
    src = np.arange(base_n, dtype=np.int64)
    appends: "list[SpatialDataset]" = []
    app_total = 0
    expected_epoch = base_epoch
    for epoch, pre_n, payload in frames:
        if epoch != expected_epoch:
            raise ValueError(
                f"cannot compose records of {path!s}: record epochs are "
                f"not contiguous (expected {expected_epoch}, got {epoch})"
            )
        if pre_n != src.size:
            raise ValueError(
                f"cannot compose records of {path!s}: record at epoch "
                f"{epoch} expects {pre_n} rows but the composed "
                f"state has {src.size} -- the log is internally "
                "inconsistent"
            )
        batch = _decode_record(payload, schema)
        # A record may itself be a prior compaction's merge: its
        # span counts toward the new total, or a bundle inside
        # the *old* span would slip past the straddle check.
        expected_epoch = epoch + _payload_span(payload)
        if batch.delete is not None:
            src = src[_keep_mask(src.size, batch.delete)]
        app_ds = batch.append_dataset(schema)
        if app_ds is not None and app_ds.n:
            appends.append(app_ds)
            src = np.concatenate(
                [
                    src,
                    base_n + app_total + np.arange(app_ds.n, dtype=np.int64),
                ]
            )
            app_total += app_ds.n

    kept_originals = src[src < base_n]
    delete_idx = np.setdiff1d(np.arange(base_n, dtype=np.int64), kept_originals)
    surviving_app = src[src >= base_n] - base_n
    merged_append = None
    if surviving_app.size:
        app_concat = appends[0]
        for extra in appends[1:]:
            app_concat = app_concat.append(extra)
        merged_append = app_concat.subset(surviving_app)
    merged = UpdateBatch(
        append=merged_append,
        delete=delete_idx if delete_idx.size else None,
    )
    return merged, expected_epoch - base_epoch


def _decode_record(payload: bytes, schema: Schema) -> "UpdateBatch":
    """Invert :func:`_encode_record` against the replaying session's schema."""
    from .updates import UpdateBatch

    with np.load(io.BytesIO(payload), allow_pickle=False) as blob:
        meta = json.loads(str(blob["meta"][()]))
        if meta["columns"] != list(schema.names):
            raise ValueError(
                f"WAL record was written over columns {meta['columns']}, "
                f"but the session schema has {list(schema.names)}"
            )
        delete = blob["delete"] if meta["has_delete"] else None
        append = None
        if meta["append_n"]:
            append = SpatialDataset(
                blob["app_xs"],
                blob["app_ys"],
                schema,
                {name: blob[f"app_{name}"] for name in schema.names},
            )
    return UpdateBatch(append=append, delete=delete)


def _header_bytes(checkpoint_epoch: int = 0) -> bytes:
    """The canonical file header this build writes.

    ``checkpoint_epoch`` records how far the log has been truncated:
    a bundle older than it cannot be replayed from this log *even when
    the log is empty* -- without the marker, an old bundle plus a
    freshly checkpointed (empty) log would silently replay nothing and
    serve pre-update state.
    """
    # repro: ignore[RPL004] -- file-header metadata (a string and an int),
    # part of the WAL's binary frame format, not the serving codec
    meta = json.dumps(
        {"log": "repro-session-updates", "checkpoint_epoch": int(checkpoint_epoch)}
    ).encode("utf-8")
    return WAL_MAGIC + _HEAD.pack(WAL_VERSION, len(meta)) + meta


def _read_header(blob: bytes, path: str) -> Tuple[int, dict]:
    """Validate the file header; ``(first record offset, header meta)``."""
    if len(blob) < len(WAL_MAGIC) + _HEAD.size or blob[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise ValueError(f"{path!s} is not a repro write-ahead log (bad magic)")
    version, meta_len = _HEAD.unpack_from(blob, len(WAL_MAGIC))
    if version > WAL_VERSION:
        raise ValueError(
            f"write-ahead log {path!s} has format version {version}; this "
            f"build reads versions up to {WAL_VERSION}.  The log was written "
            "by a newer build -- upgrade to replay it"
        )
    start = len(WAL_MAGIC) + _HEAD.size + meta_len
    if len(blob) < start:
        raise ValueError(f"{path!s} is not a repro write-ahead log (truncated header)")
    try:
        meta = json.loads(blob[len(WAL_MAGIC) + _HEAD.size : start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(f"{path!s} is not a repro write-ahead log (bad header)")
    return start, meta


def _scan(path: str) -> Tuple[list, int, bool, dict]:
    """``(frames, good_end, torn, header)``: every intact record of the log.

    ``frames`` are ``(epoch, pre_n, payload)`` tuples; ``good_end`` is
    the byte offset just past the last intact record.  ``torn`` is True
    when trailing bytes exist that do not form a complete, CRC-valid
    record -- the signature of a crash mid-append.  Corruption is never
    skipped over: everything after the first bad frame is condemned,
    because a torn length word makes later framing meaningless.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    offset, header = _read_header(blob, path)
    frames: "list[tuple[int, int, bytes]]" = []
    torn = False
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            torn = True
            break
        length, crc, epoch, pre_n = _FRAME.unpack_from(blob, offset)
        payload = blob[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) < length or _frame_crc(epoch, pre_n, payload) != crc:
            torn = True
            break
        frames.append((epoch, pre_n, payload))
        offset += _FRAME.size + length
    return frames, offset, torn, header


class WriteAheadLog:
    """An append-only, CRC-framed log of session update batches.

    Parameters
    ----------
    path:
        Log file; created (with its header) on the first append.
    fsync_batch:
        ``os.fsync`` is issued once per this many appended records.
        1 (the default) makes every committed update durable before
        ``apply`` returns; larger values trade a bounded tail-loss
        window for group-commit throughput.  :meth:`sync` forces the
        pending fsync at any time.

    Thread-safety: appends, checkpoints and scans serialize on an
    internal lock; the writing side is additionally serialized by the
    session's exclusive update gate.
    """

    def __init__(
        self, path: "str | os.PathLike[str]", fsync_batch: int = 1
    ) -> None:
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        self.path = os.fspath(path)
        self.fsync_batch = int(fsync_batch)
        self._lock = make_lock("WriteAheadLog._lock")
        self._fh: Optional[IO[bytes]] = None  # guarded-by: _lock
        self._unsynced = 0  # guarded-by: _lock
        # The epoch the next appended record must carry: last record's
        # pre-epoch + 1, or the checkpoint marker of an empty log.
        # Computed from the open-time scan; None until first use.
        self._head_epoch: int | None = None  # guarded-by: _lock
        # Intact record count and header checkpoint marker, kept in step
        # with every append/rollback/checkpoint/reset/compact so
        # :meth:`state` (the durability signal policy checkpoints key
        # off, called after every update) never re-reads the file on
        # the hot path.  None until the first open-time scan.
        self._records: int | None = None  # guarded-by: _lock
        self._checkpoint_epoch: int | None = None  # guarded-by: _lock
        # True only for a log file this object just created: its first
        # append adopts the session's epoch as the baseline.
        self._adopt_head = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    def _drop_handle(self) -> None:  # guarded-by: _lock
        """Close the append handle (callers hold the lock).

        Any code path that changes the file through a *different*
        handle (rollback, checkpoint, reset) must drop this one: an
        O_APPEND write still lands at the real end-of-file, but the
        buffered handle's tell() goes stale, corrupting later
        offset-based bookkeeping.
        """
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self._unsynced = 0

    def _open(self) -> IO[bytes]:  # guarded-by: _lock
        """The append handle, creating file + header on first use.

        An existing log is scanned first: any torn tail (a previous
        crash mid-append) is truncated away -- appending past garbage
        would leave every new, fsync-acknowledged record unreplayable,
        since a scan condemns everything after the first bad frame --
        and the scan establishes the log's head epoch, which
        :meth:`append` enforces.
        """
        if self._fh is None:
            exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
            if exists:
                frames, good_end, torn, header = _scan(self.path)
                if torn:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(good_end)
                        os.fsync(fh.fileno())
                # The last record's span decides the head: a compacted
                # record at epoch e spanning s epochs is followed by
                # epoch e + s, not e + 1.
                self._head_epoch = (
                    frames[-1][0] + _payload_span(frames[-1][2])
                    if frames
                    else int(header.get("checkpoint_epoch", 0))
                )
                self._records = len(frames)
                self._checkpoint_epoch = int(header.get("checkpoint_epoch", 0))
                self._adopt_head = False
            else:
                # A brand-new log has no history to protect: the first
                # append *adopts* its epoch as the baseline (a session
                # restored from an epoch>0 bundle legitimately starts
                # a fresh log there).
                self._head_epoch = 0
                self._records = 0
                self._checkpoint_epoch = 0
                self._adopt_head = True
            self._fh = open(self.path, "ab")
            if not exists:
                self._fh.write(_header_bytes())
                self._fh.flush()
                os.fsync(self._fh.fileno())
                # Per-record fsyncs are useless if the *directory entry*
                # of the just-created file is not durable too.
                fsync_dir(os.path.dirname(os.path.abspath(self.path)) or ".")
        return self._fh

    def append(
        self,
        batch: "UpdateBatch",
        *,
        epoch: int,
        pre_n: int,
        schema: Schema,
    ) -> "_AppendToken":
        """Durably log one batch about to be applied at ``epoch``.

        Called by the update path *before* any session state mutates
        (write-ahead): a crash after this point replays the batch, a
        crash before it loses nothing but an unacknowledged request.
        ``epoch`` must equal the log's head epoch -- appending from a
        session that never replayed an existing log would shadow the
        logged history and silently lose the new records at the next
        recovery, so that raises instead.  Returns a token a *failed*
        apply passes to :meth:`rollback` so its record does not become
        an orphan a later replay would wrongly apply.
        """
        payload = _encode_record(batch, schema)
        crc = _frame_crc(epoch, pre_n, payload)
        faults.failpoint(FP_APPEND_CRC)
        frame = _FRAME.pack(len(payload), crc, epoch, pre_n)
        with self._lock:
            fh = self._open()
            if self._adopt_head and epoch != self._head_epoch:
                # First append to a freshly created log: adopt its epoch
                # as the baseline.  The marker is durably rewritten
                # first, so replay fails closed for bundles older than
                # the baseline even if this record is later rolled back.
                self._drop_handle()
                replace_atomically(
                    self.path, lambda out: out.write(_header_bytes(epoch))
                )
                fh = open(self.path, "ab")
                self._fh = fh
                self._head_epoch = epoch
                self._checkpoint_epoch = epoch
            elif epoch != self._head_epoch:
                raise ValueError(
                    f"appending to {self.path!s} at epoch {epoch} but the "
                    f"log head expects epoch {self._head_epoch}; if the "
                    "session predates records in this log, replay it first "
                    "(engine.wal.replay); if this log belongs to a "
                    "different baseline, start a fresh one"
                )
            self._adopt_head = False
            start = fh.tell()
            try:
                faults.failpoint(FP_APPEND_FRAME, fh=fh, data=frame + payload)
                fh.write(frame + payload)
                fh.flush()
            except BaseException:
                # A partial write (ENOSPC and friends) is a torn frame
                # in the *middle* once later appends succeed; close the
                # handle and truncate back so the log ends at the last
                # good record.  Every cleanup step is best-effort: the
                # same full disk that broke the write can break a flush
                # here, and the handle must still be dropped so a later
                # append cannot land after torn bytes.
                try:
                    fh.close()
                except OSError:
                    pass
                self._fh = None
                self._unsynced = 0
                try:
                    with open(self.path, "r+b") as rf:
                        rf.truncate(start)
                        os.fsync(rf.fileno())
                except OSError:
                    pass
                raise
            self._unsynced += 1
            if self._unsynced >= self.fsync_batch:
                os.fsync(fh.fileno())
                self._unsynced = 0
            self._head_epoch = epoch + 1
            if self._records is not None:
                self._records += 1
            return _AppendToken(epoch, pre_n, crc)

    def rollback(self, token: "_AppendToken") -> None:
        """Remove the record ``token``'s :meth:`append` wrote, if present.

        Used when the update an appended record announced *failed*
        before committing: the record must not survive, or replay
        would apply a batch the live session never did -- and then
        skip the genuinely applied batch logged at the same epoch.
        Identity-based rather than offset-based: a concurrent
        checkpoint may have rewritten the file (shifting offsets), so
        the log is scanned and its final record dropped only when it
        matches the token.  The caller holds the session's exclusive
        update gate, so no later record can have been appended.
        """
        with self._lock:
            faults.failpoint(FP_ROLLBACK)
            self._drop_handle()
            if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
                return
            frames, good_end, torn, _ = _scan(self.path)
            n_kept = len(frames)
            if frames:
                epoch, pre_n, payload = frames[-1]
                if (epoch, pre_n) == (token.epoch, token.pre_n) and (
                    _frame_crc(epoch, pre_n, payload) == token.crc
                ):
                    good_end -= _FRAME.size + len(payload)
                    self._head_epoch = epoch
                    n_kept -= 1
            self._records = n_kept
            # Truncating at good_end also sheds any torn tail bytes.
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)
                os.fsync(fh.fileno())

    def sync(self) -> None:
        """Force the pending group-commit fsync."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            self._drop_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def records(self, schema: Schema) -> list:
        """``(epoch, pre_n, UpdateBatch)`` for every intact record.

        A read-only scan (tests, diagnostics); the torn tail, if any,
        is ignored but not repaired -- :func:`replay` repairs.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            if not os.path.exists(self.path):
                return []
            frames, _, _, _ = _scan(self.path)
        return [
            (epoch, pre_n, _decode_record(payload, schema))
            for epoch, pre_n, payload in frames
        ]

    def checkpoint(self, epoch: int) -> int:
        """Drop records a bundle saved at ``epoch`` already covers.

        Rewrites the log keeping only records with pre-update epoch
        ``>= epoch`` (atomic fsynced temp + rename, so a crash
        mid-checkpoint leaves the old log intact); any torn tail is
        dropped with them, and the header records the checkpoint epoch.
        Returns the number of records removed.  After a checkpoint,
        bundles saved *before* ``epoch`` can no longer be replayed from
        this log -- :func:`replay` detects that as a gap, via the first
        surviving record or, when none survive, the header marker.
        """
        with self._lock:
            self._drop_handle()
            if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
                return 0
            frames, good_end, torn, header = _scan(self.path)
            marker = max(int(header.get("checkpoint_epoch", 0)), int(epoch))
            kept = [f for f in frames if f[0] >= epoch]
            if (
                len(kept) == len(frames)
                and not torn
                and marker == header.get("checkpoint_epoch", 0)
            ):
                return 0

            def write(fh: IO[bytes]) -> None:
                fh.write(_header_bytes(marker))
                for rec_epoch, pre_n, payload in kept:
                    fh.write(
                        _FRAME.pack(
                            len(payload),
                            _frame_crc(rec_epoch, pre_n, payload),
                            rec_epoch,
                            pre_n,
                        )
                        + payload
                    )

            faults.failpoint(FP_CHECKPOINT_TRUNCATE)
            replace_atomically(self.path, write)
            self._records = len(kept)
            self._checkpoint_epoch = marker
            if not kept:
                self._head_epoch = marker
            return len(frames) - len(kept)

    def reset(self) -> int:
        """Restart the log as a fresh epoch-0 baseline (drops everything).

        For when the *dataset itself* has been re-saved as the new
        baseline (``repro update --wal --save-data`` without a bundle):
        a CSV carries no epoch, so the next cold session over it starts
        at epoch 0 and must see a log that starts there too -- a
        :meth:`checkpoint` marker at the old epoch would fail it closed
        even though the CSV embodies every logged update.  Returns the
        number of records dropped.
        """
        with self._lock:
            self._drop_handle()
            self._head_epoch = 0
            self._records = 0
            self._checkpoint_epoch = 0
            if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
                return 0
            frames, _, _, _ = _scan(self.path)
            replace_atomically(self.path, lambda fh: fh.write(_header_bytes()))
            return len(frames)

    def state(self) -> dict:
        """Durability snapshot: record count, epochs, bytes on disk.

        ``records`` is the number of intact records the log holds --
        records since the last checkpoint, i.e. exactly what a restart
        must replay (operators read it as replication lag; a
        :class:`~repro.service.DurabilityPolicy` keys its checkpoint
        and compaction triggers off it and off ``bytes``).  Cheap after
        the first call: counts are maintained in step with every
        append/checkpoint/rollback, so only a never-opened log pays a
        one-off scan.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
            exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
            if (
                self._records is None
                or self._head_epoch is None
                or self._checkpoint_epoch is None
            ):
                if exists:
                    frames, _, _, header = _scan(self.path)
                    self._records = len(frames)
                    self._head_epoch = (
                        frames[-1][0] + _payload_span(frames[-1][2])
                        if frames
                        else int(header.get("checkpoint_epoch", 0))
                    )
                    self._checkpoint_epoch = int(
                        header.get("checkpoint_epoch", 0)
                    )
                else:
                    self._records, self._head_epoch = 0, 0
                    self._checkpoint_epoch = 0
            return {
                "path": self.path,
                "records": int(self._records),
                "head_epoch": int(self._head_epoch),
                "checkpoint_epoch": int(self._checkpoint_epoch),
                "bytes": os.path.getsize(self.path) if exists else 0,
            }

    def compact(self, schema: Schema) -> CompactStats:
        """Merge every logged record into one equivalent batch.

        Composes the log's delete/append sequence into a single
        :class:`~repro.engine.updates.UpdateBatch` whose application to
        the dataset at the log's base epoch yields the bitwise-identical
        final dataset (deletes preserve row order and appends land at
        the end, so surviving original rows and surviving appended rows
        each keep their relative order -- the merged batch deletes the
        originals that did not survive and appends the appended rows
        that did, in order).

        Epoch numbering is **stable across compaction**: the rewritten
        log holds one record at the base epoch whose payload carries
        the merged *span* (summing the spans of already-compacted
        inputs, so re-compaction keeps covering the full range), and
        the log's head epoch is unchanged -- the live session, every
        replica, and every bundle keep their epoch numbers.  Applying
        the merged record fast-forwards a session from the base epoch
        straight to ``base + span`` (:func:`replay`); a bundle whose
        epoch falls strictly *inside* the span fails closed.  A stream
        that cancels out to a net no-op still compacts to one (empty)
        record, because mid-span bundles hold mid-span data and must
        not silently replay nothing.  Compact is a durability-
        preserving rewrite (atomic fsynced replace): at no point is the
        old log gone without the new one being durable.
        """
        with self._lock:
            self._drop_handle()
            stats = CompactStats()
            if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
                return stats
            frames, _, _, header = _scan(self.path)
            stats.records_before = len(frames)
            stats.records_after = len(frames)
            stats.bytes_before = os.path.getsize(self.path)
            stats.bytes_after = stats.bytes_before
            marker = int(header.get("checkpoint_epoch", 0))
            if frames:
                stats.base_epoch = frames[0][0]
                stats.head_epoch = frames[-1][0] + _payload_span(frames[-1][2])
            else:
                stats.base_epoch = stats.head_epoch = marker
            if len(frames) <= 1:
                return stats
            base_epoch, base_n = frames[0][0], frames[0][1]
            merged, span = _compose_frames(frames, schema, self.path)
            payload = _encode_record(merged, schema, span=span)

            def write(fh: IO[bytes]) -> None:
                fh.write(_header_bytes(marker))
                fh.write(
                    _FRAME.pack(
                        len(payload),
                        _frame_crc(base_epoch, base_n, payload),
                        base_epoch,
                        base_n,
                    )
                    + payload
                )

            replace_atomically(self.path, write)
            self._records = 1
            self._head_epoch = base_epoch + span
            self._checkpoint_epoch = marker
            self._adopt_head = False
            stats.records_after = 1
            stats.merged = stats.records_before - 1
            stats.head_epoch = int(self._head_epoch)
            stats.bytes_after = os.path.getsize(self.path)
            return stats

    def __repr__(self) -> str:
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return f"WriteAheadLog({self.path!r}, bytes={size})"


def replay(
    session: "QuerySession",
    wal: "WriteAheadLog | str | os.PathLike[str]",
    *,
    repair: bool = True,
) -> ReplayStats:
    """Fast-forward a restored session from its saved epoch to the log head.

    ``session`` is typically fresh from
    :func:`~repro.engine.persist.load_session`; ``wal`` is a
    :class:`WriteAheadLog` or a path.  Records the bundle already covers
    (pre-update epoch below the session's) are skipped; the rest are
    **composed into one equivalent batch** (the same row-provenance
    merge :meth:`WriteAheadLog.compact` uses) and re-applied through
    the normal update path in a single index patch, so the recovered
    session is bitwise-identical to a cold session on the final dataset
    while paying one patch pass regardless of log length -- and no cold
    channel-table rebuild happens along the way (pending per-compiler
    cell sums are patched in place).

    A torn tail (crash mid-append) is truncated off the file when
    ``repair`` is True (the default) and never raises.  A *gap* -- the
    log's oldest surviving record is newer than the bundle, i.e. the log
    was checkpointed past it -- raises ``ValueError``, as does a
    row-count mismatch (bundle and log from different lineages).

    Replay never writes to the log, even when ``session`` has this WAL
    attached, so attach-then-replay is the natural recovery sequence.
    """
    from .updates import apply_update

    if isinstance(wal, WriteAheadLog):
        wal.sync()
        path = wal.path
    else:
        path = os.fspath(wal)
    stats = ReplayStats(final_epoch=session.epoch)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return stats
    frames, good_end, torn, header = _scan(path)
    checkpoint_epoch = int(header.get("checkpoint_epoch", 0))
    if checkpoint_epoch > session.epoch:
        # Even with no surviving records the marker fails closed: an
        # old bundle plus a checkpointed (possibly empty) log would
        # otherwise silently replay nothing and serve stale state.
        raise ValueError(
            f"write-ahead log {path!s} was checkpointed at epoch "
            f"{checkpoint_epoch} but the session is at epoch "
            f"{session.epoch}: records this bundle needs were truncated.  "
            "Restore from the bundle and dataset saved at that checkpoint"
        )
    if torn:
        stats.truncated_bytes = os.path.getsize(path) - good_end
        if repair:
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
    schema = session.dataset.schema

    def check_span(epoch: int, payload: bytes) -> None:
        # A compacted record spanning [epoch, epoch+span) can neither be
        # skipped nor applied when the bundle's epoch falls strictly
        # inside the span.  Only the LAST skipped frame can straddle:
        # record epochs are contiguous across spans, so an earlier
        # skipped frame followed by another skipped frame ends before
        # that one starts -- decoding one payload per replay keeps the
        # skip path O(1) per record for replica polls.
        span = _payload_span(payload)
        if epoch + span > session.epoch:
            raise ValueError(
                f"write-ahead log {path!s} holds a compacted record "
                f"spanning epochs {epoch}-{epoch + span - 1} but the "
                f"session is at epoch {session.epoch}, *inside* the "
                "span: the merged record can neither be skipped nor "
                "applied for this bundle.  Restore from the bundle and "
                "dataset saved at the compaction base"
            )

    last_skipped: "tuple[int, bytes] | None" = None
    pending: "list[Tuple[int, int, bytes]]" = []
    for epoch, pre_n, payload in frames:
        if epoch < session.epoch:
            last_skipped = (epoch, payload)
            stats.skipped += 1
            continue
        if last_skipped is not None:
            check_span(*last_skipped)
            last_skipped = None
        if not pending:
            if epoch > session.epoch:
                raise ValueError(
                    f"write-ahead log {path!s} starts at epoch {epoch} but "
                    f"the session is at epoch {session.epoch}: the log was "
                    "checkpointed past this bundle.  Restore from the bundle "
                    "and dataset saved at that checkpoint"
                )
            if pre_n != session.dataset.n:
                raise ValueError(
                    f"write-ahead log {path!s} record at epoch {epoch} "
                    f"expects {pre_n} rows but the session dataset has "
                    f"{session.dataset.n}: bundle and log are from different "
                    "dataset lineages.  If the dataset file was re-saved "
                    "after these records were applied (e.g. a crash between "
                    "--save-data and the WAL checkpoint), the records are "
                    "already reflected in it and the log can safely be "
                    "deleted"
                )
        pending.append((epoch, pre_n, payload))
    if last_skipped is not None:
        check_span(*last_skipped)

    if pending:
        # Coalesce the whole pending tail into ONE equivalent batch and
        # apply it through a single index patch: replay cost is one
        # update regardless of log length, which is what lets recovery
        # beat a cold rebuild (`speedup_wal_replay`).  Contiguity and
        # row-count consistency of the later records are enforced by
        # the composition itself; the first record was validated against
        # the session above.  ``applied`` still counts source records.
        base_epoch = pending[0][0]
        if len(pending) == 1:
            merged = _decode_record(pending[0][2], schema)
            span = _payload_span(pending[0][2])
        else:
            merged, span = _compose_frames(pending, schema, path)
        ustats = apply_update(session, merged, log=False)
        stats.applied = len(pending)
        stats.appended += ustats.appended
        stats.deleted += ustats.deleted
        if session.epoch != base_epoch + span:
            # The merged batch stands for `span` original updates (the
            # apply bumped the epoch once, or -- for a net-no-op merge
            # -- not at all): fast-forward past the covered range.
            # Under the exclusive gate: a replica may be serving while
            # it replays, and an in-flight solve_with_epoch must never
            # observe the post-merge dataset with the pre-merge label.
            with session._update_gate.exclusive():
                session.epoch = base_epoch + span
    stats.final_epoch = session.epoch
    return stats


# Runtime sanitizer (DESIGN.md §14): enforce the guarded-by
# declarations above when REPRO_SANITIZE=1.
sanitize_class(WriteAheadLog)
