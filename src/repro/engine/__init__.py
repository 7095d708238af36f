"""The zero-churn query engine (DESIGN.md §7-§8).

:class:`QuerySession` binds a dataset once, memoizes every
query-independent artefact (grid index, channel tables, compilers, ASP
reductions, bound contexts), and serves single queries (:meth:`solve`)
or batches (:meth:`solve_batch`) with answers bitwise-identical to the
cold :func:`~repro.dssearch.ds_search` /
:func:`~repro.index.gi_ds_search` paths.  Sessions are thread-safe;
:class:`SessionPool` manages one per dataset under an LRU memory
budget.  Mutations (`apply`/`append`/`delete`) patch the warm state in
place and, with a :class:`WriteAheadLog` attached, are durably logged
before applying.  :func:`save_session` records a checkpoint's epoch
next to its CSV; after a crash :func:`load_session` opens a cold
session at that epoch and :func:`replay` fast-forwards it to the log
head (DESIGN.md §8.3, §9-§10).
"""

from .persist import load_session, save_session
from .pool import SessionPool
from .session import QuerySession
from .updates import UpdateBatch, UpdateStats
from .wal import (
    CompactStats,
    ReplayStats,
    WalRollbackError,
    WalWriteError,
    WriteAheadLog,
    replay,
)

__all__ = [
    "CompactStats",
    "QuerySession",
    "ReplayStats",
    "SessionPool",
    "UpdateBatch",
    "UpdateStats",
    "WalRollbackError",
    "WalWriteError",
    "WriteAheadLog",
    "load_session",
    "replay",
    "save_session",
]
