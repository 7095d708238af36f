"""Cross-dataset session management: the :class:`SessionPool`.

A server answering ASRS queries over many datasets wants one warm
:class:`~repro.engine.QuerySession` per dataset, but warm sessions hold
real memory (index tables, channel weights, lattice intervals, cached
cell states).  The pool bounds that (DESIGN.md §8.2): sessions are
kept in LRU order and, past the byte budget or session cap, the
least-recently-used ones are evicted -- eviction drops the session from
the pool *and* calls :meth:`~repro.engine.QuerySession.clear_caches`,
so memory is reclaimed even while a caller still holds the session
object.

The pool is thread-safe, and eviction is safe to race with in-flight
solves on the evicted session: a mid-solve ``clear_caches`` only forces
lazy recomputation, never a different answer (see
:meth:`QuerySession.clear_caches`).  The most-recently-used session is
never evicted, so the pool always serves the active dataset warm even
when one session alone exceeds the budget.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Hashable, Tuple

from ..analysis.sanitizer import make_rlock, sanitize_class
from ..core.objects import SpatialDataset
from ..dssearch.search import SearchSettings
from .session import QuerySession


class SessionPool:
    """Serves per-dataset :class:`QuerySession` s under a memory budget.

    Parameters
    ----------
    max_bytes:
        Budget over the summed :meth:`QuerySession.cache_nbytes` of all
        pooled sessions; ``None`` disables byte-based eviction.
    max_sessions:
        Hard cap on resident sessions; ``None`` disables it.
    granularity, settings:
        Defaults handed to sessions the pool creates (overridable per
        :meth:`session` call).
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        max_sessions: int | None = None,
        granularity: Tuple[int, int] | str = "auto",
        settings: SearchSettings | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 (or None)")
        self.max_bytes = max_bytes
        self.max_sessions = max_sessions
        self._granularity = granularity
        self._settings = settings
        self._sessions: OrderedDict[Hashable, QuerySession] = OrderedDict()  # guarded-by: _lock
        # Cached cache_nbytes() per key: a full sweep of every resident
        # session's artefacts per solve would put O(total warm state)
        # on the hot path, so only the just-touched session is
        # re-measured and the rest reuse their last measurement.
        self._nbytes_cache: dict = {}  # guarded-by: _lock
        self._lock = make_rlock("SessionPool._lock")
        self._evictions = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    def session(
        self,
        key: Hashable,
        dataset: SpatialDataset | None = None,
        *,
        granularity: Tuple[int, int] | str | None = None,
        settings: SearchSettings | None = None,
        wal=None,
    ) -> QuerySession:
        """The session registered under ``key``, creating it on first use.

        ``dataset`` is required the first time a key is seen (otherwise
        ``KeyError``); later calls may omit it.  ``wal`` (a path or
        :class:`~repro.engine.wal.WriteAheadLog`) is attached to a
        newly created session so every mutation through the pool is
        durably logged (crash recovery goes through
        :meth:`repro.service.RegionService.open`, which replays it).
        Every access marks the session most
        recently used.  The byte budget is re-measured by
        :meth:`reaccount` and the mutation calls, not by this accessor
        -- call :meth:`reaccount` after solving on the returned session
        object when the budget must track the growth.
        """
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._check_wal_matches(key, session, wal)
                self._sessions.move_to_end(key)
                return session
        if dataset is None:
            raise KeyError(f"unknown session key {key!r} and no dataset to bind")
        # Create outside the lock; on a creation race the first insert
        # wins and the loser is dropped.
        created = QuerySession(
            dataset,
            granularity=(
                granularity if granularity is not None else self._granularity
            ),
            settings=settings or self._settings,
        )
        if wal is not None:
            created.attach_wal(wal)
        with self._lock:
            session = self._sessions.setdefault(key, created)
            if session is not created:
                # Creation race: another thread's insert won.  Same
                # contract as the entry check -- a caller who asked for
                # durability must not silently get unlogged (or
                # elsewhere-logged) mutation.
                self._check_wal_matches(key, session, wal)
            self._sessions.move_to_end(key)
            self._enforce_budget(touched=key)
            return session

    @staticmethod
    def _check_wal_matches(key: Hashable, session: QuerySession, wal) -> None:
        """Reject a durability request the resident session cannot honor.

        Silently returning a WAL-less session (or one logging to a
        *different* file) would let a caller who asked for durability
        mutate without the log they expect to replay after a crash --
        and attaching mid-life would start a log missing the session's
        earlier history.
        """
        if wal is None:
            return
        if session.wal is None:
            raise ValueError(
                f"session {key!r} is already resident without a write-ahead "
                "log; evict it and recreate with wal=, or save a fresh "
                "bundle and attach via session.attach_wal so log and bundle "
                "share an epoch"
            )
        requested = os.path.abspath(getattr(wal, "path", None) or os.fspath(wal))
        if requested != os.path.abspath(session.wal.path):
            raise ValueError(
                f"session {key!r} is already logging to "
                f"{session.wal.path!r}, not the requested {requested!r}; "
                "evict it first to switch logs"
            )

    def adopt(self, key: Hashable, session: QuerySession) -> QuerySession:
        """Register an externally built session under ``key``.

        For callers whose construction choreography the pool cannot
        express -- :class:`repro.service.RegionService` opens a
        bundle, attaches (or deliberately does not attach) a write-ahead
        log and replays it with custom repair semantics before the
        session ever serves traffic.  If ``key`` is already resident, a
        *different* session object is refused (silently replacing a
        live session would orphan its mutations), while adopting the
        resident object is a no-op touch.  Returns the resident session.
        """
        with self._lock:
            resident = self._sessions.setdefault(key, session)
            if resident is not session:
                raise ValueError(
                    f"session key {key!r} is already resident with a "
                    "different session; evict it first"
                )
            self._sessions.move_to_end(key)
            self._enforce_budget(touched=key)
            return resident

    def reaccount(self, key: Hashable) -> None:
        """Re-measure one session's bytes and re-enforce the budget.

        Call after growing a session's caches outside the pool (e.g.
        solving directly on the object :meth:`session` returned) so the
        byte budget tracks the growth.  Unknown keys are a no-op.
        """
        with self._lock:
            self._enforce_budget(touched=key)

    def apply(self, key: Hashable, batch, dataset=None):
        """Mutate the keyed session via :meth:`QuerySession.apply`.

        Re-accounts the session's ``cache_nbytes()`` afterwards -- an
        update both grows state (appended rows widen every weight
        matrix) and shrinks it (dropped lattice intervals, invalidated
        cell entries), so the budget must be re-measured either way.
        """
        session = self.session(key, dataset)
        stats = session.apply(batch)
        with self._lock:
            # Re-admit if another key's traffic evicted this session
            # while the (potentially slow, solve-draining) apply ran:
            # the mutated dataset lives only in this session object, so
            # dropping it here would silently lose the committed
            # mutation.  setdefault keeps a racing fresh insert if one
            # beat us (it would have been built from the caller's
            # dataset -- the un-mutated copy -- so prefer ours).
            resident = self._sessions.setdefault(key, session)
            if resident is not session:
                self._sessions[key] = session
            self._sessions.move_to_end(key)
            # Unconditionally invalidate the cached measurement: a
            # mutation changes the footprint even when no byte budget is
            # set (where _enforce_budget would never re-measure).
            self._nbytes_cache.pop(key, None)
            self._enforce_budget(touched=key)
        return stats

    def append(self, key: Hashable, objects, dataset=None):
        """:meth:`apply` with an append-only batch."""
        from .updates import UpdateBatch

        return self.apply(key, UpdateBatch(append=objects), dataset)

    def delete(self, key: Hashable, mask_or_indices, dataset=None):
        """:meth:`apply` with a delete-only batch."""
        from .updates import UpdateBatch

        return self.apply(key, UpdateBatch(delete=mask_or_indices), dataset)

    # ------------------------------------------------------------------
    def _enforce_budget(self, touched: Hashable | None = None) -> None:  # guarded-by: _lock
        """Evict LRU sessions past the caps (callers hold ``_lock``).

        ``touched`` names the session whose caches may just have grown;
        it alone is re-measured, the others reuse cached measurements
        (sessions only grow through pool calls, so staleness is bounded
        by one solve).  The most-recently-used session survives even
        when it alone exceeds ``max_bytes``: evicting it would just
        force the active dataset to re-warm on the very next query.
        """
        if self.max_sessions is not None:
            while len(self._sessions) > self.max_sessions:
                self._evict_lru()
        if self.max_bytes is None:
            return
        if touched is not None and touched in self._sessions:
            self._nbytes_cache[touched] = self._sessions[touched].cache_nbytes()
        total = 0
        for key, session in self._sessions.items():
            size = self._nbytes_cache.get(key)
            if size is None:
                size = self._nbytes_cache[key] = session.cache_nbytes()
            total += size
        while len(self._sessions) > 1 and total > self.max_bytes:
            total -= self._evict_lru()

    def _evict_lru(self) -> int:  # guarded-by: _lock
        """Evict the LRU session; returns its last measured byte count."""
        key, session = self._sessions.popitem(last=False)
        freed = self._nbytes_cache.pop(key, 0)
        session.clear_caches()
        self._evictions += 1
        return freed

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Summed cache bytes of all resident sessions (exact re-measure)."""
        with self._lock:
            total = 0
            for key, session in self._sessions.items():
                size = session.cache_nbytes()
                self._nbytes_cache[key] = size
                total += size
            return total

    def evict(self, key: Hashable) -> bool:
        """Explicitly evict one session; returns whether it was resident."""
        with self._lock:
            session = self._sessions.pop(key, None)
            self._nbytes_cache.pop(key, None)
            if session is not None:
                self._evictions += 1
        if session is None:
            return False
        session.clear_caches()
        self._remeasure_if_resident(key, session)
        return True

    def clear(self) -> None:
        """Evict everything."""
        with self._lock:
            evicted = list(self._sessions.items())
            self._sessions.clear()
            self._nbytes_cache.clear()
            self._evictions += len(evicted)
        for key, session in evicted:
            session.clear_caches()
            self._remeasure_if_resident(key, session)

    def _remeasure_if_resident(self, key: Hashable, session: QuerySession) -> None:
        """Refresh a just-cleared session's measurement if it raced back in.

        ``clear_caches`` runs outside the pool lock, so it can interleave
        with :meth:`apply`'s re-admission of the same session object (or
        a concurrent solve re-growing its caches): the measurement taken
        at re-admission then describes the pre-clear footprint and would
        be served stale by every later budget pass.  Re-measure under
        the lock, but only while the entry still maps to this session --
        a fresh session created under the same key measures itself.
        """
        with self._lock:
            if self._sessions.get(key) is session:
                self._nbytes_cache[key] = session.cache_nbytes()

    def info(self) -> dict:
        """Occupancy snapshot (for tests and diagnostics).

        ``bytes`` reports the cached per-session measurements (sessions
        never measured yet are measured once here); call
        :meth:`nbytes` for an exact full re-measure -- ``info`` stays
        cheap so logging/``repr`` cannot stall query traffic with a
        sweep over every resident session's artefacts.
        """
        with self._lock:
            total = 0
            durability = {}
            for key, session in self._sessions.items():
                size = self._nbytes_cache.get(key)
                if size is None:
                    size = self._nbytes_cache[key] = session.cache_nbytes()
                total += size
                # Per-dataset durability state so operators (and the
                # service /stats endpoint) can see replication lag:
                # which sessions log where, how many records a restart
                # would replay, and what bundle layout they opened.
                # WriteAheadLog.state() is O(1) after its first scan,
                # so this stays repr-cheap.
                wal = session.wal
                durability[key] = {
                    "epoch": session.epoch,
                    "n": session.dataset.n,
                    "bundle_version": session.bundle_version,
                    "wal": None if wal is None else wal.state(),
                }
            return {
                "sessions": len(self._sessions),
                "keys": list(self._sessions),
                "bytes": total,
                "evictions": self._evictions,
                "max_bytes": self.max_bytes,
                "max_sessions": self.max_sessions,
                "durability": durability,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._sessions

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"SessionPool(sessions={info['sessions']}, "
            f"bytes={info['bytes']}, evictions={info['evictions']})"
        )


# Runtime sanitizer (DESIGN.md §14): enforce the guarded-by
# declarations above when REPRO_SANITIZE=1.
sanitize_class(SessionPool)
