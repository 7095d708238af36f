"""The one serving facade: :class:`RegionService` (DESIGN.md §11).

PRs 1-4 built four layers a production caller had to hand-compose --
:class:`~repro.engine.QuerySession` (warm solves),
:class:`~repro.engine.SessionPool` (cross-dataset memory budget),
``engine/persist`` (bundles) and ``engine/wal`` (durable updates) --
plus the checkpoint/replay choreography that lived only in ``cli.py``.
``RegionService`` owns all of it behind one typed surface:

* :meth:`open` binds a :class:`~repro.service.DatasetSpec` -- loads the
  CSV, restores the bundle if one exists, attaches the write-ahead log
  and replays it (crash recovery), registering the session in the pool;
* :meth:`query` / :meth:`query_batch` / :meth:`query_topk` answer
  :class:`~repro.service.QueryRequest` s with structured
  :class:`~repro.service.RegionResult` s, interning one aggregator
  object per term tuple so every request shape hits the session caches;
* :meth:`update` applies an :class:`~repro.service.UpdateRequest`
  (write-ahead-logged when the spec names a WAL) and then runs the
  spec's :class:`~repro.service.DurabilityPolicy`: checkpoint every K
  records / B bytes, else compact the log, else nothing;
* :meth:`checkpoint` persists the (CSV, bundle) pair and truncates the
  log; :meth:`compact` merges the log's records into one equivalent
  batch without touching the bundle; :meth:`close` checkpoints once
  more per policy;
* :meth:`refresh` is the read-only replica tick: re-replay the log the
  writer appends to (never repairing -- the reader must not truncate a
  tail the writer is mid-append on), falling back to a full reopen when
  the writer checkpointed past this replica.

Thread-safety: sessions already serialize solves against updates (the
update gate); the facade adds a per-service lock only around its own
registry and counters, so query traffic runs as parallel as the engine
allows.  Every operation the facade performs goes through the pool, so
the byte budget keeps tracking growth.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

from .. import faults
from ..analysis.sanitizer import make_lock, sanitize_class
from ..core.aggregators import (
    AverageAggregator,
    CompositeAggregator,
    DistributionAggregator,
    SumAggregator,
)
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery
from ..core.selection import SelectAll, SelectByValue
from ..dssearch.search import SearchSettings
from ..engine import SessionPool
from ..engine.wal import ReplayStats, WalRollbackError, WalWriteError, replay
from .types import (
    CheckpointResult,
    CompactResult,
    DatasetSpec,
    OpenResult,
    QueryRequest,
    RegionResult,
    UpdateRequest,
    UpdateResult,
)

#: Failpoints at the facade's *ordering* points -- the places where the
#: CSV-before-bundle-before-truncate and commit-before-policy sequences
#: could silently invert under a fault (DESIGN.md §12).
FP_UPDATE_PRE_POLICY = faults.register("facade.update.pre-policy")
FP_CHECKPOINT_PRE_CSV = faults.register("facade.checkpoint.pre-csv")
FP_CHECKPOINT_PRE_BUNDLE = faults.register("facade.checkpoint.pre-bundle")
FP_COMPACT_PRE_REWRITE = faults.register("facade.compact.pre-rewrite")
FP_PERSIST_PRE_SAVE = faults.register("facade.persist.pre-save")
FP_REFRESH_REOPEN = faults.register("facade.refresh.reopen")


class DatasetUnavailable(RuntimeError):
    """A mutation (or repair-gated operation) refused by health state.

    Queries keep serving the last applied epoch; the HTTP frontend maps
    this to 503 so clients and load balancers see the outage instead of
    silently stale acknowledgements.
    """

    def __init__(self, dataset: str, state: str, cause: str, verb: str) -> None:
        super().__init__(
            f"dataset {dataset!r} is {state} ({cause}); {verb} refused -- "
            "queries still serve; repair with checkpoint"
            + ("/recover" if state == "degraded" else " after recover")
        )
        self.dataset = dataset
        self.state = state
        self.cause = cause


_TERM_KINDS = {
    "fD": DistributionAggregator,
    "fA": AverageAggregator,
    "fS": SumAggregator,
}
_TERM_TAGS = {cls: tag for tag, cls in _TERM_KINDS.items()}


def parse_term(spec: str):
    """Parse one ``fD:attr`` / ``fA:attr@sel_attr=value`` term spec."""
    try:
        kind, rest = spec.split(":", 1)
    except ValueError:
        raise ValueError(f"bad term {spec!r}: expected e.g. fD:category") from None
    if kind not in _TERM_KINDS:
        raise ValueError(f"bad term kind {kind!r}: one of {sorted(_TERM_KINDS)}")
    if "@" in rest:
        attr, sel = rest.split("@", 1)
        try:
            sel_attr, sel_value = sel.split("=", 1)
        except ValueError:
            raise ValueError(f"bad selection {sel!r}: expected attr=value") from None
        selection = SelectByValue(sel_attr, sel_value)
    else:
        attr = rest
        selection = SelectAll()
    return _TERM_KINDS[kind](attr, selection)


def term_specs(aggregator: CompositeAggregator) -> Tuple[str, ...]:
    """Invert :func:`parse_term` for a built-in aggregator, or raise.

    Lets callers holding an aggregator *object* (benchmarks, tests)
    phrase it as a typed :class:`QueryRequest`.  Only exact built-in
    terms with ``SelectAll`` / string-valued ``SelectByValue``
    selections survive the string grammar round-trip.
    """
    specs = []
    for term in aggregator.terms:
        tag = _TERM_TAGS.get(type(term))
        if tag is None:
            raise ValueError(f"term {term!r} has no spec-string form")
        sel = term.selection
        if type(sel) is SelectAll:
            specs.append(f"{tag}:{term.attribute}")
        elif type(sel) is SelectByValue and isinstance(sel.value, str):
            specs.append(f"{tag}:{term.attribute}@{sel.attribute}={sel.value}")
        else:
            raise ValueError(f"selection {sel!r} has no spec-string form")
    return tuple(specs)


@dataclass(frozen=True)
class PersistResult:
    """Outcome of one :meth:`RegionService.persist` call.

    ``wal_action`` records what happened to the write-ahead log:
    ``"checkpointed"`` (bundle save truncated it), ``"kept"`` (bundle
    saved but the baseline CSV does not reflect the logged state, so
    the records stay), ``"reset"`` (the baseline CSV was overwritten
    with the mutated data and the log restarted at epoch 0),
    ``"side_copy"`` (data saved elsewhere; log untouched) or ``None``
    (no log attached / nothing saved).
    """

    dataset: str
    epoch: int
    saved_data: str | None = None
    data_n: int = 0
    saved_index: str | None = None
    wal_path: str | None = None
    wal_action: str | None = None
    wal_dropped: int = 0
    baseline_current: bool = False

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class RegionService:
    """One typed, durable serving facade over the whole engine stack.

    Parameters
    ----------
    pool:
        A :class:`~repro.engine.SessionPool` to own; one is created
        from ``max_bytes`` / ``max_sessions`` when omitted.
    settings:
        Default :class:`~repro.dssearch.search.SearchSettings` for
        sessions the service opens.
    read_only:
        A read-only replica: mutation and persistence raise
        ``PermissionError``, write-ahead logs are never attached (and
        never repaired), and :meth:`refresh` replays the writer's log.
    """

    def __init__(
        self,
        pool: SessionPool | None = None,
        *,
        max_bytes: int | None = None,
        max_sessions: int | None = None,
        settings: SearchSettings | None = None,
        read_only: bool = False,
        aggregator_cache_size: int = 256,
    ) -> None:
        self._pool = pool or SessionPool(
            max_bytes=max_bytes, max_sessions=max_sessions
        )
        self._settings = settings
        self.read_only = bool(read_only)
        self._lock = make_lock("RegionService._lock")
        self._specs: Dict[str, DatasetSpec] = {}  # guarded-by: _lock
        # The facade holds its own strong reference to every open
        # session: pool eviction under a byte/session budget clears a
        # session's *caches* but must never lose the session object
        # itself (it may hold mutations no log or bundle covers yet) --
        # session() re-admits on access.
        self._sessions: Dict[str, object] = {}  # guarded-by: _lock
        # The dataset object loaded at open time, *before* any replay:
        # persist() needs to know whether the on-disk baseline still
        # reflects the session (see PersistResult.wal_action).
        self._baselines: Dict[str, SpatialDataset] = {}  # guarded-by: _lock
        # Interned aggregators, LRU-bounded: term tuples arrive from
        # clients, so an unbounded table would let request variety (or
        # an adversarial client) grow the server without limit.
        self._aggregator_cache_size = max(1, int(aggregator_cache_size))
        self._aggregators: (  # guarded-by: _lock
            "OrderedDict[Tuple[str, Tuple[str, ...]], CompositeAggregator]"
        ) = OrderedDict()
        self._counters: Dict[str, Dict[str, int]] = {}  # guarded-by: _lock
        # Per-dataset health (DESIGN.md §12): "ok" | "degraded" |
        # "failed".  Degraded = a durability write failed but log and
        # session still agree (mutations refused, queries serve,
        # checkpoint repairs).  Failed = a WAL rollback failure left an
        # unapplied record in the log (checkpoint/compact also refused
        # -- they would enshrine the orphan -- only recover() repairs).
        self._health: Dict[str, Dict[str, object]] = {}  # guarded-by: _lock
        # (wal size, mtime_ns, session epoch) at the last successful
        # refresh(), per key: unchanged marks make replica idle ticks
        # O(1) instead of a full log re-scan.
        self._wal_marks: Dict[str, tuple] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Dataset lifecycle
    # ------------------------------------------------------------------
    def open(
        self, spec: DatasetSpec, dataset: SpatialDataset | None = None
    ) -> OpenResult:
        """Bind one dataset per its spec; returns what recovery did.

        Loads ``spec.data`` (unless ``dataset`` is handed in-memory),
        restores ``spec.index`` when the bundle exists, attaches
        ``spec.wal`` (writer mode) and replays it per the durability
        policy.  The session lands in the pool under ``spec.key``.
        """
        with self._lock:
            if spec.key in self._sessions:
                raise ValueError(
                    f"dataset {spec.key!r} is already open; evict or close first"
                )
        session, dataset, result = self._build(spec, dataset)
        self._register(spec, session, dataset)
        return result

    def _build(
        self, spec: DatasetSpec, dataset: SpatialDataset | None
    ) -> tuple:
        """Construct (but do not register) a session per its spec.

        The whole open choreography -- CSV load, bundle restore, WAL
        attach, replay -- without touching the registries, so
        :meth:`refresh` can build a replacement session while the old
        one keeps serving.  Returns ``(session, dataset, OpenResult)``.
        """
        policy = spec.durability
        if (
            not self.read_only
            and spec.wal is not None
            and (
                policy.checkpoint_every_records is not None
                or policy.checkpoint_every_bytes is not None
            )
            and (spec.data is None or spec.index is None)
        ):
            raise ValueError(
                "a checkpoint trigger needs both data= and index= paths in "
                "the DatasetSpec: checkpointing truncates the write-ahead "
                "log, and without a persisted (CSV, bundle) pair the log is "
                "the only durable copy of the updates"
            )
        if dataset is None:
            if spec.data is None:
                raise ValueError(
                    f"DatasetSpec {spec.key!r} names no data path and no "
                    "in-memory dataset was passed"
                )
            from ..data.io import load_csv_infer

            dataset = load_csv_infer(
                spec.data,
                categorical=list(spec.categorical),
                numeric=list(spec.numeric),
            )
        restored = False
        if spec.index is not None and os.path.exists(spec.index):
            from ..engine.persist import load_session

            session = load_session(spec.index, dataset, settings=self._settings)
            restored = True
        else:
            from ..engine.session import QuerySession

            session = QuerySession(
                dataset, granularity=spec.granularity, settings=self._settings
            )
        rstats = ReplayStats(final_epoch=session.epoch)
        if spec.wal is not None and not self.read_only:
            wal = session.attach_wal(spec.wal)
            if policy.replay_on_open:
                rstats = replay(session, wal)
        elif spec.wal is not None and os.path.exists(spec.wal):
            if policy.replay_on_open:
                # Reader side: never repair -- a "torn tail" here may be
                # a record the writer is mid-append on.
                rstats = replay(session, spec.wal, repair=False)
        result = OpenResult(
            dataset=spec.key,
            n=session.dataset.n,
            epoch=session.epoch,
            restored_from_bundle=restored,
            replayed=rstats.applied,
            replay_skipped=rstats.skipped,
            replay_appended=rstats.appended,
            replay_deleted=rstats.deleted,
            replay_truncated_bytes=rstats.truncated_bytes,
        )
        return session, dataset, result

    def _register(self, spec: DatasetSpec, session, dataset) -> None:
        with self._lock:
            self._specs[spec.key] = spec
            self._sessions[spec.key] = session
            self._baselines[spec.key] = dataset
            self._counters.setdefault(
                spec.key,
                {"queries": 0, "updates": 0, "checkpoints": 0, "compactions": 0},
            )
            self._health.setdefault(
                spec.key, {"state": "ok", "cause": None, "since": None}
            )
        self._pool.adopt(spec.key, session)

    def spec(self, key: str) -> DatasetSpec:
        with self._lock:
            if key not in self._specs:
                raise KeyError(f"unknown dataset {key!r}; open() it first")
            return self._specs[key]

    def session(self, key: str):
        """The underlying session (diagnostics; prefer the typed surface).

        Re-admits the session into the pool when budget pressure evicted
        it: eviction cleared the caches (they rebuild lazily), but the
        session object -- and any mutation it holds -- stays owned by
        the facade, so an open dataset can never become unqueryable or
        silently lose updates to a small budget.
        """
        with self._lock:
            session = self._sessions.get(key)
        if session is None:
            raise KeyError(f"unknown dataset {key!r}; open() it first")
        self._pool.adopt(key, session)
        return session

    def dataset(self, key: str) -> SpatialDataset:
        return self.session(key).dataset

    def keys(self) -> list:
        with self._lock:
            return list(self._specs)

    def aggregator(self, key: str, terms: Sequence[str]) -> CompositeAggregator:
        """The interned aggregator object of a term tuple (LRU-bounded).

        Requests phrasing the same terms share this object, which is
        what makes them hit every identity-keyed session cache.  The
        table keeps the ``aggregator_cache_size`` most recently used
        tuples; evicted ones are simply re-parsed (a cache miss, never
        a wrong answer), so client-controlled term variety cannot grow
        the server without bound.
        """
        terms = tuple(terms)
        with self._lock:
            aggregator = self._aggregators.get((key, terms))
            if aggregator is None:
                aggregator = CompositeAggregator([parse_term(t) for t in terms])
                self._aggregators[(key, terms)] = aggregator
                while len(self._aggregators) > self._aggregator_cache_size:
                    self._aggregators.popitem(last=False)
            else:
                self._aggregators.move_to_end((key, terms))
            return aggregator

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _asrs_query(self, request: QueryRequest) -> ASRSQuery:
        aggregator = self.aggregator(request.dataset, request.terms)
        weights = (
            None if request.weights is None else np.asarray(request.weights)
        )
        return ASRSQuery.from_vector(
            request.width,
            request.height,
            aggregator,
            np.asarray(request.target, dtype=np.float64),
            weights=weights,
            p=request.p,
        )

    def _count(self, key: str, what: str, by: int = 1) -> None:
        with self._lock:
            counters = self._counters.get(key)
            if counters is not None:
                counters[what] += by

    def query(self, request: QueryRequest) -> RegionResult:
        """Answer one query; ``topk`` must be 1 (see :meth:`query_topk`)."""
        if request.topk != 1:
            return self.query_topk(request)[0]
        t0 = time.perf_counter()
        session = self.session(request.dataset)
        q = self._asrs_query(request)
        out, epoch = session.solve_with_epoch(
            q,
            method=request.method,
            delta=request.delta,
            probe_cells=request.probe_cells,
            return_stats=request.include_stats,
        )
        result, stats = out if request.include_stats else (out, None)
        self._pool.reaccount(request.dataset)
        self._count(request.dataset, "queries")
        return RegionResult.from_engine(
            result,
            epoch=epoch,
            elapsed_s=time.perf_counter() - t0,
            stats=stats,
        )

    def query_topk(self, request: QueryRequest) -> list:
        """The exact top-k answers of one query (``request.topk`` regions)."""
        t0 = time.perf_counter()
        session = self.session(request.dataset)
        q = self._asrs_query(request)
        from ..dssearch.topk import ds_search_topk

        # ds_search_topk runs outside QuerySession.solve, so take the
        # shared update gate here: the search must not race a dataset
        # swap, and the epoch label must match what it actually ran on.
        with session._update_gate.shared():
            epoch = session.epoch
            results = ds_search_topk(
                session.dataset, q, request.topk, session.settings
            )
        self._count(request.dataset, "queries")
        elapsed = time.perf_counter() - t0
        return [
            RegionResult.from_engine(r, epoch=epoch, elapsed_s=elapsed)
            for r in results
        ]

    def query_batch(
        self, requests: Sequence[QueryRequest], *, workers: int | None = None
    ) -> list:
        """Answer a batch sharing every session cache (one dataset).

        All requests must target the same dataset and share the batch
        knobs (``method``/``delta``/``probe_cells``) --
        :meth:`QuerySession.solve_batch` applies them batch-wide.
        ``elapsed_s`` on each result is the amortized per-query wall
        clock of the whole batch.
        """
        requests = list(requests)
        if not requests:
            return []
        head = requests[0]
        for r in requests[1:]:
            if r.dataset != head.dataset:
                raise ValueError("query_batch requests must share one dataset")
            if (r.method, r.delta, r.probe_cells) != (
                head.method,
                head.delta,
                head.probe_cells,
            ):
                raise ValueError(
                    "query_batch requests must share method/delta/probe_cells"
                )
        t0 = time.perf_counter()
        session = self.session(head.dataset)
        queries = [self._asrs_query(r) for r in requests]

        # Same fan-out shape as QuerySession.solve_batch, but through
        # solve_with_epoch so every answer is labeled with the epoch it
        # was actually computed at (updates may interleave mid-batch).
        def one(q):
            return session.solve_with_epoch(
                q,
                method=head.method,
                delta=head.delta,
                probe_cells=head.probe_cells,
            )

        if workers is None or workers <= 1 or len(queries) <= 1:
            results = [one(q) for q in queries]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(workers, len(queries))
            ) as ex:
                results = list(ex.map(one, queries))
        self._pool.reaccount(head.dataset)
        self._count(head.dataset, "queries", by=len(requests))
        elapsed = (time.perf_counter() - t0) / max(len(requests), 1)
        return [
            RegionResult.from_engine(r, epoch=epoch, elapsed_s=elapsed)
            for r, epoch in results
        ]

    def warm(self, requests: Sequence[QueryRequest]) -> int:
        """Precompute the target-independent artefacts of request shapes.

        Returns the number of distinct ``(terms, width, height)``
        shapes warmed (what ``repro index-build`` reports and
        persists).
        """
        shapes = set()
        for request in requests:
            session = self.session(request.dataset)
            session.warm_for(self._asrs_query(request))
            shapes.add((request.terms, request.width, request.height))
        return len(shapes)

    def maxrs(self, key: str, width: float, height: float) -> RegionResult:
        """The densest ``width x height`` region (MaxRS, paper §7.4)."""
        t0 = time.perf_counter()
        session = self.session(key)
        from ..dssearch.maxrs import max_rs_ds

        with session._update_gate.shared():
            epoch = session.epoch
            result = max_rs_ds(session.dataset, width, height)
        return RegionResult.from_engine(
            result, epoch=epoch, elapsed_s=time.perf_counter() - t0
        )

    # ------------------------------------------------------------------
    # Health (DESIGN.md §12: the degraded-mode state machine)
    # ------------------------------------------------------------------
    def _degrade(self, key: str, cause: str, *, state: str = "degraded") -> None:
        with self._lock:
            entry = self._health.setdefault(
                key, {"state": "ok", "cause": None, "since": None}
            )
            if entry["state"] == "failed" and state != "failed":
                return  # failed is sticky; a lesser fault never downgrades it
            entry["state"] = state
            entry["cause"] = cause
            entry["since"] = time.time()

    def _mark_ok(self, key: str) -> None:
        with self._lock:
            self._health[key] = {"state": "ok", "cause": None, "since": None}

    def _health_of(self, key: str) -> Dict[str, object]:
        with self._lock:
            return dict(
                self._health.get(key, {"state": "ok", "cause": None, "since": None})
            )

    def _require_available(self, key: str, verb: str, *, allow_degraded: bool = False) -> None:
        entry = self._health_of(key)
        state = str(entry["state"])
        if state == "ok" or (allow_degraded and state == "degraded"):
            return
        raise DatasetUnavailable(key, state, str(entry["cause"]), verb)

    def health(self) -> dict:
        """Per-dataset health plus the worst state across all of them."""
        with self._lock:
            datasets = {key: dict(entry) for key, entry in self._health.items()}
        states = {str(entry["state"]) for entry in datasets.values()}
        overall = (
            "failed"
            if "failed" in states
            else "degraded" if "degraded" in states else "ok"
        )
        return {"state": overall, "datasets": datasets}

    # ------------------------------------------------------------------
    # Mutation + durability
    # ------------------------------------------------------------------
    def _require_writer(self, what: str) -> None:
        if self.read_only:
            raise PermissionError(
                f"this RegionService is a read-only replica; {what} must go "
                "to the writer"
            )

    def _to_batch(self, request: UpdateRequest, schema):
        from ..engine.updates import UpdateBatch

        append: SpatialDataset | None = None
        if request.append_csv is not None:
            from ..data.io import load_csv

            append = load_csv(request.append_csv, schema)
        if request.append:
            inline = SpatialDataset.from_records(list(request.append), schema)
            append = inline if append is None else append.append(inline)
        delete = np.asarray(request.delete, dtype=np.int64) if request.delete else None
        return UpdateBatch(append=append, delete=delete)

    def update(self, request: UpdateRequest) -> UpdateResult:
        """Apply one mutation, then run the dataset's durability policy.

        Health gates and transitions (DESIGN.md §12): a degraded or
        failed dataset refuses mutations up front (queries still
        serve).  A WAL *append* failure degrades -- nothing applied,
        nothing acknowledged, the client may retry after repair.  A WAL
        *rollback* failure marks the dataset failed -- the log holds a
        record the session never applied.  A *policy* checkpoint or
        compaction failure after the update committed degrades but does
        NOT raise: the mutation is durable in the log, and an error
        here would make the client retry a committed batch into a
        double-apply; the result carries ``degraded=True`` instead.
        """
        self._require_writer("updates")
        self._require_available(request.dataset, "updates")
        t0 = time.perf_counter()
        key = request.dataset
        spec = self.spec(key)
        session = self.session(key)
        batch = self._to_batch(request, session.dataset.schema)
        try:
            stats = self._pool.apply(key, batch)
        except WalRollbackError as exc:
            self._degrade(key, str(exc), state="failed")
            raise DatasetUnavailable(key, "failed", str(exc), "this update") from exc
        except WalWriteError as exc:
            self._degrade(key, str(exc))
            raise DatasetUnavailable(key, "degraded", str(exc), "this update") from exc
        self._count(key, "updates")
        checkpointed = compacted = False
        degraded = False
        wal = session.wal
        if wal is not None and (stats.appended or stats.deleted):
            try:
                faults.failpoint(FP_UPDATE_PRE_POLICY)
                policy = spec.durability
                state = wal.state()
                if policy.checkpoint_due(state):
                    self.checkpoint(key)
                    checkpointed = True
                elif policy.compact_due(state):
                    self.compact(key)
                    compacted = True
            except Exception as exc:
                # The update itself committed (logged + applied);
                # checkpoint() / compact() already recorded the cause.
                self._degrade(key, f"{type(exc).__name__}: {exc}")
                degraded = True
        return UpdateResult(
            dataset=key,
            # stats.epoch was recorded inside the exclusive apply, so it
            # names this update's commit point even when another update
            # lands before we build the result.
            epoch=stats.epoch,
            appended=stats.appended,
            deleted=stats.deleted,
            wal_logged=stats.wal_logged,
            index_patched=stats.index_patched,
            dirty_cells=stats.dirty_cells,
            cell_entries_kept=stats.cell_entries_kept,
            checkpointed=checkpointed,
            compacted=compacted,
            degraded=degraded,
            elapsed_s=time.perf_counter() - t0,
        )

    def checkpoint(self, key: str) -> CheckpointResult:
        """Persist the (CSV, bundle) pair; truncate the write-ahead log.

        The CSV lands before the bundle: the bundle save checkpoints
        the log, destroying the records the saved state supersedes, so
        everything the checkpoint covers must be durable first.

        This is also the *repair* path for a degraded dataset -- a
        checkpoint that completes proves the full durability sequence
        works again, so success clears the degraded state.  A *failed*
        dataset refuses checkpoints: truncating around an unapplied
        orphan record would enshrine it for the next replay.
        """
        self._require_writer("checkpoints")
        self._require_available(key, "checkpoints", allow_degraded=True)
        spec = self.spec(key)
        session = self.session(key)
        if spec.data is None or spec.index is None:
            raise ValueError(
                f"dataset {key!r} cannot checkpoint: its DatasetSpec needs "
                "both data= (baseline CSV) and index= (bundle) paths"
            )
        from ..data.io import save_csv

        # The whole CSV -> bundle -> WAL-truncate sequence holds the
        # session's gate *shared* (DESIGN.md §11.3): an update landing
        # between the CSV write and the bundle save would log a record
        # the bundle covers but the CSV does not -- the checkpoint would
        # then truncate the only durable copy of that update.  Updates
        # take the exclusive side, so a shared hold keeps them out for
        # the whole sequence, while queries -- which never read the log
        # or the files -- keep running beside it.
        try:
            with session._update_gate.shared():
                faults.failpoint(FP_CHECKPOINT_PRE_CSV)
                dataset, epoch = session.dataset, session.epoch
                save_csv(dataset, spec.data)
                wal = session.wal
                before = wal.state()["records"] if wal is not None else 0
                faults.failpoint(FP_CHECKPOINT_PRE_BUNDLE)
                self._pool.save(key, spec.index, checkpoint_wal=True)
                after = wal.state()["records"] if wal is not None else 0
                with self._lock:
                    # The on-disk baseline now reflects the live session.
                    self._baselines[key] = dataset
        except Exception as exc:
            # Whatever broke, the WAL still holds every record the
            # bundle does not cover (truncation is the *last* step and
            # atomic) -- durability is intact, serving degrades.
            self._degrade(key, f"checkpoint failed: {type(exc).__name__}: {exc}")
            raise
        self._count(key, "checkpoints")
        self._mark_ok(key)
        return CheckpointResult(
            dataset=key,
            epoch=epoch,
            data_path=spec.data,
            index_path=spec.index,
            wal_records_dropped=before - after,
            n=dataset.n,
        )

    def compact(self, key: str) -> CompactResult:
        """Merge the dataset's WAL records into one equivalent batch.

        Holds the session's update gate shared, like :meth:`checkpoint`:
        no update appends to a half-rewritten log, and queries, which
        never read the log, keep running.  Epoch numbering is
        stable across compaction -- the merged record carries its span,
        the log head does not move, and the live session, its replicas
        and saved bundles keep their epochs.  Replaying the compacted
        log onto the checkpointed bundle yields answers
        bitwise-identical to the uncompacted replay -- and to a cold
        session on the final dataset.
        """
        self._require_writer("compaction")
        # Degraded allows compaction (log rewrite is atomic and cannot
        # lose records); failed does not -- a rewrite would relegitimize
        # the orphan record.  Success does not clear degraded: only a
        # full checkpoint proves the whole durability sequence again.
        self._require_available(key, "compaction", allow_degraded=True)
        session = self.session(key)
        wal = session.wal
        if wal is None:
            raise ValueError(f"dataset {key!r} has no write-ahead log to compact")
        try:
            with session._update_gate.shared():
                faults.failpoint(FP_COMPACT_PRE_REWRITE)
                cstats = wal.compact(session.dataset.schema)
                epoch = session.epoch
        except Exception as exc:
            self._degrade(key, f"compaction failed: {type(exc).__name__}: {exc}")
            raise
        self._count(key, "compactions")
        return CompactResult(
            dataset=key,
            records_before=cstats.records_before,
            records_after=cstats.records_after,
            bytes_before=cstats.bytes_before,
            bytes_after=cstats.bytes_after,
            epoch=epoch,
        )

    def recover(self, key: str) -> ReplayStats:
        """Writer-side catch-up: replay the attached WAL to its head.

        For sessions opened with ``replay_on_open=False`` (the CLI does
        this to report recovery separately from restore errors): torn
        tails are repaired, checkpoint gaps and lineage mismatches
        raise ``ValueError`` -- exactly :func:`repro.engine.wal.replay`
        semantics.
        """
        self._require_writer("recovery")
        session = self.session(key)
        if session.wal is None:
            self._mark_ok(key)
            return ReplayStats(final_epoch=session.epoch)
        # recover() is the one repair a *failed* dataset accepts: replay
        # applies any orphaned record, after which log and session agree
        # again (the failed batch is thereby resurrected -- the log is
        # the authority once rollback has failed; DESIGN.md §12).
        stats = replay(session, session.wal)
        self._pool.reaccount(key)
        self._mark_ok(key)
        return stats

    def refresh(self, key: str) -> ReplayStats:
        """Read-only replica tick: replay what the writer logged since.

        Never repairs the log (the "torn tail" may be a record the
        writer is mid-append on).  When the writer checkpointed or
        compacted *past* this replica's epoch -- replay then fails
        closed -- the replica reopens from the freshly persisted
        (CSV, bundle) pair and replays from there.
        """
        spec = self.spec(key)
        session = self.session(key)
        if spec.wal is None or not os.path.exists(spec.wal):
            return ReplayStats(final_epoch=session.epoch)
        # Idle ticks are O(1): when the log file has not changed since
        # the last successful tick (and the session has not moved), a
        # replay would re-scan and CRC the whole log just to skip
        # everything -- per-poll cost growing with log size for nothing.
        stat = os.stat(spec.wal)
        mark = (stat.st_size, stat.st_mtime_ns, session.epoch)
        with self._lock:
            if self._wal_marks.get(key) == mark:
                return ReplayStats(final_epoch=session.epoch)
        try:
            stats = replay(session, spec.wal, repair=False)
        except ValueError:
            pass
        else:
            with self._lock:
                self._wal_marks[key] = (
                    stat.st_size,
                    stat.st_mtime_ns,
                    session.epoch,
                )
            self._pool.reaccount(key)
            return stats
        # The writer checkpointed (or compacted) past this replica:
        # reopen from the freshly persisted (CSV, bundle) pair.  The
        # replacement session is built fully out-of-band and swapped in
        # atomically, so concurrent queries keep being served by the
        # last-good session throughout the (potentially slow) rebuild --
        # and if the rebuild fails (e.g. the writer is mid-checkpoint
        # and the CSV on disk is momentarily newer than the bundle),
        # the exception propagates to the poller, nothing was touched,
        # and the next tick retries.
        faults.failpoint(FP_REFRESH_REOPEN)
        new_session, dataset, _ = self._build(spec, None)
        with self._lock:
            self._sessions[key] = new_session
            self._baselines[key] = dataset
            self._specs[key] = spec
            self._wal_marks.pop(key, None)
        self._pool.evict(key)
        self._pool.adopt(key, new_session)
        return ReplayStats(final_epoch=new_session.epoch)

    def persist(
        self,
        key: str,
        *,
        save_data: str | None = None,
        save_index: str | None = None,
    ) -> PersistResult:
        """The CLI save choreography (``--save-data`` / ``--save-index``).

        Encodes the ordering and WAL lifecycle rules DESIGN.md §10.3
        spells out: CSV before bundle; the log is checkpointed only
        when the *baseline* CSV reflects the logged state, reset when
        the baseline itself was overwritten with the mutated data (the
        new epoch-0 baseline), and kept untouched for side copies.

        The whole save sequence holds the session's gate shared, as
        :meth:`checkpoint` does: an update committing between the CSV
        write and the bundle save (or the log reset) would have its
        record truncated while the CSV lacks it.
        """
        self._require_writer("persistence")
        self._require_available(key, "persistence", allow_degraded=True)
        faults.failpoint(FP_PERSIST_PRE_SAVE)
        spec = self.spec(key)
        session = self.session(key)
        wal = session.wal
        baseline_overwritten = (
            save_data is not None
            and spec.data is not None
            and os.path.abspath(save_data) == os.path.abspath(spec.data)
        )
        with session._update_gate.shared():
            dataset = session.dataset
            with self._lock:
                baseline = self._baselines.get(key)
            result_kwargs: dict = {
                "dataset": key,
                "epoch": session.epoch,
                "wal_path": None if wal is None else wal.path,
            }
            if save_data:
                from ..data.io import save_csv

                save_csv(dataset, save_data)
                result_kwargs["saved_data"] = save_data
                result_kwargs["data_n"] = dataset.n
            baseline_current = baseline_overwritten or dataset is baseline
            result_kwargs["baseline_current"] = baseline_current
            if save_index:
                self._pool.save(key, save_index, checkpoint_wal=baseline_current)
                result_kwargs["saved_index"] = save_index
                if wal is not None:
                    result_kwargs["wal_action"] = (
                        "checkpointed" if baseline_current else "kept"
                    )
            elif save_data and wal is not None:
                if baseline_overwritten:
                    result_kwargs["wal_action"] = "reset"
                    result_kwargs["wal_dropped"] = wal.reset()
                else:
                    result_kwargs["wal_action"] = "side_copy"
            if baseline_overwritten:
                with self._lock:
                    self._baselines[key] = dataset
        return PersistResult(**result_kwargs)

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Operational snapshot: per-dataset state + pool durability info."""
        pool_info = self._pool.info()
        health = self.health()
        with self._lock:
            entries = [
                (key, spec, self._sessions.get(key), dict(self._counters.get(key, {})))
                for key, spec in self._specs.items()
            ]
        datasets = {}
        for key, spec, session, entry in entries:
            entry["spec"] = spec.to_dict()
            entry["health"] = health["datasets"].get(
                key, {"state": "ok", "cause": None, "since": None}
            )
            # Durability state comes from the facade-held session, not
            # pool residency -- a budget-evicted session is still open.
            if session is not None:
                wal = session.wal
                entry.update(
                    {
                        "epoch": session.epoch,
                        "n": session.dataset.n,
                        "bundle_version": session.bundle_version,
                        "wal": None if wal is None else wal.state(),
                    }
                )
            datasets[key] = entry
        return {
            "read_only": self.read_only,
            "health": health["state"],
            "datasets": datasets,
            "pool": {k: v for k, v in pool_info.items() if k != "durability"},
        }

    def close(self) -> list:
        """Run the on-close durability policy; release log handles.

        Returns the :class:`CheckpointResult` s of any close-time
        checkpoints.  The service stays usable afterwards (handles
        reopen lazily); ``close`` is about durability, not teardown.
        """
        reports = []
        with self._lock:
            keys = list(self._specs)
        for key in keys:
            spec = self.spec(key)
            with self._lock:
                session = self._sessions.get(key)
            if session is None:
                continue
            wal = session.wal
            if wal is None:
                continue
            if (
                not self.read_only
                and spec.durability.checkpoint_on_close
                and spec.data is not None
                and spec.index is not None
                and wal.state()["records"] > 0
            ):
                try:
                    reports.append(self.checkpoint(key))
                except DatasetUnavailable:
                    # A failed dataset must not checkpoint around its
                    # orphan record; the log keeps everything, and the
                    # operator saw the state at /healthz.
                    pass
            wal.close()
        return reports

    def __enter__(self) -> "RegionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            keys = list(self._specs)
        return (
            f"RegionService(datasets={keys}, read_only={self.read_only}, "
            f"pool={self._pool!r})"
        )


# Runtime sanitizer (DESIGN.md §14): enforce the guarded-by
# declarations above when REPRO_SANITIZE=1.
sanitize_class(RegionService)
