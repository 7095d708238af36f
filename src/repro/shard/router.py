"""The scatter-gather router: one serving surface over N shard workers.

:class:`ShardRouter` duck-types the :class:`~repro.service.RegionService`
surface the HTTP frontend dispatches to (``query`` / ``query_batch`` /
``query_topk`` / ``update`` / ``checkpoint`` / ``compact`` / ``recover``
/ ``health`` / ``stats`` / ``keys`` / ``session`` / ``close``) while
fanning every operation out to per-shard workers and merging the
answers back into the **bitwise-identical** result an unsharded
canonical solve returns (DESIGN.md §15).

Why the merge is exact
----------------------
Every shard runs the full canonical solve restricted to its anchor tile
with the router-supplied *global* empty-region seed, so each per-shard
score ``d_i`` is the true optimum over that tile (and ``d_i <=
d_empty`` always -- the incumbent only ever improves on the seed).  The
global optimum is ``d* = min_i d_i`` bitwise; every tied point set is
reachable from at least one tile whose shard therefore reports ``d_i ==
d*``; and each winning shard's canonical region is a pure function of
its tied set, identical to the unsharded canonicalization because the
halo guarantees the shard sees the set's whole arrangement
neighbourhood.  The router's lexicographic ``(x_min, y_min)`` merge
over winning shards therefore equals the unsharded lexicographic pass.
The winner's representation is already global: its region lies inside
the shard's coverage and the shard's rows are an order-preserving
subset, so the aggregator sums the identical floats in the identical
order.

The router keeps a full in-memory **mirror** of the dataset (a
plain in-memory ``RegionService`` binding -- never solved on) plus
stable-row-id bookkeeping that translates global delete indices into
per-shard local positions and routes appends by halo coverage.  The
mirror also supplies the global coordinate extremes the seed needs:
with bottom-left anchoring the rectangle-union bound is
``fl(min(xs) - width)`` elementwise, and float subtraction is monotone,
so the extremes alone reproduce the engine's bound bitwise.

Degraded serving (DESIGN.md §12, per shard)
-------------------------------------------
A dead worker (crash, kill, torn pipe) marks its shard degraded.  A
query is still served when every dead shard *provably* cannot affect
the answer -- i.e. it holds zero rows, in which case its canonical
answer is exactly the synthesizable ``(d_empty, seed region,
empty representation)`` -- and refused with
:class:`~repro.service.facade.DatasetUnavailable` (HTTP 503)
otherwise.  ``recover()`` restarts dead workers; open-time WAL replay
restores every acknowledged update.  A global update scatters
sub-batches shard by shard; the in-flight scatter is journalled so a
mid-batch crash leaves the router refusing further operations until
``recover()`` drains it -- re-sending exactly the sub-batches whose
target shard provably missed them (the shard's restart epoch counts
batches since its last checkpoint, which the router tracks).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import faults
from ..analysis.sanitizer import make_lock, sanitize_class
from ..blas import blas_info
from ..core.geometry import Rect
from ..dssearch.canonical import canonical_seed
from ..engine.gate import SharedExclusiveGate
from ..service.types import (
    CheckpointResult,
    CompactResult,
    DatasetSpec,
    QueryRequest,
    RegionResult,
    UpdateRequest,
    UpdateResult,
)
from .plan import PlanMismatchError, ShardPlan, schema_from_dict
from .worker import LocalShardBackend, ProcessShardBackend, ShardDeadError

#: Fires at the top of every fan-out (queries and mutations alike):
#: the chaos surface of the router dying between building a scatter
#: and delivering it.
FP_ROUTER_SCATTER = faults.register("shard.router.scatter")

_BACKENDS = {"process": ProcessShardBackend, "local": LocalShardBackend}


def _merge(results: Sequence[RegionResult]) -> RegionResult:
    """The gather: bitwise-min score, then lexicographic region.

    With a non-finite score (NaN target) every shard returns the
    identical globally-seeded empty answer, so the fallback to "all
    shards win" changes nothing.
    """
    dstar = min(r.score for r in results)
    winners = [r for r in results if r.score == dstar] or list(results)
    return min(winners, key=lambda r: (r.region[0], r.region[1]))


class ShardRouter:
    """Scatter-gather serving over a :class:`ShardPlan`'s workers.

    ``backend`` is ``"process"`` (spawned workers, production) or
    ``"local"`` (the identical dispatch in-process -- property tests
    and the chaos matrix, where spawned children could not see armed
    failpoints).  ``directory``/``base_data`` let :meth:`checkpoint`
    rewrite the base CSV and refresh the plan fingerprint so a router
    restart reopens cleanly.
    """

    def __init__(
        self,
        plan: ShardPlan,
        specs: Sequence[DatasetSpec],
        dataset,
        *,
        name: str = "default",
        backend: str = "process",
        directory: Optional[str] = None,
        base_data: Optional[str] = None,
    ) -> None:
        if len(specs) != plan.n_shards:
            raise ValueError(
                f"plan has {plan.n_shards} shards but {len(specs)} specs given"
            )
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {sorted(_BACKENDS)}")
        plan.check_dataset(dataset)
        self.name = name
        self.read_only = False
        self.plan = plan
        self._specs = list(specs)
        self._directory = directory
        self._base_data = base_data
        self._factory = _BACKENDS[backend]
        # Queries fan out under the gate shared, so two of them run on
        # the workers at once (each worker pipe carries one round trip
        # at a time); update/checkpoint/compact/recover/close hold it
        # exclusively.  Every query therefore observes all shards at one
        # router epoch.
        self._gate = SharedExclusiveGate("ShardRouter._gate")
        self._lock = make_lock("ShardRouter._lock")
        # The mirror: a plain in-memory binding -- gives us the typed
        # update path (row encoding identical to the workers'), the
        # aggregator interning, and the healthz session view for free.
        from ..service.facade import RegionService

        self._mirror = RegionService()
        self._mirror.open(DatasetSpec(key=name), dataset=dataset)
        n = dataset.n
        self._ids = np.arange(n, dtype=np.int64)  # guarded-by: _lock
        self._next_id = n  # guarded-by: _lock
        self._shard_ids = [  # guarded-by: _lock
            self._ids[plan.covered_mask(s, dataset.xs, dataset.ys)].copy()
            for s in range(plan.n_shards)
        ]
        self._dead: Dict[int, dict] = {}  # guarded-by: _lock
        self._pending: Optional[dict] = None  # guarded-by: _lock
        self._since_ckpt: List[int] = [0] * plan.n_shards  # guarded-by: _lock
        self._wal_records: List[int] = [0] * plan.n_shards  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._backends: List[object] = []
        try:
            for shard, spec in enumerate(self._specs):
                back = self._factory(plan, spec, shard)
                self._backends.append(back)
                self._since_ckpt[shard] = int(back.ready.get("epoch", 0))
                self._wal_records[shard] = int(back.ready.get("replayed", 0))
                # Fail closed on a stale base: a worker whose WAL replay
                # moved it past the CSV the mirror loaded would silently
                # desync the router's bookkeeping (and every answer).
                expected = len(self._shard_ids[shard])
                got = int(back.ready.get("n", -1))
                if got != expected:
                    raise PlanMismatchError(
                        f"shard {plan.shard_key(shard)} opened with {got} "
                        f"rows but the base dataset covers {expected}; the "
                        "base CSV is stale -- checkpoint before shutdown, "
                        "or re-run shard-plan/split"
                    )
        except BaseException:
            for back in self._backends:
                try:
                    back.close()
                except Exception:
                    pass
            self._mirror.close()
            raise

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str,
        *,
        base_data: str,
        name: str = "default",
        backend: str = "process",
    ) -> "ShardRouter":
        """Open a persisted shard directory against its base CSV."""
        from ..data.io import load_csv

        plan = ShardPlan.load(directory)
        dataset = load_csv(base_data, schema_from_dict(plan.schema))
        specs = [plan.shard_spec(s, directory) for s in range(plan.n_shards)]
        return cls(
            plan,
            specs,
            dataset,
            name=name,
            backend=backend,
            directory=directory,
            base_data=base_data,
        )

    # ------------------------------------------------------------------
    # RegionService-shaped introspection
    # ------------------------------------------------------------------
    def keys(self) -> list:
        return [self.name]

    def session(self, key: str):
        """The mirror session (healthz's ``dataset.n`` / ``epoch`` view)."""
        self._check_key(key)
        return self._mirror.session(self.name)

    def _check_key(self, key: str) -> None:
        if key != self.name:
            raise KeyError(
                f"router serves dataset {self.name!r}, not {key!r}"
            )

    @property
    def epoch(self) -> int:
        """Count of committed global update batches (the mirror's epoch)."""
        return self._mirror.session(self.name).epoch

    @property
    def dataset(self):
        return self._mirror.session(self.name).dataset

    # ------------------------------------------------------------------
    # Scatter plumbing
    # ------------------------------------------------------------------
    def _request_one(self, shard: int, frame: dict) -> dict:
        """One backend request, always answered by an envelope.

        A dead pipe marks the shard degraded.  Any other exception
        becomes an error envelope here, at the delivery's thread
        boundary, so a scatter has an entry for every frame: a delivery
        that raised refuses the operation instead of dropping its shard
        out of a merge or out of an update's acknowledgements.
        """
        try:
            return self._backends[shard].request(frame)
        except ShardDeadError as exc:
            self._mark_dead(shard, str(exc))
            return {"ok": False, "kind": "dead", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 -- the envelope IS the handler
            return {"ok": False, "kind": type(exc).__name__, "error": str(exc)}

    def _mark_dead(self, shard: int, cause: str) -> None:
        with self._lock:
            self._dead.setdefault(
                shard, {"cause": cause, "since": time.time()}
            )

    def _scatter(self, frames: Dict[int, dict]) -> Dict[int, dict]:
        """Deliver ``frames`` concurrently; one envelope per frame.

        The caller holds ``_gate``.
        """
        faults.failpoint(FP_ROUTER_SCATTER)
        if len(frames) == 1:
            ((shard, frame),) = frames.items()
            return {shard: self._request_one(shard, frame)}
        out: Dict[int, dict] = {}
        threads = []
        for shard, frame in frames.items():
            def deliver(s=shard, f=frame):
                out[s] = self._request_one(s, f)

            t = threading.Thread(target=deliver, name=f"scatter-{shard}")
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
        return out

    def _admit(self, verb: str) -> None:
        """Refuse an operation the router cannot serve consistently.

        Called inside ``_gate``: a batch left pending by an update that
        held the gate exclusively is then seen by every later query.
        """
        from ..service.facade import DatasetUnavailable

        with self._lock:
            if self._closed:
                raise RuntimeError("router is closed")
            if self._pending is not None:
                raise DatasetUnavailable(
                    self.name,
                    "degraded",
                    "a partially-delivered update batch is in flight",
                    verb,
                )

    def _unavailable(self, shard: int, cause: str, verb: str):
        from ..service.facade import DatasetUnavailable

        return DatasetUnavailable(
            self.name,
            "degraded",
            f"shard {self.plan.shard_key(shard)}: {cause}",
            verb,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _seed(self, width: float, height: float, holes: Sequence[Rect]):
        """The global empty-region seed every shard must use.

        The rectangle-union bound is ``fl(min(xs) - width)``: per-point
        edge subtraction is monotone under rounding, so the mirror's
        coordinate extremes reproduce the engine's bound bitwise without
        an O(n) ASP reduction per query.
        """
        data = self.dataset
        if data.n == 0:
            # The engine's empty-dataset seed (search.py): fixed origin.
            return (0.0, 0.0)
        bx = float(data.xs.min()) - width
        by = float(data.ys.min()) - height
        return canonical_seed(
            Rect(bx, by, bx + 1.0, by + 1.0),
            holes,
            SimpleNamespace(width=width, height=height),
        )

    def _solve_frame(
        self, request: QueryRequest, holes: Sequence[Rect]
    ) -> dict:
        seed = self._seed(request.width, request.height, holes)
        return {
            "request": request.to_dict(),
            "holes": [[h.x_min, h.y_min, h.x_max, h.y_max] for h in holes],
            "seed": [seed[0], seed[1]],
        }

    def _empty_answer(
        self, request: QueryRequest, holes: Sequence[Rect]
    ) -> RegionResult:
        """The answer of a provably-empty shard, synthesized exactly.

        With zero rows the canonical solve returns the seed region and
        the empty representation -- both pure functions of global state
        the router holds, so a dead-but-empty shard never blocks reads.
        """
        from ..asp.reduction import region_for_point

        q = self._mirror._asrs_query(
            QueryRequest.from_dict({**request.to_dict(), "dataset": self.name})
        )
        sx, sy = self._seed(request.width, request.height, holes)
        region = region_for_point(sx, sy, q.width, q.height)
        rep = q.aggregator.apply(self.dataset, region)
        return RegionResult(
            region=(region.x_min, region.y_min, region.x_max, region.y_max),
            score=float(q.distance_to(rep)),
            representation=tuple(float(v) for v in rep),
        )

    def _scatter_solve(
        self, request: QueryRequest, holes: Sequence[Rect]
    ) -> RegionResult:
        """One canonical round: fan out, merge, 503 on a blocking shard."""
        frames, synthesized = {}, {}
        with self._lock:
            dead = dict(self._dead)
            rows = [len(ids) for ids in self._shard_ids]
        blocked = [s for s in dead if rows[s] > 0]
        if blocked:
            raise self._unavailable(
                blocked[0], dead[blocked[0]]["cause"], "query"
            )
        frame = self._solve_frame(request, holes)
        for shard in range(self.plan.n_shards):
            if shard in dead:
                synthesized[shard] = self._empty_answer(request, holes)
            else:
                frames[shard] = {"op": "query", **frame}
        responses = self._scatter(frames)
        results: List[RegionResult] = list(synthesized.values())
        for shard, response in responses.items():
            if not response.get("ok"):
                if response.get("kind") == "dead" and rows[shard] == 0:
                    results.append(self._empty_answer(request, holes))
                    continue
                raise self._unavailable(
                    shard, response.get("error", "worker error"), "query"
                )
            results.append(RegionResult.from_dict(response["value"]))
        return _merge(results)

    def _finish(self, result: RegionResult, t0: float) -> RegionResult:
        return RegionResult(
            region=result.region,
            score=result.score,
            representation=result.representation,
            stats=None,
            epoch=self.epoch,
            elapsed_s=time.perf_counter() - t0,
        )

    def query(self, request: QueryRequest) -> RegionResult:
        """Answer one query with the canonical (unsharded-identical) result."""
        if request.topk != 1:
            return self.query_topk(request)[0]
        t0 = time.perf_counter()
        self._check_key(request.dataset)
        self._check_size(request)
        with self._gate.shared():
            self._admit("query")
            return self._finish(self._scatter_solve(request, []), t0)

    def query_topk(self, request: QueryRequest) -> List[RegionResult]:
        """Exact top-k, one canonical scatter round per rank."""
        t0 = time.perf_counter()
        self._check_key(request.dataset)
        self._check_size(request)
        results: List[RegionResult] = []
        holes: List[Rect] = []
        with self._gate.shared():
            self._admit("query")
            for _ in range(request.topk):
                result = self._scatter_solve(request, holes)
                results.append(self._finish(result, t0))
                if self.dataset.n == 0:
                    break  # one empty answer, as the unsharded loop
                x_min, y_min, x_max, y_max = result.region
                holes.append(
                    Rect(
                        x_min - request.width,
                        y_min - request.height,
                        x_max,
                        y_max,
                    )
                )
        return results

    def query_batch(self, requests: Sequence[QueryRequest]) -> List[RegionResult]:
        """A batch of independent single-result queries, one scatter."""
        t0 = time.perf_counter()
        if not requests:
            return []
        for request in requests:
            self._check_key(request.dataset)
            self._check_size(request)
            if request.topk != 1:
                raise ValueError("query_batch serves topk == 1 requests")
        with self._gate.shared():
            self._admit("query")
            with self._lock:
                dead = dict(self._dead)
                blocked = [s for s in dead if len(self._shard_ids[s]) > 0]
            if blocked:
                raise self._unavailable(
                    blocked[0], dead[blocked[0]]["cause"], "query"
                )
            items = [self._solve_frame(r, []) for r in requests]
            frames = {
                shard: {"op": "query_batch", "items": items}
                for shard in range(self.plan.n_shards)
                if shard not in dead
            }
            responses = self._scatter(frames)
            per_request: List[List[RegionResult]] = [[] for _ in requests]
            for _shard in dead:
                for i, request in enumerate(requests):
                    per_request[i].append(self._empty_answer(request, []))
            for shard, response in responses.items():
                if not response.get("ok"):
                    raise self._unavailable(
                        shard, response.get("error", "worker error"), "query"
                    )
                for i, value in enumerate(response["value"]):
                    per_request[i].append(RegionResult.from_dict(value))
            return [self._finish(_merge(group), t0) for group in per_request]

    def _check_size(self, request: QueryRequest) -> None:
        if not self.plan.fits(request.width, request.height):
            raise ValueError(
                f"query size ({request.width}, {request.height}) exceeds the "
                f"plan's halo budget ({self.plan.wmax}, {self.plan.hmax}); "
                "re-run shard-plan with a larger --wmax/--hmax"
            )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _split_update(self, request: UpdateRequest) -> Dict[int, dict]:  # guarded-by: _lock
        """Per-shard sub-batches of one global update (holds ``_lock``)."""
        n = self.dataset.n
        delete = np.asarray(request.delete, dtype=np.int64)
        if delete.size and (delete.min() < 0 or delete.max() >= n):
            raise ValueError(
                f"delete index out of range for dataset of {n} rows"
            )
        del_ids = self._ids[delete] if delete.size else np.empty(0, np.int64)
        ax = np.asarray([x for x, _y, _a in request.append], dtype=np.float64)
        ay = np.asarray([y for _x, y, _a in request.append], dtype=np.float64)
        if ax.size:
            # An append outside the planned box would have an ASP
            # rectangle no tile covers: an unsharded search could anchor
            # where no shard can, silently breaking the identity
            # contract.  Refuse loudly; re-plan to grow the box.
            inside = (
                (ax - self.plan.wmax >= self.plan.x_edges[0])
                & (ax <= self.plan.x_edges[-1])
                & (ay - self.plan.hmax >= self.plan.y_edges[0])
                & (ay <= self.plan.y_edges[-1])
            )
            if not inside.all():
                bad = int(np.flatnonzero(~inside)[0])
                raise ValueError(
                    f"append ({ax[bad]}, {ay[bad]}) falls outside the "
                    "planned coverage box; re-run shard-plan to serve it"
                )
        frames: Dict[int, dict] = {}
        for shard in range(self.plan.n_shards):
            local = np.flatnonzero(np.isin(self._shard_ids[shard], del_ids))
            covered = (
                self.plan.covered_mask(shard, ax, ay)
                if ax.size
                else np.empty(0, bool)
            )
            rows = [
                [x, y, attrs]
                for (x, y, attrs), hit in zip(request.append, covered)
                if hit
            ]
            if not rows and not local.size:
                continue
            sub = {
                "dataset": self.plan.shard_key(shard),
                "append": rows,
                "append_csv": None,
                "delete": [int(i) for i in local],
            }
            frames[shard] = {"op": "update", "request": sub}
        return frames

    def _commit_update(self, request: UpdateRequest) -> UpdateResult:
        """Every shard acked: apply the mirror + id bookkeeping."""
        result = self._mirror.update(
            UpdateRequest.from_dict(
                {**request.to_dict(), "dataset": self.name}
            )
        )
        with self._lock:
            delete = np.asarray(request.delete, dtype=np.int64)
            keep = np.ones(self._ids.size, dtype=bool)
            if delete.size:
                keep[delete] = False
            del_ids = self._ids[~keep]
            new_ids = np.arange(
                self._next_id, self._next_id + len(request.append),
                dtype=np.int64,
            )
            self._next_id += len(request.append)
            self._ids = np.concatenate([self._ids[keep], new_ids])
            if request.append:
                ax = np.asarray([x for x, _y, _a in request.append])
                ay = np.asarray([y for _x, y, _a in request.append])
            for shard in range(self.plan.n_shards):
                ids = self._shard_ids[shard]
                ids = ids[~np.isin(ids, del_ids)]
                if request.append:
                    mask = self.plan.covered_mask(shard, ax, ay)
                    ids = np.concatenate([ids, new_ids[mask]])
                self._shard_ids[shard] = ids
            self._pending = None
        return UpdateResult(
            dataset=self.name,
            epoch=self.epoch,
            appended=result.appended,
            deleted=result.deleted,
            wal_logged=True,
            index_patched=result.index_patched,
        )

    def update(self, request: UpdateRequest) -> UpdateResult:
        """Route one mutation to every shard holding an affected row.

        Sub-batch delivery is journalled: a worker dying mid-scatter
        leaves the batch pending (all other operations 503) until
        ``recover()`` restarts the worker and re-sends exactly the
        sub-batches its WAL provably missed.  The mirror commits only
        after every shard acknowledges, so reads never observe a
        half-applied batch.
        """
        if request.append_csv is not None:
            raise ValueError(
                "append_csv is not routed; expand the CSV to inline records"
            )
        self._check_key(request.dataset)
        from ..service.facade import DatasetUnavailable

        with self._gate.exclusive():
            self._admit("update")
            with self._lock:
                if self._dead:
                    shard = next(iter(self._dead))
                    raise self._unavailable(
                        shard, self._dead[shard]["cause"], "update"
                    )
                frames = self._split_update(request)
                self._pending = {
                    "request": request.to_dict(),
                    "remaining": dict(frames),
                }
            responses = self._scatter(frames)
            failed = []
            with self._lock:
                for shard, response in responses.items():
                    if response.get("ok"):
                        self._pending["remaining"].pop(shard, None)
                        self._since_ckpt[shard] += 1
                        self._wal_records[shard] += 1
                    else:
                        failed.append((shard, response))
            if failed:
                shard, response = failed[0]
                if response.get("kind") != "dead":
                    # The worker is alive and refused (validation,
                    # health gate): nothing was applied there, and the
                    # already-acked shards logged their sub-batches --
                    # surface the refusal and keep the batch pending
                    # for recover() to drain or the operator to repair.
                    raise DatasetUnavailable(
                        self.name,
                        "degraded",
                        f"shard {self.plan.shard_key(shard)} refused the "
                        f"sub-batch: {response.get('error')}",
                        "update",
                    )
                raise self._unavailable(
                    shard, response.get("error", "worker died"), "update"
                )
            return self._commit_update(request)

    def checkpoint(self, key: str) -> CheckpointResult:
        """Checkpoint every shard, rewrite the base CSV, refresh the plan."""
        self._check_key(key)
        with self._gate.exclusive():
            self._admit("checkpoint")
            frames = {
                s: {"op": "checkpoint"} for s in range(self.plan.n_shards)
            }
            with self._lock:
                if self._dead:
                    shard = next(iter(self._dead))
                    raise self._unavailable(
                        shard, self._dead[shard]["cause"], "checkpoint"
                    )
            responses = self._scatter(frames)
            dropped = 0
            for shard, response in responses.items():
                if not response.get("ok"):
                    raise self._unavailable(
                        shard, response.get("error", "worker error"),
                        "checkpoint",
                    )
                dropped += int(response["value"].get("wal_records_dropped", 0))
                with self._lock:
                    self._since_ckpt[shard] = 0
                    self._wal_records[shard] = 0
            data_path = None
            if self._base_data is not None:
                from ..data.io import save_csv

                save_csv(self.dataset, self._base_data)
                data_path = self._base_data
            if self._directory is not None:
                from ..engine.persist import dataset_fingerprint

                self.plan = replace(
                    self.plan, fingerprint=dataset_fingerprint(self.dataset)
                )
                self.plan.save(self._directory)
            return CheckpointResult(
                dataset=self.name,
                epoch=self.epoch,
                data_path=data_path,
                index_path=None,
                wal_records_dropped=dropped,
                n=self.dataset.n,
            )

    def compact(self, key: str) -> CompactResult:
        """Compact every shard WAL holding records."""
        self._check_key(key)
        with self._gate.exclusive():
            self._admit("compact")
            with self._lock:
                if self._dead:
                    shard = next(iter(self._dead))
                    raise self._unavailable(
                        shard, self._dead[shard]["cause"], "compact"
                    )
                frames = {
                    s: {"op": "compact"}
                    for s in range(self.plan.n_shards)
                    if self._wal_records[s] > 0
                }
            responses = self._scatter(frames)
            before = after = b_before = b_after = 0
            for shard, response in responses.items():
                if not response.get("ok"):
                    raise self._unavailable(
                        shard, response.get("error", "worker error"),
                        "compact",
                    )
                value = response["value"]
                before += int(value["records_before"])
                after += int(value["records_after"])
                b_before += int(value["bytes_before"])
                b_after += int(value["bytes_after"])
                with self._lock:
                    self._wal_records[shard] = int(value["records_after"])
            return CompactResult(
                dataset=self.name,
                records_before=before,
                records_after=after,
                bytes_before=b_before,
                bytes_after=b_after,
                epoch=self.epoch,
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def kill(self, shard: int) -> None:
        """Hard-kill one worker (crash drills; the CI smoke uses this)."""
        self._backends[shard].kill()
        self._mark_dead(shard, "killed")

    def recover(self, key: Optional[str] = None) -> dict:
        """Restart dead workers, replay their WALs, drain pending frames.

        Returns ``{"restarted": [...], "resent": int, "skipped": int,
        "committed": bool}``.  A restarted shard's open replays its WAL;
        a pending sub-batch is re-sent only when the restart epoch shows
        the shard never logged it (epochs count batches since the last
        checkpoint, a number the router tracks per shard).
        """
        if key is not None:
            self._check_key(key)
        restarted, resent, skipped = [], 0, 0
        with self._gate.exclusive():
            with self._lock:
                dead = sorted(self._dead)
                pending = self._pending
            for shard in dead:
                back = self._factory(self.plan, self._specs[shard], shard)
                self._backends[shard] = back
                epoch = int(back.ready.get("epoch", 0))
                with self._lock:
                    expected = self._since_ckpt[shard]
                    frame = (
                        pending["remaining"].get(shard) if pending else None
                    )
                    if frame is None:
                        # No in-flight sub-batch: trust the disk.
                        self._since_ckpt[shard] = epoch
                        self._wal_records[shard] = int(
                            back.ready.get("replayed", 0)
                        )
                    elif epoch == expected + 1:
                        # Logged and applied before the crash: replay
                        # restored it; do not double-apply.
                        pending["remaining"].pop(shard, None)
                        self._since_ckpt[shard] = epoch
                        self._wal_records[shard] += 1
                        skipped += 1
                    elif epoch != expected:
                        raise RuntimeError(
                            f"shard {self.plan.shard_key(shard)} restarted "
                            f"at epoch {epoch}, expected {expected} or "
                            f"{expected + 1}; its log diverged from the "
                            "router's journal"
                        )
                    self._dead.pop(shard, None)
                restarted.append(self.plan.shard_key(shard))
            committed = False
            if pending is not None:
                remaining = dict(pending["remaining"])
                if remaining:
                    responses = self._scatter(remaining)
                    for shard, response in responses.items():
                        if not response.get("ok"):
                            raise self._unavailable(
                                shard,
                                response.get("error", "worker error"),
                                "recover",
                            )
                        with self._lock:
                            pending["remaining"].pop(shard, None)
                            self._since_ckpt[shard] += 1
                            self._wal_records[shard] += 1
                        resent += 1
                self._commit_update(
                    UpdateRequest.from_dict(pending["request"])
                )
                committed = True
        return {
            "restarted": restarted,
            "resent": resent,
            "skipped": skipped,
            "committed": committed,
        }

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Facade-shaped health with a per-shard breakdown."""
        with self._lock:
            dead = {s: dict(info) for s, info in self._dead.items()}
            pending = self._pending is not None
            shard_rows = {
                s: len(self._shard_ids[s]) for s in range(self.plan.n_shards)
            }
        shards = {}
        for shard in range(self.plan.n_shards):
            if shard in dead:
                entry = {
                    "state": "degraded",
                    "cause": dead[shard]["cause"],
                    "since": dead[shard]["since"],
                }
            else:
                entry = {"state": "ok", "cause": None, "since": None}
            entry["rows"] = shard_rows[shard]
            shards[self.plan.shard_key(shard)] = entry
        if pending:
            state, cause = "degraded", "partial update batch pending"
        elif dead:
            blocking = [s for s in dead if shard_rows[s]]
            state = "degraded"
            cause = (
                f"{len(dead)} worker(s) dead"
                + ("" if blocking else " (all provably empty; reads serve)")
            )
        else:
            state, cause = "ok", None
        since = min(
            (info["since"] for info in dead.values()), default=None
        )
        return {
            "state": state,
            "datasets": {
                self.name: {"state": state, "cause": cause, "since": since}
            },
            "shards": shards,
        }

    def stats(self) -> dict:
        with self._lock:
            dead = sorted(self._dead)
            pending = self._pending is not None
            shards = {
                self.plan.shard_key(s): {
                    "alive": s not in self._dead,
                    "rows": len(self._shard_ids[s]),
                    "wal_records": self._wal_records[s],
                    "since_checkpoint": self._since_ckpt[s],
                    "blas": self._backends[s].ready.get("blas"),
                }
                for s in range(self.plan.n_shards)
            }
        return {
            "read_only": False,
            "dataset": self.name,
            "epoch": self.epoch,
            "n": self.dataset.n,
            "plan": {
                "nx": self.plan.nx,
                "ny": self.plan.ny,
                "wmax": self.plan.wmax,
                "hmax": self.plan.hmax,
            },
            "dead": [self.plan.shard_key(s) for s in dead],
            "pending_update": pending,
            "shards": shards,
            "blas": blas_info(),
        }

    def close(self) -> list:
        """Shut down; returns ``[]`` (facade ``close()`` report shape).

        Worker checkpoints happen inside the workers (their close-time
        durability policy), so there are no parent-side reports.
        In-flight queries drain first; later ones refuse.
        """
        with self._gate.exclusive():
            with self._lock:
                if self._closed:
                    return []
                self._closed = True
                pending = self._pending is not None
            for back in self._backends:
                try:
                    back.close()
                except ShardDeadError:
                    pass
            # Clean shutdown keeps the base CSV + plan fingerprint in
            # step with the committed state (workers checkpoint their
            # own CSVs under the close-time durability policy); with a
            # batch still pending the base stays stale and reopen fails
            # closed instead.
            if not pending and self._base_data is not None:
                from ..data.io import save_csv

                save_csv(self.dataset, self._base_data)
                if self._directory is not None:
                    from ..engine.persist import dataset_fingerprint

                    self.plan = replace(
                        self.plan,
                        fingerprint=dataset_fingerprint(self.dataset),
                    )
                    self.plan.save(self._directory)
            self._mirror.close()
        return []

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


sanitize_class(ShardRouter)
