"""Micro-benchmark of the zero-churn query engine (DESIGN.md §7-§8).

Times five ways of answering a batch of same-shaped ASRS queries on
the Fig. 10 scalability workload (Tweet + POISyn, query size 10q):

* **cold** -- one public ``gi_ds_search`` call per query, paying the
  index build and every per-dataset precomputation each time;
* **warm** -- a pre-warmed :class:`repro.engine.QuerySession`, one
  ``solve`` per query;
* **batch** -- ``QuerySession.solve_batch`` on a fresh session, i.e.
  warm-path throughput *including* the one-off session warm-up;
* **parallel** -- ``solve_batch(workers=N)`` on the pre-warmed session:
  the thread-safe caches under concurrent solves (numpy releases the
  GIL on the heavy kernels, so multi-core runners overlap real work;
  single-core runners degenerate to ~warm);
* **warm-from-disk** -- ``save_session`` + ``load_session`` + a serial
  batch: what a restarted server pays instead of the cold build.
* **incremental** -- a live update stream: eight rounds of "mutate
  (append ~0.2% in-bounds objects, delete ~0.2% interior objects via
  ``QuerySession.apply``) then serve a slice of the batch", on one
  session patched in place -- versus **rebuild**, which serves the
  identical stream by constructing a cold session on each round's
  dataset.  Per-round answers must be bitwise-identical between the
  two; the speedup is what in-place patching saves over a per-change
  rebuild when updates are frequent.
* **wal_replay** -- crash recovery: the warm session's bundle is saved
  *before* the stream, every stream batch is write-ahead-logged, then a
  "restarted server" recovers by ``load_session`` + ``replay`` and
  serves the batch -- versus rebuilding a cold session on the final
  dataset.  Recovered answers must be bitwise-identical to the cold
  rebuild, and no cold channel-table rebuild may happen on restore
  (the bundle's pending cell sums are patched through replay).
  Note the baseline is *given* the final dataset, which a crashed
  server without a WAL does not have -- its on-disk CSV is at the
  bundle's epoch and the updates are simply lost.  The row therefore
  checks identity and keeps recovery cost observable (expect rough
  parity: replay does O(records) sublinear patches against the cold
  path's one O(n) build); the WAL's value is durability, not speed.
* **service_overhead** -- the typed serving facade: the same queries
  answered through :class:`repro.service.RegionService` (typed
  ``QueryRequest`` in, structured ``RegionResult`` out, per-query
  budget re-accounting) versus direct ``QuerySession.solve`` calls on
  an identically warmed session.  Answers must be bitwise-identical
  and the facade overhead must stay within a few percent -- the typed
  surface is bookkeeping, not work.
* **sanitizer_overhead** -- the concurrency sanitizer's disabled fast
  path (DESIGN.md §14): the engine's locks come from
  ``repro.analysis.sanitizer`` factories, which when disarmed must
  return bare ``threading`` primitives.  The row type-checks that no
  ``Tracked*`` wrapper leaked into the default build and times a
  second identically warmed session against the direct baseline; the
  overhead must stay ≤2% (identity-checked, same min-of-reps pattern
  as service_overhead).  The bench never arms the sanitizer.  The
  direct, service and sanitizer sides are timed in turn within each
  repetition, so host drift during the row reaches all three alike
  instead of reading as overhead.
* **shard_scaleout** -- the spatial shard router (DESIGN.md §15): the
  same canonical queries answered by ``ShardRouter.query_batch`` over
  ≥2 real worker *processes* (per-shard bundles, one scatter) versus a
  sequential single-process ``solve_canonical`` loop on one warmed
  session.  Routed answers must be bitwise-identical to the unsharded
  canonical solves; the speedup is what process-level scatter-gather
  buys over the GIL-bound single process (expect > 1.0 only on
  multi-core runners -- the row records ``cpu_count`` so CI can gate).

All rows must return bitwise-identical results; the script fails if
they do not.  Results land in ``BENCH_engine.json`` so the perf
trajectory is tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_engine.py --out BENCH_engine.json

    # CI smoke (small sizes, seconds instead of minutes):
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke --out BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core.query import ASRSQuery
from repro.data import (
    generate_poisyn_dataset,
    generate_tweet_dataset,
    poisyn_query,
    weekend_query,
)
from repro.engine import QuerySession, UpdateBatch, load_session, replay, save_session
from repro.experiments.datasets import SEED, paper_query_size
from repro.index import gi_ds_search

SIZE_FACTOR = 10  # the Fig. 10 query size, in units of q = extent/1000


def make_queries(kind: str, n: int, n_queries: int) -> tuple:
    """The Fig. 10 query plus mild (±10%) target perturbations.

    Perturbing only the *target* models session traffic: many users ask
    for regions similar to different examples, while the region size and
    the aggregator -- everything the session memoizes -- stay shared.
    """
    if kind == "tweet":
        dataset = generate_tweet_dataset(n, seed=SEED)
        base = weekend_query(dataset, *paper_query_size(dataset, SIZE_FACTOR))
    else:
        dataset = generate_poisyn_dataset(n, seed=SEED)
        base = poisyn_query(dataset, *paper_query_size(dataset, SIZE_FACTOR))
    rng = np.random.default_rng(SEED)
    queries = [base]
    for _ in range(n_queries - 1):
        target = base.query_rep * rng.uniform(0.9, 1.1, base.query_rep.shape)
        queries.append(
            ASRSQuery(base.width, base.height, base.aggregator, target, base.metric)
        )
    return dataset, queries


def identical(a, b) -> bool:
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


def bench_config(kind: str, n: int, n_queries: int, workers: int) -> dict:
    dataset, queries = make_queries(kind, n, n_queries)
    session = QuerySession(dataset)
    granularity = session.granularity

    # Cold: the public per-query API at the same configuration (the only
    # configuration under which results are comparable bit-for-bit).
    t0 = time.perf_counter()
    cold = [gi_ds_search(dataset, q, granularity=granularity) for q in queries]
    cold_s = time.perf_counter() - t0

    # Warm: session caches populated by one untimed solve.
    session.solve(queries[0])
    t0 = time.perf_counter()
    warm = [session.solve(q) for q in queries]
    warm_s = time.perf_counter() - t0

    # Batch: a fresh session, warm-up included in the measurement.
    t0 = time.perf_counter()
    batch = QuerySession(dataset).solve_batch(queries)
    batch_s = time.perf_counter() - t0

    # Parallel: a thread pool over a session warmed exactly like the
    # warm row (one untimed solve) -- NOT the session the warm row ran
    # on, whose per-cell caches the timed warm solves already filled;
    # that would conflate cell-cache reuse with parallelism.
    psession = QuerySession(dataset)
    psession.solve(queries[0])
    t0 = time.perf_counter()
    parallel = psession.solve_batch(queries, workers=workers)
    parallel_s = time.perf_counter() - t0

    # Warm-from-disk: persist the warm session, restore it into a fresh
    # one, serve the batch.  Load and solve are reported separately so
    # the restart cost is visible next to the steady-state rate.
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "session.idx")
        save_session(session, bundle)
        t0 = time.perf_counter()
        restored = load_session(bundle, dataset)
        disk_load_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        disk = restored.solve_batch(queries)
        disk_solve_s = time.perf_counter() - t0

    # Service overhead: the typed facade versus direct session solves.
    # Both sides run the identical workload on fresh sessions warmed by
    # one untimed solve of the first query, so the difference is exactly
    # the facade's bookkeeping (request typing, aggregator interning,
    # result structuring, budget re-accounting).
    from repro.service import DatasetSpec, QueryRequest, RegionService, term_specs

    # Repetitions smooth single-run jitter: the facade's per-query cost
    # is tens of microseconds, so on millisecond solves one scheduler
    # hiccup would otherwise dominate the ratio.
    service_reps = 5
    direct_session = QuerySession(dataset, granularity=granularity)
    direct_session.solve(queries[0])

    service = RegionService()
    service.open(
        DatasetSpec(key="bench", granularity=granularity), dataset=dataset
    )
    requests = [
        QueryRequest(
            dataset="bench",
            terms=term_specs(q.aggregator),
            width=q.width,
            height=q.height,
            target=tuple(q.query_rep),
            weights=tuple(q.metric.weights),
            p=q.metric.p,
        )
        for q in queries
    ]
    service.query(requests[0])  # warm, mirroring the direct side

    # Sanitizer overhead: the engine's locks are built through
    # repro.analysis.sanitizer factories (make_lock & friends), which
    # when disarmed must hand back bare threading primitives -- the
    # same near-zero fast path the faults registry takes.  Two checks:
    # the session's locks really are plain primitives (no Tracked*
    # wrapper leaked into the default build), and a second identically
    # warmed session times within noise of the direct baseline
    # (A/A by construction once the type check holds; a regression
    # that makes the disabled factory pay per-acquisition cost shows
    # up here).  The bench process never calls sanitizer.enable() --
    # arming installs guard descriptors process-wide and would
    # contaminate every other row.
    import threading as _threading

    from repro.analysis import sanitizer as _sanitizer

    sanitizer_plain = not _sanitizer.enabled() and not any(
        isinstance(lk, _sanitizer._TrackedBase)
        for lk in (
            direct_session._index_lock,
            direct_session._memo_lock,
            direct_session._update_gate._cv,
        )
    ) and isinstance(direct_session._memo_lock, type(_threading.Lock()))
    sani_session = QuerySession(dataset, granularity=granularity)
    sani_session.solve(queries[0])

    # The three sides take turns within each repetition, so host speed
    # drift lands on all of them alike; min-of-reps then keeps each
    # side's fastest pass, the one least polluted by scheduler noise,
    # which otherwise dwarfs the facade's microsecond-scale bookkeeping
    # on millisecond solves.
    direct_times, service_times, sani_times = [], [], []
    for _ in range(service_reps):
        t0 = time.perf_counter()
        direct = [direct_session.solve(q) for q in queries]
        direct_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        served = [service.query(r) for r in requests]
        service_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sani = [sani_session.solve(q) for q in queries]
        sani_times.append(time.perf_counter() - t0)
    direct_s = min(direct_times)
    service_s = min(service_times)
    sanitizer_s = min(sani_times)
    service_ok = all(
        s.region
        == (d.region.x_min, d.region.y_min, d.region.x_max, d.region.y_max)
        and s.score == d.distance
        and np.array_equal(np.asarray(s.representation), d.representation)
        for s, d in zip(served, direct)
    )
    service_overhead_pct = round((service_s / direct_s - 1.0) * 100.0, 2)
    sanitizer_ok = sanitizer_plain and all(
        s.region == d.region
        and s.distance == d.distance
        and np.array_equal(s.representation, d.representation)
        for s, d in zip(sani, direct)
    )
    sanitizer_overhead_pct = round((sanitizer_s / direct_s - 1.0) * 100.0, 2)

    # Incremental: a live update stream.  Each round mutates the data
    # (append ~0.5% rows resampled in-bounds, delete ~0.5% interior
    # rows -- avoiding the bounding-box corners keeps the index on the
    # sublinear dirty-cell path) and then serves a slice of the query
    # batch.  The incremental path patches ONE warm session in place;
    # the rebuild path answers the identical stream with a cold session
    # per round, which is what a server without a mutation API must do.
    # The update sequence is pre-simulated (untimed) so both paths see
    # bit-identical datasets.
    rng = np.random.default_rng(SEED + 1)
    rounds = 8
    slices = [queries[i::rounds] for i in range(rounds)]
    stream = []
    stream_ds = dataset
    for _ in range(rounds):
        n_delta = max(1, stream_ds.n // 500)
        protect = np.unique(
            [
                int(np.argmin(stream_ds.xs)),
                int(np.argmax(stream_ds.xs)),
                int(np.argmin(stream_ds.ys)),
                int(np.argmax(stream_ds.ys)),
            ]
        )
        candidates = np.setdiff1d(np.arange(stream_ds.n), protect)
        delete_idx = np.sort(
            rng.choice(candidates, size=min(n_delta, candidates.size), replace=False)
        )
        appended = stream_ds.subset(
            np.sort(rng.choice(stream_ds.n, size=n_delta, replace=False))
        )
        stream.append(UpdateBatch(append=appended, delete=delete_idx))
        stream_ds = stream_ds.delete(delete_idx).append(appended)

    t0 = time.perf_counter()
    round_stats = []
    incremental = []
    for update, sl in zip(stream, slices):
        round_stats.append(session.apply(update))
        incremental.append(session.solve_batch(sl))
    incremental_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    rebuild = []
    rebuild_ds = dataset
    for update, sl in zip(stream, slices):
        rebuild_ds = rebuild_ds.delete(update.delete).append(update.append)
        rebuild.append(
            QuerySession(rebuild_ds, granularity=granularity).solve_batch(sl)
        )
    rebuild_s = time.perf_counter() - t0

    # WAL replay: save the warm bundle at the stream's start, log the
    # whole stream, then recover (load + replay + serve) versus the
    # crash recovery a server without a WAL must do (cold rebuild on
    # the final dataset + serve).  Both must answer bitwise-identically.
    with tempfile.TemporaryDirectory() as tmp:
        wal_session = QuerySession(dataset, granularity=granularity)
        wal_session.solve(queries[0])
        bundle = os.path.join(tmp, "wal_session.idx")
        save_session(wal_session, bundle)
        wal = wal_session.attach_wal(os.path.join(tmp, "session.wal"))
        t0 = time.perf_counter()
        for update in stream:
            wal_session.apply(update)
        wal_append_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        recovered = load_session(bundle, dataset)
        replay_stats = replay(recovered, wal)
        wal_recovered = recovered.solve_batch(queries)
        wal_replay_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        wal_rebuilt = QuerySession(stream_ds, granularity=granularity).solve_batch(
            queries
        )
        wal_rebuild_s = time.perf_counter() - t0
    wal_ok = all(identical(a, b) for a, b in zip(wal_recovered, wal_rebuilt))

    ok = (
        all(
            identical(c, w) and identical(c, b) and identical(c, p) and identical(c, d)
            for c, w, b, p, d in zip(cold, warm, batch, parallel, disk)
        )
        and all(
            identical(i, r)
            for inc_round, reb_round in zip(incremental, rebuild)
            for i, r in zip(inc_round, reb_round)
        )
        and wal_ok
        and service_ok
        and sanitizer_ok
    )
    return {
        "kind": kind,
        "n": n,
        "n_queries": n_queries,
        "granularity": list(granularity),
        "workers": workers,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "batch_s": round(batch_s, 4),
        "parallel_s": round(parallel_s, 4),
        "disk_load_s": round(disk_load_s, 4),
        "disk_solve_s": round(disk_solve_s, 4),
        "direct_s": round(direct_s, 4),
        "service_s": round(service_s, 4),
        "service_overhead_pct": service_overhead_pct,
        "service_identical": service_ok,
        "sanitizer_s": round(sanitizer_s, 4),
        "sanitizer_overhead_pct": sanitizer_overhead_pct,
        "sanitizer_identical": sanitizer_ok,
        "incremental_s": round(incremental_s, 4),
        "rebuild_s": round(rebuild_s, 4),
        "update_rounds": rounds,
        "update_appended": int(sum(s.appended for s in round_stats)),
        "update_deleted": int(sum(s.deleted for s in round_stats)),
        "update_rounds_index_patched": sum(
            1 for s in round_stats if s.index_patched
        ),
        "update_cell_entries_kept": int(
            sum(s.cell_entries_kept for s in round_stats)
        ),
        "wal_append_s": round(wal_append_s, 4),
        "wal_replay_s": round(wal_replay_s, 4),
        "wal_rebuild_s": round(wal_rebuild_s, 4),
        "wal_records_replayed": replay_stats.applied,
        "wal_pending_tables_patched": replay_stats.pending_tables_patched,
        "wal_identical": wal_ok,
        "speedup_warm": round(cold_s / warm_s, 2),
        "speedup_batch": round(cold_s / batch_s, 2),
        "speedup_parallel": round(cold_s / parallel_s, 2),
        "parallel_vs_warm": round(warm_s / parallel_s, 2),
        "speedup_warm_disk": round(cold_s / (disk_load_s + disk_solve_s), 2),
        "speedup_incremental": round(rebuild_s / incremental_s, 2),
        "speedup_wal_replay": round(wal_rebuild_s / wal_replay_s, 2),
        "identical": ok,
    }


def bench_shard_scaleout(n: int, n_queries: int) -> dict:
    """Routed scatter-gather vs a single-process canonical solve loop.

    Both sides answer the identical Fig. 10 weekend-query traffic
    canonically (the router's merge contract), so the comparison is
    process-parallel scatter-gather against the exact same work done
    sequentially in one process.  Worker startup and the one-off cache
    warm-up are excluded on both sides -- this measures steady-state
    serving throughput, which is what the router exists for.
    """
    import shutil

    from repro.data.io import save_csv
    from repro.service.facade import RegionService
    from repro.service.types import DatasetSpec, QueryRequest
    from repro.shard import ShardPlan, ShardRouter, split_dataset

    dataset = generate_tweet_dataset(n, seed=SEED)
    width, height = paper_query_size(dataset, SIZE_FACTOR)
    base = weekend_query(dataset, width, height)
    rng = np.random.default_rng(SEED)
    weights = (1 / 5,) * 5 + (1 / 2,) * 2
    requests = []
    for i in range(n_queries):
        target = base.query_rep
        if i:
            target = target * rng.uniform(0.9, 1.1, target.shape)
        requests.append(
            QueryRequest(
                dataset="default",
                terms=("fD:day_of_week",),
                width=width,
                height=height,
                target=tuple(float(v) for v in target),
                weights=weights,
            )
        )

    # Single process: one warmed session, sequential canonical solves.
    service = RegionService()
    service.open(
        DatasetSpec(
            key="default", categorical=("day_of_week",), numeric=("length",)
        ),
        dataset=dataset,
    )
    session = service.session("default")
    queries = [service._asrs_query(r) for r in requests]
    session.solve_canonical(queries[0])  # warm the shared caches
    t0 = time.perf_counter()
    singles = [session.solve_canonical(q) for q in queries]
    single_s = time.perf_counter() - t0
    service.close()

    # Routed: >= 2 worker processes, one scatter for the whole batch.
    n_workers = max(2, min(4, os.cpu_count() or 1))
    plan = ShardPlan.build(dataset, n_workers, 1, wmax=width, hmax=height)
    tmp = tempfile.mkdtemp(prefix="bench-shard-")
    try:
        specs = split_dataset(
            dataset,
            plan,
            tmp,
            categorical=("day_of_week",),
            numeric=("length",),
        )
        base_csv = os.path.join(tmp, "base.csv")
        save_csv(dataset, base_csv)
        router = ShardRouter(
            plan,
            specs,
            dataset,
            backend="process",
            directory=tmp,
            base_data=base_csv,
        )
        try:
            router.query(requests[0])  # warm every worker's session
            t0 = time.perf_counter()
            routed = router.query_batch(requests)
            routed_s = time.perf_counter() - t0
        finally:
            router.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ok = len(routed) == len(singles) and all(
        r.region
        == (s.region.x_min, s.region.y_min, s.region.x_max, s.region.y_max)
        and r.score == s.distance
        and np.array_equal(np.asarray(r.representation), s.representation)
        for r, s in zip(routed, singles)
    )
    return {
        "n": n,
        "n_queries": n_queries,
        "workers": n_workers,
        "cpu_count": os.cpu_count(),
        "single_s": round(single_s, 4),
        "routed_s": round(routed_s, 4),
        "single_qps": round(n_queries / single_s, 2),
        "routed_qps": round(n_queries / routed_s, 2),
        "speedup_routed": round(single_s / routed_s, 2),
        "identical": ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--kinds", default="tweet,poisyn")
    parser.add_argument("--sizes", default="5000,10000,20000,40000")
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="threads for the parallel row (default: cpu count)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: checks identity + writes the JSON fast",
    )
    args = parser.parse_args(argv)

    kinds = args.kinds.split(",")
    sizes = [int(s) for s in args.sizes.split(",")]
    n_queries = args.queries
    # At least two workers so the threaded path is really exercised
    # (single-core runners then measure the thread-pool overhead).
    workers = args.workers or max(2, os.cpu_count() or 1)
    if args.smoke:
        sizes, n_queries = [2000], 4

    configs = []
    for kind in kinds:
        for n in sizes:
            cfg = bench_config(kind, n, n_queries, workers)
            configs.append(cfg)
            print(
                f"{kind} n={n}: cold {cfg['cold_s']}s warm {cfg['warm_s']}s "
                f"batch {cfg['batch_s']}s parallel {cfg['parallel_s']}s "
                f"disk {cfg['disk_load_s']}+{cfg['disk_solve_s']}s "
                f"incr {cfg['incremental_s']}s vs rebuild {cfg['rebuild_s']}s "
                f"wal-replay {cfg['wal_replay_s']}s vs {cfg['wal_rebuild_s']}s -> "
                f"warm {cfg['speedup_warm']}x batch {cfg['speedup_batch']}x "
                f"parallel {cfg['speedup_parallel']}x "
                f"warm-disk {cfg['speedup_warm_disk']}x "
                f"incremental {cfg['speedup_incremental']}x "
                f"wal-replay {cfg['speedup_wal_replay']}x "
                f"identical={cfg['identical']}"
            )

    shard_n, shard_queries = (6000, 8) if args.smoke else (20000, 16)
    shard_row = bench_shard_scaleout(shard_n, shard_queries)
    print(
        f"shard_scaleout n={shard_row['n']}: "
        f"single {shard_row['single_s']}s ({shard_row['single_qps']} qps) "
        f"routed {shard_row['routed_s']}s ({shard_row['routed_qps']} qps) "
        f"with {shard_row['workers']} workers on {shard_row['cpu_count']} cpus "
        f"-> {shard_row['speedup_routed']}x "
        f"identical={shard_row['identical']}"
    )

    tot_cold = sum(c["cold_s"] for c in configs)
    tot_warm = sum(c["warm_s"] for c in configs)
    tot_batch = sum(c["batch_s"] for c in configs)
    tot_parallel = sum(c["parallel_s"] for c in configs)
    tot_disk = sum(c["disk_load_s"] + c["disk_solve_s"] for c in configs)
    tot_incremental = sum(c["incremental_s"] for c in configs)
    tot_rebuild = sum(c["rebuild_s"] for c in configs)
    tot_wal_replay = sum(c["wal_replay_s"] for c in configs)
    tot_wal_rebuild = sum(c["wal_rebuild_s"] for c in configs)
    tot_direct = sum(c["direct_s"] for c in configs)
    tot_service = sum(c["service_s"] for c in configs)
    tot_sanitizer = sum(c["sanitizer_s"] for c in configs)
    report = {
        "benchmark": "engine",
        "workload": f"fig10 size={SIZE_FACTOR}q",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "smoke": args.smoke,
        "configs": configs,
        "shard_scaleout": shard_row,
        "aggregate": {
            "cold_s": round(tot_cold, 4),
            "warm_s": round(tot_warm, 4),
            "batch_s": round(tot_batch, 4),
            "parallel_s": round(tot_parallel, 4),
            "warm_disk_s": round(tot_disk, 4),
            "speedup_warm": round(tot_cold / tot_warm, 2),
            "speedup_batch": round(tot_cold / tot_batch, 2),
            "speedup_parallel": round(tot_cold / tot_parallel, 2),
            "parallel_vs_warm": round(tot_warm / tot_parallel, 2),
            "speedup_warm_disk": round(tot_cold / tot_disk, 2),
            "incremental_s": round(tot_incremental, 4),
            "rebuild_s": round(tot_rebuild, 4),
            "speedup_incremental": round(tot_rebuild / tot_incremental, 2),
            "wal_replay_s": round(tot_wal_replay, 4),
            "wal_rebuild_s": round(tot_wal_rebuild, 4),
            "speedup_wal_replay": round(tot_wal_rebuild / tot_wal_replay, 2),
            "direct_s": round(tot_direct, 4),
            "service_s": round(tot_service, 4),
            "service_overhead_pct": round(
                (tot_service / tot_direct - 1.0) * 100.0, 2
            ),
            "sanitizer_s": round(tot_sanitizer, 4),
            "sanitizer_overhead_pct": round(
                (tot_sanitizer / tot_direct - 1.0) * 100.0, 2
            ),
        },
        "all_identical": all(c["identical"] for c in configs)
        and shard_row["identical"],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"aggregate: warm {report['aggregate']['speedup_warm']}x, "
        f"batch {report['aggregate']['speedup_batch']}x, "
        f"parallel {report['aggregate']['speedup_parallel']}x "
        f"({workers} workers on {os.cpu_count()} cpus), "
        f"warm-from-disk {report['aggregate']['speedup_warm_disk']}x, "
        f"incremental {report['aggregate']['speedup_incremental']}x vs rebuild, "
        f"wal-replay {report['aggregate']['speedup_wal_replay']}x vs cold restart, "
        f"shard scale-out {shard_row['speedup_routed']}x "
        f"({shard_row['workers']} workers), "
        f"service overhead {report['aggregate']['service_overhead_pct']}% vs direct solves, "
        f"sanitizer (disabled) overhead {report['aggregate']['sanitizer_overhead_pct']}% "
        f"-> {args.out}"
    )
    if not report["all_identical"]:
        print("FAIL: warm/batch results differ from the cold path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
