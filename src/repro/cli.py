"""Command-line interface: ASRS queries over CSV data.

Every subcommand routes through :class:`repro.service.RegionService`
(DESIGN.md §11) -- the CLI parses arguments into the typed request
surface (:class:`~repro.service.DatasetSpec`,
:class:`~repro.service.QueryRequest`,
:class:`~repro.service.UpdateRequest`) and prints the structured
results; the session / WAL / checkpoint choreography lives in the
facade, not here.

Examples
--------
Generate a sample dataset::

    python -m repro.cli generate --kind tweets --n 10000 --out tweets.csv

Find the most weekend-like region (distribution term, handcrafted target)::

    python -m repro.cli search --data tweets.csv \
        --categorical day_of_week --numeric length \
        --term fD:day_of_week --width 0.5 --height 0.25 \
        --target 0,0,0,0,0,200,200 --weights 0.2,0.2,0.2,0.2,0.2,0.5,0.5

Aggregator term syntax: ``fD:attr``, ``fA:attr``, ``fS:attr``, each with
an optional selection ``@other_attr=value`` (e.g. ``fA:price@category=Apartment``).

Densest region of a given size::

    python -m repro.cli maxrs --data tweets.csv \
        --categorical day_of_week --numeric length --width 0.5 --height 0.25

A batch of queries through one warm session (index state shared across
the whole batch)::

    python -m repro.cli batch --data tweets.csv \
        --categorical day_of_week --queries queries.json

where ``queries.json`` holds shared defaults plus per-query overrides::

    {"terms": ["fD:day_of_week"], "width": 0.5, "height": 0.25,
     "queries": [{"target": [0,0,0,0,0,200,200]},
                 {"target": [50,50,50,50,50,0,0]}]}

Mutate a live dataset without rebuilding the index (append rows from a
CSV and/or delete rows by index), saving the mutated CSV together with
the bundle that records its epoch::

    python -m repro.cli update --data tweets.csv \
        --categorical day_of_week --queries queries.json \
        --append fresh.csv --delete 17,42 \
        --save-index tweets.idx --save-data tweets.csv

Durable updates survive a crash without re-saving the data: ``--wal``
write-ahead-logs every mutation (replaying any existing log first), and
``replay`` recovers a crashed server from the checkpointed (data,
bundle) pair plus the log.  The bundle holds only the epoch the CSV is
at; without one the CSV counts as epoch 0::

    python -m repro.cli update --data tweets.csv \
        --categorical day_of_week --queries queries.json \
        --append fresh.csv --index tweets.idx --wal tweets.wal

    python -m repro.cli replay --data tweets.csv \
        --categorical day_of_week --index tweets.idx --wal tweets.wal \
        --queries queries.json

Serve the whole stack over HTTP -- queries, durable updates, explicit
and policy-driven checkpoints, WAL compaction -- or follow a writer's
log as a read-only replica::

    python -m repro.cli serve --data tweets.csv \
        --categorical day_of_week --index tweets.idx --wal tweets.wal \
        --checkpoint-every-records 64 --port 8237

    python -m repro.cli serve --data tweets.csv \
        --categorical day_of_week --index tweets.idx --wal tweets.wal \
        --follow --port 8238
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import zipfile
from typing import TYPE_CHECKING

import numpy as np

from .data.io import load_csv_infer, save_csv

if TYPE_CHECKING:
    from .core.objects import SpatialDataset


def parse_term(spec: str):
    """Parse ``fD:attr`` / ``fA:attr@sel_attr=value`` term specs.

    CLI-facing wrapper over :func:`repro.service.parse_term`: grammar
    errors exit instead of raising.
    """
    from .service import parse_term as _parse

    try:
        return _parse(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _float_list(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _load(args) -> "SpatialDataset":
    return load_csv_infer(
        args.data, categorical=args.categorical, numeric=args.numeric
    )


def _parse_granularity(text):
    if text is None or text == "auto":
        return "auto"
    try:
        sx, sy = (int(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"bad granularity {text!r}: expected 'auto' or SX,SY")
    if sx < 1 or sy < 1:
        raise SystemExit(f"bad granularity {text!r}: SX and SY must be >= 1")
    return (sx, sy)


def _open_service(
    args,
    *,
    index=None,
    wal=None,
    granularity="auto",
    durability=None,
    read_only: bool = False,
    key: str = "cli",
):
    """A RegionService bound to the args' dataset; ``(service, key)``.

    The CSV is loaded here (errors propagate raw, as they always did);
    bundle-read failures get the targeted ``cannot load --index``
    message.  Replay is deliberately deferred (``replay_on_open=False``)
    so recovery is reported -- and its failures messaged -- separately
    via :meth:`RegionService.recover` (see ``_recover_wal``).
    """
    from .service import DatasetSpec, DurabilityPolicy, RegionService

    dataset = _load(args)
    if durability is None:
        durability = DurabilityPolicy(
            replay_on_open=False, checkpoint_on_close=False
        )
    spec = DatasetSpec(
        key=key,
        data=args.data,
        categorical=tuple(args.categorical),
        numeric=tuple(args.numeric),
        index=index,
        wal=wal,
        granularity=granularity,
        durability=durability,
    )
    service = RegionService(read_only=read_only)
    try:
        service.open(spec, dataset=dataset)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        if index is not None:
            raise SystemExit(f"cannot load --index {index}: {exc}")
        # No bundle involved: a ValueError here is spec/policy
        # validation (e.g. a checkpoint trigger without the paths it
        # needs) -- a CLI error, not a traceback.
        raise SystemExit(str(exc))
    return service, spec.key


def _recover_wal(service, key, wal_path) -> None:
    """Replay ``--wal`` onto the opened session, reporting what it did."""
    try:
        stats = service.recover(key)
    except ValueError as exc:
        raise SystemExit(f"cannot replay --wal {wal_path}: {exc}")
    if stats.truncated_bytes:
        print(
            f"truncated a torn WAL tail ({stats.truncated_bytes} bytes, "
            "crash mid-append)"
        )
    if stats.applied or stats.skipped:
        print(
            f"replayed {stats.applied} WAL record(s) "
            f"(+{stats.appended} -{stats.deleted} objects, "
            f"{stats.skipped} already in --data at the bundle's epoch) "
            f"to epoch {stats.final_epoch}"
        )


def _parse_batch_requests(service, key, path, method: str = "gids") -> list:
    """The QueryRequest list of a batch JSON spec."""
    from .service import QueryRequest

    with open(path) as fh:
        spec = json.load(fh)
    if "queries" not in spec:
        raise SystemExit("queries file needs a top-level 'queries' list")

    dataset = service.dataset(key)
    requests = []
    for i, entry in enumerate(spec["queries"]):
        term_specs = tuple(entry.get("terms", spec.get("terms", ())))
        if not term_specs:
            raise SystemExit(f"query #{i}: no terms (set them per query or shared)")
        try:
            aggregator = service.aggregator(key, term_specs)
        except ValueError as exc:
            raise SystemExit(str(exc))
        width = entry.get("width", spec.get("width"))
        height = entry.get("height", spec.get("height"))
        if width is None or height is None:
            raise SystemExit(f"query #{i}: missing width/height")
        if "target" not in entry:
            raise SystemExit(f"query #{i}: missing target")
        target = np.asarray(entry["target"], dtype=np.float64)
        dim = aggregator.dim(dataset)
        if target.shape[0] != dim:
            raise SystemExit(
                f"query #{i}: target has {target.shape[0]} dims, aggregator has {dim}"
            )
        weights = entry.get("weights", spec.get("weights"))
        requests.append(
            QueryRequest(
                dataset=key,
                terms=term_specs,
                width=float(width),
                height=float(height),
                target=tuple(float(v) for v in target),
                weights=None if weights is None else tuple(weights),
                method=method,
            )
        )
    return requests


def _print_batch_results(results) -> None:
    for i, result in enumerate(results):
        x_min, y_min, x_max, y_max = result.region
        print(
            f"query #{i} region=({x_min:.6g}, {y_min:.6g}, "
            f"{x_max:.6g}, {y_max:.6g}) distance={result.score:.6g}"
        )


def _print_persist(report, args) -> None:
    """Narrate a :meth:`RegionService.persist` outcome (save/WAL lifecycle)."""
    if report.saved_data:
        print(
            f"wrote mutated dataset ({report.data_n} objects) to {report.saved_data}"
        )
    if report.saved_index:
        print(
            f"wrote updated session index (epoch {report.epoch}) "
            f"to {report.saved_index}"
        )
        if report.wal_action == "checkpointed":
            print(f"checkpointed WAL {report.wal_path} at epoch {report.epoch}")
        elif report.wal_action == "kept":
            print(
                f"WAL {report.wal_path} left untouched: {args.data} does "
                "not hold the mutated dataset, so the records remain its "
                "recovery path -- pass --save-data "
                f"{args.data} to update the baseline and checkpoint the log"
            )
        if not report.saved_data:
            print(
                "note: the saved bundle fingerprints the *mutated* dataset; "
                "pass --save-data to write the matching CSV, or later loads "
                "against the original --data will be refused as stale"
            )
    elif report.wal_action == "reset":
        print(
            f"reset WAL {report.wal_path}: {report.wal_dropped} record(s) now baked "
            f"into {report.saved_data} (the new baseline)"
        )
        print(
            "note: any bundle saved before this update is now stale for "
            "this data+WAL pair; re-run with --save-index to refresh it"
        )
    elif report.wal_action == "side_copy":
        print(
            f"note: {report.saved_data} is a side copy; the WAL still "
            f"pairs with {args.data} and was left untouched"
        )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_generate(args) -> int:
    from .data import (
        generate_city_dataset,
        generate_poisyn_dataset,
        generate_tweet_dataset,
    )

    if args.kind == "tweets":
        dataset = generate_tweet_dataset(args.n, seed=args.seed)
    elif args.kind == "poisyn":
        dataset = generate_poisyn_dataset(args.n, seed=args.seed)
    else:
        dataset, _ = generate_city_dataset(args.n, seed=args.seed)
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n} objects to {args.out}")
    return 0


def cmd_search(args) -> int:
    from .service import QueryRequest

    service, key = _open_service(args)
    dataset = service.dataset(key)
    terms = tuple(args.term)
    try:
        aggregator = service.aggregator(key, terms)
    except ValueError as exc:
        raise SystemExit(str(exc))
    dim = aggregator.dim(dataset)
    target = _float_list(args.target)
    if target.shape[0] != dim:
        raise SystemExit(f"--target has {target.shape[0]} dims, aggregator has {dim}")
    weights = _float_list(args.weights) if args.weights else None
    request = QueryRequest(
        dataset=key,
        terms=terms,
        width=args.width,
        height=args.height,
        target=tuple(target),
        weights=None if weights is None else tuple(weights),
        method="ds",
        topk=args.topk,
    )
    if args.topk > 1:
        results = service.query_topk(request)
    else:
        results = [service.query(request)]
    labels = aggregator.labels(dataset)
    for rank, result in enumerate(results, 1):
        x_min, y_min, x_max, y_max = result.region
        print(
            f"#{rank} region=({x_min:.6g}, {y_min:.6g}, "
            f"{x_max:.6g}, {y_max:.6g}) distance={result.score:.6g}"
        )
        if args.verbose:
            for label, value in zip(labels, result.representation):
                print(f"    {label} = {value:.6g}")
    return 0


def cmd_batch(args) -> int:
    service, key = _open_service(args)
    requests = _parse_batch_requests(service, key, args.queries, method=args.method)
    results = service.query_batch(requests)
    _print_batch_results(results)
    if args.verbose:
        print(f"session: {service.session(key)!r}")
    return 0


def cmd_update(args) -> int:
    """Apply append/delete updates to a warm session, then serve a batch.

    The facade owns the whole choreography: replay any existing ``--wal``
    first (consecutive runs continue one history), write-ahead-log the
    new batch, apply it as an in-place patch, and -- via
    :meth:`RegionService.persist` -- handle the ``--save-data`` /
    ``--save-index`` / checkpoint lifecycle.
    """
    from .service import UpdateRequest

    if not args.append and not args.delete:
        args.parser.error("update needs --append CSV and/or --delete indices")
    delete: tuple = ()
    if args.delete:
        try:
            delete = tuple(int(v) for v in args.delete.split(","))
        except ValueError:
            args.parser.error(f"bad --delete {args.delete!r}: expected I,J,K")
    service, key = _open_service(args, index=args.index, wal=args.wal)
    if args.wal:
        _recover_wal(service, key, args.wal)
    requests = _parse_batch_requests(service, key, args.queries, method=args.method)
    service.warm(requests)

    if args.append:
        # Pre-flight the CSV so a bad --append gets its targeted message
        # (the facade re-reads it; update CSVs are small).
        from .data.io import load_csv

        try:
            load_csv(args.append, service.dataset(key).schema)
        except (ValueError, KeyError, OSError) as exc:
            raise SystemExit(f"cannot load --append {args.append}: {exc}")
    request = UpdateRequest(
        dataset=key, append_csv=args.append or None, delete=delete
    )
    result = service.update(request)
    print(
        f"applied update: +{result.appended} -{result.deleted} objects "
        f"(epoch {result.epoch}, "
        f"{'patched ' + str(result.dirty_cells) + ' dirty cells' if result.index_patched else 'index rebuild'}, "
        f"kept {result.cell_entries_kept} cell entries"
        f"{', logged to WAL' if result.wal_logged else ''})"
    )
    results = service.query_batch(requests)
    _print_batch_results(results)
    report = service.persist(
        key, save_data=args.save_data, save_index=args.save_index
    )
    _print_persist(report, args)
    if args.verbose:
        print(f"session: {service.session(key)!r}")
    return 0


def cmd_replay(args) -> int:
    """Recover a crashed server: checkpointed CSV + bundle + WAL -> live session."""
    if not os.path.exists(args.wal):
        # update --wal treats a missing log as "first run, create it";
        # a *recovery* command must fail closed instead -- a typo'd
        # path would otherwise print "recovered" over stale state.
        raise SystemExit(
            f"cannot replay --wal {args.wal}: no such file (nothing to "
            "recover -- check the path; a fresh deployment needs no replay)"
        )
    service, key = _open_service(args, index=args.index, wal=args.wal)
    _recover_wal(service, key, args.wal)
    session = service.session(key)
    print(
        f"recovered session at epoch {session.epoch} "
        f"({session.dataset.n} objects)"
    )
    if args.queries:
        requests = _parse_batch_requests(
            service, key, args.queries, method=args.method
        )
        results = service.query_batch(requests)
        _print_batch_results(results)
    report = service.persist(
        key, save_data=args.save_data, save_index=args.save_index
    )
    _print_persist(report, args)
    if args.verbose:
        print(f"session: {service.session(key)!r}")
    return 0


def cmd_maxrs(args) -> int:
    service, key = _open_service(args)
    result = service.maxrs(key, args.width, args.height)
    x_min, y_min, x_max, y_max = result.region
    print(
        f"region=({x_min:.6g}, {y_min:.6g}, "
        f"{x_max:.6g}, {y_max:.6g}) score={result.score:.6g}"
    )
    return 0


def cmd_lint(args) -> int:
    """Run the invariant-aware lint engine (repro.analysis)."""
    from .analysis.__main__ import run

    argv = list(args.paths)
    if args.format != "text":
        argv = ["--format", args.format] + argv
    if args.output is not None:
        argv = ["--output", args.output] + argv
    if args.list_rules:
        argv = ["--list-rules"] + argv
    return run(argv)


def cmd_sanitize_report(args) -> int:
    """Exercise the serving stack under the runtime concurrency
    sanitizer and dump the observed lock-acquisition-order graph."""
    import tempfile

    from .analysis import sanitizer

    sanitizer.enable()
    # Imports below construct their locks per-instance, so everything
    # built from here on is tracked.
    from .core import (
        ASRSQuery,
        AverageAggregator,
        CompositeAggregator,
        DistributionAggregator,
        SelectAll,
    )
    from .data import generate_tweet_dataset
    from .dssearch import SearchSettings
    from .engine import SessionPool, UpdateBatch, WriteAheadLog

    dataset = generate_tweet_dataset(args.n, seed=args.seed)
    other = generate_tweet_dataset(max(args.n // 2, 50), seed=args.seed + 1)
    aggregator = CompositeAggregator(
        [
            DistributionAggregator("day_of_week", SelectAll()),
            AverageAggregator("length", SelectAll()),
        ]
    )
    query = ASRSQuery.from_vector(
        args.width,
        args.height,
        aggregator,
        np.zeros(aggregator.dim(dataset)),
    )
    settings = SearchSettings(ncol=8, nrow=8, max_depth=12)
    with tempfile.TemporaryDirectory() as tmp:
        wal = WriteAheadLog(os.path.join(tmp, "report.wal"))
        # The deepest lock chains the stack has: a WAL-logged update
        # (update gate -> log), then eviction under a one-session cap
        # (pool lock -> session caches) and pool info (pool -> WAL).
        pool = SessionPool(max_sessions=1, settings=settings)
        session = pool.session("a", dataset, wal=wal)
        session.solve(query)
        session.apply(UpdateBatch(delete=[0]))
        pool.info()
        pool.session("b", other)
        pool.info()

    graph = sanitizer.order_graph()
    if args.format == "json":
        if not args.stacks:
            for edge in graph["edges"]:
                edge.pop("first_seen", None)
        # repro: ignore[RPL004] -- diagnostic tool output, not the serving codec
        print(json.dumps(graph, indent=2))
        return 0
    print("declared lock order (outermost first, analysis/guards.py):")
    for rank, name in enumerate(graph["declared_order"]):
        print(f"  {rank}  {name}")
    print(f"observed acquisition edges ({len(graph['edges'])}):")
    for edge in graph["edges"]:
        print(f"  {edge['outer']} -> {edge['inner']}")
        if args.stacks:
            for line in edge["first_seen"].rstrip().splitlines():
                print(f"    {line}")
    return 0


def cmd_shard_plan(args) -> int:
    """Plan and split a dataset into per-shard CSV + bundle + WAL triples."""
    from .shard import ShardPlan, split_dataset

    dataset = _load(args)
    if args.nx < 1 or args.ny < 1:
        raise SystemExit("--nx and --ny must be >= 1")
    try:
        plan = ShardPlan.build(
            dataset, args.nx, args.ny, wmax=args.wmax, hmax=args.hmax
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    os.makedirs(args.out, exist_ok=True)
    specs = split_dataset(
        dataset,
        plan,
        args.out,
        categorical=tuple(args.categorical),
        numeric=tuple(args.numeric),
        granularity=_parse_granularity(args.granularity),
    )
    # The router's base CSV: `serve --shards DIR` reopens against it,
    # and a clean router shutdown rewrites it in step with the shards.
    save_csv(dataset, os.path.join(args.out, "base.csv"))
    print(
        f"planned {plan.nx}x{plan.ny} = {plan.n_shards} shard(s) over "
        f"n={dataset.n} (query limit {plan.wmax}x{plan.hmax}, halo "
        f"{2 * plan.wmax}x{2 * plan.hmax}); wrote {len(specs)} "
        f"CSV+bundle+WAL triple(s) + base.csv + plan.json to {args.out}"
    )
    return 0


def _serve_entries(args) -> list:
    """``[(key, csv path), ...]`` from repeated ``--data [NAME=]PATH``."""
    entries = []
    for item in args.data:
        name, sep, path = item.partition("=")
        if sep and name:
            entries.append((name, path))
        else:
            # An unnamed single dataset keeps the historical "cli" key
            # (requests may omit "dataset"); unnamed extras get their
            # file stem so multi-dataset bindings need no boilerplate.
            stem = os.path.splitext(os.path.basename(item))[0]
            entries.append((stem if len(args.data) > 1 else "cli", item))
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        args.parser.error(f"duplicate dataset names in --data: {names}")
    return entries


def _open_shard_router(args):
    """A ShardRouter over a `repro shard-plan` directory; ``(router, keys)``."""
    from .shard import PlanMismatchError, ShardOpenError, ShardRouter

    if args.follow or args.index or args.wal:
        args.parser.error(
            "--shards routes to per-shard bundles and WALs; "
            "--index/--wal/--follow do not apply"
        )
    if len(args.data) > 1:
        args.parser.error("--shards serves exactly one (sharded) dataset")
    name, base = ("default", os.path.join(args.shards, "base.csv"))
    if args.data:
        name, base = _serve_entries(args)[0]
        if name == "cli":
            name = "default"
    try:
        router = ShardRouter.open(args.shards, base_data=base, name=name)
    except (ValueError, OSError, PlanMismatchError, ShardOpenError) as exc:
        raise SystemExit(f"cannot open --shards {args.shards}: {exc}")
    return router, [name]


def cmd_serve(args) -> int:
    """Serve the facade over HTTP (writer, replica, or shard router)."""
    from .blas import pin_one_thread
    from .service import DatasetSpec, DurabilityPolicy, RegionService
    from .service.httpd import WalFollower, make_server

    # Before any dataset opens: requests and shard workers are this
    # process's parallelism, so one BLAS thread (DESIGN.md §11.7).
    blas = pin_one_thread()
    if args.follow and not args.wal:
        args.parser.error("--follow needs --wal (the writer's log to follow)")
    if not args.shards and not args.data:
        args.parser.error("serve needs --data (or --shards DIR)")
    followers = []
    if args.shards:
        service, keys = _open_shard_router(args)
        shards = service.stats()["shards"]
        print(
            f"routing dataset {keys[0]!r} across {len(shards)} shard "
            f"worker(s)",
            flush=True,
        )
    else:
        durability = DurabilityPolicy(
            checkpoint_every_records=args.checkpoint_every_records,
            checkpoint_every_bytes=args.checkpoint_every_bytes,
            compact_every_records=args.compact_every_records,
            checkpoint_on_close=not args.no_checkpoint_on_close,
            replay_on_open=True,
        )
        entries = _serve_entries(args)
        if len(entries) == 1:
            name, args.data = entries[0]
            service, key = _open_service(
                args,
                index=args.index,
                wal=args.wal,
                granularity=_parse_granularity(args.granularity),
                durability=durability,
                read_only=args.follow,
                key=name,
            )
            keys = [key]
            if args.follow:
                followers.append(
                    WalFollower(service, key, interval=args.poll_interval)
                )
        else:
            # Multi-dataset binding: one facade, one spec per NAME=PATH;
            # HTTP requests route by their body's "dataset" name.
            if args.index or args.wal or args.follow:
                args.parser.error(
                    "--index/--wal/--follow apply to a single --data; "
                    "bind multiple datasets without them"
                )
            service = RegionService()
            keys = []
            for name, path in entries:
                spec = DatasetSpec(
                    key=name,
                    data=path,
                    categorical=tuple(args.categorical),
                    numeric=tuple(args.numeric),
                    granularity=_parse_granularity(args.granularity),
                    durability=durability,
                )
                try:
                    service.open(
                        spec,
                        dataset=load_csv_infer(
                            path,
                            categorical=args.categorical,
                            numeric=args.numeric,
                        ),
                    )
                except (ValueError, OSError) as exc:
                    service.close()
                    raise SystemExit(f"cannot open --data {path!r}: {exc}")
                keys.append(name)
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        followers=followers,
        quiet=not args.verbose,
    )
    host, port = server.server_address[:2]
    described = ", ".join(
        f"{key} (n={service.session(key).dataset.n}, "
        f"epoch={service.session(key).epoch})"
        for key in keys
    )
    print(
        f"serving {described}"
        f"{' as read-only replica' if args.follow else ''} "
        f"on http://{host}:{port}",
        flush=True,
    )
    from . import faults

    if blas is None:
        print("blas: no known OpenBLAS mapped; thread count left as is", flush=True)
    else:
        print(
            f"blas: {blas['library']} pinned to {blas['threads']} thread(s)",
            flush=True,
        )
    armed = faults.active()
    if armed:
        print(f"failpoints armed: {armed}", flush=True)
    for follower in followers:
        follower.start()

    # Containerized deploys stop with SIGTERM: treat it like Ctrl-C so
    # the close-time durability policy (checkpoint_on_close) still runs
    # instead of the process dying with records only in the WAL.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        for follower in followers:
            follower.stop()
        server.server_close()
        for report in service.close():
            print(
                f"checkpointed WAL at epoch {report.epoch} "
                f"({report.wal_records_dropped} record(s) truncated)"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Attribute-aware similar region search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a sample dataset CSV")
    gen.add_argument("--kind", choices=("tweets", "poisyn", "city"), default="tweets")
    gen.add_argument("--n", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="CSV with x,y,attr columns")
        p.add_argument(
            "--categorical", action="append", default=[], metavar="COLUMN"
        )
        p.add_argument("--numeric", action="append", default=[], metavar="COLUMN")
        p.add_argument("--width", type=float, required=True)
        p.add_argument("--height", type=float, required=True)

    search = sub.add_parser("search", help="run an ASRS query")
    add_data_args(search)
    search.add_argument(
        "--term", action="append", required=True, help="fD:attr / fA:attr@sel=value"
    )
    search.add_argument("--target", required=True, help="comma-separated target vector")
    search.add_argument("--weights", help="comma-separated weight vector")
    search.add_argument("--topk", type=int, default=1)
    search.add_argument("--verbose", action="store_true")
    search.set_defaults(func=cmd_search)

    batch = sub.add_parser(
        "batch", help="run a batch of ASRS queries through one warm session"
    )
    batch.add_argument("--data", required=True, help="CSV with x,y,attr columns")
    batch.add_argument("--categorical", action="append", default=[], metavar="COLUMN")
    batch.add_argument("--numeric", action="append", default=[], metavar="COLUMN")
    batch.add_argument(
        "--queries", required=True, help="JSON file of query specs (see module doc)"
    )
    batch.add_argument("--method", choices=("gids", "ds"), default="gids")
    batch.add_argument("--verbose", action="store_true")
    batch.set_defaults(func=cmd_batch)

    update = sub.add_parser(
        "update",
        help="append/delete objects on a warm session, then run a batch",
    )
    update.add_argument("--data", required=True, help="CSV with x,y,attr columns")
    update.add_argument(
        "--categorical", action="append", default=[], metavar="COLUMN"
    )
    update.add_argument("--numeric", action="append", default=[], metavar="COLUMN")
    update.add_argument(
        "--queries", required=True, help="JSON batch spec to answer after the update"
    )
    update.add_argument(
        "--append", help="CSV of objects to append (same columns as --data)"
    )
    update.add_argument(
        "--delete", help="comma-separated row indices to delete (0-based)"
    )
    update.add_argument(
        "--index",
        help="bundle recording the epoch --data is at (a checkpoint's or "
        "--save-index's); --wal replays from that epoch (omitted: epoch 0)",
    )
    update.add_argument(
        "--wal",
        help="write-ahead log: replay existing records first, then durably "
        "log this update before applying (crash recovery via `replay`)",
    )
    update.add_argument(
        "--save-index",
        help="write a bundle recording the mutated session's epoch here "
        "(atomic tmp + rename; checkpoints --wal)",
    )
    update.add_argument(
        "--save-data",
        help="write the mutated dataset CSV here (a re-saved --save-index "
        "bundle only loads against this data, not the original --data)",
    )
    update.add_argument("--method", choices=("gids", "ds"), default="gids")
    update.add_argument("--verbose", action="store_true")
    update.set_defaults(func=cmd_update, parser=update)

    replay_cmd = sub.add_parser(
        "replay",
        help="recover after a crash: replay a WAL from a checkpoint's epoch",
    )
    replay_cmd.add_argument(
        "--data", required=True,
        help="CSV the bundle was saved over (checkpointed with it)",
    )
    replay_cmd.add_argument(
        "--categorical", action="append", default=[], metavar="COLUMN"
    )
    replay_cmd.add_argument("--numeric", action="append", default=[], metavar="COLUMN")
    replay_cmd.add_argument(
        "--wal", required=True, help="write-ahead log to replay to its head"
    )
    replay_cmd.add_argument(
        "--index",
        help="bundle recording the epoch --data is at; replay starts there "
        "(omitted: --data counts as epoch 0)",
    )
    replay_cmd.add_argument(
        "--queries", help="JSON batch spec to answer after recovery"
    )
    replay_cmd.add_argument(
        "--save-index",
        help="write a bundle recording the recovered epoch here "
        "(atomic tmp + rename; checkpoints --wal)",
    )
    replay_cmd.add_argument(
        "--save-data", help="write the recovered dataset CSV here"
    )
    replay_cmd.add_argument("--method", choices=("gids", "ds"), default="gids")
    replay_cmd.add_argument("--verbose", action="store_true")
    replay_cmd.set_defaults(func=cmd_replay, parser=replay_cmd)

    maxrs = sub.add_parser("maxrs", help="find the densest region")
    add_data_args(maxrs)
    maxrs.set_defaults(func=cmd_maxrs)

    lint = sub.add_parser(
        "lint",
        help="check repo invariants: lock discipline, atomic writes, "
        "failpoint coverage, codec and exception hygiene",
        description=(
            "AST-based lint over the repro source tree (DESIGN.md §13). "
            "Rules: RPL001 guarded attributes only touched under their "
            "declared lock; RPL002 no raw file writes outside "
            "core/atomicio.py and the WAL append path; RPL003 every "
            "failpoint registered and covered by the chaos matrix; "
            "RPL004 json.dumps only in service/types.py; RPL005 no "
            "bare/swallowed broad excepts in engine/, service/, core/. "
            "Suppress per line with '# repro: ignore[RPL00N] -- reason' "
            "(the reason is mandatory). Exits 1 when findings remain."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format",
    )
    lint.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint.set_defaults(func=cmd_lint)

    sanitize = sub.add_parser(
        "sanitize-report",
        help="run a micro-workload under the runtime concurrency "
        "sanitizer and dump the observed lock-order graph",
        description=(
            "Arms the runtime concurrency sanitizer (DESIGN.md §14), "
            "drives a small WAL-logged query/update/eviction workload "
            "through the serving stack, and prints the lock-acquisition-"
            "order graph it observed next to the declared ranking. Any "
            "inversion raises LockOrderViolation instead of reporting."
        ),
    )
    sanitize.add_argument(
        "--n", type=int, default=400, help="synthetic dataset size"
    )
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--width", type=float, default=5.0, help="query region width"
    )
    sanitize.add_argument(
        "--height", type=float, default=3.0, help="query region height"
    )
    sanitize.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    sanitize.add_argument(
        "--stacks",
        action="store_true",
        help="include the stack that first established each edge",
    )
    sanitize.set_defaults(func=cmd_sanitize_report)

    shard_plan = sub.add_parser(
        "shard-plan",
        help="split a dataset into per-shard CSV+bundle+WAL triples "
        "for `serve --shards`",
    )
    shard_plan.add_argument(
        "--data", required=True, help="CSV with x,y,attr columns"
    )
    shard_plan.add_argument(
        "--categorical", action="append", default=[], metavar="COLUMN"
    )
    shard_plan.add_argument(
        "--numeric", action="append", default=[], metavar="COLUMN"
    )
    shard_plan.add_argument(
        "--out", required=True, help="shard directory (created if absent)"
    )
    shard_plan.add_argument(
        "--nx", type=int, required=True, help="tile columns"
    )
    shard_plan.add_argument("--ny", type=int, required=True, help="tile rows")
    shard_plan.add_argument(
        "--wmax",
        type=float,
        required=True,
        help="largest query width the shards will serve",
    )
    shard_plan.add_argument(
        "--hmax",
        type=float,
        required=True,
        help="largest query height the shards will serve",
    )
    shard_plan.add_argument(
        "--granularity",
        default="auto",
        help="per-shard grid granularity 'auto' (default) or 'SX,SY'",
    )
    shard_plan.set_defaults(func=cmd_shard_plan, parser=shard_plan)

    serve = sub.add_parser(
        "serve",
        help="serve queries/updates over HTTP via the RegionService facade",
    )
    serve.add_argument(
        "--data",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="CSV with x,y,attr columns; repeat NAME=PATH to serve "
        "several datasets (requests route by their 'dataset' name)",
    )
    serve.add_argument(
        "--categorical", action="append", default=[], metavar="COLUMN"
    )
    serve.add_argument("--numeric", action="append", default=[], metavar="COLUMN")
    serve.add_argument(
        "--shards",
        metavar="DIR",
        help="serve a `repro shard-plan` directory through the "
        "multi-process scatter-gather router",
    )
    serve.add_argument(
        "--index",
        help="bundle recording the epoch --data is at: read on start so "
        "--wal replays from there, rewritten by every checkpoint",
    )
    serve.add_argument(
        "--wal", help="write-ahead log for durable updates (and --follow)"
    )
    serve.add_argument(
        "--granularity",
        default="auto",
        help="grid granularity 'auto' (default) or 'SX,SY'",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8237, help="0 picks a free port"
    )
    serve.add_argument(
        "--checkpoint-every-records",
        type=int,
        default=None,
        metavar="K",
        help="checkpoint once the log holds K records: rewrite the CSV, "
        "then the --index epoch record, then truncate the WAL",
    )
    serve.add_argument(
        "--checkpoint-every-bytes",
        type=int,
        default=None,
        metavar="B",
        help="checkpoint once the log holds B bytes",
    )
    serve.add_argument(
        "--compact-every-records",
        type=int,
        default=None,
        metavar="N",
        help="merge the log's records into one batch once it holds N "
        "(when no checkpoint trigger fired)",
    )
    serve.add_argument(
        "--no-checkpoint-on-close",
        action="store_true",
        help="skip the shutdown checkpoint",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="read-only replica: poll --wal and replay the writer's records",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="--follow poll period in seconds",
    )
    serve.add_argument("--verbose", action="store_true")
    serve.set_defaults(func=cmd_serve, parser=serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
