"""The four serve workloads: inputs, seeded request lists and oracles.

Each workload is a function of ``(seed, directory, counts, n)`` that
writes the server's inputs (a CSV, or a ``repro shard-plan`` directory) and
returns a :class:`Prepared`: the ``repro serve`` arguments, the set-up
query, the ordered request lists, and the oracle that re-solves a
sample of the served answers in this process.

The dataset itself is generated from the fixed :data:`DATA_SEED`;
``--seed`` draws everything sent over HTTP (target perturbations, the
update stream) and the oracle's sample.  Query cost depends strongly on
the dataset -- the warm F1 median at n=40 000 ranged from 19 ms to
96 ms over generator seeds 1-10 -- so a per-run dataset would swamp the
changes the benchmark has to detect, while the request stream varies
per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from harness import child_env

from repro.core.aggregators import CompositeAggregator
from repro.core.objects import SpatialDataset
from repro.core.query import ASRSQuery
from repro.data import generate_poisyn_dataset, generate_tweet_dataset, poisyn_query
from repro.data.io import load_csv_infer, save_csv
from repro.data.tweets import regional_max_estimate
from repro.engine import QuerySession
from repro.experiments.datasets import paper_query_size
from repro.service import parse_term

#: Generator seed of every served dataset (the experiments' SEED).
DATA_SEED = 7
#: kind -> (categorical columns, numeric columns) of its CSV.
COLUMNS = {
    "tweets": (["day_of_week"], ["length"]),
    "poisyn": ([], ["rating", "visits"]),
}
F1_TERMS = ["fD:day_of_week"]
F2_TERMS = ["fS:visits", "fA:rating"]
#: Region size of the F1 workloads, in the paper's unit q = extent/1000.
F1_SIZE = 10
#: read_shapes region sizes 4q, 6q, ..., 34q.
SHAPE_SIZES = tuple(range(4, 35, 2))


@dataclass
class Prepared:
    """One workload, ready to serve.

    ``argv`` follows ``repro serve``; its paths are relative to a run
    directory holding a fresh copy of ``inputs`` (checkpoints rewrite
    the served CSV, so every server start gets its own copy).
    ``streams`` maps an op (``query``/``update``) to ``(path, request
    documents, clients)``.  ``check(answers, health, applied)`` takes
    sampled ``(request, response)`` pairs of successful queries, the
    final ``/healthz`` document and the acknowledged update documents
    in order, and returns a list of mismatch descriptions.
    """

    inputs: Path
    argv: list
    warm: dict
    streams: dict
    check: Callable
    sample: int = 16


def encode(docs: list) -> list:
    """Request documents as the HTTP bodies the clients send."""
    return [json.dumps(d).encode("utf-8") for d in docs]


def _serve_csv(kind: str, n: int, directory: Path) -> tuple:
    """Write the workload's CSV; return it loaded the way the server will,
    plus the ``repro serve`` column flags."""
    generate = generate_tweet_dataset if kind == "tweets" else generate_poisyn_dataset
    categorical, numeric = COLUMNS[kind]
    directory.mkdir(parents=True, exist_ok=True)
    csv = directory / "data.csv"
    save_csv(generate(n, seed=DATA_SEED), csv)
    flags = [f for c in categorical for f in ("--categorical", c)]
    flags += [f for c in numeric for f in ("--numeric", c)]
    return load_csv_infer(csv, categorical=categorical, numeric=numeric), flags


def f1_query(dataset: SpatialDataset, size: int) -> dict:
    """The paper's F1 weekend query, built by domain *name*.

    ``load_csv_infer`` sorts the categorical domain, so Saturday and
    Sunday are found by looking their names up in the served schema,
    never by their position in the generator's Mon..Sun order.
    """
    width, height = paper_query_size(dataset, size)
    domain = dataset.schema["day_of_week"].domain
    codes = dataset.column("day_of_week")
    target = np.zeros(len(domain))
    weights = np.full(len(domain), 1 / 5)
    for day in ("Sat", "Sun"):
        i = domain.index(day)
        target[i] = regional_max_estimate(dataset, codes == i, width, height)
        weights[i] = 1 / 2
    return {
        "terms": F1_TERMS,
        "width": width,
        "height": height,
        "target": target.tolist(),
        "weights": weights.tolist(),
    }


def f2_query(dataset: SpatialDataset, size: int) -> dict:
    """The paper's F2 query (``poisyn_query``) as a request document."""
    width, height = paper_query_size(dataset, size)
    q = poisyn_query(dataset, width, height)
    v_max = float(q.query_rep[0])
    return {
        "terms": F2_TERMS,
        "width": width,
        "height": height,
        "target": [v_max, 10.0],
        "weights": [1.0 / v_max, 1.0 / 10.0],
    }


def perturbed(base: dict, rng: np.random.Generator) -> dict:
    """``base`` with every target entry scaled by U(0.9, 1.1)."""
    scale = rng.uniform(0.9, 1.1, len(base["target"]))
    return dict(base, target=(np.asarray(base["target"]) * scale).tolist())


def _asrs_query(doc: dict, aggregators: dict) -> ASRSQuery:
    """The engine query a request document describes (one aggregator
    object per term tuple, as the server interns them)."""
    terms = tuple(doc["terms"])
    if terms not in aggregators:
        aggregators[terms] = CompositeAggregator([parse_term(t) for t in terms])
    return ASRSQuery.from_vector(
        doc["width"],
        doc["height"],
        aggregators[terms],
        np.asarray(doc["target"], dtype=np.float64),
        weights=np.asarray(doc["weights"], dtype=np.float64),
    )


def _mismatch(doc: dict, answer: dict, expected) -> str | None:
    """Bitwise comparison of one served answer with an engine result."""
    region = expected.region
    want = [region.x_min, region.y_min, region.x_max, region.y_max]
    got = [float(v) for v in answer["region"]]
    want_score, got_score = float(expected.distance), float(answer["score"])
    if [v.hex() for v in got] == [v.hex() for v in want] and (
        got_score.hex() == want_score.hex()
    ):
        return None
    return (
        f"target {doc['target']}: served region {got} score {got_score!r}, "
        f"expected {want} score {want_score!r}"
    )


def _check_session(dataset: SpatialDataset, canonical: bool = False) -> Callable:
    """Oracle: re-solve each sampled answer on one cold session."""

    def check(answers: list, health: dict, updates: list) -> list:
        session = QuerySession(dataset, granularity="auto")
        aggregators: dict = {}
        problems = []
        for doc, answer in answers:
            q = _asrs_query(doc, aggregators)
            expected = session.solve_canonical(q) if canonical else session.solve(q)
            problem = _mismatch(doc, answer, expected)
            if problem:
                problems.append(problem)
        return problems

    return check


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def read_f1(
    seed: int, directory: Path, counts: dict, n: int = 40_000
) -> Prepared:
    """Steady-state search: one F1 shape, warm caches, two clients."""
    dataset, columns = _serve_csv("tweets", n, directory)
    rng = np.random.default_rng(seed)
    base = f1_query(dataset, F1_SIZE)
    queries = [perturbed(base, rng) for _ in range(counts["query"])]
    return Prepared(
        inputs=directory,
        argv=["--data", "data.csv", *columns],
        warm=base,
        streams={"query": ("/query", queries, 2)},
        check=_check_session(dataset),
    )


def read_shapes(
    seed: int, directory: Path, counts: dict, n: int = 40_000
) -> Prepared:
    """F2 over 16 region sizes, round-robin: every new shape builds caches."""
    dataset, columns = _serve_csv("poisyn", n, directory)
    rng = np.random.default_rng(seed)
    bases = [f2_query(dataset, k) for k in SHAPE_SIZES]
    queries = [
        perturbed(bases[i % len(bases)], rng) for i in range(counts["query"])
    ]
    return Prepared(
        inputs=directory,
        argv=["--data", "data.csv", *columns],
        warm=bases[0],
        streams={"query": ("/query", queries, 2)},
        check=_check_session(dataset),
    )


def update_stream(
    dataset: SpatialDataset, rng: np.random.Generator, count: int, rows: int = 10
) -> list:
    """``count`` updates of ``rows`` deletes plus ``rows`` appends each.

    n stays constant.  Deletes never take a row holding a coordinate
    extreme and appends land inside the dataset's bounding box, so no
    update moves the bounds (which would turn the incremental index
    patch into a cold rebuild and make update cost bimodal).
    """
    bounds = dataset.bounds()
    domain = dataset.schema["day_of_week"].domain
    reach_x, reach_y = paper_query_size(dataset, 1)
    updates = []
    for _ in range(count):
        xs, ys = dataset.xs, dataset.ys
        extreme = (
            (xs == xs.min()) | (xs == xs.max()) | (ys == ys.min()) | (ys == ys.max())
        )
        delete = np.sort(rng.choice(np.flatnonzero(~extreme), rows, replace=False))
        src = rng.integers(0, dataset.n, rows)
        new_x = np.clip(
            xs[src] + rng.uniform(-1, 1, rows) * reach_x, bounds.x_min, bounds.x_max
        )
        new_y = np.clip(
            ys[src] + rng.uniform(-1, 1, rows) * reach_y, bounds.y_min, bounds.y_max
        )
        days = rng.integers(0, len(domain), rows)
        lengths = rng.integers(1, 141, rows)
        records = [
            [float(x), float(y), {"day_of_week": domain[d], "length": float(ln)}]
            for x, y, d, ln in zip(new_x, new_y, days, lengths)
        ]
        updates.append({"append": records, "delete": delete.tolist()})
        dataset = apply_to(dataset, updates[-1])
    return updates


def apply_to(dataset: SpatialDataset, update: dict) -> SpatialDataset:
    """The dataset after one update: deletes first, appends at the end."""
    return dataset.delete(update["delete"]).append_records(
        [tuple(r) for r in update["append"]]
    )


def rw_mix(
    seed: int, directory: Path, counts: dict, n: int = 40_000
) -> Prepared:
    """One writer (durable updates, checkpoints) against one reader."""
    dataset, columns = _serve_csv("tweets", n, directory)
    rng = np.random.default_rng(seed)
    base = f1_query(dataset, F1_SIZE)
    queries = [perturbed(base, rng) for _ in range(counts["query"])]
    updates = update_stream(dataset, rng, counts["update"])

    def check(answers: list, health: dict, applied: list) -> list:
        # applied: the update documents the server acknowledged, in the
        # order the single writer sent them; epoch e = after e of them.
        problems = []
        final = health["datasets"]["cli"]
        if (final["n"], final["epoch"]) != (dataset.n, len(applied)):
            problems.append(
                f"final /healthz n={final['n']} epoch={final['epoch']}, "
                f"simulation n={dataset.n} epoch={len(applied)}"
            )
        by_epoch: dict = {}
        for doc, answer in answers:
            by_epoch.setdefault(int(answer["epoch"]), []).append((doc, answer))
        current, epoch = dataset, 0
        for target_epoch in sorted(by_epoch):
            if target_epoch > len(applied):
                problems.append(f"answer at epoch {target_epoch} > {len(applied)}")
                continue
            while epoch < target_epoch:
                current = apply_to(current, applied[epoch])
                epoch += 1
            problems += _check_session(current)(by_epoch[target_epoch], health, [])
        return problems

    return Prepared(
        inputs=directory,
        argv=[
            "--data", "data.csv", *columns,
            "--index", "data.idx", "--wal", "data.wal",
            "--checkpoint-every-records", "8",
        ],
        warm=base,
        streams={
            "query": ("/query", queries, 1),
            "update": ("/update", updates, 1),
        },
        check=check,
    )


def shard_read(
    seed: int, directory: Path, counts: dict, n: int = 20_000
) -> Prepared:
    """F1 through ``serve --shards``: router, worker pipes, canonical passes."""
    dataset, columns = _serve_csv("tweets", n, directory)
    rng = np.random.default_rng(seed)
    base = f1_query(dataset, F1_SIZE)
    queries = [perturbed(base, rng) for _ in range(counts["query"])]
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "shard-plan",
            "--data", "data.csv", *columns,
            "--nx", "2", "--ny", "1",
            "--wmax", repr(base["width"]), "--hmax", repr(base["height"]),
            "--out", "shards",
        ],
        cwd=directory,
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    (directory / "data.csv").unlink()
    return Prepared(
        inputs=directory,
        argv=["--shards", "shards"],
        warm=base,
        streams={"query": ("/query", queries, 2)},
        check=_check_session(dataset, canonical=True),
        sample=8,
    )


#: name -> (build function, requests per second per stream at the reference
#: speed, why the workload exists).  A run of ``--seconds S`` sends
#: ``round(rate * S)`` requests on each stream: the list is fixed by the
#: seed and S, so every run does the same work, and at the speed of a
#: 2-core 2.1 GHz Xeon VM the measured phase lasts about S seconds.
WORKLOADS = {
    "read_f1": (
        read_f1,
        {"query": 20.0},
        "steady-state GI-DS search on one warm F1 shape: a search-kernel "
        "change shows here, a cache or warm-up change must not",
    ),
    "read_shapes": (
        read_shapes,
        {"query": 5.0},
        "F2 over 16 region sizes: each new shape pays the session cache "
        "builds, so caches, pool accounting and memory do real work",
    ),
    "rw_mix": (
        rw_mix,
        {"query": 5.0, "update": 5.0},
        "durable updates with WAL appends and inline checkpoints contend "
        "with reads on the update gate",
    ),
    "shard_read": (
        shard_read,
        {"query": 10.0},
        "the only path through serve --shards: router, worker pipes and "
        "canonical passes 1 and 2",
    ),
}
