"""The serving processes' one-thread BLAS pin (:mod:`repro.blas`).

Each case runs in a subprocess so this test process keeps its own
pool.  ``OPENBLAS_NUM_THREADS=2`` (unless a case sets another count)
gives the subprocess a pool larger than one wherever the host has two
cores, so "unchanged" and "pinned" read differently there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blas import blas_info

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_PY = SRC / "repro" / "blas.py"

#: Loads repro/blas.py by path: it is stdlib-only, so a subprocess can
#: use it without importing numpy or the repro package.
LOAD_BLAS = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("blas_probe", {str(BLAS_PY)!r})
blas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas)
"""

needs_openblas = pytest.mark.skipif(
    blas_info() is None, reason="numpy maps no known OpenBLAS here"
)


def _run(code: str, cwd: Path | None = None, threads: int = 2) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_BLAS + code],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_openblas
def test_pin_reads_one_thread_and_repeats_as_a_no_op():
    before, first, second, after = _run(
        "import numpy\n"
        "before = blas.blas_info()\n"
        "first = blas.pin_one_thread()\n"
        "second = blas.pin_one_thread()\n"
        "print(json.dumps([before, first, second, blas.blas_info()]))\n"
    )
    assert before["threads"] >= 1
    assert first == second == after
    assert first == {"library": before["library"], "threads": 1}
    assert "openblas" in first["library"]


def test_no_library_mapped_returns_none():
    loaded, pinned, info = _run(
        "pinned = blas.pin_one_thread()\n"
        "print(json.dumps(['numpy' in sys.modules, pinned, blas.blas_info()]))\n"
    )
    assert loaded is False
    assert pinned is None and info is None


@needs_openblas
def test_a_miss_is_not_kept():
    """Asked before numpy maps the library, the helper finds nothing;
    asked again after, it finds it."""
    before, after = _run(
        "early = blas.blas_info()\n"
        "import numpy\n"
        "print(json.dumps([early, blas.blas_info()]))\n"
    )
    assert before is None
    assert after is not None and "openblas" in after["library"]


@needs_openblas
def test_library_callers_keep_their_setting(tmp_path):
    """Importing repro, solving in a session and ``repro batch`` never
    touch the pool: only the serving entry points pin it."""
    counts = _run(
        "import numpy\n"
        "counts = [blas.blas_info()['threads']]\n"
        "import repro\n"
        "counts.append(blas.blas_info()['threads'])\n"
        "from repro.cli import main\n"
        "from repro.core import ASRSQuery, CompositeAggregator\n"
        "from repro.data import generate_tweet_dataset\n"
        "from repro.data.io import save_csv\n"
        "from repro.service import parse_term\n"
        "ds = generate_tweet_dataset(800, seed=3)\n"
        "save_csv(ds, 'tw.csv')\n"
        "agg = CompositeAggregator([parse_term('fD:day_of_week')])\n"
        "target = [0, 0, 0, 0, 0, 20, 20]\n"
        "q = ASRSQuery.from_vector(0.5, 0.25, agg, target)\n"
        "repro.QuerySession(ds).solve(q)\n"
        "counts.append(blas.blas_info()['threads'])\n"
        "json.dump({'terms': ['fD:day_of_week'], 'width': 0.5, 'height': 0.25,\n"
        "           'queries': [{'target': target}]}, open('q.json', 'w'))\n"
        "main(['batch', '--data', 'tw.csv', '--categorical', 'day_of_week',\n"
        "      '--numeric', 'length', '--queries', 'q.json'])\n"
        "counts.append(blas.blas_info()['threads'])\n"
        "print(json.dumps(counts))\n",
        cwd=tmp_path,
    )
    assert counts == [counts[0]] * 4


#: Solves warm POISyn 20k F2 queries over the 16 ``read_shapes`` region
#: sizes (4q, 6q, ..., 34q), two perturbed targets each, and prints the
#: pool size with every answer's region and distance bits.
F2_ANSWERS = """
import dataclasses
import numpy
from repro.data import generate_poisyn_dataset, poisyn_query
from repro.engine import QuerySession
from repro.experiments.datasets import paper_query_size
ds = generate_poisyn_dataset(20_000, seed=11)
session = QuerySession(ds)
rng = numpy.random.default_rng(12)
answers = []
for k in range(4, 35, 2):
    base = poisyn_query(ds, *paper_query_size(ds, k))
    for _ in range(2):
        scale = rng.uniform(0.9, 1.1, len(base.query_rep))
        query = dataclasses.replace(base, query_rep=base.query_rep * scale)
        r = session.solve(query)
        box = (r.region.x_min, r.region.y_min, r.region.x_max, r.region.y_max)
        answers.append([float(v).hex() for v in (*box, r.distance)])
print(json.dumps([blas.blas_info()["threads"], answers]))
"""


@needs_openblas
def test_f2_answers_do_not_depend_on_the_thread_count():
    """Served F2 answers are computed at one BLAS thread, the in-process
    oracle and library callers at the process's default.  A multi-
    threaded gemm sums some ``points_distances`` products in another
    order (72 of 1,391 products on this data differ in their low
    bits), so this pins that the answers themselves still agree bit
    for bit between one and two threads."""
    one_threads, one = _run(F2_ANSWERS, threads=1)
    two_threads, two = _run(F2_ANSWERS, threads=2)
    if two_threads < 2:
        pytest.skip("OpenBLAS runs one thread on this host")
    assert one_threads == 1
    assert len(one) == 32
    assert one == two
