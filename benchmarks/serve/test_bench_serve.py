"""Workload-shape tests of the serve benchmark: ``pytest benchmarks/serve``.

These sit outside the tier-1 ``testpaths``: the last two start real
servers and take about a minute together.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

from repro.data.io import load_csv_infer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("name", ["read_f1", "rw_mix", "shard_read"])
def test_f1_mass_sits_on_weekend_domain_entries(name, tmp_path):
    build, rates, _ = workloads.WORKLOADS[name]
    prepared = build(7, tmp_path / "in", dict.fromkeys(rates, 16), n=2000)
    csv = tmp_path / "in" / "data.csv"
    if not csv.exists():
        csv = tmp_path / "in" / "shards" / "base.csv"
    served = load_csv_infer(csv, categorical=["day_of_week"], numeric=["length"])
    domain = served.schema["day_of_week"].domain
    weekend = {domain.index("Sat"), domain.index("Sun")}
    # The served domain is sorted, so Sat/Sun are not at Mon..Sun's 5, 6.
    assert weekend != {5, 6}
    for doc in [prepared.warm, *prepared.streams["query"][1]]:
        assert {i for i, t in enumerate(doc["target"]) if t > 0} == weekend
        assert {i for i, w in enumerate(doc["weights"]) if w == 0.5} == weekend


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_request_lists_follow_the_seed(name, tmp_path):
    build, rates, _ = workloads.WORKLOADS[name]

    def bodies(seed: int, sub: str) -> dict:
        prepared = build(seed, tmp_path / sub, dict.fromkeys(rates, 16), n=2000)
        return {
            op: workloads.encode(docs)
            for op, (_, docs, _) in prepared.streams.items()
        }

    first, again, other = bodies(3, "a"), bodies(3, "b"), bodies(4, "c")
    assert first == again
    for op in first:
        assert first[op] != other[op]


def test_smoke_prints_every_metric_without_failures(tmp_path):
    started = time.monotonic()
    proc = _bench("--smoke", "--seed", "5", "--out", str(tmp_path / "r.json"))
    assert time.monotonic() - started < 60
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    report = json.loads((tmp_path / "r.json").read_text())
    runs = {run["workload"]: run for run in report["runs"]}
    assert set(runs) == {w["name"] for w in CONTRACT["workloads"]}
    for name, run in runs.items():
        assert run["metrics"]["failed_frac"]["value"] == 0
        for metric in CONTRACT["end_to_end"]:
            printed = line["metrics"][f"{name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0
            assert f"  {metric['name']} " in proc.stdout


def test_smoke_trace_reaches_every_layer(tmp_path):
    proc = _bench(
        "--smoke", "--trace", "--seed", "5", "--out", str(tmp_path / "r.json")
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((tmp_path / "r.json").read_text())
    for run in report["runs"]:
        for metric in CONTRACT["per_layer"]:
            key = f"{run['workload']}.{metric['name']}"
            assert line["metrics"][key]["unit"] == metric["unit"]
    spec = importlib.util.spec_from_file_location(
        "bootstrap", HERE / "trace" / "sitecustomize.py"
    )
    bootstrap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bootstrap)
    wrapped = {p[2] for patches in bootstrap._PATCHES.values() for p in patches}
    seen = set().union(*(run["layers_seen"] for run in report["runs"]))
    # canonical.* and worker.handle are recorded only inside shard workers.
    assert wrapped <= seen, sorted(wrapped - seen)
