"""End-to-end benchmark of ``repro serve``: four HTTP workloads.

Usage (from the repository root)::

    python3 benchmarks/serve/bench.py --seed 7
    python3 benchmarks/serve/bench.py --workload read_f1 --seed 3 --seconds 15
    python3 benchmarks/serve/bench.py --seed 7 --trace       # per-layer run
    python3 benchmarks/serve/bench.py --seed 7 --repeat 5    # spread
    python3 benchmarks/serve/bench.py --smoke                # ~1 minute

Each workload starts real ``repro serve`` subprocesses over inputs
generated from the seed, sends them a fixed, seeded request list sized
by ``--seconds`` from closed-loop keep-alive HTTP clients in this
process, re-solves a seeded sample of the answers in-process, and
prints every metric by name and unit.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with
``--trace`` the per-layer ones.  Several workloads (or ``--repeat``)
key the metrics ``<workload>.<metric>``.  The command exits non-zero
when any request failed or any answer differs from the oracle.  See
README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers

WORK = Path(__file__).resolve().parent / ".work"

#: Set-up is the median of this many cold starts; the last one serves.
SETUP_STARTS = 5
SMOKE_N = 2_000
SMOKE_REQUESTS = 16
#: The measured phase stops sending after this many times --seconds.
CAP_FACTOR = 3

#: (name, unit) of the end-to-end metrics.
E2E = [
    ("setup_s", "s"),
    ("query_qps", "req/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("update_qps", "req/s"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("failed_frac", "ratio"),
    ("server_peak_rss_mb", "MB"),
]
#: The end-to-end metrics of the result line: those every workload has
#: and none reads 0 (updates run only in rw_mix; failures are counted by
#: the line's own ``failed``).
RESULT_E2E = ("setup_s", "query_qps", "query_p50_ms", "query_p90_ms",
              "server_peak_rss_mb")


def _percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _latencies_ms(records: list) -> list:
    """Client-observed latency of every successful request."""
    return [
        (done - sent) * 1000.0
        for _, sent, done, status, _ in records
        if status == 200
    ]


def serve_phase(prepared, work: Path, label: str, *, starts: int,
                cap_seconds: float, trace_out: Path | None = None) -> dict:
    """Cold-start the server ``starts`` times; measure traffic on the last.

    Set-up runs from spawning ``repro serve`` to the first ``/query``
    answered 200 (the untimed warm query of the measured phase).  Every
    start serves a fresh copy of the inputs.
    """
    import workloads

    env = harness.child_env(trace_out)
    if trace_out is not None:
        trace_out.mkdir()
    warm = workloads.encode([prepared.warm])[0]
    setups = []
    for k in range(starts):
        rundir = work / f"{label}-{k}"
        shutil.copytree(prepared.inputs, rundir)
        server = harness.ServeProcess(
            prepared.argv, cwd=rundir, env=env, log=work / "serve.log"
        )
        try:
            conn = server.connect()
            status, body = harness.post(conn, "/query", warm)
            conn.close()
            if status != 200:
                raise harness.ServeError(f"set-up query answered {status}: {body!r}")
            setups.append(time.perf_counter() - server.started)
            if k + 1 < starts:
                server.stop()
                continue
            streams = [
                harness.Stream(op, path, workloads.encode(docs), clients)
                for op, (path, docs, clients) in prepared.streams.items()
            ]
            cpu = server.cpu_seconds()
            start = time.perf_counter()
            wall = harness.closed_loop(server, streams, cap_seconds=cap_seconds)
            cpu = server.cpu_seconds() - cpu
            _, health = server.get("/healthz")
            rss = server.peak_rss_mb()
            server.stop()
        except BaseException:
            server.kill()
            raise
    return {"setups": setups, "start": start, "wall": wall, "cpu": cpu,
            "streams": streams, "health": health, "rss": rss}


def check_answers(prepared, phase: dict, seed: int) -> tuple:
    """Re-solve a seeded sample of served answers; ``(checked, problems)``."""
    ok = {}
    for stream in phase["streams"]:
        docs = prepared.streams[stream.op][1]
        ok[stream.op] = [
            (docs[i], data)
            for i, _, _, status, data in sorted(stream.records)
            if status == 200
        ]
    queries = ok["query"]
    picks = sorted(random.Random(seed).sample(
        range(len(queries)), min(prepared.sample, len(queries))
    ))
    answers = [(queries[j][0], json.loads(queries[j][1])) for j in picks]
    applied = [doc for doc, _ in ok.get("update", [])]
    return len(answers), prepared.check(answers, phase["health"], applied)


def e2e_metrics(phase: dict) -> dict:
    """The end-to-end metrics of one measured phase (``failed_frac`` aside)."""
    out = {"setup_s": statistics.median(phase["setups"])}
    for stream in phase["streams"]:
        latencies = _latencies_ms(stream.records)
        out[f"{stream.op}_qps"] = len(latencies) / phase["wall"]
        out[f"{stream.op}_p50_ms"] = _percentile(latencies, 50)
        out[f"{stream.op}_p90_ms"] = _percentile(latencies, 90)
    out["server_peak_rss_mb"] = phase["rss"]
    return out


def run_workload(name: str, seed: int, *, seconds: float, smoke: bool,
                 trace: bool) -> dict:
    """One workload, end to end; returns its record (metrics, ops, oracle)."""
    import workloads

    build, rates, _ = workloads.WORKLOADS[name]
    counts = {
        op: SMOKE_REQUESTS if smoke else max(1, round(rate * seconds))
        for op, rate in rates.items()
    }
    cap = CAP_FACTOR * seconds
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        prepared = build(
            seed, work / "inputs", counts, **({"n": SMOKE_N} if smoke else {})
        )
        if trace:
            plain = serve_phase(prepared, work, "plain", starts=1, cap_seconds=cap)
            phase = serve_phase(prepared, work, "traced", starts=1, cap_seconds=cap,
                                trace_out=work / "spans")
        else:
            phase = serve_phase(prepared, work, "run", starts=SETUP_STARTS,
                                cap_seconds=cap)
        checked, problems = check_answers(prepared, phase, seed)
        ops = {}
        for stream in phase["streams"]:
            good = sum(1 for r in stream.records if r[3] == 200)
            ops[stream.op] = {"attempted": len(stream.records),
                              "succeeded": good,
                              "failed": len(stream.records) - good}
        attempted = sum(op["attempted"] for op in ops.values())
        failed = sum(op["failed"] for op in ops.values()) + len(problems)
        record = {
            "workload": name,
            "seed": seed,
            "ops": ops,
            "attempted": attempted,
            "failed": failed,
            "oracle": {"checked": checked, "mismatches": problems},
        }
        if trace:
            spans = layers.load_spans(work / "spans")
            metrics = layers.per_layer(spans)
            latencies = [
                ms for s in phase["streams"] for ms in _latencies_ms(s.records)
            ]
            metrics.update(layers.measured_phase(
                spans, phase["start"], latencies, phase["cpu"], attempted
            ))
            plain_qps = e2e_metrics(plain)["query_qps"]
            traced_qps = e2e_metrics(phase)["query_qps"]
            metrics["trace_overhead_pct"] = 100.0 * (1.0 - traced_qps / plain_qps)
            record["metrics"] = {
                m: {"value": metrics[m], "unit": u} for m, u in layers.METRICS
            }
            record["layers_seen"] = sorted({s.name for s in spans})
        else:
            metrics = e2e_metrics(phase)
            metrics["failed_frac"] = failed / attempted
            record["metrics"] = {
                m: {"value": metrics[m], "unit": u} for m, u in E2E if m in metrics
            }
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def environment(args) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
    }


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']})")
    for name, metric in record["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    for op, counts in record["ops"].items():
        print(f"  {op}: attempted {counts['attempted']} succeeded "
              f"{counts['succeeded']} failed {counts['failed']}")
    oracle = record["oracle"]
    print(f"  oracle: {oracle['checked']} answers re-solved, "
          f"{len(oracle['mismatches'])} mismatches")
    for problem in oracle["mismatches"]:
        print(f"    MISMATCH {problem}")
    sys.stdout.flush()


def result_line(records: list, keyed: bool, trace: bool) -> dict:
    """The last stdout line; ``keyed`` prefixes metric names by workload."""
    metrics = {}
    for record in records:
        for name, metric in record["metrics"].items():
            if trace or name in RESULT_E2E:
                key = f"{record['workload']}.{name}" if keyed else name
                metrics[key] = metric
    return {
        "correct": all(not r["oracle"]["mismatches"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def summarize(runs: list) -> dict:
    """Median and quartiles of every metric over repeated runs."""
    values: dict = {}
    for record in runs:
        for name, metric in record["metrics"].items():
            key = (record["workload"], name, metric["unit"])
            values.setdefault(key, []).append(metric["value"])
    summary = {}
    for (workload, name, unit), vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[f"{workload}.{name}"] = {
            "unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "values": vals,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", "--workload", default=None,
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="size of the measured phase: each stream sends "
                        "its reference rate times this many requests")
    parser.add_argument("--smoke", action="store_true",
                        help=f"n={SMOKE_N}, {SMOKE_REQUESTS} requests per stream")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="per-layer run instead of end to end")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times, alternating the workload order "
                        "and advancing the seed, then print quartiles")
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro").is_dir():
        print(f"no program to benchmark: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import workloads

    names = (args.workloads.split(",") if args.workloads
             else list(workloads.WORKLOADS))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {list(workloads.WORKLOADS)}")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    trace = bool(args.trace)
    env = environment(args)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    runs = []
    for i in range(args.repeat):
        for name in names if i % 2 == 0 else names[::-1]:
            record = run_workload(name, args.seed + i, seconds=args.seconds,
                                  smoke=args.smoke, trace=trace)
            print_record(record)
            runs.append(record)
    report = {"environment": env, "runs": runs}
    if args.repeat > 1:
        report["summary"] = summarize(runs)
        print(f"== {args.repeat} runs: median [q1, q3] spread=(q3-q1)/median")
        for key, s in report["summary"].items():
            print(f"  {key:<48} {s['median']:>12.6g} [{s['q1']:.6g}, "
                  f"{s['q3']:.6g}] {s['unit']} spread={s['spread']:.3f}")
        line = result_line(runs, keyed=True, trace=trace)
        line["metrics"] = {
            key: {"value": s["median"], "unit": s["unit"]}
            for key, s in report["summary"].items()
            if key in line["metrics"]
        }
    else:
        line = result_line(runs, keyed=len(runs) > 1, trace=trace)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
