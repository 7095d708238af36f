"""Per-layer metrics from the span files of one traced server.

Units follow one rule: ``ms`` is the mean duration per call of the
named callable; ``ms/query``, ``ms/update`` and ``ms/req`` sum a
layer's time and divide by the ``/query`` requests, ``/update``
requests or all POST requests the server answered; counts follow the
same rule.  A layer's *self* time is its span minus the spans nested
directly under it on the same thread.  Span numbers cover the traced
server's whole life: set-up, the warm query, the measured phase and
the close; :func:`measured_phase` adds the two that need the client's
view.  A layer the workload never reaches reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("server.cpu_ms", "ms/req"),
    ("httpd.outside_ms", "ms/req"),
    ("httpd.self_ms", "ms/req"),
    ("facade.query_self_ms", "ms"),
    ("facade.update_self_ms", "ms"),
    ("pool.reaccount_ms", "ms/req"),
    ("session.solve_self_ms", "ms"),
    ("session.cache_build_ms", "ms/req"),
    ("session.cache_builds", "count"),
    ("session.lattice_hit_ratio", "ratio"),
    ("gids.self_ms", "ms"),
    ("gids.cells_searched", "count/query"),
    ("dssearch.search_space_ms", "ms/query"),
    ("dssearch.verify_ms", "ms/query"),
    ("dssearch.verify_calls", "count/query"),
    ("dssearch.spaces", "count/query"),
    ("dssearch.dirty_cells", "count/query"),
    ("dssearch.resolved_dirty_cells", "count/query"),
    ("dssearch.candidate_points", "count/query"),
    ("dssearch.prune_ratio", "ratio"),
    ("canonical.pass1_ms", "ms"),
    ("canonical.pass2_ms", "ms"),
    ("router.self_ms", "ms"),
    ("worker.roundtrip_ms", "ms"),
    ("worker.handle_ms", "ms"),
    ("worker.pipe_ms", "ms"),
    ("worker.skew_ms", "ms"),
    ("updates.apply_ms", "ms"),
    ("updates.dirty_cells", "count/update"),
    ("updates.lattice_positions_refreshed", "count/update"),
    ("updates.lattices_patched", "count/update"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoints", "count"),
    ("persist.save_session_ms", "ms"),
    ("persist.load_session_ms", "ms"),
    ("io.load_csv_ms", "ms"),
    ("io.save_csv_ms", "ms"),
    ("trace_overhead_pct", "%"),
]

#: Session cache builds: the artefacts a new query shape (or a cold
#: server) pays for before its first search.
CACHE_BUILDS = (
    "cache.index_build",
    "cache.reduce_to_asp",
    "cache.lattice_geometry",
    "cache.lattice_intervals",
    "cache.channel_table",
)

_SEARCH_COUNTS = (
    "spaces",
    "dirty_cells",
    "resolved_dirty_cells",
    "candidate_points",
)


class Span:
    __slots__ = ("name", "t0", "t1", "sid", "parent", "root", "tid", "counts",
                 "pid", "child_ns")

    def __init__(self, pid, name, t0, t1, sid, parent, root, tid, counts):
        self.pid, self.name, self.t0, self.t1 = pid, name, t0, t1
        self.sid, self.parent, self.root, self.tid = sid, parent, root, tid
        self.counts = counts or {}
        self.child_ns = 0

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6

    @property
    def self_ms(self) -> float:
        return (self.t1 - self.t0 - self.child_ns) / 1e6


def load_spans(directory: Path) -> list:
    """Every span of every process that wrote a file, with self times."""
    spans = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        by_id = {}
        for raw in doc["spans"]:
            span = Span(doc["pid"], *raw)
            by_id[span.sid] = span
            spans.append(span)
        for span in by_id.values():
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.child_ns += span.t1 - span.t0
    return spans


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measured_phase(spans: list, start: float, latencies_ms: list,
                   cpu_s: float, requests: int) -> dict:
    """The two metrics that need the client's view of the measured phase.

    ``server.cpu_ms`` is the server tree's CPU time per request (busy
    time); ``httpd.outside_ms`` is the mean client-observed latency
    minus the mean ``do_POST`` span of requests that started after
    ``start`` (a ``perf_counter`` value; both processes read the same
    monotonic clock): time spent outside the handler, in sockets, the
    kernel and waiting for a handler thread to run.
    """
    handler = [
        s.ms for s in spans if s.name == "httpd.post" and s.t0 >= start * 1e9
    ]
    return {
        "server.cpu_ms": _ratio(1000.0 * cpu_s, requests),
        "httpd.outside_ms": _mean(latencies_ms) - _mean(handler),
    }


def per_layer(spans: list) -> dict:
    """``{metric name: value}`` for the span-derived metrics of
    :data:`METRICS` (all but the measured-phase and overhead ones)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    posts = by_name["httpd.post"]
    n_req = len(posts)
    n_query = sum(1 for s in posts if s.counts.get("path") == "/query")
    n_update = sum(1 for s in posts if s.counts.get("path") == "/update")
    update_bytes = sum(
        s.counts.get("bytes", 0) for s in posts if s.counts.get("path") == "/update"
    )

    def total(name, attr="ms"):
        return sum(getattr(s, attr) for s in by_name[name])

    def mean(name, attr="ms"):
        return _mean(getattr(s, attr) for s in by_name[name])

    def count_sum(names, key):
        return sum(s.counts.get(key, 0) for name in names for s in by_name[name])

    out = {
        "httpd.self_ms": _ratio(total("httpd.post", "self_ms"), n_req),
        "facade.query_self_ms": mean("facade.query", "self_ms"),
        "facade.update_self_ms": mean("facade.update", "self_ms"),
        "pool.reaccount_ms": _ratio(total("pool.reaccount"), n_req),
        "session.solve_self_ms": mean("session.solve", "self_ms"),
        "session.cache_build_ms": _ratio(
            sum(total(name) for name in CACHE_BUILDS), n_req
        ),
        "session.cache_builds": float(sum(len(by_name[n]) for n in CACHE_BUILDS)),
        "session.lattice_hit_ratio": (
            1.0 - _ratio(len(by_name["cache.lattice_intervals"]),
                         len(by_name["session.lattice_for"]))
            if by_name["session.lattice_for"] else 0.0
        ),
        "gids.self_ms": mean("gids.search", "self_ms"),
    }

    # Searched cells: search_space calls nested directly under a GI-DS
    # solve (canonical passes call search_space per domain piece instead).
    gids_ids = {(s.pid, s.sid) for s in by_name["gids.search"]}
    cells = sum(
        1 for s in by_name["dssearch.search_space"] if (s.pid, s.parent) in gids_ids
    )
    out["gids.cells_searched"] = _ratio(cells, n_query)
    out["dssearch.search_space_ms"] = _ratio(
        total("dssearch.search_space", "self_ms"), n_query
    )
    out["dssearch.verify_ms"] = _ratio(total("dssearch.true_distance"), n_query)
    out["dssearch.verify_calls"] = _ratio(
        len(by_name["dssearch.true_distance"]), n_query
    )
    searches = ("gids.search", "canonical.pass1", "canonical.pass2")
    for key in _SEARCH_COUNTS:
        out[f"dssearch.{key}"] = _ratio(count_sum(searches, key), n_query)
    out["dssearch.prune_ratio"] = _ratio(
        count_sum(searches, "pruned_dirty_cells"), count_sum(searches, "dirty_cells")
    )

    out["canonical.pass1_ms"] = mean("canonical.pass1")
    out["canonical.pass2_ms"] = mean("canonical.pass2")

    # Backend round trips run on scatter threads, so they are matched to
    # their routed query by time.  The router serializes fan-outs, and a
    # query waiting for its turn spans the scatters before its own: a
    # round trip belongs to the earliest-ending query containing it.
    requests = by_name["worker.request"]
    queries = sorted(by_name["router.query"], key=lambda s: s.t1)
    scatters = defaultdict(list)
    for r in requests:
        owner = next(
            (q for q in queries
             if q.pid == r.pid and q.t0 <= r.t0 and r.t1 <= q.t1),
            None,
        )
        if owner is not None:
            scatters[owner.sid].append(r.ms)
    router_self, skews = [], []
    for query in queries:
        trips = scatters.get(query.sid)
        if trips:
            router_self.append(query.ms - max(trips))
            skews.append(max(trips) - min(trips))
    out["router.self_ms"] = _mean(router_self)
    out["worker.roundtrip_ms"] = _mean(s.ms for s in requests)
    out["worker.handle_ms"] = mean("worker.handle")
    out["worker.pipe_ms"] = (
        out["worker.roundtrip_ms"] - out["worker.handle_ms"] if requests else 0.0
    )
    out["worker.skew_ms"] = _mean(skews)

    out["updates.apply_ms"] = mean("updates.apply")
    for key in ("dirty_cells", "lattice_positions_refreshed", "lattices_patched"):
        out[f"updates.{key}"] = _ratio(count_sum(["updates.apply"], key), n_update)
    out["wal.append_ms"] = mean("wal.append")
    out["wal.bytes_per_user_byte"] = _ratio(
        count_sum(["wal.append"], "bytes"), update_bytes
    )
    out["persist.checkpoint_ms"] = mean("persist.checkpoint")
    out["persist.checkpoints"] = float(len(by_name["persist.checkpoint"]))
    out["persist.save_session_ms"] = mean("persist.save_session")
    out["persist.load_session_ms"] = mean("persist.load_session")
    out["io.load_csv_ms"] = mean("io.load_csv")
    out["io.save_csv_ms"] = mean("io.save_csv")
    return out
