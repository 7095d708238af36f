"""Span bootstrap for the traced run of the serve benchmark.

``bench.py --trace`` puts this directory on ``PYTHONPATH`` of the
``repro serve`` it starts, so Python imports this module at start-up in
the server and in every process the server spawns (shard workers
inherit the environment).  Nothing under ``src/`` knows about it.

An import hook wraps the public callables of each layer with span
recorders right after their module executes, at the place the caller
looks them up: class attributes for methods, the calling module's
globals for functions imported by name, the defining module for
functions imported at call time.  A span is ``(name, start_ns, end_ns,
id, parent id, root id, thread id, counts)``; the parent is the
enclosing span on the same thread and the root is the outermost one,
so every span of one HTTP request shares the request's root id.
Spans stay in memory and are written to
``$REPRO_BENCH_TRACE_OUT/spans-<pid>.json`` when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time

_OUT = os.environ.get("REPRO_BENCH_TRACE_OUT")
_SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _recorder(name, fn, pre=None, post=None):
    """``fn`` wrapped to record one span per call.

    ``pre(args, kwargs)`` runs before the call and its value reaches
    ``post(state, args, kwargs, result)``, which returns the span's
    counts (a dict) read from the call's arguments or result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        sid = next(_IDS)
        parent, root = stack[-1] if stack else (0, sid)
        state = pre(args, kwargs) if pre is not None else None
        stack.append((sid, root))
        t0 = time.perf_counter_ns()
        counts = None
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                counts = post(state, args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            _SPANS.append(
                (name, t0, t1, sid, parent, root, threading.get_ident(), counts)
            )

    return wrapper


# -- counts read where the work happens ---------------------------------


def _search_counts(stats) -> dict:
    return {
        "spaces": stats.spaces_processed,
        "dirty_cells": stats.dirty_cells,
        "pruned_dirty_cells": stats.pruned_dirty_cells,
        "resolved_dirty_cells": stats.resolved_dirty_cells,
        "candidate_points": stats.candidate_points_evaluated,
    }


def _engine_stats(state, args, kwargs, result):
    return _search_counts(kwargs["engine"].stats)


def _first_arg_stats(state, args, kwargs, result):
    return _search_counts(args[0].stats)


def _update_counts(state, args, kwargs, result):
    return {
        "dirty_cells": result.dirty_cells,
        "lattice_positions_refreshed": result.lattice_positions_refreshed,
        "lattices_patched": result.lattices_patched,
    }


def _request_line(args, kwargs):
    handler = args[0]
    return {
        "path": handler.path,
        "bytes": int(handler.headers.get("Content-Length") or 0),
    }


def _keep(state, args, kwargs, result):
    return state


def _file_size(args, kwargs):
    path = args[0].path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _file_growth(state, args, kwargs, result):
    return {"bytes": _file_size(args, kwargs) - state}


# -- what to wrap, per module -------------------------------------------

# module -> [(owner, attribute, span name, pre, post)]; owner is a class
# name in that module, or None for a module-level function.
_PATCHES = {
    "repro.service.httpd": [
        ("_Handler", "do_POST", "httpd.post", _request_line, _keep),
    ],
    "repro.service.facade": [
        ("RegionService", "query", "facade.query", None, None),
        ("RegionService", "update", "facade.update", None, None),
        ("RegionService", "checkpoint", "persist.checkpoint", None, None),
    ],
    "repro.engine.pool": [
        ("SessionPool", "reaccount", "pool.reaccount", None, None),
        ("SessionPool", "apply", "pool.apply", None, None),
    ],
    "repro.engine.session": [
        ("QuerySession", "solve_with_epoch", "session.solve", None, None),
        ("QuerySession", "lattice_for", "session.lattice_for", None, None),
        (None, "gi_ds_search", "gids.search", None, _engine_stats),
        (None, "reduce_to_asp", "cache.reduce_to_asp", None, None),
        (None, "candidate_lattice_geometry", "cache.lattice_geometry", None, None),
        (None, "candidate_lattice_intervals", "cache.lattice_intervals", None, None),
    ],
    "repro.index.grid_index": [
        ("GridIndex", "build", "cache.index_build", None, None),
        ("GridIndex", "channel_cells_and_table", "cache.channel_table", None, None),
    ],
    "repro.dssearch.search": [
        ("DSSearchEngine", "search_space", "dssearch.search_space", None, None),
        ("DSSearchEngine", "true_distance", "dssearch.true_distance", None, None),
    ],
    "repro.dssearch.canonical": [
        (None, "run_pass1", "canonical.pass1", None, _first_arg_stats),
        (None, "run_pass2", "canonical.pass2", None, _first_arg_stats),
    ],
    "repro.shard.router": [
        ("ShardRouter", "query", "router.query", None, None),
    ],
    "repro.shard.worker": [
        ("ProcessShardBackend", "request", "worker.request", None, None),
        ("ShardServer", "handle", "worker.handle", None, None),
    ],
    "repro.engine.updates": [
        (None, "apply_update", "updates.apply", None, _update_counts),
    ],
    "repro.engine.wal": [
        ("WriteAheadLog", "append", "wal.append", _file_size, _file_growth),
    ],
    "repro.engine.persist": [
        (None, "save_session", "persist.save_session", None, None),
        (None, "load_session", "persist.load_session", None, None),
    ],
    "repro.data.io": [
        (None, "load_csv_infer", "io.load_csv", None, None),
        (None, "load_csv", "io.load_csv", None, None),
        (None, "save_csv", "io.save_csv", None, None),
    ],
}


def _patch(module) -> None:
    for owner_name, attr, name, pre, post in _PATCHES[module.__name__]:
        if owner_name is None:
            setattr(module, attr, _recorder(name, getattr(module, attr), pre, post))
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(_recorder(name, raw.__func__, pre, post))
        else:
            wrapped = _recorder(name, raw, pre, post)
        setattr(owner, attr, wrapped)


class _PatchingFinder:
    """Meta-path finder: patch a listed module right after it executes."""

    @staticmethod
    def find_spec(fullname, path=None, target=None):
        if fullname not in _PATCHES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _dump() -> None:
    if not _SPANS:
        return
    path = os.path.join(_OUT, f"spans-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": _SPANS}, fh)


if _OUT:
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_dump)
