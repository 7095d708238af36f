"""Deterministic interleaving harness for concurrency tests (DESIGN.md §14).

Real races hide in *which* thread moves at each synchronization point.
Sleep-and-pray tests sample one schedule per run; this harness makes
the schedule an input.  It runs N task functions on real OS threads
but lets **exactly one** run at a time, switching only at the yield
points the sanitizer instruments (lock acquire/release, condition
wait/notify, guarded-attribute access).  The switch decisions come
from a :class:`Chooser`:

* :class:`SeededChooser` -- ``random.Random(seed)`` picks the next
  runnable thread; the same seed always replays the same schedule.
* :class:`PrefixChooser` -- follows a forced decision prefix, then a
  seeded tail; :func:`explore` uses it to enumerate every schedule
  whose branching happens in the first ``depth`` decisions
  (systematic DFS for small tests), before falling back to seeded
  random sampling.

Usage::

    def writer(): pool.evict("k")
    def reader(): pool.get("k").solve(q)
    run_interleaved([writer, reader], seed=7)          # one schedule
    explore([writer, reader], make_state, rounds=50)   # many schedules

Requires the sanitizer to be *enabled* (the yield points are inside
the tracked locks); :func:`run_interleaved` raises if it is not.
Deadlocks -- every live thread blocked on a lock or wait -- are
detected and reported as :class:`DeadlockError` with per-thread
stacks, instead of hanging the test run.
"""

from __future__ import annotations

import random
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import sanitizer


class DeadlockError(RuntimeError):
    """Every live thread in the harness is blocked; includes all stacks."""


class _Abort(BaseException):
    """Internal: unwind a task thread when the run is torn down early."""


class Chooser:
    """Decides, at each yield point, which runnable thread goes next."""

    def choose(self, runnable: Sequence[int]) -> int:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover
        raise NotImplementedError


class SeededChooser(Chooser):
    """Replayable pseudo-random schedule: same seed, same interleaving."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.trace: List[int] = []

    def choose(self, runnable: Sequence[int]) -> int:
        pick = runnable[self._rng.randrange(len(runnable))]
        self.trace.append(pick)
        return pick

    def describe(self) -> str:
        return f"seed={self.seed}"


class PrefixChooser(Chooser):
    """Forced decision prefix, seeded-random tail.

    ``prefix[i]`` is an *index into the runnable list* at decision
    ``i`` (not a thread id), so a prefix enumerated against one run
    replays against the same deterministic program.  Records how many
    choices were actually available at each prefix step, which
    :func:`explore` uses to enumerate siblings.
    """

    def __init__(self, prefix: Sequence[int], seed: int = 0) -> None:
        self.prefix = list(prefix)
        self.seed = seed
        self._rng = random.Random(seed)
        self._step = 0
        self.branching: List[int] = []

    def choose(self, runnable: Sequence[int]) -> int:
        if self._step < len(self.prefix):
            idx = self.prefix[self._step]
            if idx >= len(runnable):  # schedule diverged; clamp
                idx = len(runnable) - 1
            self._step += 1
            return runnable[idx]
        if len(self.branching) < len(self.prefix) + 64:
            self.branching.append(len(runnable))
        return runnable[self._rng.randrange(len(runnable))]

    def describe(self) -> str:
        return f"prefix={self.prefix} seed={self.seed}"


class Interleaver:
    """The cooperative scheduler behind :func:`run_interleaved`.

    Each task runs on a real thread but blocks on a personal ``go``
    event; the scheduler sets exactly one ``go`` at a time and waits
    on ``control`` for the running thread to reach its next yield
    point (or finish).  Sanitized locks held by a *suspended* thread
    are still genuinely held -- a thread choosing to acquire one spins
    through try-acquire yield points, so lock contention becomes
    scheduler-visible instead of an OS-level block.
    """

    _SPIN_LIMIT = 10_000

    def __init__(self, chooser: Chooser) -> None:
        self.chooser = chooser
        self._control = threading.Event()
        self._go: Dict[int, threading.Event] = {}
        self._threads: Dict[int, threading.Thread] = {}
        self._finished: Dict[int, bool] = {}
        self._errors: List[Tuple[int, BaseException]] = []
        self._waiting_cv: Dict[int, Any] = {}  # tid -> TrackedCondition
        self._abort = False
        self._current: Optional[int] = None
        self.switches = 0

    # -- sanitizer-facing hooks (called from task threads) -------------
    def manages_current(self) -> bool:
        return threading.get_ident() in self._go

    def yield_point(self, kind: str, name: str) -> None:
        tid = threading.get_ident()
        if tid not in self._go:
            return
        self._pause(tid)

    def acquire(self, inner: Any) -> None:
        """Blocking lock acquire, made cooperative via try-acquire."""
        tid = threading.get_ident()
        for _ in range(self._SPIN_LIMIT):
            if inner.acquire(False):
                return
            self._pause(tid, blocked=True)
        raise DeadlockError(
            f"thread {threading.current_thread().name} spun out acquiring "
            "a lock; schedule livelocked"
        )

    def cv_wait(self, cond: Any, timeout: Optional[float]) -> bool:
        """Cooperative Condition.wait: release, suspend until notified."""
        tid = threading.get_ident()
        inner: threading.Condition = cond._inner
        self._waiting_cv[tid] = cond
        inner.release()
        try:
            for _ in range(self._SPIN_LIMIT):
                self._pause(tid, blocked=tid in self._waiting_cv)
                if tid not in self._waiting_cv:
                    break
            else:
                raise DeadlockError(
                    f"thread {threading.current_thread().name} never "
                    f"notified on '{cond.name}'; schedule livelocked"
                )
        finally:
            self._waiting_cv.pop(tid, None)
            # Reacquire the CV lock cooperatively before returning, as
            # a real Condition.wait does.
            for _ in range(self._SPIN_LIMIT):
                if inner.acquire(False):
                    break
                self._pause(tid, blocked=True)
            else:
                raise DeadlockError(
                    f"could not reacquire '{cond.name}' after wait"
                )
        return True

    def cv_notify(self, cond: Any, n: Optional[int]) -> None:
        woken = 0
        for tid, waiting_on in list(self._waiting_cv.items()):
            if waiting_on is cond:
                del self._waiting_cv[tid]
                woken += 1
                if n is not None and woken >= n:
                    break

    # -- scheduling core -----------------------------------------------
    def _pause(self, tid: int, blocked: bool = False) -> None:
        """Suspend the calling task thread and hand off to the scheduler.

        ``blocked`` is advisory: a thread that could not take its lock
        still suspends here and simply retries when next scheduled, so
        contention stays scheduler-visible and deterministic.
        """
        if self._abort:
            raise _Abort()
        ev = self._go[tid]
        ev.clear()
        self._control.set()
        ev.wait()
        if self._abort:
            raise _Abort()

    def _wrap(self, index: int, fn: Callable[[], Any]) -> None:
        tid = threading.get_ident()
        self._go[tid].wait()
        try:
            if not self._abort:
                fn()
        except _Abort:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._errors.append((index, exc))
        finally:
            # Forget the id: once this thread exits, the OS may hand it
            # to a thread no task manages (a router scatter thread, say),
            # which must not park at yield points nobody schedules.
            del self._go[tid]
            self._finished[tid] = True
            self._control.set()

    def run(self, tasks: Sequence[Callable[[], Any]], timeout: float = 30.0) -> None:
        if not sanitizer.enabled():
            raise RuntimeError(
                "interleaving harness requires the sanitizer: set "
                "REPRO_SANITIZE=1, pass pytest --sanitize, or call "
                "sanitizer.enable() before constructing the objects under test"
            )
        threads: List[threading.Thread] = []
        ids: List[int] = []
        ready = threading.Barrier(len(tasks) + 1)

        def boot(index: int, fn: Callable[[], Any]) -> None:
            tid = threading.get_ident()
            self._go[tid] = threading.Event()
            self._threads[tid] = threading.current_thread()
            self._finished[tid] = False
            ids.append(tid)
            ready.wait()
            self._wrap(index, fn)

        for i, fn in enumerate(tasks):
            t = threading.Thread(
                target=boot, args=(i, fn), name=f"interleave-{i}", daemon=True
            )
            threads.append(t)
            t.start()
        ready.wait()
        ids_in_order = sorted(ids, key=lambda tid: self._threads[tid].name)

        prev = sanitizer._set_coop(self)
        try:
            while True:
                live = [
                    i
                    for i, tid in enumerate(ids_in_order)
                    if not self._finished[tid]
                ]
                if not live:
                    break
                # choose() sees stable thread ordinals (index into the
                # original task list), so traces replay across runs.
                pick = ids_in_order[self.chooser.choose(live)]
                self.switches += 1
                self._current = pick
                self._control.clear()
                self._go[pick].set()
                if not self._control.wait(timeout):
                    self._abort = True
                    raise DeadlockError(
                        self._deadlock_report([ids_in_order[i] for i in live])
                    )
        finally:
            sanitizer._set_coop(prev)
            self._abort = True
            for ev in self._go.values():
                ev.set()
            for t in threads:
                t.join(timeout=5.0)
        if self._errors:
            _index, exc = self._errors[0]
            raise exc

    def _deadlock_report(self, live: Sequence[int]) -> str:
        frames = sys._current_frames()
        lines = ["no thread progressed within the timeout -- deadlock:"]
        for tid in live:
            name = self._threads[tid].name
            stack = "".join(traceback.format_stack(frames[tid])) if tid in frames else "  <gone>\n"
            lines.append(f"--- {name} ({tid}) ---\n{stack}")
        return "\n".join(lines)


def run_interleaved(
    tasks: Sequence[Callable[[], Any]],
    seed: int = 0,
    chooser: Optional[Chooser] = None,
    timeout: float = 30.0,
) -> Chooser:
    """Run ``tasks`` to completion under one deterministic schedule.

    Returns the chooser (whose ``trace`` replays the schedule).  Any
    exception a task raises -- including sanitizer violations -- is
    re-raised here, on the calling thread.
    """
    chooser = chooser if chooser is not None else SeededChooser(seed)
    Interleaver(chooser).run(tasks, timeout=timeout)
    return chooser


def explore(
    make_tasks: Callable[[], Sequence[Callable[[], Any]]],
    rounds: int = 20,
    depth: int = 6,
    seed: int = 0,
    timeout: float = 30.0,
) -> int:
    """Run ``make_tasks()`` under many schedules; returns how many ran.

    Systematically enumerates every decision prefix up to ``depth``
    choices (DFS, small tests get exhaustive coverage of the early
    branching), then tops up with seeded-random schedules until
    ``rounds`` total.  ``make_tasks`` is called fresh per schedule so
    each run starts from identical state.  The first failing schedule
    aborts the sweep with its exception -- its chooser description is
    attached for replay.
    """
    ran = 0
    frontier: List[List[int]] = [[]]
    seen_prefixes = 0
    while frontier and ran < rounds:
        prefix = frontier.pop()
        if len(prefix) > depth:
            continue
        chooser = PrefixChooser(prefix, seed=seed)
        _run_one(make_tasks, chooser, timeout)
        ran += 1
        seen_prefixes += 1
        if len(prefix) < depth and chooser.branching:
            width = chooser.branching[0]
            for idx in range(width - 1, 0, -1):
                frontier.append(prefix + [idx])
            frontier.append(prefix + [0])
    rng = random.Random(seed)
    while ran < rounds:
        _run_one(make_tasks, SeededChooser(rng.randrange(1 << 30)), timeout)
        ran += 1
    return ran


def _run_one(
    make_tasks: Callable[[], Sequence[Callable[[], Any]]],
    chooser: Chooser,
    timeout: float,
) -> None:
    try:
        Interleaver(chooser).run(make_tasks(), timeout=timeout)
    except Exception as exc:
        raise type(exc)(
            f"[schedule {chooser.describe()}] {exc}"
        ).with_traceback(exc.__traceback__) from None
