"""The runtime concurrency sanitizer (DESIGN.md §14).

Two dynamic checkers behind one opt-in switch, in the spirit of the
kernel's lockdep and of Eraser/TSan lock-set analysis:

* **Lock-order tracking**: every sanitized lock acquisition records
  edges ``held-class -> acquired-class`` into a process-wide graph.
  An edge that closes a cycle -- or that contradicts the declared
  :data:`repro.analysis.guards.LOCK_ORDER` ranking -- raises
  :class:`LockOrderViolation` carrying the acquiring stack *and* the
  stack that first established the conflicting edge.  Like lockdep,
  one clean run proves the order; no actual deadlock is needed.

* **Guarded-attribute lock-set checking**: the ``# guarded-by:``
  declarations RPL001 lints (parsed once, by
  :mod:`repro.analysis.guards`) are installed as data descriptors on
  the declaring classes.  Accessing a declared attribute on a thread
  that does not hold its lock raises :class:`GuardViolation` naming
  the attribute, the lock and the offending stack.  Objects still
  confined to the thread that last touched them are exempt (Eraser's
  exclusive -> shared state machine), so single-threaded construction
  and tests stay silent.

Opt-in and cost: ``REPRO_SANITIZE=1`` in the environment (read at
import), ``pytest --sanitize``, or :func:`enable`.  Disabled -- the
default -- :func:`make_lock` returns a plain ``threading.Lock`` and no
descriptor is ever installed, mirroring the :mod:`repro.faults` fast
path: zero per-acquire and per-access cost, one function call per
lock construction (``bench_engine``'s ``sanitizer_overhead`` row
asserts it stays ≤ 2%).
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from . import guards


class SanitizerViolation(RuntimeError):
    """Base class: a concurrency invariant observably broken at runtime."""


class LockOrderViolation(SanitizerViolation):
    """A lock acquisition inverted the established (or declared) order."""


class GuardViolation(SanitizerViolation):
    """A guarded attribute was accessed without its declared lock held."""


# ----------------------------------------------------------------------
# Switch + registries
# ----------------------------------------------------------------------
_enabled = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

#: Classes handed to :func:`sanitize_class`, kept so a late
#: :func:`enable` (the pytest flag path) can still instrument them.
_classes: List[type] = []

#: (outer name, inner name) -> formatted stack that first recorded it.
_edges: Dict[Tuple[str, str], str] = {}
#: adjacency view of ``_edges``.
_graph: Dict[str, Set[str]] = {}
_graph_lock = threading.Lock()

#: Cooperative scheduler hook (set by :mod:`repro.analysis.interleave`
#: while a harness run is active; None otherwise).
_coop: Optional[Any] = None

_tls = threading.local()

_SHARED = object()  # Eraser state: attribute seen locked from 2+ threads


def enabled() -> bool:
    """Whether the sanitizer is armed."""
    return _enabled


def enable() -> None:
    """Arm the sanitizer; instruments every registered class.

    Locks created *before* enabling stay plain and untracked -- enable
    first (env var, pytest flag, or an early call), then build the
    objects under test.
    """
    global _enabled
    _enabled = True
    for cls in _classes:
        _instrument_class(cls)


def disable() -> None:
    """Disarm: tracked locks and installed descriptors fall through."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Forget the observed order graph (for test isolation)."""
    with _graph_lock:
        _edges.clear()
        _graph.clear()


# ----------------------------------------------------------------------
# Per-thread lock-set
# ----------------------------------------------------------------------
def _held() -> list:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


def held_locks() -> Tuple[str, ...]:
    """Names of the sanitized locks the current thread holds (in order)."""
    return tuple(t.name for t in _held())


def _maybe_switch(kind: str, name: str) -> None:
    coop = _coop
    if coop is not None:
        coop.yield_point(kind, name)


def _format_stack() -> str:
    return "".join(traceback.format_stack(limit=24)[:-2])


# ----------------------------------------------------------------------
# Order graph
# ----------------------------------------------------------------------
def _find_path(start: str, goal: str) -> Optional[List[str]]:
    """A path start -> ... -> goal in the edge graph (callers hold
    ``_graph_lock``)."""
    stack = [(start, [start])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for nxt in sorted(_graph.get(node, ())):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


def _record_edge(outer: "_TrackedBase", inner: "_TrackedBase") -> None:
    a, b = outer.name, inner.name
    if a == b:
        raise LockOrderViolation(
            f"two locks of class '{a}' held together (self-nesting): "
            f"a second instance acquired while one is already held\n"
            f"--- acquiring stack ---\n{_format_stack()}"
        )
    with _graph_lock:
        if (a, b) in _edges:
            return
        path = _find_path(b, a)
        if path is not None:
            first_hop = _edges.get((path[0], path[1]), "<unrecorded>")
            chain = " -> ".join(path + [b])
            raise LockOrderViolation(
                f"lock-order inversion: acquiring '{b}' while holding "
                f"'{a}' closes the cycle {chain}\n"
                f"--- stack acquiring '{b}' (this thread) ---\n"
                f"{_format_stack()}"
                f"--- stack that first established '{path[0]}' -> "
                f"'{path[1]}' ---\n{first_hop}"
            )
        rank_a = guards.LOCK_RANK.get(a)
        rank_b = guards.LOCK_RANK.get(b)
        if rank_a is not None and rank_b is not None and rank_a > rank_b:
            raise LockOrderViolation(
                f"lock-order inversion: acquiring '{b}' (rank {rank_b}) "
                f"while holding '{a}' (rank {rank_a}) contradicts the "
                "declared LOCK_ORDER ranking (analysis/guards.py)\n"
                f"--- acquiring stack ---\n{_format_stack()}"
            )
        _edges[(a, b)] = _format_stack()
        _graph.setdefault(a, set()).add(b)


def _check_order(tracked: "_TrackedBase") -> None:
    held = _held()
    if not held:
        return
    if any(h is tracked for h in held):
        # Reentrant classes never reach here (they short-circuit in
        # acquire); a plain Lock/Condition re-acquired by its holder
        # would simply deadlock, so fail loudly instead of hanging.
        raise LockOrderViolation(
            f"self-deadlock: thread already holds '{tracked.name}' and "
            f"is acquiring it again\n--- acquiring stack ---\n"
            f"{_format_stack()}"
        )
    seen: Set[str] = set()
    for h in held:
        if h.name not in seen:
            seen.add(h.name)
            _record_edge(h, tracked)


def order_graph() -> Dict[str, Any]:
    """A JSON-able snapshot of the observed acquisition-order graph."""
    with _graph_lock:
        edges = [
            {"outer": a, "inner": b, "first_seen": stack}
            for (a, b), stack in sorted(_edges.items())
        ]
    return {
        "enabled": _enabled,
        "declared_order": list(guards.LOCK_ORDER),
        "edges": edges,
    }


# ----------------------------------------------------------------------
# Tracked locks
# ----------------------------------------------------------------------
class _TrackedBase:
    """Shared acquire/release bookkeeping for every tracked flavor."""

    reentrant = False
    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner: Any) -> None:
        self.name = name
        self._inner = inner

    # -- protocol ------------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not _enabled:
            return self._inner.acquire(blocking, timeout)
        held = _held()
        if self.reentrant and any(h is self for h in held):
            got = self._inner.acquire(blocking, timeout)
            if got:
                held.append(self)
            return got
        _maybe_switch("acquire", self.name)
        _check_order(self)
        coop = _coop
        if (
            coop is not None
            and blocking
            and timeout in (-1, None)
            and coop.manages_current()
        ):
            coop.acquire(self._inner)
            got = True
        else:
            got = self._inner.acquire(blocking, timeout)
        if got:
            held.append(self)
        return got

    def release(self) -> None:
        self._inner.release()
        if _enabled:
            self._note_release()
            _maybe_switch("release", self.name)

    def _note_release(self) -> None:
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is self:
                del held[i]
                return

    def held_by_current(self) -> bool:
        return any(h is self for h in _held())

    def __enter__(self) -> "_TrackedBase":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class TrackedLock(_TrackedBase):
    """``threading.Lock`` with lockdep bookkeeping."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, threading.Lock())

    def locked(self) -> bool:
        return self._inner.locked()


class TrackedRLock(_TrackedBase):
    """``threading.RLock``: reentrant re-acquisition records no edges."""

    reentrant = True
    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, threading.RLock())


class TrackedCondition(_TrackedBase):
    """``threading.Condition`` whose lock participates in tracking.

    ``wait`` releases the lock from the thread's lock-set for its
    duration (and re-adds it on wake), so guarded-attribute checks see
    the true held set across the wait.
    """

    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(name, threading.Condition())

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not _enabled:
            return self._inner.wait(timeout)
        coop = _coop
        self._note_release()
        _maybe_switch("cv-wait", self.name)
        try:
            if coop is not None and coop.manages_current():
                return coop.cv_wait(self, timeout)
            return self._inner.wait(timeout)
        finally:
            _held().append(self)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)
        coop = _coop
        if coop is not None:
            coop.cv_notify(self, n)

    def notify_all(self) -> None:
        self._inner.notify_all()
        coop = _coop
        if coop is not None:
            coop.cv_notify(self, None)


# ----------------------------------------------------------------------
# Construction seams (the locked modules call these)
# ----------------------------------------------------------------------
def make_lock(name: str) -> Any:
    """A ``threading.Lock`` -- tracked under ``name`` when armed."""
    if not _enabled:
        return threading.Lock()
    return TrackedLock(name)


def make_rlock(name: str) -> Any:
    """A ``threading.RLock`` -- tracked under ``name`` when armed."""
    if not _enabled:
        return threading.RLock()
    return TrackedRLock(name)


def make_condition(name: str) -> Any:
    """A ``threading.Condition`` -- tracked under ``name`` when armed."""
    if not _enabled:
        return threading.Condition()
    return TrackedCondition(name)


# ----------------------------------------------------------------------
# Guarded-attribute checking
# ----------------------------------------------------------------------
_TRACKED_TYPES = (TrackedLock, TrackedRLock, TrackedCondition)


def _check_guard(obj: Any, attr: str, lock_name: str, verb: str) -> None:
    lock = obj.__dict__.get(lock_name)
    if not isinstance(lock, _TRACKED_TYPES):
        # Construction (the lock attribute does not exist yet) or an
        # object built while the sanitizer was disarmed.
        return
    _maybe_switch("attr", f"{type(obj).__name__}.{attr}")
    states = obj.__dict__.get("_sanitizer_states_")
    if states is None:
        states = obj.__dict__["_sanitizer_states_"] = {}
    tid = threading.get_ident()
    holding = any(h is lock for h in _held())
    prev = states.get(attr)
    if holding:
        if prev is None:
            states[attr] = tid
        elif prev is not _SHARED and prev != tid:
            states[attr] = _SHARED
        return
    if prev is None:
        # First ever access: thread-confined so far (Eraser exclusive).
        states[attr] = tid
        return
    if prev == tid:
        return
    raise GuardViolation(
        f"'{type(obj).__name__}.{attr}' is declared "
        f"'# guarded-by: {lock_name}' but was {verb} on thread "
        f"{threading.current_thread().name} without holding "
        f"'self.{lock_name}'\n--- offending stack ---\n{_format_stack()}"
    )


class _GuardedAttribute:
    """Data descriptor enforcing one ``# guarded-by:`` declaration.

    Values live in the instance ``__dict__`` under the attribute's own
    name; being a *data* descriptor, reads and writes both route
    through here first.  Installed only when the sanitizer is armed,
    and falls through untouched once disarmed again.
    """

    __slots__ = ("attr", "lock_name")

    def __init__(self, attr: str, lock_name: str) -> None:
        self.attr = attr
        self.lock_name = lock_name

    def __get__(self, obj: Any, objtype: Any = None) -> Any:
        if obj is None:
            return self
        if _enabled:
            _check_guard(obj, self.attr, self.lock_name, "read")
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, obj: Any, value: Any) -> None:
        if _enabled:
            _check_guard(obj, self.attr, self.lock_name, "written")
        obj.__dict__[self.attr] = value

    def __delete__(self, obj: Any) -> None:
        if _enabled:
            _check_guard(obj, self.attr, self.lock_name, "deleted")
        del obj.__dict__[self.attr]


def _instrument_class(cls: type) -> None:
    if cls.__dict__.get("_sanitizer_instrumented_") is cls:
        return
    import inspect

    try:
        path = inspect.getsourcefile(cls)
    except TypeError:
        path = None
    if path is None:
        return
    for attr, lock_name in guards.guarded_attrs_of(path, cls.__name__).items():
        setattr(cls, attr, _GuardedAttribute(attr, lock_name))
    cls._sanitizer_instrumented_ = cls  # type: ignore[attr-defined]


def sanitize_class(cls: type) -> type:
    """Register a class whose ``# guarded-by:`` declarations should be
    enforced at runtime.  Free when disarmed (one list append at import
    time); instruments immediately -- or retroactively on a later
    :func:`enable` -- when armed."""
    _classes.append(cls)
    if _enabled:
        _instrument_class(cls)
    return cls


# ----------------------------------------------------------------------
# Interleave-harness seam
# ----------------------------------------------------------------------
def _set_coop(coop: Optional[Any]) -> Optional[Any]:
    """Install (or clear) the cooperative scheduler; returns the old one."""
    global _coop
    previous = _coop
    _coop = coop
    return previous


def _iter_classes() -> Iterator[type]:
    return iter(_classes)
