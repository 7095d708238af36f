"""The shared/exclusive gate: readers run together, a mutation runs alone.

Two layers hold their readers and writers apart the same way: a
:class:`~repro.engine.session.QuerySession` (solves and the facade's
checkpoint/compaction vs. ``apply``, DESIGN.md §9.3) and the shard
router (routed queries vs. ``update``/``checkpoint``/``compact``/
``recover``/``close``, DESIGN.md §15.7).  Whatever runs under :meth:`SharedExclusiveGate.exclusive`
observes no concurrent shared holder and admits none until it exits, so
a reader sees one consistent state, never a mix.

The gate prefers writers: once an exclusive holder is waiting, new
shared holders queue behind it, so a steady read stream cannot starve
a mutation.  It is not reentrant -- a shared holder must not re-enter
the gate on the same thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..analysis.sanitizer import make_condition, sanitize_class


class SharedExclusiveGate:
    """A writer-preferring readers/writer gate over one condition.

    ``name`` is the sanitizer identity of the condition (the owner's
    ``ClassName.attr``), so each owner keeps its own rank in
    :data:`repro.analysis.guards.LOCK_ORDER`.
    """

    def __init__(self, name: str) -> None:
        self._cv = make_condition(name)
        self._shared = 0  # guarded-by: _cv
        self._exclusive = False  # guarded-by: _cv

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the gate alongside other shared holders."""
        with self._cv:
            while self._exclusive:
                self._cv.wait()
            self._shared += 1
        try:
            yield
        finally:
            with self._cv:
                self._shared -= 1
                if self._shared == 0:
                    self._cv.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the gate alone: drain shared holders, block new ones."""
        with self._cv:
            while self._exclusive:
                self._cv.wait()
            self._exclusive = True
            while self._shared:
                self._cv.wait()
        try:
            yield
        finally:
            with self._cv:
                self._exclusive = False
                self._cv.notify_all()


sanitize_class(SharedExclusiveGate)
