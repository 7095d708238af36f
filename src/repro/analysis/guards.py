"""The shared ``# guarded-by:`` / lock-order declarations (DESIGN.md §14).

One declaration, checked twice: the ``# guarded-by: <lock>`` grammar
documented in :mod:`repro.analysis.core` is parsed *here*, and the
resulting tables feed both the static lock-discipline rule (RPL001,
which checks lexical ``with self.<lock>:`` scoping) and the runtime
sanitizer (:mod:`repro.analysis.sanitizer`, which checks the lock is
actually *held* on the accessing thread -- catching the cross-method
call chains lexical analysis provably cannot see).

The module also declares the process-wide **lock acquisition ranking**:
:data:`LOCK_ORDER` lists every sanitized lock class outermost-first.
Acquiring a lock while holding one ranked *below* it is an inversion --
RPL006 rejects it statically from the nested-``with`` graph, and the
runtime sanitizer rejects it from the observed acquisition graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from .core import SourceFile

#: The declared lock-order ranking, outermost first: a thread must only
#: acquire locks whose rank is strictly greater than every lock it
#: already holds.  Names are ``ClassName.attr`` -- the same identity
#: :func:`repro.analysis.sanitizer.make_lock` is given at construction.
#: A lock class absent from this tuple is unranked: only cycle
#: detection applies to it.
LOCK_ORDER: Tuple[str, ...] = (
    "ShardRouter._gate",           # lock-order: 0 -- router query/mutation gate; a fan-out runs inside it (outermost)
    "ShardRouter._lock",           # lock-order: 1 -- router mirror/journal state; held around facade reads
    "ProcessShardBackend._pipe",   # lock-order: 2 -- one request/response on a worker pipe; holds no other lock
    "RegionService._lock",         # lock-order: 3 -- facade registry/health; holds no other lock
    "SessionPool._lock",           # lock-order: 4 -- eviction clears caches, info() reads WAL state
    "QuerySession._update_gate",   # lock-order: 5 -- update-gate bookkeeping
    "QuerySession._index_lock",    # lock-order: 6 -- single-shot index build
    "QuerySession._memo_lock",     # lock-order: 7 -- cache / pin / in-flight tables
    "WriteAheadLog._lock",         # lock-order: 8 -- log handle and counters
    "BufferPool._lock",            # lock-order: 9 -- scratch free lists (innermost)
)

#: ``LOCK_ORDER`` as name -> rank, for O(1) comparisons.
LOCK_RANK: Dict[str, int] = {name: i for i, name in enumerate(LOCK_ORDER)}


def self_attr(node: ast.expr) -> Optional[str]:
    """The ``X`` of a ``self.X`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def held_by_item(item: ast.withitem) -> Optional[str]:
    """The lock name a ``with`` item acquires, if it is a self-guard.

    Recognises ``with self.<lock>:`` and the gate form
    ``with self.<gate>():``.
    """
    expr = item.context_expr
    if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
        expr = expr.func
    return self_attr(expr)


@dataclass
class ClassGuards:
    """Every guard declaration one class makes.

    ``attrs``
        attribute name -> (lock name, declaring line), from
        ``# guarded-by:`` comments on ``__init__`` assignments.
    ``methods``
        method name -> (lock name, ``def`` line), from ``# guarded-by:``
        comments on ``def`` lines ("callers hold the lock").
    ``defined``
        every name the class could legitimately guard *with*: attributes
        assigned to ``self`` anywhere in the class body, plus its method
        names (the gate-call form).  A declaration naming anything else
        is inert -- see :meth:`inert`.
    """

    attrs: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    methods: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    defined: Set[str] = field(default_factory=set)

    def inert(self) -> Dict[str, Tuple[str, int]]:
        """Declarations naming a lock the class does not define.

        Returns declared-name -> (missing lock, line): each one is a
        typo'd or renamed lock -- the declaration silently guards
        nothing (RPL001's silent-inert gap).
        """
        bad: Dict[str, Tuple[str, int]] = {}
        for attr, (lock, line) in self.attrs.items():
            if lock not in self.defined:
                bad[attr] = (lock, line)
        for name, (lock, line) in self.methods.items():
            if lock not in self.defined:
                bad[name] = (lock, line)
        return bad


def class_guards(source: SourceFile, cls: ast.ClassDef) -> ClassGuards:
    """Parse one class's guard declarations out of a parsed source."""
    guards = ClassGuards()
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        guards.defined.add(item.name)
        lock = source.guard_comment(item.lineno)
        if lock is not None and item.name != "__init__":
            guards.methods[item.name] = (lock, item.lineno)
        for stmt in ast.walk(item):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None:
                        continue
                    guards.defined.add(attr)
                    if item.name == "__init__":
                        lock = source.guard_comment(stmt.lineno)
                        if lock is not None:
                            guards.attrs[attr] = (lock, stmt.lineno)
    return guards


#: (resolved path, class name) -> attr -> lock, for the runtime side.
_RUNTIME_CACHE: Dict[Tuple[str, str], Dict[str, str]] = {}


def guarded_attrs_of(path: "str | Path", classname: str) -> Dict[str, str]:
    """attr -> lock declared by ``classname`` in the file at ``path``.

    The runtime sanitizer's entry point: called once per instrumented
    class (cached), so the sanitizer consumes the *same* declarations
    RPL001 lints -- one grammar, two checkers.  Unreadable or
    unparseable files yield no declarations (the static side already
    reports those as findings).
    """
    resolved = str(Path(path).resolve())
    key = (resolved, classname)
    cached = _RUNTIME_CACHE.get(key)
    if cached is not None:
        return cached
    decls: Dict[str, str] = {}
    try:
        text = Path(resolved).read_text(encoding="utf-8")
        source = SourceFile(Path(resolved), resolved, text)
    except (OSError, UnicodeDecodeError):
        source = None
    if source is not None and source.tree is not None:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == classname:
                decls = {
                    attr: lock
                    for attr, (lock, _line) in class_guards(source, node).attrs.items()
                }
                break
    _RUNTIME_CACHE[key] = decls
    return decls
