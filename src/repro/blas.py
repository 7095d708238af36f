"""One BLAS thread per serving process (DESIGN.md §11.7).

numpy runs the DS-Search kernels as many small BLAS calls, and its
OpenBLAS starts one thread per core.  A serving process already gets
its parallelism from request threads and shard processes, so a
multi-threaded pool only adds CPU for the same wall time.  ``repro
serve`` and every shard worker therefore call :func:`pin_one_thread`
at start-up; library callers, ``repro batch`` and tests keep their
process's setting.

The library is found by name among the files the process has mapped
(``/proc/self/maps``, so Linux only) and driven through ``ctypes``.
When no known OpenBLAS entry point is found, nothing changes and both
functions return ``None``: the pin is an optimization, never a
precondition of serving.  Call them after numpy has been imported --
it is numpy that maps the library.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Optional, Tuple, TypedDict

#: ``(setter, getter)`` pairs: the scipy-openblas wheel's ILP64 names
#: (numpy >= 2), then the plain OpenBLAS ones.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class BlasInfo(TypedDict):
    library: str
    threads: int


#: The mapped library's file name and its set/get thread-count calls.
_Binding = Tuple[str, Callable[[int], None], Callable[[], int]]


def _mapped_openblas() -> list[str]:
    """Paths of mapped files whose name contains ``openblas``."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    return paths


#: Bound on first success and kept: a miss is not kept, because numpy
#: may not have mapped the library yet.
_binding: Optional[_Binding] = None


def _bind() -> Optional[_Binding]:
    global _binding
    if _binding is not None:
        return _binding
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _ENTRY_POINTS:
            try:
                setter = getattr(lib, set_name)
                getter = getattr(lib, get_name)
            except AttributeError:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            _binding = (os.path.basename(path), setter, getter)
            return _binding
    return None


def blas_info() -> Optional[BlasInfo]:
    """The mapped OpenBLAS and its live thread count, or ``None``."""
    binding = _bind()
    if binding is None:
        return None
    library, _, get_threads = binding
    return {"library": library, "threads": int(get_threads())}


def pin_one_thread() -> Optional[BlasInfo]:
    """Set the process's OpenBLAS pool to one thread; report it.

    Idempotent.  Returns :func:`blas_info` after the change, or
    ``None`` (changing nothing) when no known OpenBLAS is mapped.
    """
    binding = _bind()
    if binding is None:
        return None
    set_threads = binding[1]
    set_threads(1)
    return blas_info()
