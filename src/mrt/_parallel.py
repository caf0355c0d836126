"""Deterministic parallel map.

Work items are computed on a thread pool but results are always reduced in
input order, so output is bit-identical for every thread count. The default
degree comes from the MRT_THREADS environment variable, falling back to the
number of CPUs the process may run on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_threads() -> int:
    raw = os.environ.get("MRT_THREADS")
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, not every core of the machine
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pmap(fn: Callable[[T], R], items: Iterable[T], threads: int | None = None) -> list[R]:
    """Map fn over items; results in input order regardless of thread count."""
    seq: Sequence[T] = list(items)
    if threads is None:
        threads = default_threads()
    if threads <= 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, seq))
