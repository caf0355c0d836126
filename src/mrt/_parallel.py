"""The map behind every batch of independent work items.

The work holds the interpreter lock, so a thread pool bought no speed; this
is a plain map in input order. It stays one named function so that callers
keep a single place where a batch of per-item work is handed out.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T], _unused=None) -> list[R]:
    """[fn(item) for item in items].

    The optional third argument is accepted and ignored: it was the worker
    count of the former thread pool, and wrappers that forward
    `(fn, items, threads)` positionally, such as perfbench's tracer, still
    pass it.
    """
    return [fn(item) for item in items]
