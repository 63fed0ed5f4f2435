"""Small shared helpers: deterministic worker pools."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import InputError

T = TypeVar("T")
R = TypeVar("R")

_ENV_THREADS = "CREMFAN_THREADS"


def thread_count() -> int:
    """Worker count from the environment; defaults to 1 (serial)."""
    raw = os.environ.get(_ENV_THREADS)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"{_ENV_THREADS} must be an integer, got {raw!r}") from None
    if n < 1:
        raise InputError(f"{_ENV_THREADS} must be positive, got {n}")
    return n


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map preserving input order; parallel when CREMFAN_THREADS > 1.

    Order preservation keeps every downstream report byte-identical
    regardless of the worker count.
    """
    data: Sequence[T] = list(items)
    workers = thread_count()
    if workers <= 1 or len(data) <= 1:
        return [fn(x) for x in data]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, data))

