"""Kernel dispatch: compiled extension when available, pure Python otherwise.

Set ``CREMFAN_PURE=1`` to force the pure twin. The compiled kernels raise
``OverflowError`` for inputs whose minors might not fit in 64 bits; such
calls are transparently retried on the pure twin, so callers never see the
guard. The ``covers_*`` kernels exist only in pure form and are served from
it on every backend.
"""

from __future__ import annotations

import os

from . import _kernels_py as _pure

if os.environ.get("CREMFAN_PURE"):
    _fast = None
else:
    try:
        from . import _kernels as _fast  # type: ignore[attr-defined]
    except ImportError:
        _fast = None

ACTIVE_BACKEND = _fast.BACKEND_NAME if _fast is not None else _pure.BACKEND_NAME


def _dispatch(name):
    pure_fn = getattr(_pure, name)
    if _fast is None:
        return pure_fn
    fast_fn = getattr(_fast, name)

    def call(*args):
        try:
            return fast_fn(*args)
        except OverflowError:
            return pure_fn(*args)

    call.__name__ = name
    return call


rank_int = _dispatch("rank_int")
closure_int = _dispatch("closure_int")
rank_quad = _dispatch("rank_quad")
closure_quad = _dispatch("closure_quad")
rank_mod = _dispatch("rank_mod")
closure_mod = _dispatch("closure_mod")
covers_int = _pure.covers_int
covers_quad = _pure.covers_quad
covers_mod = _pure.covers_mod
