"""The F_p domain: prime-field scalars and their elimination kernels.

:class:`FpElement` is the element type of the fields ``Fp:<p>``, and the
``*_mod`` kernels run the shared elimination skeleton of
:mod:`cremfan.kernels` on residue rows, with the prime modulus as their
second argument. Only a job over a prime field imports this module:
``Field("Fp", p)`` binds :class:`FpElement`, and ``cremfan.kernels``
resolves the ``*_mod`` names here on first use.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from .kernels import CoverState, _closure, _covers, _fundamental, _kept, _pivots


class FpElement:
    """An element of the prime field F_p. No total order is defined."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __lt__(self, other):
        raise TypeError(f"F_{self.p} carries no total order")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


def residue_vector(vec: Iterable[FpElement]) -> tuple[int, ...]:
    return tuple(x.value for x in vec)


# ---------------------------------------------------------------------------
# kernels


def _monic(v, p: int) -> list[int]:
    lead = next(filter(None, v), 1)
    if lead != 1:
        inv = pow(lead, -1, p)
        v = [x * inv % p for x in v]
    return v


def _reduce_mod(vec, pivots, *, p: int) -> list[int]:
    """The reduced row, scaled to a leading 1 (so pivots are monic)."""
    v = [x % p for x in vec]
    for c, row in pivots:
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return _monic(v, p)


def rank_mod(rows, p: int) -> int:
    return len(_pivots(list(rows), partial(_reduce_mod, p=p)))


def closure_mod(rows, p: int, subset) -> tuple[int, list[int]]:
    return _closure(list(rows), subset, partial(_reduce_mod, p=p))


def fundamental_mod(rows, p: int, subset, asked) -> tuple[list[int], dict[int, int]]:
    return _fundamental(list(rows), subset, asked, partial(_reduce_mod, p=p))


def covers_mod(rows, p: int, flat) -> CoverState:
    return _covers(list(rows), flat, partial(_reduce_mod, p=p), tuple)


def cover_step_mod(state: CoverState, p: int, g: int, skip: int = 0) -> CoverState:
    u = state.reps[g]
    c = u.index(next(filter(None, u)))  # u is monic: u[c] is 1
    support = [(j, y) for j, y in enumerate(u) if y]  # where w - w[c]*u is not w
    covers: dict[tuple, int] = {}
    get = covers.get
    for group, w in _kept(state, skip):
        if w is u:  # the reps are distinct dict keys, so this is cover g alone
            continue
        b = w[c]
        if b:
            # _monic of w - w[c]*u without coordinate c; w's entries are residues
            v = list(w)
            for j, y in support:
                v[j] = (v[j] - b * y) % p
            del v[c]
            lead = next(filter(None, v))
            if lead == 1:
                k = tuple(v)
            else:
                inv = pow(lead, -1, p)
                k = tuple([x * inv % p for x in v])
        else:
            k = w[:c] + w[c + 1:]
        covers[k] = get(k, 0) | group
    return CoverState(state.rank + 1, list(covers.values()), list(covers))
