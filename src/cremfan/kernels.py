"""Exact elimination kernels: rank, closure, covers and determinant.

Plain Python on unbounded integers, so no input can overflow. Each domain
(Z, Z[sqrt5], F_p) has one elimination step, ``_reduce_*``: it reduces a
row against a list of pivots. Every entry point spans rows with the one
shared loop ``_pivots``, which reduces the rows in order, each against the
pivots found so far, and keeps every nonzero result as a new pivot, led
by its first nonzero coordinate.

Conventions:

* integer matrices are sequences of equal-length int tuples (row vectors);
* ``*_quad`` variants take Z[sqrt5] rows flattened pairwise as
  ``(a0, b0, a1, b1, ...)`` meaning ``a + b*sqrt5`` per coordinate;
* ``*_mod`` variants take residue rows and the prime modulus;
* ``closure_*`` spans the rows named by ``subset`` (index list) and
  returns ``(rank, members)`` with ``members`` the sorted indices of *all*
  rows lying in the subset's span;
* ``covers_*`` spans the rows of a flat once and reduces every other row
  modulo their span; rows whose reduced vectors are proportional span the
  same cover of the flat. It returns the flat's *cover state*
  (:class:`CoverState`): its pivots and, per cover, the sorted indices of
  the cover's rows outside the flat (``groups``, ordered by least index)
  and the reduced row of the least of them (``reps``). Rows inside the
  span are skipped (a flat has none outside it);
* ``cover_step_*(state, g)`` is the cover state of the flat's ``g``-th
  cover G, by one more elimination step from the flat's state: that
  cover's row becomes the next pivot, one step reduces the row of every
  other cover, and covers whose rows become proportional merge. One row per
  cover is enough: a cover C of F other than G meets G in F, and for e in
  C - F the closure of G + e contains C, so all of C - F lies in one
  cover of G;
* ``_reduce_*(v, pivots, start)`` continues a row already reduced by
  ``pivots[:start]`` with the rest of the pivots; from ``start = 0`` it is
  the full reduction;
* ``det_int`` is the determinant of a square integer matrix.

Over Z and Z[sqrt5] the step is Bareiss fraction-free elimination: every
entry of a reduced row is a minor of the input (the pivot rows and the row,
on the pivot columns and one more), so the division by the previous pivot
is exact over any integral domain, in any order of pivot columns. Over F_p
pivots are scaled to a leading 1. Reducing a row multiplies it by one
nonzero scalar and subtracts a vector of the span, so the reduction is
linear and two reduced rows are proportional exactly when the rows span
the same cover. A row carries no memory of where its reduction stopped:
over Z the next step divides by the lead entry of pivot ``start - 1``, over
Z[sqrt5] by that pivot's lead (a, b) pair, and over F_p nothing carries
over, so a stepped row equals the row reduced in one go by the same pivots.
"""

from __future__ import annotations

from functools import partial
from math import gcd

# the kernel implementation's name, recorded in every perfbench result
ACTIVE_BACKEND = "pure"


def _pivots(rows, reduce, width: int) -> list[tuple[int, list[int]]]:
    """Pivots spanning the rows, as (leading position, reduced row) pairs.

    Stops at ``width`` pivots, where the span is the whole space.
    """
    pivots = []
    for row in rows:
        v = reduce(row, pivots)
        lead = next(filter(None, v), 0)
        if lead:
            pivots.append((v.index(lead), v))
            if len(pivots) == width:
                break
    return pivots


def _closure(rows, subset, reduce, width: int) -> tuple[int, list[int]]:
    pivots = _pivots([rows[i] for i in subset], reduce, width)
    inside = set(subset)
    return len(pivots), [
        i for i, row in enumerate(rows) if i in inside or not any(reduce(row, pivots))
    ]


class CoverState:
    """A flat's pivots and, per cover, its rows outside the flat and the
    reduced row of the least of them."""

    __slots__ = ("pivots", "groups", "reps")

    def __init__(self, pivots: list[tuple[int, list[int]]], groups: list[list[int]],
                 reps: list[list[int]]):
        self.pivots, self.groups, self.reps = pivots, groups, reps

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _covers(rows, flat, reduce, width: int, key) -> CoverState:
    pivots = _pivots([rows[i] for i in flat], reduce, width)
    inside = set(flat)
    covers: dict[tuple, tuple[list[int], list[int]]] = {}
    for i, row in enumerate(rows):
        if i not in inside:
            v = reduce(row, pivots)
            if any(v):
                k = key(v)
                if k in covers:
                    covers[k][0].append(i)
                else:
                    covers[k] = ([i], v)
    return CoverState(
        pivots, [g for g, _ in covers.values()], [v for _, v in covers.values()]
    )


def _cover_step(state: CoverState, g: int, reduce, key) -> CoverState:
    pivots, groups, reps = state.pivots, state.groups, state.reps
    v = reps[g]
    pivots = [*pivots, (v.index(next(filter(None, v))), v)]
    start = len(pivots) - 1
    at: dict[tuple, int] = {}
    merged, kept = [], []
    for group, rep in zip(groups[:g] + groups[g + 1:], reps[:g] + reps[g + 1:]):
        w = reduce(rep, pivots, start)
        k = key(w)
        j = at.get(k)
        if j is None:
            at[k] = len(merged)
            merged.append(group)
            kept.append(w)
        else:
            # a new list: the parent state's lists are shared with its
            # other covers; the merged cover keeps its least row
            merged[j] = sorted(merged[j] + group)
    return CoverState(pivots, merged, kept)


def _width(rows, step: int = 1) -> int:
    return len(rows[0]) // step if rows else 0


def _primitive_key(v) -> tuple[int, ...]:
    # divide by the gcd and make the first nonzero entry positive
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v])


# -- Z -----------------------------------------------------------------------


def _reduce_int(vec, pivots, start: int = 0) -> list[int]:
    v = list(vec)
    n = len(v)
    prev = 1
    if start:
        c, row = pivots[start - 1]
        prev = row[c]
        pivots = pivots[start:]
    for c, row in pivots:
        pivot, vc = row[c], v[c]
        for j in range(n):
            v[j] = (pivot * v[j] - vc * row[j]) // prev
        prev = pivot
    return v


def rank_int(rows) -> int:
    rows = list(rows)
    return len(_pivots(rows, _reduce_int, _width(rows)))


def closure_int(rows, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    return _closure(rows, subset, _reduce_int, _width(rows))


def covers_int(rows, flat) -> CoverState:
    rows = list(rows)
    return _covers(rows, flat, _reduce_int, _width(rows), _primitive_key)


def cover_step_int(state: CoverState, g: int) -> CoverState:
    return _cover_step(state, g, _reduce_int, _primitive_key)


def det_int(rows) -> int:
    """Determinant of a square integer matrix.

    The last pivot is the minor on the pivot columns in the order they were
    found, so the determinant is that pivot signed by the parity of the
    column permutation; it is 0 when some row reduces to zero.
    """
    rows = list(rows)
    pivots = _pivots(rows, _reduce_int, len(rows))
    if len(pivots) < len(rows):
        return 0
    if not pivots:
        return 1
    cols = [c for c, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    c, last = pivots[-1]
    return -last[c] if inversions % 2 else last[c]


# -- Z[sqrt5]: coordinates are (a, b) pairs at flat positions 2j, 2j+1 -------


def _reduce_quad(vec, pivots, start: int = 0) -> list[int]:
    v = list(vec)
    pa, pb = 1, 0  # previous pivot, starts at 1
    if start:
        c, row = pivots[start - 1]
        ca = c - c % 2
        pa, pb = row[ca], row[ca + 1]
        pivots = pivots[start:]
    for c, row in pivots:
        ca = c - c % 2  # the pivot coordinate's a position
        va, vb = row[ca], row[ca + 1]
        ua, ub = v[ca], v[ca + 1]
        pn = pa * pa - 5 * pb * pb  # norm of the previous pivot (divisor)
        for ja in range(0, len(v), 2):
            xa, xb = v[ja], v[ja + 1]
            ya, yb = row[ja], row[ja + 1]
            # pivot*x - u*y, then exact division by prev = (pa, pb):
            # multiply by its conjugate and divide by its norm
            ta = va * xa + 5 * vb * xb - (ua * ya + 5 * ub * yb)
            tb = va * xb + vb * xa - (ua * yb + ub * ya)
            v[ja] = (ta * pa - 5 * tb * pb) // pn
            v[ja + 1] = (tb * pa - ta * pb) // pn
        pa, pb = va, vb
    return v


def _quad_key(v) -> tuple[int, ...]:
    # times the conjugate a - b*sqrt5 of the first nonzero coordinate, that
    # coordinate becomes the rational a^2 - 5b^2; proportional vectors then
    # differ by a rational factor, which the primitive form removes
    k = next(j for j in range(0, len(v), 2) if v[j] or v[j + 1])
    a, b = v[k], -v[k + 1]
    scaled = []
    for j in range(0, len(v), 2):
        x, y = v[j], v[j + 1]
        scaled += (a * x + 5 * b * y, a * y + b * x)
    return _primitive_key(scaled)


def rank_quad(rows) -> int:
    rows = list(rows)
    return len(_pivots(rows, _reduce_quad, _width(rows, 2)))


def closure_quad(rows, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    return _closure(rows, subset, _reduce_quad, _width(rows, 2))


def covers_quad(rows, flat) -> CoverState:
    rows = list(rows)
    return _covers(rows, flat, _reduce_quad, _width(rows, 2), _quad_key)


def cover_step_quad(state: CoverState, g: int) -> CoverState:
    return _cover_step(state, g, _reduce_quad, _quad_key)


# -- F_p ---------------------------------------------------------------------


def _reduce_mod(vec, pivots, start: int = 0, *, p: int) -> list[int]:
    """The reduced row, scaled to a leading 1 (so pivots are monic)."""
    v = [x % p for x in vec]
    for c, row in pivots[start:] if start else pivots:
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    lead = next(filter(None, v), 1)
    if lead != 1:
        inv = pow(lead, -1, p)
        v = [x * inv % p for x in v]
    return v


def rank_mod(rows, p: int) -> int:
    rows = list(rows)
    return len(_pivots(rows, partial(_reduce_mod, p=p), _width(rows)))


def closure_mod(rows, p: int, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    return _closure(rows, subset, partial(_reduce_mod, p=p), _width(rows))


def covers_mod(rows, p: int, flat) -> CoverState:
    rows = list(rows)
    return _covers(rows, flat, partial(_reduce_mod, p=p), _width(rows), tuple)


def cover_step_mod(state: CoverState, p: int, g: int) -> CoverState:
    return _cover_step(state, g, partial(_reduce_mod, p=p), tuple)
