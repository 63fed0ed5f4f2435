"""Exact elimination kernels: rank, closure, fundamental circuits, covers and
determinant.

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
* ``fundamental_*`` walks the rows named by ``subset`` in order to a
  greedy basis B, spans B's rows with |B| tag coordinates appended (unit
  vector j on row B[j]; over Z[sqrt5] one pair per tag) and reduces each
  row named by ``asked``, with zero tags, once. It returns B and each
  asked row of span(B) mapped to its support in B, the bitmask of its
  nonzero tags (bit j for B[j]): the reduction is
  lambda*row - sum_j mu_j*(B[j], unit j) with lambda nonzero, 0 off the
  tags exactly when lambda*row is the combination of B with the mu_j;
* ``covers_*`` spans the rows of a flat F of rank k once and reduces every
  other row modulo their span. A reduced row is 0 on the pivot coordinates;
  the other n - k coordinates are the row's direction in the quotient
  V/span(F), and rows of proportional directions span the same cover. It
  returns F's *cover state* (:class:`CoverState`): k and, per cover, the
  bitmask of its rows outside F (``groups``: bit i set for row i, ordered
  by least row) and its direction in canonical projective form (``reps``,
  also the key that groups rows): primitive over Z with a positive lead,
  ``_quad_key`` over Z[sqrt5], monic over F_p;
* ``cover_step_*(state, g)`` is the cover state of F's ``g``-th cover G, by
  one loop per domain over F's other covers, with the quotient and its
  canonical form written inline (over Z[sqrt5], one ``_quad_key`` call per
  cover): with u the rep of G and c its first nonzero coordinate, every
  other rep w becomes u[c]*w - w[c]*u without coordinate c (w without c
  when w[c] = 0; the product w[c]*u is taken on u's nonzero coordinates
  alone), in the canonical form of ``covers_*``, and covers whose
  reps agree merge into the union of their masks. The map is linear, kills
  u and is onto, so it writes V/span(G) in n - k - 1 coordinates. One rep
  per cover is enough: a cover C of F other than G meets G in F, and for e
  in C - F the closure of G + e contains C, so all of C - F lies in one
  cover of G;
* ``cover_step_*(state, g, skip)`` first drops F's covers whose groups lie
  inside the bitmask ``skip`` (``skip = 0``, the default, drops none). A
  walk passes the union of the covers of G it has already recorded: all of
  C - F lies in one cover of G, so a dropped cover C gives one of those
  again, and the state keeps G's other covers alone;
* ``reflection_closed_*`` says whether the rows are nonzero, pairwise
  non-proportional and closed up to sign and scale under the reflections
  s_r(v) = v - 2 <r, v> / <r, r> r in their own hyperplanes (standard
  inner product, Z[sqrt5] taken in the reals): each <r, r> s_r(v) must have
  the canonical projective form of a row;
* ``det_int`` is the determinant of a square integer matrix.

Over Z and Z[sqrt5] the step is Bareiss fraction-free elimination: every
entry of a reduced row is a minor of the input (the pivot rows and the row,
on the pivot columns and one more), so the division by the previous pivot
is exact over any integral domain, in any order of pivot columns. Over F_p
pivots are scaled to a leading 1. Reducing a row multiplies it by one
nonzero scalar and subtracts a vector of the span, so it is 0 exactly on
the span and two reduced rows are proportional exactly when the rows span
the same cover.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from math import gcd
from operator import mul

# the kernel implementation's name, recorded in every perfbench result
ACTIVE_BACKEND = "pure"


def _pivots(rows, reduce, step: int = 1, kept=None) -> list[tuple[int, list[int]]]:
    """Pivots spanning the rows, as (leading position, reduced row) pairs.

    Stops at one pivot per coordinate (of ``step`` positions), where the
    span is the whole space. ``kept`` gets the index of each row that gave
    a pivot: a greedy basis of the rows.
    """
    pivots, width = [], _width(rows, step)
    for i, row in enumerate(rows):
        v = reduce(row, pivots)
        lead = next(filter(None, v), 0)
        if lead:
            pivots.append((v.index(lead), v))
            if kept is not None:
                kept.append(i)
            if len(pivots) == width:
                break
    return pivots


def _closure(rows, subset, reduce, step: int = 1) -> tuple[int, list[int]]:
    pivots = _pivots([rows[i] for i in subset], reduce, step)
    inside = set(subset)
    return len(pivots), [
        i for i, row in enumerate(rows) if i in inside or not any(reduce(row, pivots))
    ]


def _fundamental(rows, subset, asked, reduce, step: int = 1) -> tuple[list[int], dict[int, int]]:
    kept: list[int] = []
    _pivots([rows[i] for i in subset], reduce, step, kept)
    basis = [subset[k] for k in kept]
    n, tags = _width(rows), [0] * (len(basis) * step)
    # basis row j carries the unit tag j, a 1 at its first tag position
    pivots = _pivots([
        [*rows[b], *(int(k == j * step) for k in range(len(tags)))] for j, b in enumerate(basis)
    ], reduce, step)
    position = {b: j for j, b in enumerate(basis)}
    supports = {}
    for i in asked:
        if i in position:
            supports[i] = 1 << position[i]
            continue
        v = reduce([*rows[i], *tags], pivots)
        if not any(v[:n]):
            # the sum of distinct bits is their union
            supports[i] = sum({1 << k // step for k, x in enumerate(v[n:]) if x})
    return basis, supports


# a flat's rank and, per cover, the bitmask of its rows outside the flat and
# its quotient direction
CoverState = namedtuple("CoverState", "rank groups reps")


def _covers(rows, flat, reduce, key, step: int = 1) -> CoverState:
    pivots = _pivots([rows[i] for i in flat], reduce, step)
    # every reduced row is 0 on the pivot coordinates; the rest are the quotient's
    pivot_coords = {c - c % step + j for c, _ in pivots for j in range(step)}
    free = [j for j in range(_width(rows)) if j not in pivot_coords]
    inside = set(flat)
    covers: dict[tuple, int] = {}
    for i, row in enumerate(rows):
        if i not in inside:
            v = reduce(row, pivots)
            if any(v):
                k = key([v[j] for j in free])
                covers[k] = covers.get(k, 0) | 1 << i
    return CoverState(len(pivots), list(covers.values()), list(covers))


def _kept(state: CoverState, skip: int):
    """The (group, rep) pairs of a cover state whose groups leave ``skip``."""
    pairs = zip(state.groups, state.reps)
    return [pair for pair in pairs if pair[0] & ~skip] if skip else pairs


def _width(rows, step: int = 1) -> int:
    return len(rows[0]) // step if rows else 0


def _reflection_closed(rows, key, images) -> bool:
    # simple: no zero row, and no two rows on one line
    if not all(map(any, rows)):
        return False
    keys = set(map(key, rows))
    return len(keys) == len(rows) and all(
        key(w) in keys for r in rows for w in images(r, rows)
    )


def _primitive_key(v) -> tuple[int, ...]:
    # divide by the gcd and make the first nonzero entry positive
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v])


# -- Z -----------------------------------------------------------------------


def _reduce_int(vec, pivots) -> list[int]:
    v = list(vec)
    n = len(v)
    prev = 1
    for c, row in pivots:
        pivot, vc = row[c], v[c]
        for j in range(n):
            v[j] = (pivot * v[j] - vc * row[j]) // prev
        prev = pivot
    return v


def rank_int(rows) -> int:
    return len(_pivots(list(rows), _reduce_int))


def closure_int(rows, subset) -> tuple[int, list[int]]:
    return _closure(list(rows), subset, _reduce_int)


def fundamental_int(rows, subset, asked) -> tuple[list[int], dict[int, int]]:
    return _fundamental(list(rows), subset, asked, _reduce_int)


def covers_int(rows, flat) -> CoverState:
    return _covers(list(rows), flat, _reduce_int, _primitive_key)


def cover_step_int(state: CoverState, g: int, skip: int = 0) -> CoverState:
    u = state.reps[g]
    c = u.index(next(filter(None, u)))
    a = u[c]
    support = [(j, y) for j, y in enumerate(u) if y]  # where u[c]*w - w[c]*u is not u[c]*w
    covers: dict[tuple, int] = {}
    get = covers.get
    for group, w in _kept(state, skip):
        if w is u:  # the reps are distinct dict keys, so this is cover g alone
            continue
        b = w[c]
        if b:
            # _primitive_key of u[c]*w - w[c]*u without coordinate c
            v = list(w) if a == 1 else [a * x for x in w]
            for j, y in support:
                v[j] -= b * y
            del v[c]
            d = gcd(*v)
            if next(filter(None, v)) < 0:
                d = -d
            k = tuple(v) if d == 1 else tuple([x // d for x in v])
        else:
            k = w[:c] + w[c + 1:]
        covers[k] = get(k, 0) | group
    return CoverState(state.rank + 1, list(covers.values()), list(covers))


def _reflections_int(r, rows):
    # <r, r> s_r(v) = <r, r> v - 2 <r, v> r for each v not orthogonal to r
    rr = sum(map(mul, r, r))
    for v in rows:
        rv = sum(map(mul, r, v))
        if rv:
            yield [rr * x - 2 * rv * y for x, y in zip(v, r)]


def reflection_closed_int(rows) -> bool:
    """Whether the rows are nonzero, pairwise non-proportional and closed,
    up to sign and scale, under the reflections in their own hyperplanes
    (standard inner product)."""
    return _reflection_closed(list(rows), _primitive_key, _reflections_int)


def det_int(rows) -> int:
    """Determinant of a square integer matrix.

    The last pivot is the minor on the pivot columns in the order they were
    found, so the determinant is that pivot signed by the parity of the
    column permutation; it is 0 when some row reduces to zero.
    """
    rows = list(rows)
    pivots = _pivots(rows, _reduce_int)
    if len(pivots) < len(rows):
        return 0
    if not pivots:
        return 1
    cols = [c for c, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    c, last = pivots[-1]
    return -last[c] if inversions % 2 else last[c]


# -- Z[sqrt5]: coordinates are (a, b) pairs at flat positions 2j, 2j+1 -------


def _reduce_quad(vec, pivots) -> list[int]:
    v = list(vec)
    pa, pb = 1, 0  # previous pivot, starts at 1
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
    return len(_pivots(list(rows), _reduce_quad, 2))


def closure_quad(rows, subset) -> tuple[int, list[int]]:
    return _closure(list(rows), subset, _reduce_quad, 2)


def fundamental_quad(rows, subset, asked) -> tuple[list[int], dict[int, int]]:
    return _fundamental(list(rows), subset, asked, _reduce_quad, 2)


def covers_quad(rows, flat) -> CoverState:
    return _covers(list(rows), flat, _reduce_quad, _quad_key, 2)


def cover_step_quad(state: CoverState, g: int, skip: int = 0) -> CoverState:
    u = state.reps[g]
    # u's first nonzero coordinate, at even position c, is a rational a (the
    # _quad_key form); w's coordinate there is p + q*sqrt5
    c = u.index(next(filter(None, u)))
    a = u[c]
    # the coordinates where a*w - (p + q*sqrt5)*u is not a*w
    support = [(j, u[j], u[j + 1]) for j in range(0, len(u), 2) if u[j] or u[j + 1]]
    covers: dict[tuple, int] = {}
    get = covers.get
    for group, w in _kept(state, skip):
        if w is u:  # the reps are distinct dict keys, so this is cover g alone
            continue
        p, q = w[c], w[c + 1]
        if p or q:
            v = list(w) if a == 1 else [a * x for x in w]
            for j, ya, yb in support:
                v[j] -= p * ya + 5 * q * yb
                v[j + 1] -= p * yb + q * ya
            del v[c:c + 2]
            k = _quad_key(v)
        else:
            k = w[:c] + w[c + 2:]
        covers[k] = get(k, 0) | group
    return CoverState(state.rank + 1, list(covers.values()), list(covers))


def _dot_quad(u, v) -> tuple[int, int]:
    a = b = 0
    for j in range(0, len(u), 2):
        ua, ub, va, vb = u[j], u[j + 1], v[j], v[j + 1]
        a += ua * va + 5 * ub * vb
        b += ua * vb + ub * va
    return a, b


def _reflections_quad(r, rows):
    # as _reflections_int, with the products taken in Z[sqrt5]
    p, q = _dot_quad(r, r)
    for v in rows:
        s, t = _dot_quad(r, v)
        if s or t:
            w = []
            for j in range(0, len(v), 2):
                xa, xb, ya, yb = v[j], v[j + 1], r[j], r[j + 1]
                w += (p * xa + 5 * q * xb - 2 * (s * ya + 5 * t * yb),
                      p * xb + q * xa - 2 * (s * yb + t * ya))
            yield w


def reflection_closed_quad(rows) -> bool:
    """``reflection_closed_int`` over Z[sqrt5], embedded in the reals."""
    return _reflection_closed(list(rows), _quad_key, _reflections_quad)


# -- F_p ---------------------------------------------------------------------


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
