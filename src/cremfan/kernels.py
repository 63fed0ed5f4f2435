"""Exact elimination kernels: rank, closure, fundamental circuits, covers and
determinant.

Plain Python on unbounded integers, so no input can overflow. Each domain
(Z, Z[sqrt5], F_p) has one elimination step, ``_reduce_*``: it reduces a
row against a list of pivots. Every entry point spans rows with the one
shared loop ``_pivots``, which reduces the rows in order, each against the
pivots found so far, and keeps every nonzero result as a new pivot, led
by its first nonzero coordinate.

This module holds that shared skeleton (``_pivots``, ``_closure``,
``_tagged``, ``_fundamental``, ``_covers``, ``_kept``, ``CoverState``)
and the Z kernels. The Z[sqrt5] kernels live in :mod:`cremfan.quad` and
the F_p kernels in :mod:`cremfan.fp`, so a job over Q compiles neither.
Their public names still resolve here (PEP 562 ``__getattr__``), because the
vector backends read every kernel through this module, and perfbench's
tracer and ``benchmarks/bench_kernels.py`` wrap them here: a replacement
set on this module before a matroid is built is the function its backend
calls. The first lookup of ``kernels.rank_quad``, say, imports its home
module and stores the function in this module's globals, so later
lookups are plain dict hits. The private steps (``_reduce_quad``,
``_reduce_mod``, ``_quad_key``, ``_monic``) are read in their homes.

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
  row named by ``asked``, with zero tags, once (``_tagged``, also the
  linear certificate's). It returns B and each asked row of span(B)
  mapped to its support in B, the bitmask of its nonzero tags (bit j for
  B[j]): the reduction is lambda*row - sum_j mu_j*(B[j], unit j) with
  lambda nonzero, 0 off the tags exactly when lambda*row is the
  combination of B with the mu_j;
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
  inside the bitmask ``skip`` (``skip = 0``, the default, drops none). The
  lattice walk passes the union of the covers of G it has already
  recorded, at every rank: all of C - F lies in one cover of G, so a
  dropped cover C is part of one of those, and the state keeps G's other
  covers alone. Each of them is whole when every cover of F inside it is
  in F's state, as the walk keeps it (``Matroid._walk`` has the proof), so
  the arithmetic runs on the directions of covers not yet recorded;
* ``det_int`` is the determinant of a square integer matrix (Bareiss).

The rows' reflections in their own hyperplanes are :mod:`cremfan.orbits`'s.

Over Z a step against a pivot (c, row) is skipped when the row is 0 at c;
otherwise it is v = row[c]*v - v[c]*row, divided by its content (the gcd of
its entries), so the pivots of primitive rows are primitive. Over Z[sqrt5]
the step is Bareiss fraction-free elimination: every entry of a reduced
row is a minor of the input (the pivot rows and the row, on the pivot
columns and one more), so the division by the previous pivot is exact over
any integral domain, in any order of pivot columns. Over F_p a pivot the
row is 0 at is skipped too, and pivots are scaled to a leading 1.

Each pivot is 0 at the leads of the pivots before it, so reducing a row
against them in order multiplies it by one nonzero scalar and subtracts a
vector of the span, leaving it 0 at every lead. Up to that scalar the
result is unique, as the span meets the vectors that are 0 at every lead
in 0 alone. So it is 0 exactly on the span, two reduced rows are
proportional exactly when the rows span the same cover, and the Z
reduction has the zeros and the line of the Bareiss row (it is that row
divided by its content, up to sign, once a step has run). Its sign is read
nowhere: covers take the canonical form, closures and supports the zeros.
``det_int`` alone needs the values of Bareiss's minors, and runs its own
Bareiss loop.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

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


def _tagged(rows, subset, asked, reduce, step: int = 1) -> tuple[list[int], dict[int, list[int]]]:
    """``fundamental_*``'s B, and each asked row of span(B) mapped to its
    tags, the -mu_j: its coordinates in B times -lambda (unit j for B[j])."""
    kept: list[int] = []
    _pivots([rows[i] for i in subset], reduce, step, kept)
    basis = [subset[k] for k in kept]
    n, tags = _width(rows), [0] * (len(basis) * step)
    # basis row j carries the unit tag j, a 1 at its first tag position
    units = {b: [*tags[:j * step], 1, *tags[j * step + 1:]] for j, b in enumerate(basis)}
    pivots = _pivots([[*rows[b], *unit] for b, unit in units.items()], reduce, step)
    spanned = {}
    for i in asked:
        if i in units:
            spanned[i] = units[i]
        elif not any((v := reduce([*rows[i], *tags], pivots))[:n]):
            spanned[i] = v[n:]
    return basis, spanned


def _fundamental(rows, subset, asked, reduce) -> tuple[list[int], dict[int, int]]:
    # one position per tag: the sum of distinct bits is their union
    basis, spanned = _tagged(rows, subset, asked, reduce)
    return basis, {i: sum(1 << k for k, x in enumerate(t) if x) for i, t in spanned.items()}


# a flat's rank and, per cover, the bitmask of its rows outside the flat and
# its quotient direction; reps=None marks a state made by closures
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


def _primitive_key(v) -> tuple[int, ...]:
    # divide by the gcd and make the first nonzero entry positive
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v])


# -- Z -----------------------------------------------------------------------


def _reduce_int(vec, pivots) -> list[int]:
    """The reduced row, divided by its content after each step; a pivot
    whose lead the row is 0 at is skipped, and a row no step changes is
    returned as given."""
    v = list(vec)
    for c, row in pivots:
        b = v[c]
        if b:
            a = row[c]
            v = [a * x - b * y for x, y in zip(v, row)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
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


def det_int(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss fraction-free
    elimination.

    Each row is reduced against the pivots found so far, and every entry of
    a reduced row is a minor of the input (the pivot rows and the row, on
    the pivot columns and one more), so the division by the previous pivot
    is exact, in any order of pivot columns. The last pivot is the minor on
    the pivot columns in the order they were found, so the determinant is
    that pivot signed by the parity of the column permutation; it is 0 when
    some row reduces to zero.
    """
    pivots = []
    for row in rows:
        v, prev = list(row), 1
        for c, pivot in pivots:
            a, b = pivot[c], v[c]
            v = [(a * x - b * y) // prev for x, y in zip(v, pivot)]
            prev = a
        lead = next(filter(None, v), 0)
        if not lead:
            return 0
        pivots.append((v.index(lead), v))
    if not pivots:
        return 1
    cols = [c for c, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    c, last = pivots[-1]
    return -last[c] if inversions % 2 else last[c]


# the public Z[sqrt5] and F_p kernels, resolved from their homes on first use
_QUAD = frozenset({
    "rank_quad", "closure_quad", "fundamental_quad", "covers_quad", "cover_step_quad",
})
_FP = frozenset({"rank_mod", "closure_mod", "fundamental_mod", "covers_mod", "cover_step_mod"})


def __getattr__(name: str):
    if name in _QUAD:
        from . import quad as home
    elif name in _FP:
        from . import fp as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
