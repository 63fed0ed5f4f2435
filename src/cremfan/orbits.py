"""The lattice walk by orbits, for vector matroids closed under their own
reflections.

``generators`` makes one pass over the n^2 reflection images of the rows
(the reflection s_r(v) = v - 2 <r, v> / <r, r> r in the hyperplane of row
r, standard inner product, Z[sqrt5] taken in the reals). It returns None
unless the rows are nonzero, pairwise non-proportional and closed up to
sign and scale under these reflections; else the element permutations of
two automorphisms. A row's image is looked up by its canonical projective
form, so each permutation is certified by that lookup: the reflection is
linear and invertible and maps every row onto a multiple of a row, hence
maps flats to flats of the same rank. The two are read off the simple
reflections of the lexicographic chamber: a root (the row scaled to a
positive leading coordinate) is positive, and a positive root is simple
when its reflection turns no other positive root negative (a positive
system defined by a linear order; Humphreys, Reflection Groups and Coxeter
Groups, 1.4 and 1.6). They are c = s_1 ... s_r, a Coxeter element, and
s_1, for s_1, ..., s_r the simple reflections in row order: two image
tables for the fill instead of r.

``walk`` builds levels 0 to k one at a time. Let H be any group of
automorphisms of M, given by generators. Each level of flats is a union of
H-orbits, and so is each level of connected flats. A flat G of rank j + 1
covers a flat F of rank j (in the connected walk: a connected F, the walk's
own argument in :mod:`cremfan.fan`), F = h R for the representative R of
its orbit, and h^-1 G covers R. So the covers of the representatives of
level j, with their orbits, are all of level j + 1: only a representative
needs its covers, and every other flat of a level is reached as the image
of a bitmask under the generators. That holds for any generators, the
trivial group included, and does not need them to generate the reflection
group; the orbits of a smaller group are only more numerous. On a vector
matroid the root's cover state is eliminated once (``covers_fast``) and
each new representative's state is one ``cover_step`` from the state of
the representative it covers; elsewhere each representative's covers take
one closure per cover. The levels are stored, in canonical order, only
when the walk completes.

An image is read off 8-bit tables: per generator and per byte of a
bitmask, the image of each of its 256 values, so the image of a flat is
the sum of one lookup per byte (the images of disjoint bits are disjoint).
An orbit is filled with images under the generators alone: each has
finite order, so its inverse is one of its powers.
The full walk stores as each image's value the image of its preimage's
value: an automorphism maps a flat G covering F onto a flat covering the
image of F, so ``Matroid._connected_levels`` still reads a flat that the key
covers.
"""

from __future__ import annotations

from math import gcd
from operator import getitem, mul

from .kernels import _primitive_key
from .matroid import _budget_exceeded, _canonical_key, _members


def generators(rows, kind: str) -> list[list[int]] | None:
    """The element permutations of the automorphisms c and s_1 (module
    docstring), or None unless the rows, over Z ("Q") or Z[sqrt5]
    ("Qsqrt5"), are reflection-closed."""
    # simple: no zero row, and no two rows on one line
    if not all(map(any, rows)):
        return None
    images = _images_int(rows) if kind == "Q" else _images_quad(rows)
    if images is None:
        return None
    # s_r is simple when it turns no positive root but r itself negative
    simple = [perm for perm, turned in images if turned == 1]
    if not simple:  # no rows
        return []
    c = simple[0]
    for s in simple[1:]:
        c = [c[x] for x in s]
    return [c, simple[0]]


def _images_int(rows):
    """Per row r, the element permutation of s_r and the number of positive
    roots it turns negative; None when two rows are proportional or some
    image is a multiple of no row. The roots are the rows with a positive
    lead, and a root's image is looked up with its sign: -p maps to ~j for
    the root p of row j."""
    roots = [_primitive_key(v) for v in rows]
    index: dict[tuple[int, ...], int] = {}
    for j, p in enumerate(roots):
        index[p], index[tuple([-x for x in p])] = j, ~j
    if len(index) < 2 * len(roots):
        return None
    images = []
    for r in roots:
        rr = sum(map(mul, r, r))
        perm, turned = list(range(len(roots))), 0
        for j, v in enumerate(roots):
            rv = sum(map(mul, r, v))
            if rv:
                # s_r(v) = v - q r when <r, r> divides 2 <r, v>, else <r, r> s_r(v)
                q, rest = divmod(2 * rv, rr)
                if rest:
                    w = [rr * x - 2 * rv * y for x, y in zip(v, r)]
                else:
                    w = [x - q * y for x, y in zip(v, r)]
                g = gcd(*w)
                k = index.get(tuple(w) if g == 1 else tuple([x // g for x in w]))
                if k is None:
                    return None
                if k < 0:
                    k, turned = ~k, turned + 1
                perm[j] = k
        images.append((perm, turned))
    return images


def _images_quad(rows):
    """``_images_int`` over Z[sqrt5], embedded in the reals: each image is
    looked up by ``_quad_key``, and its sign read off its lead."""
    from .quad import _quad_key

    index = {_quad_key(v): j for j, v in enumerate(rows)}
    if len(index) < len(rows):
        return None
    signs = [_sign_quad(v) for v in rows]
    images = []
    for r in rows:
        p, q = _dot_quad(r, r)  # positive
        perm, turned = list(range(len(rows))), 0
        for j, v in enumerate(rows):
            s, t = _dot_quad(r, v)
            if s or t:
                # <r, r> s_r(v) = <r, r> v - 2 <r, v> r
                w = []
                for i in range(0, len(v), 2):
                    xa, xb, ya, yb = v[i], v[i + 1], r[i], r[i + 1]
                    w += (p * xa + 5 * q * xb - 2 * (s * ya + 5 * t * yb),
                          p * xb + q * xa - 2 * (s * yb + t * ya))
                k = index.get(_quad_key(w))
                if k is None:
                    return None
                perm[j] = k
                turned += _sign_quad(w) != signs[j]
        images.append((perm, turned))
    return images


def _dot_quad(u, v) -> tuple[int, int]:
    a = b = 0
    for j in range(0, len(u), 2):
        ua, ub, va, vb = u[j], u[j + 1], v[j], v[j + 1]
        a += ua * va + 5 * ub * vb
        b += ua * vb + ub * va
    return a, b


def _sign_quad(v) -> bool:
    # whether the first nonzero a + b*sqrt5 is positive in the reals
    k = next(j for j in range(0, len(v), 2) if v[j] or v[j + 1])
    a, b = v[k], v[k + 1]
    if a * b >= 0:
        return a + b > 0
    return (a > 0) == (a * a > 5 * b * b)


def _tables(perm: list[int]) -> list[list[int]]:
    """Per byte of a bitmask, the image under ``perm`` of each of its 256 values."""
    tables = []
    for start in range(0, len(perm), 8):
        bits = [1 << e for e in perm[start:start + 8]]
        bits += [0] * (8 - len(bits))  # past the last element: in no bitmask
        table = [0] * 256
        for x in range(1, 256):
            low = x & -x
            table[x] = table[x ^ low] | bits[low.bit_length() - 1]
        tables.append(table)
    return tables


def walk(M, k: int, max_covers: int | None, perms: list[list[int]],
         connected: bool = False) -> None:
    """Store levels 0 to k of M, walked by the orbits of the automorphisms
    ``perms`` (module docstring), in ``M._flats_cache``, or, ``connected``,
    its connected levels in ``M._connected_cache``.

    The connected walk records a cover G of a flat F of rank 1 or more
    only when |G - F| >= 2, as in :mod:`cremfan.fan`. Before it expands
    level j, the walk counts every cover of every flat of the level, as
    the sum over its representatives R of |orbit(R)| * |covers(R)|, so the
    budget ``max_covers`` stops the walks the depth-first walk
    (``Matroid._walk``) stops; past it the walk raises BudgetExceeded with
    the flats of the levels it completed, and stores nothing.
    """
    tables = [_tables(perm) for perm in perms]
    width = (M.size + 7) // 8

    root = M._closure_of(0)
    if k and M._root_state is None and getattr(M.backend, "covers_fast", None):
        M._root_state = M.backend.covers_fast(tuple(_members(root)))
    # cl(empty set) has no element, so it is not connected
    levels = [{} if connected else {root: None}]
    # per representative of the level: its bitmask, orbit size and cover state
    reps = [(root, 1, M._root_state)]
    issued = 0
    for j in range(k):
        covers = [
            list(M._covers(R)) if state is None else [R | g for g in state.groups]
            for R, _, state in reps
        ]
        issued += sum(size * len(Gs) for (_, size, _), Gs in zip(reps, covers))
        if max_covers is not None and issued > max_covers:
            counts = [len(level) for level in levels[1:]]
            raise _budget_exceeded(k, max_covers, counts + [0] * (k - j), connected)
        level: dict[int, int | None] = {}
        # the full walk's values are the very key objects of the level below
        below = None if connected else dict(zip(levels[j], levels[j]))
        found = []
        for (R, _, state), Gs in zip(reps, covers):
            for g, G in enumerate(Gs):
                if G in level or connected and j and (G & ~R).bit_count() < 2:
                    continue
                level[G] = None if connected else R
                orbit = [G]
                for X in orbit:  # the list grows as the orbit fills
                    F = level[X]
                    xs = X.to_bytes(width, "little")
                    fs = None if F is None else F.to_bytes(width, "little")
                    for table in tables:
                        Y = sum(map(getitem, table, xs))
                        if Y not in level:
                            level[Y] = None if fs is None else below[sum(map(getitem, table, fs))]
                            orbit.append(Y)
                if j + 1 < k:
                    step = None if state is None else M.backend.cover_step(state, g)
                    found.append((G, len(orbit), step))
        levels.append(level)
        reps = found
    stored = {}
    for j, level in enumerate(levels):
        Gs = sorted(level, key=_canonical_key)
        stored[j] = dict.fromkeys(Gs) if connected else {G: level[G] for G in Gs}
        levels[j] = None  # freed level by level
    if connected:
        M._connected_cache = stored
    else:
        M._flats_cache = stored
