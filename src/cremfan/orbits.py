"""The automorphisms the lattice walk fills orbits with, for vector
matroids closed under their own reflections, the simple reflections that
certify element maps, and the linear certificate of their symmetries.

``reflections`` makes one reflection pass over the rows (the reflection
s_r(v) = v - 2 <r, v> / <r, r> r in the hyperplane of row r, standard
inner product, Z[sqrt5] taken in the reals). It returns None unless the
rows are nonzero, pairwise non-proportional and closed up to sign and
scale under these reflections; else ``Reflections``: the element
permutations of two automorphisms and of the simple reflections. A
reflection is certified by its n images: each is looked up by its
canonical projective form, and the reflection is linear and invertible
and maps every row onto a multiple of a row, hence maps flats to flats of
the same rank. It is kept as a signed permutation: row j's root goes to
k, a positive multiple of row k's root, or to ~k, a negative one. The
pass certifies a row's reflection only when the reflections certified so
far have not reached the row. They reach row w from a known s_v when a
certified s_b maps row v onto +-row w: s_b is orthogonal, so
s_w = s_{s_b(v)} = s_b s_v s_b (Humphreys, Reflection Groups and Coxeter
Groups, 1990, 1.2 and 1.14), one lookup per row on signed indices and no
vector arithmetic. A conjugate of maps that keep the rows keeps them, so
the pass fails exactly when a certified reflection does, which is exactly
when the rows are not reflection-closed; E8 certifies 9 of its 120
reflections, H4 4 of 60. The simple reflections are those of the
lexicographic chamber: a root (the row scaled to a positive leading
coordinate) is positive, and a positive root is simple when its
reflection turns no other positive root negative (a positive system
defined by a linear order; Humphreys, 1.4 and 1.6). They are kept in row
order, s_1, ..., s_r, each with the row of its root; these rows are a
basis of the rows (Humphreys, 1.3), and ``cremona._map_mismatch``
certifies element maps with them. The two automorphisms are
c = s_1 ... s_r, a Coxeter element, and s_1: two image tables for the
fill instead of r.

``Matroid._walk`` fills orbits with c and s_1. Let H be any group of
automorphisms of M, given by generators. Each level of flats is a union of
H-orbits, and so is each level of connected flats. A flat G of rank j + 1
covers a flat F of rank j (in the connected walk: a connected F, the walk's
own argument in :mod:`cremfan.fan`), F = h R for the flat R of its orbit
that the walk expanded, and h^-1 G covers R. So the covers of the expanded
flats of level j, with their orbits, are all of level j + 1: one flat per
orbit needs its covers, and every other flat of a level is reached as the
image of a bitmask under the generators. That holds for any generators,
the trivial group included, and does not need them to generate the
reflection group; the orbits of a smaller group are only more numerous.

An image is read off 8-bit tables (``_tables``): per generator and per
byte of a bitmask, the image of each of its 256 values, so the image of a
flat is the sum of one lookup per byte (the images of disjoint bits are
disjoint). An orbit is filled with images under the generators alone:
each has finite order, so its inverse is one of its powers. The full walk
stores as each image's value the image of its preimage's value: an
automorphism maps a flat G covering F onto a flat covering the image of
F, so ``Matroid._connected_levels`` still reads a flat that the key covers.

``linear_automorphisms`` certifies that an element permutation phi is an
automorphism of a vector configuration (v_e) over Z, Z[sqrt5] or F_p: a
linear map T with T v_e = c_e v_phi(e), c_e nonzero, for every e (Oxley,
Matroid Theory, 2nd ed., 2011, ch. 6). One elimination with tag columns
(``kernels._tagged``) writes each v_e in a basis B as x_e, another writes
each v_f in phi(B), in B's order, as y_f, both up to a nonzero factor per
row. T exists exactly when phi(B) is a basis, x_e and y_phi(e) have one
support, and y_phi(e)[b] = lam_b nu_e x_e[b] on it (then T v_b = lam_b
v_phi(b), up to the row factors): O(n r^2) field operations and no walk.
It is sound, not complete: an automorphism that no linear map makes is
refused.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from math import gcd
from operator import getitem, mul

from .kernels import _primitive_key, _reduce_int, _tagged

# the element permutations of c and s_1, which the walk fills orbits with,
# and each simple reflection's, in row order, keyed by the row of its root
Reflections = namedtuple("Reflections", "generators simple")


def reflections(rows, kind: str) -> Reflections | None:
    """The reflection pass's ``Reflections`` (module docstring), or None
    unless the rows, over Z ("Q") or Z[sqrt5] ("Qsqrt5"), are
    reflection-closed."""
    # simple: no zero row, and no two rows on one line
    if not all(map(any, rows)):
        return None
    images = _images_int(rows) if kind == "Q" else _images_quad(rows)
    if images is None:
        return None
    # s_r is simple when it turns no positive root but r itself negative
    simple = {u: perm for u, (perm, turned) in enumerate(images) if turned == 1}
    perms = list(simple.values())
    c = list(range(len(rows)))
    for s in perms:
        c = [c[x] for x in s]
    return Reflections([c, perms[0]] if perms else [], simple)


def _images_int(rows):
    """Per row r, the element permutation of s_r and the number of positive
    roots it turns negative (``_conjugates``); None when two rows are
    proportional or a certified reflection maps a row onto a multiple of no
    row. The roots are the rows with a positive lead, and a root's image is
    looked up with its sign: -p maps to ~j for the root p of row j."""
    roots = [_primitive_key(v) for v in rows]
    index: dict[tuple[int, ...], int] = {}
    for j, p in enumerate(roots):
        index[p], index[tuple([-x for x in p])] = j, ~j
    if len(index) < 2 * len(roots):
        return None

    def reflection(u):
        r = roots[u]
        rr = sum(map(mul, r, r))
        signed = list(range(len(roots)))
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
                signed[j] = k
        return signed

    return _conjugates(len(roots), reflection)


def _images_quad(rows):
    """``_images_int`` over Z[sqrt5], embedded in the reals: each image is
    looked up by ``_quad_key``, and its sign read off its lead."""
    from .quad import _quad_key

    index = {_quad_key(v): j for j, v in enumerate(rows)}
    if len(index) < len(rows):
        return None
    signs = [_sign_quad(v) for v in rows]

    def reflection(u):
        r = rows[u]
        p, q = _dot_quad(r, r)  # positive
        signed = list(range(len(rows)))
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
                # row j's root is turned negative when w's sign is not row j's
                signed[j] = k if _sign_quad(w) == signs[j] else ~k
        return signed

    return _conjugates(len(rows), reflection)


def _conjugates(n: int, reflection):
    """Per row u, the element permutation of s_u and the number of positive
    roots it turns negative, from its signed permutation: ``reflection(u)``,
    the image of each row's root as k, a positive multiple of row k's root,
    or ~k, a negative one, or None when some image is a multiple of no row.

    ``reflection`` runs only for a row not yet reached, which it certifies.
    The reached rows are closed under the certified reflections by
    conjugation: when s_b maps row v onto +-row w, s_w = s_b s_v s_b, one
    lookup per row (module docstring). None when a certified reflection
    fails, which happens exactly when the rows are not reflection-closed."""
    # per row, its reflection's signed permutation, extended by s[~j] = ~s[j]
    # so that it takes signed indices too (a list reads ~j = -1 - j from its end)
    signed: list[list[int] | None] = [None] * n
    reached: list[int] = []
    certified: list[list[int]] = []

    def reach(b, v):
        # s_w = s_b s_v s_b, for the row w that s_b maps row v onto
        w = b[v]
        if w < 0:
            w = ~w
        if signed[w] is None:
            t = signed[v]
            s = list(map(b.__getitem__, map(t.__getitem__, b[:n])))
            signed[w] = s + [~x for x in reversed(s)]
            reached.append(w)

    for u in range(n):
        if signed[u] is not None:
            continue
        s = reflection(u)
        if s is None:
            return None
        b = signed[u] = s + [~x for x in reversed(s)]
        certified.append(b)
        old = len(reached)
        reached.append(u)
        # the rows reached before: only the new reflection is new to them
        for v in reached[:old]:
            reach(b, v)
        k = old
        while k < len(reached):  # the list grows as the rows are reached
            v = reached[k]
            for g in certified:
                reach(g, v)
            k += 1
    unsign = [*range(n), *reversed(range(n))]  # unsign[~j] = j
    images = []
    for s in signed:
        head = s[:n]
        # 0 > x: the rows whose root s turns negative
        images.append((list(map(unsign.__getitem__, head)), sum(map((0).__gt__, head))))
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


def fill_orbit(level: dict, G: int, tables, width: int, keys: dict | None = None) -> list[int]:
    """Record in ``level`` the orbit of its key G under the permutations
    with these ``_tables``, on bitmasks of ``width`` bytes, and return it, G
    first. With ``keys``, the orbit of level[G] with each bitmask mapped to
    itself, an image Y = h(X) is recorded with h(level[X]) as its key
    object there (module docstring); else with None."""
    orbit = [G]
    for X in orbit:  # the list grows as the orbit fills
        xs = X.to_bytes(width, "little")
        fs = None if keys is None else level[X].to_bytes(width, "little")
        for table in tables:
            Y = sum(map(getitem, table, xs))
            if Y not in level:
                level[Y] = None if keys is None else keys[sum(map(getitem, table, fs))]
                orbit.append(Y)
    return orbit


def linear_automorphisms(backend, perms: list[list[int]]) -> list[list[int]]:
    """The element permutations of ``perms`` that the linear certificate
    (module docstring) accepts as automorphisms of the vectors of
    ``backend``, a VectorBackend: one elimination for a basis B, and one
    per permutation phi for phi(B)."""
    eliminate, split, mul, zero, one = _domain(backend.field)
    rows, every = backend._rows, range(len(backend._rows))
    basis, xs = eliminate(rows, every, every)
    xs = list(map(split, xs.values()))
    accepted = []
    for phi in perms:
        image, ys = eliminate(rows, [phi[b] for b in basis], every)
        if len(image) == len(basis) and _factors(xs, [split(ys[f]) for f in phi], mul, zero, one):
            accepted.append(phi)
    return accepted


def _domain(field):
    # the tagged elimination of the field's rows (``kernels._tagged``), a row
    # of its tags as scalars, their product, 0 and 1: over Z[sqrt5]
    # pairs (a, b) for a + b sqrt5, over F_p residues
    if field.kind == "Qsqrt5":
        from .quad import _reduce_quad

        return (
            partial(_tagged, reduce=_reduce_quad, step=2),
            lambda tags: list(zip(tags[::2], tags[1::2])),
            lambda u, v: (u[0] * v[0] + 5 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]),
            (0, 0), (1, 0),
        )
    if field.kind == "Fp":
        from .fp import _reduce_mod

        p = field.p
        eliminate = partial(_tagged, reduce=partial(_reduce_mod, p=p))
        return eliminate, list, lambda u, v: u * v % p, 0, 1
    return partial(_tagged, reduce=_reduce_int), list, mul, 0, 1


def _factors(xs, ys, mul, zero, one) -> bool:
    """Whether, for each row e, ys[e] and xs[e] have one support and
    ys[e][b] = lam_b nu_e xs[e][b] on it, for some nonzero lam and nu.

    The support graph joins each row e to the coordinates b of its support.
    Along a spanning forest, grown from each coordinate not yet reached
    with lam_b = 1, each new lam_b or nu_e is the fraction that makes its
    tree edge hold: a pair (num, den) of nonzero domain elements, so no
    division is made. Then every edge is checked, by cross-multiplying."""
    supports = []
    through: list[list[int]] = [[] for _ in xs[0]] if xs else []
    for e, (x, y) in enumerate(zip(xs, ys)):
        support = [b for b, t in enumerate(x) if t != zero]
        if support != [b for b, t in enumerate(y) if t != zero]:
            return False
        supports.append(support)
        for b in support:
            through[b].append(e)
    lam: list[tuple | None] = [None] * len(through)
    nu: list[tuple | None] = [None] * len(xs)
    for root in range(len(through)):
        if lam[root] is not None:
            continue
        lam[root] = (one, one)
        tree = [root]
        for b in tree:  # the list grows as the forest does
            ln, ld = lam[b]
            for e in through[b]:
                if nu[e] is None:
                    # y = lam_b nu_e x: nu_e = y ld / (ln x)
                    nn, nd = nu[e] = (mul(ys[e][b], ld), mul(ln, xs[e][b]))
                    for c in supports[e]:
                        if lam[c] is None:
                            lam[c] = (mul(ys[e][c], nd), mul(nn, xs[e][c]))
                            tree.append(c)
    return all(
        mul(mul(ys[e][b], lam[b][1]), nu[e][1]) == mul(mul(lam[b][0], nu[e][0]), xs[e][b])
        for e, support in enumerate(supports) for b in support
    )
