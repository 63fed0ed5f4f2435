"""Exact elimination kernels: rank, closure and covers over Z, Z[sqrt5], F_p.

Plain Python on unbounded integers, so no input can overflow. Every entry
point runs one of the private ``_echelon_*`` eliminations and reduces rows
through the matching ``_reduce_*``; none calls another entry point.

Conventions:

* integer matrices are sequences of equal-length int tuples (row vectors);
* ``*_quad`` variants take Z[sqrt5] rows flattened pairwise as
  ``(a0, b0, a1, b1, ...)`` meaning ``a + b*sqrt5`` per coordinate;
* ``*_mod`` variants take residue rows and the prime modulus;
* ``closure_*`` echelonizes the rows named by ``subset`` (index list) and
  returns ``(rank, members)`` with ``members`` the sorted indices of *all*
  rows lying in the subset's span;
* ``covers_*`` echelonizes the rows of a flat once and reduces every other
  row modulo their span; rows whose reduced vectors are proportional span
  the same cover of the flat. It returns ``(rank, groups)``: the flat's
  rank and, per cover, the sorted indices of its rows outside the flat,
  ordered by least index. Rows inside the span are skipped (a flat has
  none outside it).

Rank uses Bareiss fraction-free elimination: every intermediate value is a
minor of the input, and the division by the previous pivot is exact over
any integral domain, so Z and Z[sqrt5] rows need no field arithmetic.
Reducing a row against the pivots multiplies it by one scalar (the last
pivot) and subtracts a vector of the span, so the reduction is linear and
two reduced rows are proportional exactly when the rows span the same
cover.
"""

from __future__ import annotations

from math import gcd

# the kernel implementation's name, recorded in every perfbench result
ACTIVE_BACKEND = "pure"


def _echelon_int(mat: list[list[int]], ncols: int):
    """In-place Bareiss echelon. Returns (rank, pivots).

    pivots is a list of (column, frozen pivot row, pivot value); divisor
    chain for later reductions is 1, p1, p2, ...
    """
    pivots = []
    prev = 1
    r = 0
    nrows = len(mat)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row_r = mat[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            row_i = mat[i]
            vc = row_i[c]
            for j in range(ncols):
                row_i[j] = (pivot * row_i[j] - vc * row_r[j]) // prev
        pivots.append((c, tuple(row_r), pivot))
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r, pivots


def _reduce_int(vec, pivots, ncols: int) -> list[int]:
    v = list(vec)
    prev = 1
    for c, row, pivot in pivots:
        vc = v[c]
        for j in range(ncols):
            v[j] = (pivot * v[j] - vc * row[j]) // prev
        prev = pivot
    return v


def _primitive_key(v) -> tuple[int, ...]:
    # divide by the gcd and make the first nonzero entry positive
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v])


def _group_covers(rows, flat, reduce, key) -> list[list[int]]:
    inside = set(flat)
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        if i not in inside:
            v = reduce(row)
            if any(v):
                groups.setdefault(key(v), []).append(i)
    return list(groups.values())


def rank_int(rows) -> int:
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    r, _ = _echelon_int([list(r) for r in rows], ncols)
    return r


def closure_int(rows, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    mat = [list(rows[i]) for i in subset]
    rank, pivots = _echelon_int(mat, ncols)
    members = [
        i for i, row in enumerate(rows) if not any(_reduce_int(row, pivots, ncols))
    ]
    return rank, members


def covers_int(rows, flat) -> tuple[int, list[list[int]]]:
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    rank, pivots = _echelon_int([list(rows[i]) for i in flat], ncols)
    return rank, _group_covers(
        rows, flat, lambda v: _reduce_int(v, pivots, ncols), _primitive_key
    )


# -- Z[sqrt5]: coordinates are (a, b) pairs at flat positions 2j, 2j+1 -------


def _echelon_quad(mat: list[list[int]], npairs: int):
    pivots = []
    pa, pb = 1, 0  # previous pivot, starts at 1
    r = 0
    nrows = len(mat)
    for c in range(npairs):
        ca = 2 * c
        pr = None
        for i in range(r, nrows):
            if mat[i][ca] or mat[i][ca + 1]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row_r = mat[r]
        va, vb = row_r[ca], row_r[ca + 1]
        pn = pa * pa - 5 * pb * pb  # norm of previous pivot (divisor)
        for i in range(r + 1, nrows):
            row_i = mat[i]
            ua, ub = row_i[ca], row_i[ca + 1]
            for j in range(npairs):
                ja = 2 * j
                xa, xb = row_i[ja], row_i[ja + 1]
                ya, yb = row_r[ja], row_r[ja + 1]
                # pivot*x - u*y, then exact division by prev = (pa, pb)
                ta = va * xa + 5 * vb * xb - (ua * ya + 5 * ub * yb)
                tb = va * xb + vb * xa - (ua * yb + ub * ya)
                # multiply by conjugate of prev and divide by its norm
                row_i[ja] = (ta * pa - 5 * tb * pb) // pn
                row_i[ja + 1] = (tb * pa - ta * pb) // pn
        pivots.append((c, tuple(row_r), va, vb))
        pa, pb = va, vb
        r += 1
        if r == nrows:
            break
    return r, pivots


def _reduce_quad(vec, pivots, npairs: int) -> list[int]:
    v = list(vec)
    pa, pb = 1, 0
    for c, row, va, vb in pivots:
        ca = 2 * c
        ua, ub = v[ca], v[ca + 1]
        pn = pa * pa - 5 * pb * pb
        for j in range(npairs):
            ja = 2 * j
            xa, xb = v[ja], v[ja + 1]
            ya, yb = row[ja], row[ja + 1]
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
    if not rows:
        return 0
    npairs = len(rows[0]) // 2
    r, _ = _echelon_quad([list(r) for r in rows], npairs)
    return r


def closure_quad(rows, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    npairs = (len(rows[0]) // 2) if rows else 0
    mat = [list(rows[i]) for i in subset]
    rank, pivots = _echelon_quad(mat, npairs)
    members = [
        i for i, row in enumerate(rows) if not any(_reduce_quad(row, pivots, npairs))
    ]
    return rank, members


def covers_quad(rows, flat) -> tuple[int, list[list[int]]]:
    rows = list(rows)
    npairs = (len(rows[0]) // 2) if rows else 0
    rank, pivots = _echelon_quad([list(rows[i]) for i in flat], npairs)
    return rank, _group_covers(
        rows, flat, lambda v: _reduce_quad(v, pivots, npairs), _quad_key
    )


# -- F_p ---------------------------------------------------------------------


def _echelon_mod(mat: list[list[int]], ncols: int, p: int):
    """Row-reduce mod p; pivot rows are normalized to leading 1."""
    pivots = []
    r = 0
    nrows = len(mat)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        row_r = mat[r]
        for i in range(r + 1, nrows):
            f = mat[i][c] % p
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], row_r)]
        pivots.append((c, tuple(row_r)))
        r += 1
        if r == nrows:
            break
    return r, pivots


def _reduce_mod(vec, pivots, p: int) -> list[int]:
    v = [x % p for x in vec]
    for c, row in pivots:
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def rank_mod(rows, p: int) -> int:
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    r, _ = _echelon_mod([list(r) for r in rows], ncols, p)
    return r


def closure_mod(rows, p: int, subset) -> tuple[int, list[int]]:
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    mat = [list(rows[i]) for i in subset]
    rank, pivots = _echelon_mod(mat, ncols, p)
    members = [
        i for i, row in enumerate(rows) if not any(_reduce_mod(row, pivots, p))
    ]
    return rank, members


def covers_mod(rows, p: int, flat) -> tuple[int, list[list[int]]]:
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    rank, pivots = _echelon_mod([list(rows[i]) for i in flat], ncols, p)

    def monic(v):
        # scale the first nonzero entry to 1
        inv = pow(next(filter(None, v)), -1, p)
        return tuple([x * inv % p for x in v])

    return rank, _group_covers(rows, flat, lambda v: _reduce_mod(v, pivots, p), monic)
