"""Library-only symmetry code: isomorphisms, automorphisms, nested
collections, ray permutations and the Cremona map as a matrix. No CLI job
imports this module.

The isomorphism search assigns elements one at a time, in order of
scarce line profiles first, and keeps the lines it has mapped consistent:
the line through two assigned elements must go to the line through their
images, of the same size. Each complete assignment is checked on the
first matroid's hyperplanes (``cremona._hyperplane_mismatch``).

``is_nested`` tests a family of connected flats for a nested collection
of the Bergman fan, and ``ray_permutation`` checks that a lattice map
permutes the rays of a ray graph and keeps its edges. ``crem_map`` writes
a Cremona basis's lattice map as an :class:`IntegerLinearMap` on Z^E
(``indicator_map``); the CLI reads its invariants off the basis columns
(``cremona.crem_invariants``) and builds no matrix.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from . import matroid
from .cremona import CremonaData, _hyperplane_mismatch, crem_invariants
from .errors import BudgetExceeded, InputError, InvariantError
from .fan import RayGraph, TropicalPoint
from .kernels import det_int
from .matroid import ElementBijection, Matroid, _members, _SetOnce


def _line_table(M: Matroid):
    """The closures of all pairs, read off the walked levels of M.

    cl{a, b} is the first flat of rank at most 2 that holds a and b: one
    of levels 0 to 2, or E when r(M) <= 2.
    Returns the pair -> line id table, the size of each line, and per
    element the sorted sizes of the lines through it (its line profile).
    """
    r = M.full_rank()
    pair_line: dict[tuple[int, int], int] = {}
    sizes: list[int] = []
    through: list[list[int]] = [[] for _ in range(M.size)]
    levels = [M._level(k) for k in range(min(r, 3))]
    if r <= 2:
        levels.append(((1 << M.size) - 1,))
    for level in levels:
        for F in level:
            points = _members(F)
            spanned = [
                pair for pair in itertools.combinations(points, 2)
                if pair not in pair_line
            ]
            if not spanned:
                continue
            for pair in spanned:
                pair_line[pair] = len(sizes)
            sizes.append(len(points))
            for e in points:
                through[e].append(len(points))
    return pair_line, sizes, [tuple(sorted(th)) for th in through]


def _search(m1: Matroid, m2: Matroid, *, find_all: bool, max_elements: int):
    n = m1.size
    if n != m2.size or m1.full_rank() != m2.full_rank():
        return []
    if n > max_elements:
        raise BudgetExceeded(
            f"isomorphism search over {n} elements exceeds the budget of "
            f"{max_elements}; raise max_elements to override"
        )
    if n == 0:
        return [ElementBijection(())]
    r = m1.full_rank()
    if r:
        m1._level(r - 1, matroid.MAX_COVERS)
        m2._level(r - 1, matroid.MAX_COVERS)
    pair1, sizes1, prof1 = _line_table(m1)
    pair2, sizes2, prof2 = _line_table(m2)
    if sorted(prof1) != sorted(prof2):
        return []
    if any(len(m1._level(k)) != len(m2._level(k)) for k in range(r)):
        return []

    # static order: scarce line profiles first, high incidence degree first
    freq: dict[tuple, int] = {}
    for p in prof1:
        freq[p] = freq.get(p, 0) + 1
    order = sorted(range(n), key=lambda e: (freq[prof1[e]], -len(prof1[e]), e))
    candidates = [
        [x for x in range(n) if prof2[x] == prof1[e]] for e in order
    ]

    assigned: dict[int, int] = {}
    used = [False] * n
    line_map: dict[int, int] = {}
    line_map_rev: dict[int, int] = {}
    results: list[ElementBijection] = []

    def extend(depth: int) -> bool:
        if depth == len(order):
            forward = [0] * n
            for a, x in assigned.items():
                forward[a] = x
            if _hyperplane_mismatch(m1, m2, forward) is not None:
                return False
            results.append(ElementBijection(tuple(forward)))
            return not find_all
        a = order[depth]
        for x in candidates[depth]:
            if used[x]:
                continue
            trail = []
            ok = True
            for b, y in assigned.items():
                l1 = pair1[(a, b) if a < b else (b, a)]
                l2 = pair2[(x, y) if x < y else (y, x)]
                if sizes1[l1] != sizes2[l2]:
                    ok = False
                    break
                bound = line_map.get(l1)
                if bound is None:
                    if line_map_rev.get(l2) is not None:
                        ok = False
                        break
                    line_map[l1] = l2
                    line_map_rev[l2] = l1
                    trail.append((l1, l2))
                elif bound != l2:
                    ok = False
                    break
            if ok:
                assigned[a] = x
                used[x] = True
                if extend(depth + 1):
                    return True
                del assigned[a]
                used[x] = False
            for l1, l2 in trail:
                del line_map[l1]
                del line_map_rev[l2]
        return False

    extend(0)
    return results


def find_isomorphism(
    m1: Matroid, m2: Matroid, *, max_elements: int = 24
) -> ElementBijection | None:
    """A rank-preserving element bijection between two matroids, or None.

    The returned map is checked to carry every hyperplane of m1 onto one of
    m2 (``cremona._hyperplane_mismatch``). Both matroids are walked to their
    hyperplanes under ``matroid.MAX_COVERS``: past it the search raises
    BudgetExceeded with the flats found per rank, and stores nothing.
    """
    found = _search(m1, m2, find_all=False, max_elements=max_elements)
    return found[0] if found else None


def automorphisms(M: Matroid, *, max_elements: int = 24) -> list[ElementBijection]:
    """The full automorphism group as a list of element bijections, found
    and checked as ``find_isomorphism`` finds and checks its map."""
    return _search(M, M, find_all=True, max_elements=max_elements)


# ---------------------------------------------------------------------------
# nested collections and ray permutations


def _validate_ray(M: Matroid, flat) -> int:
    """The bitmask of a nested-set member, each element checked once."""
    F = M._check_subset(flat)
    if not F or F == (1 << M.size) - 1:
        raise InputError("nested-set members must be proper nonempty flats")
    if M._closure_of(F) != F:
        raise InputError(f"{_members(F)} is not a flat")
    if not M._is_connected(F):
        raise InputError(f"flat {_members(F)} is not connected")
    return F


def is_nested(M: Matroid, flats: Sequence, *, max_family: int = 18) -> bool:
    """Whether a family of connected proper flats is a nested collection.

    True iff the join of every subfamily of two or more pairwise
    incomparable members is disconnected. The members and their joins are
    held as bitmasks, and each join's closure and connectivity are asked
    of the mask oracle (``Matroid._closure_of``, ``Matroid._is_connected``).
    """
    masks = [_validate_ray(M, F) for F in flats]
    if len(set(masks)) != len(masks):
        raise InputError("nested-set members must be pairwise distinct")
    if len(masks) > max_family:
        raise BudgetExceeded(
            f"nested check over {len(masks)} flats exceeds the budget of {max_family}"
        )
    n = len(masks)
    incomparable = [[A & B not in (A, B) for B in masks] for A in masks]

    def antichains(start: int, chosen: list[int], union: int):
        if len(chosen) >= 2 and M._is_connected(M._closure_of(union)):
            return False
        for k in range(start, n):
            if all(incomparable[k][i] for i in chosen):
                if not antichains(k + 1, chosen + [k], union | masks[k]):
                    return False
        return True

    return antichains(0, [], 0)


def ray_permutation(graph: RayGraph, linear_map) -> list[int]:
    """How a lattice map permutes the rays of a graph; errors if it does not.

    The map must send each ray's indicator point to another ray's indicator
    point (projectively) and preserve the edge set.
    """
    M = graph.matroid
    index: dict[TropicalPoint, int] = {}
    for i, F in enumerate(graph.vertices):
        index[TropicalPoint.indicator(F.elements, M.size).scaled_primitive()] = i
    perm = []
    for F in graph.vertices:
        image = linear_map.apply(TropicalPoint.indicator(F.elements, M.size))
        j = index.get(image.scaled_primitive())
        if j is None:
            raise InvariantError("map does not permute the fan rays")
        perm.append(j)
    if sorted(perm) != list(range(len(graph.vertices))):
        raise InvariantError("map is not injective on the fan rays")
    edge_set = {frozenset(e) for e in graph.edges}
    mapped = {frozenset((perm[a], perm[b])) for a, b in graph.edges}
    if mapped != edge_set:
        raise InvariantError("map does not preserve ray adjacency")
    return perm


# ---------------------------------------------------------------------------
# integer linear maps on Z^E


class IntegerLinearMap(_SetOnce):
    """An integer matrix acting on Z^E; column k is the image of v_k.

    ``moved``, when given, holds every column that is not the unit vector at
    its own index (``indicator_map`` passes its assigned elements)."""

    __slots__ = ("matrix", "moved", "_one_cache", "_qdet_cache")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], *,
                 moved: Sequence[int] | None = None):
        m = len(matrix)
        if any(len(row) != m for row in matrix):
            raise InputError("integer linear map must be square")
        self.matrix = matrix
        self.moved = moved

    def __eq__(self, other):
        if not isinstance(other, IntegerLinearMap):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k] for row in self.matrix)

    def apply_vector(self, w: Sequence) -> tuple:
        m = self.size
        if len(w) != m:
            raise InputError("vector length does not match the map size")
        return tuple(sum(self.matrix[i][j] * w[j] for j in range(m)) for i in range(m))

    def apply(self, point: TropicalPoint | Sequence) -> TropicalPoint:
        if not isinstance(point, TropicalPoint):
            point = TropicalPoint.of(point)
        return TropicalPoint.of(self.apply_vector(point.weights))

    def one_multiple(self) -> int | None:
        """c when the all-ones vector maps to c*(all-ones), else None."""
        if not hasattr(self, "_one_cache"):
            sums = {sum(row) for row in self.matrix}
            self._one_cache = sums.pop() if len(sums) == 1 else None
        return self._one_cache

    def quotient_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The induced matrix on Z^E / Z*1 in the basis v_0..v_{m-2}.

        Modulo the all-ones vector, v_{m-1} = -(v_0 + ... + v_{m-2}), so
        the induced matrix subtracts the last row from every other row and
        drops the last row and column.
        """
        m = self.size
        A = self.matrix
        return tuple(
            tuple(A[i][j] - A[m - 1][j] for j in range(m - 1)) for i in range(m - 1)
        )

    def quotient_determinant(self) -> int:
        """The determinant of ``quotient_matrix``. When A*1 = c*1 with c
        nonzero, det A = c * det Q, and det A = det A[K, K] for any K that
        holds the columns that are not the unit vector at their own index:
        ``moved``, or else the columns found by a scan. For a Cremona map K
        is the basis: an r x r determinant in place of an (m - 1) x (m - 1)
        one, with no m x m transpose."""
        if not hasattr(self, "_qdet_cache"):
            A, c, m = self.matrix, self.one_multiple(), self.size
            if c:
                K = self.moved if self.moved is not None else [
                    k for k, col in enumerate(zip(*A)) if col[k] != 1 or col.count(0) < m - 1
                ]
                self._qdet_cache = det_int([[A[i][j] for j in K] for i in K]) // c
            else:
                self._qdet_cache = det_int(self.quotient_matrix())
        return self._qdet_cache

    @property
    def is_lattice_isomorphism(self) -> bool:
        return abs(self.quotient_determinant()) == 1


def indicator_map(M: Matroid, assignment: dict[int, Iterable[int]]) -> IntegerLinearMap:
    """The map sending v_e to the indicator vector of assignment[e].

    Elements missing from the assignment are fixed (v_e maps to v_e).
    """
    m = M.size
    bad_keys = [e for e in assignment if not (isinstance(e, int) and 0 <= e < m)]
    if bad_keys:
        raise InputError(f"assignment keys out of range: {sorted(bad_keys)}")
    rows = [[0] * m for _ in range(m)]
    for e in range(m):
        if e not in assignment:
            rows[e][e] = 1
    moved = sorted(assignment)
    for e in moved:
        target = frozenset(assignment[e])
        if not all(isinstance(x, int) and 0 <= x < m for x in target):
            raise InputError(f"assignment for element {e} is out of range")
        for i in target:
            rows[i][e] = 1
    return IntegerLinearMap(tuple(map(tuple, rows)), moved=moved)


def crem_map(data: CremonaData) -> IntegerLinearMap:
    """The lattice map of a Cremona basis: v_{b_j} to v_{B_j}, others fixed.

    Raises InvariantError where ``crem_invariants`` does, before the m x m
    matrix is built; its ``one_multiple`` and ``quotient_determinant`` are
    the c and the determinant found there. The CLI reports those two and
    calls ``crem_invariants`` alone.
    """
    crem_invariants(data)
    assignment = {b: data.corank_flats[j] for j, b in enumerate(data.basis)}
    return indicator_map(data.matroid, assignment)
