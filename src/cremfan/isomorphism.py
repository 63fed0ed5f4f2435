"""Library-only symmetry code: isomorphisms, automorphisms, nested
collections and ray permutations. No CLI job imports this module.

The isomorphism search assigns elements one at a time, in order of
scarce line profiles first, and keeps the lines it has mapped consistent:
the line through two assigned elements must go to the line through their
images, of the same size. Each complete assignment is checked against the
full flat censuses (``census_mismatch``).

``is_nested`` tests a family of connected flats for a nested collection
of the Bergman fan, and ``ray_permutation`` checks that a lattice map
permutes the rays of a ray graph and keeps its edges.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Sequence

from .errors import BudgetExceeded, InputError, InvariantError
from .fan import RayGraph, TropicalPoint
from .matroid import ElementBijection, Flat, Matroid, _members, census_mismatch


def _line_table(census: Sequence[AbstractSet[int]], n: int):
    """The closures of all pairs, read off a flat census of an n-element matroid.

    cl{a, b} is the first flat of rank at most 2 that holds a and b.
    Returns the pair -> line id table, the size of each line, and per
    element the sorted sizes of the lines through it (its line profile).
    """
    pair_line: dict[tuple[int, int], int] = {}
    sizes: list[int] = []
    through: list[list[int]] = [[] for _ in range(n)]
    for level in census[:3]:
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
    census1, census2 = m1.flat_census(), m2.flat_census()
    pair1, sizes1, prof1 = _line_table(census1, n)
    pair2, sizes2, prof2 = _line_table(census2, n)
    if sorted(prof1) != sorted(prof2):
        return []
    if [len(level) for level in census1] != [len(level) for level in census2]:
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
            if census_mismatch(census1, census2, forward) is not None:
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

    The returned map carries flats to flats of equal rank in both
    directions (verified against the full flat censuses before returning).
    """
    found = _search(m1, m2, find_all=False, max_elements=max_elements)
    return found[0] if found else None


def automorphisms(M: Matroid, *, max_elements: int = 24) -> list[ElementBijection]:
    """The full automorphism group as a list of element bijections."""
    return _search(M, M, find_all=True, max_elements=max_elements)


# ---------------------------------------------------------------------------
# nested collections and ray permutations


def _validate_ray(M: Matroid, flat) -> frozenset[int]:
    elems = frozenset(flat.elements if isinstance(flat, Flat) else flat)
    if not elems or len(elems) == M.size:
        raise InputError("nested-set members must be proper nonempty flats")
    if not M.is_flat(elems):
        raise InputError(f"{sorted(elems)} is not a flat")
    if not M.is_connected(elems):
        raise InputError(f"flat {sorted(elems)} is not connected")
    return elems


def is_nested(M: Matroid, flats: Sequence, *, max_family: int = 18) -> bool:
    """Whether a family of connected proper flats is a nested collection.

    True iff the join of every subfamily of two or more pairwise
    incomparable members is disconnected.
    """
    sets = [_validate_ray(M, F) for F in flats]
    if len(set(sets)) != len(sets):
        raise InputError("nested-set members must be pairwise distinct")
    if len(sets) > max_family:
        raise BudgetExceeded(
            f"nested check over {len(sets)} flats exceeds the budget of {max_family}"
        )
    n = len(sets)
    incomparable = [
        [not (sets[i] <= sets[j] or sets[j] <= sets[i]) for j in range(n)]
        for i in range(n)
    ]

    def antichains(start: int, chosen: list[int]):
        if len(chosen) >= 2:
            union = frozenset().union(*(sets[i] for i in chosen))
            join = M.closure(union)
            if M.is_connected(join.elements):
                return False
        for k in range(start, n):
            if all(incomparable[k][i] for i in chosen):
                if not antichains(k + 1, chosen + [k]):
                    return False
        return True

    return antichains(0, [])


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
