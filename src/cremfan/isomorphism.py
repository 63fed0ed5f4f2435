"""Isomorphism and automorphism search between matroids.

The search assigns elements one at a time, in order of scarce line
profiles first, and keeps the lines it has mapped consistent: the line
through two assigned elements must go to the line through their images,
of the same size. Each complete assignment is checked against the full
flat censuses (``census_mismatch``). No CLI job imports this module.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Sequence

from .errors import BudgetExceeded
from .matroid import ElementBijection, Matroid, _members, census_mismatch


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
