"""The exact-cover search for the Cremona bases of a simple matroid.

``cremona.enumerate_cremona_bases`` imports this module when it runs, so
the jobs that check, pair or realize given bases do not compile the
search. The pair remainders cl{a, b} \\ {a, b} come from the lines of
three or more points (``_line_remainders``), and the bases from a
backtracking exact cover over them (``_exact_cover_bases``).
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded
from .matroid import Matroid, _members


def _long_lines(M: Matroid) -> list[int]:
    """The lines of three or more points of a simple matroid of rank at least 2.

    They are its connected lines, as bitmasks, so stored connected lines
    (after ``fan.graph_S``) answer them; else they are read off the full
    walk's lines by point count, which costs no connectivity filter.
    """
    if 2 in M._connected_cache:
        return list(M._connected_cache[2])
    return [line for line in M._level(2) if line.bit_count() >= 3]


def _line_remainders(M: Matroid) -> tuple[list[list[int]], list[list[tuple[int, list[int]]]]]:
    """The pair remainders of a simple matroid of rank at least 2, read off its lines.

    Returns ``rem`` with ``rem[a][b]`` the bitmask of cl{a, b} \\ {a, b},
    which is L - {a, b} for the one line L through a and b, and
    ``through`` with ``through[u]`` the lines of three or more points
    through u as (bitmask, the points other than u).  Two-point lines
    leave a zero remainder.
    """
    n = M.size
    rem = [[0] * n for _ in range(n)]
    through: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for mask in _long_lines(M):
        points = _members(mask)
        for i, a in enumerate(points):
            through[a].append((mask, [x for x in points if x != a]))
            for b in points[i + 1:]:
                rem[a][b] = rem[b][a] = mask & ~(1 << a | 1 << b)
    return rem, through


def _exact_cover_bases(M: Matroid, max_nodes: int) -> tuple[list[tuple[int, ...]], int]:
    """The Cremona bases of a simple matroid in search order, and the nodes visited.

    A Cremona basis b is an exact cover: every element lies in b or in the
    remainder of exactly one pair of b.  A search node holds a partial b
    and the union of its pairs' remainders.  It branches on the least
    uncovered element u (Knuth's Algorithm X): either u joins b, or the
    members missing from b of one pair {f, g} with u in rem[f][g] join b.
    An option that would put a point of b or an already covered point
    into a new remainder is dead, since no Cremona basis extends it.  The
    branches are complete and disjoint for any uncovered u: a Cremona
    basis extending the node covers u either by itself or through the one
    pair whose remainder holds u.  So each basis is found once.

    A node with k members is pruned by counting.  With l the most points
    on any line, a remainder holds at most l - 2 points.  The remainders of
    pairs inside the partial basis are already covered, so a Cremona basis
    extending the node covers its free elements with the r - k new members
    and the remainders of the C(r, 2) - C(k, 2) pairs with a new member: at
    most (r - k) + (C(r, 2) - C(k, 2))(l - 2) elements.  (E8: 120 > 8 + 28
    at the root.  At k = r the bound is 0, so a full b must leave none.)

    No rank query is needed.  Every remainder lies in cl(b), so an
    r-element b covering everything spans M and is a basis.  The
    remainders of a basis avoid it and are pairwise disjoint: two lines
    through disjoint pairs of an independent 4-set meet in a flat of rank
    at most 2 + 2 - 4 = 0, and two lines through one basis element meet
    only there.  So every leaf is a Cremona basis.
    """
    n, r = M.size, M.full_rank()
    rem, through = _line_remainders(M)
    full = (1 << n) - 1
    # l - 2, the most points one remainder can hold
    spare = max((len(points) - 1 for lines in through for _line, points in lines), default=0)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def visit(b: list[int], bmask: int, covered: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                f"the Cremona search stopped after {max_nodes} nodes with "
                f"{len(found)} bases found so far; raise max_nodes to override"
            )
        taken = bmask | covered
        free = full & ~taken
        k = len(b)
        if not free:
            if k == r:
                found.append(tuple(sorted(b)))
            return
        if free.bit_count() > r - k + (r * (r - 1) - k * (k - 1)) // 2 * spare:
            return
        # An element x of b blocks every other point of a line through x
        # that already holds a point of b or of a remainder: joining b
        # would put that point into the element's remainder with x.
        blocked = taken
        for x in b:
            others = taken & ~(1 << x)
            for line, _points in through[x]:
                if line & others:
                    blocked |= line
        # the live ways to cover the least free element u
        u = (free & -free).bit_length() - 1
        options: list[tuple[int, ...]] = [] if blocked >> u & 1 else [(u,)]
        for line, points in through[u]:
            if line & covered:
                continue
            open_points = [g for g in points if not blocked >> g & 1]
            if line & bmask:
                # one member f of b is on the line; one more point joins
                options += [(g,) for g in open_points]
            elif r - k >= 2:
                options += itertools.combinations(open_points, 2)
        for joining in options:
            nb, nmask, ncovered = list(b), bmask, covered
            for g in joining:
                # each new member brings its remainders with the earlier ones
                row = rem[g]
                for x in nb:
                    ncovered |= row[x]
                nb.append(g)
                nmask |= 1 << g
            visit(nb, nmask, ncovered)

    visit([], 0, 0)
    return found, nodes
