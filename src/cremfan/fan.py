"""Projective Bergman fan analytics.

Membership testing (level-set criterion with a circuit-criterion
cross-oracle), nested-set rays and collections, the ray-adjacency graph of
the minimal nested-set structure, and the rank-one/corank-one subgraph S
with its degree report.

Points live in R^E modulo the all-ones vector; every point is
canonicalized so its minimum weight is zero.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Sequence

from .errors import BudgetExceeded, InputError, InvariantError
from .matroid import Flat, Matroid


# ---------------------------------------------------------------------------
# tropical points


@dataclass(frozen=True)
class TropicalPoint:
    """A point of R^E / R·1, stored with minimum weight zero."""

    weights: tuple

    @classmethod
    def of(cls, weights: Iterable) -> "TropicalPoint":
        vals = []
        for x in weights:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise InputError(
                    f"tropical weights must be integers or rationals, got {x!r}"
                )
            vals.append(Fraction(x))
        if not vals:
            raise InputError("a tropical point needs at least one weight")
        lo = min(vals)
        shifted = [x - lo for x in vals]
        return cls(tuple(int(x) if x.denominator == 1 else x for x in shifted))

    @classmethod
    def indicator(cls, subset: Iterable[int], size: int) -> "TropicalPoint":
        S = frozenset(subset)
        if not all(0 <= e < size for e in S):
            raise InputError("indicator subset out of range")
        return cls.of([1 if i in S else 0 for i in range(size)])

    def __len__(self) -> int:
        return len(self.weights)

    def scaled_primitive(self) -> "TropicalPoint":
        """The primitive integer point on the same ray (zero stays zero)."""
        fracs = [Fraction(x) for x in self.weights]
        denom = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * denom) for f in fracs]
        g = math.gcd(*ints)
        if g == 0:
            return TropicalPoint(tuple(0 for _ in ints))
        return TropicalPoint(tuple(x // g for x in ints))


# ---------------------------------------------------------------------------
# membership oracles


def in_bergman_fan(M: Matroid, point: TropicalPoint | Sequence) -> bool:
    """Level-set membership: every upper level set above the minimum is a flat.

    A matroid with a loop has an empty fan (the loop is a one-element
    circuit, so no point can attain its minimum twice on it); the level-set
    condition alone cannot see this, so loops are rejected up front.
    """
    w = _point_weights(M, point)
    if M.closure(()):
        return False
    for c in sorted(set(w))[1:]:
        level = frozenset(i for i, x in enumerate(w) if x >= c)
        if not M.is_flat(level):
            return False
    return True


def in_bergman_fan_circuits(M: Matroid, point: TropicalPoint | Sequence, *,
                            max_elements: int = 12) -> bool:
    """Circuit-criterion membership: the minimum over every circuit is attained twice.

    Independent oracle used to cross-check the level-set route; guarded by
    the circuit-enumeration budget.
    """
    w = _point_weights(M, point)
    for C in M.circuits(max_elements=max_elements):
        vals = [w[i] for i in C]
        lo = min(vals)
        if sum(1 for x in vals if x == lo) < 2:
            return False
    return True


def _point_weights(M: Matroid, point) -> tuple:
    if not isinstance(point, TropicalPoint):
        point = TropicalPoint.of(point)
    if len(point) != M.size:
        raise InputError(
            f"point has {len(point)} weights for a {M.size}-element ground set"
        )
    return point.weights


# ---------------------------------------------------------------------------
# nested-set structure


def nested_rays(M: Matroid) -> list[Flat]:
    """All proper nonempty connected flats, ordered by (rank, elements)."""
    # the deepest level first: its walk stores every level below it
    levels = [M.flats_of_rank(k) for k in reversed(range(1, M.full_rank()))]
    return [
        F for level in reversed(levels) for F in level
        if len(F.elements) < M.size and M.is_connected(F.elements)
    ]


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


def _pair_nested(A: Flat, B: Flat, census: Sequence[AbstractSet[frozenset[int]]]) -> bool:
    """Whether two rays form a nested pair, read off the flat census."""
    a, b = A.elements, B.elements
    if a <= b or b <= a:
        return True
    # Incomparable rays that meet are never nested. Two connected sets with a
    # common element have a connected union, and in a loopless matroid every
    # e in cl(X) \ X lies on a circuit with elements of X, so the closure of
    # a connected set is connected: the join cl(A | B) is connected.
    if a & b:
        return False
    # Disjoint rays are nested iff A | B is a flat of rank r(A) + r(B). If
    # it is, M|(A | B) is the direct sum M|A + M|B, so the join A | B is
    # disconnected. Conversely let the join J be disconnected. Each e in
    # J \ (A | B) lies on a circuit inside A | B | {e}, and that circuit sits
    # in one component of M|J. If A and B shared a component, every other
    # component would consist of such elements, each then a loop; so they
    # lie in different components, the circuit of e stays inside A + e or
    # B + e, and e lies in the flat A or B. So J = A | B has the components
    # A and B, and r(J) = r(A) + r(B).
    k = A.rank + B.rank
    return k < len(census) and a | b in census[k]


# ---------------------------------------------------------------------------
# ray graphs


@dataclass(frozen=True)
class RayGraph:
    """Graph on fan rays; vertices are connected flats, edges nested pairs."""

    matroid: Matroid
    vertices: tuple[Flat, ...]
    edges: tuple[tuple[int, int], ...]
    kind: str = "rays"

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return [sorted(x) for x in adj]

    def degree_sequence(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def regular_degree(self) -> int | None:
        deg = set(self.degree_sequence())
        return deg.pop() if len(deg) == 1 else None

    def girth(self) -> int | None:
        """Length of a shortest cycle, None for forests."""
        adj = self.neighbors()
        best: int | None = None
        for s in range(len(adj)):
            # BFS from s: a non-tree edge (u, v) closes a cycle of length at
            # most d(u) + d(v) + 1, and exactly the girth when s lies on a
            # shortest cycle; depth d cannot beat 2d + 1
            dist = {s: 0}
            parent = {s: None}
            frontier = [s]
            depth = 0
            while frontier and (best is None or 2 * depth + 1 < best):
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = depth + 1
                            parent[v] = u
                            nxt.append(v)
                        elif v != parent[u]:
                            cycle = depth + dist[v] + 1
                            if best is None or cycle < best:
                                best = cycle
                frontier = nxt
                depth += 1
        return best

    def vertex_name(self, i: int) -> str:
        labels = self.matroid.ground.labels
        return "{" + ",".join(labels[e] for e in self.vertices[i].sorted()) + "}"

    def stats(self) -> dict:
        deg = self.degree_sequence()
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "regular": self.regular_degree(),
            "degree_min": min(deg) if deg else 0,
            "degree_max": max(deg) if deg else 0,
            "girth": self.girth(),
        }

    def to_dot(self) -> str:
        """The graph in DOT, named after its kind."""
        lines = [f"graph {self.kind} {{"]
        for i, F in enumerate(self.vertices):
            lines.append(
                f'  v{i} [label="{self.vertex_name(i)}", rank={F.rank}];'
            )
        for a, b in self.edges:
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def ray_adjacency_graph(M: Matroid) -> RayGraph:
    """The 1-skeleton of the minimal nested-set structure."""
    if not M.is_simple():
        raise InputError("ray adjacency graph needs a simple matroid")
    if M.size and not M.is_connected(M.closure(range(M.size)).elements):
        raise InputError("ray adjacency graph needs a connected matroid")
    rays = nested_rays(M)
    census = M.flat_census()
    edges = tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(rays)), 2)
        if _pair_nested(rays[i], rays[j], census)
    )
    return RayGraph(M, tuple(rays), edges)


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
# rank-one / corank-one graph S


def rank_one_neighbor_count(M: Matroid, e: int) -> int:
    """Rank-one rays adjacent to {e}: elements f with cl{e,f} = {e,f}."""
    M._check_subset({e})
    return len(_rank_one_neighbors(M)[e])


# the neighbour lists of each matroid, built once from its census
_NEIGHBORS: "weakref.WeakKeyDictionary[Matroid, list[list[int]]]" = weakref.WeakKeyDictionary()


def _rank_one_neighbors(M: Matroid) -> list[list[int]]:
    hit = _NEIGHBORS.get(M)
    if hit is not None:
        return hit
    # f != e with |cl{e,f}| = 2 exactly when {e, f} is a flat, and a flat
    # spanned by two elements has rank at most 2
    neighbors: list[list[int]] = [[] for _ in range(M.size)]
    # the deepest level first: its walk stores the two below it
    for k in reversed(range(min(2, M.full_rank()) + 1)):
        for F in M.flats_of_rank(k):
            if len(F) == 2:
                e, f = F.sorted()
                neighbors[e].append(f)
                neighbors[f].append(e)
    _NEIGHBORS[M] = neighbors = [sorted(fs) for fs in neighbors]
    return neighbors


def corank_one_connected_flats(M: Matroid, *, through: int | None = None,
                               max_subsets: int = 3_000_000) -> list[Flat]:
    """All connected corank-one flats, optionally only those through one element.

    The hyperplanes come from the flat-lattice walk; ``max_subsets`` caps
    the covers that walk issues.
    """
    r = M.full_rank()
    if r < 1:
        return []
    if through is not None:
        M._check_subset({through})
    return [
        F for F in M.flats_of_rank(r - 1, max_covers=max_subsets)
        if (through is None or through in F.elements) and M.is_connected(F.elements)
    ]


@dataclass(frozen=True)
class SGraphReport:
    """The graph S (rank-one and corank-one rays) with its degree analysis."""

    graph: RayGraph
    rank_one_count: int
    report: dict

    @property
    def verdict(self) -> bool:
        return self.report["verdict"]


def graph_S(M: Matroid, *, rank_one_only: bool = False,
            max_subsets: int = 3_000_000) -> SGraphReport:
    """The subgraph of the fan 1-skeleton on rank-one and corank-one rays.

    Neighbors of a rank-one ray {e}: the singletons f with cl{e,f}
    disconnected, plus the connected corank-one flats containing e.
    Neighbors of a corank-one ray H: the singletons inside H.  The report
    compares the minimum rank-one degree against the maximum corank-one
    degree (the separation used to tell the two ray kinds apart), and
    records the per-element degree decomposition.
    """
    if M.full_rank() < 3:
        raise InputError("graph S needs a matroid of rank at least 3")
    if not M.is_simple():
        raise InputError("graph S needs a simple matroid")
    labels = M.ground.labels
    m = M.size
    hyperplanes: list[Flat] = []
    if not rank_one_only:
        hyperplanes = corank_one_connected_flats(M, max_subsets=max_subsets)
    neighbors = _rank_one_neighbors(M)
    singleton_counts = [len(fs) for fs in neighbors]
    # the points of a simple matroid, in element order
    vertices = M.flats_of_rank(1)
    edges = [(e, f) for e in range(m) for f in neighbors[e] if f > e]
    for h_idx, H in enumerate(hyperplanes):
        hv = m + h_idx
        vertices.append(H)
        for e in sorted(H.elements):
            edges.append((e, hv))
    graph = RayGraph(M, tuple(vertices), tuple(sorted(edges)), kind="s")
    deg = graph.degree_sequence()
    rank_one_degrees = {labels[e]: deg[e] for e in range(m)}
    corank_degrees = {
        graph.vertex_name(m + i): deg[m + i] for i in range(len(hyperplanes))
    }
    decomposition = {
        labels[e]: {
            "rank_one_neighbors": singleton_counts[e],
            "corank_one_neighbors": deg[e] - singleton_counts[e],
            "total": deg[e],
        }
        for e in range(m)
    }
    report: dict = {
        "rank_one_degrees": rank_one_degrees,
        "corank_one_degrees": corank_degrees,
        "degree_decomposition": decomposition,
        "min_rank_one_degree": min(rank_one_degrees.values()) if rank_one_degrees else 0,
        "rank_one_only": rank_one_only,
    }
    if rank_one_only:
        report["corank_one_degrees"] = None
        report["max_corank_one_degree"] = None
        report["verdict"] = None
    else:
        max_corank = max(corank_degrees.values()) if corank_degrees else 0
        report["max_corank_one_degree"] = max_corank
        report["verdict"] = report["min_rank_one_degree"] > max_corank
    return SGraphReport(graph, m, report)
