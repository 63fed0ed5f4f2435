"""Projective Bergman fan analytics.

Membership testing (level-set criterion with a circuit-criterion
cross-oracle), nested-set rays, the ray-adjacency graph of the minimal
nested-set structure, and the rank-one/corank-one subgraph S with its
degree report. The nested-collection test (``is_nested``) and the ray
permutation of a lattice map (``ray_permutation``), which no CLI job runs,
are in :mod:`cremfan.isomorphism`.

Points live in R^E modulo the all-ones vector; every point is
canonicalized so its minimum weight is zero.

The rays are the connected flats, and on a reflection arrangement from
rank 3 up they come from the connected walk
(``Matroid.connected_flats_of_rank``): from the points, it records and
expands a cover G of a flat F only when |G - F| >= 2. Two facts make it
exact; a third lets it expand one flat per orbit of automorphisms.

Lemma (no connectivity query). Let M be simple, F a connected flat and G
a flat covering F. Then M|G is connected iff |G - F| >= 2. If G - F is one
element e, then r(G) = r(F) + r({e}) and {e} is a separator. Conversely,
let M|G split. F is connected, so it lies in one component K, and every
other component has positive rank (no loops), so r(F) <= r(K) <=
r(G) - 1 = r(F). Then K lies in cl(F) = F, so K = F, and G - F is a
separator of rank 1: one parallel class, hence one element.

Precondition (nothing missed). Let the vectors be real (over Q or
Q(sqrt5)), nonzero, pairwise non-proportional and closed up to scale
under their own reflections (``VectorBackend.reflections``). The
reflections generate a finite orthogonal group W: it permutes the
finitely many lines, and a map of W that fixes each line is determined by a
sign per line of a basis (W is the identity off their span). The unit
vectors on the lines form a root system of W, and every reflection of W
is a root's (Humphreys, Reflection Groups and Coxeter Groups, 1.14). A
flat X is the set of roots in its span S. A reflection s_a fixes the
orthogonal complement of S pointwise iff a lies in S, and by Steinberg
(1964) the pointwise stabilizer of that complement is generated by the
reflections in it, so X is the root system of a parabolic subgroup of W
(Barcelo-Ihrig 1999). X is connected iff that root system is
irreducible. An orthogonal split of the roots splits M|X. Conversely,
if M|X splits into A + B, then for a in A and b in B the root
s_a(b) = b - c a lies in span(A) or in span(B), which forces c = 0, so A
and B are orthogonal. An irreducible X of rank k >= 2 has a base with a
connected Coxeter graph; dropping a leaf of a spanning tree of that graph
leaves a base of a connected flat X' of rank k - 1 (the roots in its span
are the root system of the base's parabolic subgroup), and X covers X'.
By induction from the points, the walk records X', expands it and finds
X, with |X - X'| >= 2 by the lemma. Without the precondition the walk
can miss flats: in U(3,4), E is connected, but every flat it covers is a
disconnected pair.

Orbits (:mod:`cremfan.orbits`). Let H be any subgroup of W. Each of its
maps sends every vector onto a multiple of a vector, so it maps flats, and
connected flats, to flats of the same rank: each level is a union of
H-orbits. A connected X of rank k >= 2 covers a connected X' = h R with R
the representative of its orbit, so h^-1 X is a connected cover of R and X
lies in its orbit. Expanding one flat per orbit and filling the orbits of
its covers is exact. W has one orbit per class of parabolic subgroups
(Orlik-Terao 1992, ch. 6): E8's connected walk makes 10 eliminations.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import reduce
from operator import and_
from typing import Iterable, NamedTuple, Sequence

from . import matroid
from .errors import InputError
from .matroid import Flat, Matroid, _members, _SetOnce


# ---------------------------------------------------------------------------
# tropical points


class TropicalPoint(_SetOnce):
    """A point of R^E / R·1, stored with minimum weight zero."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple):
        self.weights = weights

    @classmethod
    def of(cls, weights: Iterable) -> "TropicalPoint":
        vals = []
        for x in weights:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise InputError(f"tropical weights must be integers or rationals, got {x!r}")
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

    def __eq__(self, other):
        if not isinstance(other, TropicalPoint):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

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


# the circuit oracle's default element budget, up to which the CLI cross-checks
MAX_CIRCUIT_ELEMENTS = 12


def in_bergman_fan_circuits(M: Matroid, point: TropicalPoint | Sequence, *,
                            max_elements: int = MAX_CIRCUIT_ELEMENTS) -> bool:
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
        raise InputError(f"point has {len(point)} weights for a {M.size}-element ground set")
    return point.weights


# ---------------------------------------------------------------------------
# nested-set structure


def nested_rays(M: Matroid) -> list[Flat]:
    """All proper nonempty connected flats, ordered by (rank, elements)."""
    # the deepest level first: its walk stores every level below it
    ranks = reversed(range(1, M.full_rank()))
    levels = [M.connected_flats_of_rank(k, max_covers=matroid.MAX_COVERS) for k in ranks]
    return [F for level in reversed(levels) for F in level]


# ---------------------------------------------------------------------------
# ray graphs


class RayGraph(NamedTuple):
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
            if best == 3:  # no simple graph has a shorter cycle
                break
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
    """The 1-skeleton of the minimal nested-set structure: two rays are
    adjacent iff they are nested, that is comparable, or disjoint with a
    union that is a flat of two components (then exactly these two rays)."""
    # Incomparable rays that meet are never nested. Two connected sets with a
    # common element have a connected union, and in a loopless matroid every
    # e in cl(X) \ X lies on a circuit with elements of X, so the closure of
    # a connected set is connected: the join cl(A | B) is connected.
    # Disjoint rays are nested iff A | B is a flat of rank r(A) + r(B). If
    # it is, M|(A | B) is the direct sum M|A + M|B, so the join A | B is
    # disconnected. Conversely let the join J be disconnected. Each e in
    # J \ (A | B) lies on a circuit inside A | B | {e}, and that circuit sits
    # in one component of M|J. If A and B shared a component, every other
    # component would consist of such elements, each then a loop; so they
    # lie in different components, the circuit of e stays inside A + e or
    # B + e, and e lies in the flat A or B. So J = A | B has the components
    # A and B, and r(J) = r(A) + r(B). Conversely, the two components of a
    # flat with exactly two, both of positive rank, are disjoint rays.
    if not M.is_simple():
        raise InputError("ray adjacency graph needs a simple matroid")
    if M.size and not M.is_connected(range(M.size)):
        raise InputError("ray adjacency graph needs a connected matroid")
    # the full walk, then one filter of its levels: it stores their connected
    # flats, the rays, which ``nested_rays`` reads, and returns the disjoint
    # pairs, read off the flats of two components
    M._level(max(M.full_rank() - 1, 0), matroid.MAX_COVERS)
    pairs = M._connected_levels()
    rays = nested_rays(M)
    index = {A.mask: i for i, A in enumerate(rays)}
    disjoint = [0] * len(rays)  # per ray i, the bits of the disjoint rays j > i
    for (a, _), (b, _) in pairs:
        i, j = sorted((index[a], index[b]))
        disjoint[i] |= 1 << j
    del pairs, index  # E7 has 33,600 pairs: free them before the edges
    through = [0] * M.size  # per element, the bits of the rays through it
    for i, A in enumerate(rays):
        for e in A.sorted():
            through[e] |= 1 << i

    def adjacent(i: int) -> list[int]:
        # the rays holding ray i, other than itself, have higher rank: all j > i
        above = reduce(and_, [through[e] for e in rays[i].sorted()]) ^ 1 << i
        return _members(disjoint[i] | above)

    ids = list(range(len(rays)))  # one int object per ray, shared by its edges
    edges = tuple((ids[i], ids[j]) for i in ids for j in adjacent(i))
    return RayGraph(M, tuple(rays), edges)


# ---------------------------------------------------------------------------
# rank-one / corank-one graph S


def rank_one_neighbor_count(M: Matroid, e: int) -> int:
    """Rank-one rays adjacent to {e}: elements f with cl{e,f} = {e,f}."""
    M._check_subset({e})
    return len(_rank_one_neighbors(M)[e])


# the neighbour lists of each matroid, built once from its walked levels
_NEIGHBORS: "weakref.WeakKeyDictionary[Matroid, list[list[int]]]" = weakref.WeakKeyDictionary()


def _rank_one_neighbors(M: Matroid) -> list[list[int]]:
    hit = _NEIGHBORS.get(M)
    if hit is not None:
        return hit
    # f != e with |cl{e,f}| = 2 exactly when {e, f} is a flat, and a flat
    # spanned by two elements has rank at most 2. The lines first: their
    # walk stores the points, which the simplicity check then reads.
    lines = M._long_lines() if M.full_rank() >= 2 else ()
    if M.is_simple():
        # {e, f} is a flat iff no line of three or more points holds both
        on_lines = [1 << e for e in range(M.size)]
        for L in lines:
            for e in _members(L):
                on_lines[e] |= L
        full = (1 << M.size) - 1
        neighbors = [_members(full & ~on) for on in on_lines]
    else:
        neighbors = [[] for _ in range(M.size)]
        # the deepest level first: its walk stores the two below it
        for k in reversed(range(min(2, M.full_rank()) + 1)):
            for F in M._level(k):
                if F.bit_count() == 2:
                    e, f = _members(F)
                    neighbors[e].append(f)
                    neighbors[f].append(e)
    _NEIGHBORS[M] = neighbors = [sorted(fs) for fs in neighbors]
    return neighbors


def corank_one_connected_flats(M: Matroid, *, through: int | None = None,
                               max_subsets: int = matroid.MAX_COVERS) -> list[Flat]:
    """All connected corank-one flats, optionally only those through one element.

    The hyperplanes come from ``Matroid.connected_flats_of_rank``;
    ``max_subsets`` caps the covers of the walk it runs.
    """
    r = M.full_rank()
    if r < 1:
        return []
    if through is not None:
        M._check_subset({through})
    return [
        F for F in M.connected_flats_of_rank(r - 1, max_covers=max_subsets)
        if through is None or F.mask >> through & 1
    ]


class SGraphReport(NamedTuple):
    """The graph S (rank-one and corank-one rays) with its degree analysis."""

    graph: RayGraph
    rank_one_count: int
    report: dict

    @property
    def verdict(self) -> bool:
        return self.report["verdict"]


def graph_S(M: Matroid, *, rank_one_only: bool = False,
            max_subsets: int = matroid.MAX_COVERS) -> SGraphReport:
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
        for e in H.sorted():
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
