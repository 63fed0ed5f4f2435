"""Cremona bases and the maps, graphs, theorems, and realizations they induce.

A Cremona basis of a simple connected matroid is a basis b = b_0..b_d whose
pairwise closure remainders F_ij = cl{b_i, b_j} \\ {b_i, b_j} partition
E \\ b.  Such a basis induces the lattice map Crem_b sending each basis
indicator vector to the indicator of the opposite corank-one flat.  This
module detects and enumerates Cremona bases, checks the map's invariants,
analyses support graphs, verifies the two-basis structure statement,
constructs the induced involutive automorphism, and realizes the matroid
over a field. The map as an m x m matrix (``crem_map``) is in
:mod:`cremfan.isomorphism`, which no CLI job imports.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from . import matroid
from .errors import InputError, InvariantError
from .field import Field
from .kernels import det_int
from .matroid import ElementBijection, Matroid, VectorBackend, _mask, _members, _SetOnce


# ---------------------------------------------------------------------------
# Cremona bases


class CremonaData(_SetOnce):
    """A verified Cremona basis with its partition and corank-one flats."""

    __slots__ = ("matroid", "basis", "partition", "corank_flats", "_pairs_cache")

    def __init__(self, matroid: Matroid, basis: tuple[int, ...],
                 partition: dict[tuple[int, int], frozenset[int]],
                 corank_flats: dict[int, frozenset[int]]):
        self.matroid = matroid
        self.basis = basis
        self.partition = partition
        self.corank_flats = corank_flats

    def pair_flat(self, i: int, j: int) -> frozenset[int]:
        return self.partition[(i, j) if i < j else (j, i)]

    def pair_of(self, e: int) -> tuple[int, int]:
        """Basis positions (i, j) with e in F_ij."""
        pair = self.element_pairs().get(e)
        if pair is None:
            raise InputError(f"element {e} is not in any F-set of this basis")
        return pair

    def element_pairs(self) -> dict[int, tuple[int, int]]:
        if not hasattr(self, "_pairs_cache"):
            self._pairs_cache = {e: pair for pair, F in self.partition.items() for e in F}
        return self._pairs_cache

    def basis_set(self) -> frozenset[int]:
        return frozenset(self.basis)


def _require_simple(M: Matroid) -> None:
    if not M.is_simple():
        raise InputError("Cremona bases are defined for simple matroids")
    # in rank 1 the one-point basis maps v_b to the indicator of cl(empty set) = 0
    if M.full_rank() < 2:
        raise InputError(
            "Cremona bases are defined for matroids of rank at least 2, "
            f"got rank {M.full_rank()}"
        )


def cremona_check(M: Matroid, b: Iterable[int]) -> CremonaData | None:
    """The CremonaData of b, or None when b is not a Cremona basis."""
    data, _reason = cremona_check_detail(M, b)
    return data


def cremona_check_detail(M: Matroid, b: Iterable[int]) -> tuple[CremonaData | None, str | None]:
    """Cremona check with a human-readable failure reason.

    One elimination of b (``Matroid._fundamental``) gives each element's
    support supp(e) in b, the members of b on its fundamental circuit, and
    cl(T) = {e : supp(e) within T} for T within b. So F_ij holds the e
    outside b with supp(e) = {b_i, b_j}, and the corank-one flat B_j the e
    with b_j outside supp(e). A non-simple M is an InputError: its bases
    can pass the test with maps that move the all-ones line.
    """
    _require_simple(M)
    basis = tuple(_members(M._check_subset(b)))
    r = M.full_rank()
    if len(basis) != r:
        raise InputError(
            f"basis must have exactly rank(M) = {r} elements, got {len(basis)}"
        )
    greedy, supports = M._fundamental(basis, range(M.size))
    if len(greedy) != r:
        raise InputError(f"{list(basis)} is dependent, not a basis")
    pairs = list(itertools.combinations(range(r), 2))
    fsets: dict[int, list[int]] = {1 << i | 1 << j: [] for i, j in pairs}
    # An F-set never meets b, since each b_k has the support {b_k}, and no
    # two F-sets meet, since each e outside b has one support. (An e outside
    # b with a support of one member would be parallel to it, and one with
    # none a loop: M is simple.) So the one way to fail is an element whose
    # fundamental circuit has more than 3 elements: it lies in no F-set.
    missing = []
    for e, support in supports.items():
        if support.bit_count() > 1:
            fsets.get(support, missing).append(e)
    if missing:
        return None, f"elements {missing} lie in no F-set"
    partition = {(i, j): frozenset(fsets[1 << i | 1 << j]) for i, j in pairs}
    # B_j is every element but those whose supports hold b_j, listed in one
    # pass over the set bits of the supports
    holding: list[list[int]] = [[] for _ in range(r)]
    for e, support in supports.items():
        while support:
            low = support & -support
            holding[low.bit_length() - 1].append(e)
            support ^= low
    everything = frozenset(supports)
    corank = {j: everything.difference(held) for j, held in enumerate(holding)}
    return CremonaData(M, basis, partition, corank), None


def enumerate_cremona_bases(M: Matroid, *, max_nodes: int = 200_000) -> list[CremonaData]:
    """All Cremona bases in ascending order of their sorted element tuples.

    The pair remainders F = cl{a, b} \\ {a, b} come from the line census
    (every pair of a simple matroid spans exactly one rank-2 flat), and the
    bases from an exact-cover search over them (``_exact_cover_bases`` in
    :mod:`cremfan.exact_cover`, imported here, so a job that only checks
    given bases does not compile it).
    Each basis it finds is re-verified by cremona_check; a mismatch is an
    invariant violation.  The search is guarded by a budget of max_nodes
    search nodes: past it, BudgetExceeded names the nodes visited and the
    bases found so far (an explicit failure, never a silent truncation).
    """
    from .exact_cover import _exact_cover_bases, _long_lines

    if max_nodes < 0:
        raise InputError(f"max_nodes must be non-negative, got {max_nodes}")
    if M.full_rank() >= 2:
        # the lines first: their walk stores the points, which the
        # simplicity check then reads with no second walk
        _long_lines(M)
    _require_simple(M)
    bases, _nodes = _exact_cover_bases(M, max_nodes)
    results: list[CremonaData] = []
    for basis in sorted(bases):
        data = cremona_check(M, basis)
        if data is None:
            raise InvariantError("the exact-cover search accepted a non-Cremona basis")
        results.append(data)
    return results


# ---------------------------------------------------------------------------
# the Cremona map


def crem_invariants(data: CremonaData) -> tuple[int, int]:
    """The all-ones multiple c and the quotient determinant of Crem_b, read
    off its r basis columns, with no m x m matrix.

    Column b_j of Crem_b is the indicator of B_j and every other column the
    unit vector at its own index, so row i sums to [i not in b] +
    #{j : i in B_j}. When these sums are all c, det Crem_b = c * det Q for
    the quotient matrix Q, and det Crem_b is the determinant of the r x r
    block on b, with entry (i, j) = [b_i in B_j] (see
    ``isomorphism.IntegerLinearMap.quotient_determinant``). Validates independently
    that the all-ones line is preserved (c must be a positive integer) and
    that Q is unimodular; a failure of either means a non-Cremona input
    slipped through and is an invariant violation.
    """
    flats = [data.corank_flats[j] for j in range(len(data.basis))]
    sums = [1] * data.matroid.size
    for b in data.basis:
        sums[b] = 0
    for flat in flats:
        for e in flat:
            sums[e] += 1
    c = sums[0]
    if sums.count(c) != len(sums) or c < 1:
        raise InvariantError(
            "Cremona map does not preserve the all-ones line; the basis "
            "does not induce a Cremona automorphism"
        )
    det = det_int([[int(b in flat) for flat in flats] for b in data.basis]) // c
    if abs(det) != 1:
        raise InvariantError(
            f"Cremona map quotient determinant is {det}, not a lattice isomorphism"
        )
    return c, det


# ---------------------------------------------------------------------------
# support graphs


class SupportGraph(NamedTuple):
    """The b-support multigraph of a subset S.

    Vertices are the basis elements touched by S; every element of S
    outside the basis contributes one edge between the ends of its F-set
    pair, labeled by that element.
    """

    basis: tuple[int, ...]
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (b_i, b_j, label element)
    isolated: tuple[int, ...]  # vertices from S & basis with no incident edge

    def components(self) -> list[tuple[frozenset[int], tuple[tuple[int, int, int], ...]]]:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, _lab in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        out = []
        for root in sorted(groups, key=lambda r: min(groups[r])):
            vs = frozenset(groups[root])
            es = tuple(e for e in self.edges if e[0] in vs or e[1] in vs)
            out.append((vs, es))
        return out

    @property
    def is_simple_graph(self) -> bool:
        seen = set()
        for a, b, _lab in self.edges:
            key = frozenset((a, b))
            if key in seen:
                return False
            seen.add(key)
        return True

    @staticmethod
    def star_center(vertices: frozenset[int], edges: Sequence[tuple[int, int, int]],
                    candidates: frozenset[int] | None = None) -> int | None:
        """A vertex covering every edge (restricted to candidates if given)."""
        pool = vertices if candidates is None else (vertices & candidates)
        for c in sorted(pool):
            if all(a == c or b == c for a, b, _lab in edges):
                return c
        return None


def support_graph(data: CremonaData, S: Iterable[int]) -> SupportGraph:
    M = data.matroid
    subset, bmask = M._check_subset(S), _mask(data.basis)
    pairs = data.element_pairs()
    on_basis = _members(subset & bmask)
    vertices: set[int] = set(on_basis)
    edges = []
    for e in _members(subset & ~bmask):
        i, j = pairs[e]
        bi, bj = data.basis[i], data.basis[j]
        vertices.add(bi)
        vertices.add(bj)
        edges.append((min(bi, bj), max(bi, bj), e))
    touched = {a for a, b, _e in edges} | {b for a, b, _e in edges}
    isolated = tuple(e for e in on_basis if e not in touched)
    return SupportGraph(data.basis, tuple(sorted(vertices)), tuple(edges), isolated)


def flat_support_kind(data: CremonaData, F: Iterable[int]) -> str:
    """Classify a flat by its basis support: "basis", "non-basis", or "mixed".

    A basis flat meets the basis in its whole support; a non-basis flat
    avoids the basis entirely.
    """
    M = data.matroid
    subset = M._check_subset(F)
    graph = support_graph(data, _members(subset))
    inter = subset & _mask(data.basis)
    if not inter:
        return "non-basis"
    if inter == _mask(graph.vertices):
        return "basis"
    return "mixed"


# ---------------------------------------------------------------------------
# two-basis structure


class ComponentReport(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    center: int | None
    simple: bool
    star: bool


class TwoBasisReport(NamedTuple):
    basis: tuple[int, ...]
    other: tuple[int, ...]
    intersection: tuple[int, ...]
    components: tuple[ComponentReport, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


def two_basis_report(M: Matroid, d1: CremonaData, d2: CremonaData) -> TwoBasisReport:
    """Verify the structure of G_b(b*) for two Cremona bases of one matroid.

    Bases sharing no element are refused as input. Checks, and raises an
    invariant violation with a counterexample when any clause fails:

    * every component of the support graph of b* w.r.t. b contains exactly
      one vertex of b*, lies in a simple star with that vertex as center;
    * the number of components equals |b ∩ b*|;
    * whenever b_i, b_j sit in different components and F_ij is nonempty,
      both belong to b ∩ b*.
    """
    if d1.matroid is not M or d2.matroid is not M:
        raise InputError("both Cremona bases must belong to the given matroid")
    b = d1.basis_set()
    bstar = d2.basis_set()
    inter = b & bstar
    if not inter:
        raise InputError("the two-basis structure needs Cremona bases sharing an element")
    graph = support_graph(d1, bstar)
    comps = graph.components()
    reports = []
    for vs, es in comps:
        centers = vs & bstar
        if len(centers) != 1:
            raise InvariantError(
                f"component {sorted(vs)} of the support graph meets the second "
                f"basis in {sorted(centers)}, expected exactly one element"
            )
        center = next(iter(centers))
        simple = SupportGraph(d1.basis, tuple(sorted(vs)), es, ()).is_simple_graph
        star = all(a == center or bb == center for a, bb, _lab in es)
        if not simple:
            raise InvariantError(
                f"component {sorted(vs)} is not simple: parallel edges {es}"
            )
        if not star:
            raise InvariantError(
                f"component {sorted(vs)} is not a star centered at {center}: {es}"
            )
        reports.append(ComponentReport(tuple(sorted(vs)), es, center, simple, star))
    if len(comps) != len(inter):
        raise InvariantError(
            f"support graph has {len(comps)} components but the basis "
            f"intersection has {len(inter)} elements"
        )
    comp_of = {}
    for idx, (vs, _es) in enumerate(comps):
        for v in vs:
            comp_of[v] = idx
    for i, j in itertools.combinations(range(len(d1.basis)), 2):
        bi, bj = d1.basis[i], d1.basis[j]
        if not d1.pair_flat(i, j):
            continue
        ci, cj = comp_of.get(bi), comp_of.get(bj)
        if ci is not None and cj is not None and ci != cj:
            if bi not in inter or bj not in inter:
                raise InvariantError(
                    f"nonempty F-set between {bi} and {bj} crossing components, "
                    f"but they are not both in the basis intersection"
                )
    return TwoBasisReport(d1.basis, d2.basis, tuple(sorted(inter)), tuple(reports))


def build_involution(M: Matroid, d1: CremonaData, d2: CremonaData) -> ElementBijection:
    """The involutive automorphism swapping two Cremona bases.

    Fixes b ∩ b* and everything outside b ∪ b*; swaps each c in b \\ b*
    with its star edge label in G_b(b*), and each c in b* \\ b with its
    star edge label in G_{b*}(b).  Verified to be an involution mapping b
    onto b* and a matroid automorphism (``_map_mismatch``).
    """
    return _involution(M, two_basis_report(M, d1, d2), two_basis_report(M, d2, d1))


def _involution(M: Matroid, report: TwoBasisReport, back: TwoBasisReport) -> ElementBijection:
    """``build_involution`` from the two-basis reports of (d1, d2) and (d2, d1)."""
    forward = list(range(M.size))
    for two_basis in (report, back):
        # each star edge joins the center to one leaf, which swaps with its label
        for comp in two_basis.components:
            for a, bb, label in comp.edges:
                forward[bb if a == comp.center else a] = label
    if sorted(forward) != list(range(M.size)):
        raise InvariantError("constructed map is not a permutation")
    phi = ElementBijection(tuple(forward))
    for e in range(M.size):
        if phi(phi(e)) != e:
            raise InvariantError(f"constructed map is not an involution at {e}")
    if phi.image(report.basis) != set(report.other):
        raise InvariantError("constructed map does not carry b onto b*")
    H = _map_mismatch(M, M, phi.forward)
    if H is not None:
        raise InvariantError(
            f"constructed map does not carry the hyperplane "
            f"{{{', '.join(map(M.ground.label, _members(H)))}}} onto a hyperplane"
        )
    return phi


# ---------------------------------------------------------------------------
# realization


class Realization(NamedTuple):
    """A field realization produced from two Cremona bases sharing one element."""

    field: Field
    vectors: tuple[tuple, ...]
    matroid: Matroid
    reindexed_basis: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    kappa: dict[int, object]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _nonzero_field_element(field: Field, t: int):
    """The t-th element (0-based) of a canonical enumeration of nonzero values."""
    if field.kind == "Fp":
        if t + 1 >= field.size:
            raise InputError("ran out of nonzero field elements")
    return field.coerce(t + 1)


def _hyperplane_mismatch(M: Matroid, N: Matroid,
                         forward: Sequence[int] | None = None) -> int | None:
    """The first hyperplane H of M, as a bitmask, whose image under
    ``forward`` (an element bijection onto N's ground set as its image
    sequence; the identity when None) is not a flat of N of rank r(M) - 1,
    or None: one walk of M under ``matroid.MAX_COVERS``, then per hyperplane
    one closure and one rank in N's oracle (off N's levels where N is walked,
    with no backend call). For r(N) = r(M), None exactly when ``forward`` is
    an isomorphism from M onto N (proof in ``realize``); rank 0 has none."""
    r = M.full_rank()
    if not r:
        return None
    for H in M._level(r - 1, matroid.MAX_COVERS):
        image = H if forward is None else _mask(forward[e] for e in _members(H))
        if N._closure_of(image) != image or N._rank_of(image) != r - 1:
            return H
    return None


def _map_mismatch(M: Matroid, N: Matroid, forward: Sequence[int] | None = None) -> int | None:
    """``_hyperplane_mismatch(M, N, forward)`` of a realization (``forward``
    None, N on vectors) or an automorphism of M (N is M): None with no walk
    where M's walk would fill orbits (``Matroid._generators``) and the
    certificate holds (``realize``), else the walk's first failing one."""
    r = M.full_rank()
    if M._generators(r - 1):
        from .orbits import linear_automorphisms

        simple = M.backend.reflections.simple
        delta = _mask(simple)  # the rows of the simple roots
        perms = list(simple.values()) if forward is None else [forward]
        parabolic = [delta & ~(1 << root) for root in simple] if forward is None else []
        if len(linear_automorphisms(N.backend, perms)) == len(perms) and all(
            N._closure_of(H) == H and N._rank_of(H) == r - 1 for H in map(M._closure_of, parabolic)
        ):
            return None
    return _hyperplane_mismatch(M, N, forward)


def realize(M: Matroid, d1: CremonaData, d2: CremonaData,
            field_spec: str | Field) -> Realization:
    """Vector realization of M from two Cremona bases meeting in one element.

    With b ∩ b* = {b_0} (reindexed to position 0), the non-basis elements
    split into E_+ (inside F-sets avoiding b_0, each a singleton) and E_0
    (inside the F-sets at b_0).  Elements of E_0 are grouped by the flat
    E_+ ∨ {e}; with N classes and an injective map κ of the classes into
    the nonzero field elements, the assignment

        b_i ↦ v_i,  e ∈ F_0i ↦ v_0 − κ(e) v_i,  e ∈ F_ij ↦ v_i − v_j

    realizes M over every field with at least N + 1 elements.

    Before returning, the realized matroid N is checked to be M itself (a
    failure is an invariant violation): r(N) = r(M) = r, and cl_N(H) = H
    with r_N(H) = r - 1 for every hyperplane H of M
    (``_hyperplane_mismatch``). That is exact (a matroid is fixed by its
    hyperplanes; Oxley 2011, §1.4 and §2.1):

    1. every flat of M is an intersection of hyperplanes of M (E the empty
       one), and so an intersection of flats of N: it is closed in N;
    2. so for I independent in M and e in I, e lies outside the M-flat
       cl_M(I - e), which holds cl_N(I - e): I is independent in N, and
       r_N >= r_M;
    3. a maximal chain of M-flats from a flat F other than E to a
       hyperplane H has r - 1 - r_M(F) steps, and is a strictly increasing
       chain of N-flats, so r_N(F) <= r_N(H) - (r - 1 - r_M(F)) = r_M(F).

    So r_N and r_M agree on the flats of M (on E by the rank check), and
    then on every set X, as r_M(X) <= r_N(X) <= r_N(cl_M X) = r_M(X).
    For an element bijection φ, the same argument applied to the relabelled
    matroid N∘φ, of rank r_N(φ(X)), shows φ to be an isomorphism from M onto
    N when it carries every hyperplane of M onto one of N.

    On a reflection arrangement of rank 4 or more no walk runs
    (``_map_mismatch``). M's simple reflections (the reflection pass) are
    automorphisms of M, and of N once the linear certificate accepts them on
    N's vectors; they generate M's reflection group W (Humphreys, Reflection
    Groups and Coxeter Groups, 1990, 1.5), so each w in W is one of both. A
    hyperplane H of M holds the roots orthogonal to some x = w y, w in W, y
    in the closed fundamental chamber; those orthogonal to y are the roots of
    the parabolic subgroup W_I, I the simple roots orthogonal to y (1.12: W_I
    fixes the orthogonal complement of span I). So H = w cl_M(I), |I| = r - 1,
    and N need close only the r hyperplanes cl_M(Delta - alpha_i).
    """
    field = field_spec if isinstance(field_spec, Field) else Field.from_spec(field_spec)
    shared = sorted(d1.basis_set() & d2.basis_set())
    if len(shared) != 1:
        raise InputError(
            f"realization needs |b ∩ b*| = 1, got {len(shared)} shared elements"
        )
    b0 = shared[0]
    ordered = [b0] + [e for e in d1.basis if e != b0]
    orig_pos = {e: i for i, e in enumerate(d1.basis)}

    def fset(e1: int, e2: int) -> frozenset[int]:
        return d1.pair_flat(orig_pos[e1], orig_pos[e2])

    d = len(ordered) - 1
    e_plus: set[int] = set()
    e_zero: set[int] = set()
    pair_at: dict[int, tuple[int, int]] = {}
    for i in range(1, d + 1):
        for e in fset(ordered[0], ordered[i]):
            e_zero.add(e)
            pair_at[e] = (0, i)
    for i, j in itertools.combinations(range(1, d + 1), 2):
        F = fset(ordered[i], ordered[j])
        if len(F) > 1:
            raise InvariantError(
                f"F-set of ({ordered[i]},{ordered[j]}) has {len(F)} elements; "
                "the structure theorem forces singletons away from the "
                "shared basis element"
            )
        for e in F:
            e_plus.add(e)
            pair_at[e] = (i, j)

    plus = _mask(e_plus)
    grouped: dict[int, list[int]] = {}
    for e in sorted(e_zero):
        grouped.setdefault(M._closure_of(plus | 1 << e), []).append(e)
    classes = tuple(sorted((tuple(v) for v in grouped.values()), key=lambda c: c[0]))
    N = len(classes)
    if field.size is not None and field.size < N + 1:
        raise InputError(
            f"field {field.spec} has {field.size} elements but the realization "
            f"needs at least N + 1 = {N + 1}"
        )
    kappa: dict[int, object] = {}
    for t, cls in enumerate(classes):
        value = _nonzero_field_element(field, t)
        for e in cls:
            kappa[e] = value

    zero, one = field.zero(), field.one()
    dim = d + 1
    vectors: list[tuple] = [()] * M.size
    for i, e in enumerate(ordered):
        vec = [zero] * dim
        vec[i] = one
        vectors[e] = tuple(vec)
    for e, (i, j) in pair_at.items():
        vec = [zero] * dim
        if i == 0:
            vec[0] = one
            vec[j] = zero - kappa[e]
        else:
            vec[i] = one
            vec[j] = zero - one
        vectors[e] = tuple(vec)
    if len({v for v in vectors}) != M.size:
        raise InvariantError("realization produced coinciding vectors")

    realized = Matroid(VectorBackend(field, vectors), list(M.ground.labels))
    if realized.full_rank() != M.full_rank():
        raise InvariantError("realization has the wrong rank")
    H = _map_mismatch(M, realized)
    if H is not None:
        raise InvariantError(
            f"realization disagrees with the matroid on the hyperplane "
            f"{{{', '.join(map(M.ground.label, _members(H)))}}}"
        )
    return Realization(
        field=field,
        vectors=tuple(vectors),
        matroid=realized,
        reindexed_basis=tuple(ordered),
        classes=classes,
        kappa=kappa,
    )
