"""Acceptance gate: one test per release criterion, frozen expected values.

Each test states its full criterion, checks every clause against values
computed from scratch, and asserts the documented time budget so a
performance regression fails the same line as a correctness one.
"""

import random
import time
from itertools import permutations

import networkx as nx
import pytest

from cremfan.cremona import (
    crem_map,
    cremona_check,
    enumerate_cremona_bases,
    realize,
    support_graph,
    two_basis_report,
    build_involution,
)
from cremfan.errors import InputError
from cremfan.fan import (
    TropicalPoint,
    corank_one_connected_flats,
    graph_S,
    in_bergman_fan,
    in_bergman_fan_circuits,
    nested_rays,
    rank_one_neighbor_count,
    ray_adjacency_graph,
)
from cremfan.generators import (
    a3_arrangement,
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    fano_selfduality,
    inner,
    parallel_connection,
    uniform,
)
from cremfan.isomorphism import automorphisms, ray_permutation

from conftest import (
    compose_linear,
    coordinate_sign_flip,
    coordinate_swap,
    element_permutation,
    in_span,
    orbit,
)


class Budget:
    """Context manager asserting a wall-clock budget for one criterion."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds:.0f}s budget: {elapsed:.1f}s"
            )
        return False


# frozen reference values for the six-element rank-3 fixture, basis {1, 2, 6}
A3_STAR_BASES = [{"1", "2", "6"}, {"1", "4", "5"}, {"2", "3", "5"}, {"3", "4", "6"}]
A3_CREM_MATRIX = (
    (0, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (1, 1, 0, 0, 0, 0),
)
FANO_LINES = [
    (0, 1, 3), (0, 2, 5), (0, 4, 6), (1, 2, 4), (1, 5, 6), (2, 3, 6), (3, 4, 5),
]
FANO_DUALITY_QUOTIENT = (
    (0, 1, 1, -1, 0, -1),
    (1, 0, 1, -1, -1, 0),
    (1, 1, 0, 0, -1, -1),
    (0, 0, 1, 0, -1, -1),
    (1, 0, 0, -1, 0, -1),
    (0, 1, 0, -1, -1, 0),
)


def test_c01_a3_suite():
    """Fixture has exactly the 4 star bases; crem_map for {1,2,6} equals the
    reference 6x6 matrix; 1 maps to 2*1; quotient det +-1; ray-adjacency
    graph is the Petersen graph (10/15/3-regular/girth 5).  Budget: 1 s."""
    with Budget(1):
        M = a3_arrangement()
        datas = enumerate_cremona_bases(M)
        found = sorted(
            sorted(M.ground.label(e) for e in d.basis) for d in datas
        )
        assert found == sorted(sorted(b) for b in A3_STAR_BASES)
        # stars of a four-vertex complete graph pairwise share one edge
        for d1, d2 in permutations(datas, 2):
            assert len(d1.basis_set() & d2.basis_set()) == 1

        lm = crem_map(cremona_check(M, (0, 1, 5)))
        assert lm.matrix == A3_CREM_MATRIX
        assert lm.one_multiple() == 2
        assert lm.apply_vector((1,) * 6) == (2,) * 6
        assert abs(lm.quotient_determinant()) == 1

        graph = ray_adjacency_graph(M)
        stats = graph.stats()
        assert stats["vertices"] == 10
        assert stats["edges"] == 15
        assert stats["regular"] == 3
        assert stats["girth"] == 5
        G = nx.Graph(graph.edges)
        G.add_nodes_from(range(10))
        assert nx.is_isomorphic(G, nx.petersen_graph())


def test_c02_fano_suite():
    """Fano rank-2 flats equal the reference line list; the self-duality
    quotient matrix matches entry-for-entry with determinant -8; the map
    permutes the 14 nested rays (points to lines) preserving all 21
    incidence edges.  Budget: 1 s."""
    with Budget(1):
        M, phi = fano_selfduality()
        lines = sorted(tuple(sorted(f.elements)) for f in M.flats_of_rank(2))
        assert lines == FANO_LINES
        assert phi.quotient_matrix() == FANO_DUALITY_QUOTIENT
        assert phi.quotient_determinant() == -8
        assert not phi.is_lattice_isomorphism

        graph = ray_adjacency_graph(M)
        assert len(graph.vertices) == 14
        assert len(graph.edges) == 21
        perm = ray_permutation(graph, phi)  # raises unless edges are preserved
        for i, j in enumerate(perm):
            assert graph.vertices[i].rank + graph.vertices[j].rank == 3


def test_c03_hyperoctahedral_suite():
    """B_n for n = 3, 4: exactly one Cremona basis (the coordinate basis),
    every F_ij = {x_i+x_j, x_i-x_j}, and |Aut| = 2^(n-1) * n!.  Budget: 5 s."""
    with Budget(5):
        for n, aut_order in ((3, 24), (4, 192)):
            M = coxeter_matroid(f"B{n}")
            (data,) = enumerate_cremona_bases(M)
            assert {M.ground.label(e) for e in data.basis} == {
                f"x{i}" for i in range(1, n + 1)
            }
            for (i, j), F in data.partition.items():
                a, b = sorted((i + 1, j + 1))
                assert {M.ground.label(e) for e in F} == {
                    f"x{a}+x{b}", f"x{a}-x{b}"
                }
            assert len(automorphisms(M)) == aut_order == 2 ** (n - 1) * [
                1, 1, 2, 6, 24,
            ][n]


def test_c04_two_cremona_structure():
    """Every ordered pair of distinct Cremona bases of the fixture and of
    the rank-4 complete-graph arrangement passes all structure clauses
    (star components, centers in the intersection, component count equals
    the intersection size); the Dowling/U_{2,3} parallel connection has
    exactly the two reference bases with a 3-element intersection.
    Budget: 10 s."""
    with Budget(10):
        for M in (a3_arrangement(), coxeter_matroid("A4")):
            datas = enumerate_cremona_bases(M)
            assert len(datas) in (4, 5)
            for d1, d2 in permutations(datas, 2):
                rep = two_basis_report(M, d1, d2)
                shared = d1.basis_set() & d2.basis_set()
                assert rep.component_count == len(shared)
                for comp in rep.components:
                    assert comp.star and comp.simple
                    assert comp.center in shared

        Q = dowling_rank3("z2xz2")
        U = uniform(2, 3)
        glued = parallel_connection(Q, Q.ground.index_of("p1"), U, 0)
        datas = enumerate_cremona_bases(glued)
        found = sorted(
            sorted(glued.ground.label(e) for e in d.basis) for d in datas
        )
        assert found == [["1", "p1", "p2", "p3"], ["2", "p1", "p2", "p3"]]
        rep = two_basis_report(glued, datas[0], datas[1])
        assert len(rep.intersection) == 3


def test_c05_involution():
    """build_involution on every Cremona pair of the fixture and the
    rank-4 complete-graph arrangement is an involutive matroid automorphism
    with phi(b) = b*; the automorphism group acts transitively on the
    Cremona bases.  Budget: 10 s."""
    with Budget(10):
        for M in (a3_arrangement(), coxeter_matroid("A4")):
            datas = enumerate_cremona_bases(M)
            census = {
                r: {f.elements for f in M.flats_of_rank(r)}
                for r in range(1, M.full_rank())
            }
            for d1, d2 in permutations(datas, 2):
                phi = build_involution(M, d1, d2)
                assert phi.compose(phi).is_identity
                assert phi.image(d1.basis) == d2.basis_set()
                for r, flats in census.items():
                    assert {phi.image(F) for F in flats} == flats
            group = automorphisms(M)
            basis_sets = {d.basis_set() for d in datas}
            assert orbit(group, datas[0].basis_set()) == basis_sets


def test_c06_realizability():
    """realize on the fixture pair {1,2,6}, {2,3,5} gives N = 1 and a
    census-verified isomorphism over F_2; the rank-4 complete-graph
    arrangement realizes over F_2 and F_3; a field below the N+1 bound
    fails with the documented error.  Budget: 5 s."""
    with Budget(5):
        M = a3_arrangement()
        d1 = cremona_check(M, (0, 1, 5))
        d2 = cremona_check(M, (1, 2, 4))
        r = realize(M, d1, d2, "Fp:2")
        assert r.class_count == 1
        assert r.field.spec == "Fp:2"
        for rk in range(1, 4):
            assert {f.elements for f in r.matroid.flats_of_rank(rk)} == {
                f.elements for f in M.flats_of_rank(rk)
            }

        a4 = coxeter_matroid("A4")
        pair = enumerate_cremona_bases(a4)[:2]
        for spec in ("Fp:2", "Fp:3"):
            assert realize(a4, pair[0], pair[1], spec).class_count == 1

        u25 = uniform(2, 5)
        e1 = cremona_check(u25, (0, 1))
        e2 = cremona_check(u25, (1, 2))
        with pytest.raises(InputError, match="at least"):
            realize(u25, e1, e2, "Fp:3")
        assert realize(u25, e1, e2, "Fp:5").class_count == 3


def test_c07_coxeter_counts():
    """Generated ground-set sizes: A_n n(n+1)/2 and B_n n^2 and D_n n(n-1)
    for n up to 8, E_6/E_7/E_8 36/63/120, F_4 24, H_3 15, H_4 60.
    Budget: 5 s."""
    with Budget(5):
        for n in range(1, 9):
            assert coxeter_matroid(f"A{n}").size == n * (n + 1) // 2
        for n in range(2, 9):
            assert coxeter_matroid(f"B{n}").size == n * n
        for n in range(3, 9):
            assert coxeter_matroid(f"D{n}").size == n * (n - 1)
        for spec, count in (
            ("E6", 36), ("E7", 63), ("E8", 120),
            ("F4", 24), ("H3", 15), ("H4", 60),
        ):
            assert coxeter_matroid(spec).size == count


def test_c08_graph_s_counts():
    """Neighbor counts in the graph on rank-one and corank-one rays:
    D_4/D_5 at x1+x2 give (n-2)(n-3)+1 rank-one and (n-2)+2^(n-2)
    corank-one neighbors; E_8/E_7/E_6 give 63/30/15 rank-one neighbors for
    every element, matching the orthogonality count; every connected F_4
    hyperplane has 9 elements and every element degree decomposes as
    6+9 = 15 with a passing verdict; the documented E_7 hyperplane has
    orbit 15 under the conjugated symmetric group and the E_6 hyperplane
    has orbit 10 under S_5, both connected of corank one.
    Budget: 30 s + 60 s + 30 s + 60 s."""
    with Budget(30):
        for n, spec in ((4, "D4"), (5, "D5")):
            M = coxeter_matroid(spec)
            e = M.ground.index_of("x1+x2")
            assert rank_one_neighbor_count(M, e) == (n - 2) * (n - 3) + 1
            through = corank_one_connected_flats(M, through=e)
            assert len(through) == (n - 2) + 2 ** (n - 2)

    with Budget(60):
        for spec, expect in (("E6", 15), ("E7", 30), ("E8", 63)):
            M = coxeter_matroid(spec)
            vecs = [M.backend.vectors[e] for e in range(M.size)]
            for e in range(M.size):
                count = rank_one_neighbor_count(M, e)
                ortho = sum(
                    1 for f in range(M.size)
                    if f != e and inner(vecs[e], vecs[f]) == 0
                )
                assert count == ortho == expect

    with Budget(30):
        f4 = coxeter_matroid("F4")
        hyps = corank_one_connected_flats(f4)
        assert hyps and all(len(H.elements) == 9 for H in hyps)
        report = graph_S(f4).report
        assert report["verdict"] is True
        decomposition = set()
        for entry in report["degree_decomposition"].values():
            decomposition.add(
                (entry["rank_one_neighbors"], entry["corank_one_neighbors"],
                 entry["total"])
            )
        assert decomposition == {(6, 9, 15)}
        assert report["max_corank_one_degree"] == 9

    with Budget(60):
        e7 = coxeter_matroid("E7")
        vecs = [e7.backend.vectors[e] for e in range(e7.size)]
        dim = len(vecs[0])

        def unit(i):
            return tuple(1 if k == i else 0 for k in range(dim))

        span7 = [
            unit(0), unit(1), unit(2), unit(3),
            tuple(a - b for a, b in zip(unit(4), unit(5))),
            tuple(a - b for a, b in zip(unit(6), unit(7))),
        ]
        H7 = frozenset(e for e in range(e7.size) if in_span(vecs[e], span7))
        assert len(H7) == 30
        assert e7.rank(H7) == e7.full_rank() - 1
        assert e7.is_connected(H7)
        flip = coordinate_sign_flip(5)
        gens7 = [
            element_permutation(
                e7, compose_linear(flip, coordinate_swap(i, i + 1), flip)
            )
            for i in range(5)
        ]
        orbit7 = orbit(gens7, H7)
        assert len(orbit7) == 15
        for flat in orbit7:
            assert e7.rank(flat) == e7.full_rank() - 1
            assert e7.is_connected(flat)

        e6 = coxeter_matroid("E6")
        vecs6 = [e6.backend.vectors[e] for e in range(e6.size)]
        span6 = [
            unit(0), unit(1), unit(2),
            tuple(a + b for a, b in zip(unit(3), unit(4))),
            tuple(-a - b + c for a, b, c in zip(unit(5), unit(6), unit(7))),
        ]
        H6 = frozenset(e for e in range(e6.size) if in_span(vecs6[e], span6))
        assert e6.rank(H6) == e6.full_rank() - 1
        assert e6.is_connected(H6)
        gens6 = [
            element_permutation(e6, coordinate_swap(i, i + 1)) for i in range(4)
        ]
        orbit6 = orbit(gens6, H6)
        assert len(orbit6) == 10
        for flat in orbit6:
            assert e6.rank(flat) == e6.full_rank() - 1
            assert e6.is_connected(flat)


def test_c09_icosahedral_types():
    """H_3 has zero Cremona bases under a full basis scan; every H_4
    rank-3 flat has at most 15 elements and every H_4 element has at
    least 15 rank-one neighbors.  Budget: 60 s."""
    with Budget(60):
        h3 = coxeter_matroid("H3")
        assert enumerate_cremona_bases(h3) == []

        h4 = coxeter_matroid("H4")
        sizes = sorted({len(f.elements) for f in h4.flats_of_rank(3)})
        assert max(sizes) <= 15
        for e in range(h4.size):
            assert rank_one_neighbor_count(h4, e) >= 15


def test_c10_property_suites():
    """Sampled rank axioms, closure idempotence, agreement of the two fan
    membership oracles on every instance with at most 12 elements, the
    Cremona involution on fan points, and the non-basis-flat rank formula
    rk(F) = |supp_b(F)| - 1 across the rank-4 complete-graph and
    hyperoctahedral arrangements.  Budget: 120 s."""
    with Budget(120):
        rng = random.Random(20260815)
        instances = [
            a3_arrangement(),
            coxeter_matroid("A2"),
            coxeter_matroid("A3"),
            coxeter_matroid("B2"),
            coxeter_matroid("B3"),
            coxeter_matroid("D3"),
            complete_graph_matroid(4),
            uniform(2, 3),
            uniform(2, 5),
            dowling_rank3("z1"),
            fano(),
        ]
        assert all(M.size <= 12 for M in instances)

        for M in instances:
            universe = list(range(M.size))
            # rank axioms on sampled pairs
            for _ in range(60):
                A = frozenset(rng.sample(universe, rng.randint(0, M.size)))
                B = frozenset(rng.sample(universe, rng.randint(0, M.size)))
                rA, rB = M.rank(A), M.rank(B)
                assert 0 <= rA <= len(A)
                if A <= B:
                    assert rA <= rB
                assert M.rank(A | B) + M.rank(A & B) <= rA + rB
                closed = M.closure(A).elements
                assert M.closure(closed).elements == closed
                assert M.rank(closed) == rA

            # the two fan membership oracles agree on flats and random points
            points = [TropicalPoint.of([0] * M.size)]
            for r in range(1, M.full_rank()):
                for F in M.flats_of_rank(r):
                    points.append(TropicalPoint.indicator(F.elements, M.size))
            for _ in range(40):
                points.append(
                    TropicalPoint.of([rng.randint(0, 3) for _ in range(M.size)])
                )
            for p in points:
                assert in_bergman_fan(M, p) == in_bergman_fan_circuits(M, p)

            # Cremona maps act involutively on fan points
            for data in enumerate_cremona_bases(M):
                lm = crem_map(data)
                for ray in nested_rays(M):
                    p = TropicalPoint.indicator(ray.elements, M.size)
                    q = lm.apply(p)
                    assert in_bergman_fan(M, q)
                    assert lm.apply(q) == p

        # non-basis flats with connected support: rank = support size - 1
        checked = 0
        for M in (coxeter_matroid("A4"), coxeter_matroid("B4")):
            for data in enumerate_cremona_bases(M):
                b = data.basis_set()
                for r in range(1, M.full_rank()):
                    for F in M.flats_of_rank(r):
                        if F.elements & b:
                            continue
                        g = support_graph(data, F.elements)
                        if len(g.components()) != 1:
                            continue
                        assert M.rank(F.elements) == len(g.vertices) - 1
                        checked += 1
        assert checked > 0


def test_c11_coxeter_cremona_census():
    """The Cremona census of the Coxeter types at the default node budget:
    A_n (n = 2..5) has n+1 bases, the stars of K_{n+1}, any two sharing
    exactly one element; B_n (n = 3..5) has exactly one; D4-D6, E6, E7,
    E8, F4, H3 and H4 have none.  Budget: 60 s."""
    with Budget(60):
        for n in range(2, 6):
            M = coxeter_matroid(f"A{n}")
            datas = enumerate_cremona_bases(M)
            assert len(datas) == n + 1
            stars = {
                frozenset(
                    lab for lab in M.ground.labels
                    if f"x{c}" in lab.split("-")
                )
                for c in range(1, n + 2)
            }
            assert {frozenset(M.ground.label(e) for e in d.basis) for d in datas} == stars
            for d1, d2 in permutations(datas, 2):
                assert len(d1.basis_set() & d2.basis_set()) == 1
        for n in range(3, 6):
            assert len(enumerate_cremona_bases(coxeter_matroid(f"B{n}"))) == 1
        for spec in ("D4", "D5", "D6", "E6", "E7", "E8", "F4", "H3", "H4"):
            assert enumerate_cremona_bases(coxeter_matroid(spec)) == [], spec


# per type: connected hyperplanes, min rank-one degree, max corank-one
# degree, verdict, and Cremona bases
COXETER_THEOREM = {
    "A3": (4, 3, 3, False, 4),
    "A4": (5, 6, 6, False, 5),
    "A5": (6, 10, 10, False, 6),
    "A6": (7, 15, 15, False, 7),
    "A7": (8, 21, 21, False, 8),
    "B3": (7, 4, 4, False, 1),
    "B4": (12, 9, 9, False, 1),
    "B5": (21, 16, 16, False, 1),
    "B6": (38, 25, 25, False, 1),
    "B7": (71, 36, 36, False, 1),
    "D4": (12, 9, 6, True, 0),
    "D5": (21, 18, 12, True, 0),
    "D6": (38, 33, 20, True, 0),
    "D7": (71, 58, 30, True, 0),
    "F4": (24, 15, 9, True, 0),
    "H3": (16, 6, 5, True, 0),
    "H4": (360, 60, 15, True, 0),
    "E6": (63, 45, 20, True, 0),
    "E7": (379, 172, 36, True, 0),
}


def test_c12_coxeter_theorem_table():
    """The paper's Coxeter theorem as one table, over the 19 types of rank
    3 to 7: the S-graph's connected hyperplanes, min rank-one degree, max
    corank-one degree and verdict, next to the Cremona census. The verdict
    is false exactly where a Cremona basis exists: A_n has n + 1 bases and
    B_n one, and every other type has none. That is the split the theorem
    predicts (coarse automorphisms: the matroid automorphisms and at most
    one Cremona map); the table is observed here, not proved.
    Budget: 10 s."""
    with Budget(10):
        for spec, expected in COXETER_THEOREM.items():
            row = coxeter_theorem_row(spec)
            assert row == expected, spec
            n = int(spec[1:])
            bases = {"A": n + 1, "B": 1}.get(spec[0], 0)
            assert row[3] is (bases == 0) and row[4] == bases, spec


def coxeter_theorem_row(spec):
    """One type's row of the Coxeter theorem table, on a fresh matroid."""
    M = coxeter_matroid(spec)
    report = graph_S(M).report
    return (
        len(report["corank_one_degrees"]),
        report["min_rank_one_degree"],
        report["max_corank_one_degree"],
        report["verdict"],
        len(enumerate_cremona_bases(M)),
    )


def test_c13_e8_coxeter_theorem_row():
    """E8's row of the Coxeter theorem table (c12), the frozen row of
    ``benchmarks/bench_coxeter.py``: 9,840 connected hyperplanes, min
    rank-one degree 2,520 against max corank-one degree 63, so the
    verdict is true, and no Cremona basis.  Budget: 60 s."""
    with Budget(60):
        assert coxeter_theorem_row("E8") == (9840, 2520, 63, True, 0)
