"""Bergman fan membership, nested rays, ray graphs, and the graph S."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cremfan.errors import BudgetExceeded, InputError, InvariantError
from cremfan.fan import (
    RayGraph,
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
    complete_graph_matroid,
    coxeter_matroid,
    fano_selfduality,
    from_spec_string,
    uniform,
)
from cremfan.isomorphism import IntegerLinearMap, is_nested, ray_permutation
from cremfan.matroid import Flat, LineBackend, Matroid

from conftest import (
    CENSUS_CASES,
    by_label,
    count_backend_calls,
    direct_sum,
    exhaustive_connected,
    f3_matroid,
    f3_vector_rows,
    flat_census,
    record_walks,
)


def rank_one_counts_by_definition(M):
    """Per element e, the f != e with |cl{e, f}| = 2, by one closure per pair."""
    return [
        sum(1 for f in range(M.size) if f != e and len(M.closure({e, f}).elements) == 2)
        for e in range(M.size)
    ]


def per_edge_girth(graph):
    """Girth by one BFS per edge, avoiding that edge (reference routine)."""
    adj = graph.neighbors()
    best = None
    for a, b in graph.edges:
        dist = {a: 0}
        frontier = [a]
        while frontier and b not in dist:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if (u, v) in ((a, b), (b, a)):
                        continue
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if b in dist and (best is None or dist[b] + 1 < best):
            best = dist[b] + 1
    return best


def _pair_nested(A, B, census):
    """Whether two rays form a nested pair, read off the flat census (bitmasks):
    comparable, or disjoint with A | B a flat of rank r(A) + r(B) (the proof
    is in ``ray_adjacency_graph``'s docstring). Reference routine."""
    a, b = A.mask, B.mask
    meet = a & b
    if meet == a or meet == b:
        return True
    if meet:
        return False
    k = A.rank + B.rank
    return k < len(census) and a | b in census[k]


def pair_loop_edges(M):
    """The ray graph's edges by one ``_pair_nested`` test per pair of rays
    (reference routine)."""
    rays, census = nested_rays(M), flat_census(M)
    return tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(rays)), 2)
        if _pair_nested(rays[i], rays[j], census)
    )


class _Reads(list):
    """A list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


class ReadRecordingGraph(RayGraph):
    """A RayGraph whose neighbour lists record the vertices a search reads."""

    def neighbors(self):
        adj = _Reads(super().neighbors())
        object.__setattr__(self, "reads", adj.read)
        return adj


def random_graph(rng):
    n = rng.randint(1, 14)
    p = rng.choice((0.1, 0.2, 0.35, 0.6))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    vertices = tuple(Flat(frozenset({i}), 1) for i in range(n))
    return RayGraph(None, vertices, tuple(edges))


def sweep_corank_one(M, through=None):
    """Connected hyperplanes from the spans of (r-1)-subsets (reference)."""
    r = M.full_rank()
    others = [e for e in range(M.size) if e != through]
    fixed = () if through is None else (through,)
    spans = {
        M.closure(fixed + sub).elements
        for sub in itertools.combinations(others, r - 1 - len(fixed))
    }
    return [
        F for F in sorted(spans, key=sorted)
        if M.rank(F) == r - 1 and exhaustive_connected(M, F)
    ]


class TestTropicalPoint:
    def test_canonicalization(self):
        p = TropicalPoint.of([3, 5, 3, 7])
        assert p.weights == (0, 2, 0, 4)
        q = TropicalPoint.of([Fraction(1, 2), Fraction(3, 2)])
        assert q.weights == (Fraction(0), Fraction(1))
        assert TropicalPoint.of([Fraction(4), Fraction(6)]).weights == (0, 2)

    def test_rejects_bools_and_floats(self):
        with pytest.raises(InputError):
            TropicalPoint.of([True, 0])
        with pytest.raises(InputError):
            TropicalPoint.of([0.5, 0])

    def test_indicator(self):
        p = TropicalPoint.indicator({1, 3}, 4)
        assert p.weights == (0, 1, 0, 1)

    def test_scaled_primitive(self):
        p = TropicalPoint.of([Fraction(0), Fraction(2, 3), Fraction(4, 3)])
        assert p.scaled_primitive().weights == (0, 1, 2)


class TestMembership:
    def test_flat_indicators_are_in_fan(self, a3):
        for k in (1, 2):
            for F in a3.flats_of_rank(k):
                p = TropicalPoint.indicator(F.elements, a3.size)
                assert in_bergman_fan(a3, p)
                assert in_bergman_fan_circuits(a3, p)

    def test_non_flat_indicator_not_in_fan(self, a3):
        # {0, 1} is not a flat: its closure adds element 4
        p = TropicalPoint.indicator({0, 1}, a3.size)
        assert not in_bergman_fan(a3, p)
        assert not in_bergman_fan_circuits(a3, p)

    def test_oracles_agree_on_random_points(self, a3):
        rng = random.Random(11)
        hits = 0
        for _ in range(300):
            w = [rng.randint(0, 3) for _ in range(a3.size)]
            p = TropicalPoint.of(w)
            a = in_bergman_fan(a3, p)
            b = in_bergman_fan_circuits(a3, p)
            assert a == b
            hits += a
        assert hits > 0

    def test_circuit_oracle_budget(self):
        b4 = coxeter_matroid("B4")  # 16 > 12 elements
        with pytest.raises(BudgetExceeded):
            in_bergman_fan_circuits(b4, TropicalPoint.indicator({0}, 16))

    def test_wrong_length(self, a3):
        with pytest.raises(InputError):
            in_bergman_fan(a3, TropicalPoint.of([0, 1]))

    def test_loops_never_in_fan(self, u23):
        # a contraction introduces loops; no point lies in the fan of a
        # matroid with a loop
        C = u23.contract([0, 1])
        assert not in_bergman_fan(C, TropicalPoint.of([0]))


class TestNestedRays:
    def test_ray_censuses(self, a3, fano_m, u23):
        assert len(nested_rays(a3)) == 10   # 6 points + 4 triple lines
        assert len(nested_rays(fano_m)) == 14  # 7 points + 7 lines
        assert len(nested_rays(u23)) == 3

    def test_rays_are_proper_connected_flats(self, a3):
        for F in nested_rays(a3):
            assert a3.is_flat(F.elements)
            assert a3.is_connected(F.elements)
            assert 0 < len(F.elements) < a3.size

    def test_is_nested_chain(self, a3):
        chain = [a3.closure([0]).elements, a3.closure([0, 1]).elements]
        assert is_nested(a3, chain)

    def test_is_nested_rejects_connected_join(self, a3):
        # two distinct triple lines span everything; their join is connected
        lines = [F.elements for F in a3.flats_of_rank(2) if len(F) == 3]
        assert not is_nested(a3, lines[:2])

    def test_is_nested_accepts_disconnected_join(self, a3):
        # two singletons whose join is the trivial 2-point line {0, 2}
        assert is_nested(a3, [frozenset({0}), frozenset({2})])

    def test_is_nested_validation(self, a3):
        with pytest.raises(InputError):
            is_nested(a3, [frozenset({0, 1})])  # not a flat
        with pytest.raises(InputError):
            is_nested(a3, [frozenset(range(6))])  # not proper
        with pytest.raises(InputError):
            is_nested(a3, [frozenset({0, 2})])  # disconnected flat
        with pytest.raises(InputError):
            is_nested(a3, [frozenset({0}), frozenset({0})])  # repeats

    def test_is_nested_has_a_budget(self, a3):
        # three points of one line: their join is connected
        rays = [frozenset({0}), frozenset({1}), frozenset({4})]
        assert not is_nested(a3, rays, max_family=3)
        with pytest.raises(BudgetExceeded, match="nested check over 3 flats exceeds the budget of 2"):
            is_nested(a3, rays, max_family=2)

    def test_ray_permutation_refuses_a_map_off_the_rays(self, fano_m):
        # a transposition of two points is no automorphism of the Fano plane
        # (its automorphisms are even), so it sends some line to a 3-set
        # that is no flat, and so to no ray
        graph = ray_adjacency_graph(fano_m)
        swap = [1, 0, *range(2, fano_m.size)]
        matrix = tuple(tuple(int(swap[j] == i) for j in range(fano_m.size))
                       for i in range(fano_m.size))
        with pytest.raises(InvariantError, match="map does not permute the fan rays"):
            ray_permutation(graph, IntegerLinearMap(matrix))


    @pytest.mark.parametrize("spec", ["D4", "A4"])
    def test_is_nested_on_ray_families(self, spec):
        # every pair and triple of rays (D4: 300 triples drawn at random),
        # against the same test on element sets through the public queries
        M, reference = coxeter_matroid(spec), coxeter_matroid(spec)
        rays = [F.elements for F in nested_rays(reference)]
        triples = list(itertools.combinations(rays, 3))
        if spec == "D4":
            triples = random.Random(4).sample(triples, 300)
        families = [*itertools.combinations(rays, 2), *triples]
        answers = [is_nested(M, family) for family in families]
        assert answers == [nested_by_elements(reference, family) for family in families]
        assert 0 < sum(answers) < len(answers)


def nested_by_elements(M, sets):
    """``is_nested`` on element sets: the join of every subfamily of two or
    more pairwise incomparable members is disconnected (reference)."""
    for k in range(2, len(sets) + 1):
        for chosen in itertools.combinations(sets, k):
            if all(not (A <= B or B <= A) for A, B in itertools.combinations(chosen, 2)):
                if M.is_connected(M.closure(frozenset().union(*chosen)).elements):
                    return False
    return True


class TestRayGraph:
    def test_petersen_statistics(self, a3):
        g = ray_adjacency_graph(a3)
        assert g.stats() == {
            "vertices": 10, "edges": 15, "regular": 3,
            "degree_min": 3, "degree_max": 3, "girth": 5,
        }

    def test_petersen_isomorphic(self, a3):
        networkx = pytest.importorskip("networkx")
        g = ray_adjacency_graph(a3)
        G = networkx.Graph(g.edges)
        assert networkx.is_isomorphic(G, networkx.petersen_graph())

    def test_heawood_statistics(self, fano_m):
        g = ray_adjacency_graph(fano_m)
        assert g.stats() == {
            "vertices": 14, "edges": 21, "regular": 3,
            "degree_min": 3, "degree_max": 3, "girth": 6,
        }

    def test_heawood_isomorphic(self, fano_m):
        networkx = pytest.importorskip("networkx")
        g = ray_adjacency_graph(fano_m)
        G = networkx.Graph(g.edges)
        assert networkx.is_isomorphic(G, networkx.heawood_graph())

    def test_edgeless(self, u23):
        g = ray_adjacency_graph(u23)
        assert g.stats()["vertices"] == 3
        assert g.stats()["edges"] == 0
        assert g.stats()["girth"] is None
        assert g.stats()["regular"] == 0

    def test_dot_export(self, a3):
        dot = ray_adjacency_graph(a3).to_dot()
        assert dot.splitlines()[0] == "graph rays {"
        assert dot.count(" -- ") == 15
        assert 'rank=2' in dot

    def test_ray_permutation_fano_selfduality(self):
        M, sd = fano_selfduality()
        g = ray_adjacency_graph(M)
        perm = ray_permutation(g, sd)
        assert sorted(perm) == list(range(14))
        # points (rank 1) and lines (rank 2) swap
        ranks = [M.rank(F.elements) for F in g.vertices]
        for i, j in enumerate(perm):
            assert ranks[i] + ranks[j] == 3
        # applying twice gives the identity
        assert all(perm[perm[i]] == i for i in range(14))

    def test_girth_matches_per_edge_bfs_on_random_graphs(self):
        rng = random.Random(2024)
        girths = set()
        for _ in range(400):
            g = random_graph(rng)
            assert g.girth() == per_edge_girth(g), g.edges
            girths.add(g.girth())
        assert {None, 3, 4, 5} <= girths

    @pytest.mark.parametrize("spec", ["D4", "B4", "F4"])
    def test_girth_matches_per_edge_bfs_on_ray_graphs(self, spec):
        g = ray_adjacency_graph(coxeter_matroid(spec))
        assert g.girth() == per_edge_girth(g)

    def test_girth_stops_at_a_triangle(self):
        # a triangle 0-1-2 with a path 2-3-...-11 hanging off it: the search
        # stops after the first root, which lies on the triangle, and reads
        # no vertex of the path past 2
        edges = ((0, 1), (0, 2), (1, 2)) + tuple((i, i + 1) for i in range(2, 11))
        vertices = tuple(Flat(frozenset({i}), 1) for i in range(12))
        g = ReadRecordingGraph(None, vertices, edges)
        assert g.girth() == 3
        assert g.reads == {0, 1, 2}

    def test_girth_of_petersen_and_a_forest(self, a3):
        assert ray_adjacency_graph(a3).girth() == 5  # the Petersen graph
        vertices = tuple(Flat(frozenset({i}), 1) for i in range(7))
        forest = RayGraph(None, vertices, ((0, 1), (0, 2), (2, 3), (4, 5)))
        assert forest.girth() is None

    @pytest.mark.parametrize("spec", [
        "D4", "D5", "B4", "B5", "F4", "E6", "H3", "H4", "A5", "B3", "K5", "K6",
        "fano", "dowling:Z3", "U:3,6",
    ])
    def test_edges_match_the_pair_loop(self, spec):
        M, reference = from_spec_string(spec), from_spec_string(spec)
        assert ray_adjacency_graph(M).edges == pair_loop_edges(reference)

    @pytest.mark.parametrize("spec", ["D5", "F4"])
    def test_edges_after_the_connected_walk(self, spec):
        # the connected walk fills the connected levels first; the disjoint
        # pairs still come from the full walk's levels
        M, reference = coxeter_matroid(spec), coxeter_matroid(spec)
        nested_rays(M)
        assert M._connected_cache and not M._flats_cache.get(M.full_rank() - 1)
        assert ray_adjacency_graph(M).edges == pair_loop_edges(reference)

    def test_keeps_the_connected_levels_it_filters(self, monkeypatch):
        # the rays and the connectivity verdicts after the graph read the
        # levels the graph filtered: no second filter of the full walk
        M, reference = coxeter_matroid("D5"), coxeter_matroid("D5")
        ray_adjacency_graph(M)
        filtered = []
        levels = Matroid._connected_levels

        def counted(self):
            filtered.append(self)
            return levels(self)

        monkeypatch.setattr(Matroid, "_connected_levels", counted)
        rays = nested_rays(M)
        assert all(M.is_connected(F.elements) for F in rays)
        assert filtered == []
        assert rays == nested_rays(reference)  # by the connected walk

    @pytest.mark.parametrize("spec", ["D4", "B4", "F4", "H3", "K5", "B3+A3"])
    def test_pair_nested_matches_join_connectivity(self, spec):
        def build():
            if spec == "K5":
                return complete_graph_matroid(5)
            if spec == "B3+A3":
                return direct_sum(coxeter_matroid("B3"), coxeter_matroid("A3"))
            return coxeter_matroid(spec)

        M, reference = build(), build()
        rays = nested_rays(M)
        census = flat_census(M)
        meeting = top = 0
        for A, B in itertools.combinations(rays, 2):
            a, b = A.elements, B.elements
            if a <= b or b <= a:
                expected = True
            else:
                expected = not reference.is_connected(reference.closure(a | b).elements)
                meeting += bool(a & b)
                top += not a & b and A.rank + B.rank >= M.full_rank()
            assert _pair_nested(A, B, census) == expected, (sorted(a), sorted(b))
            assert _pair_nested(B, A, census) == expected, (sorted(b), sorted(a))
        assert meeting > 0
        if spec == "B3+A3":
            # the two components: disjoint, with ranks adding up to r(M)
            assert top > 0

    def test_ray_graph_rank_query_bound(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        calls = count_backend_calls(d5, monkeypatch)
        ray_adjacency_graph(d5)
        # the 2-partition connectivity test made 27,927 rank queries and
        # 10,206 closures here, and one closure per disjoint ray pair made
        # 3,715; the edges now come off the full walk's levels. A greedy-basis
        # test per ray made 172 closures; the rays' connectivity now comes
        # off the walk, and the one closure is that of the empty flat (E, a
        # flat, needs none). The greedy-basis test of E made 7 more; it is
        # now one fundamental-circuit elimination
        assert calls["rank_subset"] == 0
        assert calls["closure_fast"] == 1
        assert calls["fundamental_fast"] == 1
        # the simplicity check's state of the empty flat is the walk's
        assert calls["covers_fast"] == 1


def test_ray_graph_runs_the_full_walk_alone(monkeypatch):
    # the disjoint nested pairs are the components of the full walk's flats
    # of two components, and the rays are read off the same levels
    d5, reference = coxeter_matroid("D5"), coxeter_matroid("D5")
    walks, reference_walks = record_walks(d5, monkeypatch), record_walks(reference, monkeypatch)
    graph = ray_adjacency_graph(d5)
    # the simplicity check's walk to the points, then the full walk, by orbits
    assert walks == [(1, "depth-first"), (4, "orbits")]
    assert list(graph.vertices) == nested_rays(reference)
    assert reference_walks == [(4, "connected orbits")]  # nested_rays alone walks connected


class TestGraphS:
    def test_rank_one_neighbor_count(self):
        d4 = coxeter_matroid("D4")
        e = by_label(d4, "x1+x2")[0]
        assert rank_one_neighbor_count(d4, e) == 3

    @pytest.mark.parametrize("minor", ["D4/0", "A3/0", "U:2,3/0"])
    def test_rank_one_neighbor_count_on_non_simple(self, minor):
        spec, contracted = minor.split("/")
        base = uniform(2, 3) if spec == "U:2,3" else coxeter_matroid(spec)
        M = base.contract(int(contracted))
        assert not M.is_simple()
        for e in range(M.size):
            expected = sum(
                1 for f in range(M.size)
                if f != e and len(M.closure({e, f}).elements) == 2
            )
            assert rank_one_neighbor_count(M, e) == expected

    @pytest.mark.parametrize("minor", ["D4/0", "A3/0"])
    def test_rank_one_neighbor_count_after_nested_rays(self, minor):
        # nested_rays stores the connected flats of a non-simple minor, whose
        # connected lines are not its lines of three or more points
        spec, contracted = minor.split("/")
        M, reference = (coxeter_matroid(spec).contract(int(contracted)) for _ in range(2))
        nested_rays(M)
        counts = [rank_one_neighbor_count(M, e) for e in range(M.size)]
        assert counts == rank_one_counts_by_definition(reference)

    @pytest.mark.parametrize("name", list(CENSUS_CASES))
    def test_rank_one_neighbor_count_matches_its_definition(self, name):
        M, reference = CENSUS_CASES[name](), CENSUS_CASES[name]()
        counts = [rank_one_neighbor_count(M, e) for e in range(M.size)]
        assert counts == rank_one_counts_by_definition(reference)

    @given(f3_vector_rows())
    @settings(max_examples=60, deadline=None)
    def test_rank_one_neighbor_count_on_f3_vectors(self, rows):
        M = f3_matroid(rows)
        counts = [rank_one_neighbor_count(M, e) for e in range(M.size)]
        assert counts == rank_one_counts_by_definition(f3_matroid(rows))

    def test_rank_one_neighbor_count_reads_the_census_once(self, monkeypatch):
        # each call rebuilt every neighbour list from the flats of rank at
        # most 2; 120 calls on E8 took 0.43 s
        d5 = coxeter_matroid("D5")
        walk, levels = d5._level, []

        def counted(k, *args):
            levels.append(k)
            return walk(k, *args)

        monkeypatch.setattr(d5, "_level", counted)
        # (n-2)(n-3)+1 = 7 orthogonal roots, none on a line of three
        assert [rank_one_neighbor_count(d5, e) for e in range(d5.size)] == [7] * 20
        # the lines first, then the simplicity check reads the points their
        # walk stored: one walk
        assert levels == [2, 1]

    def test_graph_s_covers_from_one_walk(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        calls = count_backend_calls(d5, monkeypatch)
        graph_S(d5)
        # D5 is a reflection arrangement, so the hyperplanes come from the
        # connected orbit walk, and the rank-one edges from its lines, with
        # no covers elimination per point: the walk starts from the state of
        # the empty flat that the simplicity check eliminated, and steps
        # once to each orbit of connected flats of rank 1 to 3, 8 in all
        # (the depth-first connected walk stepped to each of the 20 + 40 +
        # 50 connected flats, 110 steps; the full walk to all 20 + 110 +
        # 190 flats, 320 steps)
        assert calls["covers_fast"] == 1
        assert calls["cover_step"] == 8
        assert [len(d5.connected_flats_of_rank(k)) for k in (1, 2, 3)] == [20, 40, 50]
        # the empty flat the walk starts from; the hyperplanes' connectivity
        # comes off the walk (a greedy-basis test per hyperplane made 149)
        assert calls["closure_fast"] == 1

    @pytest.mark.parametrize("spec", ["D4", "D5", "B4", "F4"])
    def test_corank_one_matches_subset_sweep(self, spec):
        M, reference = coxeter_matroid(spec), coxeter_matroid(spec)
        flats = corank_one_connected_flats(M)
        assert [F.elements for F in flats] == sweep_corank_one(reference)
        for e in (0, M.size - 1):
            through = corank_one_connected_flats(M, through=e)
            assert [F.elements for F in through] == sweep_corank_one(reference, e)

    def test_corank_one_census_d4(self):
        d4 = coxeter_matroid("D4")
        e = by_label(d4, "x1+x2")[0]
        flats = corank_one_connected_flats(d4, through=e)
        assert len(flats) == 6
        for F in flats:
            assert d4.rank(F.elements) == 3
            assert d4.is_connected(F.elements)

    def test_graph_s_d4(self):
        d4 = coxeter_matroid("D4")
        result = graph_S(d4)
        rep = result.report
        assert rep["verdict"] is True
        assert rep["min_rank_one_degree"] == 9
        assert rep["max_corank_one_degree"] == 6
        assert set(rep["rank_one_degrees"]) == set(d4.ground.labels)

    def test_graph_s_rank_one_only(self):
        d4 = coxeter_matroid("D4")
        rep = graph_S(d4, rank_one_only=True).report
        assert rep["rank_one_only"] is True
        assert rep["verdict"] is None
        assert rep["corank_one_degrees"] is None

    def test_graph_s_budget(self):
        d5 = coxeter_matroid("D5")
        with pytest.raises(BudgetExceeded):
            graph_S(d5, max_subsets=10)

    def test_corank_one_past_36_elements_off_the_vector_backend(self):
        # 37 points in the plane with one line of three: every other line
        # is a disconnected pair; the walk has no ground-set cap
        M = Matroid(LineBackend(37, [(0, 1, 2)]))
        assert corank_one_connected_flats(M) == [Flat(frozenset({0, 1, 2}), 2)]

    def test_graph_s_validation(self, u23):
        with pytest.raises(InputError):
            graph_S(u23)  # rank 2 < 3
        broken = uniform(2, 3).contract([])  # fine; now force non-simple
        from cremfan.generators import parallel_connection
        # a matroid with a parallel pair: duplicate line elements via minors
        d4 = coxeter_matroid("D4")
        C = d4.contract(0)
        with pytest.raises(InputError):
            graph_S(C)
