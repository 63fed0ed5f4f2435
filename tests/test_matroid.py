"""Rank oracles, flats, connectivity, minors, and isomorphism search."""

import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from cremfan import circuits as circuits_module
from cremfan.errors import BudgetExceeded, InputError
from cremfan.field import Field
from cremfan.generators import (
    a3_arrangement,
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    parallel_connection,
    uniform,
)
from cremfan.isomorphism import _line_table, automorphisms, find_isomorphism
from cremfan.matroid import (
    CircuitBackend,
    ElementBijection,
    Flat,
    LineBackend,
    Matroid,
    VectorBackend,
    _members,
    census_mismatch,
)

from cremfan.quad import QuadSqrt5
from cremfan.serialize import matroid_from_dict, matroid_to_dict

from conftest import (
    CENSUS_CASES,
    by_label,
    closure_per_cover,
    count_backend_calls,
    covers,
    direct_sum,
    exhaustive_connected,
    f3_matroid,
    f3_vector_rows,
    quad_lines,
    quad_scale,
    record_walks,
)


def all_subsets(M):
    for k in range(M.size + 1):
        yield from itertools.combinations(range(M.size), k)


def _stack_depth():
    """The frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def all_flats(M):
    for k in range(M.full_rank() + 1):
        yield from M.flats_of_rank(k)


def _direct_sum_small():
    q = Field.from_spec("Q")
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]
    return Matroid(VectorBackend(q, vecs))


def _direct_sum_large():
    # B3 (9 elements) plus A3 (6 elements) on disjoint coordinates
    q = Field.from_spec("Q")
    left = [tuple(list(v) + [0, 0, 0]) for v in
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
             (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]]
    right = [tuple([0, 0, 0] + list(v)) for v in
             [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
              (0, 1, -1)]]
    return Matroid(VectorBackend(q, left + right))


def _over(spec, field):
    doc = matroid_to_dict(coxeter_matroid(spec))
    doc["field"] = field
    return matroid_from_dict(doc)


def _glued():
    Q = dowling_rank3("z2xz2")
    return parallel_connection(Q, Q.ground.index_of("p1"), uniform(2, 3), 0)


def naive_flats(M, k):
    """Rank-k flats by the closure of F + e for every flat F and every e."""
    level = {M.closure(()).elements}
    for _ in range(k):
        level = {
            M.closure(F | {e}).elements
            for F in level
            for e in range(M.size)
            if e not in F
        }
    return sorted(level, key=sorted)


class TestRankAxioms:
    def test_exhaustive_on_fixture(self, a3):
        ranks = {s: a3.rank(s) for s in all_subsets(a3)}
        assert ranks[()] == 0
        for s, r in ranks.items():
            assert 0 <= r <= len(s)  # normalization
        for s in ranks:
            for e in range(a3.size):
                if e in s:
                    continue
                bigger = tuple(sorted(s + (e,)))
                assert ranks[s] <= ranks[bigger] <= ranks[s] + 1  # unit increase
        for s1 in ranks:
            for s2 in ranks:
                union = tuple(sorted(set(s1) | set(s2)))
                inter = tuple(sorted(set(s1) & set(s2)))
                assert ranks[union] + ranks[inter] <= ranks[s1] + ranks[s2]

    def test_full_rank(self, a3, fano_m, u23):
        assert a3.full_rank() == 3
        assert fano_m.full_rank() == 3
        assert u23.full_rank() == 2

    def test_subset_validation(self, a3):
        with pytest.raises(InputError):
            a3.rank([0, 6])
        with pytest.raises(InputError):
            a3.rank([-1])


class TestClosureAndFlats:
    def test_closure_idempotent_extensive(self, a3):
        for s in all_subsets(a3):
            F = a3.closure(s)
            assert set(s) <= F.elements
            assert a3.closure(F.elements).elements == F.elements
            assert a3.rank(F.elements) == a3.rank(s)

    def test_is_flat(self, a3):
        assert a3.is_flat(a3.closure([0, 1]).elements)
        assert not a3.is_flat([0, 1])  # closure adds the third line element

    def test_flats_of_rank_counts(self, a3, fano_m):
        # rank-3 arrangement of 6 elements: 6 points, 7 lines (4 triple + 3
        # double), 1 plane
        assert len(a3.flats_of_rank(0)) == 1
        assert len(a3.flats_of_rank(1)) == 6
        assert len(a3.flats_of_rank(2)) == 7
        assert len(a3.flats_of_rank(3)) == 1
        # the 7-point plane: 7 points, 7 lines
        assert len(fano_m.flats_of_rank(1)) == 7
        assert len(fano_m.flats_of_rank(2)) == 7

    def test_fano_lines_are_triples(self, fano_m):
        lines = fano_m.flats_of_rank(2)
        assert all(len(L) == 3 for L in lines)
        # every pair of points lies on exactly one line
        cover = {}
        for L in lines:
            for pair in itertools.combinations(L.sorted(), 2):
                assert pair not in cover
                cover[pair] = L
        assert len(cover) == 21

    def test_flat_iteration_protocol(self, a3):
        F = a3.closure([0, 1])
        assert len(F) == 3
        assert set(F) == F.elements
        assert all(e in F for e in F.elements)


# one or more matroids per backend: vectors over Q, Q(sqrt5) and F_3;
# lines; circuits; minors, one of them not simple
WALK_CASES = {
    "A4": lambda: coxeter_matroid("A4"),
    "B4": lambda: coxeter_matroid("B4"),
    "H3": lambda: coxeter_matroid("H3"),
    "B3/Fp:3": lambda: _over("B3", "Fp:3"),
    "fano": fano,
    "dowling:Z3": lambda: dowling_rank3("Z3"),
    "U:3,6": lambda: uniform(3, 6),
    "glued": _glued,
    "D4/0": lambda: coxeter_matroid("D4").contract(0),
    "B4|10": lambda: coxeter_matroid("B4").restrict(range(10)),
}

# vector matroids, whose covers come from one elimination per flat
COVERS_CASES = {
    "D4": lambda: coxeter_matroid("D4"),
    "A4": lambda: coxeter_matroid("A4"),
    "H3": lambda: coxeter_matroid("H3"),
    "B3/Fp:3": lambda: _over("B3", "Fp:3"),
    # a loop (1) and a parallel pair (0, 3)
    "loop+parallel": lambda: Matroid(VectorBackend(Field.from_spec("Q"), [
        (1, 0, 0), (0, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 0, 1),
        (1, 1, 1),
    ])),
    # rows 2 and 3 are (2,1,0) + 2(0,1,1) and (2,1,0) - 2(0,1,1)
    "scaled": lambda: Matroid(VectorBackend(Field.from_spec("Q"), [
        (2, 1, 0), (0, 1, 1), (2, 3, 2), (2, -1, -2), (0, 0, 1), (1, 0, 0),
    ])),
}


# the walk on each backend (lines, circuits, a minor, vectors over F_3),
# and on a ground set wider than a 64-bit word, to rank 2
MASK_CASES = {
    "fano lines": fano,
    "K5 circuits": lambda: Matroid(
        CircuitBackend(10, complete_graph_matroid(5).circuits(), checked=True)
    ),
    "D4/0": lambda: coxeter_matroid("D4").contract(0),
    "B3/Fp:3": lambda: _over("B3", "Fp:3"),
    "E8": lambda: coxeter_matroid("E8"),
}


class TestLatticeWalk:
    @pytest.mark.parametrize("name", list(MASK_CASES))
    def test_mask_levels_are_the_closure_census(self, name):
        M, reference = MASK_CASES[name](), MASK_CASES[name]()
        depth = 2 if M.size > 64 else M.full_rank()
        M.flats_of_rank(depth)
        for k in range(depth + 1):
            want = naive_flats(reference, k)
            level, flats = M._flats_cache[k], M.flats_of_rank(k)
            # keyed by bitmask, in the canonical order of the element sets
            assert list(level) == [sum(1 << e for e in S) for S in want]
            assert [F.elements for F in flats] == want
            assert all(F.mask == S and F.rank == k for S, F in zip(level, flats))

    @pytest.mark.parametrize("connected", [False, True], ids=["full", "connected"])
    @pytest.mark.parametrize("name", ["D4", "H3", "A2+B2", "fano lines", "D4/0"])
    def test_levels_map_each_flat_to_the_flat_it_was_found_from(self, name, connected):
        make = REFLECTION_CASES.get(name) or MASK_CASES[name]
        M, census = make(), make().flat_census()
        r = M.full_rank()
        M._walk(r, None, connected=connected)
        levels = M._connected_cache if connected else M._flats_cache
        assert sorted(levels) == list(range(r + 1))
        for k, level in levels.items():
            for G, F in level.items():
                assert type(G) is int and G in census[k]
                if F is None:  # cl(empty set), which only the full walk stores
                    assert k == 0 and not connected
                    continue
                # a flat of the level below, covered by G
                assert type(F) is int and k and F in census[k - 1]
                assert F & ~G == 0
                if connected and k > 1:
                    assert F in levels[k - 1]

    @pytest.mark.parametrize("name", sorted(WALK_CASES))
    def test_flats_of_rank_matches_naive_walk(self, name):
        M, reference = WALK_CASES[name](), WALK_CASES[name]()
        for k in range(M.full_rank() + 1):
            flats = M.flats_of_rank(k)
            assert [F.elements for F in flats] == naive_flats(reference, k)
            assert all(F.rank == k for F in flats)

    def test_levels_in_any_order(self):
        top_down, bottom_up = coxeter_matroid("B4"), coxeter_matroid("B4")
        expected = [bottom_up.flats_of_rank(k) for k in range(5)]
        for k in (3, 1, 4, 0, 2):
            assert top_down.flats_of_rank(k) == expected[k]

    @pytest.mark.parametrize("name", sorted(WALK_CASES))
    def test_covers_partition_the_rest(self, name):
        M = WALK_CASES[name]()
        for F in all_flats(M):
            above = covers(M, F)
            assert sorted(G.sorted() for G in above) == sorted(
                {M.closure(F.elements | {e}).sorted()
                 for e in range(M.size) if e not in F}
            )
            outside = [G.elements - F.elements for G in above]
            assert sum(map(len, outside)) == M.size - len(F)
            assert frozenset().union(*outside) == frozenset(range(M.size)) - F.elements

    def test_covers_needs_a_flat(self, a3):
        with pytest.raises(InputError):
            covers(a3, {0, 1})

    @pytest.mark.parametrize("name", sorted(COVERS_CASES))
    def test_covers_match_closure_per_cover(self, name):
        M, reference = COVERS_CASES[name](), COVERS_CASES[name]()
        assert M.backend.covers_fast
        for F in all_flats(reference):
            assert covers(M, F) == closure_per_cover(reference, F.elements)

    def test_covers_of_a_non_simple_vector_matroid(self):
        M = COVERS_CASES["loop+parallel"]()
        assert M.closure(()).elements == {1}
        assert [G.sorted() for G in M.flats_of_rank(1)] == [
            (0, 1, 3), (1, 2), (1, 4), (1, 5), (1, 6)
        ]

    def test_covers_divide_out_a_common_factor(self):
        # modulo row 0 the rows 1, 2, 3 reduce to (0,2,2), (0,4,4), (0,-4,-4)
        M = COVERS_CASES["scaled"]()
        assert [G.sorted() for G in covers(M, M.closure({0}))] == [
            (0, 1, 2, 3), (0, 4), (0, 5)
        ]

    @pytest.mark.parametrize("spec, expanded", [
        ("D5", 320), ("B5", 525), ("F4", 146), ("H4", 782), ("K7", 812),
    ])
    def test_one_elimination_per_flat(self, spec, expanded, monkeypatch):
        M = complete_graph_matroid(7) if spec == "K7" else coxeter_matroid(spec)
        r = M.full_rank()
        calls = count_backend_calls(M, monkeypatch)
        M.flats_of_rank(r - 1)
        # the walk to rank r - 1 expands each flat of rank 1 to r - 2 once,
        # by one step from the state of the flat it was found from; only
        # the empty flat is eliminated from scratch, and no rank query
        assert sum(len(M.flats_of_rank(j)) for j in range(1, r - 1)) == expanded
        assert calls == {
            "rank_subset": 0, "closure_fast": 1, "fundamental_fast": 0, "covers_fast": 1,
            "cover_step": expanded,
        }

    def test_one_backend_closure_per_cover(self, monkeypatch):
        # the closure-per-cover path of backends without covers_fast
        d5 = coxeter_matroid("D5")
        monkeypatch.setattr(d5.backend, "covers_fast", None)
        calls = count_backend_calls(d5, monkeypatch)
        d5.flats_of_rank(4)
        counted = calls["closure_fast"]
        levels = [{F.elements for F in d5.flats_of_rank(k)} for k in range(5)]
        covers = [
            (F, G)
            for k in range(1, 5)
            for G in levels[k]
            for F in levels[k - 1]
            if F < G
        ]
        # at most one closure per cover relation, plus that of the empty
        # set; the closure cache answers the rest, e.g. the seed {0} + 1 of
        # a line through 0 is the seed {1} + 0 of the same line through 1
        assert len(covers) == 1850
        assert counted <= len(covers) + 1
        assert counted == 1400

    def test_budget_names_the_flats_found_per_rank(self):
        d4 = coxeter_matroid("D4")
        with pytest.raises(BudgetExceeded) as info:
            d4.flats_of_rank(3, max_covers=20)
        # depth first: the first point, the lines through it found so far
        # and the planes through those
        assert str(info.value) == (
            "the flat-lattice walk to rank 3 needs more than 20 covers; it "
            "had found 14 flats, by rank from 1 to 3: 1, 5, 8"
        )
        assert d4._flats_cache == {}  # a stopped walk stores nothing

    @pytest.mark.parametrize("walked", [None, 2], ids=["fresh", "after-rank-2"])
    def test_budget_counts_every_cover_from_the_empty_flat(self, walked):
        # 12 covers of the empty flat, 84 of the points, 120 of the lines:
        # what a walk to rank 3 issues, whatever was walked before
        d4 = coxeter_matroid("D4")
        if walked is not None:
            d4.flats_of_rank(walked)
        stored = {k: dict(level) for k, level in d4._flats_cache.items()}
        with pytest.raises(BudgetExceeded, match="more than 215 covers"):
            d4.flats_of_rank(3, max_covers=215)
        assert d4._flats_cache == stored
        assert len(d4.flats_of_rank(3, max_covers=216)) == 24
        assert sorted(d4._flats_cache) == [0, 1, 2, 3]

    def test_deep_input_ends_in_the_budget_not_the_stack(self):
        # the Boolean lattice of 40 unit vectors: the walk's path reaches
        # rank 38 long before its budget, with the stack a few frames deep
        q = Field.from_spec("Q")
        M = Matroid(VectorBackend(q, [[int(i == j) for j in range(40)] for i in range(40)]))
        assert M.full_rank() == 40
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 25)
        try:
            with pytest.raises(BudgetExceeded, match="more than 5000 covers"):
                M.flats_of_rank(39, max_covers=5000)
        finally:
            sys.setrecursionlimit(limit)

    def test_negative_budget_is_input_error(self):
        d4 = coxeter_matroid("D4")
        for k in (1, 1):  # a fresh walk, then a level already cached
            with pytest.raises(InputError, match="max_covers must be non-negative, got -1"):
                d4.flats_of_rank(k, max_covers=-1)
            d4.flats_of_rank(k)


def _k7_over_f101():
    doc = matroid_to_dict(complete_graph_matroid(7))
    doc["field"] = "Fp:101"
    return matroid_from_dict(doc)


# Vector matroids over each domain for the stepped cover states: loops and a
# parallel pair, reduced rows with a common factor (Z), D4, H3 (Z[sqrt5]),
# B3 over F_3, K7 over F_101 and a direct sum.
STEPPED_CASES = {
    "loop+parallel": COVERS_CASES["loop+parallel"],
    "scaled": COVERS_CASES["scaled"],
    "D4": COVERS_CASES["D4"],
    "H3": COVERS_CASES["H3"],
    "B3/Fp:3": COVERS_CASES["B3/Fp:3"],
    "K7/Fp:101": _k7_over_f101,
    "direct-sum": _direct_sum_small,
}


def assert_stepped_states(M):
    """Every flat the walk expands has the from-scratch covers as its stepped
    cover state; in a walk to the lines (rank 2), each point's holds only the
    lines no earlier point holds."""
    on_path, expanded, lines = M._on_path, [], set()
    r = M.full_rank()

    def checked(F, rank, stepped):
        scratch = M.backend.covers_fast(tuple(_members(F)))
        assert stepped.rank == scratch.rank == rank
        groups = scratch.groups
        if r == 2 and rank == 1:
            groups = [g for g in groups if F | g not in lines]
            lines.update(F | g for g in groups)
        assert stepped.groups == groups
        expanded.append(F)
        return on_path(F, rank, stepped)

    M._on_path = checked
    M.flats_of_rank(r)
    # a walk to rank r expands every flat of lower rank
    assert len(expanded) == sum(len(M.flats_of_rank(k)) for k in range(r))


# Every Coxeter type of rank at most 6, and a reducible root system
COXETER_UP_TO_6 = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)] + ["E6", "F4", "H3", "H4"]
)
REFLECTION_CASES = {spec: (lambda spec=spec: coxeter_matroid(spec)) for spec in COXETER_UP_TO_6}
REFLECTION_CASES["A2+B2"] = lambda: direct_sum(coxeter_matroid("A2"), coxeter_matroid("B2"))


def connected_levels(M, k):
    """The full walk's levels 1 to k, filtered by the greedy-basis oracle
    (reference: ``is_connected`` of a walked flat reads the levels under test)."""
    return [
        [F for F in M.flats_of_rank(j) if M._connected(F.elements)]
        for j in range(1, k + 1)
    ]


def _drop_one_root(spec):
    rows = coxeter_matroid(spec).backend.vectors[1:]
    return Matroid(VectorBackend(Field.from_spec("Q"), rows))


def _fano_over_f2():
    rows = [v for v in itertools.product(range(2), repeat=3) if any(v)]
    return Matroid(VectorBackend(Field.from_spec("Fp:2"), rows))


def _u34_over_q():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    return Matroid(VectorBackend(Field.from_spec("Q"), rows))


def _b4_with_a_parallel_pair():
    rows = coxeter_matroid("B4").backend.vectors
    return Matroid(VectorBackend(Field.from_spec("Q"), rows + [[2 * x for x in rows[0]]]))


# inputs the connected walk does not apply to, each with a rank-3 flat or more
FULL_WALK_CASES = {
    "U:3,4 over Q": _u34_over_q,
    "B3 minus a root": lambda: _drop_one_root("B3"),
    "D4 minus a root": lambda: _drop_one_root("D4"),
    "fano over F2": _fano_over_f2,
    "fano lines": fano,
    "B4 with a parallel pair": _b4_with_a_parallel_pair,
    "D4/0": lambda: coxeter_matroid("D4").contract(0),
    "K5 circuits": lambda: Matroid(
        CircuitBackend(10, complete_graph_matroid(5).circuits(), checked=True)
    ),
}


class TestConnectedWalk:
    @pytest.mark.parametrize("name", list(REFLECTION_CASES))
    def test_levels_are_the_connected_flats(self, name):
        M, reference = REFLECTION_CASES[name](), REFLECTION_CASES[name]()
        assert M.backend.reflection_closed
        r = M.full_rank()
        # the walk to full rank, also on the types of rank 1 and 2, which
        # connected_flats_of_rank leaves to the full walk
        M._walk(r, None, connected=True)
        assert sorted(M._connected_cache) == list(range(r + 1))
        assert M._flats_cache == {}
        walked = [M.connected_flats_of_rank(k) for k in range(1, r + 1)]
        assert walked == connected_levels(reference, r)
        # E is connected exactly when the root system is irreducible
        assert len(walked[-1]) == (0 if name == "A2+B2" else 1)

    @pytest.mark.parametrize("spec", ["D4", "D5", "B4", "F4", "H4", "E6"])
    def test_runs_from_rank_3_on_a_reflection_arrangement(self, spec, monkeypatch):
        M, reference = coxeter_matroid(spec), coxeter_matroid(spec)
        r = M.full_rank()
        calls = count_backend_calls(M, monkeypatch)
        hyperplanes = M.connected_flats_of_rank(r - 1)
        assert sorted(M._connected_cache) == list(range(r))
        assert list(M._flats_cache) == []  # no full walk, not even to the points
        # one elimination of the empty flat, one step per connected flat of
        # rank 1 to r - 2, and no rank or closure query but cl(empty set)
        assert calls["covers_fast"] == 1
        assert calls["cover_step"] == sum(
            len(M.connected_flats_of_rank(k)) for k in range(1, r - 1)
        )
        assert calls["rank_subset"] == 0 and calls["closure_fast"] == 1
        assert hyperplanes == connected_levels(reference, r - 1)[-1]

    def test_ranks_1_and_2_read_the_full_walk(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        walks = record_walks(d5, monkeypatch)
        lines = d5.connected_flats_of_rank(2)
        assert walks == [(2, False)] and sorted(d5._flats_cache) == [0, 1, 2]
        assert [len(L) for L in lines] == [3] * 40

    def test_a_full_walk_already_stored_is_read(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        d5.flats_of_rank(4)
        walks = record_walks(d5, monkeypatch)
        assert len(d5.connected_flats_of_rank(4)) == 21
        assert walks == []

    @pytest.mark.parametrize("name", list(FULL_WALK_CASES))
    def test_the_full_walk_runs_when_the_precondition_fails(self, name, monkeypatch):
        M, reference = FULL_WALK_CASES[name](), FULL_WALK_CASES[name]()
        assert not getattr(M.backend, "reflection_closed", False)
        r = M.full_rank()
        walks = record_walks(M, monkeypatch)
        assert [M.connected_flats_of_rank(k) for k in range(1, r + 1)] == (
            connected_levels(reference, r)
        )
        # one full walk per level, each deeper than the last
        assert walks == [(k, False) for k in range(1, r + 1)]

    def test_u34_shows_why_the_precondition_is_needed(self):
        # E is connected, but every flat it covers is a disconnected pair, so
        # a connected walk forced onto U(3,4) never reaches it
        M = _u34_over_q()
        assert M.connected_flats_of_rank(3) == [Flat(frozenset(range(4)), 3)]
        M._walk(3, None, connected=True)
        assert M._connected_cache[2] == {} and M._connected_cache[3] == {}

    def test_budget_names_the_connected_flats_found(self):
        d4 = coxeter_matroid("D4")
        with pytest.raises(BudgetExceeded) as info:
            d4.connected_flats_of_rank(3, max_covers=12)
        # depth first: the point 0 and the connected flats found below it
        # before the 13th cover; the pairs it skips count as covers too
        assert str(info.value) == (
            "the connected-flat walk to rank 3 needs more than 12 covers; it "
            "had found 10 connected flats, by rank from 1 to 3: 1, 3, 6"
        )
        assert d4._connected_cache == {}
        with pytest.raises(InputError):
            d4.connected_flats_of_rank(4 + 1)
        with pytest.raises(InputError):
            d4.connected_flats_of_rank(3, max_covers=-1)

    def test_e8_connected_flats_to_rank_4(self):
        e8 = coxeter_matroid("E8")
        counts = [len(e8.connected_flats_of_rank(k)) for k in (4, 3, 2, 1)]
        assert counts == [27_342, 7_560, 1_120, 120]


class TestSteppedCovers:
    @pytest.mark.parametrize("name", sorted(STEPPED_CASES))
    def test_stepped_states_match_from_scratch(self, name):
        assert_stepped_states(STEPPED_CASES[name]())

    @given(f3_vector_rows())
    @settings(max_examples=60, deadline=None)
    def test_stepped_states_of_f3_vectors(self, rows):
        assert_stepped_states(f3_matroid(rows))

    def test_the_path_holds_one_flat_per_rank(self):
        d5 = coxeter_matroid("D5")
        on_path, pushed = d5._on_path, []
        d5._on_path = lambda F, rank, state: pushed.append((F, rank)) or on_path(F, rank, state)
        d5.flats_of_rank(4)
        # each flat is expanded from the one flat of the rank below it on
        # the path, the last one pushed there, so at most 4 states are alive
        last = {}
        for F, rank in pushed:
            if rank:
                assert d5._flats_cache[rank][F] == last[rank - 1]
            last[rank] = F
        assert sorted(last) == [0, 1, 2, 3]
        assert len(pushed) == 1 + 320


def assert_line_census(M, twin):
    """M's walk to the lines, against the same walk of its twin with cover
    steps that skip nothing (reference): the same keys, the same values and
    the same order at ranks 0 to 2. Returns the summed groups of the point
    states the walk steps, None off a vector matroid."""
    step = getattr(twin.backend, "cover_step", None)
    if step is not None:
        twin.backend.cover_step = lambda state, g, skip=0: step(state, g)
    on_path, groups = M._on_path, []

    def counted(F, rank, state):
        if rank == 1 and state is not None:
            groups.append(len(state.groups))
        return on_path(F, rank, state)

    M._on_path = counted
    M.flats_of_rank(2)
    twin.flats_of_rank(2)
    assert sorted(M._flats_cache) == [0, 1, 2]
    for k, level in M._flats_cache.items():
        assert list(level.items()) == list(twin._flats_cache[k].items())
    return sum(groups) if step is not None else None


@st.composite
def int_vector_rows(draw):
    """Integer rows with a zero row and a multiple of the first among them."""
    width = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=2, max_size=8))
    return rows + [[0] * width, [-2 * x for x in rows[0]]]


def _over_quad(rows):
    # rows flattened pairwise, (a, b) for a + b*sqrt5
    f = Field.from_spec("Qsqrt5")
    return Matroid(VectorBackend(f, [
        [QuadSqrt5(r[j], r[j + 1]) for j in range(0, len(r), 2)] for r in rows
    ]))


# named inputs with their lines: vector matroids over Z, and the line and
# circuit backends, whose walk takes one closure per cover
LINE_CENSUS_CASES = {
    "K7": (lambda: complete_graph_matroid(7), 140),
    "H4": (lambda: coxeter_matroid("H4"), 722),
    "D5": (lambda: coxeter_matroid("D5"), 110),
    "fano": (fano, 7),
    "dowling:Z3": (lambda: dowling_rank3("Z3"), 21),
    "U:3,6": (lambda: uniform(3, 6), 15),
}


class TestLineCensus:
    """The walk to rank 2 keys each line once, from the first point on it,
    and stores what a walk that keys every line from every point stores."""

    @given(int_vector_rows())
    @settings(max_examples=80, deadline=None)
    def test_over_z(self, rows):
        M, twin = (Matroid(VectorBackend(Field.from_spec("Q"), rows)) for _ in range(2))
        assume(M.full_rank() >= 2)
        assert assert_line_census(M, twin) == len(M._flats_cache[2])

    @given(quad_lines())
    @settings(max_examples=80, deadline=None)
    def test_over_z_sqrt5(self, rows):
        rows = rows + [[0] * len(rows[0]), quad_scale((1, 1), rows[0])]
        M, twin = _over_quad(rows), _over_quad(rows)
        assume(M.full_rank() >= 2)
        assert assert_line_census(M, twin) == len(M._flats_cache[2])

    @given(int_vector_rows(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_over_f_p(self, rows, p):
        rows = [[x % p for x in r] for r in rows]
        M, twin = (Matroid(VectorBackend(Field.from_spec(f"Fp:{p}"), rows)) for _ in range(2))
        assume(M.full_rank() >= 2)
        assert assert_line_census(M, twin) == len(M._flats_cache[2])

    @pytest.mark.parametrize("name", list(LINE_CENSUS_CASES))
    def test_named_inputs(self, name):
        make, lines = LINE_CENSUS_CASES[name]
        M, twin, reference = make(), make(), make()
        groups = assert_line_census(M, twin)
        level = M._flats_cache[2]
        assert [_members(L) for L in level] == [sorted(L) for L in naive_flats(reference, 2)]
        assert len(level) == lines
        # each line is found from its first point, the closure of its least element
        for L, P in level.items():
            assert P == reference.closure(_members(L)[:1]).mask
        # one point-state group per line (was one per point on each line:
        # 315 on K7, 1,860 on H4, 260 on D5)
        if isinstance(M.backend, VectorBackend):
            assert groups == lines
        else:
            assert groups is None


class TestBackends:
    def test_vector_backend_fields_agree_on_regular_matroid(self):
        # signed incidence columns of the 4-vertex complete graph are
        # totally unimodular: same matroid over Q and F2
        cols = [
            (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
            (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1),
        ]
        over_q = Matroid(VectorBackend(Field.from_spec("Q"), cols))
        over_f2 = Matroid(VectorBackend(Field.from_spec("Fp:2"), cols))
        for s in all_subsets(over_q):
            assert over_q.rank(s) == over_f2.rank(s)

    def test_line_backend_matches_vector_fano(self, fano_m):
        f2 = Field.from_spec("Fp:2")
        vecs = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
                (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        vector_fano = Matroid(VectorBackend(f2, vecs))
        iso = find_isomorphism(fano_m, vector_fano)
        assert iso is not None

    def test_line_backend_rejects_overlapping_lines(self):
        with pytest.raises(InputError):
            LineBackend(5, [(0, 1, 2), (0, 1, 3)])

    def test_circuit_backend_refuses_a_non_matroid_list(self):
        # {0, 1} and {1, 2} share 1 and no listed circuit lies in {0, 2}; as a
        # rank oracle the list gave r{0} = r{1} = 1 and r{0, 2} = 2
        with pytest.raises(InputError, match="circuit elimination"):
            CircuitBackend(3, [{0, 1}, {1, 2}])
        M = Matroid(CircuitBackend(3, [{0, 1}, {1, 2}, {0, 2}]))  # U_{1,3}
        assert [M.rank({e}) for e in range(3)] == [1, 1, 1]
        assert M.rank({0, 2}) == 1

    @pytest.mark.parametrize("name", ["fano-lines", "K5", "U:2,4", "U:0,3", "U:1,3"])
    def test_circuit_backend_accepts_matroid_circuits(self, name):
        M = CENSUS_CASES[name]()
        N = Matroid(CircuitBackend(M.size, M.circuits()))
        assert all(N.rank(S) == M.rank(S) for S in all_subsets(M))

    @pytest.mark.parametrize("glue", [
        lambda: parallel_connection(uniform(2, 4), 0, uniform(1, 3), 0),
        lambda: parallel_connection(fano(), 0, complete_graph_matroid(4), 0),
    ], ids=["U24+U13", "fano+K4"])
    def test_parallel_connection_passes_the_check(self, glue):
        # parallel_connection builds its list unchecked; the check accepts it
        glued = glue()
        checked = Matroid(CircuitBackend(glued.size, glued.circuits()))
        assert all(checked.rank(S) == glued.rank(S) for S in all_subsets(glued))

    @given(st.lists(st.frozensets(st.integers(0, 4), min_size=1), max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_circuit_check_is_circuit_elimination(self, sets):
        antichain = list({C for C in sets if not any(D < C for D in sets)})
        eliminates = all(
            any(K <= (C | D) - {e} for K in antichain)
            for C, D in itertools.combinations(antichain, 2)
            for e in C & D
        )
        try:
            backend = CircuitBackend(5, antichain)
        except InputError as exc:
            assert not eliminates and "circuit elimination" in str(exc)
            return
        assert eliminates
        # the minimal dependent sets of the rank oracle are the list itself
        rank = Matroid(backend).rank
        dependent = [
            frozenset(S) for k in range(6) for S in itertools.combinations(range(5), k)
            if rank(S) < len(S)
        ]
        minimal = {C for C in dependent if not any(D < C for D in dependent)}
        assert minimal == set(antichain)

    def test_circuit_check_budget(self, monkeypatch):
        circuits = uniform(2, 9).circuits()  # 84 circuits, 3,486 pairs
        monkeypatch.setattr(circuits_module, "MAX_CIRCUIT_CHECKS", 3_485)
        with pytest.raises(BudgetExceeded, match="84 circuits"):
            CircuitBackend(9, circuits)
        # past the pairs, the budget also counts the elimination tests
        monkeypatch.setattr(circuits_module, "MAX_CIRCUIT_CHECKS", 3_486)
        with pytest.raises(BudgetExceeded, match="84 circuits"):
            CircuitBackend(9, circuits)
        monkeypatch.setattr(circuits_module, "MAX_CIRCUIT_CHECKS", 10 ** 6)
        assert Matroid(CircuitBackend(9, circuits)).full_rank() == 2

    def test_circuit_backend_uniform(self, u23):
        assert u23.rank([0, 1]) == 2
        assert u23.rank([0, 1, 2]) == 2
        assert [sorted(c) for c in u23.circuits()] == [[0, 1, 2]]

    def test_circuits_of_fano(self, fano_m):
        cs = fano_m.circuits()
        sizes = sorted(len(c) for c in cs)
        assert sizes == [3] * 7 + [4] * 7

    def test_circuit_count_of_graphic(self, k4):
        # K4 has 3 triangles + ... no: 4 triangles and 3 four-cycles
        cs = k4.circuits()
        sizes = sorted(len(c) for c in cs)
        assert sizes == [3, 3, 3, 3, 4, 4, 4]


class TestConnectivity:
    def test_connected_small(self, a3, u23):
        assert a3.is_connected(range(a3.size))
        assert u23.is_connected(range(u23.size))

    def test_direct_sum_disconnected_small(self):
        M = _direct_sum_small()
        assert not M.is_connected(range(6))
        assert M.is_connected([0, 1, 2])

    def test_direct_sum_disconnected_large_route(self):
        # a 15-element direct sum: the fundamental-circuit graph of a
        # basis splits into the B3 and the A3 part
        b3 = coxeter_matroid("B3")
        M = _direct_sum_large()
        assert M.size == 15
        assert not M.is_connected(range(15))
        assert M.is_connected(range(9))
        assert b3.is_connected(range(9))

    def test_every_line_of_three_is_connected(self, a3):
        for L in a3.flats_of_rank(2):
            assert a3.is_connected(L.elements) == (len(L) >= 3)

    @pytest.mark.parametrize("name", [
        "A3", "B3", "D4", "fano", "dowling:Z3", "U:3,6",
        "parallel-connection", "direct-sum-6", "direct-sum-15",
    ])
    def test_matches_exhaustive_partition_oracle(self, name):
        M = {
            "A3": a3_arrangement,
            "B3": lambda: coxeter_matroid("B3"),
            "D4": lambda: coxeter_matroid("D4"),
            "fano": fano,
            "dowling:Z3": lambda: dowling_rank3("Z3"),
            "U:3,6": lambda: uniform(3, 6),
            "parallel-connection": lambda: parallel_connection(
                dowling_rank3("z2"), 0, uniform(2, 3), 0),
            "direct-sum-6": _direct_sum_small,
            "direct-sum-15": _direct_sum_large,
        }[name]()
        verdicts = set()
        for F in all_flats(M):
            expected = exhaustive_connected(M, F.elements)
            assert M.is_connected(F.elements) == expected, F.sorted()
            verdicts.add(expected)
        assert verdicts == {True, False}


# every backend, parallel classes (D4/0, A3/0), a zero vector (loop+parallel)
# and disconnected flats up to E itself (the direct sums)
CONNECTIVITY_CASES = {
    **WALK_CASES,
    "A3/0": lambda: coxeter_matroid("A3").contract(0),
    "loop+parallel": COVERS_CASES["loop+parallel"],
    "direct-sum-6": _direct_sum_small,
    "direct-sum-15": _direct_sum_large,
}


@st.composite
def vector_blocks(draw):
    """(field spec, rows): one or two diagonal blocks over Q or F_3, each a
    set of distinct points with entries in {-1, 0, 1}, then maybe a zero row
    and a multiple of the first row; so simple and non-simple, connected
    and disconnected matroids all occur."""
    spec = draw(st.sampled_from(["Q", "Fp:3"]))
    blocks = []
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        width = draw(st.sampled_from([2, 3, 3, 4]))
        points = [v for v in itertools.product((-1, 0, 1), repeat=width)
                  if next((x for x in v if x), 0) == 1]
        blocks.append(draw(st.lists(st.sampled_from(points), min_size=width, max_size=9,
                                    unique=True)))
    widths = [len(block[0]) for block in blocks]
    rows = [[0] * sum(widths[:i]) + list(row) + [0] * sum(widths[i + 1:])
            for i, block in enumerate(blocks) for row in block]
    if not draw(st.integers(0, 3)):
        rows.append([0] * len(rows[0]))
    if not draw(st.integers(0, 3)):
        rows.append([2 * x for x in rows[0]])
    return spec, rows


def assert_walk_connectivity(M, reference, *, exhaustive_up_to=9):
    """M.is_connected on every flat against the greedy-basis oracle of a fresh copy."""
    for F in all_flats(reference):
        expected = reference._connected(F.elements)
        assert M.is_connected(F.elements) == expected, F.sorted()
        if len(F) <= exhaustive_up_to:
            assert exhaustive_connected(reference, F.elements) == expected


class TestConnectivityFromTheWalk:
    @pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
    def test_walked_flats_match_the_oracle(self, name):
        M, reference = CONNECTIVITY_CASES[name](), CONNECTIVITY_CASES[name]()
        list(all_flats(M))
        assert_walk_connectivity(M, reference)

    @pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
    def test_walked_flats_need_no_backend_call(self, name, monkeypatch):
        M = CONNECTIVITY_CASES[name]()
        flats = list(all_flats(M))
        calls = count_backend_calls(M, monkeypatch)
        verdicts = {M.is_connected(F.elements) for F in flats}
        assert verdicts == {True, False}
        assert calls == {
            "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 0, "covers_fast": 0,
            "cover_step": 0,
        }

    @given(f3_vector_rows())
    @settings(max_examples=60, deadline=None)
    def test_walked_flats_of_f3_vectors(self, rows):
        M = f3_matroid(rows)
        list(all_flats(M))
        assert_walk_connectivity(M, f3_matroid(rows))

    @given(vector_blocks(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_e_after_the_lines_as_the_elimination(self, case, filtered):
        # with the lines stored, E's verdict may come from them with no
        # backend call (the full walk's lines, or the connected lines the
        # filter keeps); it must be the elimination's
        spec, rows = case
        M = Matroid(VectorBackend(Field.from_spec(spec), rows))
        assume(M.full_rank() >= 2)
        M.connected_flats_of_rank(2) if filtered else M._level(2)
        E = frozenset(range(M.size))
        assert M.is_connected(E) == M._connected(E)

    @pytest.mark.parametrize("name, budget", [
        ("D4/0", 20), ("loop+parallel", 3), ("direct-sum-15", 30), ("H3", 40),
    ])
    def test_after_a_walk_stopped_mid_level(self, name, budget):
        M, reference = CONNECTIVITY_CASES[name](), CONNECTIVITY_CASES[name]()
        with pytest.raises(BudgetExceeded):
            M.flats_of_rank(M.full_rank(), max_covers=budget)
        # a stopped walk stores nothing: every flat goes to the oracle
        assert M._flats_cache == {}
        assert_walk_connectivity(M, reference)
        # then the walks start over from the empty flat
        list(all_flats(M))
        assert_walk_connectivity(M, reference)


# line, circuit and minor matroids, whose supports come from closures
FUNDAMENTAL_FALLBACK_CASES = {
    name: WALK_CASES[name] for name in ("fano", "dowling:Z3", "U:3,6", "glued", "D4/0", "B4|10")
}


def assert_fundamental(M, reference, subset):
    """M's greedy basis B of the subset and its supports against the rank and
    closure queries of a fresh copy: for every T within B, cl(T) holds the
    elements whose support lies in T. Asked for the subset alone, M gives
    the subset's supports."""
    basis, supports = M._fundamental(subset, range(M.size))
    assert M._fundamental(subset, subset) == (basis, {e: supports[e] for e in sorted(subset)})
    greedy = []
    for e in sorted(subset):
        if reference.rank(greedy + [e]) > len(greedy):
            greedy.append(e)
    assert basis == greedy
    for T in range(1 << len(basis)):
        spanned = [b for j, b in enumerate(basis) if T >> j & 1]
        inside = tuple(e for e, s in supports.items() if not s & ~T)
        assert reference.closure(spanned).sorted() == inside, (subset, spanned)


class TestFundamental:
    @pytest.mark.parametrize("name", sorted(FUNDAMENTAL_FALLBACK_CASES))
    def test_closure_fallback(self, name):
        M, reference = WALK_CASES[name](), WALK_CASES[name]()
        assert not hasattr(M.backend, "fundamental_fast")
        rng = random.Random(name)
        for k in range(M.size + 1):
            assert_fundamental(M, reference, rng.sample(range(M.size), k))

    @pytest.mark.parametrize("name", sorted(COVERS_CASES))
    def test_kernel(self, name):
        M, reference = COVERS_CASES[name](), COVERS_CASES[name]()
        rng = random.Random(name)
        for k in range(M.size + 1):
            assert_fundamental(M, reference, rng.sample(range(M.size), k))

    def test_fallback_matches_the_kernel(self):
        # D4's circuit list against its vectors: the same basis and supports
        vectors = coxeter_matroid("D4")
        circuits = Matroid(CircuitBackend(vectors.size, vectors.circuits(), checked=True))
        rng = random.Random(4)
        for k in range(vectors.size + 1):
            subset = rng.sample(range(vectors.size), k)
            everything = range(vectors.size)
            assert circuits._fundamental(subset, everything) == vectors._fundamental(
                subset, everything
            )

    def test_connected_e_is_one_elimination(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        calls = count_backend_calls(d5, monkeypatch)
        assert d5._connected(frozenset(range(d5.size)))
        assert calls == {
            "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 1, "covers_fast": 0,
            "cover_step": 0,
        }

    def test_connected_through_a_later_member(self):
        # e2 + e3 joins b1 and b2 before e1 + e2 joins b0 to b1: a search
        # that took the supports once, in element order, would stop at b0, b1
        M = Matroid(VectorBackend(Field.from_spec("Q"), [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0),
        ]))
        assert M._fundamental(range(5), range(5)) == (
            [0, 1, 2], {0: 1, 1: 2, 2: 4, 3: 6, 4: 3}
        )
        assert M.is_connected(range(5))

    def test_e_is_tested_once(self, monkeypatch):
        M = _direct_sum_large()
        tested = []
        connected = M._connected
        monkeypatch.setattr(M, "_connected", lambda F: tested.append(len(F)) or connected(F))
        assert [M.is_connected(range(M.size)) for _ in range(3)] == [False] * 3
        assert M.is_connected(range(9))
        assert tested == [15, 9]


def assert_walk_matches_a_fresh_twin(M, twin):
    """Every walked flat answers rank, closure, is_flat and is_connected as
    a twin that has not walked does."""
    flats = list(all_flats(M))
    assert not twin._flats_cache
    for F in flats:
        S = F.elements
        assert M.rank(S) == twin.rank(S) == F.rank, F.sorted()
        assert M.closure(S) == twin.closure(S) == F
        assert M.is_flat(S) and twin.is_flat(S)
        assert M.is_connected(S) == twin.is_connected(S), F.sorted()
    assert not twin._flats_cache


class TestOneStorePerFlat:
    @pytest.mark.parametrize("name", list(CENSUS_CASES))
    def test_walk_and_oracle_agree(self, name):
        assert_walk_matches_a_fresh_twin(CENSUS_CASES[name](), CENSUS_CASES[name]())

    @given(f3_vector_rows())
    @settings(max_examples=60, deadline=None)
    def test_walk_and_oracle_agree_on_f3_vectors(self, rows):
        assert_walk_matches_a_fresh_twin(f3_matroid(rows), f3_matroid(rows))

    @pytest.mark.parametrize("name", list(CENSUS_CASES))
    def test_census_levels_are_read_only(self, name):
        census = CENSUS_CASES[name]().flat_census()
        for level in census:
            with pytest.raises(AttributeError):
                level.add(frozenset())
            with pytest.raises(AttributeError):
                level.clear()

    def test_walked_flats_live_in_their_levels(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        d5.flats_of_rank(4)
        levels = d5._flats_cache
        walked = {S for level in levels.values() for S in level}
        assert len(walked) == 402
        # the oracle was asked for r(E), E of rank 5, and for cl(empty set),
        # the one flat of level 0; no other walked flat is cached
        root = d5.flats_of_rank(0)[0]
        assert set(d5._rank_cache) == {frozenset(), frozenset(range(20))}
        assert d5._closure_cache == {frozenset(): root}
        assert levels[0] == {root.mask: None}
        # the walk's records are the masks of the levels' own flats, no Flat
        for k, level in levels.items():
            for S, F in level.items():
                assert type(S) is int
                assert F is None if k == 0 else F in levels[k - 1]
        # a walked flat is answered off its level: no backend call, no entry
        calls = count_backend_calls(d5, monkeypatch)
        for k, level in levels.items():
            for S in level:
                F = Flat.of_mask(S, k)
                assert d5.rank(F.elements) == k
                assert d5.closure(F.elements) == F
        assert calls == {
            "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 0, "covers_fast": 0,
            "cover_step": 0,
        }
        assert len(d5._rank_cache) == 2 and len(d5._closure_cache) == 1


class TestMinors:
    def test_restriction_rank_identity(self, a3):
        sub = [0, 2, 3, 5]
        R = a3.restrict(sub)
        assert R.size == 4
        for s in all_subsets(R):
            original = [sub[i] for i in s]
            assert R.rank(s) == a3.rank(original)

    def test_contraction_rank_identity(self, a3):
        C = a3.contract(0)
        assert C.size == a3.size - 1
        kept = [e for e in range(a3.size) if e != 0]
        for s in all_subsets(C):
            original = [kept[i] for i in s]
            assert C.rank(s) == a3.rank(original + [0]) - a3.rank([0])

    def test_contraction_creates_parallel_pairs(self, a3):
        C = a3.contract(0)
        assert not C.is_simple()
        S, quotient = C.simplify()
        assert S.is_simple()
        assert len(quotient) == C.size
        # the quotient map sends every element to its representative's index
        for e, img in enumerate(quotient):
            assert img is None or 0 <= img < S.size

    @pytest.mark.parametrize("M, simple", [
        (uniform(0, 1), False),   # a single loop: cl({e}) = {e}, yet e is a loop
        (uniform(0, 3), False),
        (uniform(1, 2), False),   # two parallel elements
        (uniform(0, 0), True),
        (uniform(1, 1), True),
        (uniform(2, 4), True),
    ], ids=["U:0,1", "U:0,3", "U:1,2", "U:0,0", "U:1,1", "U:2,4"])
    def test_is_simple_on_uniform(self, M, simple):
        assert M.is_simple() is simple

    def test_is_simple_is_one_covers_elimination(self, monkeypatch):
        d5 = coxeter_matroid("D5")
        calls = count_backend_calls(d5, monkeypatch)
        assert d5.is_simple()
        assert calls == {
            "rank_subset": 0, "closure_fast": 1, "fundamental_fast": 0, "covers_fast": 1,
            "cover_step": 0,
        }
        assert list(d5._flats_cache) == [0, 1]  # the check's walk to the points
        # from the state of the empty flat that the check eliminated
        assert len(d5.flats_of_rank(2)) == 110
        assert calls["covers_fast"] == 1

    def test_simplify_drops_loops(self, u23):
        C = u23.contract([0, 1])  # contracting a basis: the rest are loops
        S, quotient = C.simplify()
        assert S.size == 0
        assert all(img is None for img in quotient)


class TestParallelConnection:
    def test_sizes_and_rank(self, u23, dowling_z2):
        M = parallel_connection(dowling_z2, 0, u23, 0)
        assert M.size == dowling_z2.size + u23.size - 1
        assert M.full_rank() == dowling_z2.full_rank() + u23.full_rank() - 1
        assert M.is_connected(range(M.size))

    def test_two_triangles(self, u23):
        M = parallel_connection(u23, 0, u23, 0)
        assert M.size == 5 and M.full_rank() == 3
        # circuits: both triangles and the 4-element symmetric difference
        sizes = sorted(len(c) for c in M.circuits())
        assert sizes == [3, 3, 4]

    def test_label_dedup(self, u23):
        M = parallel_connection(u23, 0, u23, 0)
        assert len(set(M.ground.labels)) == M.size


class TestIsomorphism:
    def test_b3_is_dowling_z2(self, b3, dowling_z2):
        iso = find_isomorphism(b3, dowling_z2)
        assert iso is not None
        # image of every flat is a flat of equal rank
        for k in range(1, 3):
            flats = {F.elements for F in b3.flats_of_rank(k)}
            images = {iso.image(F) for F in flats}
            assert images == {F.elements for F in dowling_z2.flats_of_rank(k)}

    def test_k4_is_dowling_trivial(self, k4):
        triv = dowling_rank3("z1")
        assert find_isomorphism(k4, triv) is not None

    def test_non_isomorphic(self, fano_m, u23):
        assert find_isomorphism(fano_m, uniform(3, 7)) is None
        assert find_isomorphism(u23, uniform(2, 4)) is None

    def test_automorphism_counts(self, b3, u23, fano_m, k4):
        assert len(automorphisms(u23)) == 6
        assert len(automorphisms(k4)) == 24
        assert len(automorphisms(b3)) == 24
        assert len(automorphisms(fano_m)) == 168

    def test_automorphisms_form_a_group(self, u23):
        auts = {a.forward for a in automorphisms(u23)}
        for a in automorphisms(u23):
            assert a.inverse().forward in auts
            for b in automorphisms(u23):
                assert a.compose(b).forward in auts

    def test_budget(self):
        e6 = coxeter_matroid("E6")
        with pytest.raises(BudgetExceeded):
            automorphisms(e6)


def closure_per_pair_lines(M):
    """Each line cl{a, b} with the pairs it closes, by one closure per pair (reference)."""
    pairs_of: dict[frozenset, set] = {}
    for a, b in itertools.combinations(range(M.size), 2):
        pairs_of.setdefault(M.closure({a, b}).elements, set()).add((a, b))
    return {frozenset(pairs): len(F) for F, pairs in pairs_of.items()}, [
        tuple(sorted(len(F) for F in pairs_of if e in F)) for e in range(M.size)
    ]


def census_lines(M):
    pair_line, sizes, profiles = _line_table(M.flat_census(), M.size)
    pairs_of: dict[int, set] = {}
    for pair, lid in pair_line.items():
        pairs_of.setdefault(lid, set()).add(pair)
    assert len(pairs_of) == len(sizes)
    return {frozenset(pairs): sizes[lid] for lid, pairs in pairs_of.items()}, profiles


class TestFlatCensus:
    def test_levels_are_the_flats_by_rank(self, a3):
        census = a3.flat_census()
        assert len(census) == a3.full_rank() + 1
        for k in range(a3.full_rank()):
            assert census[k] == {F.mask for F in a3.flats_of_rank(k)}
        assert census[-1] == {(1 << a3.size) - 1}

    @pytest.mark.parametrize("name", list(CENSUS_CASES))
    def test_line_table_matches_closure_per_pair(self, name):
        build = CENSUS_CASES[name]
        assert census_lines(build()) == closure_per_pair_lines(build())

    @given(f3_vector_rows())
    @settings(max_examples=60, deadline=None)
    def test_line_table_on_f3_vectors(self, rows):
        assert census_lines(f3_matroid(rows)) == closure_per_pair_lines(f3_matroid(rows))

    def test_mismatch_of_the_identity_and_an_automorphism(self, a3):
        census = a3.flat_census()
        assert census_mismatch(census, census) is None
        for phi in automorphisms(a3):
            assert census_mismatch(census, census, phi.forward) is None

    def test_mismatch_names_the_least_bad_rank(self, a3):
        # swapping two elements of A3 (two edges of K4) fixes every point but
        # carries some line onto a set that is not a flat
        census = a3.flat_census()
        swap = (1, 0) + tuple(range(2, a3.size))
        assert ElementBijection(swap) not in automorphisms(a3)
        assert census_mismatch(census, census, swap) == 2

    def test_mismatch_of_censuses_of_different_length(self, u23):
        census = u23.flat_census()
        assert census_mismatch(census, census[:-1]) == len(census) - 1
        assert census_mismatch(census[:-1], census) == len(census) - 1
        assert census_mismatch(census, uniform(3, 3).flat_census()) == 2

    def test_automorphisms_read_the_census(self, monkeypatch):
        a4 = coxeter_matroid("A4")
        calls = count_backend_calls(a4, monkeypatch)
        assert len(automorphisms(a4)) == 120
        # one closure for cl(empty set), then covers only: no closure per pair
        assert calls["closure_fast"] == 1


class TestElementBijection:
    def test_protocol(self):
        phi = ElementBijection((1, 2, 0))
        assert phi(0) == 1
        assert phi.image({0, 1}) == {1, 2}
        assert phi.inverse().forward == (2, 0, 1)
        assert phi.compose(phi.inverse()).is_identity
        ident = ElementBijection((0, 1, 2))
        assert ident.is_identity
