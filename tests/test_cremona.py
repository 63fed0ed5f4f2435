"""Cremona bases: detection, lattice maps, support graphs, involutions, realizations."""

import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from cremfan import cli, cremona, orbits
from cremfan.cremona import (
    CremonaData,
    _hyperplane_mismatch,
    _involution,
    _map_mismatch,
    build_involution,
    crem_invariants,
    cremona_check,
    cremona_check_detail,
    enumerate_cremona_bases,
    flat_support_kind,
    realize,
    support_graph,
    two_basis_report,
)
from cremfan.errors import BudgetExceeded, InputError, InvariantError
from cremfan.exact_cover import _exact_cover_bases, _line_remainders
from cremfan.fan import TropicalPoint, in_bergman_fan, nested_rays
from cremfan.field import Field
from cremfan.generators import (
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    from_spec_string,
    parallel_connection,
    uniform,
)
from cremfan.isomorphism import IntegerLinearMap, crem_map, indicator_map
from cremfan.kernels import det_int
from cremfan.matroid import Flat, Matroid, VectorBackend, _mask, _members
from cremfan.serialize import matroid_from_dict, matroid_to_dict

from conftest import (
    by_label, census_mismatch, count_backend_calls, determinant, f3_matroid, flat_census,
    reflection_permutation, star_labels, swap_star_labels,
)

# The running example: the rank-3 arrangement fixture with basis {1, 2, 6}
# (0-based (0, 1, 5)) and its partner {2, 3, 5} (0-based (1, 2, 4)).
A3_BASES = [(0, 1, 5), (0, 3, 4), (1, 2, 4), (2, 3, 5)]
CREM_MATRIX_015 = (
    (0, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (1, 1, 0, 0, 0, 0),
)


class TestIntegerLinearMap:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            IntegerLinearMap(((1, 0), (0, 1), (1, 1)))

    def test_apply_vector_checks_length(self):
        lm = IntegerLinearMap(((1, 0), (0, 1)))
        with pytest.raises(InputError):
            lm.apply_vector((1, 2, 3))

    def test_apply_canonicalizes(self):
        lm = IntegerLinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert lm.apply([5, 7, 5]).weights == (0, 2, 0)

    def test_one_multiple(self):
        ident = IntegerLinearMap(((1, 0), (0, 1)))
        assert ident.one_multiple() == 1
        doubled = IntegerLinearMap(((1, 1), (1, 1)))
        assert doubled.one_multiple() == 2
        uneven = IntegerLinearMap(((1, 0), (0, 0)))
        assert uneven.one_multiple() is None

    @pytest.mark.parametrize("matrix, c", [
        (((1, 0), (0, 1)), 1),
        (((1, -1), (-1, 1)), 0),
        (((1, 0), (0, 0)), None),
    ])
    def test_one_multiple_is_kept(self, matrix, c):
        # computed once per map: a second call reads no row, for c = 0 and
        # for no one-multiple (None) alike
        lm = IntegerLinearMap(matrix)
        assert lm.one_multiple() == c
        object.__setattr__(lm, "matrix", None)
        assert lm.one_multiple() == c

    def test_quotient_and_lattice_iso(self):
        ident = IntegerLinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert ident.quotient_determinant() == 1
        assert ident.is_lattice_isomorphism
        collapsed = IntegerLinearMap(((1, 1), (1, 1)))
        assert collapsed.quotient_determinant() == 0
        assert not collapsed.is_lattice_isomorphism

    def test_column_is_image_of_basis_vector(self):
        lm = IntegerLinearMap(((0, 1), (1, 0)))
        assert lm.column(0) == (0, 1)
        assert lm.apply_vector((1, 0)) == (0, 1)

    @given(
        st.integers(1, 7).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                min_size=m, max_size=m,
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_quotient_determinant_matches_fraction_oracle(self, rows, singular):
        if singular and len(rows) > 1:
            rows[0] = list(rows[-1])  # row 0 of the quotient matrix is zero
        lm = IntegerLinearMap(tuple(tuple(row) for row in rows))
        Q = lm.quotient_matrix()
        expected = determinant([[Fraction(x) for x in row] for row in Q]) if Q else 1
        assert lm.quotient_determinant() == expected
        if singular and len(rows) > 1:
            assert expected == 0


    @given(
        st.integers(1, 7).flatmap(
            lambda m: st.tuples(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                    min_size=m, max_size=m,
                ),
                st.lists(st.booleans(), min_size=m, max_size=m),
            )
        ),
        st.integers(-3, 3),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_quotient_determinant_from_the_non_unit_columns(self, drawn, c, broken):
        # columns marked as units are the unit vector at their own index, and
        # the last other column makes every row sum c (c = 0 included);
        # ``broken`` then moves one row sum off c, so no one-multiple exists
        rows, units = drawn
        m = len(rows)
        for k in range(m):
            if units[k]:
                for i in range(m):
                    rows[i][k] = int(i == k)
        others = [k for k in range(m) if not units[k]]
        if others:
            last = others[-1]
            for row in rows:
                row[last] += c - sum(row)
            if broken:
                rows[0][last] += 1
        lm = IntegerLinearMap(tuple(tuple(row) for row in rows))
        full = det_int(lm.quotient_matrix())
        assert lm.quotient_determinant() == full
        Q = lm.quotient_matrix()
        assert full == (determinant([[Fraction(x) for x in row] for row in Q]) if Q else 1)


def column_indicator_map(M, assignment):
    """The column-by-column construction ``indicator_map`` replaced, kept as
    its reference: one membership test per matrix entry."""
    m = M.size
    bad_keys = [e for e in assignment if not (isinstance(e, int) and 0 <= e < m)]
    if bad_keys:
        raise InputError(f"assignment keys out of range: {sorted(bad_keys)}")
    columns = []
    for e in range(m):
        target = frozenset(assignment.get(e, {e}))
        if not all(isinstance(x, int) and 0 <= x < m for x in target):
            raise InputError(f"assignment for element {e} is out of range")
        columns.append([1 if i in target else 0 for i in range(m)])
    matrix = tuple(tuple(columns[j][i] for j in range(m)) for i in range(m))
    return IntegerLinearMap(matrix)


class TestIndicatorMap:
    @given(st.integers(1, 9).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.one_of(st.none(), st.just("empty"), st.just("full"),
                           st.frozensets(st.integers(0, m - 1))),
                 min_size=m, max_size=m),
    )))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_column_construction(self, drawn):
        # per element: left fixed (None), an empty target, the full ground
        # set, or any subset
        m, targets = drawn
        assignment = {
            e: {"empty": (), "full": range(m)}.get(t, t)
            for e, t in enumerate(targets) if t is not None
        }
        M = uniform(1, m)
        lm = indicator_map(M, assignment)
        assert lm == column_indicator_map(M, assignment)
        assert lm.one_multiple() == column_indicator_map(M, assignment).one_multiple()

    @pytest.mark.parametrize("assignment", [
        {0: {6}}, {0: {1}, 3: {-1}}, {2: {0, 1, 2, 3, 4, 5, 7}},
        {9: {0}}, {-1: {0}, 6: {1}}, {0: {1}, 6: set()},
    ])
    def test_out_of_range_messages_match_the_column_construction(self, a3, assignment):
        with pytest.raises(InputError) as ours:
            indicator_map(a3, assignment)
        with pytest.raises(InputError) as reference:
            column_indicator_map(a3, assignment)
        assert str(ours.value) == str(reference.value)

    def test_unassigned_elements_stay_fixed(self, a3):
        lm = indicator_map(a3, {0: {1, 2}})
        assert lm.column(0) == (0, 1, 1, 0, 0, 0)
        for e in range(1, 6):
            assert lm.column(e) == tuple(1 if i == e else 0 for i in range(6))

    def test_empty_assignment_is_identity(self, a3):
        lm = indicator_map(a3, {})
        assert lm.is_lattice_isomorphism
        assert lm.one_multiple() == 1

    def test_out_of_range_assignment(self, a3):
        with pytest.raises(InputError):
            indicator_map(a3, {0: {6}})
        with pytest.raises(InputError):
            indicator_map(a3, {9: {0}})


class TestCremonaCheck:
    def test_running_example_partition(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        assert data is not None
        assert data.basis == (0, 1, 5)
        assert {k: set(v) for k, v in data.partition.items()} == {
            (0, 1): {4},
            (0, 2): {3},
            (1, 2): {2},
        }
        assert {k: set(v) for k, v in data.corank_flats.items()} == {
            0: {1, 2, 5},
            1: {0, 3, 5},
            2: {0, 1, 4},
        }

    def test_partition_covers_complement_disjointly(self, a3):
        for b in A3_BASES:
            data = cremona_check(a3, b)
            seen: set[int] = set()
            for F in data.partition.values():
                assert not (seen & F)
                seen |= F
            assert seen == set(range(6)) - set(b)

    def test_pair_accessors(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        assert data.pair_flat(1, 0) == data.pair_flat(0, 1) == frozenset({4})
        assert data.pair_of(4) == (0, 1)
        assert data.pair_of(2) == (1, 2)
        with pytest.raises(InputError):
            data.pair_of(0)  # basis elements belong to no F-set
        assert data.basis_set() == frozenset({0, 1, 5})

    def test_non_cremona_basis_returns_none_with_reason(self, a3):
        # {0, 1, 2} is a basis of the fixture but cl{0, 1} already
        # contains 4 and cl{1, 2}... the F-sets fail to partition.
        assert a3.rank({0, 1, 2}) == 3
        assert cremona_check(a3, (0, 1, 2)) is None
        data, reason = cremona_check_detail(a3, (0, 1, 2))
        assert data is None
        assert isinstance(reason, str) and reason

    def test_good_basis_has_no_reason(self, a3):
        data, reason = cremona_check_detail(a3, (0, 1, 5))
        assert data is not None and reason is None

    def test_rejects_non_bases(self, a3):
        with pytest.raises(InputError):
            cremona_check(a3, (0, 1))  # wrong size
        with pytest.raises(InputError):
            cremona_check(a3, (0, 1, 4))  # dependent: 4 is on the line of 0, 1

    def test_requires_simple(self, k4):
        # contracting an edge of K4 makes parallel edges: every basis of the
        # contraction passes the partition test, but none is a Cremona basis
        contracted = k4.contract([0])
        bases = [b for b in combinations(range(contracted.size), 2)
                 if contracted.rank(b) == 2]
        assert bases
        for b in bases:
            with pytest.raises(InputError, match="defined for simple matroids"):
                cremona_check_detail(contracted, b)


def pair_closure_check(M, basis):
    """The Cremona check of a basis by one closure per pair and per corank-one
    flat (reference): the partition, the corank-one flats and the reason."""
    bset = frozenset(basis)
    partition, covered = {}, set()
    for i, j in combinations(range(len(basis)), 2):
        F = M.closure({basis[i], basis[j]}).elements - {basis[i], basis[j]}
        hit_basis = F & bset
        if hit_basis:
            return None, None, (
                f"cl{{{basis[i]},{basis[j]}}} contains the basis element(s) "
                f"{sorted(hit_basis)}"
            )
        overlap = F & covered
        if overlap:
            return None, None, (
                f"F-set of ({basis[i]},{basis[j]}) overlaps an earlier F-set "
                f"in {sorted(overlap)}"
            )
        covered |= F
        partition[(i, j)] = F
    missing = set(range(M.size)) - bset - covered
    if missing:
        return None, None, f"elements {sorted(missing)} lie in no F-set"
    corank = {j: M.closure(bset - {basis[j]}).elements for j in range(len(basis))}
    return partition, corank, None


def _over_f2(M):
    return matroid_from_dict({**matroid_to_dict(M), "field": "Fp:2"})


# A_(n-1) and K_n share their rows here, so K_n runs over F_2, where a
# graphic matroid is the same matroid; H3 runs over Q(sqrt5)
PAIR_CLOSURE_CASES = {
    **{spec: (lambda spec=spec: coxeter_matroid(spec))
       for spec in ("A3", "A4", "A5", "A6", "B4", "B5", "H3")},
    **{f"K{n}/Fp:2": (lambda n=n: _over_f2(complete_graph_matroid(n))) for n in (5, 6, 7)},
    "fano": fano,
    "U:3,6": lambda: uniform(3, 6),
}


class TestCheckAgainstPairClosures:
    @pytest.mark.parametrize("name", list(PAIR_CLOSURE_CASES))
    def test_every_basis(self, name):
        M, reference = PAIR_CLOSURE_CASES[name](), PAIR_CLOSURE_CASES[name]()
        r = M.full_rank()
        cremona = 0
        for b in combinations(range(M.size), r):
            if reference.backend.rank_subset(b) < r:
                continue
            data, reason = cremona_check_detail(M, b)
            partition, corank, expected = pair_closure_check(reference, b)
            assert reason == expected, b
            if data is not None:
                cremona += 1
                assert list(data.partition.items()) == list(partition.items())
                assert data.corank_flats == corank
        assert cremona == len(enumerate_cremona_bases(M))

    def test_star_basis_is_one_elimination(self, monkeypatch):
        # past the simplicity and rank checks, the F-sets and the corank-one
        # flats of K7's star basis at vertex 0 come off one elimination; the
        # pair closures made 15 + 6
        M = complete_graph_matroid(7)
        M.is_simple() and M.full_rank()
        calls = count_backend_calls(M, monkeypatch)
        assert cremona_check(M, range(6)) is not None
        assert calls == {
            "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 1, "covers_fast": 0,
            "cover_step": 0,
        }


class TestEnumerate:
    def test_fixture_has_four(self, a3):
        found = sorted(d.basis for d in enumerate_cremona_bases(a3))
        assert found == A3_BASES

    def test_uniform_rank_two_all_bases_qualify(self, u23):
        assert len(enumerate_cremona_bases(u23)) == 3
        assert len(enumerate_cremona_bases(uniform(2, 5))) == 10

    def test_fano_has_none(self, fano_m):
        assert enumerate_cremona_bases(fano_m) == []

    def test_b3_unique_coordinate_basis(self, b3):
        (data,) = enumerate_cremona_bases(b3)
        assert {b3.ground.label(e) for e in data.basis} == {"x1", "x2", "x3"}
        pair_labels = {
            frozenset(b3.ground.label(e) for e in F)
            for F in data.partition.values()
        }
        assert pair_labels == {
            frozenset({"x1+x2", "x1-x2"}),
            frozenset({"x1+x3", "x1-x3"}),
            frozenset({"x2+x3", "x2-x3"}),
        }

    def test_complete_graph_star_bases(self, k5):
        datas = enumerate_cremona_bases(k5)
        assert len(datas) == 5
        bases = [set(d.basis) for d in datas]
        # distinct stars pairwise share exactly the edge joining their centers
        for i in range(5):
            for j in range(i + 1, 5):
                assert len(bases[i] & bases[j]) == 1

    def test_budget(self):
        k7 = complete_graph_matroid(7)
        with pytest.raises(BudgetExceeded):
            enumerate_cremona_bases(k7, max_nodes=20)

    def test_e6_node_count_is_pinned(self):
        # the counting bound refutes E6 at the root (36 > 6 + 15): the search
        # visits exactly 1 node; the budget admits exactly that many and
        # refuses one fewer, naming the nodes and bases
        assert enumerate_cremona_bases(coxeter_matroid("E6"), max_nodes=1) == []
        with pytest.raises(BudgetExceeded) as info:
            enumerate_cremona_bases(coxeter_matroid("E6"), max_nodes=0)
        assert str(info.value) == (
            "the Cremona search stopped after 0 nodes with 0 bases found "
            "so far; raise max_nodes to override"
        )
        assert _exact_cover_bases(coxeter_matroid("E6"), 1) == ([], 1)

    def test_negative_budget_is_input_error(self):
        with pytest.raises(InputError, match="max_nodes must be non-negative, got -5"):
            enumerate_cremona_bases(coxeter_matroid("A3"), max_nodes=-5)

    def test_budget_message_counts_bases_found_so_far(self):
        # K7 has seven bases in 121 nodes; at 100 nodes five are found
        k7 = complete_graph_matroid(7)
        assert len(_exact_cover_bases(k7, 121)[0]) == 7
        with pytest.raises(BudgetExceeded, match="after 100 nodes with 5 bases found"):
            enumerate_cremona_bases(k7, max_nodes=100)

    def test_requires_simple(self, k4):
        contracted = k4.contract([0])  # contraction creates parallel edges
        with pytest.raises(InputError):
            enumerate_cremona_bases(contracted)

    @pytest.mark.parametrize("M", [
        complete_graph_matroid(2), uniform(1, 1), uniform(1, 1).restrict(()),
    ], ids=["K2", "U:1,1", "U:0,0"])
    def test_requires_rank_two(self, M):
        # in rank 1 the basis is one point and the map sends v_b to the
        # indicator of cl(empty set), which is 0: no line is preserved
        assert M.is_simple()
        with pytest.raises(InputError, match="rank at least 2, got rank"):
            enumerate_cremona_bases(M)
        for b in combinations(range(M.size), M.full_rank()):
            with pytest.raises(InputError, match="rank at least 2, got rank"):
                cremona_check_detail(M, b)


def _a3_over_f3():
    doc = matroid_to_dict(coxeter_matroid("A3"))
    doc["field"] = "Fp:3"
    return matroid_from_dict(doc)


def _glued():
    Q = dowling_rank3("z2xz2")
    U = uniform(2, 3)
    return parallel_connection(Q, Q.ground.index_of("p1"), U, 0)


def _brute_force_bases(M):
    r = M.full_rank()
    return [
        b for b in combinations(range(M.size), r)
        if M.is_independent(b) and cremona_check(M, b) is not None
    ]


@st.composite
def simple_vector_matroids(draw):
    """A small simple vector matroid over F_p: one vector per projective point."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 4))
    drawn = draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=d, max_size=d), min_size=1, max_size=9,
    ))
    points = {}
    for v in drawn:
        lead = next((x for x in v if x), 0)
        if lead:
            inv = pow(lead, -1, p)
            points.setdefault(tuple(x * inv % p for x in v), None)
    assume(points)
    return Matroid(VectorBackend(Field.from_spec(f"Fp:{p}"), list(points)))


# one or more matroids per backend: vectors over Q, over Q(sqrt5), over
# F_p; lines; circuits (a parallel connection and the uniform matroids)
BRUTE_FORCE_CASES = {
    "A3": lambda: coxeter_matroid("A3"),
    "A4": lambda: coxeter_matroid("A4"),
    "B3": lambda: coxeter_matroid("B3"),
    "K5": lambda: complete_graph_matroid(5),
    "H3": lambda: coxeter_matroid("H3"),
    "A3/Fp:3": _a3_over_f3,
    "fano": fano,
    "dowling:Z3": lambda: dowling_rank3("Z3"),
    "glued": _glued,
    "U:2,5": lambda: uniform(2, 5),
    "U:3,6": lambda: uniform(3, 6),
    "K4": lambda: complete_graph_matroid(4),
    "B4": lambda: coxeter_matroid("B4"),
    "U:2,9": lambda: uniform(2, 9),
}


class TestEnumerateAgainstBruteForce:
    @pytest.mark.parametrize("name", sorted(BRUTE_FORCE_CASES))
    def test_matches_every_r_subset_check(self, name):
        M = BRUTE_FORCE_CASES[name]()
        expected = _brute_force_bases(M)
        assert [d.basis for d in enumerate_cremona_bases(M)] == expected
        found, _nodes = _exact_cover_bases(M, 10 ** 6)
        assert len(set(found)) == len(found)  # no basis twice before the sort

    @given(simple_vector_matroids())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_drawn_vector_matroids(self, M):
        if M.full_rank() < 2:  # one point: refused, see test_requires_rank_two
            with pytest.raises(InputError, match="rank at least 2"):
                enumerate_cremona_bases(M)
            return
        expected = _brute_force_bases(M)
        assert [d.basis for d in enumerate_cremona_bases(M)] == expected
        found, _nodes = _exact_cover_bases(M, 10 ** 6)
        assert len(set(found)) == len(found)

    def test_search_issues_no_rank_queries(self):
        # a freshly loaded K7 (21 elements, rank 6, seven star bases) with
        # counting wrappers on its backend; deterministic work counters
        M = matroid_from_dict(matroid_to_dict(complete_graph_matroid(7)))
        calls = {"rank_subset": 0, "closure_fast": 0}

        def counting(name):
            fn = getattr(M.backend, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            setattr(M.backend, name, counting(name))
        datas = enumerate_cremona_bases(M)
        assert len(datas) == 7
        # a search that tests each candidate's independence makes 46,742
        assert calls["rank_subset"] < 100
        # the pair table, the simplicity check, and each found basis's six
        # corank-one flats in the leaf self-check
        assert calls["closure_fast"] <= comb(21, 2) + 21 + 7 * 6
        # with the table read off the line census and each found basis
        # re-checked by one fundamental-circuit elimination: the empty flat
        # alone (the re-check's 15 pair closures and six corank-one flats
        # made 1 + 7 * 21)
        assert calls["closure_fast"] == 1

    @pytest.mark.parametrize("spec", ["K7", "B5"])
    def test_remainder_table_from_line_census(self, spec, monkeypatch):
        # one covers elimination (the points), one step to the lines
        # through each point, and no pair closure; a closure per pair
        # makes C(n, 2)
        source = complete_graph_matroid(7) if spec == "K7" else coxeter_matroid(spec)
        M = matroid_from_dict(matroid_to_dict(source))
        counts = count_backend_calls(M, monkeypatch)
        rem, _through = _line_remainders(M)
        assert counts["covers_fast"] == 1
        assert counts["cover_step"] == M.size
        assert counts["closure_fast"] == 1  # the empty flat the walk starts from
        monkeypatch.undo()
        for a, b in combinations(range(M.size), 2):
            F = M.closure({a, b}).elements - {a, b}
            assert rem[a][b] == rem[b][a] == sum(1 << x for x in F)


    def test_enumeration_eliminates_the_empty_flat_once(self, monkeypatch):
        # the simplicity check and the line census share the walk's points:
        # one covers elimination and one step per point, where eliminating
        # the empty flat in each of them made two
        M = matroid_from_dict(matroid_to_dict(complete_graph_matroid(7)))
        counts = count_backend_calls(M, monkeypatch)
        assert len(enumerate_cremona_bases(M)) == 7
        assert counts["covers_fast"] == 1
        assert counts["cover_step"] == M.size


class TestCremMap:
    def test_running_example_matrix(self, a3):
        lm = crem_map(cremona_check(a3, (0, 1, 5)))
        assert lm.matrix == CREM_MATRIX_015
        assert lm.one_multiple() == 2
        assert lm.quotient_determinant() == 1
        assert lm.is_lattice_isomorphism

    def test_involutive_on_fan_points(self, a3):
        rays = nested_rays(a3)
        for data in enumerate_cremona_bases(a3):
            lm = crem_map(data)
            for ray in rays:
                p = TropicalPoint.indicator(ray.elements, a3.size)
                q = lm.apply(p)
                assert in_bergman_fan(a3, q)
                assert lm.apply(q) == p

    def test_broken_one_line_is_invariant_error(self):
        free2 = uniform(2, 2)
        broken = CremonaData(free2, (0, 1), {}, {0: frozenset({0}), 1: frozenset({0})})
        with pytest.raises(InvariantError, match="all-ones"):
            crem_map(broken)

    def test_broken_quotient_is_invariant_error(self):
        free2 = uniform(2, 2)
        # image of 1 is 2·1, but both columns coincide: determinant 0
        broken = CremonaData(
            free2, (0, 1), {}, {0: frozenset({0, 1}), 1: frozenset({0, 1})}
        )
        with pytest.raises(InvariantError, match="determinant"):
            crem_map(broken)

    def test_zero_columns_are_invariant_error(self):
        free2 = uniform(2, 2)
        broken = CremonaData(free2, (0, 1), {}, {0: frozenset(), 1: frozenset()})
        with pytest.raises(InvariantError, match="all-ones"):
            crem_map(broken)


class TestBasisReportInvariants:
    """The CLI reads c and the quotient determinant off the r basis
    columns (``crem_invariants``); they are what the full m x m map gives."""

    @pytest.mark.parametrize("spec", ["A3", "A4", "A5", "A6", "K5", "K6", "K7", "B4", "B5"])
    def test_report_matches_the_full_map(self, spec):
        datas = enumerate_cremona_bases(from_spec_string(spec))
        assert datas
        for data in datas:
            report = cli._basis_report(data)
            # no ``moved``: the determinant reads the columns a scan finds
            full = IntegerLinearMap(crem_map(data).matrix)
            c = full.one_multiple()
            assert (report["one_multiple"], report["quotient_det"]) == crem_invariants(data)
            assert report["one_multiple"] == c == len(data.basis) - 1
            assert report["quotient_det"] == full.quotient_determinant()
            if c != 1:  # det Q = det A / c: the (m - 1) x (m - 1) determinant itself
                assert report["quotient_det"] == det_int(full.quotient_matrix())

    @pytest.mark.parametrize("mode", ["--check", "--enumerate"])
    def test_wrong_corank_flat_is_exit_4(self, mode, tmp_path, capsys, monkeypatch):
        # B_0 given b_0 as well: row b_0 sums to r, every other row to r - 1
        M = from_spec_string("K5")
        path = str(tmp_path / "k5.json")
        assert cli.main(["gen", "K5", "--out", path]) == 0
        check = cremona.cremona_check_detail

        def wrong(M, b):
            data, reason = check(M, b)
            flats = {**data.corank_flats, 0: data.corank_flats[0] | {data.basis[0]}}
            return CremonaData(M, data.basis, data.partition, flats), reason

        data = wrong(M, enumerate_cremona_bases(M)[0].basis)[0]
        with pytest.raises(InvariantError, match="all-ones"):
            crem_invariants(data)
        with pytest.raises(InvariantError, match="all-ones"):
            crem_map(data)
        monkeypatch.setattr(cremona, "cremona_check_detail", wrong)
        capsys.readouterr()
        args = ["--check", ",".join(M.ground.label(e) for e in data.basis)]
        code = cli.main(["cremona", path, *(args if mode == "--check" else [mode])])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert "error: invariant violation: Cremona map does not preserve the all-ones line" in err


class TestSupportGraph:
    def test_partner_basis_graph(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        g = support_graph(data, (1, 2, 4))
        assert g.vertices == (0, 1, 5)
        assert set(g.edges) == {(1, 5, 2), (0, 1, 4)}
        assert g.isolated == ()
        comps = g.components()
        assert len(comps) == 1
        vertices, edges = comps[0]
        assert vertices == frozenset({0, 1, 5})
        assert g.is_simple_graph
        assert g.star_center(vertices, edges) == 1

    def test_complement_is_a_triangle(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        g = support_graph(data, (2, 3, 4))
        assert g.vertices == (0, 1, 5)
        assert len(g.edges) == 3
        assert g.is_simple_graph
        assert len(g.components()) == 1
        # a triangle has no star center
        assert g.star_center(frozenset(g.vertices), g.edges) is None

    def test_basis_elements_are_isolated_vertices(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        g = support_graph(data, (0,))
        assert g.vertices == (0,)
        assert g.edges == ()
        assert g.isolated == (0,)
        assert len(g.components()) == 1

    def test_parallel_edges_are_not_simple(self, b3):
        (data,) = enumerate_cremona_bases(b3)
        both = data.pair_flat(0, 1)  # two elements sharing one F-set
        g = support_graph(data, both)
        assert len(g.edges) == 2
        assert not g.is_simple_graph


class TestFlatSupportKind:
    def test_three_kinds(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        assert flat_support_kind(data, {2, 3, 4}) == "non-basis"
        assert flat_support_kind(data, {1, 2, 5}) == "basis"
        assert flat_support_kind(data, {0, 2}) == "mixed"

    def test_non_basis_connected_flat_rank(self, a3):
        # For a flat avoiding the basis whose support graph is connected,
        # the rank is one less than the number of support vertices, the
        # graph is simple, and each F-set is hit at most once.
        data = cremona_check(a3, (0, 1, 5))
        F = a3.closure({2, 3, 4}).elements
        assert flat_support_kind(data, F) == "non-basis"
        g = support_graph(data, F)
        assert len(g.components()) == 1
        assert g.is_simple_graph
        assert a3.rank(F) == len(g.vertices) - 1 == 2
        for pair_set in data.partition.values():
            assert len(F & pair_set) <= 1


class TestTwoBasisReport:
    def test_all_ordered_pairs_pass(self, a3):
        datas = enumerate_cremona_bases(a3)
        for d1, d2 in permutations(datas, 2):
            rep = two_basis_report(a3, d1, d2)
            shared = set(d1.basis) & set(d2.basis)
            assert rep.component_count == len(shared)
            assert set(rep.intersection) == shared
            for comp in rep.components:
                assert comp.star and comp.simple
                assert comp.center in set(d2.basis)

    def test_identical_bases_give_isolated_stars(self, a3):
        data = cremona_check(a3, (0, 1, 5))
        rep = two_basis_report(a3, data, data)
        assert rep.component_count == 3
        assert set(rep.intersection) == {0, 1, 5}
        for comp in rep.components:
            assert comp.edges == ()
            assert comp.center in {0, 1, 5}

    def test_rejects_foreign_data(self, a3, b3):
        d_a3 = cremona_check(a3, (0, 1, 5))
        (d_b3,) = enumerate_cremona_bases(b3)
        with pytest.raises(InputError):
            two_basis_report(a3, d_a3, d_b3)


@pytest.fixture(scope="module")
def glued():
    return _glued()


class TestDowlingGlue:
    def test_exactly_two_bases(self, glued):
        datas = enumerate_cremona_bases(glued)
        found = sorted(
            sorted(glued.ground.label(e) for e in d.basis) for d in datas
        )
        assert found == [["1", "p1", "p2", "p3"], ["2", "p1", "p2", "p3"]]

    def test_three_components_two_trivial(self, glued):
        d1, d2 = enumerate_cremona_bases(glued)
        rep = two_basis_report(glued, d1, d2)
        assert rep.component_count == 3
        assert sorted(glued.ground.label(e) for e in rep.intersection) == [
            "p1", "p2", "p3",
        ]
        sizes = sorted(len(c.vertices) for c in rep.components)
        assert sizes == [1, 1, 2]
        big = next(c for c in rep.components if len(c.vertices) == 2)
        assert glued.ground.label(big.center) == "p1"

    def test_realization_needs_single_shared_element(self, glued):
        d1, d2 = enumerate_cremona_bases(glued)
        with pytest.raises(InputError, match="b ∩ b\\*"):
            realize(glued, d1, d2, "Q")


class TestInvolution:
    def test_running_example_permutation(self, a3):
        d1 = cremona_check(a3, (0, 1, 5))
        d2 = cremona_check(a3, (1, 2, 4))
        phi = build_involution(a3, d1, d2)
        assert phi.forward == (4, 1, 5, 3, 0, 2)

    @pytest.mark.parametrize("spec", ["fixture", "A4"])
    def test_involutive_automorphism_swapping_bases(self, spec, a3):
        M = a3 if spec == "fixture" else coxeter_matroid("A4")
        datas = enumerate_cremona_bases(M)
        census = {
            r: set(f.elements for f in M.flats_of_rank(r))
            for r in range(1, M.full_rank())
        }
        for d1, d2 in permutations(datas, 2):
            phi = build_involution(M, d1, d2)
            assert phi.compose(phi).is_identity
            assert phi.image(d1.basis) == d2.basis_set()
            assert phi.image(d2.basis) == d1.basis_set()
            for r, flats in census.items():
                assert {phi.image(F) for F in flats} == flats

    def test_a_map_that_is_no_automorphism_is_an_invariant_violation(self, k5, monkeypatch):
        d1, d2 = cremona_check(k5, (0, 1, 2, 3)), cremona_check(k5, (0, 4, 5, 6))
        report, back = (
            swap_star_labels(two_basis_report(k5, *pair)) for pair in ((d1, d2), (d2, d1))
        )
        with monkeypatch.context() as patch:
            # with no hyperplane check, the map passes every other check
            patch.setattr(cremona, "_hyperplane_mismatch", lambda *args: None)
            phi = _involution(k5, report, back)
        assert phi.compose(phi).is_identity and phi.image(d1.basis) == d2.basis_set()
        with pytest.raises(InvariantError, match=(
            r"does not carry the hyperplane \{0-1, 0-2, 0-4, 1-2, 1-4, 2-4\} onto a hyperplane"
        )):
            _involution(k5, report, back)

    def test_a_map_of_a8_that_is_no_automorphism_is_an_invariant_violation(self, monkeypatch):
        # past 15 elements (A8 has 36): the linear certificate refuses the
        # map, and the hyperplane walk names the first hyperplane of M, in
        # its canonical order, that the map does not carry onto one
        a8 = coxeter_matroid("A8")
        d1, d2 = (cremona_check(a8, by_label(a8, *star_labels(8, x).split(","))) for x in (1, 2))
        report, back = (
            swap_star_labels(two_basis_report(a8, *pair)) for pair in ((d1, d2), (d2, d1))
        )
        with monkeypatch.context() as patch:
            # with no hyperplane check, the map passes every other check
            patch.setattr(cremona, "_hyperplane_mismatch", lambda *args: None)
            phi = _involution(a8, report, back)
        assert phi.compose(phi).is_identity and phi.image(d1.basis) == d2.basis_set()
        assert orbits.linear_automorphisms(a8.backend, [phi.forward]) == []
        hyperplanes = a8._level(a8.full_rank() - 1)
        first = next(
            H for H in hyperplanes if _mask(phi.forward[e] for e in _members(H)) not in hyperplanes
        )
        labels = ", ".join(map(a8.ground.label, _members(first)))
        with pytest.raises(InvariantError, match=re.escape(f"the hyperplane {{{labels}}} onto")):
            _involution(a8, report, back)

    def test_rejects_foreign_data(self, a3, b3):
        d_a3 = cremona_check(a3, (0, 1, 5))
        (d_b3,) = enumerate_cremona_bases(b3)
        with pytest.raises(InputError):
            build_involution(a3, d_a3, d_b3)


class TestRealize:
    def _pair(self, a3):
        return cremona_check(a3, (0, 1, 5)), cremona_check(a3, (1, 2, 4))

    def test_running_example_over_f2(self, a3):
        d1, d2 = self._pair(a3)
        r = realize(a3, d1, d2, "Fp:2")
        assert r.class_count == 1
        assert r.reindexed_basis == (1, 0, 5)  # shared element first
        f = Field.from_spec("Fp:2")
        expect = [
            (0, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 1),
        ]
        assert r.vectors == tuple(tuple(f.coerce(x) for x in row) for row in expect)

    def test_running_example_over_q(self, a3):
        d1, d2 = self._pair(a3)
        r = realize(a3, d1, d2, "Q")
        expect = [
            (0, 1, 0), (1, 0, 0), (1, 0, -1), (0, 1, -1), (1, -1, 0), (0, 0, 1),
        ]
        f = Field.from_spec("Q")
        assert r.vectors == tuple(tuple(f.coerce(x) for x in row) for row in expect)

    def test_running_example_over_quadratic_field(self, a3):
        d1, d2 = self._pair(a3)
        r = realize(a3, d1, d2, "Qsqrt5")
        assert r.class_count == 1
        assert r.matroid.full_rank() == 3

    def test_realized_matroid_matches_census(self, a3):
        d1, d2 = self._pair(a3)
        r = realize(a3, d1, d2, "Q")
        for rk in range(1, 4):
            ours = {f.elements for f in a3.flats_of_rank(rk)}
            theirs = {f.elements for f in r.matroid.flats_of_rank(rk)}
            assert ours == theirs

    def test_star_bases_realize_over_small_fields(self):
        a4 = coxeter_matroid("A4")
        d1, d2, *_ = enumerate_cremona_bases(a4)
        for spec in ("Fp:2", "Fp:3"):
            r = realize(a4, d1, d2, spec)
            assert r.class_count == 1
            assert r.matroid.full_rank() == 4

    def test_field_must_have_enough_elements(self):
        u25 = uniform(2, 5)
        d1 = cremona_check(u25, (0, 1))
        d2 = cremona_check(u25, (1, 2))
        for small in ("Fp:2", "Fp:3"):
            with pytest.raises(InputError, match="at least"):
                realize(u25, d1, d2, small)
        for big in ("Fp:5", "Q"):
            r = realize(u25, d1, d2, big)
            assert r.class_count == 3
        f5 = Field.from_spec("Fp:5")
        r5 = realize(u25, d1, d2, f5)
        expect = [(0, 1), (1, 0), (1, 4), (1, 3), (1, 2)]
        assert r5.vectors == tuple(
            tuple(f5.coerce(x) for x in row) for row in expect
        )

    def test_accepts_field_instance(self, a3):
        d1, d2 = self._pair(a3)
        r = realize(a3, d1, d2, Field.from_spec("Fp:2"))
        assert r.field.spec == "Fp:2"


@st.composite
def f3_row_pairs(draw):
    """Rows of two F_3 vector matroids on one ground set: M's, and N's, which
    scale some of M's rows by 2 (the same matroid) and replace up to two."""
    d = draw(st.integers(1, 3))
    vectors = list(product(range(3), repeat=d))
    rows = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=7))
    other = [tuple(2 * x % 3 for x in row) if draw(st.booleans()) else row for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        other[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(vectors))
    return rows, other


class TestRealizationCertificate:
    """``realize`` checks N = M on M's hyperplanes alone (proof in its docstring)."""

    @given(f3_row_pairs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_census_comparison(self, pair, data):
        M, N = (f3_matroid(rows) for rows in pair)
        assume(M.full_rank() == N.full_rank() >= 1)
        # None is the identity; a permutation checks an isomorphism of M onto N
        forward = data.draw(st.none() | st.permutations(range(M.size)))
        # the reference: every rank's flats compared, on fresh twins
        census = [flat_census(f3_matroid(rows)) for rows in pair]
        assert (_hyperplane_mismatch(M, N, forward) is None) == (
            census_mismatch(*census, forward) is None
        )

    def test_an_automorphism_of_a_walked_matroid_is_read_off_its_levels(self, monkeypatch):
        a6 = coxeter_matroid("A6")
        phi = reflection_permutation(a6, a6.backend.vectors[0])
        assert not phi.is_identity
        a6.flats_of_rank(a6.full_rank() - 1)
        calls = count_backend_calls(a6, monkeypatch)
        built = []  # the Flats made, from their elements or from a mask
        init, of_mask = Flat.__init__, Flat.of_mask
        monkeypatch.setattr(Flat, "__init__", lambda F, *args: built.append(args) or init(F, *args))
        monkeypatch.setattr(Flat, "of_mask", lambda *args: built.append(args) or of_mask(*args))
        assert _hyperplane_mismatch(a6, a6, phi.forward) is None
        assert built == []
        assert calls == {
            "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 0, "covers_fast": 0,
            "cover_step": 0,
        }

    def test_k7_walks_m_once_and_closes_one_hyperplane_per_orbit_in_n(self, monkeypatch):
        k7 = complete_graph_matroid(7)
        d1, d2 = cremona_check(k7, range(6)), cremona_check(k7, (0, *range(6, 11)))
        walks, closures = [], []
        closure, walk = Matroid._closure_of, Matroid._walk

        def walked(M, k, max_covers, perms=(), connected=False):
            walks.append((M is k7, bool(perms)))
            return walk(M, k, max_covers, perms, connected)

        def closed(M, S):
            closures.append(M is k7)
            return closure(M, S)

        monkeypatch.setattr(Matroid, "_walk", walked)
        monkeypatch.setattr(Matroid, "_closure_of", closed)
        realize(k7, d1, d2, "Fp:101")
        # K7 is the A6 arrangement: its 6 simple reflections certify as
        # automorphisms of N, so N closes the 6 parabolic hyperplanes, and
        # neither M nor N is walked to its hyperplanes
        assert walks == []
        assert 5 not in k7._flats_cache
        assert closures.count(False) == 6

    @pytest.mark.parametrize("field", ["Fp:101", "Q", "Qsqrt5"])
    def test_k7_check_makes_three_eliminations_and_three_closures_in_n(self, monkeypatch, field):
        k7 = complete_graph_matroid(7)
        d1, d2 = cremona_check(k7, range(6)), cremona_check(k7, (0, *range(6, 11)))
        N = Matroid(VectorBackend(Field.from_spec(field), realize(k7, d1, d2, field).vectors))
        calls = count_backend_calls(N, monkeypatch)
        tagged, eliminated = orbits._tagged, []

        def counted(*args, **domain):
            eliminated.append(args)
            return tagged(*args, **domain)

        monkeypatch.setattr(orbits, "_tagged", counted)
        assert _map_mismatch(k7, N) is None
        # the certificate: one elimination for a basis B and one for its
        # image under each of the 6 simple reflections; then one closure per
        # parabolic hyperplane
        assert len(eliminated) == 1 + 6
        assert calls == {
            "rank_subset": 0, "closure_fast": 6, "fundamental_fast": 0, "covers_fast": 0,
            "cover_step": 0,
        }

    @pytest.mark.parametrize("spec, p", [("F4", 3), ("E6", 3), ("B4", 2), ("D5", 3)])
    def test_one_hyperplane_per_orbit_finds_the_first_failing_one(self, spec, p):
        # M's integer rows read over F_p: M's simple reflections are still
        # linear automorphisms of N, which is M again (D5 over F_3) or
        # another matroid of the same rank, where a parabolic hyperplane
        # fails and the hyperplane walk names the first failing one
        M = coxeter_matroid(spec)
        field = Field.from_spec(f"Fp:{p}")
        N = Matroid(VectorBackend(field, M.backend._rows))
        simple = list(M.backend.reflections.simple.values())
        assert orbits.linear_automorphisms(N.backend, simple) == simple
        r = M.full_rank()
        assert N.full_rank() == r
        # reference: every hyperplane closed in N, in M's canonical order
        first = next((
            H for H in M._level(r - 1) if N._closure_of(H) != H or N._rank_of(H) != r - 1
        ), None)
        assert (first is None) == (spec == "D5")
        assert _map_mismatch(M, Matroid(VectorBackend(field, M.backend._rows))) == first

    def test_a_wrong_k7_vector_exits_4(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "k7.json")
        assert cli.main(["gen", "K7", "--out", path]) == 0
        backend = cremona.VectorBackend

        def replaced(f, vectors):
            # element 20 gets the sum of the vectors of elements 0 and 1
            vectors = list(vectors)
            vectors[20] = tuple(x + y for x, y in zip(vectors[0], vectors[1]))
            return backend(f, vectors)

        monkeypatch.setattr(cremona, "VectorBackend", replaced)
        capsys.readouterr()
        code = cli.main(["cremona", path, "--realize", "0-1,0-2,0-3,0-4,0-5,0-6",
                         "0-1,1-2,1-3,1-4,1-5,1-6", "--field", "Fp:101"])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert "disagrees with the matroid on the hyperplane" in err

    @pytest.mark.parametrize("field", ["Q", "Fp:101"])
    def test_a_wrong_vector_is_an_invariant_violation(self, monkeypatch, field):
        a4 = coxeter_matroid("A4")
        d1, d2, *_ = enumerate_cremona_bases(a4)
        backend = cremona.VectorBackend

        def replaced(f, vectors):
            # element 9 gets twice the vector of element 0
            vectors = list(vectors)
            vectors[9] = tuple(x + x for x in vectors[0])
            return backend(f, vectors)

        monkeypatch.setattr(cremona, "VectorBackend", replaced)
        with pytest.raises(InvariantError, match="disagrees with the matroid on the hyperplane"):
            realize(a4, d1, d2, field)

    def test_a_realization_of_another_rank_is_refused(self, monkeypatch):
        # U(2,5)'s hyperplanes are its points, which stay flats of rank 1 in
        # any simple realization, so here the rank check alone fails
        u25 = uniform(2, 5)
        d1, d2 = cremona_check(u25, (0, 1)), cremona_check(u25, (1, 2))
        backend = cremona.VectorBackend

        def lifted(f, vectors):
            # one more coordinate, 1 on element 0's vector alone
            return backend(f, [(*v, f.coerce(int(e == 0))) for e, v in enumerate(vectors)])

        monkeypatch.setattr(cremona, "VectorBackend", lifted)
        with pytest.raises(InvariantError, match="wrong rank"):
            realize(u25, d1, d2, "Fp:7")
