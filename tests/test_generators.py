"""Root-system matroids, named small matroids, and symmetry machinery."""

import itertools
from fractions import Fraction

import pytest

from cremfan import generators
from cremfan.errors import BudgetExceeded, InputError, InvariantError
from cremfan.generators import (
    a3_arrangement,
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    fano_selfduality,
    from_spec_string,
    graphic_matroid,
    group_table,
    inner,
    positive_roots,
    sign_normalize,
    uniform,
)
from cremfan.quad import QuadSqrt5

from conftest import (
    compose_linear,
    coordinate_sign_flip,
    coordinate_swap,
    element_permutation,
    orbit,
    reflect,
    reflection_permutation,
)

EXPECTED_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 7): 28, ("A", 8): 36,
    ("B", 2): 4, ("B", 3): 9, ("B", 8): 64,
    ("D", 3): 6, ("D", 4): 12, ("D", 5): 20, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("H", 3): 15, ("H", 4): 60,
}


class TestPositiveRoots:
    @pytest.mark.parametrize("family,n", sorted(EXPECTED_COUNTS))
    def test_counts(self, family, n):
        _field, vectors, labels = positive_roots(family, n)
        assert len(vectors) == EXPECTED_COUNTS[(family, n)]
        assert len(labels) == len(vectors)
        assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("family,n", sorted(EXPECTED_COUNTS))
    def test_no_two_parallel(self, family, n):
        _field, vectors, _labels = positive_roots(family, n)
        normalized = {sign_normalize(v) for v in vectors}
        assert len(normalized) == len(vectors)
        # and each vector already is sign-normalized
        assert all(sign_normalize(v) == tuple(v) for v in vectors)

    def test_a2_explicit(self):
        _field, vectors, labels = positive_roots("A", 2)
        assert labels == ["x1-x2", "x1-x3", "x2-x3"]
        assert [tuple(int(x) for x in v) for v in vectors] == [
            (1, -1, 0), (1, 0, -1), (0, 1, -1)]

    def test_h_roots_uniform_norm(self):
        for n in (3, 4):
            _field, vectors, _labels = positive_roots("H", n)
            assert all(inner(v, v) == 16 for v in vectors)

    def test_e7_e6_sit_inside_e8(self):
        _f, e8, _l = positive_roots("E", 8)
        _f, e7, _l = positive_roots("E", 7)
        _f, e6, _l = positive_roots("E", 6)
        e8set = {tuple(v) for v in e8}
        assert {tuple(v) for v in e7} <= e8set
        assert {tuple(v) for v in e6} <= {tuple(v) for v in e7}

    def test_f4_contains_b4_pattern(self):
        _f, f4, labels = positive_roots("F", 4)
        # 4 singles + 12 pairs + 8 sign vectors
        singles = [v for v in f4 if sum(1 for x in v if x != 0) == 1]
        pairs = [v for v in f4 if sum(1 for x in v if x != 0) == 2]
        full = [v for v in f4 if all(x != 0 for x in v)]
        assert (len(singles), len(pairs), len(full)) == (4, 12, 8)

    def test_bad_specs(self):
        with pytest.raises(InputError):
            positive_roots("E", 5)
        with pytest.raises(InputError):
            positive_roots("H", 5)
        with pytest.raises(InputError):
            positive_roots("X", 3)
        with pytest.raises(InputError):
            positive_roots("B", 1)


class TestReflections:
    def test_reflect_involution_preserves_inner(self):
        import random
        rng = random.Random(5)
        for _ in range(200):
            dim = rng.randint(2, 5)
            root = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            if inner(root, root) == 0:
                continue
            u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
            ru, rv = reflect(root, u), reflect(root, v)
            assert reflect(root, ru) == tuple(u)
            assert inner(ru, rv) == inner(u, v)

    def test_reflection_permutation_b3(self):
        b3 = coxeter_matroid("B3")
        labels = b3.ground.labels
        # reflecting in x1-x2 swaps the first two coordinates
        perm = reflection_permutation(b3, (1, -1, 0))
        lookup = {lab: i for i, lab in enumerate(labels)}
        assert perm(lookup["x1"]) == lookup["x2"]
        assert perm(lookup["x1+x3"]) == lookup["x2+x3"]
        assert perm(lookup["x1+x2"]) == lookup["x1+x2"]

    def test_weyl_orbits_of_b3(self):
        b3 = coxeter_matroid("B3")
        gens = [reflection_permutation(b3, r)
                for r in [(1, -1, 0), (0, 1, -1), (0, 0, 1)]]
        short = orbit(gens, 0)
        assert len(short) == 3  # the coordinate roots
        long_orbit = orbit(gens, 3)
        assert len(long_orbit) == 6

    def test_element_permutation_validates(self):
        b3 = coxeter_matroid("B3")
        # a shear maps x1+x2 to (2,1,0), which is no root
        with pytest.raises(InvariantError):
            element_permutation(b3, lambda v: (v[0] + v[1], v[1], v[2]))
        # the zero map cannot even be normalized
        with pytest.raises(InputError):
            element_permutation(b3, lambda v: tuple(x * 0 for x in v))

    def test_irrational_scaling_fixes_every_h3_element(self):
        # multiplying by the golden ratio fixes every line through the origin
        phi = QuadSqrt5(Fraction(1, 2), Fraction(1, 2))
        perm = element_permutation(coxeter_matroid("H3"), lambda v: tuple(phi * x for x in v))
        assert perm.is_identity

    def test_h3_reflections_permute_elements(self):
        h3 = coxeter_matroid("H3")
        _f, vectors, _l = positive_roots("H", 3)
        for root in vectors[:5]:
            perm = reflection_permutation(h3, root)
            seen = sorted(perm(e) for e in range(h3.size))
            assert seen == list(range(h3.size))

    def test_composed_linear_maps(self):
        f = compose_linear(coordinate_swap(0, 1), coordinate_sign_flip(0))
        # rightmost applies first: flip x1, then swap
        assert f((Fraction(1), Fraction(2))) == (Fraction(2), Fraction(-1))


class TestCoxeterMatroids:
    def test_ranks(self):
        for spec, rank in [("A3", 3), ("B4", 4), ("D4", 4), ("F4", 4),
                           ("H3", 3), ("E6", 6)]:
            M = coxeter_matroid(spec)
            assert M.full_rank() == rank
            assert M.is_simple()

    def test_a3_is_k4(self, k4):
        from cremfan.isomorphism import find_isomorphism
        assert find_isomorphism(coxeter_matroid("A3"), k4) is not None

    def test_spec_parsing(self):
        assert coxeter_matroid("b3").size == 9
        assert coxeter_matroid(("B", 3)).size == 9
        with pytest.raises(InputError):
            coxeter_matroid("Z9")

    def test_an_irrational_multiple_is_a_parallel_root(self, monkeypatch):
        field, vectors, labels = positive_roots("H", 3)
        phi = QuadSqrt5(Fraction(1, 2), Fraction(1, 2))
        # the last root becomes the golden ratio times the first: still 15
        # roots of rank 3, but two of them span one line
        vectors = vectors[:-1] + [tuple(phi * x for x in vectors[0])]
        monkeypatch.setattr(generators, "positive_roots", lambda *_: (field, vectors, labels))
        with pytest.raises(InvariantError, match="parallel roots"):
            coxeter_matroid("H3")


class TestNamedMatroids:
    def test_fano_lines(self, fano_m):
        lines = {tuple(sorted(L)) for L in
                 (F.elements for F in fano_m.flats_of_rank(2))}
        assert lines == {(0, 1, 3), (0, 2, 5), (0, 4, 6), (1, 2, 4),
                         (1, 5, 6), (2, 3, 6), (3, 4, 5)}

    def test_fano_selfduality_map(self):
        M, sd = fano_selfduality()
        assert sd.one_multiple() == 3
        assert sd.quotient_determinant() == -8
        assert not sd.is_lattice_isomorphism

    def test_graphic_matroid_validation(self):
        with pytest.raises(InputError):
            graphic_matroid([(0, 0)])
        with pytest.raises(InputError):
            graphic_matroid([(0, 1), (1, 0)])

    def test_complete_graph(self, k5):
        assert k5.size == 10
        assert k5.full_rank() == 4
        # spanning trees of K5: 5^3 = 125 bases
        bases = sum(1 for s in itertools.combinations(range(10), 4)
                    if k5.rank(s) == 4)
        assert bases == 125

    def test_uniform(self):
        M = uniform(3, 6)
        assert M.full_rank() == 3
        assert all(M.rank(s) == 3 for s in itertools.combinations(range(6), 3))
        with pytest.raises(InputError):
            uniform(4, 3)

    def test_a3_arrangement_fixture(self, a3):
        assert a3.ground.labels == ["1", "2", "3", "4", "5", "6"]
        assert a3.full_rank() == 3
        from cremfan.isomorphism import find_isomorphism
        assert find_isomorphism(a3, complete_graph_matroid(4)) is not None


class TestDowling:
    def test_group_tables(self):
        z3 = group_table("z3")
        elements = {a for a, _ in z3}
        assert len(elements) == 3
        v4 = group_table("z2xz2")
        assert len({a for a, _ in v4}) == 4
        with pytest.raises(InputError):
            group_table("s3")  # unknown name

    def test_invalid_table_rejected(self):
        bad = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
               ("a", "a"): "a"}  # 'a' has no inverse
        with pytest.raises(InputError):
            dowling_rank3(bad)

    @pytest.mark.parametrize("name,size", [("z1", 6), ("z2", 9), ("z3", 12),
                                           ("z4", 15), ("z2xz2", 15)])
    def test_sizes(self, name, size):
        M = dowling_rank3(name)
        assert M.size == size  # 3 joints + 3 * |G|
        assert M.full_rank() == 3
        assert M.is_simple()

    def test_z4_vs_klein_not_isomorphic(self):
        from cremfan.isomorphism import find_isomorphism
        assert find_isomorphism(dowling_rank3("z4"), dowling_rank3("z2xz2")) is None


class TestOrbitAndSpecStrings:
    def test_orbit_of_frozensets(self, u23):
        from cremfan.isomorphism import automorphisms
        gens = automorphisms(u23)
        assert orbit(gens, frozenset({0, 1})) == {
            frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}

    def test_orbit_budget(self, u23):
        from cremfan.isomorphism import automorphisms
        with pytest.raises(InputError):
            orbit(automorphisms(u23), frozenset({0, 1}), max_size=2)

    def test_from_spec_string(self):
        assert from_spec_string("A3").size == 6
        assert from_spec_string("K4").size == 6
        assert from_spec_string("U:2,3").size == 3
        assert from_spec_string("fano").size == 7
        assert from_spec_string("dowling:Z2xZ2").size == 15
        assert from_spec_string("a3-arrangement").ground.labels[0] == "1"
        with pytest.raises(InputError):
            from_spec_string("wat")

    def test_spec_caps(self):
        # the largest specs the tests and the benchmark build stay under the
        # caps; one past a cap is refused before anything is built
        assert from_spec_string("E8").size == 120
        assert from_spec_string("U:2,9").size == 9
        assert from_spec_string("U:3,7").size == 7
        assert from_spec_string("K20").size == 190
        assert from_spec_string("U:4,12").size == 12  # 792 circuits
        # U:3,20 (4,845 circuits) has more pairs than loading its list may
        # check, and U:4,13 (1,287 circuits) fails that check's budget itself
        for spec in ("K21", "B15", "dowling:Z66", "U:0,201", "U:4,17",
                     "U:3,20", "U:4,13"):
            with pytest.raises(BudgetExceeded):
                from_spec_string(spec)
        # out-of-list, undefined and overlong specs are input errors
        for spec in ("E9", "A0", "K0", "U:3,2", "dowling:Q8", "K" + "9" * 5000):
            with pytest.raises(InputError):
                from_spec_string(spec)
