"""Elimination kernels: worked examples and correctness oracles."""

from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cremfan import fp, kernels, quad
from cremfan.field import Field, primitive_int_vector
from cremfan.fp import (
    _monic,
    closure_mod,
    cover_step_mod,
    covers_mod,
    fundamental_mod,
    rank_mod,
)
from cremfan.generators import coxeter_matroid, positive_roots
from cremfan.matroid import VectorBackend
from cremfan.kernels import (
    CoverState,
    _pivots,
    _primitive_key,
    _reduce_int,
    closure_int,
    cover_step_int,
    covers_int,
    det_int,
    fundamental_int,
    rank_int,
)
from cremfan.quad import (
    QuadSqrt5,
    _quad_key,
    closure_quad,
    cover_step_quad,
    covers_quad,
    fundamental_quad,
    primitive_quad_vector,
    rank_quad,
)
from cremfan.orbits import reflections

from conftest import (
    determinant, f3_vector_rows, in_span, matrix_rank, quad_lines, quad_scale,
)


class TestIntKernel:
    def test_rank_known(self):
        assert rank_int([(1, 0), (0, 1), (1, 1)]) == 2
        assert rank_int([(2, 4), (1, 2)]) == 1
        assert rank_int([(0, 0)]) == 0
        assert rank_int([]) == 0

    def test_closure_known(self):
        rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        r, cl = closure_int(rows, [0, 1])
        assert r == 2 and sorted(cl) == [0, 1, 2]
        r, cl = closure_int(rows, [3])
        assert r == 1 and cl == [3]

    def test_rank_matches_fraction_elimination(self):
        q = Field.from_spec("Q")
        rows = [(3, -1, 2), (6, -2, 4), (0, 1, 1), (3, 0, 3)]
        coerced = [[q.coerce(x) for x in r] for r in rows]
        assert rank_int(rows) == matrix_rank(coerced) == 2


class TestModKernel:
    def test_rank_depends_on_p(self):
        rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
        assert rank_mod(rows, 2) == 2   # rows sum to zero mod 2
        assert rank_mod(rows, 3) == 3

    def test_closure(self):
        rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        r, cl = closure_mod(rows, 2, [0, 2])
        assert r == 2 and sorted(cl) == [0, 1, 2]


class TestQuadKernel:
    def test_rank_uses_sqrt5_relation(self):
        # rows are (a, b) pairs per coordinate: v1 = (1, w), v2 = (w, 5):
        # v2 = w*v1, so rank 1
        rows = [(1, 0, 0, 1), (0, 1, 5, 0)]
        assert rank_quad(rows) == 1
        assert rank_quad([(1, 0, 0, 0), (0, 0, 1, 0)]) == 2

    def test_closure(self):
        rows = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0),
                (0, 0, 0, 0, 1, 0)]
        r, cl = closure_quad(rows, [0, 1])
        assert r == 2 and sorted(cl) == [0, 1, 2]

    def test_agrees_with_field_layer(self):
        f = Field.from_spec("Qsqrt5")
        w = QuadSqrt5(0, 1)
        vecs = [[f.coerce(1), w, f.coerce(0)],
                [w, f.coerce(5), f.coerce(0)],
                [f.coerce(0), f.coerce(1), w]]
        flat = [tuple(x for v in row for x in (v.a.numerator, v.b.numerator))
                for row in vecs]
        assert rank_quad(flat) == matrix_rank(vecs) == 2


def _rows_of_width(width):
    row = st.lists(st.integers(min_value=-9, max_value=9), min_size=width, max_size=width)
    return st.lists(row, min_size=1, max_size=7)


# the width is drawn first, so no example is filtered away
same_width = st.integers(min_value=1, max_value=5).flatmap(_rows_of_width)
even_width = st.integers(min_value=1, max_value=2).flatmap(lambda n: _rows_of_width(2 * n))


def covers_by_closure(closure, rows, flat):
    """Cover groups of a flat by one closure of flat + e per cover (reference)."""
    seen, groups = set(flat), []
    for e in range(len(rows)):
        if e not in seen:
            _, members = closure(rows, list(flat) + [e])
            group = sorted(set(members) - set(flat))
            seen.update(group)
            groups.append(group)
    return groups


def members(mask):
    """The row indices of a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def rank_groups(state):
    """A cover state's rank and its covers' elements outside the flat, each
    group's bitmask read as a sorted index list."""
    return state.rank, [members(group) for group in state.groups]


class TestCoversKernel:
    def test_covers_known(self):
        # (0,1,1), (2,3,2) = (2,1,0) + 2(0,1,1) and (2,-1,-2) reduce modulo
        # (2,1,0) to (0,2,2), (0,4,4) and (0,-4,-4): one cover once the gcd
        # and the sign are divided out
        rows = [(2, 1, 0), (0, 1, 1), (2, 3, 2), (2, -1, -2), (0, 0, 1), (1, 0, 0)]
        assert rank_groups(covers_int(rows, [0])) == (1, [[1, 2, 3], [4], [5]])
        assert rank_groups(covers_int(rows, [])) == (0, [[0], [1], [2], [3], [4], [5]])

    def test_covers_mod_scales_to_monic(self):
        rows = [(1, 0, 0), (0, 1, 0), (0, 2, 1), (0, 1, 2), (1, 2, 0)]
        # modulo (1,0,0): (0,1,2) = 2(0,2,1) mod 3 but not mod 5, and row 4
        # reduces to (0,2,0), which scales to row 1
        assert rank_groups(covers_mod(rows, 3, [0])) == (1, [[1, 4], [2, 3]])
        assert rank_groups(covers_mod(rows, 5, [0])) == (1, [[1, 4], [2], [3]])

    def test_covers_quad_divides_out_sqrt5(self):
        # (w, 5, 0) = w * (1, w, 0) and (0, 0, 1 + w) = (1 + w) * (0, 0, 1)
        rows = [(1, 0, 0, 1, 0, 0), (0, 1, 5, 0, 0, 0), (0, 0, 0, 0, 1, 1),
                (0, 0, 0, 0, 1, 0)]
        assert rank_groups(covers_quad(rows, [])) == (0, [[0, 1], [2, 3]])
        assert rank_groups(covers_quad(rows, [2, 3])) == (1, [[0, 1]])

    @given(same_width)
    @settings(max_examples=150, deadline=None)
    def test_covers_int_matches_closures(self, rows):
        rows = [tuple(r) for r in rows]
        rank, flat = closure_int(rows, list(range(0, len(rows), 2)))
        assert rank_groups(covers_int(rows, flat)) == (
            rank, covers_by_closure(closure_int, rows, flat)
        )

    @given(same_width, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=150, deadline=None)
    def test_covers_mod_matches_closures(self, rows, p):
        rows = [tuple(x % p for x in r) for r in rows]
        rank, flat = closure_mod(rows, p, list(range(0, len(rows), 2)))
        closure = lambda rows, sub: closure_mod(rows, p, sub)
        assert rank_groups(covers_mod(rows, p, flat)) == (
            rank, covers_by_closure(closure, rows, flat)
        )

    @given(even_width)
    @settings(max_examples=150, deadline=None)
    def test_covers_quad_matches_closures(self, rows):
        rows = [tuple(r) for r in rows]
        rank, flat = closure_quad(rows, list(range(0, len(rows), 2)))
        assert rank_groups(covers_quad(rows, flat)) == (
            rank, covers_by_closure(closure_quad, rows, flat)
        )


def check_fundamental(fundamental, closure, rows, subset):
    """The kernel's basis is the subset's greedy basis B, and for every T
    within B, cl(T) (by ``closure_*``) holds the rows whose support lies in T.
    Asked for every other row, it gives the same supports for those rows."""
    basis, supports = fundamental(rows, subset, range(len(rows)))
    greedy = []
    for i in subset:
        if i not in closure(rows, greedy)[1]:
            greedy.append(i)
    assert basis == greedy
    for T in range(1 << len(basis)):
        spanned = [b for j, b in enumerate(basis) if T >> j & 1]
        assert closure(rows, spanned)[1] == [e for e, s in supports.items() if not s & ~T]
    odd = range(1, len(rows), 2)
    odd_supports = {i: supports[i] for i in odd if i in supports}
    assert fundamental(rows, subset, odd) == (basis, odd_supports)


def drawn_subset(data, rows):
    """Distinct row indices in drawn order, so the greedy walk's order is tested too."""
    return data.draw(st.lists(st.integers(0, len(rows) - 1), unique=True))


def check_coordinates(reduce, step, fundamental, rows, subset, scalars):
    """``kernels._tagged`` has ``fundamental_*``'s basis B and asked rows of
    span(B), and for each such row its tags, read as scalars c, are nonzero
    on that row's support in B and make sum_j c_j B[j] a nonzero multiple of
    the row (0 for a zero row)."""
    every = range(len(rows))
    basis, coordinates = kernels._tagged(rows, subset, every, reduce, step)
    reference, supports = fundamental(rows, subset, every)
    assert basis == reference
    assert list(coordinates) == list(supports)
    spanning = [scalars(rows[b]) for b in basis]
    for i, support in supports.items():
        row, c = scalars(rows[i]), scalars(coordinates[i])
        assert support == sum(1 << j for j, x in enumerate(c) if x != 0)
        combination = [sum((cj * v[k] for cj, v in zip(c, spanning)), 0 * row[k])
                       for k in range(len(row))]
        assert matrix_rank([combination, row]) == matrix_rank([row]) == matrix_rank([combination])


class TestCoordinates:
    """The tagged elimination (``kernels._tagged``) over each domain,
    against ``fundamental_*``."""

    @given(same_width, st.data())
    @settings(max_examples=150, deadline=None)
    def test_int(self, rows, data):
        rows = [tuple(r) for r in rows]
        check_coordinates(_reduce_int, 1, fundamental_int, rows, drawn_subset(data, rows),
                          lambda v: [Fraction(x) for x in v])

    @given(same_width, st.sampled_from([2, 3, 5, 7, 101]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mod(self, rows, p, data):
        rows = [tuple(x % p for x in r) for r in rows]
        f = Field.from_spec(f"Fp:{p}")
        check_coordinates(
            partial(fp._reduce_mod, p=p), 1,
            lambda rows, sub, asked: fundamental_mod(rows, p, sub, asked),
            rows, drawn_subset(data, rows), lambda v: [f.coerce(x) for x in v],
        )

    @given(st.one_of(even_width, quad_lines()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_quad(self, rows, data):
        rows = [tuple(r) for r in rows]
        check_coordinates(
            quad._reduce_quad, 2, fundamental_quad, rows, drawn_subset(data, rows),
            lambda v: [QuadSqrt5(v[j], v[j + 1]) for j in range(0, len(v), 2)],
        )


class TestFundamentalKernel:
    def test_known_supports(self):
        # rows 2 = row 0 + row 1 and 3 = 2 * row 0 lie in the span of the
        # greedy basis [0, 1]; row 4 does not
        rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0), (0, 0, 1)]
        everything = range(len(rows))
        assert fundamental_int(rows, [0, 1, 2, 3], everything) == (
            [0, 1], {0: 1, 1: 2, 2: 3, 3: 1}
        )
        # in the order [2, 0, 1, 3], row 1 = row 2 - row 0 is dependent
        assert fundamental_int(rows, [2, 0, 1, 3], [3, 1, 4]) == ([2, 0], {3: 2, 1: 3})
        # over F_3 row 4 = (1, 3, 0) is row 0; the zero row is a loop
        mod_rows = [(1, 0, 0), (0, 1, 0), (1, 2, 0), (0, 0, 0), (1, 3, 0)]
        assert fundamental_mod(mod_rows, 3, [0, 1], everything) == (
            [0, 1], {0: 1, 1: 2, 2: 3, 3: 0, 4: 1}
        )
        # over Z[sqrt5]: (1 + w, 0) is on row 0's line, (1 + w, w) is not
        quad_rows = [(1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 0, 1)]
        assert fundamental_quad(quad_rows, [0, 1], range(4)) == (
            [0, 1], {0: 1, 1: 2, 2: 1, 3: 3}
        )

    @given(same_width, st.data())
    @settings(max_examples=150, deadline=None)
    def test_int_matches_closures(self, rows, data):
        rows = [tuple(r) for r in rows]
        check_fundamental(fundamental_int, closure_int, rows, drawn_subset(data, rows))

    @given(same_width, st.sampled_from([2, 3, 5, 7, 101]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mod_matches_closures(self, rows, p, data):
        rows = [tuple(x % p for x in r) for r in rows]
        check_fundamental(
            lambda rows, sub, asked: fundamental_mod(rows, p, sub, asked),
            lambda rows, sub: closure_mod(rows, p, sub),
            rows, drawn_subset(data, rows),
        )

    @given(st.one_of(even_width, quad_lines()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_quad_matches_closures(self, rows, data):
        rows = [tuple(r) for r in rows]
        check_fundamental(fundamental_quad, closure_quad, rows, drawn_subset(data, rows))

    def test_h4_points(self):
        rows = [primitive_quad_vector(v) for v in positive_roots("H", 4)[1]]
        check_fundamental(fundamental_quad, closure_quad, rows, list(range(0, 60, 7)))


# The reference cover step: one generic loop, with one quotient call and one
# key call per cover. Each cover_step_* fuses both into one loop per domain
# and must return the same CoverState, reps and group order included.


def _cover_step(state, g, quotient):
    groups, reps = state.groups, state.reps
    u = reps[g]
    c = u.index(next(filter(None, u)))
    covers = {}
    for group, w in zip(groups[:g] + groups[g + 1:], reps[:g] + reps[g + 1:]):
        k = quotient(u, c, w)
        covers[k] = covers.get(k, 0) | group
    return CoverState(state.rank + 1, list(covers.values()), list(covers))


def _quotient_int(u, c, w):
    b = w[c]
    if not b:
        return w[:c] + w[c + 1:]
    a = u[c]
    v = [a * x - b * y for x, y in zip(w, u)]
    del v[c]
    return _primitive_key(v)


def _quotient_quad(u, c, w):
    # u's coordinate c is a rational a (the _quad_key form), w's is p + q*sqrt5
    p, q = w[c], w[c + 1]
    if not (p or q):
        return w[:c] + w[c + 2:]
    a, v = u[c], []
    for j in range(0, len(w), 2):
        ya, yb = u[j], u[j + 1]
        v += (a * w[j] - p * ya - 5 * q * yb, a * w[j + 1] - p * yb - q * ya)
    del v[c:c + 2]
    return _quad_key(v)


def _quotient_mod(u, c, w, *, p):
    b = w[c]
    if not b:
        return w[:c] + w[c + 1:]
    v = [(x - b * y) % p for x, y in zip(w, u)]  # u[c] is 1
    del v[c]
    return tuple(_monic(v, p))


class TestCoverStep:
    """Along a random chain of flats from the least one up to full rank,
    each flat's cover state stepped to its g-th cover G has the covers that
    eliminating G from scratch finds, for every g, and equals the reference
    step's state (reps and group order included); a rank-k state's reps
    have width - k coordinates."""

    @staticmethod
    def _check(rows, closure, covers, cover_step, step, data, quotient):
        rank, flat = closure(rows, [])
        state = covers(rows, flat)
        while True:
            assert state.rank == rank
            assert all(len(rep) == len(rows[0]) - step * rank for rep in state.reps)
            if not state.groups:
                break
            for g, group in enumerate(state.groups):
                stepped = cover_step(state, g)
                assert stepped == _cover_step(state, g, quotient)
                scratch = covers(rows, sorted(flat + members(group)))
                assert rank_groups(stepped) == rank_groups(scratch)
            g = data.draw(st.integers(0, len(state.groups) - 1), label="g")
            flat = sorted(flat + members(state.groups[g]))
            state, rank = cover_step(state, g), rank + 1
        assert flat == list(range(len(rows)))

    @given(same_width, st.data())
    @settings(max_examples=150, deadline=None)
    def test_int(self, rows, data):
        self._check([tuple(r) for r in rows], closure_int, covers_int, cover_step_int, 1, data,
                    _quotient_int)

    @given(quad_lines(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_quad(self, rows, data):
        self._check([tuple(r) for r in rows], closure_quad, covers_quad, cover_step_quad, 2,
                    data, _quotient_quad)

    @given(same_width, st.sampled_from([2, 3, 5, 7]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mod(self, rows, p, data):
        self._check_mod([tuple(x % p for x in r) for r in rows], p, data)

    @given(f3_vector_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_f3_with_zero_and_parallel_rows(self, rows, data):
        self._check_mod(rows, 3, data)

    def test_h4_points(self):
        # H4's roots have leading zero coordinates where other roots have
        # irrational ones
        _field, vectors, _labels = positive_roots("H", 4)
        rows = [primitive_quad_vector(v) for v in vectors]
        state = covers_quad(rows, [])
        for g, group in enumerate(state.groups):
            stepped = cover_step_quad(state, g)
            assert stepped == _cover_step(state, g, _quotient_quad)
            assert rank_groups(stepped) == rank_groups(covers_quad(rows, members(group)))

    def _check_mod(self, rows, p, data):
        self._check(rows, lambda rows, sub: closure_mod(rows, p, sub),
                    lambda rows, flat: covers_mod(rows, p, flat),
                    lambda state, g: cover_step_mod(state, p, g), 1, data,
                    partial(_quotient_mod, p=p))


def _int_roots(family, n):
    return [primitive_int_vector(v) for v in positive_roots(family, n)[1]]


def reflection_closed_int(rows):
    return reflections(rows, "Q") is not None


def reflection_closed_quad(rows):
    return reflections(rows, "Qsqrt5") is not None


class TestReflectionClosed:
    """The reflection pass (``orbits.reflections``) returns None exactly when
    the rows are not a simple reflection arrangement."""

    def test_root_systems_over_z(self):
        for family, n in (("A", 1), ("A", 4), ("B", 3), ("D", 5), ("F", 4), ("E", 6)):
            rows = _int_roots(family, n)
            assert reflection_closed_int(rows), (family, n)
            # up to sign and scale: negate one root and double another
            rows[0] = tuple(-x for x in rows[0])
            rows[-1] = tuple(2 * x for x in rows[-1])
            assert reflection_closed_int(rows), (family, n)

    def test_open_or_not_simple_over_z(self):
        b3 = _int_roots("B", 3)
        assert not reflection_closed_int(b3[1:])  # a root missing
        assert not reflection_closed_int(b3 + [tuple(-x for x in b3[0])])  # parallel
        assert not reflection_closed_int(b3 + [(0, 0, 0)])  # a loop
        assert not reflection_closed_int([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        # A2 and B2 on orthogonal coordinates: reducible, still closed
        a2, b2 = _int_roots("A", 2), _int_roots("B", 2)
        assert reflection_closed_int(
            [r + (0, 0) for r in a2] + [(0, 0, 0) + r for r in b2]
        )

    def test_root_systems_over_z_sqrt5(self):
        for n in (3, 4):
            rows = [primitive_quad_vector(v) for v in positive_roots("H", n)[1]]
            assert reflection_closed_quad(rows), n
            assert not reflection_closed_quad(rows[1:]), n
            # scaled by the non-rational 1 + sqrt5 and by -1
            rows[0] = quad_scale((1, 1), rows[0])
            rows[1] = quad_scale((-1, 0), rows[1])
            assert reflection_closed_quad(rows), n


class TestFieldOracle:
    """Each kernel's rank against row reduction with exact field division."""

    @given(same_width)
    @settings(max_examples=100, deadline=None)
    def test_rank_int_matches_fraction_oracle(self, rows):
        q = Field.from_spec("Q")
        coerced = [[q.coerce(x) for x in r] for r in rows]
        assert rank_int([tuple(r) for r in rows]) == matrix_rank(coerced)

    @given(same_width, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=100, deadline=None)
    def test_rank_mod_matches_fp_oracle(self, rows, p):
        f = Field.from_spec(f"Fp:{p}")
        coerced = [[f.coerce(x) for x in r] for r in rows]
        assert rank_mod([tuple(x % p for x in r) for r in rows], p) == matrix_rank(coerced)

    @given(even_width)
    @settings(max_examples=100, deadline=None)
    def test_rank_quad_matches_qsqrt5_oracle(self, rows):
        coerced = [[QuadSqrt5(r[j], r[j + 1]) for j in range(0, len(r), 2)] for r in rows]
        assert rank_quad([tuple(r) for r in rows]) == matrix_rank(coerced)


class TestPivotColumnsOutOfOrder:
    """The first row's leading entry is not in column 0, so the pivot
    columns are found out of order."""

    def test_int(self):
        # row 2 = 2 * row 0, row 3 = row 0 + row 1
        rows = [(0, 2, 1), (3, 0, 0), (0, 4, 2), (3, 2, 1), (0, 0, 5)]
        assert rank_int(rows[:4]) == 2
        assert rank_int(rows) == 3
        assert closure_int(rows, [0]) == (1, [0, 2])
        assert closure_int(rows, [0, 1]) == (2, [0, 1, 2, 3])
        assert rank_groups(covers_int(rows, [0, 2])) == (1, [[1, 3], [4]])

    def test_quad(self):
        # (0, 1, w), (0, w, 5) = w * row 0, (1, 0, 0), row 0 + row 2, (0, 0, 1)
        rows = [(0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 5, 0), (1, 0, 0, 0, 0, 0),
                (1, 0, 1, 0, 0, 1), (0, 0, 0, 0, 1, 0)]
        assert rank_quad(rows[:4]) == 2
        assert rank_quad(rows) == 3
        assert closure_quad(rows, [0]) == (1, [0, 1])
        assert closure_quad(rows, [0, 2]) == (2, [0, 1, 2, 3])
        assert rank_groups(covers_quad(rows, [0, 1])) == (1, [[2, 3], [4]])

    def test_mod(self):
        # mod 3: row 2 = 2 * row 0, row 3 = row 0 + row 1
        rows = [(0, 2, 1), (1, 0, 0), (0, 1, 2), (1, 2, 1), (0, 0, 1)]
        assert rank_mod(rows[:4], 3) == 2
        assert rank_mod(rows, 3) == 3
        assert closure_mod(rows, 3, [0]) == (1, [0, 2])
        assert closure_mod(rows, 3, [0, 1]) == (2, [0, 1, 2, 3])
        assert rank_groups(covers_mod(rows, 3, [0, 2])) == (1, [[1, 3], [4]])


def _square(n):
    row = st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


class TestDeterminant:
    def test_worked_examples(self):
        assert det_int([]) == 1
        assert det_int([(5,)]) == 5
        assert det_int([(0, 1), (1, 0)]) == -1   # pivot columns 1, 0
        assert det_int([(2, 1), (4, 2)]) == 0
        assert det_int([(0, 0), (1, 2)]) == 0
        # pivot columns 1, 0, 2: one inversion, last pivot 21
        assert det_int([(0, 2, 1), (3, 0, 0), (1, 1, 4)]) == -21
        # pivot columns 2, 1, 0: three inversions
        assert det_int([(0, 0, 2), (0, 3, 1), (5, 1, 1)]) == -30

    @given(st.integers(min_value=0, max_value=7).flatmap(_square), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, rows, data):
        n = len(rows)
        singular = n and data.draw(st.booleans(), label="singular")
        if singular:
            # replace row k by a combination of the other rows
            k = data.draw(st.integers(0, n - 1), label="k")
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            rows[k] = [
                sum(c * row[col] for i, (c, row) in enumerate(zip(coeffs, rows)) if i != k)
                for col in range(n)
            ]
        expected = determinant([[Fraction(x) for x in r] for r in rows])
        assert det_int([tuple(r) for r in rows]) == expected
        if singular:
            assert expected == 0


# Sparse rows of large entries: most coordinates are 0, so a reduction skips
# most pivots, and each row is a multiple (up to 10^15) of a row of entries
# up to 10^15, so the content division runs.
_sparse_entry = st.one_of(st.just(0), st.just(0), st.integers(-10 ** 15, 10 ** 15))


def _sparse_rows(width, min_size=1, max_size=7):
    scaled = st.tuples(
        st.integers(1, 10 ** 15), st.lists(_sparse_entry, min_size=width, max_size=width),
    ).map(lambda drawn: tuple(drawn[0] * x for x in drawn[1]))
    return st.lists(scaled, min_size=min_size, max_size=max_size)


sparse_rows = st.integers(min_value=1, max_value=5).flatmap(_sparse_rows)
sparse_square = st.integers(min_value=0, max_value=6).flatmap(lambda n: _sparse_rows(n, n, n))


def _rational(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _bareiss(vec, pivots):
    """A row reduced by Bareiss fraction-free elimination (reference)."""
    v, prev = list(vec), 1
    for c, row in pivots:
        a, b = row[c], v[c]
        v = [(a * x - b * y) // prev for x, y in zip(v, row)]
        prev = a
    return v


class TestSparseLargeIntKernel:
    """The Z kernels on sparse rows of entries up to 10^30, against the
    Fraction oracles: the reduction skips the pivots a row is 0 at and
    divides out its content, and every answer read off it stays exact."""

    @given(sparse_rows, st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_reduction_is_the_primitive_bareiss_row(self, rows, vec):
        # up to sign: the same zeros and the same line, primitive. The rows
        # are made primitive, as the backends make theirs: a row that no
        # step changes comes back as given
        rows = [primitive_int_vector(row) for row in rows]
        vec = primitive_int_vector(vec[:len(rows[0])])
        bareiss = _bareiss(vec, _pivots(rows, _bareiss))
        pivots = _pivots(rows, _reduce_int)
        v = _reduce_int(vec, pivots)
        assert gcd(*v) == (1 if any(v) else 0)
        assert all(gcd(*row) == 1 for _, row in pivots)
        assert all(v[c] == 0 for c, _ in pivots)
        content = gcd(*bareiss) or 1
        assert v in ([x // content for x in bareiss], [-x // content for x in bareiss])

    @given(sparse_rows, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_and_closure(self, rows, data):
        subset, q = drawn_subset(data, rows), _rational(rows)
        span = [q[i] for i in subset]
        assert rank_int(rows) == matrix_rank(q)
        assert closure_int(rows, subset) == (matrix_rank(span), [
            i for i, row in enumerate(q) if i in subset or in_span(row, span)
        ])

    @given(sparse_rows, st.data())
    @settings(max_examples=150, deadline=None)
    def test_fundamental_supports(self, rows, data):
        # b_j is on the fundamental circuit of e exactly when e leaves the
        # span of the other basis rows
        subset, q = drawn_subset(data, rows), _rational(rows)
        basis = []
        for i in subset:
            if matrix_rank([q[b] for b in basis + [i]]) > len(basis):
                basis.append(i)
        expected = {
            e: sum(1 << j for j in range(len(basis))
                   if not in_span(row, [q[b] for b in basis if b != basis[j]]))
            for e, row in enumerate(q) if in_span(row, [q[b] for b in basis])
        }
        assert fundamental_int(rows, subset, range(len(rows))) == (basis, expected)

    @given(sparse_rows, st.data())
    @settings(max_examples=150, deadline=None)
    def test_covers_groups(self, rows, data):
        # the covers of a flat F: e and f outside F share one when f lies
        # in the span of F + e
        q = _rational(rows)
        span = [q[i] for i in drawn_subset(data, rows)]
        flat = [i for i, row in enumerate(q) if in_span(row, span)]
        rest = [e for e in range(len(rows)) if e not in flat]
        groups: list[list[int]] = []
        for e in rest:
            if not any(e in group for group in groups):
                groups.append([f for f in rest if in_span(q[f], span + [q[e]])])
        assert rank_groups(covers_int(rows, flat)) == (matrix_rank(span), groups)

    @given(sparse_square)
    @settings(max_examples=150, deadline=None)
    def test_determinant(self, rows):
        assert det_int(rows) == determinant(_rational(rows))


# the public kernels of the other domains, by home module
MOVED = [
    *((name, quad) for name in ("rank_quad", "closure_quad", "fundamental_quad", "covers_quad",
                                "cover_step_quad")),
    *((name, fp) for name in ("rank_mod", "closure_mod", "fundamental_mod", "covers_mod",
                              "cover_step_mod")),
]


class TestKernelNames:
    """The Z[sqrt5] and F_p kernels live in their own modules, and every
    name still resolves through ``cremfan.kernels``, where the backends and
    the tracer read and replace them."""

    @pytest.mark.parametrize("name,home", MOVED, ids=[name for name, _ in MOVED])
    def test_name_resolves_to_its_home(self, name, home, monkeypatch):
        # unresolved, as in a fresh process: the first lookup imports the home
        monkeypatch.delitem(vars(kernels), name, raising=False)
        assert getattr(kernels, name) is getattr(home, name)
        assert vars(kernels)[name] is getattr(home, name)  # stored: a dict hit next
        monkeypatch.delitem(vars(kernels), name)
        namespace: dict = {}
        exec(f"from cremfan.kernels import {name}", namespace)
        assert namespace[name] is getattr(home, name)

    def test_unknown_name_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'cremfan.kernels' has no attribute 'nope'"):
            kernels.nope
        # the private steps are read in their homes alone
        assert not hasattr(kernels, "_reduce_mod") and not hasattr(kernels, "_quad_key")

    def test_replaced_quad_kernel_is_the_one_the_backend_calls(self, monkeypatch):
        calls = []
        closure = quad.closure_quad

        def spy(rows, subset):
            calls.append(list(subset))
            return closure(rows, subset)

        monkeypatch.setattr(kernels, "closure_quad", spy)
        backend = coxeter_matroid("H3").backend
        assert backend.closure_fast((0, 1)) == closure(backend._rows, [0, 1])
        assert calls == [[0, 1]]

    def test_replaced_mod_kernel_is_the_one_the_backend_calls(self, monkeypatch):
        calls = []
        rank = fp.rank_mod

        def spy(rows, p):
            calls.append(p)
            return rank(rows, p)

        monkeypatch.setattr(kernels, "rank_mod", spy)
        backend = VectorBackend(Field.from_spec("Fp:5"), [(1, 0), (0, 1), (1, 1)])
        assert backend.rank_subset((0, 1, 2)) == 2
        assert calls == [5]

