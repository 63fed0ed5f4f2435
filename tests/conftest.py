"""Shared fixtures: small named matroids used across the test modules."""

import itertools
from fractions import Fraction
from typing import Callable, Sequence

import pytest
from hypothesis import strategies as st

from cremfan.errors import InputError, InvariantError
from cremfan.field import Field, sign
from cremfan.generators import (
    _line_keys,
    a3_arrangement,
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    inner,
    uniform,
)
from cremfan.matroid import ElementBijection, Matroid, VectorBackend


@pytest.fixture(scope="session")
def a3():
    """The rank-3 arrangement of six planes with four star spanning trees."""
    return a3_arrangement()


@pytest.fixture(scope="session")
def fano_m():
    return fano()


@pytest.fixture(scope="session")
def b3():
    return coxeter_matroid("B3")


@pytest.fixture(scope="session")
def b4():
    return coxeter_matroid("B4")


@pytest.fixture(scope="session")
def k4():
    return complete_graph_matroid(4)


@pytest.fixture(scope="session")
def k5():
    return complete_graph_matroid(5)


@pytest.fixture(scope="session")
def u23():
    return uniform(2, 3)


@pytest.fixture(scope="session")
def dowling_z2():
    return dowling_rank3("z2")


def by_label(M, *labels):
    """Resolve labels to a tuple of element indices."""
    lookup = {lab: i for i, lab in enumerate(M.ground.labels)}
    return tuple(lookup[lab] for lab in labels)


def exhaustive_connected(M, F):
    """Connectivity of M|F by the 2-partition criterion (test oracle).

    F is disconnected iff some proper split F = A + B has
    r(A) + r(B) = r(F); exponential in |F|, so only for small flats.
    """
    items = sorted(F)
    if not items:
        return False
    rF = M.rank(items)
    first, rest = items[0], items[1:]
    for bits in range((1 << len(rest)) - 1):
        A = {first} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if M.rank(A) + M.rank(set(items) - A) == rF:
            return False
    return True


# Exact matrix routines over the field elements of cremfan.field (Fraction,
# QuadSqrt5, FpElement), by Gaussian elimination with exact division: the
# oracles the kernels are checked against.


def matrix_rank(rows):
    """Rank by Gaussian elimination with exact field division (test oracle)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        inv = pr[c]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], pr)]
        rank += 1
        if rank == len(m):
            break
    return rank


def determinant(rows):
    """Exact determinant of a square matrix over any of the three fields (test oracle)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in rows]
    det_sign = 1
    det = None
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            zero = m[0][0] - m[0][0]
            return zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det_sign = -det_sign
        pr = m[c]
        det = pr[c] if det is None else det * pr[c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pr[c]
                m[i] = [x - f * y for x, y in zip(m[i], pr)]
    return det if det_sign > 0 else -det


def in_span(vector, rows) -> bool:
    """Whether ``vector`` lies in the row span, by a rank comparison (test oracle)."""
    base = [list(r) for r in rows]
    r0 = matrix_rank(base)
    return matrix_rank(base + [list(vector)]) == r0


def count_backend_calls(M, monkeypatch):
    """Live counts of the backend rank, closure, fundamental-circuit, covers
    and cover-step calls M makes from now on."""
    counts = {
        "rank_subset": 0, "closure_fast": 0, "fundamental_fast": 0, "covers_fast": 0,
        "cover_step": 0,
    }
    for name in counts:
        method = getattr(M.backend, name, None)
        if method is None:
            continue

        def counted(*args, name=name, method=method):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(M.backend, name, counted, raising=False)
    return counts


def record_walks(M, monkeypatch):
    """The lattice walks M runs from now on, as (rank, connected) per ``_walk`` call."""
    walks = []
    walk = M._walk

    def recorded(k, max_covers, connected=False):
        walks.append((k, connected))
        return walk(k, max_covers, connected)

    monkeypatch.setattr(M, "_walk", recorded)
    return walks


def closure_per_cover(M, F):
    """The covers of flat F by one closure of F + e per cover (reference)."""
    seen, covers = set(F), []
    for e in range(M.size):
        if e not in seen:
            G = M.closure(set(F) | {e})
            seen |= G.elements
            covers.append(G)
    return covers


def direct_sum(*matroids):
    """The direct sum of vector matroids over Q, on block-diagonal rows."""
    q = Field.from_spec("Q")
    dims = [len(M.backend.vectors[0]) for M in matroids]
    rows = []
    for i, M in enumerate(matroids):
        before, after = sum(dims[:i]), sum(dims[i + 1:])
        rows += [[0] * before + list(v) + [0] * after for v in M.backend.vectors]
    return Matroid(VectorBackend(q, rows))


# Matroids for the flat-census consumers: simple ones, contractions with
# parallel classes, all loops (U:0,3), and one parallel class (U:1,3).
CENSUS_CASES = {
    "A3": lambda: coxeter_matroid("A3"),
    "B3": lambda: coxeter_matroid("B3"),
    "D4": lambda: coxeter_matroid("D4"),
    "fano-lines": fano,
    "K5": lambda: complete_graph_matroid(5),
    "U:2,4": lambda: uniform(2, 4),
    "D4/0": lambda: coxeter_matroid("D4").contract(0),
    "A3/0": lambda: coxeter_matroid("A3").contract(0),
    "U:0,3": lambda: uniform(0, 3),
    "U:1,3": lambda: uniform(1, 3),
}


# up to four Z[sqrt5] coordinates (as many as H4 has), half of them 0: a
# row's first nonzero coordinate then often lies before another row's,
# where that row's coordinate need not be rational
_quad_coordinate = st.one_of(
    st.just((0, 0)), st.tuples(st.integers(-3, 3), st.integers(-3, 3))
)
sparse_quad_rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(_quad_coordinate, min_size=n, max_size=n).map(
            lambda row: [x for pair in row for x in pair]
        ),
        min_size=1, max_size=7,
    )
)


def quad_scale(x, row):
    """x * row, for x = (a, b) meaning a + b*sqrt5 and a row flattened pairwise."""
    a, b = x
    return [t for j in range(0, len(row), 2)
            for t in (a * row[j] + 5 * b * row[j + 1], a * row[j + 1] + b * row[j])]


@st.composite
def quad_lines(draw):
    """Rows over Z[sqrt5] and one to three combinations x*r + y*s of two of
    them with x, y in Z[sqrt5], so lines of three or more points appear
    whose coefficients are not rational."""
    rows = draw(sparse_quad_rows)
    unit = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    for _ in range(draw(st.integers(1, 3))):
        r, s = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        x, y = draw(unit), draw(unit)
        rows.append([p + q for p, q in zip(quad_scale(x, r), quad_scale(y, s))])
    return rows


@st.composite
def f3_vector_rows(draw):
    """Rows over F_3 with a zero row and a repeated row among them."""
    d = draw(st.integers(1, 3))
    vectors = list(itertools.product(range(3), repeat=d))
    rows = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=6))
    return rows + [rows[0], (0,) * d]


def f3_matroid(rows):
    return Matroid(VectorBackend(Field.from_spec("Fp:3"), rows))


def covers(M, flat):
    """The flats covering a flat F of M, ordered by their least element outside F."""
    F = M._check_subset(flat)
    if not M.is_flat(F):
        raise InputError(f"{sorted(F)} is not a flat")
    return list(M._covers(F))


# Linear actions on generated matroids: reflections and coordinate maps as
# element bijections, and the orbits of a set under them.


def reflect(root: Sequence, v: Sequence) -> tuple:
    """Reflection of v in the hyperplane orthogonal to root.

    reflect(r, v) = v - 2 (<r, v> / <r, r>) r, exactly.
    """
    rr = inner(root, root)
    if sign(rr) == 0:
        raise InputError("cannot reflect in a zero root")
    rv = inner(root, v)
    coef = _exact_div(2 * rv, rr)
    return tuple(x - coef * r for x, r in zip(v, root))


def _exact_div(num, den):
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    if isinstance(den, int):
        den = Fraction(den)
    return num / den


def element_permutation(M: Matroid, linear_map: Callable[[tuple], tuple]) -> ElementBijection:
    """The element bijection induced by a linear map on coordinates.

    The map must permute the element set up to nonzero scalings, as
    reflections of an arrangement do; anything else is an invariant
    violation.
    """
    backend = M.backend
    if not isinstance(backend, VectorBackend):
        raise InputError("element_permutation needs a vector-backed matroid")
    field = backend.field
    lookup = getattr(M, "_key_lookup", None)
    if lookup is None:
        lookup = {key: i for i, key in enumerate(_line_keys(backend.vectors, field))}
        M._key_lookup = lookup
    forward = []
    for vec in backend.vectors:
        image = linear_map(tuple(vec))
        idx = lookup.get(_line_keys([image], field)[0])
        if idx is None:
            raise InvariantError("linear map does not preserve the element set")
        forward.append(idx)
    if len(set(forward)) != len(forward):
        raise InvariantError("linear map is not injective on the element set")
    return ElementBijection(tuple(forward))


def reflection_permutation(M: Matroid, root: Sequence) -> ElementBijection:
    """Element permutation induced by the reflection in a root."""
    return element_permutation(M, lambda v: reflect(root, v))


def coordinate_swap(i: int, j: int) -> Callable[[tuple], tuple]:
    def fn(v: tuple) -> tuple:
        w = list(v)
        w[i], w[j] = w[j], w[i]
        return tuple(w)

    return fn


def coordinate_sign_flip(i: int) -> Callable[[tuple], tuple]:
    def fn(v: tuple) -> tuple:
        w = list(v)
        w[i] = -w[i]
        return tuple(w)

    return fn


def compose_linear(*maps: Callable[[tuple], tuple]) -> Callable[[tuple], tuple]:
    """Composition, applied right to left like function composition."""

    def fn(v: tuple) -> tuple:
        for g in reversed(maps):
            v = g(v)
        return v

    return fn


def orbit(generators: Sequence, seed, *, max_size: int = 1_000_000) -> set:
    """Closure of {seed} under the given generators.

    Generators may be ElementBijections (seed: element index or frozenset
    of indices, acted on elementwise) or callables on coordinate vectors
    (seed: tuple).
    """
    def act(g, x):
        if isinstance(g, ElementBijection):
            if isinstance(x, frozenset):
                return frozenset(g(e) for e in x)
            return g(x)
        return g(x)

    if isinstance(seed, (set, frozenset)):
        seed = frozenset(seed)
    found = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = act(g, x)
                if y not in found:
                    found.add(y)
                    nxt.append(y)
                    if len(found) > max_size:
                        raise InputError("orbit exceeded max_size")
        frontier = nxt
    return found
