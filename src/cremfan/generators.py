"""Named matroid constructors.

Covers the finite irreducible reflection-arrangement matroids (types A, B,
D, E, F, H) from explicit positive-root coordinates, graphic matroids,
uniform matroids, the Fano plane, rank-3 Dowling matroids, the bundled
rank-3 braid-arrangement fixture with its documented element labeling, and
the parallel connection of two matroids.

Element orders are part of the public contract (serialization and CLI
element references depend on them) and are documented per family in
:func:`positive_roots`.
"""

from __future__ import annotations

import itertools
import json
import re
from math import comb
from typing import Sequence

from . import kernels
from .errors import BudgetExceeded, InputError, InvariantError
from .field import Field, primitive_int_vector, sign
from .matroid import CircuitBackend, LineBackend, Matroid, VectorBackend

Vector = tuple

_FAMILY_RANKS = {"A": (1, None), "B": (2, None), "D": (3, None),
                 "E": (6, 8), "F": (4, 4), "H": (3, 4)}

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "H": lambda n: {3: 15, 4: 60}[n],
}


# ---------------------------------------------------------------------------
# vector utilities


def inner(u: Sequence, v: Sequence):
    """Standard inner product over exact entries."""
    if len(u) != len(v):
        raise InputError("inner product of vectors of different lengths")
    total = None
    for x, y in zip(u, v):
        term = x * y
        total = term if total is None else total + term
    return 0 if total is None else total


def sign_normalize(vec: Sequence) -> Vector:
    """The vector or its negative, whichever has a positive leading entry."""
    for x in vec:
        s = sign(x)
        if s > 0:
            return tuple(vec)
        if s < 0:
            return tuple(-y for y in vec)
    raise InputError("cannot sign-normalize the zero vector")


def _line_keys(vecs: Sequence[Sequence], field: Field) -> list[tuple]:
    """The kernels' key of each vector's primitive row, shared by its nonzero
    multiples."""
    if field.kind == "Qsqrt5":
        from .quad import _quad_key as key, primitive_quad_vector as primitive
    elif field.kind == "Q":
        key, primitive = kernels._primitive_key, primitive_int_vector
    else:
        raise InputError("canonical vector keys need an ordered field")
    return [key(primitive([field.coerce(x) for x in sign_normalize(v)])) for v in vecs]


# ---------------------------------------------------------------------------
# positive-root coordinates


def positive_roots(family: str, n: int) -> tuple[Field, list[Vector], list[str]]:
    """Positive-root coordinates, labels, and their field for one type.

    Element orders (all 1-based coordinate names ``x1, x2, ...``):

    * A_n: ``x_i - x_j`` for pairs (i, j), i < j <= n+1, in lexicographic
      pair order; ambient dimension n+1.
    * B_n: ``x_1 .. x_n`` first, then per pair (i, j) in lexicographic
      order ``x_i + x_j`` followed by ``x_i - x_j``.
    * D_n: per pair (i, j) in lexicographic order ``x_i + x_j`` then
      ``x_i - x_j``.
    * F_4: ``x_1 .. x_4``; the 12 pair roots as in B_4; then the 8 vectors
      ``x_1 + e2 x_2 + e3 x_3 + e4 x_4`` (signs e in {+1, -1}, doubled
      half-roots) ordered lexicographically with + before -.
    * E_8: the 56 pair roots as in D_8; then the 64 doubled half-roots
      ``x_1 + e2 x_2 + ... + e8 x_8`` with product of signs +1, ordered
      lexicographically with + before -.
    * E_7 / E_6: the E_8 elements orthogonal to ``x_7 + x_8`` (E_7), and
      additionally to ``x_6 - x_7`` (E_6), in E_8 order.
    * H_3 / H_4: icosahedral coordinates over Q(sqrt 5), uniformly scaled
      by 4 so every entry lies in Z[sqrt 5] and all roots share one length.
      H_3: the coordinate vectors (4,0,0), (0,4,0), (0,0,4) plus the sign
      choices of the even cyclic shifts of (2, 1+w, -1+w), w = sqrt 5.
      H_4: the coordinate vectors, the sign choices of (2,2,2,2), and the
      sign choices of the even permutations of (0, 2, -1+w, 1+w).  Each
      list is sign-normalized (leading entry positive), deduplicated, and
      sorted ascending in the lexicographic order of the real embedding;
      labels are positional: ``r1, r2, ...``.
    """
    family = family.upper()
    if family not in _FAMILY_RANKS:
        raise InputError(f"unknown family {family!r}")
    lo, hi = _FAMILY_RANKS[family]
    if n < lo or (hi is not None and n > hi):
        raise InputError(f"{family}_{n} is not in the finite classification list")
    if family == "A":
        return _roots_a(n)
    if family == "B":
        return _roots_b(n)
    if family == "D":
        return _roots_d(n)
    if family == "F":
        return _roots_f4()
    if family == "E":
        return _roots_e(n)
    return _roots_h(n)


def _unit(dim: int, i: int, value: int = 1) -> Vector:
    v = [0] * dim
    v[i] = value
    return tuple(v)


def _pair_roots(dim: int, n: int) -> tuple[list[Vector], list[str]]:
    vecs, labels = [], []
    for i, j in itertools.combinations(range(n), 2):
        plus = [0] * dim
        plus[i], plus[j] = 1, 1
        minus = [0] * dim
        minus[i], minus[j] = 1, -1
        vecs += [tuple(plus), tuple(minus)]
        labels += [f"x{i + 1}+x{j + 1}", f"x{i + 1}-x{j + 1}"]
    return vecs, labels


def _roots_a(n: int):
    dim = n + 1
    vecs, labels = [], []
    for i, j in itertools.combinations(range(dim), 2):
        v = [0] * dim
        v[i], v[j] = 1, -1
        vecs.append(tuple(v))
        labels.append(f"x{i + 1}-x{j + 1}")
    return Field.from_spec("Q"), vecs, labels


def _roots_b(n: int):
    vecs = [_unit(n, i) for i in range(n)]
    labels = [f"x{i + 1}" for i in range(n)]
    pv, pl = _pair_roots(n, n)
    return Field.from_spec("Q"), vecs + pv, labels + pl


def _roots_d(n: int):
    pv, pl = _pair_roots(n, n)
    return Field.from_spec("Q"), pv, pl


def _eps_label(epsilons: Sequence[int]) -> str:
    # epsilons[0] is the fixed +1 on x1
    parts = ["x1"]
    for k, e in enumerate(epsilons[1:], start=2):
        parts.append(("+" if e > 0 else "-") + f"x{k}")
    return "".join(parts)


def _roots_f4():
    vecs = [_unit(4, i) for i in range(4)]
    labels = [f"x{i + 1}" for i in range(4)]
    pv, pl = _pair_roots(4, 4)
    vecs += pv
    labels += pl
    for eps in itertools.product((1, -1), repeat=3):
        epsilons = (1,) + eps
        vecs.append(tuple(epsilons))
        labels.append(_eps_label(epsilons))
    return Field.from_spec("Q"), vecs, labels


def _roots_e(n: int):
    pv, pl = _pair_roots(8, 8)
    vecs = list(pv)
    labels = list(pl)
    for eps in itertools.product((1, -1), repeat=7):
        prod = 1
        for e in eps:
            prod *= e
        if prod != 1:
            continue
        epsilons = (1,) + eps
        vecs.append(epsilons)
        labels.append(_eps_label(epsilons))
    if n == 8:
        return Field.from_spec("Q"), vecs, labels
    checks = [tuple([0] * 6 + [1, 1])]  # x7 + x8
    if n == 6:
        checks.append(tuple([0] * 5 + [1, -1, 0]))  # x6 - x7
    keep_v, keep_l = [], []
    for v, lab in zip(vecs, labels):
        if all(inner(v, c) == 0 for c in checks):
            keep_v.append(v)
            keep_l.append(lab)
    return Field.from_spec("Q"), keep_v, keep_l


def _roots_h(n: int):
    from .quad import QuadSqrt5 as _quad

    field = Field.from_spec("Qsqrt5")
    zero, two, four = _quad(0), _quad(2), _quad(4)
    one_plus = _quad(1, 1)    # 1 + w
    one_minus = _quad(-1, 1)  # -1 + w
    raw: list[tuple] = []
    if n == 3:
        for i in range(3):
            vec = [zero] * 3
            vec[i] = four
            raw.append(tuple(vec))
        base = (two, one_plus, one_minus)
        shifts = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]  # even cyclic shifts
        for s in shifts:
            pattern = tuple(base[s[k]] for k in range(3))
            for eps in itertools.product((1, -1), repeat=3):
                raw.append(tuple(e * x for e, x in zip(eps, pattern)))
    else:
        for i in range(4):
            vec = [zero] * 4
            vec[i] = four
            raw.append(tuple(vec))
        for eps in itertools.product((1, -1), repeat=4):
            raw.append(tuple(_quad(2 * e) for e in eps))
        base = (zero, two, one_minus, one_plus)
        for perm in itertools.permutations(range(4)):
            if _permutation_parity(perm) != 1:
                continue
            pattern = tuple(base[perm[k]] for k in range(4))
            for eps in itertools.product((1, -1), repeat=4):
                raw.append(tuple(e * x for e, x in zip(eps, pattern)))
    seen: set[tuple] = set()
    for v in raw:
        seen.add(sign_normalize(v))
    vecs = sorted(seen)  # lexicographic in the real embedding's total order
    labels = [f"r{k + 1}" for k in range(len(vecs))]
    return field, vecs, labels


def _permutation_parity(perm: Sequence[int]) -> int:
    parity = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


# ---------------------------------------------------------------------------
# named matroids


def coxeter_matroid(spec: str | tuple[str, int]) -> Matroid:
    """Arrangement matroid of a finite irreducible reflection type.

    Accepts "A3", "E8", ("H", 4), etc.  The result is a vector matroid
    whose backend exposes the positive-root coordinates.
    """
    if isinstance(spec, tuple):
        family, n = spec
    else:
        m = re.fullmatch(r"([ABDEFHabdefh])(\d+)", spec.strip())
        if m is None:
            raise InputError(f"bad Coxeter type {spec!r}")
        family, n = m.group(1), int(m.group(2))
    family = family.upper()
    field, vecs, labels = positive_roots(family, n)
    expected = ROOT_COUNTS[family](n)
    if len(vecs) != expected:
        raise InvariantError(
            f"{family}_{n}: generated {len(vecs)} roots, expected {expected}"
        )
    keys = set(_line_keys(vecs, field))
    if len(keys) != expected:
        raise InvariantError(f"{family}_{n}: parallel roots in the generated set")
    M = Matroid(VectorBackend(field, vecs), labels)
    if M.full_rank() != n:
        raise InvariantError(
            f"{family}_{n}: rank {M.full_rank()} differs from the type rank {n}"
        )
    M.name = f"{family}{n}"
    return M


def graphic_matroid(edges: Sequence[tuple], labels: Sequence[str] | None = None) -> Matroid:
    """Cycle matroid of a simple graph, via the vectors x_u - x_v over Q."""
    verts = sorted({u for e in edges for u in e}, key=repr)
    vmap = {u: i for i, u in enumerate(verts)}
    seen = set()
    vectors = []
    auto_labels = []
    for e in edges:
        if len(e) != 2:
            raise InputError(f"edge {e!r} is not a vertex pair")
        u, v = e
        if u == v:
            raise InputError(f"self-loop at {u!r} is not allowed")
        key = frozenset((vmap[u], vmap[v]))
        if key in seen:
            raise InputError(f"duplicate (parallel) edge {e!r} is not allowed")
        seen.add(key)
        vec = [0] * len(verts)
        vec[vmap[u]], vec[vmap[v]] = 1, -1
        vectors.append(vec)
        auto_labels.append(f"{u}-{v}")
    M = Matroid(VectorBackend(Field.from_spec("Q"), vectors),
                labels if labels is not None else auto_labels)
    M.name = "graphic"
    return M


def complete_graph_matroid(n: int) -> Matroid:
    if n < 1:
        raise InputError("complete graph needs at least one vertex")
    return graphic_matroid(list(itertools.combinations(range(n), 2)))


def uniform(r: int, m: int) -> Matroid:
    """Uniform matroid U_{r,m} through its circuit list."""
    if r < 0 or m < 0 or r > m:
        raise InputError(f"uniform matroid U_{{{r},{m}}} is not defined")
    circuits = [] if r == m else list(itertools.combinations(range(m), r + 1))
    M = Matroid(CircuitBackend(m, circuits, checked=True))
    M.name = f"U_{r}_{m}"
    return M


FANO_LINES = (
    frozenset({0, 1, 3}),
    frozenset({0, 2, 5}),
    frozenset({0, 4, 6}),
    frozenset({1, 2, 4}),
    frozenset({1, 5, 6}),
    frozenset({2, 3, 6}),
    frozenset({3, 4, 5}),
)


def fano() -> Matroid:
    """The Fano plane on labels 1..7 (0-based line indices in FANO_LINES)."""
    M = Matroid(LineBackend(7, FANO_LINES), [str(i + 1) for i in range(7)])
    M.name = "fano"
    return M


def fano_selfduality() -> tuple[Matroid, "IntegerLinearMap"]:
    """The Fano plane with its point-line duality as an indicator map.

    The map sends each point's indicator vector to the indicator vector of
    a line, realizing the classical self-duality of the plane on the
    quotient modulo the all-ones vector.  Its quotient determinant is -8,
    so it is a fan symmetry that is not a lattice isomorphism.
    """
    from .isomorphism import indicator_map

    M = fano()
    assignment = {
        0: frozenset({1, 2, 4}),
        1: frozenset({0, 2, 5}),
        2: frozenset({0, 1, 3}),
        3: frozenset({2, 3, 6}),
        4: frozenset({0, 4, 6}),
        5: frozenset({1, 5, 6}),
        6: frozenset({3, 4, 5}),
    }
    return M, indicator_map(M, assignment)


# ---------------------------------------------------------------------------
# Dowling matroids of rank 3


def group_table(name: str) -> dict[tuple[str, str], str]:
    """Multiplication table of a small named abelian group."""
    cyclic = re.fullmatch(r"[Zz](\d+)", name.strip())
    if cyclic:
        k = int(cyclic.group(1))
        if k < 1:
            raise InputError("cyclic group order must be positive")
        els = [str(i) for i in range(k)]
        return {(a, b): str((int(a) + int(b)) % k) for a in els for b in els}
    if name.strip().lower() in {"z2xz2", "v4", "klein"}:
        els = ["00", "01", "10", "11"]
        return {
            (a, b): f"{int(a[0]) ^ int(b[0])}{int(a[1]) ^ int(b[1])}"
            for a in els
            for b in els
        }
    raise InputError(f"unknown group {name!r}")


def _validate_group(table: dict[tuple[str, str], str]) -> list[str]:
    elements = sorted({g for pair in table for g in pair} | set(table.values()))
    for a in elements:
        for b in elements:
            if (a, b) not in table:
                raise InputError(f"group table is missing the product {a!r}*{b!r}")
            if table[(a, b)] not in elements:
                raise InputError("group table is not closed")
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise InputError("group table is not associative")
    identity = None
    for e in elements:
        if all(table[(e, a)] == a and table[(a, e)] == a for a in elements):
            identity = e
            break
    if identity is None:
        raise InputError("group table has no identity")
    for a in elements:
        if not any(table[(a, b)] == identity for b in elements):
            raise InputError(f"group element {a!r} has no inverse")
    return elements


def dowling_rank3(table: dict[tuple[str, str], str] | str) -> Matroid:
    """Rank-3 Dowling matroid of a finite group, as a line backend.

    Elements: joints p1, p2, p3, then a^g_ij for (i, j) in (1,2), (1,3),
    (2,3) and g in sorted group order.  Lines: coordinate lines
    {p_i, p_j} + all a_ij, and transversal lines {a12^g, a23^h, a13^(g h)}.
    """
    if isinstance(table, str):
        table = group_table(table)
    elements = _validate_group(table)
    order = len(elements)
    labels = ["p1", "p2", "p3"]
    index: dict[tuple[str, str], int] = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        for g in elements:
            index[(f"{i}{j}", g)] = len(labels)
            labels.append(f"a{i}{j}:{g}")
    joints = {"1": 0, "2": 1, "3": 2}
    lines = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        lines.append(
            {joints[str(i)], joints[str(j)]} | {index[(f"{i}{j}", g)] for g in elements}
        )
    for g in elements:
        for h in elements:
            lines.append(
                {
                    index[("12", g)],
                    index[("23", h)],
                    index[("13", table[(g, h)])],
                }
            )
    M = Matroid(LineBackend(3 + 3 * order, lines), labels)
    M.name = f"dowling3:{order}"
    return M


# ---------------------------------------------------------------------------
# bundled fixture


def a3_arrangement() -> Matroid:
    """The bundled rank-3 braid arrangement with the documented labeling 1..6."""
    from importlib import resources

    from . import serialize

    text = resources.files("cremfan").joinpath("data/a3_arrangement.json").read_text()
    return serialize.matroid_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# parallel connection


def parallel_connection(m1: Matroid, e1: int, m2: Matroid, e2: int) -> Matroid:
    """Parallel connection of two matroids across identified basepoints.

    Ground set layout: elements of M1 except e1, then the joint (keeping
    M1's basepoint label), then elements of M2 except e2. Circuits are the
    inherited ones of both summands plus the mixed unions through the joint.
    """
    for M, e in ((m1, e1), (m2, e2)):
        M._check_subset({e})
        if M.rank({e}) == 0:
            raise InputError("basepoint is a loop")
        if M.rank(set(range(M.size)) - {e}) < M.full_rank():
            raise InputError("basepoint is a coloop")
    left = [e for e in range(m1.size) if e != e1]
    right = [e for e in range(m2.size) if e != e2]
    joint = len(left)
    map1 = {e: i for i, e in enumerate(left)}
    map1[e1] = joint
    map2 = {e: joint + 1 + i for i, e in enumerate(right)}
    map2[e2] = joint
    labels = [m1.ground.label(e) for e in left] + [m1.ground.label(e1)]
    seen = set(labels)
    for e in right:
        lab = m2.ground.label(e)
        while lab in seen:
            lab += "'"
        seen.add(lab)
        labels.append(lab)
    c1 = [frozenset(map1[x] for x in C) for C in m1.circuits()]
    c2 = [frozenset(map2[x] for x in C) for C in m2.circuits()]
    mixed = [
        (C1 - {joint}) | (C2 - {joint})
        for C1 in c1
        if joint in C1
        for C2 in c2
        if joint in C2
    ]
    size = len(left) + 1 + len(right)
    # the circuits of a parallel connection, so the list needs no check
    return Matroid(CircuitBackend(size, c1 + c2 + mixed, checked=True), labels)


# ---------------------------------------------------------------------------
# CLI-facing spec strings


# Largest matroid a spec string may ask for; past it from_spec_string
# raises BudgetExceeded before it builds anything.  On a 2-CPU VM `gen` at
# the cap takes 0.5 s (K20, 190 elements), while K40 (780 elements) takes
# 8.6 s.  The largest spec in use is E8 (120 elements).  A `U:` circuit
# list is held to the budget that loading it will check it against
# (``circuits.MAX_CIRCUIT_CHECKS``): its pairs first, then the check itself.
MAX_SPEC_ELEMENTS = 200


def _check_spec_size(spec: str, elements: int) -> None:
    if elements > MAX_SPEC_ELEMENTS:
        raise BudgetExceeded(
            f"generator spec {spec!r} has {elements} elements, "
            f"above the cap of {MAX_SPEC_ELEMENTS}"
        )


def from_spec_string(spec: str) -> Matroid:
    """Build a matroid from a generator spec string.

    Formats: "A3".."H4" (Coxeter types), "K5" (complete graph), "U:2,3"
    (uniform), "fano", "dowling:<group>(Z1, Z2, ..., Z2xZ2)", and
    "a3-arrangement" (the bundled fixture).  Raises BudgetExceeded when the
    ground set would exceed MAX_SPEC_ELEMENTS, or a uniform matroid's
    circuit list would fail the budget of the check that loading it runs.
    """
    s = spec.strip()
    if len(s) > 64:  # also keeps int() below its 4,300-digit limit
        raise InputError(f"generator spec of {len(s)} characters is too long")
    if s == "fano":
        return fano()
    if s == "a3-arrangement":
        return a3_arrangement()
    m = re.fullmatch(r"[Kk](\d+)", s)
    if m:
        n = int(m.group(1))
        _check_spec_size(spec, n * (n - 1) // 2)
        return complete_graph_matroid(n)
    m = re.fullmatch(r"[Uu]:(\d+),(\d+)", s)
    if m:
        r, n = int(m.group(1)), int(m.group(2))
        _check_spec_size(spec, n)
        # imported here: only a U: spec checks a circuit list
        from .circuits import MAX_CIRCUIT_CHECKS, check_circuit_axioms

        # n is capped now, so the circuit count is cheap to compute
        circuits = comb(n, r + 1)
        pairs = comb(circuits, 2)
        if pairs > MAX_CIRCUIT_CHECKS:
            raise BudgetExceeded(
                f"generator spec {spec!r} has {circuits} circuits, whose "
                f"{pairs} pairs are above the cap of {MAX_CIRCUIT_CHECKS} "
                "that loading a circuit list checks"
            )
        M = uniform(r, n)
        check_circuit_axioms(n, M.backend.circuit_list)
        return M
    m = re.fullmatch(r"dowling:(.+)", s)
    if m:
        cyclic = re.fullmatch(r"[Zz](\d+)", m.group(1).strip())
        if cyclic:  # the other named groups have order 4
            _check_spec_size(spec, 3 + 3 * int(cyclic.group(1)))
        return dowling_rank3(m.group(1))
    m = re.fullmatch(r"([ABDEFHabdefh])(\d+)", s)
    if m:
        family, n = m.group(1).upper(), int(m.group(2))
        lo, hi = _FAMILY_RANKS[family]
        if n >= lo and (hi is None or n <= hi):  # else coxeter_matroid refuses it
            _check_spec_size(spec, ROOT_COUNTS[family](n))
        return coxeter_matroid(s)
    raise InputError(f"unknown generator spec {spec!r}")
