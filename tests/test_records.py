"""The record classes that the library returns: read-only fields, value
equality where a caller keys or compares by it, and caches computed once.

``ElementBijection``, ``RayGraph``, ``SGraphReport``, ``SupportGraph``,
``ComponentReport``, ``TwoBasisReport`` and ``Realization`` are named
tuples; ``IntegerLinearMap``, ``CremonaData`` and ``TropicalPoint`` are
classes whose attributes are set once.
"""

import pytest

from cremfan.cremona import (
    CremonaData,
    cremona_check,
    realize,
    support_graph,
    two_basis_report,
)
from cremfan.fan import TropicalPoint, graph_S
from cremfan.generators import a3_arrangement
from cremfan.isomorphism import IntegerLinearMap, crem_map
from cremfan.matroid import ElementBijection


@pytest.fixture(scope="module")
def records():
    """One instance of each record class with its field names, from the
    rank-3 arrangement of six planes."""
    a3 = a3_arrangement()
    d1, d2 = cremona_check(a3, (0, 1, 5)), cremona_check(a3, (1, 2, 4))
    report = two_basis_report(a3, d1, d2)
    s_graph = graph_S(a3)
    out = [
        (d1, ("matroid", "basis", "partition", "corank_flats")),
        (crem_map(d1), ("matrix",)),
        (TropicalPoint.of((2, 1, 1)), ("weights",)),
        (ElementBijection((1, 0, 2)), None),
        (s_graph, None),
        (s_graph.graph, None),
        (support_graph(d1, (1, 2, 4)), None),
        (report, None),
        (report.components[0], None),
        (realize(a3, d1, d2, "Fp:2"), None),
    ]
    return [(obj, fields if fields is not None else obj._fields) for obj, fields in out]


def test_every_record_class_is_covered(records):
    assert len({type(obj) for obj, _ in records}) == len(records) == 10


def test_assigning_a_field_raises(records):
    for obj, fields in records:
        for name in fields:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            assert getattr(obj, name) is before


@pytest.mark.parametrize("make, same, other", [
    (TropicalPoint.of, (2, 1, 1), (0, 1, 1)),
    (ElementBijection, (1, 0, 2), (0, 1, 2)),
    (IntegerLinearMap, ((0, 1), (1, 0)), ((1, 0), (0, 1))),
])
def test_compare_and_hash_by_value(make, same, other):
    a, b, c = make(same), make(same), make(other)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1


def test_element_pairs_computed_once(records):
    data = next(obj for obj, _ in records if isinstance(obj, CremonaData))
    fresh = CremonaData(data.matroid, data.basis, data.partition, data.corank_flats)
    pairs = fresh.element_pairs()
    assert pairs == {e: pair for pair, F in data.partition.items() for e in F}
    object.__setattr__(fresh, "partition", None)  # a second call reads no F-set
    assert fresh.element_pairs() is pairs
    assert fresh.pair_of(next(iter(pairs))) in pairs.values()
    with pytest.raises(AttributeError):
        fresh._pairs_cache = {}


@pytest.mark.parametrize("matrix, det", [
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1),  # A*1 = 1: the r x r minor
    (((1, 1), (1, 1)), 0),
    (((2, 0), (0, 0)), 2),  # no one-multiple: the quotient matrix
])
def test_quotient_determinant_computed_once(matrix, det):
    lm = IntegerLinearMap(matrix)
    assert lm.quotient_determinant() == det
    object.__setattr__(lm, "matrix", None)  # a second call reads no row
    assert lm.quotient_determinant() == det
    assert lm.is_lattice_isomorphism == (abs(det) == 1)
    with pytest.raises(AttributeError):
        lm._qdet_cache = det
