"""cremfan: matroids, Bergman fans and combinatorial Cremona automorphisms.

Subpackage map:

* :mod:`cremfan.field` — exact scalars (Q, Q(sqrt5), F_p) and matrix helpers
* :mod:`cremfan.kernels` — exact Bareiss and mod-p elimination kernels
* :mod:`cremfan.matroid` — rank oracles, flats, minors, isomorphism search
* :mod:`cremfan.generators` — Coxeter arrangements and named small matroids
* :mod:`cremfan.fan` — Bergman fan membership, nested rays, the graph S
* :mod:`cremfan.cremona` — Cremona bases, lattice maps, realizability
* :mod:`cremfan.serialize` — the JSON matroid interchange format
* :mod:`cremfan.cli` — the ``cremfan`` command line tool
"""

__version__ = "0.1.0"

from .errors import BudgetExceeded, InputError, InvariantError
from .field import Field, FieldFormatError
from .matroid import (
    CircuitBackend,
    ElementBijection,
    Flat,
    LineBackend,
    Matroid,
    MinorBackend,
    VectorBackend,
    parallel_connection,
)
from .generators import (
    a3_arrangement,
    complete_graph_matroid,
    coxeter_matroid,
    dowling_rank3,
    fano,
    fano_selfduality,
    from_spec_string,
    graphic_matroid,
    positive_roots,
    uniform,
)
from .fan import (
    TropicalPoint,
    graph_S,
    in_bergman_fan,
    in_bergman_fan_circuits,
    is_nested,
    nested_rays,
    ray_adjacency_graph,
)
from .cremona import (
    CremonaData,
    IntegerLinearMap,
    build_involution,
    crem_map,
    cremona_check,
    enumerate_cremona_bases,
    indicator_map,
    realize,
    support_graph,
    two_basis_report,
)
from .serialize import load_matroid, matroid_from_dict, matroid_to_dict, save_matroid

__all__ = [
    "__version__",
    "BudgetExceeded", "InputError", "InvariantError",
    "Field", "FieldFormatError",
    "Matroid", "VectorBackend", "LineBackend", "CircuitBackend", "MinorBackend",
    "Flat", "ElementBijection", "parallel_connection",
    "a3_arrangement", "complete_graph_matroid", "coxeter_matroid",
    "dowling_rank3", "fano", "fano_selfduality", "from_spec_string",
    "graphic_matroid", "positive_roots", "uniform",
    "TropicalPoint", "graph_S", "in_bergman_fan", "in_bergman_fan_circuits",
    "is_nested", "nested_rays", "ray_adjacency_graph",
    "CremonaData", "IntegerLinearMap", "build_involution", "crem_map",
    "cremona_check", "enumerate_cremona_bases", "indicator_map", "realize",
    "support_graph", "two_basis_report",
    "load_matroid", "matroid_from_dict", "matroid_to_dict", "save_matroid",
]
