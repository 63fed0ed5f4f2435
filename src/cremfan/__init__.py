"""cremfan: matroids, Bergman fans and combinatorial Cremona automorphisms.

Subpackage map:

* :mod:`cremfan.field` — exact scalars (Q, Q(sqrt5), F_p) and their kernel rows
* :mod:`cremfan.kernels` — exact Bareiss and mod-p elimination kernels
* :mod:`cremfan.matroid` — rank oracles, flats, connectivity, minors
* :mod:`cremfan.isomorphism` — isomorphism and automorphism search
* :mod:`cremfan.circuits` — the check that a circuit list is a matroid's
* :mod:`cremfan.generators` — Coxeter arrangements and named small matroids
* :mod:`cremfan.fan` — Bergman fan membership, nested rays, the graph S
* :mod:`cremfan.cremona` — Cremona bases, lattice maps, realizability
* :mod:`cremfan.serialize` — the JSON matroid interchange format
* :mod:`cremfan.cli` — the ``cremfan`` command line tool

``import cremfan`` is lazy: it loads no submodule.  Each public name is
imported from its home module on first use (PEP 562), so a CLI job loads
only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": ("BudgetExceeded", "InputError", "InvariantError"),
        "field": ("Field", "FieldFormatError"),
        "matroid": (
            "Matroid", "VectorBackend", "LineBackend", "CircuitBackend", "MinorBackend",
            "Flat", "ElementBijection",
        ),
        "isomorphism": ("automorphisms", "find_isomorphism"),
        "generators": (
            "a3_arrangement", "complete_graph_matroid", "coxeter_matroid",
            "dowling_rank3", "fano", "fano_selfduality", "from_spec_string",
            "graphic_matroid", "parallel_connection", "positive_roots", "uniform",
        ),
        "fan": (
            "TropicalPoint", "graph_S", "in_bergman_fan", "in_bergman_fan_circuits",
            "is_nested", "nested_rays", "ray_adjacency_graph",
        ),
        "cremona": (
            "CremonaData", "IntegerLinearMap", "build_involution", "crem_map",
            "cremona_check", "enumerate_cremona_bases", "indicator_map", "realize",
            "support_graph", "two_basis_report",
        ),
        "serialize": ("load_matroid", "matroid_from_dict", "matroid_to_dict", "save_matroid"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
