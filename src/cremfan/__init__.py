"""cremfan: matroids, Bergman fans and combinatorial Cremona automorphisms.

Subpackage map:

* :mod:`cremfan.field` — field specs, rationals and primality
* :mod:`cremfan.kernels` — the shared elimination skeleton and the Z kernels
* :mod:`cremfan.quad` — Q(sqrt5) scalars and the Z[sqrt5] kernels
* :mod:`cremfan.fp` — F_p scalars and the mod-p kernels
* :mod:`cremfan.matroid` — rank oracles, flats, connectivity, minors
* :mod:`cremfan.orbits` — the reflection pass, the orbit fill, linear certificates
* :mod:`cremfan.isomorphism` — library-only: isomorphism and automorphism
  search, nested collections, ray permutations, Cremona maps as matrices
* :mod:`cremfan.circuits` — the check that a circuit list is a matroid's
* :mod:`cremfan.generators` — Coxeter arrangements and named small matroids
* :mod:`cremfan.fan` — Bergman fan membership, nested rays, the graph S
* :mod:`cremfan.cremona` — Cremona bases, their invariants, realizability
* :mod:`cremfan.exact_cover` — the exact-cover search for Cremona bases
* :mod:`cremfan.serialize` — the JSON matroid interchange format
* :mod:`cremfan.cli` — the ``cremfan`` command line tool

``import cremfan`` is lazy: it loads no submodule.  Each public name is
imported from its home module on first use (PEP 562), so a CLI job loads
only the modules its subcommand runs, and within them, the domain of its
input: a job over Q imports neither ``quad`` nor ``fp``.
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
        "isomorphism": ("IntegerLinearMap", "automorphisms", "crem_map", "find_isomorphism",
                        "indicator_map", "is_nested"),
        "generators": (
            "a3_arrangement", "complete_graph_matroid", "coxeter_matroid",
            "dowling_rank3", "fano", "fano_selfduality", "from_spec_string",
            "graphic_matroid", "parallel_connection", "positive_roots", "uniform",
        ),
        "fan": (
            "TropicalPoint", "graph_S", "in_bergman_fan", "in_bergman_fan_circuits",
            "nested_rays", "ray_adjacency_graph",
        ),
        "cremona": ("CremonaData", "build_involution", "cremona_check", "enumerate_cremona_bases",
                    "realize", "support_graph", "two_basis_report"),
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
