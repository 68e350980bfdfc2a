"""Exact parameterised counting at desk scale.

Counting problems for walks in digraphs (plain, gated, coloured and
CNF-constrained), cycle covers under CNF constraints, satisfying
assignments of quantifier-free first-order formulas, homomorphisms from
starred paths, a parameterised determinant expanded over clow sequences,
and accepting assignments of branching programs -- every route paired
with an independent brute-force oracle and connected by count-preserving
instance transforms.

The package exports lazily (PEP 562): ``paracount.count_reach`` or
``from paracount import count_reach`` imports only the submodule that
defines the name, so a process loads only the counting modules it uses.
"""

import importlib

# Each exported submodule with the names the package re-exports from it.
_EXPORTS = {
    "errors": ("DEFAULT_LIMIT", "CountingError", "LimitExceeded"),
    "graphs": ("DirectedGraph", "VertexColouring", "validate_graph"),
    "walks": (
        "count_log_reach_b",
        "count_log_walk_b",
        "count_reach",
        "count_reach_colour",
        "log_gate_passes",
        "max_out_degree",
    ),
    "cnf": ("EdgeCNF", "count_log_reach2_cnf", "eval_cnf"),
    "structures": ("RelationalStructure", "Vocabulary"),
    "fo": ("count_mc",),
    "homs": ("count_hom_oracle", "count_hom_path_star", "is_homomorphism", "make_path_star"),
    "pdet": ("ZeroOneMatrix", "pdet_clow", "pdet_direct"),
    "bp": ("bp_accepts", "bp_count_acc", "bp_count_fast"),
    "reductions": ("ReductionRecord", "verify_parsimonious"),
}

# Names the package re-exports from submodules it does not export by name.
_ALSO = {
    "formulas": ("QFFormula", "formula_size", "locality_radius", "max_arity"),
    "sweep": ("count_mc_local",),
    "programs": ("BranchingProgram", "validate_bp"),
    "transforms": (
        "reduce_hom_to_reach",
        "reduce_reach_colour_to_hom",
        "reduce_reach_to_mc",
        "reduce_reach_to_pdet",
    ),
    "covers": ("count_cycle_cover2_cnf",),
    "oracles": (
        "ClowSequence",
        "check_read_once_certified",
        "clow_sign",
        "det_cross_check",
        "enumerate_cycle_covers",
        "enumerate_k_clow_sequences",
        "enumerate_walks",
        "eta",
        "stagger",
        "walk_count_matrix",
    ),
}

#: Exported name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
_SOURCE.update((name, module) for module, names in _ALSO.items() for name in names)

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"

#: Old module -> {name: the module that defines it now}.  These names moved out
#: of the old module, but the benchmark (`perfbench`) still reads them there, so
#: the old module's ``__getattr__`` resolves them through `_moved`, loading the
#: defining module on first use.  Every other caller imports a name from the
#: module that defines it.
_MOVED = {
    "fo": {"count_mc_local": "sweep", "locality_radius": "formulas", "max_arity": "formulas",
           "structure_from_json": "structures", "structure_to_json": "structures"},
    "bp": {"bp_from_json": "programs", "validate_bp": "programs",
           "check_read_once_certified": "oracles", "stagger": "oracles"},
    "pdet": {"eta": "oracles"},
    "graphs": {"enumerate_walks": "oracles", "walk_count_matrix": "oracles"},
    "cnf": {"count_cycle_cover2_cnf": "covers", "characteristic_assignment": "oracles",
            "cover_cycles": "oracles", "enumerate_cycle_covers": "oracles"},
}


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def _moved(module: str, name: str):
    """The `_MOVED` entry ``name`` of ``paracount.<module>``, read from its defining module.

    Read there at each call and never cached on the old module: the
    benchmark's tracer rebinds a function, by identity, in every module that
    binds it and restores it afterwards, and a copy cached while traced
    would escape the restore."""
    home = _MOVED.get(module.rpartition(".")[2], {}).get(name)
    if home is None:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
