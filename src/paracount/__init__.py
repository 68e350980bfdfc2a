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

# Each submodule with the names the package re-exports from it.
_EXPORTS = {
    "errors": ("DEFAULT_LIMIT", "CountingError", "LimitExceeded"),
    "graphs": (
        "DirectedGraph",
        "VertexColouring",
        "enumerate_walks",
        "validate_graph",
        "walk_count_matrix",
    ),
    "walks": (
        "count_log_reach_b",
        "count_log_walk_b",
        "count_reach",
        "count_reach_colour",
        "log_gate_passes",
        "max_out_degree",
    ),
    "cnf": (
        "EdgeCNF",
        "count_cycle_cover2_cnf",
        "count_log_reach2_cnf",
        "enumerate_cycle_covers",
        "eval_cnf",
    ),
    "structures": ("RelationalStructure", "Vocabulary"),
    "fo": (
        "QFFormula",
        "count_mc",
        "count_mc_local",
        "formula_size",
        "locality_radius",
        "max_arity",
    ),
    "homs": ("count_hom_oracle", "count_hom_path_star", "is_homomorphism", "make_path_star"),
    "pdet": (
        "ClowSequence",
        "ZeroOneMatrix",
        "clow_sign",
        "det_cross_check",
        "enumerate_k_clow_sequences",
        "eta",
        "pdet_clow",
        "pdet_direct",
    ),
    "bp": (
        "BranchingProgram",
        "bp_accepts",
        "bp_count_acc",
        "bp_count_fast",
        "check_read_once_certified",
        "stagger",
        "validate_bp",
    ),
    "reductions": (
        "ReductionRecord",
        "reduce_hom_to_reach",
        "reduce_reach_colour_to_hom",
        "reduce_reach_to_mc",
        "reduce_reach_to_pdet",
        "verify_parsimonious",
    ),
}

#: Exported name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
