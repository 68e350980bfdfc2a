import types

import pytest

import paracount

# The package's public names; every one must stay importable from `paracount`.
EXPORTS = [
    "BranchingProgram", "ClowSequence", "CountingError", "DEFAULT_LIMIT", "DirectedGraph",
    "EdgeCNF", "LimitExceeded", "QFFormula", "ReductionRecord", "RelationalStructure",
    "VertexColouring", "Vocabulary", "ZeroOneMatrix", "bp", "bp_accepts", "bp_count_acc",
    "bp_count_fast", "check_read_once_certified", "clow_sign", "cnf",
    "count_cycle_cover2_cnf", "count_hom_oracle", "count_hom_path_star",
    "count_log_reach2_cnf", "count_log_reach_b", "count_log_walk_b", "count_mc",
    "count_mc_local", "count_reach", "count_reach_colour", "det_cross_check",
    "enumerate_cycle_covers", "enumerate_k_clow_sequences", "enumerate_walks", "errors",
    "eta", "eval_cnf", "fo", "formula_size", "graphs", "homs", "is_homomorphism",
    "locality_radius", "log_gate_passes", "make_path_star", "max_arity", "max_out_degree",
    "pdet", "pdet_clow", "pdet_direct", "reduce_hom_to_reach",
    "reduce_reach_colour_to_hom", "reduce_reach_to_mc", "reduce_reach_to_pdet",
    "reductions", "stagger", "structures", "validate_bp", "validate_graph", "verify_parsimonious",
    "walk_count_matrix", "walks",
]
SUBMODULES = {"bp", "cnf", "errors", "fo", "graphs", "homs", "pdet", "reductions", "structures",
              "walks"}


def test_all_is_pinned_and_every_name_resolves():
    assert len(EXPORTS) == 62
    assert paracount.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(paracount, name)
        assert isinstance(value, types.ModuleType) == (name in SUBMODULES), name
        if name not in SUBMODULES:
            source = next(m for m in SUBMODULES if hasattr(getattr(paracount, m), name))
            assert value is getattr(getattr(paracount, source), name), name
    assert set(EXPORTS) <= set(dir(paracount))


def test_from_imports_and_unknown_names():
    from paracount import count_reach, pdet
    from paracount.walks import count_reach as defined

    assert count_reach is defined
    assert pdet.pdet_clow is paracount.pdet_clow
    with pytest.raises(AttributeError):
        paracount.no_such_name


def test_names_moved_to_oracles_resolve_where_they_were_defined():
    from paracount import cnf, covers, graphs, oracles, pdet
    from paracount.cnf import count_cycle_cover2_cnf
    from paracount.graphs import enumerate_walks

    assert pdet.eta is oracles.eta
    assert getattr(paracount.pdet, "eta") is oracles.eta  # a tracer's lookup by name
    assert graphs.walk_count_matrix is oracles.walk_count_matrix
    assert graphs.cycles_of is oracles.cycles_of
    assert enumerate_walks is oracles.enumerate_walks
    assert paracount.eta is oracles.eta
    for name in ("characteristic_assignment", "cover_cycles", "enumerate_cycle_covers"):
        assert getattr(cnf, name) is getattr(oracles, name), name
    assert count_cycle_cover2_cnf is covers.count_cycle_cover2_cnf
    assert paracount.count_cycle_cover2_cnf is covers.count_cycle_cover2_cnf
    assert paracount.enumerate_cycle_covers is oracles.enumerate_cycle_covers
    for module, other in ((pdet, "walk_count_matrix"), (graphs, "eta"), (cnf, "eta")):
        for name in ("no_such_name", other):  # each hook resolves only its own names
            with pytest.raises(AttributeError):
                getattr(module, name)
