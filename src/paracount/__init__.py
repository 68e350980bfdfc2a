"""Exact parameterised counting at desk scale.

Counting problems for walks in digraphs (plain, gated, coloured and
CNF-constrained), cycle covers under CNF constraints, satisfying
assignments of quantifier-free first-order formulas, homomorphisms from
starred paths, a parameterised determinant expanded over clow sequences,
and accepting assignments of branching programs -- every route paired
with an independent brute-force oracle and connected by count-preserving
instance transforms.
"""

from .errors import DEFAULT_LIMIT, CountingError, LimitExceeded
from .graphs import (
    DirectedGraph,
    VertexColouring,
    enumerate_walks,
    max_out_degree,
    validate_graph,
    walk_count_matrix,
)
from .walks import (
    count_log_reach_b,
    count_log_walk_b,
    count_reach,
    count_reach_colour,
    log_gate_passes,
)
from .cnf import (
    EdgeCNF,
    count_cycle_cover2_cnf,
    count_log_reach2_cnf,
    enumerate_cycle_covers,
    eval_cnf,
)
from .fo import (
    QFFormula,
    RelationalStructure,
    Vocabulary,
    count_mc,
    count_mc_local,
    formula_size,
    locality_radius,
    max_arity,
)
from .homs import (
    count_hom_oracle,
    count_hom_path_star,
    is_homomorphism,
    make_path_star,
)
from .pdet import (
    ClowSequence,
    ZeroOneMatrix,
    clow_sign,
    det_cross_check,
    enumerate_k_clow_sequences,
    eta,
    pdet_clow,
    pdet_direct,
)
from .bp import (
    BranchingProgram,
    bp_accepts,
    bp_count_acc,
    bp_count_fast,
    check_read_once_certified,
    stagger,
    validate_bp,
)
from .reductions import (
    ReductionRecord,
    reduce_hom_to_reach,
    reduce_reach_colour_to_hom,
    reduce_reach_to_mc,
    reduce_reach_to_pdet,
    verify_parsimonious,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
