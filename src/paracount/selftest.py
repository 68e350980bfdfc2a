"""Cross-oracle property battery behind `paracount selftest`.

Every counting route in the package is replayed here against an
independent brute-force oracle on randomly generated desk-scale
instances: walk counters against walk enumeration, CNF counters against
enumerate-then-filter, the locality sweep against brute-force assignment
counting, the layered homomorphism count against map enumeration, the
clow expansion against the direct definition (plus the involution that
proves they agree), the read-once branching-program count against
y-enumeration, and every reduction against both of its end points.

All randomness flows from one seed, so failures reproduce exactly.
"""
from __future__ import annotations

import random
from collections.abc import Callable

from . import bp as bpm
from . import cnf as cnfm
from . import covers as cvm
from . import fo as fom
from . import homs as homm
from . import oracles as orm
from . import pdet as pdm
from . import reductions as redm
from . import walks as wkm
from .errors import Record
from .formulas import Atom, Connective, Eq, Node, QFFormula, Var, locality_radius, max_arity
from .graphs import DirectedGraph, VertexColouring
from .oracles import check_read_once_certified, enumerate_walks, stagger
from .programs import BranchingProgram, Label, validate_bp
from .structures import RelationalStructure, Vocabulary
from .sweep import count_mc_local
from .transforms import reduce_reach_to_mc, reduce_reach_to_pdet


class Scale(Record):
    """How many random instances or trials each property of the battery draws."""

    __slots__ = _fields = (
        "clow_matrices", "involution_random_matrices", "det_matrices", "backedge_dags",
        "walk_instances", "cnf_instances", "mc_formulas", "parsimony_instances", "hom_targets",
        "bp_programs",
    )


SMOKE = Scale(
    clow_matrices=40,
    involution_random_matrices=10,
    det_matrices=25,
    backedge_dags=25,
    walk_instances=40,
    cnf_instances=30,
    mc_formulas=25,
    parsimony_instances=12,
    hom_targets=15,
    bp_programs=40,
)

FULL = Scale(
    clow_matrices=500,
    involution_random_matrices=100,
    det_matrices=200,
    backedge_dags=200,
    walk_instances=300,
    cnf_instances=200,
    mc_formulas=200,
    parsimony_instances=100,
    hom_targets=100,
    bp_programs=300,
)


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def rand_graph(rng: random.Random, max_n: int, max_out: int | None = None) -> DirectedGraph:
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        candidates = list(range(n))
        rng.shuffle(candidates)
        degree_cap = max_out if max_out is not None else n
        for v in candidates[: rng.randint(0, degree_cap)]:
            edges.append((u, v))
    return DirectedGraph(n, tuple(edges))


def rand_dag(rng: random.Random, max_n: int) -> DirectedGraph:
    n = rng.randint(2, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.append((u, v))
    return DirectedGraph(n, tuple(edges))


def rand_matrix(rng: random.Random, max_n: int, density: float = 0.5) -> pdm.ZeroOneMatrix:
    n = rng.randint(1, max_n)
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    return pdm.ZeroOneMatrix.from_rows(rows)


def rand_edge_cnf(rng: random.Random, g: DirectedGraph) -> cnfm.EdgeCNF:
    if not g.edges or rng.random() < 0.15:
        return cnfm.EdgeCNF.empty()
    clauses = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.05:
            clauses.append([])  # empty clause: unsatisfiable
            continue
        clause = []
        for _ in range(rng.randint(1, 3)):
            edge = rng.randrange(len(g.edges))
            clause.append((edge + 1) if rng.random() < 0.5 else -(edge + 1))
        clauses.append(clause)
    return cnfm.EdgeCNF.from_dimacs_literals(clauses)


def rand_local_formula(
    rng: random.Random, r: int, max_vars: int = 4
) -> QFFormula:
    """A random formula whose locality radius is at most r, arity <= 2."""
    num_atoms = rng.randint(1, 6)
    atoms: list = []
    first_occ: dict[str, int] = {}
    names = [f"v{i}" for i in range(max_vars)]

    def pool_at(idx: int) -> list[str]:
        reusable = [v for v in first_occ if first_occ[v] + r >= idx]
        fresh = [v for v in names if v not in first_occ]
        return reusable + fresh

    def pick_var(idx: int) -> str:
        name = rng.choice(pool_at(idx))
        first_occ.setdefault(name, idx)
        return name

    for idx in range(num_atoms):
        if not pool_at(idx):
            break  # every name is bound and out of its locality window
        kind = rng.random()
        if kind < 0.5:
            atom = Atom("E", (Var(pick_var(idx)), Var(pick_var(idx))))
        elif kind < 0.8:
            atom = Atom("P", (Var(pick_var(idx)),))
        else:
            atom = Eq(Var(pick_var(idx)), Var(pick_var(idx)))
        atoms.append(atom)

    def build(seq: list) -> Node:
        node: Node
        if len(seq) == 1:
            node = seq[0]
        else:
            cut_count = rng.randint(2, min(3, len(seq)))
            cuts = sorted(rng.sample(range(1, len(seq)), cut_count - 1))
            chunks = []
            prev = 0
            for c in cuts + [len(seq)]:
                chunks.append(seq[prev:c])
                prev = c
            node = Connective(rng.choice(["and", "or"]), tuple(build(c) for c in chunks))
        if rng.random() < 0.25:
            node = Connective("not", (node,))
        return node

    return QFFormula(build(atoms))


def rand_structure(rng: random.Random, max_universe: int = 5) -> RelationalStructure:
    n = rng.randint(1, max_universe)
    vocab = Vocabulary((("E", 2), ("P", 1)), ())
    edges = {
        (u, v) for u in range(n) for v in range(n) if rng.random() < 0.4
    }
    points = {(u,) for u in range(n) if rng.random() < 0.5}
    return RelationalStructure(vocab, n, {"E": edges, "P": points})


def rand_path_star_target(
    rng: random.Random, n: int, max_universe: int = 5
) -> RelationalStructure:
    """Random target over (E, C_1..C_n): each colour class is a random subset,
    so classes may overlap, and E holds random pairs (self-loops included),
    closed under reversal in about half of the draws."""
    size = rng.randint(1, max_universe)
    edges = {(u, v) for u in range(size) for v in range(size) if rng.random() < 0.5}
    if rng.random() < 0.5:
        edges |= {(v, u) for u, v in edges}
    interpretation: dict[str, object] = {"E": edges}
    for i in range(1, n + 1):
        interpretation[f"C_{i}"] = {(u,) for u in range(size) if rng.random() < 0.4}
    return RelationalStructure(homm.path_star_vocabulary(n), size, interpretation)


def rand_coloured_instance(
    rng: random.Random, max_n: int = 6
) -> tuple[VertexColouring, int, int, int]:
    """Random coloured walk instance with colour(s) = 1, colour(t) = m = k.

    Every other vertex takes any colour in 1..k, so edges may rise, fall or
    keep their colour, and s and t need not be alone in their classes.
    """
    k = rng.randint(2, 4)
    g = rand_graph(rng, max_n)
    if g.n < 2:
        g = DirectedGraph(2, g.edges)
    s, t = rng.sample(range(g.n), 2)
    colours = [rng.randint(1, k) for _ in range(g.n)]
    colours[s] = 1
    colours[t] = k
    return VertexColouring(g, tuple(colours)), s, t, k


def rand_ordered_bp(rng: random.Random) -> BranchingProgram:
    """Random program whose paths read y variables in order, once each.

    Built as one or two disjoint branch chains behind an x-labelled root,
    so certification can fail while the order property still holds.
    """
    num_x = rng.randint(1, 4)
    num_y = rng.randint(1, 4)
    branches = rng.randint(1, 2)
    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    labels: dict[int, Label] = {}
    edges: list[tuple[int, int, int | None]] = []
    placements: list[tuple[int, int]] = []  # (node, chain position, 1-based)

    def make_chain() -> list[int]:
        length = rng.randint(1, 4)
        nodes = [fresh() for _ in range(length)]
        y_count = rng.randint(0, min(num_y, length))
        y_positions = sorted(rng.sample(range(length), y_count))
        y_indices = sorted(rng.sample(range(1, num_y + 1), y_count))
        for pos, node in enumerate(nodes):
            if pos in y_positions:
                labels[node] = ("y", y_indices[y_positions.index(pos)])
            elif rng.random() < 0.7:
                labels[node] = ("x", rng.randint(1, num_x))
            else:
                labels[node] = ("pass",)
            placements.append((node, pos + 1))
        for a, b in zip(nodes, nodes[1:]):
            _connect(a, b)
        return nodes

    def _connect(a: int, b: int) -> None:
        if labels[a][0] == "pass":
            edges.append((a, b, None))
        else:
            for bit in (0, 1):
                if rng.random() < 0.85:
                    edges.append((a, b, bit))

    chains = [make_chain() for _ in range(branches)]
    sink = fresh()
    labels[sink] = ("pass",)
    root = fresh()
    if branches == 1:
        labels[root] = ("pass",)
        edges.append((root, chains[0][0], None))
    else:
        labels[root] = ("x", rng.randint(1, num_x))
        edges.append((root, chains[0][0], 0))
        edges.append((root, chains[1][0], 1))
    for chain in chains:
        _connect(chain[-1], sink)

    depth = {root: 0}
    for node, pos in placements:
        depth[node] = pos
    depth[sink] = max(depth.values()) + 1
    top = depth[sink]
    layers: list[list[int]] = [[] for _ in range(top + 1)]
    for node, layer in sorted(depth.items()):
        layers[layer].append(node)
    return validate_bp(layers, labels, edges, num_x, num_y, root, sink)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def all_walks(g: DirectedGraph, a: int) -> list[tuple[int, ...]]:
    """Every a-edge walk regardless of endpoints, by the walk oracle."""
    return [w for s in range(g.n) for t in range(g.n) for w in enumerate_walks(g, s, t, a)]


def st_walks(inst: tuple[DirectedGraph, int, int, int]) -> int:
    """s-t walks with k vertices in inst = (graph, s, t, k), by enumeration."""
    g, s, t, k = inst
    return len(enumerate_walks(g, s, t, k - 1))


def colour_walks(inst: tuple[VertexColouring, int, int, int]) -> int:
    """s-t walks with k vertices whose i-th vertex has colour i, by filtering."""
    vc, s, t, k = inst
    return sum(all(vc.colour_of(v) == i + 1 for i, v in enumerate(w))
               for w in enumerate_walks(vc.graph, s, t, k - 1))


def walk_edge_ids(g: DirectedGraph, walk: tuple[int, ...]) -> set[int]:
    return {e for u, v in zip(walk, walk[1:]) for w, e in g.out[u] if w == v}


# ---------------------------------------------------------------------------
# Properties; each returns a list of failure strings (empty = pass)
# ---------------------------------------------------------------------------


def check_pdet_clow_vs_direct(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.clow_matrices):
        a = rand_matrix(rng, 5)
        for k in range(a.n + 1):
            direct = pdm.pdet_direct(a, k)
            clow = pdm.pdet_clow(a, k)
            if direct != clow:
                failures.append(
                    f"trial {trial}: pdet mismatch n={a.n} k={k}: "
                    f"direct {direct} vs clow {clow} rows={a.rows}"
                )
    return failures


def check_involution(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    matrices = [
        pdm.ZeroOneMatrix.from_rows([[1] * n for _ in range(n)]) for n in range(1, 5)
    ]
    matrices += [rand_matrix(rng, 4) for _ in range(scale.involution_random_matrices)]
    for a in matrices:
        for k in range(0, 5):
            sequences = orm.enumerate_k_clow_sequences(a, k)
            fixed_sign_sum = 0
            nonfixed_sign_sum = 0
            for w in sequences:
                image = orm.eta(w)
                if orm.eta(image) != w:
                    failures.append(f"eta not an involution on {w}")
                    continue
                if w.is_disjoint_cycle_cover():
                    if image != w:
                        failures.append(f"cycle cover {w} not fixed by eta")
                    fixed_sign_sum += orm.clow_sign(w)
                else:
                    if image == w:
                        failures.append(f"non-cover {w} fixed by eta")
                    if orm.clow_sign(image) != -orm.clow_sign(w):
                        failures.append(f"eta does not flip sign on {w}")
                    if image.total_edges != w.total_edges:
                        failures.append(f"eta changes edge count on {w}")
                    if image.edge_multiset() != w.edge_multiset():
                        failures.append(f"eta changes traversed edges on {w}")
                    nonfixed_sign_sum += orm.clow_sign(w)
            if nonfixed_sign_sum != 0:
                failures.append(
                    f"pairing argument broken: non-fixed signs sum to "
                    f"{nonfixed_sign_sum} (n={a.n}, k={k})"
                )
            if k <= a.n and fixed_sign_sum != pdm.pdet_direct(a, k):
                failures.append(
                    f"fixed points do not sum to pdet (n={a.n}, k={k})"
                )
    return failures


def check_det_cross(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.det_matrices):
        a = rand_matrix(rng, 5)
        rows = [list(r) for r in a.rows]
        for i in range(a.n):
            rows[i][i] = 1
        a = pdm.ZeroOneMatrix.from_rows(rows)
        total = orm.det_cross_check(a)
        oracle = orm.determinant_cofactor([list(r) for r in a.rows])
        if total != oracle:
            failures.append(
                f"trial {trial}: sum_k pdet = {total} but det = {oracle} ({a.rows})"
            )
    return failures


def check_backedge_identity(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.backedge_dags):
        g = rand_dag(rng, 6)
        s, t = rng.sample(range(g.n), 2)
        k = rng.randint(1, min(5, g.n))
        matrix, k_out, sign = reduce_reach_to_pdet(g, s, t, k)
        left = pdm.pdet_direct(matrix, k_out)
        right = sign * wkm.count_reach(g, s, t, k)
        if left != right:
            failures.append(
                f"trial {trial}: pdet(A',{k}) = {left} but sign*count = {right}"
            )
    return failures


def check_walk_counters(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.walk_instances):
        g = rand_graph(rng, 6, max_out=rng.choice([2, 3, None]))
        if g.n == 0:
            continue
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        a = rng.randint(0, 6)
        k = rng.randint(0, 3)
        b = max(2, wkm.max_out_degree(g))
        walks = all_walks(g, a)
        gate = wkm.log_gate_passes(a, k, g.n)
        expected_reach = (
            len([w for w in walks if w[0] == s and w[-1] == t]) if gate else 0
        )
        if wkm.count_log_reach_b(g, s, t, a, k, b) != expected_reach:
            failures.append(f"trial {trial}: count_log_reach_b mismatch")
        expected_total = len(walks) if gate else 0
        if wkm.count_log_walk_b(g, a, k, b) != expected_total:
            failures.append(f"trial {trial}: count_log_walk_b mismatch")
        if gate:  # logwalk coherence: sum over endpoint pairs
            by_pairs = sum(
                wkm.count_log_reach_b(g, u, v, a, k, b)
                for u in range(g.n)
                for v in range(g.n)
            )
            if by_pairs != expected_total:
                failures.append(f"trial {trial}: logwalk != sum of logreach")
        if not wkm.log_gate_passes(a, k + 1, g.n) and gate:
            failures.append(f"trial {trial}: gate not monotone in k")

        kv = rng.randint(0, 7)
        expected = st_walks((g, s, t, kv)) if kv >= 1 else 0
        if wkm.count_reach(g, s, t, kv) != expected:
            failures.append(f"trial {trial}: count_reach mismatch (k={kv})")
        if kv >= 2:  # recurrence over the last step
            recur = sum(
                wkm.count_reach(g, s, u, kv - 1)
                for u in range(g.n)
                if t in g.succ[u]
            )
            if recur != expected:
                failures.append(f"trial {trial}: count_reach recurrence broken")

        vc, cs, ct, ck = rand_coloured_instance(rng)
        queried_k = ck if rng.random() < 0.7 else ck + rng.choice([-1, 1])
        if queried_k < 0:
            queried_k = 0
        expected_c = colour_walks((vc, cs, ct, ck)) if queried_k == vc.m else 0
        if wkm.count_reach_colour(vc, cs, ct, queried_k) != expected_c:
            failures.append(f"trial {trial}: count_reach_colour mismatch")
    # Disjoint-union additivity on a fixed pair of random graphs.
    g1 = rand_graph(rng, 4)
    g2 = rand_graph(rng, 4)
    union = DirectedGraph(
        g1.n + g2.n,
        g1.edges + tuple((u + g1.n, v + g1.n) for u, v in g2.edges),
    )
    for a in range(4):
        if len(all_walks(union, a)) != len(all_walks(g1, a)) + len(all_walks(g2, a)):
            failures.append(f"disjoint union additivity broken at a={a}")
    return failures


def check_cnf_counters(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.cnf_instances):
        g = rand_graph(rng, 6, max_out=2)
        if g.n == 0:
            continue
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        a = rng.randint(0, 4)
        k = rng.randint(0, 3)
        phi = rand_edge_cnf(rng, g)
        got = cnfm.count_log_reach2_cnf(g, s, t, phi, a, k)
        if not cnfm.reach2cnf_gate_passes(g, phi, a, k):
            expected = 0
        else:
            expected = 0
            for w in enumerate_walks(g, s, t, a):
                assignment = orm.characteristic_assignment(g, walk_edge_ids(g, w))
                if cnfm.eval_cnf(phi, assignment):
                    expected += 1
        if got != expected:
            failures.append(f"trial {trial}: reach2cnf mismatch {got} != {expected}")
        empty = cnfm.EdgeCNF.empty()
        if cnfm.count_log_reach2_cnf(g, s, t, empty, a, k) != wkm.count_log_reach_b(
            g, s, t, a, k, 2
        ):
            failures.append(f"trial {trial}: empty CNF does not reduce to logreach")

        cg = rand_graph(rng, 5, max_out=2)
        cphi = rand_edge_cnf(rng, cg)
        ca = rng.randint(0, 3)
        ck = rng.randint(0, 3)
        got_cc = cvm.count_cycle_cover2_cnf(cg, cphi, ca, ck)
        if not cvm.cyclecover_gate_passes(cg, cphi, ca):
            expected_cc = 0
        else:
            expected_cc = 0
            for cover in orm.enumerate_cycle_covers(cg):
                cycles = orm.cover_cycles(cg, cover)
                nontrivial = [c for c in cycles if len(c) > 1]
                if len(nontrivial) > ck:
                    continue
                if sum(len(c) for c in nontrivial) != ck * ca:
                    continue
                assignment = orm.characteristic_assignment(cg, set(cover))
                if cnfm.eval_cnf(cphi, assignment):
                    expected_cc += 1
        if got_cc != expected_cc:
            failures.append(
                f"trial {trial}: cyclecover mismatch {got_cc} != {expected_cc}"
            )
        total_cc = len(orm.enumerate_cycle_covers(cg))
        if got_cc > total_cc:
            failures.append(f"trial {trial}: cyclecover count above total covers")
    return failures


def check_mc_local(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.mc_formulas):
        r = rng.randint(0, 2)
        phi = rand_local_formula(rng, r)
        structure = rand_structure(rng)
        k = phi.size if rng.random() < 0.8 else phi.size + 1
        brute = fom.count_mc(phi, structure, k)
        swept = count_mc_local(
            phi, structure, k, max(r, locality_radius(phi)), 2
        )
        if brute != swept:
            failures.append(
                f"trial {trial}: count_mc {brute} != count_mc_local {swept}"
            )
        bound = structure.universe_size ** len(phi.free_variables)
        if brute > bound:
            failures.append(f"trial {trial}: count exceeds universe bound")
        # At any fixed assignment exactly one of phi, not phi holds.
        assignment = {
            v: rng.randrange(structure.universe_size) for v in phi.free_variables
        }
        if fom.evaluate(phi.root, assignment, structure) == fom.evaluate(
            Connective("not", (phi.root,)), assignment, structure
        ):
            failures.append(f"trial {trial}: phi and not phi agree")
    # The walk formula exercises the r-local fragment with constants.
    for trial in range(scale.mc_formulas // 4):
        g = rand_graph(rng, 5)
        if g.n == 0:
            continue
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        k = rng.randint(2, 4)
        phi, structure, kp = reduce_reach_to_mc(g, s, t, k)
        if fom.count_mc(phi, structure, kp) != count_mc_local(
            phi, structure, kp, 1, 2
        ):
            failures.append(f"walk formula trial {trial}: local sweep mismatch")
    return failures


def check_hom_correspondence(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.hom_targets):
        n = rng.randint(2, 4)
        b = rand_path_star_target(rng, n)
        k = n if rng.random() < 0.8 else n - 1
        got = homm.count_hom_path_star(n, b, k)
        pattern = homm.make_path_star(n).structure
        oracle = homm.count_hom_oracle(pattern, b)
        expected = oracle if n <= k else 0
        if got != expected:
            failures.append(f"trial {trial}: hom count {got} != {expected}")
        walks, homs = orm.hom_walk_correspondence(n, b)
        if walks != homs:
            failures.append(f"trial {trial}: walk/hom bijection mismatch")
        if len(homs) != oracle:
            failures.append(f"trial {trial}: bijection cardinality off")
    return failures


def check_reductions(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    records = redm.standard_records()
    count = scale.parsimony_instances

    def replay(name: str, instances: list, source_oracle, target_oracle) -> None:
        rows = redm.verify_parsimonious(records[name], instances, source_oracle, target_oracle)
        failures.extend(f"{name}: {row}" for row in rows)

    hom_instances = []
    for _ in range(count):
        n = rng.randint(2, 4)
        hom_instances.append((n, rand_path_star_target(rng, n), n + rng.randint(0, 2)))
    replay(
        "hom-to-reach",
        hom_instances,
        lambda inst: homm.count_hom_oracle(homm.make_path_star(inst[0]).structure, inst[1]),
        lambda out: wkm.count_reach(out[0], out[1], out[2], out[3]),
    )
    colour_instances = [rand_coloured_instance(rng) for _ in range(count)]
    replay("reachcolour-to-hom", colour_instances, colour_walks,
           lambda out: homm.count_hom_oracle(out[0].structure, out[1]))

    mc_instances = []
    for _ in range(count):
        g = rand_graph(rng, 6)
        if g.n == 0:
            g = DirectedGraph(1, ())
        mc_instances.append(
            (g, rng.randrange(g.n), rng.randrange(g.n), rng.randint(2, 5))
        )
    replay("reach-to-mc", mc_instances, st_walks,
           lambda out: fom.count_mc(out[0], out[1], out[2]))
    for inst in mc_instances[: max(1, count // 5)]:
        phi, _, _ = reduce_reach_to_mc(*inst)
        if locality_radius(phi) != 1 or max_arity(phi) != 2:
            failures.append("reach-to-mc emitted a non-1-local or non-binary formula")

    pdet_instances = []
    for _ in range(count):
        g = rand_dag(rng, 6)
        s, t = rng.sample(range(g.n), 2)
        pdet_instances.append((g, s, t, rng.randint(1, min(5, g.n))))
    replay("reach-to-pdet", pdet_instances, st_walks,
           lambda out: out[2] * pdm.pdet_direct(out[0], out[1]))

    # A deliberately corrupted transform must be caught (mutation test).
    broken = redm.ReductionRecord(
        "broken",
        lambda inst: (inst[0], inst[1], inst[2], inst[3] + 1),
        lambda inst, kp: kp == inst[3],
        records["reach-to-mc"].read, records["reach-to-mc"].write,
    )
    probe = [(DirectedGraph(3, ((0, 1), (1, 2))), 0, 2, 3)]
    if not redm.verify_parsimonious(
        broken, probe, st_walks, lambda out: wkm.count_reach(out[0], out[1], out[2], out[3])
    ):
        failures.append("verifier failed to flag a corrupted transform")
    return failures


def check_bp(rng: random.Random, scale: Scale) -> list[str]:
    failures = []
    for trial in range(scale.bp_programs):
        p = rand_ordered_bp(rng)
        staggered = stagger(p)
        if check_read_once_certified(staggered) is None:
            failures.append(f"trial {trial}: stagger output not certified")
            continue
        for mask in range(2 ** p.num_x):
            x = [(mask >> i) & 1 for i in range(p.num_x)]
            base = bpm.bp_count_acc(p, x)
            if bpm.bp_count_acc(staggered, x) != base:
                failures.append(f"trial {trial}: stagger changed #acc at x={x}")
            if bpm.bp_count_fast(p, x) != base:
                failures.append(f"trial {trial}: fast count mismatch at x={x}")
            if bpm.bp_count_fast(staggered, x) != base:
                failures.append(f"trial {trial}: fast count of stagger mismatch at x={x}")
    return failures


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

PROPERTIES: list[tuple[str, Callable[[random.Random, Scale], list[str]]]] = [
    ("pdet-clow-vs-direct", check_pdet_clow_vs_direct),
    ("clow-involution-suite", check_involution),
    ("determinant-cross-check", check_det_cross),
    ("back-edge-identity", check_backedge_identity),
    ("walk-counter-coherence", check_walk_counters),
    ("cnf-counters-vs-filter", check_cnf_counters),
    ("mc-local-vs-brute-force", check_mc_local),
    ("hom-walk-correspondence", check_hom_correspondence),
    ("reduction-parsimony", check_reductions),
    ("bp-count-and-stagger", check_bp),
]


def run_selftest(seed: int, scale_name: str) -> list[tuple[str, bool, list[str]]]:
    """Run every property at the named scale; returns (name, ok, failures)."""
    scale = FULL if scale_name == "full" else SMOKE
    results = []
    for name, prop in PROPERTIES:
        rng = random.Random(f"{seed}:{name}")
        failures = prop(rng, scale)
        results.append((name, not failures, failures))
    return results
