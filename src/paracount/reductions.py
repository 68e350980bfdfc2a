"""Count-preserving instance transforms between the counting problems,
plus a generic preservation verifier.

Each transform turns a source instance into a target instance whose count
equals the source count (after the stated sign recovery, where one
applies), with the target parameter bounded by a computable function of
the source parameter.  ``verify_parsimonious`` replays a batch of
instances through a transform and both counting routes and reports every
disagreement instead of raising.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import CountingError, Record, read_fields, read_int
from .fo import Atom, ConstRef, Connective, Eq, QFFormula, Var, formula_node_to_json
from .graphs import DirectedGraph, VertexColouring, graph_from_json, graph_to_json
from .homs import PathStarStructure, build_layered_reach_graph, make_path_star, path_star_vocabulary
from .pdet import ZeroOneMatrix, matrix_to_json
from .structures import RelationalStructure, Vocabulary, structure_from_json, structure_to_json
from .walks import check_vertex


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def reduce_hom_to_reach(
    n: int, b: RelationalStructure, k: int
) -> tuple[DirectedGraph, int, int, int]:
    """Path-star homomorphism counting as s-t walk counting.

    Returns (graph, s, t, k') with k' = n + 2; the homomorphism count from
    P_n* to b equals the number of s-t walks with k' vertices.
    """
    graph, s, t = build_layered_reach_graph(b, n)
    return graph, s, t, n + 2


def reduce_reach_colour_to_hom(
    vc: VertexColouring, s: int, t: int, k: int
) -> tuple[PathStarStructure, RelationalStructure, int]:
    """Colour-respecting walk counting as path-star homomorphism counting.

    The target takes the symmetric closure of the edges and one colour
    class per position; the position-respecting colouring is what keeps
    edge directions respected despite the symmetrisation.  That argument
    needs one property of the instance: no edge may descend by exactly one
    colour, since its symmetrised twin would let a homomorphism traverse
    it against the original direction.  Edges with any other colour delta
    are unusable by colour-respecting walks and homomorphisms alike.
    """
    g = vc.graph
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if vc.colour_of(s) != 1 or vc.colour_of(t) != vc.m or vc.m != k:
        raise CountingError(
            "side-condition-violated",
            f"need colour(s) = 1, colour(t) = m = k; got colour(s) = "
            f"{vc.colour_of(s)}, colour(t) = {vc.colour_of(t)}, m = {vc.m}, k = {k}",
        )
    if k < 2:
        raise CountingError("side-condition-violated", f"pattern needs k >= 2, got {k}")
    for u, v in g.edges:
        if vc.colour_of(u) == vc.colour_of(v) + 1:
            raise CountingError(
                "side-condition-violated",
                f"edge ({u}, {v}) descends from colour {vc.colour_of(u)} to "
                f"{vc.colour_of(v)}; its symmetrised twin would fake a walk step",
            )
    # The counted walks are pinned to s and t, so the end colour classes
    # must pin them too: s must be the only colour-1 vertex and t the only
    # colour-m vertex, or homomorphisms may start or end elsewhere.
    if vc.colours.count(1) != 1 or vc.colours.count(vc.m) != 1:
        raise CountingError(
            "side-condition-violated",
            "colour 1 and colour m must each be used by exactly one vertex",
        )
    pattern = make_path_star(k)
    sym_edges = set()
    for u, v in g.edges:
        sym_edges.add((u, v))
        sym_edges.add((v, u))
    interpretation: dict[str, object] = {"E": sym_edges}
    for i in range(1, k + 1):
        interpretation[f"C_{i}"] = {(u,) for u in range(g.n) if vc.colour_of(u) == i}
    target = RelationalStructure(path_star_vocabulary(k), g.n, interpretation)
    return pattern, target, k


def reach_formula(k: int) -> QFFormula:
    """(x_1 = s) and E(x_1, x_2) and ... and E(x_{k-1}, x_k) and (x_k = t),
    a flat conjunction with locality radius 1 and arity 2."""
    atoms: list = [Eq(Var("x1"), ConstRef("s"))]
    for i in range(1, k):
        atoms.append(Atom("E", (Var(f"x{i}"), Var(f"x{i + 1}"))))
    atoms.append(Eq(Var(f"x{k}"), ConstRef("t")))
    return QFFormula(Connective("and", tuple(atoms)))


def reduce_reach_to_mc(
    g: DirectedGraph, s: int, t: int, k: int
) -> tuple[QFFormula, RelationalStructure, int]:
    """Walk counting as assignment counting for the walk formula.

    Returns (formula, structure, k') with k' the formula size (k + 2);
    satisfying assignments are exactly the s-t walks with k vertices.
    """
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if k < 2:
        raise CountingError("k-too-small", f"k = {k}, the walk formula needs k >= 2")
    phi = reach_formula(k)
    vocab = Vocabulary((("E", 2),), ("s", "t"))
    structure = RelationalStructure(
        vocab, g.n, {"E": set(g.edges)}, {"s": s, "t": t}
    )
    return phi, structure, phi.size


def reduce_reach_to_pdet(
    g: DirectedGraph, s: int, t: int, k: int
) -> tuple[ZeroOneMatrix, int, int]:
    """Walk counting on a DAG as a parameterised determinant.

    Adds the back edge (t, s); every permutation moving exactly k points
    then consists of one cycle through that edge, i.e. one s-t path with k
    vertices, so pdet(A', k) = (-1)^(2n-k+1) * count.  Returns
    (matrix, k, recovery_sign).
    """
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if s == t:
        raise CountingError("s-equals-t", "the back edge needs distinct s and t")
    if k < 1:
        raise CountingError(
            "k-too-small", "k = 0 has an empty walk set but pdet(A', 0) = 1"
        )
    if _has_cycle(g):
        raise CountingError("not-a-dag", "the back-edge argument needs a DAG")
    rows = [list(row) for row in g.adjacency_matrix()]
    rows[t][s] = 1
    recovery_sign = -1 if (k + 1) % 2 else 1  # (-1)^(2n-k+1)
    return ZeroOneMatrix.from_rows(rows), k, recovery_sign


def _has_cycle(g: DirectedGraph) -> bool:
    """Kahn's peeling: a graph is acyclic iff repeatedly removing the
    vertices of in-degree 0 removes them all (a self-loop never frees its vertex)."""
    indegree = [0] * g.n
    for _, v in g.edges:
        indegree[v] += 1
    free = [v for v in range(g.n) if indegree[v] == 0]
    succ, peeled = g.successors(), 0
    while free:
        peeled += 1
        for v in succ[free.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                free.append(v)
    return peeled < g.n


# ---------------------------------------------------------------------------
# Records and the preservation verifier
# ---------------------------------------------------------------------------


class ReductionRecord(Record):
    """An executable reduction, its parameter bound and its file formats.

    ``transform`` maps a source instance (an argument tuple) to its output,
    whose k' ``param_of`` picks out; ``bound_ok`` numerically checks k'
    against the bound stated at ``standard_records``.  ``read`` turns a
    `reduce` input document into the source instance, refusing unknown
    fields; ``write`` turns the output into the target document plus the
    sidecar fields beyond ``name`` and ``kPrime``.
    """

    __slots__ = _fields = ("name", "transform", "bound_ok", "read", "write", "param_of")
    _defaults = {"param_of": lambda transformed: transformed[-1]}
    name: str
    transform: Callable
    bound_ok: Callable[[object, int], bool]
    read: Callable[[object], tuple]
    write: Callable[[tuple], tuple[object, dict]]
    param_of: Callable[[tuple], int]


class ParsimonyReport:
    def __init__(self, reduction: str):
        self.reduction = reduction
        self.rows: list[dict] = []

    @property
    def all_pass(self) -> bool:
        return all(r["counts_equal"] and r["bound_ok"] for r in self.rows)

    def failures(self) -> list[dict]:
        return [r for r in self.rows if not (r["counts_equal"] and r["bound_ok"])]


def verify_parsimonious(
    red: ReductionRecord,
    instances: Sequence,
    source_oracle: Callable,
    target_oracle: Callable,
) -> ParsimonyReport:
    """Replay instances through the transform and both counting routes.

    ``source_oracle`` maps a source instance to its count; ``target_oracle``
    maps the transform's output (including k' and any recovery data) to the
    recovered count.  Disagreements are report rows, not exceptions.
    """
    report = ParsimonyReport(red.name)
    for idx, instance in enumerate(instances):
        transformed = red.transform(instance)
        k_prime = red.param_of(transformed)
        source_count = source_oracle(instance)
        target_count = target_oracle(transformed)
        report.rows.append(
            {
                "instance": idx,
                "source_count": source_count,
                "target_count": target_count,
                "counts_equal": source_count == target_count,
                "bound_ok": red.bound_ok(instance, k_prime),
            }
        )
    return report


def _read_hom(obj) -> tuple:
    """{"n", "k", "target"}; the target is read first."""
    target = structure_from_json(read_fields(obj, "reduce input", ("n", "k", "target"))["target"])
    return read_int(obj["n"], "n"), target, read_int(obj["k"], "k")


def _read_walks(part: str) -> Callable[[object], tuple]:
    """{"graph", "s", "t", "k"}, handing the transform the graph file's ``part``."""
    fields = ("graph", "s", "t", "k")

    def read(obj) -> tuple:
        parts = graph_from_json(read_fields(obj, "reduce input", fields)["graph"])
        if part not in parts:  # only a colouring is optional
            raise CountingError("colouring-incomplete", "instance has no colours")
        return parts[part], *(read_int(obj[key], key) for key in fields[1:])
    return read


def standard_records() -> dict[str, ReductionRecord]:
    """The four reductions, each with its bound on k'."""
    return {
        "hom-to-reach": ReductionRecord(  # k' = n + 2
            "hom-to-reach",
            lambda inst: reduce_hom_to_reach(*inst),
            lambda inst, kp: kp == inst[0] + 2,
            _read_hom,
            lambda out: (graph_to_json(out[0], s=out[1], t=out[2]), {}),
        ),
        "reachcolour-to-hom": ReductionRecord(  # k' = k
            "reachcolour-to-hom",
            lambda inst: reduce_reach_colour_to_hom(*inst),
            lambda inst, kp: kp == inst[3],
            _read_walks("colouring"),
            lambda out: (structure_to_json(out[1]), {"patternN": out[0].n}),
        ),
        "reach-to-mc": ReductionRecord(  # k' <= 2k
            "reach-to-mc",
            lambda inst: reduce_reach_to_mc(*inst),
            lambda inst, kp: kp <= 2 * inst[3],
            _read_walks("graph"),
            lambda out: ({"formula": formula_node_to_json(out[0].root),
                          "structure": structure_to_json(out[1])}, {}),
        ),
        "reach-to-pdet": ReductionRecord(  # k' = k
            "reach-to-pdet",
            lambda inst: reduce_reach_to_pdet(*inst),
            lambda inst, kp: kp == inst[3],
            _read_walks("graph"),
            lambda out: (matrix_to_json(out[0]), {"recoverySign": out[2]}),
            param_of=lambda transformed: transformed[1],
        ),
    }
