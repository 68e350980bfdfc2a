"""Count-preserving instance transforms between the counting problems.

Each transform turns a source instance into a target instance whose count
equals the source count (after the stated sign recovery, where one
applies), with the target parameter bounded by a computable function of
the source parameter.  The records that name them, with their bounds and
file formats, and the preservation verifier live in ``reductions``.
"""
from __future__ import annotations

from .errors import CountingError
from .structures import RelationalStructure, Vocabulary
from .walks import check_vertex

# The transforms import `formulas`, `homs` and `pdet` themselves, so `reduce`
# compiles only its record's modules; annotations are never evaluated.


def reduce_hom_to_reach(
    n: int, b: RelationalStructure, k: int
) -> tuple[DirectedGraph, int, int, int]:
    """Path-star homomorphism counting as s-t walk counting.

    Returns (graph, s, t, k') with k' = n + 2; the homomorphism count from
    P_n* to b equals the number of s-t walks with k' vertices.
    """
    from .homs import build_layered_reach_graph

    graph, s, t, _ = build_layered_reach_graph(b, n)
    return graph, s, t, n + 2


def reduce_reach_colour_to_hom(
    vc: VertexColouring, s: int, t: int, k: int
) -> tuple[PathStarStructure, RelationalStructure, int]:
    """Colour-respecting walk counting as path-star homomorphism counting.

    E^B holds each edge that rises by exactly one colour, with its reverse;
    C_1 = {s}, C_k = {t} and every middle class C_i holds the colour-i
    vertices.  A homomorphism's consecutive images rise by one colour, so
    only a kept edge in its own direction can join them (the reverse of a
    rising edge falls): homomorphisms are exactly the colour-respecting
    s-t walks, whatever the rest of the colouring and the edges.
    """
    from .homs import make_path_star, path_star_vocabulary

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
    rising = [(u, v) for u, v in g.edges if vc.colour_of(v) == vc.colour_of(u) + 1]
    interpretation: dict[str, object] = {
        "E": rising + [(v, u) for u, v in rising], "C_1": [(s,)], f"C_{k}": [(t,)]}
    for i in range(2, k):
        interpretation[f"C_{i}"] = [(u,) for u in range(g.n) if vc.colour_of(u) == i]
    target = RelationalStructure(path_star_vocabulary(k), g.n, interpretation)
    return make_path_star(k), target, k


def reach_formula(k: int) -> QFFormula:
    """(x_1 = s) and E(x_1, x_2) and ... and E(x_{k-1}, x_k) and (x_k = t),
    a flat conjunction with locality radius 1 and arity 2."""
    from .formulas import Atom, ConstRef, Connective, Eq, QFFormula, Var

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
    from .pdet import ZeroOneMatrix

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
    peeled = 0
    while free:
        peeled += 1
        for v in g.succ[free.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                free.append(v)
    return peeled < g.n
