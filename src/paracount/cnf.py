"""CNF-constrained counting over edge variables.

A CNF constraint speaks about the edges of a carrier graph: variable i of a
DIMACS file (1-based) denotes edge id i-1.  Internally a literal is a pair
``(edge_id, wanted)`` so that edge 0 can be negated.  A walk or cycle cover
induces the characteristic assignment of its traversed edge set: traversed
edges are true, every other edge of the graph is false.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DEFAULT_LIMIT, CountingError, Record, check_limit, read_int
from .graphs import DirectedGraph, cycles_of
from .walks import ceil_log2, _check_degree_bound, check_vertex, propagate

Literal = tuple[int, bool]  # (edge id, required value)


class EdgeCNF(Record):
    """CNF over edge variables of a carrier graph.

    An empty CNF is always satisfied; an empty clause never is.
    """

    __slots__ = _fields = ("clauses",)
    clauses: tuple[tuple[Literal, ...], ...]

    @classmethod
    def from_dimacs_literals(cls, clauses: Iterable[Iterable[int]]) -> "EdgeCNF":
        """Build from clauses of signed 1-based variables (DIMACS convention)."""
        parsed = []
        for clause in clauses:
            lits = []
            for lit in clause:
                lit = read_int(lit, "literal")
                if lit == 0:
                    raise CountingError("bad-literal", "literal 0 is reserved")
                lits.append((abs(lit) - 1, lit > 0))
            parsed.append(tuple(lits))
        return cls(tuple(parsed))

    @classmethod
    def empty(cls) -> "EdgeCNF":
        return cls(())

    def variables(self) -> set[int]:
        return {edge for clause in self.clauses for edge, _ in clause}

    def size(self) -> int:
        """Clause count plus literal count (the gate's |phi| measure)."""
        return len(self.clauses) + sum(len(c) for c in self.clauses)


def validate_cnf_for_graph(cnf: EdgeCNF, g: DirectedGraph) -> None:
    for edge in cnf.variables():
        if not (0 <= edge < len(g.edges)):
            raise CountingError(
                "edge-variable-out-of-range",
                f"CNF references edge id {edge}, graph has {len(g.edges)} edges",
            )


def _dimacs_int(token: str) -> int:
    """A DIMACS number: ASCII digits after an optional minus, never coerced."""
    if not (token.isascii() and token.removeprefix("-").isdecimal()):
        raise CountingError("malformed-dimacs", f"{token!r} is not an integer")
    return int(token)


def parse_dimacs(text: str) -> EdgeCNF:
    """Parse DIMACS cnf text (comments and the p-line are tolerated)."""
    clauses: list[list[int]] = []
    current: list[int] = []
    declared = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            header = line.split()
            if len(header) != 4 or header[1] != "cnf":
                raise CountingError("malformed-dimacs", f"bad header: {line}")
            _dimacs_int(header[2])  # the variable count: checked, not used
            declared = _dimacs_int(header[3])
            continue
        for token in line.split():
            lit = _dimacs_int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if declared is not None and declared != len(clauses):
        raise CountingError(
            "malformed-dimacs",
            f"header declares {declared} clauses, found {len(clauses)}",
        )
    return EdgeCNF.from_dimacs_literals(clauses)


def eval_cnf(cnf: EdgeCNF, assignment: Mapping[int, int]) -> bool:
    """Standard CNF semantics; raises when a referenced variable is missing."""
    for clause in cnf.clauses:
        satisfied = False
        for edge, wanted in clause:
            if edge not in assignment:
                raise CountingError(
                    "unassigned-variable", f"edge variable {edge} has no value"
                )
            if bool(assignment[edge]) == wanted:
                satisfied = True
        if not satisfied:
            return False
    return True


def characteristic_assignment(g: DirectedGraph, traversed: set[int]) -> dict[int, int]:
    """Total 0/1 assignment over all edges of g: traversed edges are true."""
    return {e: (1 if e in traversed else 0) for e in range(len(g.edges))}


def reach2cnf_gate_passes(g: DirectedGraph, cnf: EdgeCNF, a: int, k: int) -> bool:
    return a <= k * ceil_log2(g.n + cnf.size())


def count_log_reach2_cnf(
    g: DirectedGraph, s: int, t: int, cnf: EdgeCNF, a: int, k: int
) -> int:
    """s-t walks of exactly a edges whose traversed-edge set satisfies the CNF.

    Distinct walks with equal edge sets count separately.  Returns 0 when
    a exceeds k * ceil(log2(|V| + |phi|)).  Requires out-degree <= 2.
    """
    _check_degree_bound(g, 2)
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    validate_cnf_for_graph(cnf, g)
    if a < 0:
        raise CountingError("negative-length", f"a = {a}")
    if not reach2cnf_gate_passes(g, cnf, a, k):
        return 0
    # DP on (vertex, traversed CNF-relevant edges); only edges the formula
    # mentions can influence satisfaction, the rest of the characteristic
    # assignment is fixed by not being mentioned.
    relevant = cnf.variables()
    choices = _successor_choices(g)

    def step(state):
        u, used = state
        return [(v, used | {e} if e in relevant else used) for v, e in choices[u]]

    states = propagate({(s, frozenset()): 1}, a, step)
    total = 0
    for (u, used), cnt in states.items():
        if u != t:
            continue
        assignment = {e: (1 if e in used else 0) for e in relevant}
        if eval_cnf(cnf, assignment):
            total += cnt
    return total


# ---------------------------------------------------------------------------
# Cycle covers
# ---------------------------------------------------------------------------


def _successor_choices(g: DirectedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex: (target, edge id) choices sorted by edge id."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        out[u].append((v, eid))
    return out


def _cover_search(g: DirectedGraph, visit, limit: int) -> None:
    """Call visit(successor map) on each cycle cover, charged against ``limit``.

    A depth-first search over the vertices in order, trying each vertex's
    choices in edge-id order; ``stack[v]`` is the next choice to try at vertex
    v, so the search depth is bounded by memory, not by the recursion limit.
    """
    choices = _successor_choices(g)
    succ = [-1] * g.n
    used = [False] * g.n
    reached = 0
    stack = [0]
    while stack:
        v = len(stack) - 1
        if v == g.n:
            reached += 1
            check_limit(reached, limit, "cycle covers")
            visit(succ)
            stack.pop()
            continue
        if succ[v] != -1:
            used[g.edges[succ[v]][1]] = False
            succ[v] = -1
        i = stack[v]
        while i < len(choices[v]) and used[choices[v][i][0]]:
            i += 1
        if i == len(choices[v]):
            stack.pop()
            continue
        target, succ[v] = choices[v][i]
        used[target] = True
        stack[v] = i + 1
        stack.append(0)


def cover_cycles(g: DirectedGraph, edge_ids: Iterable[int]) -> list[list[int]]:
    """Decompose a cycle cover (as edge ids) into vertex cycles."""
    return cycles_of(dict(g.edges[eid] for eid in edge_ids))


def enumerate_cycle_covers(
    g: DirectedGraph, limit: int = DEFAULT_LIMIT
) -> list[tuple[int, ...]]:
    """All cycle covers as sorted edge-id tuples, in lexicographic order.

    This is the brute-force oracle behind the constrained cycle-cover counter.
    """
    covers: list[tuple[int, ...]] = []
    _cover_search(g, lambda succ: covers.append(tuple(sorted(succ))), limit)
    covers.sort()
    return covers


def cyclecover_gate_passes(g: DirectedGraph, cnf: EdgeCNF, a: int) -> bool:
    size_g = g.n + len(g.edges)
    return a <= ceil_log2(size_g + cnf.size())


def count_cycle_cover2_cnf(
    g: DirectedGraph, cnf: EdgeCNF, a: int, k: int, limit: int = DEFAULT_LIMIT
) -> int:
    """Cycle covers with <= k non-self-loop cycles, exactly k*a vertices on
    non-self-loop cycles, and characteristic assignment satisfying the CNF.

    Returns 0 when a > ceil(log2(|g| + |phi|)) with |g| = n + |edges|.
    Requires out-degree <= 2.  Streams the covers without storing them, and
    raises LimitExceeded once more than ``limit`` covers are reached.
    """
    _check_degree_bound(g, 2)
    validate_cnf_for_graph(cnf, g)
    if a < 0 or k < 0:
        raise CountingError("negative-length", f"a = {a}, k = {k}")
    if not cyclecover_gate_passes(g, cnf, a):
        return 0
    relevant = cnf.variables()
    wanted_nontrivial_vertices = k * a
    hits = [0]

    def visit(succ: list[int]) -> None:
        cycles = cover_cycles(g, succ)
        nontrivial = [c for c in cycles if len(c) > 1]
        if len(nontrivial) > k:
            return
        if sum(len(c) for c in nontrivial) != wanted_nontrivial_vertices:
            return
        chosen = set(succ)
        assignment = {e: (1 if e in chosen else 0) for e in relevant}
        if eval_cnf(cnf, assignment):
            hits[0] += 1

    _cover_search(g, visit, limit)
    return hits[0]
