"""CNF constraints over edge variables, and the CNF-constrained walk count.

A CNF constraint speaks about the edges of a carrier graph: variable i of a
DIMACS file (1-based) denotes edge id i-1.  Internally a literal is a pair
``(edge_id, wanted)`` so that edge 0 can be negated.  A walk induces the
characteristic assignment of its traversed edge set: traversed edges are
true, every other edge of the graph is false.  The cycle-cover count that
shares these constraints lives in `covers`.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import CountingError, Record, read_int
from .walks import _check_degree_bound, check_vertex, log_gate_passes, propagate

# `DirectedGraph` appears only in annotations, never evaluated.

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
    """Parse DIMACS cnf text (comments and the p-line are tolerated); a line
    starting with ``%`` ends the input, as in the SATLIB files."""
    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    declared = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
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
                clauses.append(tuple(current))
                current = []
            else:
                current.append((abs(lit) - 1, lit > 0))
    if current:
        clauses.append(tuple(current))
    if declared is not None and declared != len(clauses):
        raise CountingError(
            "malformed-dimacs",
            f"header declares {declared} clauses, found {len(clauses)}",
        )
    return EdgeCNF(tuple(clauses))


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


def reach2cnf_gate_passes(g: DirectedGraph, cnf: EdgeCNF, a: int, k: int) -> bool:
    return log_gate_passes(a, k, g.n + cnf.size())


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
    # DP on (step i, vertex, traversed CNF-relevant edges); only edges the
    # formula mentions can influence satisfaction, the rest of the
    # characteristic assignment is fixed by not being mentioned.  A move to v
    # is kept only if v is in alive[a - i - 1], alive[j] being the vertices
    # with a j-edge walk to t, so every state left after a moves is at t.
    relevant = cnf.variables()
    alive = [{t}]
    for _ in range(a):
        alive.append({u for u in range(g.n) if any(v in alive[-1] for v in g.succ[u])})
    if s not in alive[a]:
        return 0

    def step(state):
        i, u, used = state
        ahead = alive[a - i - 1]
        return [(i + 1, v, used | {e} if e in relevant else used)
                for v, e in g.out[u] if v in ahead]

    states = propagate({(0, s, frozenset()): 1}, a, step)
    total = 0
    for (_, _, used), cnt in states.items():
        assignment = {e: (1 if e in used else 0) for e in relevant}
        if eval_cnf(cnf, assignment):
            total += cnt
    return total


def __getattr__(name: str):  # a name moved out of this module (`paracount._MOVED`)
    from . import _moved
    return _moved(__name__, name)
