"""Canonical digraph representation and the walk-count oracles.

Vertices are dense 0-based integers.  Edges are an ordered list of
``(source, target)`` pairs; the position of a pair in that list is the
edge's canonical id, which is what CNF constraints refer to.  All counts
are plain Python ints, so they are exact at any magnitude.
"""
from __future__ import annotations

from .errors import (DEFAULT_LIMIT, CountingError, Record, check_limit, read_array, read_fields,
                     read_int)
from .walks import check_vertex, max_out_degree  # max_out_degree: kept importable from here


class DirectedGraph(Record):
    """Simple digraph (no duplicate arcs; self-loops allowed)."""

    __slots__ = _fields = ("n", "edges")
    n: int
    edges: tuple[tuple[int, int], ...]

    def _check(self):
        if self.n < 0:
            raise CountingError("vertex-count-negative", f"n = {self.n}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise CountingError(
                    "endpoint-out-of-range",
                    f"edge ({u}, {v}) outside vertex range [0, {self.n})",
                )
            if (u, v) in seen:
                raise CountingError("duplicate-edge", f"edge ({u}, {v}) repeated")
            seen.add((u, v))

    def successors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            succ[u].append(v)
        for lst in succ:
            lst.sort()
        return succ

    def edge_id(self, u: int, v: int) -> int:
        return self.edges.index((u, v))

    def adjacency_matrix(self) -> list[list[int]]:
        mat = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            mat[u][v] = 1
        return mat


def validate_graph(n: int, edges) -> DirectedGraph:
    """Build a DirectedGraph from raw data, rejecting malformed input."""
    return DirectedGraph(
        read_int(n, "n"),
        tuple((read_int(u, "endpoint"), read_int(v, "endpoint"))
              for u, v in (read_array(e, "edge", 2) for e in read_array(edges, '"edges"'))),
    )


class VertexColouring(Record):
    """A total colouring ``vertex -> {1, ..., m}`` of a digraph.

    ``m`` is derived as the largest colour in use.
    """

    __slots__ = _fields = ("graph", "colours", "m")
    graph: DirectedGraph
    colours: tuple[int, ...]
    m: int

    def __init__(self, graph: DirectedGraph, colours: tuple[int, ...]):
        if len(colours) != graph.n:
            raise CountingError(
                "colouring-incomplete",
                f"{len(colours)} colours for {graph.n} vertices",
            )
        if any(c < 1 for c in colours):
            raise CountingError("colour-not-positive", "colours must be >= 1")
        self._set(graph=graph, colours=colours, m=max(colours, default=0))

    def colour_of(self, v: int) -> int:
        return self.colours[v]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def walk_count_matrix(g: DirectedGraph, a: int) -> list[list[int]]:
    """Entry (u, v) counts walks from u to v with exactly ``a`` edges.

    a = 0 yields the identity table.  Exact for any magnitude.  This dense
    matrix power, O(a·n³), is the independent oracle that tests and the
    benchmark references check the walk counters against; no counter calls it.
    """
    if a < 0:
        raise CountingError("negative-length", f"a = {a}")
    n = g.n
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    adj = g.adjacency_matrix()
    for _ in range(a):
        result = _mat_mul(result, adj)
    return result


def cycles_of(succ: dict[int, int]) -> list[list[int]]:
    """Decompose a permutation, given as a successor map, into its cycles.

    Each cycle starts at its smallest vertex; cycles come in that order.
    """
    seen: set[int] = set()
    cycles = []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = []
        v = start
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = succ[v]
        cycles.append(cyc)
    return cycles


def enumerate_walks(
    g: DirectedGraph, s: int, t: int, a: int, limit: int = DEFAULT_LIMIT
) -> list[tuple[int, ...]]:
    """All s-to-t walks with exactly ``a`` edges, lexicographic by vertex sequence.

    Raises LimitExceeded when more than ``limit`` walks exist; this is the
    independent brute-force oracle behind every walk counter.
    """
    if a < 0:
        raise CountingError("negative-length", f"a = {a}")
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    succ = g.successors()
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            if prefix[-1] == t:
                check_limit(len(out) + 1, limit, f"walks of length {a} from {s} to {t}")
                out.append(tuple(prefix))
            return
        for v in succ[prefix[-1]]:
            prefix.append(v)
            rec(prefix, remaining - 1)
            prefix.pop()

    rec([s], a)
    return out


# ---------------------------------------------------------------------------
# File format: {"n": int, "edges": [[u, v], ...]} with optional "colours",
# "s" and "t".  Unknown fields are rejected.
# ---------------------------------------------------------------------------


def graph_from_json(obj: dict, extra_fields: set[str] = frozenset()) -> dict:
    """Parse the graph instance format into its parts.

    Returns a dict with keys "graph" and, when present, "colouring", "s", "t"
    plus any field named in ``extra_fields`` (verbatim).  Rejects unknown keys.
    """
    read_fields(obj, "graph file", ("n", "edges"), ("colours", "s", "t", *extra_fields))
    g = validate_graph(obj["n"], obj["edges"])
    parts: dict = {"graph": g}
    if "colours" in obj:
        colours = tuple(read_int(c, "colour") for c in read_array(obj["colours"], '"colours"'))
        parts["colouring"] = VertexColouring(g, colours)
    for key in ("s", "t"):
        if key in obj:
            parts[key] = read_int(obj[key], key)
    for key in extra_fields:
        if key in obj:
            parts[key] = obj[key]
    return parts


def graph_to_json(g: DirectedGraph, **extra) -> dict:
    obj: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    obj.update({k: v for k, v in extra.items() if v is not None})
    return obj
