"""Canonical digraph representation and its file format.

Vertices are dense 0-based integers.  Edges are an ordered list of
``(source, target)`` pairs; the position of a pair in that list is the
edge's canonical id, which is what CNF constraints refer to.  A graph
derives its out-adjacency once, as ``succ`` and ``out``; every counter and
oracle reads those fields instead of grouping the edges itself.  All counts
are plain Python ints, so they are exact at any magnitude.
"""
from __future__ import annotations

from .errors import CountingError, Record, read_array, read_fields, read_int


class DirectedGraph(Record):
    """Simple digraph (no duplicate arcs; self-loops allowed).

    The out-adjacency is derived once, while the edges are checked: ``out[u]``
    holds u's ``(successor, edge id)`` pairs in edge-id order, ``succ[u]`` its
    successors in ascending order.  Equality, hash and repr read only ``n``
    and ``edges``.
    """

    _fields = ("n", "edges")
    __slots__ = (*_fields, "succ", "out")  # the adjacency is derived, not compared
    n: int
    edges: tuple[tuple[int, int], ...]
    succ: tuple[tuple[int, ...], ...]
    out: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = self.n
        if n < 0:
            raise CountingError("vertex-count-negative", f"n = {n}")
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        seen = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise CountingError(
                    "endpoint-out-of-range",
                    f"edge ({u}, {v}) outside vertex range [0, {n})",
                )
            if (u, v) in seen:
                raise CountingError("duplicate-edge", f"edge ({u}, {v}) repeated")
            seen.add((u, v))
            out[u].append((v, eid))
        self._set(out=tuple(map(tuple, out)),
                  succ=tuple(tuple(sorted(v for v, _ in pairs)) for pairs in out))

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


def __getattr__(name: str):  # a name moved out of this module (`paracount._MOVED`)
    from . import _moved
    return _moved(__name__, name)
