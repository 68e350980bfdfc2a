"""The unconstrained walk counters, each with its output gate, and the one
frontier propagation that every walk counter (here and in ``cnf``) runs;
``pdet`` runs it too, over the configurations of the clow machines, and
``fo`` over the states of the locality sweep.

Length conventions (fixed once, used consistently by every reduction):

* ``count_reach`` and ``count_reach_colour`` measure a walk by its number
  of VERTICES: a walk counted with parameter k is a tuple (v_1, ..., v_k),
  i.e. k-1 edges.  k = 0 yields 0 (no walk has zero vertices).
* ``count_log_reach_b`` and ``count_log_walk_b`` measure by the number of
  EDGES a, gated by a <= k * ceil(log2(max(|V|, 2))).

Logarithms in gates are base 2 with ceiling, and the size term is floored
at 2 so the gate is well defined on tiny graphs.
"""
from __future__ import annotations

from collections.abc import Callable

from .errors import CountingError

# `DirectedGraph` and `VertexColouring` appear only in annotations, which are
# never evaluated: `graphs` is not imported, since `pdet` and `fo` load this
# module for `propagate` alone.


def ceil_log2(x: int) -> int:
    """ceil(log2(max(x, 2)))."""
    return max((max(x, 2) - 1).bit_length(), 1)


def log_gate_passes(a: int, k: int, size_term: int) -> bool:
    """The `length budget` gate shared by the Log-variants."""
    return a <= k * ceil_log2(size_term)


def propagate(start: dict, steps: int, step: Callable) -> dict:
    """Map each state to the number of ``steps``-move paths from the ``start``
    counts that end in it; ``step(state)`` yields or lists the next states."""
    counts = start
    for _ in range(steps):
        nxt: dict = {}
        for u, c in counts.items():
            for v in step(u):
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt
    return counts


def check_vertex(g: DirectedGraph, v: int, name: str) -> None:
    if not (0 <= v < g.n):
        raise CountingError("vertex-out-of-range", f"{name} = {v} not in [0, {g.n})")


def max_out_degree(g: DirectedGraph) -> int:
    """Largest out-degree; 0 for edgeless graphs."""
    deg = [0] * g.n
    for u, _ in g.edges:
        deg[u] += 1
    return max(deg, default=0)


def _check_degree_bound(g: DirectedGraph, b: int) -> None:
    if b < 2:
        raise CountingError("degree-bound-violated", f"bound b = {b} must be >= 2")
    d = max_out_degree(g)
    if d > b:
        raise CountingError(
            "degree-bound-violated", f"out-degree {d} exceeds bound {b}"
        )


def count_reach(g: DirectedGraph, s: int, t: int, k: int) -> int:
    """Number of s-t walks with exactly k vertices."""
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if k < 0:
        raise CountingError("negative-length", f"k = {k}")
    if k == 0:
        return 0
    return propagate({s: 1}, k - 1, g.successors().__getitem__).get(t, 0)


def count_log_reach_b(
    g: DirectedGraph, s: int, t: int, a: int, k: int, b: int
) -> int:
    """Number of s-t walks with exactly a edges, 0 when the gate fails."""
    _check_degree_bound(g, b)
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if a < 0:
        raise CountingError("negative-length", f"a = {a}")
    if not log_gate_passes(a, k, g.n):
        return 0
    return propagate({s: 1}, a, g.successors().__getitem__).get(t, 0)


def count_log_walk_b(g: DirectedGraph, a: int, k: int, b: int) -> int:
    """Number of a-edge walks between all endpoint pairs, 0 when gated."""
    _check_degree_bound(g, b)
    if a < 0:
        raise CountingError("negative-length", f"a = {a}")
    if not log_gate_passes(a, k, g.n):
        return 0
    start = dict.fromkeys(range(g.n), 1)
    return sum(propagate(start, a, g.successors().__getitem__).values())


def count_reach_colour(vc: VertexColouring, s: int, t: int, k: int) -> int:
    """Number of s-t walks (v_1, ..., v_k) with colour(v_i) = i; 0 if m != k.

    Requires colour(s) = 1 and colour(t) = m; such walks are automatically
    paths because colours pin each position to a distinct vertex set.
    """
    g = vc.graph
    check_vertex(g, s, "s")
    check_vertex(g, t, "t")
    if vc.colour_of(s) != 1 or vc.colour_of(t) != vc.m:
        raise CountingError(
            "colouring-side-condition-violated",
            f"need colour(s) = 1 and colour(t) = m, got {vc.colour_of(s)} "
            f"and {vc.colour_of(t)} with m = {vc.m}",
        )
    if k < 0:
        raise CountingError("negative-length", f"k = {k}")
    if vc.m != k:
        return 0
    # colour(s) = 1, so position i (1-based) lives on colour class i.
    succ = g.successors()

    def step(u: int) -> list[int]:
        return [v for v in succ[u] if vc.colour_of(v) == vc.colour_of(u) + 1]

    return propagate({s: 1}, k - 1, step).get(t, 0)
