"""CNF-constrained cycle covers, counted from their nontrivial cycles.

A cycle cover picks one out-edge per vertex so that the picked edges form
vertex-disjoint cycles through every vertex; a self-loop is a trivial cycle.
The counted covers have at most k nontrivial cycles on exactly k*a vertices,
so every other vertex takes its self-loop.  Those few cycles are a bounded
guess that fixes the whole cover (the paper's tail nondeterminism): the
count enumerates simple cycles of at most k*a vertices and combines them,
n^O(k) steps for out-degree <= 2, instead of walking every cover.
"""
from __future__ import annotations

from itertools import accumulate

from .cnf import EdgeCNF, _successor_choices, eval_cnf, validate_cnf_for_graph
from .errors import DEFAULT_LIMIT, CountingError, check_limit
from .walks import _check_degree_bound, ceil_log2

# `DirectedGraph` appears only in annotations, never evaluated.


def cyclecover_gate_passes(g: DirectedGraph, cnf: EdgeCNF, a: int) -> bool:
    size_g = g.n + len(g.edges)
    return a <= ceil_log2(size_g + cnf.size())


def _cycles(g: DirectedGraph, longest: int, charge) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every simple cycle of 2..``longest`` vertices once, as (head, vertex
    bitmask, edge ids), ordered by head.  A depth-first search from the head,
    the least vertex on the cycle, never enters a vertex below it; each
    search state is charged.  ``frames`` holds the path as (vertex, edge in,
    untried choices), so the depth is bounded by memory, not recursion."""
    if longest < 2:
        return []
    choices = _successor_choices(g)
    cycles = []
    for head in range(g.n):
        charge()
        on_path = {head}
        frames = [(head, -1, iter(choices[head]))]
        while frames:
            for v, eid in frames[-1][2]:
                if v == head and len(frames) > 1:
                    ids = (*(e for _, e, _ in frames[1:]), eid)
                    cycles.append((head, sum(1 << u for u in on_path), ids))
                elif v > head and v not in on_path and len(frames) < longest:
                    charge()
                    on_path.add(v)
                    frames.append((v, eid, iter(choices[v])))
                    break
            else:
                on_path.discard(frames.pop()[0])
    return cycles


def count_cycle_cover2_cnf(
    g: DirectedGraph, cnf: EdgeCNF, a: int, k: int, limit: int = DEFAULT_LIMIT
) -> int:
    """Cycle covers with <= k non-self-loop cycles, exactly k*a vertices on
    non-self-loop cycles, and characteristic assignment satisfying the CNF.

    Returns 0 when a > ceil(log2(|g| + |phi|)) with |g| = n + |edges|.
    Requires out-degree <= 2.  Combines up to k disjoint simple cycles, in
    increasing head order, that cover every vertex without a self-loop; raises
    LimitExceeded once the cycle search, the combinations and the candidate
    cycles looked at take more than ``limit`` steps together.
    """
    _check_degree_bound(g, 2)
    validate_cnf_for_graph(cnf, g)
    if a < 0 or k < 0:
        raise CountingError("negative-length", f"a = {a}, k = {k}")
    if not cyclecover_gate_passes(g, cnf, a):
        return 0
    size = k * a
    loops = {u for u, v in g.edges if u == v}
    if g.n - len(loops) > size or size > g.n:
        return 0
    loopless = sum(1 << v for v in range(g.n) if v not in loops)
    steps = 0

    def charge() -> None:
        nonlocal steps
        steps += 1
        check_limit(steps, limit, "cycle-cover search steps")

    cycles = _cycles(g, size, charge)
    # after[h]: the index of the first cycle whose head is above h
    after = [0] * g.n
    for head, _, _ in cycles:
        after[head] += 1
    after = list(accumulate(after))
    relevant = [(e, g.edges[e]) for e in cnf.variables()]
    total = 0
    # (next cycle to try, covered vertices, cycle vertices still to choose, cycles
    # still allowed, edge ids of the chosen cycles)
    pending = [(0, 0, size, k, ())]
    while pending:
        start, covered, left, allowed, chosen = pending.pop()
        charge()
        uncovered = loopless & ~covered
        if left == 0 and not uncovered:
            # A chosen edge is true, and so is each uncovered vertex's self-loop.
            assignment = {e: int(e in chosen if u != v else not covered >> u & 1)
                          for e, (u, v) in relevant}
            total += eval_cnf(cnf, assignment)
        elif left and allowed:
            # A cycle holds no vertex below its head, so once the heads pass the
            # least uncovered loopless vertex, nothing can cover it.
            end = after[(uncovered & -uncovered).bit_length() - 1] if uncovered else len(cycles)
            i = start
            while i < end:
                charge()  # every candidate looked at is a step
                head, mask, ids = cycles[i]
                if covered >> head & 1:
                    i = after[head]  # each cycle at a covered head overlaps the cover
                    continue
                if len(ids) <= left and not mask & covered:
                    pending.append((i + 1, covered | mask, left - len(ids), allowed - 1,
                                    chosen + ids))
                i += 1
    return total
