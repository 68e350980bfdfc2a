"""CNF-constrained cycle covers, counted from their nontrivial cycles.

A cycle cover picks one out-edge per vertex so that the picked edges form
vertex-disjoint cycles through every vertex; a self-loop is a trivial cycle.
The counted covers have at most k nontrivial cycles on exactly k*a vertices,
so every other vertex takes its self-loop.  Those few cycles are a bounded
guess that fixes the whole cover (the paper's tail nondeterminism): the
count enumerates the simple cycles of at most k*a vertices that a cover can
hold and combines them, n^O(k) steps for out-degree <= 2, instead of walking
every cover.
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
    """Every simple cycle of 2..``longest`` vertices that some cycle cover can
    hold, once, as (head, vertex bitmask, edge ids), ordered by head.

    A depth-first search from the head, the least vertex on the cycle, enters
    a vertex v only if v is off the path and can still close the cycle in
    time: a backward BFS from each head, over the vertices above it, gives
    ``dist[v]``, the edges from v back to the head.  It also backtracks once a
    vertex without a self-loop, off the path, has no free predecessor or no
    free successor left: a predecessor whose out-edge, or a successor whose
    in-edge, the path has not fixed.  No cover holds such a path.  Each BFS
    vertex and each search state is charged.  ``frames`` holds the path as
    (vertex, edge in, untried choices), so the depth is bounded by memory,
    not recursion."""
    if longest < 2:
        return []
    choices = _successor_choices(g)
    preds: list[list[int]] = [[] for _ in range(g.n)]
    succs: list[list[int]] = [[] for _ in range(g.n)]
    loopless = [True] * g.n
    for u, v in g.edges:
        if u == v:
            loopless[u] = False
        else:
            preds[v].append(u)
            succs[u].append(v)
    free_in = [len(p) for p in preds]
    free_out = [len(s) for s in succs]

    def fix(u: int, v: int, step: int) -> bool:
        """Fix (step -1) or free (step 1) u's out-edge and v's in-edge; True if
        that strands a loopless vertex off the path."""
        stranded = False
        for w in succs[u]:
            free_in[w] += step
            stranded |= not free_in[w] and loopless[w] and w not in on_path
        for w in preds[v]:
            free_out[w] += step
            stranded |= not free_out[w] and loopless[w] and w not in on_path
        return stranded

    cycles = []
    for head in range(g.n):
        dist = {head: 0}
        queue = [head]
        for w in queue:
            charge()
            if dist[w] + 1 < longest:
                for u in preds[w]:
                    if u > head and u not in dist:
                        dist[u] = dist[w] + 1
                        queue.append(u)
        on_path = {head}
        frames = [(head, -1, iter(choices[head]))]
        while frames:
            cur, _, untried = frames[-1]
            for v, eid in untried:
                if v == head and len(frames) > 1:
                    ids = (*(e for _, e, _ in frames[1:]), eid)
                    cycles.append((head, sum(1 << u for u in on_path), ids))
                elif v in dist and v not in on_path and len(frames) + dist[v] <= longest:
                    charge()
                    on_path.add(v)
                    if not fix(cur, v, -1):
                        frames.append((v, eid, iter(choices[v])))
                        break
                    fix(cur, v, 1)
                    on_path.discard(v)
            else:
                v = frames.pop()[0]
                on_path.discard(v)
                if frames:
                    fix(frames[-1][0], v, 1)
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
