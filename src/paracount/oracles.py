"""The brute-force oracles that the fast routes are checked against: the
walk enumerator and matrix power, both sides of the walk-homomorphism
bijection for starred paths, the cycle-cover enumerator, the
k-clow-sequence enumerator with the sign-reversing involution ``eta``, and
the cofactor determinant; and, for branching programs, two oracles that
no counter needs: the read-once band check, which returns the cut layers
that confine each y_j's label occurrences to one band of consecutive
layers, or None, and ``stagger``, which re-layers a program with
increasing y reads into that shape.

Only the self-test battery, the tests and the benchmark references call
them, so no counting process compiles this module.  The names that
``pdet``, ``graphs``, ``cnf`` and ``bp`` used to define are listed in
``paracount._MOVED``, so those modules still resolve them for the benchmark,
loading this one on first use.
"""
from __future__ import annotations

from collections.abc import Iterable

from .bp import _check_increasing_reads
from .cnf import _successor_choices
from .errors import DEFAULT_LIMIT, CountingError, Record, check_limit
from .pdet import pdet_direct
from .programs import validate_bp
from .walks import check_vertex

# `BranchingProgram`, `DirectedGraph`, `RelationalStructure` and
# `ZeroOneMatrix` appear only in annotations, never evaluated.


# ---------------------------------------------------------------------------
# Walk oracles
# ---------------------------------------------------------------------------


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


def hom_walk_correspondence(
    n: int, b: RelationalStructure, limit: int = DEFAULT_LIMIT
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Materialise both sides of the walk <-> homomorphism bijection.

    Returns (walks stripped of s and t, homomorphism image tuples); the
    stripped walk (v_1, ..., v_n) is read as the map i-1 -> elements[v_i].  Both
    lists are sorted; the correspondence holds iff they are equal.
    """
    from .homs import build_layered_reach_graph, enumerate_homs, make_path_star

    graph, s, t, elements = build_layered_reach_graph(b, n)
    walks = enumerate_walks(graph, s, t, n + 1, limit)
    stripped = sorted(tuple(elements[v] for v in w[1:-1]) for w in walks)
    pattern = make_path_star(n).structure
    homs = sorted(enumerate_homs(pattern, b, limit))
    return stripped, homs


# ---------------------------------------------------------------------------
# Cycle covers
# ---------------------------------------------------------------------------


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


def characteristic_assignment(g: DirectedGraph, traversed: set[int]) -> dict[int, int]:
    """Total 0/1 assignment over all edges of g: traversed edges are true."""
    return {e: (1 if e in traversed else 0) for e in range(len(g.edges))}


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


# ---------------------------------------------------------------------------
# Clows and clow sequences
# ---------------------------------------------------------------------------


class Clow(Record):
    """A closed walk given by its body; the closing edge back to the head
    is implicit.  body[0] is the head: the minimum vertex, never revisited."""

    __slots__ = _fields = ("body",)
    body: tuple[int, ...]

    def _check(self):
        if not self.body:
            raise CountingError("invalid-clow-sequence", "empty clow body")
        head = self.body[0]
        if head != min(self.body):
            raise CountingError(
                "invalid-clow-sequence", f"head {head} is not minimal in {self.body}"
            )
        if head in self.body[1:]:
            raise CountingError(
                "invalid-clow-sequence", f"head {head} revisited in {self.body}"
            )

    @property
    def head(self) -> int:
        return self.body[0]

    @property
    def num_edges(self) -> int:
        return len(self.body)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (self.body[i], self.body[(i + 1) % len(self.body)])
            for i in range(len(self.body))
        ]

    def is_simple_cycle(self) -> bool:
        return len(set(self.body)) == len(self.body)


class ClowSequence(Record):
    """Clows with strictly ascending heads over ambient vertices 0..n-1."""

    __slots__ = _fields = ("clows", "n")
    clows: tuple[Clow, ...]
    n: int

    def _check(self):
        heads = [c.head for c in self.clows]
        if heads != sorted(set(heads)):
            raise CountingError(
                "invalid-clow-sequence", f"heads {heads} not strictly ascending"
            )
        for clow in self.clows:
            if any(not (0 <= v < self.n) for v in clow.body):
                raise CountingError(
                    "invalid-clow-sequence", f"vertex outside range in {clow.body}"
                )

    @property
    def total_edges(self) -> int:
        return sum(c.num_edges for c in self.clows)

    def edge_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(e for c in self.clows for e in c.edges()))

    def is_disjoint_cycle_cover(self) -> bool:
        """All clows simple cycles, pairwise vertex-disjoint."""
        seen: set[int] = set()
        for clow in self.clows:
            if not clow.is_simple_cycle():
                return False
            body = set(clow.body)
            if body & seen:
                return False
            seen |= body
        return True


def validate_k_clow_sequence(w: ClowSequence, k: int) -> None:
    """The k-variant: exactly k edges, every clow >= 2 edges, no self-loops."""
    if w.total_edges != k:
        raise CountingError(
            "invalid-clow-sequence", f"{w.total_edges} edges, expected {k}"
        )
    for clow in w.clows:
        if clow.num_edges < 2:
            raise CountingError(
                "invalid-clow-sequence", f"clow {clow.body} has fewer than two edges"
            )
        if any(u == v for u, v in clow.edges()):
            raise CountingError(
                "invalid-clow-sequence", f"clow {clow.body} uses a self-loop"
            )


def clow_sign(w: ClowSequence) -> int:
    """(-1)^(2n - k + r) for k total edges and r clows."""
    return -1 if (w.total_edges + len(w.clows)) % 2 else 1


def enumerate_k_clow_sequences(
    a: ZeroOneMatrix, k: int, limit: int = DEFAULT_LIMIT
) -> list[ClowSequence]:
    """All weight-1 k-clow sequences of the digraph of `a`.

    Emission order follows the machines' guess order: first head ascending,
    then per step the extension successors ascending before the closing
    choice, and after a closing the next head ascending.  k = 0 yields the
    single empty sequence; k = 1 yields nothing (no clow has one edge).
    """
    if k < 0:
        raise CountingError("k-out-of-range", f"k = {k}")
    out: list[ClowSequence] = []
    rows = a.rows
    n = a.n

    def emit(finished: list[tuple[int, ...]]) -> None:
        check_limit(len(out) + 1, limit, f"{k}-clow sequences")
        out.append(ClowSequence(tuple(Clow(b) for b in finished), n))

    def step(head: int, cur: int, body: list[int], used: int, finished) -> None:
        # Extend: one more edge inside the current clow.  Needs at least one
        # further edge left over for the eventual closing step.  Successors
        # stay strictly above the head (the head is the clow's minimum and
        # is only reached again by the closing edge).
        if used + 1 <= k - 1:
            for v in range(head + 1, n):
                if v != cur and rows[cur][v]:
                    body.append(v)
                    step(head, v, body, used + 1, finished)
                    body.pop()
        # Close: the edge back to the head; requires a nonempty body walk
        # (so every clow gets >= 2 edges) and never a self-loop.
        if len(body) >= 2 and rows[cur][head]:
            finished.append(tuple(body))
            if used + 1 == k:
                emit(finished)
            elif k - (used + 1) >= 2:
                for new_head in range(head + 1, n):
                    step(new_head, new_head, [new_head], used + 1, finished)
            finished.pop()

    if k == 0:
        emit([])
    elif k >= 2:
        for head in range(n):
            step(head, head, [head], 0, [])
    return out


# ---------------------------------------------------------------------------
# The sign-reversing involution
# ---------------------------------------------------------------------------


def eta(w: ClowSequence) -> ClowSequence:
    """Sign-reversing involution on k-clow sequences.

    Disjoint simple-cycle covers are fixed; otherwise find the smallest i
    whose suffix consists of pairwise vertex-disjoint simple cycles, traverse
    clow i from its head and at the first vertex that either touches a later
    cycle (merge it in) or closes a simple cycle inside the clow (split it
    off, reinserted by head order).  Applying eta twice is the identity, the
    sign flips, and the traversed edge multiset is preserved.
    """
    validate_k_clow_sequence(w, w.total_edges)
    clows = list(w.clows)
    # Smallest i with clows[i+1:] pairwise disjoint simple cycles: scan back.
    suffix_vertices: set[int] = set()
    i = len(clows) - 1
    while i >= 0:
        body = clows[i].body
        if clows[i].is_simple_cycle() and suffix_vertices.isdisjoint(body):
            suffix_vertices |= set(body)
            i -= 1
        else:
            break
    if i < 0:
        return w  # disjoint cycle cover: fixed point (k = 0 lands here too)

    body = clows[i].body
    membership: dict[int, int] = {}
    for j in range(i + 1, len(clows)):
        for v in clows[j].body:
            membership[v] = j

    for p in range(1, len(body)):
        v = body[p]
        if v in membership:
            return _merge(clows, i, p, membership[v], w.n)
        if v in body[:p]:
            return _split(clows, i, p, w.n)
    raise AssertionError("non-fixed clow sequence must trigger a merge or split")


def _merge(clows: list[Clow], i: int, p: int, j: int, n: int) -> ClowSequence:
    """Splice the simple cycle clows[j] into clows[i] at body position p."""
    body = clows[i].body
    v = body[p]
    cycle = clows[j].body
    at = cycle.index(v)
    rotated = cycle[at:] + cycle[:at]
    new_body = body[: p + 1] + rotated[1:] + (v,) + body[p + 1 :]
    new = clows[:i] + [Clow(new_body)] + [c for q, c in enumerate(clows) if q > i and q != j]
    return ClowSequence(tuple(new), n)


def _split(clows: list[Clow], i: int, p: int, n: int) -> ClowSequence:
    """Detach the simple cycle completed at body position p of clows[i]."""
    body = clows[i].body
    v = body[p]
    q = body.index(v)  # first occurrence; q >= 1 since heads are not revisited
    segment = body[q:p]
    at = segment.index(min(segment))
    cycle = Clow(segment[at:] + segment[:at])
    remainder = Clow(body[:q] + body[p:])
    rest = clows[:i] + [remainder] + clows[i + 1 :]
    insert_at = next(
        (idx for idx, c in enumerate(rest) if c.head > cycle.head), len(rest)
    )
    return ClowSequence(tuple(rest[:insert_at] + [cycle] + rest[insert_at:]), n)


# ---------------------------------------------------------------------------
# Determinant cross-checks
# ---------------------------------------------------------------------------


def determinant_cofactor(rows: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (independent oracle)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        entry = rows[0][col]
        if not entry:
            continue
        minor = [
            [row[c] for c in range(n) if c != col] for row in rows[1:]
        ]
        term = entry * determinant_cofactor(minor)
        total += term if col % 2 == 0 else -term
    return total


def det_cross_check(a: ZeroOneMatrix) -> int:
    """Sum of pdet_direct(a, k) over k for a unit-diagonal matrix.

    Because fixed points contribute unit factors, the sum equals det(a);
    the acceptance suite compares it against cofactor expansion.
    """
    for i in range(a.n):
        if a.rows[i][i] != 1:
            raise CountingError("diagonal-not-unit", f"entry ({i}, {i}) is 0")
    return sum(pdet_direct(a, k) for k in range(a.n + 1))


# ---------------------------------------------------------------------------
# Read-once certification and staggering of branching programs
# ---------------------------------------------------------------------------


def check_read_once_certified(p: BranchingProgram) -> tuple[int, ...] | None:
    """Cut layers i_0 < i_1 < ... < i_m with y_j's label occurrences only in
    layers [i_{j-1}, i_j], or None when no such banding exists.

    Greedy: each cut is the last layer that reads its variable, or one past
    the previous cut, whichever is higher.  Trailing cuts may exceed the top
    layer index when the last bands are empty of occurrences.
    """
    occurrences: dict[int, list[int]] = {}  # j -> the layers reading y_j, ascending
    for i, layer in enumerate(p.layers):
        for node in layer:
            label = p.label_of(node)
            if label[0] == "y" and node != p.sink:  # no counter reads the sink's bit
                occurrences.setdefault(label[1], []).append(i)
    cuts = [0]
    for j in range(1, p.num_y + 1):
        layers = occurrences.get(j, [cuts[-1]])
        if layers[0] < cuts[-1]:
            return None
        cuts.append(max(layers[-1], cuts[-1] + 1))
    return tuple(cuts)


def stagger(p: BranchingProgram) -> BranchingProgram:
    """Re-layer p into a read-once certified program with the same accepting
    counts for every input.

    Requires the order property: every source-sink path reads y indices
    strictly increasingly (one layer-order pass, linear in the edges).
    Already-certified programs come back unchanged.  Otherwise the nodes and
    edges on source-sink paths are kept and only moved.  A node u other than
    the sink takes the slot (max(upto[u], 1), old layer), upto[u] the
    largest y index read up to u; the new layers are a fresh pass source,
    the sorted distinct slots, and the sink alone, relabelled pass.

    Counts are kept: upto never falls along an edge and the old layer rises
    within a band, so every kept edge still goes to a later layer, and the
    kept subgraph holds every source-sink path.  The output is certified:
    y_j occurs only in band j, and each band opens with an empty slot
    (j, -1), since the certificate's cuts rise by at least one per variable.
    """
    upto = _check_increasing_reads(p, "order-property-violated")
    if check_read_once_certified(p) is not None:
        return p
    if p.sink not in upto:
        # No accepting path at all; the empty program preserves every count.
        return validate_bp([[0], [1]], {}, [], p.num_x, p.num_y, 0, 1)
    layer = {v: i for i, nodes in enumerate(p.layers) for v in nodes}
    slot = {u: (max(upto[u], 1), layer[u]) for u in upto if u != p.sink}
    order = sorted(set(slot.values()) | {(j, -1) for j in range(1, p.num_y + 1)})
    position = {s: i for i, s in enumerate(order, 1)}
    source = max(p.nodes()) + 1
    layers: list[list[int]] = [[source]] + [[] for _ in order] + [[p.sink]]
    for u, s in slot.items():
        layers[position[s]].append(u)
    edges = [(u, v, bit) for u, v, bit in p.edges if u in upto and v in upto]
    staggered = validate_bp(layers, {u: label for u, label in p.labels if u in slot},
                            edges + [(source, p.source, None)],
                            p.num_x, p.num_y, source, p.sink)
    assert check_read_once_certified(staggered) is not None
    return staggered
