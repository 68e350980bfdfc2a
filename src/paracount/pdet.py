"""The parameterised determinant of a 0/1 matrix.

``pdet(A, k)`` sums sign(pi) times the product of off-diagonal entries over
all permutations moving exactly k points.  The module offers two routes:

* ``pdet_direct`` is the definition: for each set of k moved points it sums
  the signed fixed-point-free bijections of that set, row by row through a
  signed frontier keyed by the mask of used columns, so shared prefixes are
  summed once and zero entries cut a prefix off; it still charges the
  definition's n!/(n-k)! candidate permutations against ``limit``, so it
  refuses exactly where the plain enumeration did;
* ``pdet_clow`` sums signs over all k-clow sequences of the digraph whose
  adjacency matrix is A.  It counts the accepting paths of the two clow
  machines (head; then per step: extend with a successor, or close the
  clow and open a new one at a strictly larger head) by a frontier DP over
  their configurations, in O(k * n^3) time.  ``enumerate_k_clow_sequences``
  determinises the same guesses into explicit sequences and serves only as
  the oracle, together with the involution ``eta``.

A clow is a closed walk whose head (first vertex) is its minimum and is not
revisited before the closing step; a k-clow sequence lists clows with
strictly ascending heads, k edges in total, every clow at least two edges,
and no self-loop edges.  The sign of a sequence with r clows over n ambient
vertices is (-1)^(2n-k+r).  The sign-reversing involution ``eta`` pairs up
the sequences that are not disjoint cycle covers, which is why the two
routes agree.
"""
from __future__ import annotations

import functools
import itertools
import math

from .errors import (DEFAULT_LIMIT, CountingError, Record, check_limit, read_array, read_fields,
                     read_int)
from .walks import propagate


class ZeroOneMatrix(Record):
    __slots__ = _fields = ("n", "rows")
    n: int
    rows: tuple[tuple[int, ...], ...]

    def _check(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise CountingError("bad-matrix-shape", f"expected {self.n}x{self.n}")
        for row in self.rows:
            for entry in row:
                if entry not in (0, 1):
                    raise CountingError("bad-entry", f"entry {entry!r} not a bit")

    @classmethod
    def from_rows(cls, rows) -> "ZeroOneMatrix":
        rows = tuple(tuple(read_int(x, "entry") for x in r) for r in rows)
        return cls(len(rows), rows)


def _check_k(a: ZeroOneMatrix, k: int) -> None:
    """pdet(A, k) is defined for 0 <= k <= n: no permutation moves more points."""
    if not (0 <= k <= a.n):
        raise CountingError("k-out-of-range", f"k = {k}, n = {a.n}")


def pdet_direct(a: ZeroOneMatrix, k: int, limit: int = DEFAULT_LIMIT) -> int:
    """Direct definition: sum over permutations moving exactly k points.

    For each set S of k moved points, sums the signs of the fixed-point-free
    bijections of S row by row, sharing prefixes: a signed frontier maps the
    mask of columns used so far to the signed number of partial bijections.
    Row p may take column c only if c != p and A[p][c] = 1; the sign flips
    when an odd number of used columns lie above c (an odd number of new
    inversions), so the sign is the ordinary permutation sign on all n
    points.  Still charges the n!/(n-k)! candidate permutations of the plain
    enumeration against ``limit``, so the route refuses where it always did.
    """
    _check_k(a, k)
    check_limit(math.perm(a.n, k), limit, f"candidate permutations ({a.n}!/{a.n - k}!)")
    total = 0
    for support in itertools.combinations(range(a.n), k):
        allowed = [[j for j, c in enumerate(support) if c != p and a.rows[p][c]]
                   for p in support]
        if not all(allowed):
            continue
        frontier = {0: 1}
        for columns in allowed:
            nxt: dict[int, int] = {}
            for used, signed in frontier.items():
                for j in columns:
                    if not used >> j & 1:
                        key = used | 1 << j
                        flip = (used >> j).bit_count() & 1
                        nxt[key] = nxt.get(key, 0) + (-signed if flip else signed)
            frontier = nxt
        total += sum(frontier.values())
    return total


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


def clow_parity_counts(
    a: ZeroOneMatrix, k: int, limit: int = DEFAULT_LIMIT
) -> tuple[int, int]:
    """(positive-sign count, negative-sign count) over all k-clow sequences.

    These are the accepting-path counts of the two clow machines whose
    difference is pdet, counted by a frontier DP over their configurations
    in O(k * n^3) time: a configuration is (head, current vertex, parity of
    the closed clows), every move uses one edge, and ``(None, None, odd)``
    marks a finished sequence.  The sequence count is then charged against
    ``limit``, as the enumerator would charge it, so the routes refuse alike.
    """
    if k < 0:
        raise CountingError("k-out-of-range", f"k = {k}")
    n, rows = a.n, a.rows

    @functools.cache  # a state's moves never change: list them once per call
    def step(state):
        head, cur, odd = state
        if head is None:
            return []
        moves = [(head, v, odd) for v in range(head + 1, n) if v != cur and rows[cur][v]]
        if cur != head and rows[cur][head]:
            moves.append((None, None, not odd))
            moves += [(h, h, not odd) for h in range(head + 1, n)]
        return moves

    # The finished empty sequence seeds the start too: it survives only k = 0.
    start = dict.fromkeys([(None, None, False)] + [(h, h, False) for h in range(n)], 1)
    ends = propagate(start, k, step)
    even, odd = ends.get((None, None, False), 0), ends.get((None, None, True), 0)
    positive, negative = (odd, even) if k % 2 else (even, odd)
    check_limit(positive + negative, limit, f"{k}-clow sequences")
    return positive, negative


def pdet_clow(a: ZeroOneMatrix, k: int, limit: int = DEFAULT_LIMIT) -> int:
    """pdet via the signed k-clow-sequence expansion, in O(k * n^3) time;
    refuses k outside 0..n, as ``pdet_direct`` does, and more than ``limit``
    k-clow sequences."""
    _check_k(a, k)
    positive, negative = clow_parity_counts(a, k, limit)
    return positive - negative


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
# File format: {"n": int, "rows": [[bits]]}
# ---------------------------------------------------------------------------


def matrix_from_json(obj: dict) -> ZeroOneMatrix:
    read_fields(obj, "matrix file", ("n", "rows"))
    rows = read_array(obj["rows"], '"rows"')
    mat = ZeroOneMatrix.from_rows(read_array(row, "row") for row in rows)
    if mat.n != read_int(obj["n"], "n"):
        raise CountingError("bad-matrix-shape", "'n' disagrees with row count")
    return mat


def matrix_to_json(a: ZeroOneMatrix) -> dict:
    return {"n": a.n, "rows": [list(r) for r in a.rows]}
