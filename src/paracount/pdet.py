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
  their configurations, in O(k * n^3) time.  The oracle
  ``enumerate_k_clow_sequences`` (in ``oracles``, with the involution
  ``eta``) determinises the same guesses into explicit sequences.

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


def __getattr__(name: str):  # a name moved out of this module (`paracount._MOVED`)
    from . import _moved
    return _moved(__name__, name)
