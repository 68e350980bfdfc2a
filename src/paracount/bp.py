"""Acceptance and accepting counts of layered branching programs.

An input pair (x, y) is accepted when a source-to-sink path consistent with
it exists; the accepting count of an ordinary input x is the number of y
assignments it accepts with.  The program record and its file format live
in ``programs``.  The count is made two ways: ``bp_count_acc`` enumerates
every y (the oracle), and ``bp_count_fast`` needs the read-once model: the
y bits on a one-way tape, so every source-sink path reads y indices in
strictly increasing order, and determinism given inputs.  One pass in
layer order, linear in the edges (``_check_increasing_reads``), checks
that order; the counter then keeps one count per node on a source-sink
path, halved at each y read.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import DEFAULT_LIMIT, CountingError, check_limit

# `BranchingProgram` and `Label` appear only in annotations, never evaluated.


def is_deterministic_given_inputs(p: BranchingProgram) -> bool:
    """No node offers two edges for the same bit value; fixing (x, y) then
    forces at most one maximal walk (missing edges mean rejection).  A pass
    node has at most one edge, labelled None (``validate_bp``)."""
    return all(len(fanout) == len({bit for _, bit in fanout})
               for fanout in p.out_map.values())


def _check_deterministic(p: BranchingProgram) -> None:
    if not is_deterministic_given_inputs(p):
        raise CountingError(
            "not-deterministic", "a node offers two edges for one bit value"
        )


def _bit_of(label: Label, x: Sequence[int], y: Sequence[int]) -> int | None:
    if label[0] == "x":
        return x[label[1] - 1]
    if label[0] == "y":
        return y[label[1] - 1]
    return None


def _check_widths(p: BranchingProgram, x_width: int, y_width: int) -> None:
    if x_width != p.num_x or y_width != p.num_y:
        raise CountingError(
            "width-mismatch",
            f"got |x| = {x_width}, |y| = {y_width}, expected {p.num_x}, {p.num_y}",
        )


def bp_accepts(p: BranchingProgram, x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff some source-to-sink path is consistent with (x, y)."""
    _check_widths(p, len(x), len(y))
    return _accepts(p, x, y)


def _accepts(p: BranchingProgram, x: Sequence[int], y: Sequence[int]) -> bool:
    out = p.out_map
    reachable = {p.source}
    for layer in p.layers:
        for u in layer:
            if u not in reachable:
                continue
            want = _bit_of(p.label_of(u), x, y)
            for v, bit in out.get(u, []):
                if bit is None or want is None or bit == want:
                    reachable.add(v)
    return p.sink in reachable


def bp_count_acc(
    p: BranchingProgram, x: Sequence[int], limit: int = DEFAULT_LIMIT
) -> int:
    """Number of y assignments accepted for the ordinary input x.

    Exhaustive over {0,1}^numY; this is the oracle ``bp_count_fast`` is
    checked against.  Unread y bits are free, so they double the
    count per bit.  Raises LimitExceeded when 2^numY exceeds ``limit``.
    """
    _check_deterministic(p)
    check_limit(2 ** p.num_y, limit, f"y assignments (2^{p.num_y})")
    _check_widths(p, len(x), p.num_y)
    count = 0
    for mask in range(2 ** p.num_y):
        y = [(mask >> j) & 1 for j in range(p.num_y)]
        if _accepts(p, x, y):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Fast counting in the read-once model
# ---------------------------------------------------------------------------


def _relevant_nodes(p: BranchingProgram) -> list[int]:
    """The nodes on some source-sink path, in layer order: one sweep forward
    from the source, one backward from the sink."""
    out = p.out_map
    order = p.nodes()
    reached = {p.source}
    for u in order:
        if u in reached:
            reached.update(v for v, _ in out.get(u, []))
    alive = reached & {p.sink}
    for u in reversed(order):
        if u in reached and any(v in alive for v, _ in out.get(u, [])):
            alive.add(u)
    return [u for u in order if u in alive]


def _check_increasing_reads(p: BranchingProgram, code: str) -> dict[int, int]:
    """Map each node on a source-sink path, in layer order, to the largest y
    index read on some source path up to and including it (0 when none).

    One pass in layer order, linear in the edges.  Refuses with ``code``
    when some source-sink path reads y indices not strictly increasingly.
    """
    out = p.out_map
    before: dict[int, int] = {}
    upto: dict[int, int] = {}
    for u in _relevant_nodes(p):
        read = before.get(u, 0)
        label = p.label_of(u)
        if label[0] == "y" and u != p.sink:  # no counter reads the sink's bit
            if label[1] <= read:
                raise CountingError(
                    code, f"y_{label[1]} is read after y_{read} on some path"
                )
            read = label[1]
        upto[u] = read
        for v, _ in out.get(u, []):
            if before.get(v, 0) < read:
                before[v] = read
    return upto


def bp_count_fast(p: BranchingProgram, x: Sequence[int]) -> int:
    """Accepting count by one pass in layer order, no y enumeration.

    Requires determinism given inputs and strictly increasing y reads on
    every source-sink path; one layer-order pass, linear in the edges,
    checks the second.  Fixing (x, y) then forces at most one path, so the
    count sums, over the source-sink paths that agree with x, the
    2^(numY - r) assignments of a path that reads r distinct y bits.  Each
    node on such a path keeps one count: the source starts at 2^numY, and
    the count follows every edge that agrees with x, halved at each y read.
    The halving is exact, since every path that reaches a y_j node has read
    fewer than j bits.
    """
    _check_widths(p, len(x), p.num_y)
    _check_deterministic(p)
    upto = _check_increasing_reads(p, "precondition-violated")
    out = p.out_map
    counts = dict.fromkeys(upto, 0)
    counts[p.source] = 2 ** p.num_y
    for u in upto:
        label = p.label_of(u)
        share = counts[u] // 2 if label[0] == "y" else counts[u]
        for v, bit in out.get(u, []):
            if v in counts and (label[0] != "x" or x[label[1] - 1] == bit):
                counts[v] += share
    return counts.get(p.sink, 0)


def __getattr__(name: str):  # a name moved out of this module (`paracount._MOVED`)
    from . import _moved
    return _moved(__name__, name)
