"""The y read order of a branching program, and read-once certification.

Every source-sink path of a read-once program reads y indices in strictly
increasing order; one pass in layer order, linear in the edges, checks
that order (``_check_increasing_reads``), and ``bp_count_fast`` asks for no
more.  A read-once certificate further confines each y_j's label
occurrences to one band of consecutive layers, and ``stagger`` re-layers
an ordered program into that shape.  No counting route needs either; the
tests and the benchmark still use both.
"""
from __future__ import annotations

from .errors import CountingError, Record
from .programs import BranchingProgram, validate_bp


class ReadOnceCertificate(Record):
    """Cut layers i_0 < i_1 < ... < i_m: y_j occurs only in [i_{j-1}, i_j].

    Trailing cuts may exceed the top layer index when the last bands are
    empty of occurrences.
    """

    __slots__ = _fields = ("cut_layers",)
    cut_layers: tuple[int, ...]


class Refusal(Record):
    """Names a pair of y variables whose occurrence layers cannot be banded."""

    __slots__ = _fields = ("earlier_variable", "later_variable", "reason")
    earlier_variable: int
    later_variable: int
    reason: str


def _occurrence_layers(p: BranchingProgram) -> dict[int, tuple[int, int]]:
    layer_index = p.layer_of()
    occ: dict[int, list[int]] = {}
    for node, label in p.labels:
        if label[0] == "y" and node != p.sink:  # no counter reads the sink's bit
            occ.setdefault(label[1], []).append(layer_index[node])
    return {j: (min(l), max(l)) for j, l in occ.items()}


def check_read_once_certified(p: BranchingProgram) -> ReadOnceCertificate | Refusal:
    """Greedy banding from per-variable min/max occurrence layers."""
    occ = _occurrence_layers(p)
    cuts = [0]
    provenance = 0  # variable whose occurrences pushed the last cut up
    for j in range(1, p.num_y + 1):
        prev = cuts[-1]
        if j in occ:
            lo, hi = occ[j]
            if lo < prev:
                return Refusal(
                    provenance,
                    j,
                    f"y_{j} occurs at layer {lo}, below the cut {prev} forced "
                    f"by y_{provenance}",
                )
            if hi >= prev + 1:
                cuts.append(hi)
                provenance = j
            else:
                cuts.append(prev + 1)
        else:
            cuts.append(prev + 1)
    return ReadOnceCertificate(tuple(cuts))


def _relevant_nodes(p: BranchingProgram) -> list[int]:
    """The nodes on some source-sink path, in layer order: one sweep forward
    from the source, one backward from the sink."""
    out = p.out_edges()
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
    out = p.out_edges()
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
    if isinstance(check_read_once_certified(p), ReadOnceCertificate):
        return p
    if p.sink not in upto:
        # No accepting path at all; the empty program preserves every count.
        return validate_bp([[0], [1]], {}, [], p.num_x, p.num_y, 0, 1)
    layer = p.layer_of()
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
    assert isinstance(check_read_once_certified(staggered), ReadOnceCertificate)
    return staggered
