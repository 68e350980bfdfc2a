"""Layered branching programs with nondeterministic inputs.

A program reads ordinary bits x_1..x_numX and nondeterministic bits
y_1..y_numY.  Nodes sit in layers; every edge goes to a strictly later
layer and carries the bit value of the departed node's variable (``None``
for forced pass-through nodes, which every input follows).  An input pair
is accepted when a source-to-sink path consistent with it exists; the
accepting count of an ordinary input x is the number of y assignments it
accepts with.

The fast counter needs the read-once model: the y bits on a one-way tape,
so every source-sink path reads y indices in strictly increasing order,
and determinism given inputs.  One pass in layer order, linear in the
edges, checks that order; the counter then keeps one count per node on a
source-sink path, halved at each y read.  No counting route needs
read-once certification, which confines each y_j's label occurrences to
one band of consecutive layers, or ``stagger``, which re-layers an ordered
program into that shape; the tests and the benchmark still use both.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

from .errors import (DEFAULT_LIMIT, CountingError, Record, check_limit, read_array, read_fields,
                     read_int)

Label = tuple  # ("x", i) | ("y", j) | ("pass",)


class BranchingProgram(Record):
    _fields = ("layers", "labels", "edges", "num_x", "num_y", "source", "sink")
    __slots__ = (*_fields, "label_map", "out_map")  # the maps are derived, not compared
    layers: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, Label], ...]  # sorted (node, label) pairs
    edges: tuple[tuple[int, int, int | None], ...]
    num_x: int
    num_y: int
    source: int
    sink: int
    label_map: dict[int, Label]
    out_map: dict[int, list[tuple[int, int | None]]]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        out: dict = {}
        for u, v, bit in self.edges:
            out.setdefault(u, []).append((v, bit))
        self._set(label_map=dict(self.labels), out_map=out)

    def label_of(self, node: int) -> Label:
        return self.label_map.get(node, ("pass",))

    def layer_of(self) -> dict[int, int]:
        return {v: i for i, layer in enumerate(self.layers) for v in layer}

    def out_edges(self) -> dict[int, list[tuple[int, int | None]]]:
        """Node -> [(successor, bit)], built once; callers must not mutate it."""
        return self.out_map

    def nodes(self) -> list[int]:
        return [v for layer in self.layers for v in layer]


def validate_bp(
    layers: Sequence[Sequence[int]],
    labels: Mapping[int, Label],
    edges: Sequence[tuple[int, int, int | None]],
    num_x: int,
    num_y: int,
    source: int,
    sink: int,
) -> BranchingProgram:
    """Build a BranchingProgram, rejecting malformed input; a node id, width,
    label index or edge bit that is not an int (a bool, say) is refused,
    never converted: a bit with ``bad-bit-label``, the rest ``not-an-integer``."""
    layer_tuple = tuple(tuple(read_int(v, "node") for v in layer) for layer in layers)
    all_nodes = [v for layer in layer_tuple for v in layer]
    if len(all_nodes) != len(set(all_nodes)):
        raise CountingError("not-layered", "a node appears in two layers")
    node_set = set(all_nodes)
    if read_int(num_x, "numX") < 0 or read_int(num_y, "numY") < 0:
        raise CountingError("bad-width", "numX and numY must be >= 0")
    if not layer_tuple or read_int(source, "source") not in layer_tuple[0]:
        raise CountingError("source-sink-misplaced", "source must sit in layer 0")
    if read_int(sink, "sink") not in layer_tuple[-1]:
        raise CountingError("source-sink-misplaced", "sink must sit in the last layer")
    norm_labels = {}
    for node, label in labels.items():
        if read_int(node, "label node") not in node_set:
            raise CountingError("not-layered", f"label for unknown node {node}")
        shape = tuple(label) if isinstance(label, (tuple, list)) else ()
        if not (shape == ("pass",) or (len(shape) == 2 and shape[0] in ("x", "y"))):
            raise CountingError("bad-label", f"label {label!r}")
        if shape[0] == "x":
            if not (1 <= read_int(shape[1], "label x") <= num_x):
                raise CountingError(
                    "label-out-of-range", f"x_{shape[1]} with numX = {num_x}"
                )
        elif shape[0] == "y":
            if not (1 <= read_int(shape[1], "label y") <= num_y):
                raise CountingError(
                    "label-out-of-range", f"y_{shape[1]} with numY = {num_y}"
                )
        norm_labels[node] = shape
    layer_index = {v: i for i, layer in enumerate(layer_tuple) for v in layer}
    norm_edges = []
    for u, v, bit in edges:
        if read_int(u, "node") not in node_set or read_int(v, "node") not in node_set:
            raise CountingError("not-layered", f"edge ({u}, {v}) off the node set")
        if layer_index[u] >= layer_index[v]:
            raise CountingError(
                "not-layered", f"edge ({u}, {v}) does not go to a later layer"
            )
        is_pass = norm_labels.get(u, ("pass",))[0] == "pass"
        if is_pass:
            if bit is not None:
                raise CountingError(
                    "bad-bit-label", f"pass node {u} must use null edge labels"
                )
        elif type(bit) is not int or bit not in (0, 1):  # True and 1.0 too
            raise CountingError("bad-bit-label", f"edge ({u}, {v}) labelled {bit!r}")
        norm_edges.append((u, v, bit))
    program = BranchingProgram(
        layer_tuple,
        tuple(sorted(norm_labels.items())),
        tuple(norm_edges),
        num_x,
        num_y,
        source,
        sink,
    )
    for node, fanout in program.out_edges().items():
        if program.label_of(node)[0] == "pass" and len(fanout) > 1:
            raise CountingError(
                "bad-bit-label", f"pass node {node} has {len(fanout)} outgoing edges"
            )
    return program


def is_deterministic_given_inputs(p: BranchingProgram) -> bool:
    """No node offers two edges for the same bit value; fixing (x, y) then
    forces at most one maximal walk (missing edges mean rejection).  A pass
    node has at most one edge, labelled None (``validate_bp``)."""
    return all(len(fanout) == len({bit for _, bit in fanout})
               for fanout in p.out_edges().values())


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
    out = p.out_edges()
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
    if not is_deterministic_given_inputs(p):
        raise CountingError(
            "not-deterministic", "a node offers two edges for one bit value"
        )
    check_limit(2 ** p.num_y, limit, f"y assignments (2^{p.num_y})")
    _check_widths(p, len(x), p.num_y)
    count = 0
    for mask in range(2 ** p.num_y):
        y = [(mask >> j) & 1 for j in range(p.num_y)]
        if _accepts(p, x, y):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Read-once certification
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Fast counting in the read-once model
# ---------------------------------------------------------------------------


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
    if len(x) != p.num_x:
        raise CountingError("width-mismatch", f"|x| = {len(x)}, numX = {p.num_x}")
    if not is_deterministic_given_inputs(p):
        raise CountingError(
            "not-deterministic", "a node offers two edges for one bit value"
        )
    upto = _check_increasing_reads(p, "precondition-violated")

    out = p.out_edges()
    counts = dict.fromkeys(upto, 0)
    counts[p.source] = 2 ** p.num_y
    for u in upto:
        label = p.label_of(u)
        share = counts[u] // 2 if label[0] == "y" else counts[u]
        for v, bit in out.get(u, []):
            if v in counts and (label[0] != "x" or x[label[1] - 1] == bit):
                counts[v] += share
    return counts.get(p.sink, 0)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def bp_from_json(obj: dict) -> BranchingProgram:
    read_fields(obj, "program file", ("layers", "numX", "numY", "source", "sink"),
                ("labels", "edges"))
    labels = {}
    label_docs = obj.get("labels", {})
    for key, label in read_fields(label_docs, '"labels"', (), label_docs).items():
        # A key names a node in canonical decimal form: not "01", "+1" or "1_0".
        node = str(key)
        if not (node.removeprefix("-").isdecimal() and str(int(node)) == node):
            raise CountingError("not-an-integer", f"label node {key!r} is not an integer")
        read_fields(label, f"label {key}", (), label)
        if "x" in label:
            labels[int(node)] = ("x", label["x"])
        elif "y" in label:
            labels[int(node)] = ("y", label["y"])
        elif label.get("pass"):
            labels[int(node)] = ("pass",)
        else:
            raise CountingError("bad-label", f"label {label!r}")
    # `validate_bp` refuses every id, width and label index that is not an int.
    return validate_bp(
        [read_array(layer, "layer") for layer in read_array(obj["layers"], '"layers"')],
        labels,
        [read_array(e, "edge", 3) for e in read_array(obj.get("edges", []), '"edges"')],
        obj["numX"],
        obj["numY"],
        obj["source"],
        obj["sink"],
    )


def bp_to_json(p: BranchingProgram) -> dict:
    return {
        "layers": [list(layer) for layer in p.layers],
        "labels": {str(node): {"pass": True} if label[0] == "pass" else {label[0]: label[1]}
                   for node, label in p.labels},
        "edges": [[u, v, bit] for u, v, bit in p.edges],
        "numX": p.num_x,
        "numY": p.num_y,
        "source": p.source,
        "sink": p.sink,
    }
