"""Layered branching programs with nondeterministic inputs: the record, its
validation and the program file format.

A program reads ordinary bits x_1..x_numX and nondeterministic bits
y_1..y_numY.  Nodes sit in layers; every edge goes to a strictly later
layer and carries the bit value of the departed node's variable (``None``
for forced pass-through nodes, which every input follows).  Acceptance and
the counts, with the read-order check of the fast count, live in ``bp``;
the read-once band check and ``stagger``, which no count needs, in
``oracles``.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

from .errors import CountingError, FrozenMap, Record, read_array, read_fields, read_int

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
    label_map: FrozenMap  # node -> label
    out_map: FrozenMap  # node -> ((successor, bit), ...)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        out: dict = {}
        for u, v, bit in self.edges:
            out.setdefault(u, []).append((v, bit))
        self._set(label_map=FrozenMap(self.labels),
                  out_map=FrozenMap((u, tuple(fanout)) for u, fanout in out.items()))

    def label_of(self, node: int) -> Label:
        return self.label_map.get(node, ("pass",))

    def out_edges(self) -> FrozenMap:
        """Node -> ((successor, bit), ...), built once and read-only."""
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
        # A label is exactly one of {"x": i}, {"y": j} and {"pass": true}.
        what = f"label {key}"
        read_fields(label, what, (), label)
        kinds = [kind for kind in ("x", "y", "pass") if kind in label]
        if len(kinds) != 1 or label.get("pass", True) is not True:
            raise CountingError("bad-label", f"label {label!r}")
        if len(label) > 1:  # a key beside the one kind is an unknown field
            read_fields(label, what, kinds)
        kind = kinds[0]
        labels[int(node)] = (kind,) if kind == "pass" else (kind, label[kind])
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
