"""Count-preserving reductions between the counting problems: one record per
transform, plus a generic preservation verifier.

A record names a transform of ``transforms``, checks the bound on its
target parameter and reads and writes its instance files.
``verify_parsimonious`` replays a batch of instances through a transform
and both counting routes and returns every disagreement instead of raising.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import CountingError, Record, read_fields, read_int
from .graphs import graph_from_json, graph_to_json
from .structures import structure_from_json, structure_to_json
from .transforms import (reduce_hom_to_reach, reduce_reach_colour_to_hom, reduce_reach_to_mc,
                         reduce_reach_to_pdet)

# The writers import `fo` and `pdet` themselves, so `reduce` compiles only
# its record's modules.


class ReductionRecord(Record):
    """An executable reduction, its parameter bound and its file formats.

    ``transform`` maps a source instance (an argument tuple) to its output,
    whose k' ``param_of`` picks out; ``bound_ok`` numerically checks k'
    against the bound stated at ``standard_records``.  ``read`` turns a
    `reduce` input document into the source instance, refusing unknown
    fields; ``write`` turns the output into the target document plus the
    sidecar fields beyond ``name`` and ``kPrime``.
    """

    __slots__ = _fields = ("name", "transform", "bound_ok", "read", "write", "param_of")
    _defaults = {"param_of": lambda transformed: transformed[-1]}
    name: str
    transform: Callable
    bound_ok: Callable[[object, int], bool]
    read: Callable[[object], tuple]
    write: Callable[[tuple], tuple[object, dict]]
    param_of: Callable[[tuple], int]


def verify_parsimonious(
    red: ReductionRecord,
    instances: Sequence,
    source_oracle: Callable,
    target_oracle: Callable,
) -> list[dict]:
    """Replay instances through the transform and both counting routes.

    ``source_oracle`` maps a source instance to its count; ``target_oracle``
    maps the transform's output (including k' and any recovery data) to the
    recovered count.  Returns the rows whose counts differ or whose k' breaks
    the bound, an empty list when the reduction passes; disagreements are
    rows, not exceptions.
    """
    failures = []
    for idx, instance in enumerate(instances):
        transformed = red.transform(instance)
        source_count = source_oracle(instance)
        target_count = target_oracle(transformed)
        row = {
            "instance": idx,
            "source_count": source_count,
            "target_count": target_count,
            "counts_equal": source_count == target_count,
            "bound_ok": red.bound_ok(instance, red.param_of(transformed)),
        }
        if not (row["counts_equal"] and row["bound_ok"]):
            failures.append(row)
    return failures


def _read_hom(obj) -> tuple:
    """{"n", "k", "target"}; the target is read first."""
    target = structure_from_json(read_fields(obj, "reduce input", ("n", "k", "target"))["target"])
    return read_int(obj["n"], "n"), target, read_int(obj["k"], "k")


def _read_walks(part: str) -> Callable[[object], tuple]:
    """{"graph", "s", "t", "k"}, handing the transform the graph file's ``part``."""
    fields = ("graph", "s", "t", "k")

    def read(obj) -> tuple:
        parts = graph_from_json(read_fields(obj, "reduce input", fields)["graph"])
        if part not in parts:  # only a colouring is optional
            raise CountingError("colouring-incomplete", "instance has no colours")
        return parts[part], *(read_int(obj[key], key) for key in fields[1:])
    return read


def _write_mc(out) -> tuple[dict, dict]:
    from .fo import formula_node_to_json

    return {"formula": formula_node_to_json(out[0].root),
            "structure": structure_to_json(out[1])}, {}


def _write_pdet(out) -> tuple[dict, dict]:
    from .pdet import matrix_to_json

    return matrix_to_json(out[0]), {"recoverySign": out[2]}


def standard_records() -> dict[str, ReductionRecord]:
    """The four reductions, each with its bound on k'."""
    return {
        "hom-to-reach": ReductionRecord(  # k' = n + 2
            "hom-to-reach",
            lambda inst: reduce_hom_to_reach(*inst),
            lambda inst, kp: kp == inst[0] + 2,
            _read_hom,
            lambda out: (graph_to_json(out[0], s=out[1], t=out[2]), {}),
        ),
        "reachcolour-to-hom": ReductionRecord(  # k' = k
            "reachcolour-to-hom",
            lambda inst: reduce_reach_colour_to_hom(*inst),
            lambda inst, kp: kp == inst[3],
            _read_walks("colouring"),
            lambda out: (structure_to_json(out[1]), {"patternN": out[0].n}),
        ),
        "reach-to-mc": ReductionRecord(  # k' <= 2k
            "reach-to-mc",
            lambda inst: reduce_reach_to_mc(*inst),
            lambda inst, kp: kp <= 2 * inst[3],
            _read_walks("graph"),
            _write_mc,
        ),
        "reach-to-pdet": ReductionRecord(  # k' = k
            "reach-to-pdet",
            lambda inst: reduce_reach_to_pdet(*inst),
            lambda inst, kp: kp == inst[3],
            _read_walks("graph"),
            _write_pdet,
            param_of=lambda transformed: transformed[1],
        ),
    }
