"""`bp`: branching-program acceptance and counting (counting module `bp`)."""
from __future__ import annotations

from ..errors import CountingError
from . import _load_json, _report


OPTIONS = {"bp": (
    ("--program", "program", str, ..., None),
    ("--x", "x", str, ..., "ordinary input bits, e.g. 1011"),
    ("--y", "y", str, None, "nondeterministic bits: report acceptance instead"),
    ("--method", "method", ("acc", "fast"), "acc",
     "fast needs determinism and strictly increasing y reads on every source-sink path"),
)}


def _parse_bits(text: str, width: int, what: str) -> list[int]:
    if len(text) != width or any(c not in "01" for c in text):
        raise CountingError(
            "width-mismatch", f"{what} must be {width} bits of 0/1, got {text!r}"
        )
    return [int(c) for c in text]


def run(bpm, args):
    from .. import programs

    program = programs.bp_from_json(_load_json(args, "program"))
    x = _parse_bits(args.x, program.num_x, "--x")
    if args.y is not None:
        y = _parse_bits(args.y, program.num_y, "--y")
        _report(args, int(bpm.bp_accepts(program, x, y)), False)
    elif args.method == "fast":
        _report(args, bpm.bp_count_fast(program, x), False)
    else:
        _report(args, bpm.bp_count_acc(program, x, args.limit), False)
