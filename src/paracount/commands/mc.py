"""`mc`: satisfying assignments of a quantifier-free formula (counting module `fo`)."""
from __future__ import annotations

from ..errors import CountingError
from . import _load_json, _report


OPTIONS = {"mc": (
    ("--formula", "formula", str, ..., None),
    ("--structure", "structure", str, ..., None),
    ("--k", "k", int, ..., None),
    ("--local", "local", bool, False, "use the locality sweep"),
    ("--r", "r", int, None, "locality bound (default: computed)"),
)}


def run(fom, args):
    from .. import structures

    try:  # reading and formula_node_from_json may raise RecursionError
        phi = fom.formula_from_json(_load_json(args, "formula"))
    except RecursionError:
        raise CountingError("formula-too-deep", f"{args.formula} nests too deeply to read")
    structure = structures.structure_from_json(_load_json(args, "structure"))
    if args.local:  # a brute-force run compiles neither `sweep` nor `walks`
        from .. import formulas, sweep

        r = args.r if args.r is not None else formulas.locality_radius(phi)
        count = sweep.count_mc_local(phi, structure, args.k, r, formulas.max_arity(phi))
    else:
        count = fom.count_mc(phi, structure, args.k, args.limit)
    _report(args, count, args.k != phi.size)
