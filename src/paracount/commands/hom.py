"""`hom`: homomorphisms from the starred path (counting module `homs`)."""
from __future__ import annotations

from . import _load_json, _report


OPTIONS = {"hom": (
    ("--n", "n", int, ..., None),
    ("--target", "target", str, ..., None),
    ("--k", "k", int, ..., None),
    ("--oracle", "oracle", bool, False, "exhaustive map oracle"),
)}


def run(homm, args):
    from .. import structures  # already loaded by homs
    target = structures.structure_from_json(_load_json(args, "target"))
    if args.oracle and args.n <= args.k:
        count = homm.count_hom_oracle(homm.make_path_star(args.n).structure, target, args.limit)
    else:  # the layered route, which also answers the gate (n > k) after its pattern checks
        count = homm.count_hom_path_star(args.n, target, args.k)
    _report(args, count, args.n > args.k)
