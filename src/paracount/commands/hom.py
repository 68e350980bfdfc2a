"""`hom`: homomorphisms from the starred path (counting module `homs`)."""
from __future__ import annotations

from . import _load_json, _report


def add_arguments(hom, command):
    hom.add_argument("--n", type=int, required=True)
    hom.add_argument("--target", required=True)
    hom.add_argument("--k", type=int, required=True)
    hom.add_argument("--oracle", action="store_true", help="exhaustive map oracle")


def run(homm, args):
    from .. import structures  # already loaded by homs
    target = structures.structure_from_json(_load_json(args, "target"))
    if args.oracle and args.n <= args.k:
        count = homm.count_hom_oracle(homm.make_path_star(args.n).structure, target, args.limit)
    else:  # the layered route, which also answers the gate (n > k) after its pattern checks
        count = homm.count_hom_path_star(args.n, target, args.k)
    _report(args, count, args.n > args.k)
