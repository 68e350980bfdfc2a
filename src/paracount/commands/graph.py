"""The six graph subcommands: `reach`, `logreach`, `logwalk`, `reachcolour`
(counting module `walks`), `reach2cnf` (`cnf`) and `cyclecover2cnf` (`covers`)."""
from __future__ import annotations

from ..errors import CountingError, read_array
from . import _load_json, _read, _report

_GRAPH = ("--graph", "graph", str, ..., None)
_S, _T = ("--s", "s", int, None, None), ("--t", "t", int, None, None)
_A = ("--a", "a", int, ..., None)
_K = ("--k", "k", int, ..., None)
_B = ("--b", "b", int, 2, None)
_CNF = ("--cnf", "cnf", str, None, "DIMACS file; else inline 'clauses'")

OPTIONS = {
    "reach": (_GRAPH, _S, _T, _K),
    "logreach": (_GRAPH, _S, _T, _A, _K, _B),
    "logwalk": (_GRAPH, _A, _K, _B),
    "reachcolour": (_GRAPH, _S, _T, _K),
    "reach2cnf": (_GRAPH, _S, _T, _A, _K, _CNF),
    "cyclecover2cnf": (_GRAPH, _A, _K, _CNF),
}


def _endpoints(parts: dict, args) -> tuple[int, int]:
    s = args.s if args.s is not None else parts.get("s")
    t = args.t if args.t is not None else parts.get("t")
    if s is None or t is None:
        raise CountingError("missing-endpoint", "supply --s/--t or file fields")
    return s, t


def _load_cnf(parts: dict, args):
    from .. import cnf as cnfm  # read at each call: a function rebound there is run

    if args.cnf and "clauses" in parts:
        raise CountingError("two-cnf-sources", "use --cnf or inline clauses, not both")
    if args.cnf:
        return cnfm.parse_dimacs(_read(args, "cnf"))
    if "clauses" in parts:
        clauses = read_array(parts["clauses"], '"clauses"')
        return cnfm.EdgeCNF.from_dimacs_literals([read_array(c, "clause") for c in clauses])
    return cnfm.EdgeCNF.empty()


def run(mod, args):
    """``mod`` is the subcommand's counting module: ``walks``, ``cnf`` or ``covers``."""
    from ..graphs import graph_from_json  # read at each call: a function rebound there is run

    extra = {"clauses"} if args.command.endswith("cnf") else set()
    parts = graph_from_json(_load_json(args, "graph"), extra_fields=extra)
    g = parts["graph"]
    if args.command == "reach":
        s, t = _endpoints(parts, args)
        _report(args, mod.count_reach(g, s, t, args.k), False)
    elif args.command == "logreach":
        s, t = _endpoints(parts, args)
        gate = not mod.log_gate_passes(args.a, args.k, g.n)
        _report(args, mod.count_log_reach_b(g, s, t, args.a, args.k, args.b), gate)
    elif args.command == "logwalk":
        gate = not mod.log_gate_passes(args.a, args.k, g.n)
        _report(args, mod.count_log_walk_b(g, args.a, args.k, args.b), gate)
    elif args.command == "reachcolour":
        if "colouring" not in parts:
            raise CountingError("colouring-incomplete", "instance has no colours")
        s, t = _endpoints(parts, args)
        vc = parts["colouring"]
        _report(args, mod.count_reach_colour(vc, s, t, args.k), vc.m != args.k)
    elif args.command == "reach2cnf":
        s, t = _endpoints(parts, args)
        phi = _load_cnf(parts, args)
        gate = not mod.reach2cnf_gate_passes(g, phi, args.a, args.k)
        _report(args, mod.count_log_reach2_cnf(g, s, t, phi, args.a, args.k), gate)
    else:  # cyclecover2cnf
        phi = _load_cnf(parts, args)
        gate = not mod.cyclecover_gate_passes(g, phi, args.a)
        _report(args, mod.count_cycle_cover2_cnf(g, phi, args.a, args.k, args.limit), gate)
