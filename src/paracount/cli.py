"""Batch command-line front end.

One subcommand per counting problem, plus `reduce` for the instance
transforms and `selftest` for the cross-oracle property battery.  On
success a single JSON report goes to stdout with the exact count as a
decimal string; diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error (stable error name on stderr), 2 usage error.  A process imports only
the module its subcommand runs (see `COMMANDS`).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from .errors import DEFAULT_LIMIT, CountingError, read_array

#: The keys of `reductions.standard_records()`, spelt out so that building
#: the parser imports no counting module (a test keeps the two equal).
REDUCTIONS = ("hom-to-reach", "reach-to-mc", "reach-to-pdet", "reachcolour-to-hom")


def _read(args, option: str) -> str:
    """The text of the file named by ``option``, kept in ``args.inputs`` for the digest."""
    path = getattr(args, option)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            args.inputs[option] = handle.read()
    except FileNotFoundError:
        raise CountingError("file-not-found", path)
    return args.inputs[option]


def _load_json(args, option: str) -> dict:
    path = getattr(args, option)
    try:
        obj = json.loads(_read(args, option))
    except json.JSONDecodeError as exc:
        raise CountingError("malformed-json", f"{path}: {exc}")
    # Newer decoders read past the recursion limit; refuse such documents as older ones do.
    level = [obj] if isinstance(obj, (dict, list)) else []
    for _ in range(sys.getrecursionlimit()):
        level = [child for item in level
                 for child in (item.values() if isinstance(item, dict) else item)
                 if isinstance(child, (dict, list))]
        if not level:
            return obj
    raise RecursionError(f"{path} nests deeper than the recursion limit")


def _digest(payload) -> str:
    # The interpreter's own sha256 (`_sha2` from 3.12, `_sha256` before), not
    # OpenSSL's through `hashlib`, which costs every process megabytes; loaded
    # here, not at the top, so a refusal loads neither.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _report(args, value: int, gate_applied: bool, key="count"):
    """Print the report.  Its digest covers every option but ``--limit``, which
    caps work and never changes a count, and the text of each input file in
    place of its path (``args.inputs``)."""
    elapsed_ms = int((time.monotonic() - args.started) * 1000)
    run = {name: v for name, v in vars(args).items()
           if name not in ("limit", "started", *args.inputs)}
    print(json.dumps({key: str(value), "gateApplied": bool(gate_applied),
                      "elapsedMs": elapsed_ms, "instanceDigest": _digest(run)}))


def _endpoints(parts: dict, args) -> tuple[int, int]:
    s = args.s if args.s is not None else parts.get("s")
    t = args.t if args.t is not None else parts.get("t")
    if s is None or t is None:
        raise CountingError("missing-endpoint", "supply --s/--t or file fields")
    return s, t


def _load_cnf(cnfm, parts: dict, args):
    if args.cnf and "clauses" in parts:
        raise CountingError("two-cnf-sources", "use --cnf or inline clauses, not both")
    if args.cnf:
        return cnfm.parse_dimacs(_read(args, "cnf"))
    if "clauses" in parts:
        clauses = read_array(parts["clauses"], '"clauses"')
        return cnfm.EdgeCNF.from_dimacs_literals([read_array(c, "clause") for c in clauses])
    return cnfm.EdgeCNF.empty()


def _parse_bits(text: str, width: int, what: str) -> list[int]:
    if len(text) != width or any(c not in "01" for c in text):
        raise CountingError(
            "width-mismatch", f"{what} must be {width} bits of 0/1, got {text!r}"
        )
    return [int(c) for c in text]


def _limit(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer (--limit or env PARACOUNT_LIMIT)")
    return int(text)


class _Subcommand:
    """The ``parser_class`` of the subcommands: it builds a subcommand's parser
    only once argparse selects that subcommand.  argparse calls nothing on a
    subparser but ``parse_known_args`` (3.10 to 3.13; the usage tests hold
    it to that), so the other subcommands keep their help line and choice
    name without a parser of their own."""

    def __init__(self, prog: str, add_arguments):
        self.prog, self.add_arguments = prog, add_arguments

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(prog=self.prog)
        self.add_arguments(parser)
        return parser.parse_known_args(args, namespace)


def _graph_arguments(*, s_t=True, a=False, b=False, cnf=False):
    def add_arguments(cmd):
        cmd.add_argument("--graph", required=True)
        if s_t:
            cmd.add_argument("--s", type=int)
            cmd.add_argument("--t", type=int)
        if a:
            cmd.add_argument("--a", type=int, required=True)
        cmd.add_argument("--k", type=int, required=True)
        if b:
            cmd.add_argument("--b", type=int, default=2)
        if cnf:
            cmd.add_argument("--cnf", help="DIMACS file; else inline 'clauses'")
    return add_arguments


def _mc_arguments(mc):
    mc.add_argument("--formula", required=True)
    mc.add_argument("--structure", required=True)
    mc.add_argument("--k", type=int, required=True)
    mc.add_argument("--local", action="store_true", help="use the locality sweep")
    mc.add_argument("--r", type=int, help="locality bound (default: computed)")


def _hom_arguments(hom):
    hom.add_argument("--n", type=int, required=True)
    hom.add_argument("--target", required=True)
    hom.add_argument("--k", type=int, required=True)
    hom.add_argument("--oracle", action="store_true", help="exhaustive map oracle")


def _pdet_arguments(det):
    det.add_argument("--matrix", required=True)
    det.add_argument("--k", type=int, required=True)
    det.add_argument("--method", choices=["direct", "clow"], default="direct")


def _bp_arguments(bp):
    bp.add_argument("--program", required=True)
    bp.add_argument("--x", required=True, help="ordinary input bits, e.g. 1011")
    bp.add_argument("--y", help="nondeterministic bits: report acceptance instead")
    bp.add_argument("--method", choices=["acc", "fast"], default="acc")


def _reduce_arguments(red):
    red.add_argument("--name", required=True, choices=REDUCTIONS)
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--out", dest="outfile", required=True)


def _selftest_arguments(st):
    st.add_argument("--seed", type=int, default=7)
    st.add_argument("--scale", choices=["smoke", "full"], default="smoke")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracount", description="Exact parameterised counting at desk scale."
    )
    parser.add_argument(
        "--limit",
        type=_limit,  # argparse converts a string default too: a bad env value is a usage error
        default=os.environ.get("PARACOUNT_LIMIT", str(DEFAULT_LIMIT)),
        help="cap on the candidates of every exhaustive route (env PARACOUNT_LIMIT)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_text, add_arguments, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, add_arguments=add_arguments)
    return parser


def _graph(mod, args):
    """The six graph subcommands; ``mod`` is ``cnf`` for the two CNF ones, else ``walks``."""
    from .graphs import graph_from_json  # here: pdet, mc and bp never read a graph

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
        phi = _load_cnf(mod, parts, args)
        gate = not mod.reach2cnf_gate_passes(g, phi, args.a, args.k)
        _report(args, mod.count_log_reach2_cnf(g, s, t, phi, args.a, args.k), gate)
    else:  # cyclecover2cnf
        phi = _load_cnf(mod, parts, args)
        gate = not mod.cyclecover_gate_passes(g, phi, args.a)
        _report(args, mod.count_cycle_cover2_cnf(g, phi, args.a, args.k, args.limit), gate)


def _mc(fom, args):
    try:  # reading and formula_node_from_json may raise RecursionError
        phi = fom.formula_from_json(_load_json(args, "formula"))
    except RecursionError:
        raise CountingError("formula-too-deep", f"{args.formula} nests too deeply to read")
    structure = fom.structure_from_json(_load_json(args, "structure"))
    if args.local:
        r = args.r if args.r is not None else fom.locality_radius(phi)
        count = fom.count_mc_local(phi, structure, args.k, r, fom.max_arity(phi))
    else:
        count = fom.count_mc(phi, structure, args.k, args.limit)
    _report(args, count, args.k != phi.size)


def _hom(homm, args):
    from . import structures  # already loaded by homs
    target = structures.structure_from_json(_load_json(args, "target"))
    if args.oracle and args.n <= args.k:
        count = homm.count_hom_oracle(homm.make_path_star(args.n).structure, target, args.limit)
    else:  # the layered route, which also answers the gate (n > k) after its pattern checks
        count = homm.count_hom_path_star(args.n, target, args.k)
    _report(args, count, args.n > args.k)


def _pdet(pdm, args):
    matrix = pdm.matrix_from_json(_load_json(args, "matrix"))
    method = pdm.pdet_clow if args.method == "clow" else pdm.pdet_direct
    _report(args, method(matrix, args.k, args.limit), False, key="value")


def _bp(bpm, args):
    program = bpm.bp_from_json(_load_json(args, "program"))
    x = _parse_bits(args.x, program.num_x, "--x")
    if args.y is not None:
        y = _parse_bits(args.y, program.num_y, "--y")
        _report(args, int(bpm.bp_accepts(program, x, y)), False)
    elif args.method == "fast":
        _report(args, bpm.bp_count_fast(program, x), False)
    else:
        _report(args, bpm.bp_count_acc(program, x, args.limit), False)


def _reduce(redm, args):
    record = redm.standard_records()[args.name]
    transformed = record.transform(record.read(_load_json(args, "infile")))
    out, extra = record.write(transformed)
    sidecar = {"name": record.name, "kPrime": record.param_of(transformed), **extra}
    for path, doc in ((args.outfile, out), (args.outfile + ".record.json", sidecar)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({**sidecar, "out": args.outfile}))


def _selftest(stm, args) -> int:
    ok = True
    for name, passed, failures in stm.run_selftest(args.seed, args.scale):
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        for failure in failures[:5]:
            print(f"      {failure}", file=sys.stderr)
        ok = ok and passed
    print(f"{'OK' if ok else 'FAILED'}  seed={args.seed} scale={args.scale}")
    return 0 if ok else 1


#: Subcommand -> (help line, the function that adds its arguments, the
#: `paracount` module its runner is handed, runner).  Runners call counters
#: through that module, so a function rebound there is the one run.
COMMANDS = {
    "reach": ("s-t walks with exactly k vertices", _graph_arguments(), "walks", _graph),
    "logreach": ("s-t walks of a edges under the log gate",
                 _graph_arguments(a=True, b=True), "walks", _graph),
    "logwalk": ("all walks of a edges under the log gate",
                _graph_arguments(s_t=False, a=True, b=True), "walks", _graph),
    "reachcolour": ("colour-respecting s-t walks", _graph_arguments(), "walks", _graph),
    "reach2cnf": ("CNF-constrained s-t walks of a edges",
                  _graph_arguments(a=True, cnf=True), "cnf", _graph),
    "cyclecover2cnf": ("CNF-constrained cycle covers",
                       _graph_arguments(s_t=False, a=True, cnf=True), "cnf", _graph),
    "mc": ("satisfying assignments of a quantifier-free formula", _mc_arguments, "fo", _mc),
    "hom": ("homomorphisms from the starred path", _hom_arguments, "homs", _hom),
    "pdet": ("parameterised determinant of a 0/1 matrix", _pdet_arguments, "pdet", _pdet),
    "bp": ("branching-program acceptance and counting", _bp_arguments, "bp", _bp),
    "reduce": ("run a count-preserving instance transform", _reduce_arguments, "reductions",
               _reduce),
    "selftest": ("cross-oracle property battery", _selftest_arguments, "selftest", _selftest),
}


def _run(args) -> int:
    _, _, module, runner = COMMANDS[args.command]
    mod = importlib.import_module(f".{module}", __package__)
    args.inputs, args.started = {}, time.monotonic()  # `_read` fills the one, `_report` reads both
    return runner(mod, args) or 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except CountingError as exc:
        reason = f"{exc.code}: {exc.message}"
    except OSError as exc:
        reason = f"io-error: {exc}"
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        reason = f"malformed-instance: {exc!r}"
    except RecursionError:
        reason = "instance-too-deep: input nests too deeply to read"
    print(f"error: {reason}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
