"""Expected outcomes for benchmark instances, by routes the CLI does not take.

A reference is built once per (workload, seed) from the instance files and
cached; the routes are other routes of the library: an oracle, the other
`--method`, the other end of a reduction, or `walk_count_matrix` for the
walk family.  `observe` turns what one CLI run printed into an outcome
string, and `judge` compares it with the reference.
"""
from __future__ import annotations

import json
from itertools import combinations
from math import prod

from paracount import bp as bpm
from paracount import cnf as cnfm
from paracount import fo as fom
from paracount import homs as homm
from paracount import pdet as pdm
from paracount.graphs import (
    DirectedGraph,
    enumerate_walks,
    graph_from_json,
    walk_count_matrix,
)
from paracount.walks import count_reach, count_reach_colour

from workloads import Instance

TRACEBACK = "Traceback (most recent call last)"
BP_SEGMENT = 8  # y nodes per exhaustively counted chain segment


def _arg(inst: Instance, flag: str) -> str:
    return inst.argv[inst.argv.index(flag) + 1]


def _file(inst: Instance, flag: str):
    return json.loads(inst.files[_arg(inst, flag)])


def _graph(obj: dict) -> tuple[DirectedGraph, dict]:
    parts = graph_from_json(obj, extra_fields={"clauses"})
    return parts["graph"], parts


def _command(inst: Instance) -> str:
    return inst.argv[2] if inst.argv[0] == "--limit" else inst.argv[0]


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------


def _walk_matrix(inst, p):
    g, parts = _graph(_file(inst, "--graph"))
    if _command(inst) == "reach":
        return walk_count_matrix(g, p["k"] - 1)[parts["s"]][parts["t"]]
    table = walk_count_matrix(g, p["a"])
    if _command(inst) == "logwalk":
        return sum(map(sum, table))
    return table[parts["s"]][parts["t"]]


def _colour_layers(inst, p):
    """Walks that climb one colour per step, counted by matrix powers."""
    obj = _file(inst, "--graph")
    colours = obj["colours"]
    layered = [[u, v] for u, v in obj["edges"] if colours[v] == colours[u] + 1]
    g = DirectedGraph(obj["n"], tuple(map(tuple, layered)))
    return walk_count_matrix(g, p["k"] - 1)[obj["s"]][obj["t"]]


def _inclusion_exclusion(inst, p):
    """Split walks by the exact set U of CNF-mentioned edges they use.

    W(V) counts walks avoiding the mentioned edges outside V; the walks
    using exactly U number sum over V in U of (-1)^|U - V| W(V).
    """
    g, parts = _graph(_file(inst, "--graph"))
    phi = cnfm.parse_dimacs(inst.files[_arg(inst, "--cnf")])
    s, t = parts["s"], parts["t"]
    mentioned = sorted(phi.variables())
    subsets = [
        frozenset(c) for r in range(len(mentioned) + 1) for c in combinations(mentioned, r)
    ]
    walks_within = {}
    for allowed in subsets:
        edges = tuple(
            e for i, e in enumerate(g.edges) if i not in mentioned or i in allowed
        )
        walks_within[allowed] = walk_count_matrix(DirectedGraph(g.n, edges), p["a"])[s][t]
    total = 0
    for used in subsets:
        if cnfm.eval_cnf(phi, {e: int(e in used) for e in mentioned}):
            total += sum(
                (-1) ** len(used - v) * walks_within[v] for v in subsets if v <= used
            )
    return total


def _source_reachcolour(inst, p):
    g, parts = _graph(p["graph"])
    return count_reach_colour(parts["colouring"], p["s"], p["t"], p["k"])


def _source_reach(inst, p):
    g, _ = _graph(p["graph"])
    return walk_count_matrix(g, p["k"] - 1)[p["s"]][p["t"]]


def _pdet_other(inst, p):
    matrix = pdm.matrix_from_json(_file(inst, "--matrix"))
    if p["method"] == "direct":
        return pdm.pdet_direct(matrix, p["k"])
    return pdm.pdet_clow(matrix, p["k"])


def _bp_segments(inst, p):
    """A y chain accepts iff every node's bit is allowed, so its count is
    the product of the exhaustive counts of short sub-chains."""
    obj = _file(inst, "--program")
    length = obj["numY"]
    bits: dict[int, list[int]] = {}
    for u, _, bit in obj["edges"]:
        if bit is not None:
            bits.setdefault(u, []).append(bit)
    counts = []
    for lo in range(1, length + 1, BP_SEGMENT):
        nodes = range(lo, min(lo + BP_SEGMENT, length + 1))
        size = len(nodes)
        sink = size + 1
        labels = {0: ("pass",), sink: ("pass",)}
        edges = [(0, 1, None)]
        for i, node in enumerate(nodes, start=1):
            labels[i] = ("y", i)
            edges += [(i, i + 1, b) for b in bits.get(node, [])]
        seg = bpm.validate_bp([[v] for v in range(sink + 1)], labels, edges, 1, size, 0, sink)
        counts.append(bpm.bp_count_acc(seg, p["x"]))
    return prod(counts)


def _enum_walks(inst, p):
    g, _ = _graph(_file(inst, "--graph"))
    return len(enumerate_walks(g, p["s"], p["t"], p["a"]))


def _enum_all_walks(inst, p):
    g, _ = _graph(_file(inst, "--graph"))
    return sum(
        len(enumerate_walks(g, u, v, p["a"])) for u in range(g.n) for v in range(g.n)
    )


def _colour_walks(g: DirectedGraph, colours, s, t, k) -> int:
    return sum(
        all(colours[v] == i + 1 for i, v in enumerate(w))
        for w in enumerate_walks(g, s, t, k - 1)
    )


def _enum_colour_walks(inst, p):
    obj = _file(inst, "--graph")
    g, _ = _graph(obj)
    return _colour_walks(g, obj["colours"], p["s"], p["t"], p["k"])


def _edge_ids(g: DirectedGraph, walk) -> set[int]:
    ids = {e: i for i, e in enumerate(g.edges)}
    return {ids[(walk[i], walk[i + 1])] for i in range(len(walk) - 1)}


def _enum_cnf_walks(inst, p):
    g, _ = _graph(_file(inst, "--graph"))
    phi = cnfm.EdgeCNF.from_dimacs_literals(p["clauses"])
    return sum(
        cnfm.eval_cnf(phi, cnfm.characteristic_assignment(g, _edge_ids(g, w)))
        for w in enumerate_walks(g, p["s"], p["t"], p["a"])
    )


def _enum_cnf_covers(inst, p):
    g, _ = _graph(_file(inst, "--graph"))
    phi = cnfm.EdgeCNF.from_dimacs_literals(p["clauses"])
    total = 0
    for cover in cnfm.enumerate_cycle_covers(g):
        cycles = [c for c in cnfm.cover_cycles(g, cover) if len(c) > 1]
        if len(cycles) <= p["k"] and sum(map(len, cycles)) == p["k"] * p["a"]:
            total += cnfm.eval_cnf(phi, cnfm.characteristic_assignment(g, set(cover)))
    return total


def _mc(inst, p, local: bool):
    phi = fom.formula_from_json(_file(inst, "--formula"))
    structure = fom.structure_from_json(_file(inst, "--structure"))
    k = int(_arg(inst, "--k"))
    if local:
        return fom.count_mc_local(
            phi, structure, k, fom.locality_radius(phi), fom.max_arity(phi)
        )
    return fom.count_mc(phi, structure, k)


def _hom(inst, p, oracle: bool):
    target = fom.structure_from_json(_file(inst, "--target"))
    if oracle:
        return homm.count_hom_oracle(homm.make_path_star(p["n"]).structure, target)
    return homm.count_hom_path_star(p["n"], target, int(_arg(inst, "--k")))


def _bp(inst, p, route: str):
    program = bpm.bp_from_json(_file(inst, "--program"))
    if route == "bp-acc":
        return bpm.bp_count_acc(program, p["x"])
    if route == "bp-stagger-fast":
        return bpm.bp_count_fast(bpm.stagger(program), p["x"])
    # bp-y-as-x: y_j read as x_(numX+j); with no y bits left the band
    # count is the number of accepting paths, 0 or 1 for this input.
    shift = program.num_x
    labels = {
        node: ("x", lab[1] + shift) if lab[0] == "y" else lab for node, lab in program.labels
    }
    as_x = bpm.validate_bp(
        program.layers, labels, program.edges, shift + program.num_y, 0,
        program.source, program.sink,
    )
    return bpm.bp_count_fast(as_x, p["x"] + p["y"])


def _reduction_source(inst, p):
    name = _arg(inst, "--name")
    src = _file(inst, "--in")
    if name == "hom-to-reach":
        target = fom.structure_from_json(src["target"])
        return homm.count_hom_oracle(homm.make_path_star(src["n"]).structure, target)
    g, _ = _graph(src["graph"])
    if name == "reachcolour-to-hom":
        return _colour_walks(g, src["graph"]["colours"], src["s"], src["t"], src["k"])
    return len(enumerate_walks(g, src["s"], src["t"], src["k"] - 1))


ROUTES = {
    "walk-matrix": _walk_matrix,
    "walk-matrix-colour-layers": _colour_layers,
    "walk-matrix-inclusion-exclusion": _inclusion_exclusion,
    "reduction-source-reachcolour": _source_reachcolour,
    "reduction-source-reach": _source_reach,
    "pdet-other-method": _pdet_other,
    "bp-acc-by-segments": _bp_segments,
    "enumerate-walks": _enum_walks,
    "enumerate-all-walks": _enum_all_walks,
    "enumerate-colour-walks": _enum_colour_walks,
    "enumerate-cnf-walks": _enum_cnf_walks,
    "enumerate-cnf-covers": _enum_cnf_covers,
    "mc-brute": lambda inst, p: _mc(inst, p, local=False),
    "mc-local": lambda inst, p: _mc(inst, p, local=True),
    "hom-oracle": lambda inst, p: _hom(inst, p, oracle=True),
    "hom-layered": lambda inst, p: _hom(inst, p, oracle=False),
    "bp-acc": lambda inst, p: _bp(inst, p, "bp-acc"),
    "bp-stagger-fast": lambda inst, p: _bp(inst, p, "bp-stagger-fast"),
    "bp-y-as-x": lambda inst, p: _bp(inst, p, "bp-y-as-x"),
    "selftest-all-pass": lambda inst, p: "all-pass",
}


def expected(inst: Instance) -> dict:
    """The reference entry of one instance, computed from its files."""
    if inst.expect_error:
        return {"error": inst.expect_error}
    if inst.route.startswith("reduce:"):
        return {"route": "reduction source oracle", "value": str(_reduction_source(inst, inst.params))}
    return {"route": inst.route, "value": str(ROUTES[inst.route](inst, inst.params))}


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


def _recount_reduction(inst: Instance, sidecar: dict) -> int:
    """Count the instance `reduce` wrote, by a route of its target problem."""
    name = _arg(inst, "--name")
    with open(inst.params["out"], encoding="utf-8") as handle:
        out = json.load(handle)
    kp = sidecar["kPrime"]
    if name == "reach-to-mc":
        return fom.count_mc(
            fom.formula_from_json(out["formula"]), fom.structure_from_json(out["structure"]), kp
        )
    if name == "reach-to-pdet":
        return sidecar["recoverySign"] * pdm.pdet_direct(pdm.matrix_from_json(out), kp)
    if name == "reachcolour-to-hom":
        pattern = homm.make_path_star(sidecar["patternN"]).structure
        return homm.count_hom_oracle(pattern, fom.structure_from_json(out))
    g, parts = _graph(out)
    return count_reach(g, parts["s"], parts["t"], kp)


def observe(inst: Instance, code: int | None, stdout: str, stderr: str) -> str:
    """One CLI run as an outcome string; code None means it timed out."""
    if code is None:
        return "timeout"
    if TRACEBACK in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if code != 0:
        if code == 1 and stderr.startswith("error: "):
            return "error:" + stderr.split(":", 2)[1].strip()
        return f"exit {code}: {stderr.strip()[:120]}"
    command = _command(inst)
    if command == "selftest":
        lines = stdout.strip().splitlines()
        failing = [line.split()[1] for line in lines if line.startswith("FAIL")]
        if failing:
            return "failing properties: " + ", ".join(failing)
        return "all-pass" if lines and lines[-1].startswith("OK") else "no OK line"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"unreadable report: {stdout.strip()[:120]}"
    if command == "reduce":
        return str(_recount_reduction(inst, report))
    return str(report.get("count", report.get("value")))


def want(entry: dict) -> str:
    return "error:" + entry["error"] if "error" in entry else entry["value"]


def judge(entry: dict, outcome: str) -> str | None:
    """None when the outcome matches the reference, else the reason."""
    if outcome == want(entry):
        return None
    route = f" ({entry['route']})" if "route" in entry else ""
    return f"got {outcome}, expected {want(entry)}{route}"
