"""Seeded instances for the benchmark workloads.

Each workload is a list of `Instance`s: the argv of one `paracount` CLI
process and the files it reads, written in the documented file formats by
this module alone, so the inputs for a seed do not change when the library
does.  A well-formed instance names a reference route (see `references.py`)
that computes its expected count another way; a malformed one names the
stable error the CLI must exit 1 with.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

WORK = "perfbench/.work"

#: Selftest seeds per pass; seven full-scale batteries take about 17 s.
SELFTEST_SEEDS = 7


@dataclass
class Instance:
    id: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    route: str = ""  # reference route for well-formed instances
    params: dict = field(default_factory=dict)
    expect_error: str | None = None  # stable error name for malformed ones


def inputs_digest(instances: list[Instance]) -> str:
    blob = json.dumps(
        [[i.id, i.argv, i.files, i.route, i.params, i.expect_error] for i in instances],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _ceil_log2(x: int) -> int:
    return max(math.ceil(math.log2(max(x, 2))), 1)


class _Builder:
    """Collects instances of one workload under one work directory."""

    def __init__(self, workload: str):
        self.dir = f"{WORK}/{workload}"
        self.workload = workload
        self.instances: list[Instance] = []

    def path(self, name: str) -> str:
        return f"{self.dir}/{name}"

    def add(self, name, argv, files=None, route="", params=None, error=None):
        files = {self.path(k): v for k, v in (files or {}).items()}
        self.instances.append(
            Instance(f"{self.workload}/{name}", argv, files, route, params or {}, error)
        )


# ---------------------------------------------------------------------------
# Random structures (benchmark-owned, independent of paracount.selftest)
# ---------------------------------------------------------------------------


def regular_digraph(rng: random.Random, n: int, d: int) -> list[list[int]]:
    """Every vertex gets exactly d distinct successors (self-loops allowed)."""
    return [[u, v] for u in range(n) for v in sorted(rng.sample(range(n), d))]


def small_digraph(rng: random.Random, n: int, max_out: int) -> list[list[int]]:
    return [
        [u, v]
        for u in range(n)
        for v in sorted(rng.sample(range(n), rng.randint(1, min(max_out, n))))
    ]


def small_dag(rng: random.Random, n: int) -> list[list[int]]:
    return [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def layered_colouring(rng: random.Random, n: int, k: int, d: int):
    """A colour-respecting walk instance that stays in the hom transform's domain.

    s (vertex 0) is the only colour-1 vertex and t (vertex n-1) the only
    colour-k one; every other vertex gets a middle colour, round robin.
    Edges go from colour c to colour c+1 only (d per vertex where the next
    class is large enough), so none descends by exactly one colour.
    """
    colours = [1] + [2 + i % (k - 2) for i in range(n - 2)] + [k]
    by_colour: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        by_colour.setdefault(c, []).append(v)
    edges = []
    for u, c in enumerate(colours):
        nxt = by_colour.get(c + 1, [])
        for v in sorted(rng.sample(nxt, min(d, len(nxt)))):
            edges.append([u, v])
    return colours, edges


def path_star_target(colours: list[int], edges: list[list[int]], k: int) -> dict:
    """The target structure reachcolour-to-hom builds from a coloured instance."""
    sym = sorted({(u, v) for u, v in edges} | {(v, u) for u, v in edges})
    interpretation = {"E": [list(e) for e in sym]}
    for i in range(1, k + 1):
        interpretation[f"C_{i}"] = [[v] for v, c in enumerate(colours) if c == i]
    return {
        "vocabulary": {
            "relations": [["E", 2]] + [[f"C_{i}", 1] for i in range(1, k + 1)],
            "constants": [],
        },
        "universeSize": len(colours),
        "interpretation": interpretation,
        "constantValues": {},
    }


def walk_formula(k: int) -> dict:
    """The reach-to-mc walk formula: x1 = s, E(x_i, x_i+1), x_k = t."""
    atoms = [{"eq": [{"var": "x1"}, {"const": "s"}]}]
    for i in range(1, k):
        atoms.append({"atom": "E", "args": [{"var": f"x{i}"}, {"var": f"x{i + 1}"}]})
    atoms.append({"eq": [{"var": f"x{k}"}, {"const": "t"}]})
    return {"op": "and", "args": atoms}


def walk_structure(n: int, edges: list[list[int]], s: int, t: int) -> dict:
    return {
        "vocabulary": {"relations": [["E", 2]], "constants": ["s", "t"]},
        "universeSize": n,
        "interpretation": {"E": sorted(edges)},
        "constantValues": {"s": s, "t": t},
    }


def regular_matrix(rng: random.Random, n: int, d: int) -> dict:
    """0/1 matrix with zero diagonal and exactly d ones per row."""
    rows = []
    for i in range(n):
        cols = set(rng.sample([j for j in range(n) if j != i], d))
        rows.append([1 if j in cols else 0 for j in range(n)])
    return {"n": n, "rows": rows}


def bp_json(layers, labels, edges, num_x, num_y, source, sink) -> dict:
    def label(lab):
        return {"pass": True} if lab[0] == "pass" else {lab[0]: lab[1]}

    return {
        "layers": layers,
        "labels": {str(v): label(lab) for v, lab in sorted(labels.items())},
        "edges": edges,
        "numX": num_x,
        "numY": num_y,
        "source": source,
        "sink": sink,
    }


def y_chain(rng: random.Random, length: int) -> dict:
    """pass -> y_1 -> ... -> y_length -> pass; each y node keeps both bits
    or one random bit, so the count is 2^(number of two-bit nodes)."""
    sink = length + 1
    labels = {0: ("pass",), sink: ("pass",)}
    edges = [[0, 1, None]]
    for i in range(1, length + 1):
        labels[i] = ("y", i)
        bits = [0, 1] if rng.random() < 0.5 else [rng.randint(0, 1)]
        edges += [[i, i + 1, b] for b in bits]
    layers = [[v] for v in range(sink + 1)]
    return bp_json(layers, labels, edges, 1, length, 0, sink)


def ordered_program(rng: random.Random, branches: int) -> dict:
    """Small program whose paths read y indices in increasing order.

    One or two chains behind a root.  A single chain reads y_1..y_numY in
    order, so it is read-once certified; with two chains the y bands can
    overlap, so the program need not be.
    """
    num_x = rng.randint(1, 3)
    lengths = [rng.randint(2, 4) for _ in range(branches)]
    num_y = rng.randint(1, lengths[0]) if branches == 1 else rng.randint(2, 4)
    labels: dict[int, tuple] = {}
    edges: list[list] = []
    depth: dict[int, int] = {}
    next_id = 1
    heads, tails = [], []
    for length in lengths:
        nodes = list(range(next_id, next_id + length))
        next_id += length
        if branches == 1:
            ys = list(range(1, num_y + 1))
        else:
            ys = sorted(rng.sample(range(1, num_y + 1), rng.randint(1, min(num_y, length))))
        y_at = sorted(rng.sample(range(length), len(ys)))
        for pos, v in enumerate(nodes):
            depth[v] = pos + 1
            if pos in y_at:
                labels[v] = ("y", ys[y_at.index(pos)])
            else:
                labels[v] = ("x", rng.randint(1, num_x))
        heads.append(nodes[0])
        tails.append(nodes[-1])
        for a, b in zip(nodes, nodes[1:]):
            edges += [[a, b, bit] for bit in (0, 1) if rng.random() < 0.8]
    sink = next_id
    labels[sink] = ("pass",)
    if branches == 1:
        labels[0] = ("pass",)
        edges.append([0, heads[0], None])
    else:
        labels[0] = ("x", rng.randint(1, num_x))
        edges += [[0, heads[0], 0], [0, heads[1], 1]]
    for tail in tails:
        edges += [[tail, sink, bit] for bit in (0, 1) if rng.random() < 0.8]
    depth[0] = 0
    depth[sink] = max(depth.values()) + 1
    layers = [[] for _ in range(depth[sink] + 1)]
    for v, layer in sorted(depth.items()):
        layers[layer].append(v)
    return bp_json(layers, labels, edges, num_x, num_y, 0, sink)


def local_formula(rng: random.Random) -> dict:
    """Random and/or/not formula over E (binary) and P (unary), radius <= 2."""
    atoms = []
    names: list[str] = []
    for idx in range(rng.randint(2, 5)):
        window = names[-2:]
        def pick():
            if window and (rng.random() < 0.6 or len(names) >= 4):
                return rng.choice(window)
            name = f"v{len(names)}"
            names.append(name)
            return name
        kind = rng.random()
        if kind < 0.5:
            atoms.append({"atom": "E", "args": [{"var": pick()}, {"var": pick()}]})
        elif kind < 0.8:
            atoms.append({"atom": "P", "args": [{"var": pick()}]})
        else:
            atoms.append({"eq": [{"var": pick()}, {"var": pick()}]})

    def build(seq):
        node = seq[0] if len(seq) == 1 else {
            "op": rng.choice(["and", "or"]),
            "args": [build(seq[: len(seq) // 2]), build(seq[len(seq) // 2 :])],
        }
        return {"op": "not", "args": [node]} if rng.random() < 0.2 else node

    return build(atoms)


def small_structure(rng: random.Random) -> dict:
    n = rng.randint(2, 4)
    return {
        "vocabulary": {"relations": [["E", 2], ["P", 1]], "constants": []},
        "universeSize": n,
        "interpretation": {
            "E": [[u, v] for u in range(n) for v in range(n) if rng.random() < 0.4],
            "P": [[u] for u in range(n) if rng.random() < 0.5],
        },
        "constantValues": {},
    }


def small_path_star_target(rng: random.Random, n: int) -> dict:
    size = rng.randint(2, 5)
    colour = [rng.randint(0, n) for _ in range(size)]  # 0 = uncoloured
    edges = set()
    for u in range(size):
        for v in range(u, size):
            if rng.random() < 0.5:
                edges |= {(u, v), (v, u)}
    interpretation = {"E": sorted([list(e) for e in edges])}
    for i in range(1, n + 1):
        interpretation[f"C_{i}"] = [[u] for u in range(size) if colour[u] == i]
    return {
        "vocabulary": {
            "relations": [["E", 2]] + [[f"C_{i}", 1] for i in range(1, n + 1)],
            "constants": [],
        },
        "universeSize": size,
        "interpretation": interpretation,
        "constantValues": {},
    }


def small_clauses(rng: random.Random, num_edges: int) -> list[list[int]]:
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clauses.append(
            [
                rng.randint(1, num_edges) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 3))
            ]
        )
    return clauses


def dimacs(clauses: list[list[int]], num_vars: int) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# walk-ladder: dense walk-matrix work on random digraphs
# ---------------------------------------------------------------------------


def walk_ladder(seed: int) -> list[Instance]:
    rng = random.Random(f"walk-ladder:{seed}")
    b = _Builder("walk-ladder")

    def graph_file(n, edges, **extra):
        return _dump({"n": n, "edges": edges, **extra})

    # Rungs are spaced so that latencies fill the range from the smallest
    # instance to the largest without a wide gap: a gap near the middle would
    # make the median latency jump across it from run to run.
    for n, k in ((40, 12), (50, 14), (60, 15), (70, 16), (80, 18)):
        s, t = rng.sample(range(n), 2)
        b.add(f"reach-n{n}-k{k}", ["reach", "--graph", b.path(f"reach-{n}.json"),
              "--k", str(k)], {f"reach-{n}.json": graph_file(
              n, regular_digraph(rng, n, 2), s=s, t=t)}, "walk-matrix", {"k": k})
    for name, rungs in (("logreach", ((60, 16), (80, 14), (100, 12))),
                        ("logwalk", ((50, 20), (70, 17), (90, 14)))):
        for n, a in rungs:
            k = math.ceil(a / _ceil_log2(n))  # smallest k whose gate passes
            extra = dict(zip("st", rng.sample(range(n), 2))) if name == "logreach" else {}
            fname = f"{name}-{n}.json"
            b.add(f"{name}-n{n}-a{a}", [name, "--graph", b.path(fname), "--a", str(a),
                  "--k", str(k), "--b", "2"],
                  {fname: graph_file(n, regular_digraph(rng, n, 2), **extra)},
                  "walk-matrix", {"a": a})
    for n, k in ((80, 16), (120, 24)):
        colours, edges = layered_colouring(rng, n, k, 3)
        fname = f"reachcolour-{n}.json"
        b.add(f"reachcolour-n{n}-k{k}", ["reachcolour", "--graph", b.path(fname),
              "--k", str(k)], {fname: graph_file(n, edges, colours=colours, s=0, t=n - 1)},
              "walk-matrix-colour-layers", {"k": k})
    n, a = 40, 14
    edges = regular_digraph(rng, n, 2)
    relevant = rng.sample(range(1, len(edges) + 1), 3)
    # Every clause has a negative literal, so walks avoiding the mentioned
    # edges satisfy the CNF and the count is rarely 0.
    clauses = [[-v] + [w * rng.choice([1, -1]) for w in rng.sample(relevant, rng.randint(0, 2))]
               for v in relevant]
    size = len(clauses) + sum(len(c) for c in clauses)
    k = math.ceil(a / _ceil_log2(n + size))
    s, t = rng.sample(range(n), 2)
    b.add(f"reach2cnf-n{n}-a{a}", ["reach2cnf", "--graph", b.path("reach2cnf.json"),
          "--cnf", b.path("reach2cnf.cnf"), "--a", str(a), "--k", str(k)],
          {"reach2cnf.json": graph_file(n, edges, s=s, t=t),
           "reach2cnf.cnf": dimacs(clauses, len(edges))},
          "walk-matrix-inclusion-exclusion", {"a": a})
    n, k = 70, 12
    colours, edges = layered_colouring(rng, n, k, 3)
    b.add(f"hom-n{k}-b{n}", ["hom", "--n", str(k), "--target", b.path("hom.json"),
          "--k", str(k)], {"hom.json": _dump(path_star_target(colours, edges, k))},
          "reduction-source-reachcolour",
          {"graph": {"n": n, "edges": edges, "colours": colours}, "s": 0, "t": n - 1, "k": k})
    return b.instances


# ---------------------------------------------------------------------------
# state-ladder: configuration-space routes (clows, BP bands, locality sweep)
# ---------------------------------------------------------------------------


def state_ladder(seed: int) -> list[Instance]:
    rng = random.Random(f"state-ladder:{seed}")
    b = _Builder("state-ladder")
    # (10, 6, 8) holds the most clow sequences, so it sets peak RSS; its
    # sequence count varies least across seeds among the sizes tried.
    for n, k, d in ((9, 7, 5), (10, 6, 7), (10, 6, 8)):
        fname = f"pdet-{n}-{k}-{d}.json"
        files = {fname: _dump(regular_matrix(rng, n, d))}
        for method, other in (("clow", "direct"), ("direct", "clow")):
            b.add(f"pdet-{method}-n{n}-k{k}-d{d}", ["pdet", "--matrix", b.path(fname),
                  "--k", str(k), "--method", method], files, "pdet-other-method",
                  {"k": k, "method": other})
    for length in (150, 250):
        fname = f"bp-chain-{length}.json"
        b.add(f"bp-fast-chain{length}", ["bp", "--program", b.path(fname), "--x", "0",
              "--method", "fast"], {fname: _dump(y_chain(rng, length))},
              "bp-acc-by-segments", {"x": [0]})
    for n, k in ((40, 12), (60, 14)):
        edges = regular_digraph(rng, n, 3)
        s, t = rng.sample(range(n), 2)
        fname, sname = f"mc-walk-{n}.json", f"mc-structure-{n}.json"
        b.add(f"mc-local-n{n}-k{k}", ["mc", "--formula", b.path(fname), "--structure",
              b.path(sname), "--k", str(k + 2), "--local"],
              {fname: _dump(walk_formula(k)), sname: _dump(walk_structure(n, edges, s, t))},
              "reduction-source-reach", {"graph": {"n": n, "edges": edges}, "s": s, "t": t, "k": k})
    return b.instances


# ---------------------------------------------------------------------------
# small-batch: selftest-sized instances of every subcommand, ~1 in 5 malformed
# ---------------------------------------------------------------------------


def _graph_instance(rng, max_out):
    n = rng.randint(3, 6)
    return n, small_digraph(rng, n, max_out)


def small_batch(seed: int) -> list[Instance]:
    rng = random.Random(f"small-batch:{seed}")
    b = _Builder("small-batch")

    def graph(name, obj):
        return {name: _dump(obj)}

    for i in range(3):
        n, edges = _graph_instance(rng, 3)
        s, t, k = rng.randrange(n), rng.randrange(n), rng.randint(1, 5)
        f = f"reach{i}.json"
        b.add(f"reach{i}", ["reach", "--graph", b.path(f), "--s", str(s), "--t", str(t),
              "--k", str(k)], graph(f, {"n": n, "edges": edges}), "enumerate-walks",
              {"s": s, "t": t, "a": k - 1})
    for i in range(3):
        n, edges = _graph_instance(rng, 2)
        s, t, a = rng.randrange(n), rng.randrange(n), rng.randint(1, 5)
        f = f"logreach{i}.json"
        b.add(f"logreach{i}", ["logreach", "--graph", b.path(f), "--a", str(a),
              "--k", str(math.ceil(a / _ceil_log2(n)))],
              graph(f, {"n": n, "edges": edges, "s": s, "t": t}), "enumerate-walks",
              {"s": s, "t": t, "a": a})
    for i in range(2):
        n, edges = _graph_instance(rng, 2)
        a = rng.randint(1, 4)
        f = f"logwalk{i}.json"
        b.add(f"logwalk{i}", ["logwalk", "--graph", b.path(f), "--a", str(a),
              "--k", str(math.ceil(a / _ceil_log2(n)))], graph(f, {"n": n, "edges": edges}),
              "enumerate-all-walks", {"a": a})
    for i in range(3):
        k = rng.randint(3, 4)
        n = rng.randint(k, 6)
        colours = [1] + [rng.randint(1, k) for _ in range(n - 2)] + [k]
        edges = small_digraph(rng, n, 3)
        f = f"reachcolour{i}.json"
        b.add(f"reachcolour{i}", ["reachcolour", "--graph", b.path(f), "--k", str(k)],
              graph(f, {"n": n, "edges": edges, "colours": colours, "s": 0, "t": n - 1}),
              "enumerate-colour-walks", {"s": 0, "t": n - 1, "k": k})
    for i in range(3):
        n, edges = _graph_instance(rng, 2)
        s, t, a = rng.randrange(n), rng.randrange(n), rng.randint(1, 4)
        clauses = small_clauses(rng, len(edges))
        size = len(clauses) + sum(len(c) for c in clauses)
        argv = ["reach2cnf", "--graph", b.path(f"reach2cnf{i}.json"), "--s", str(s),
                "--t", str(t), "--a", str(a), "--k", str(math.ceil(a / _ceil_log2(n + size)))]
        obj = {"n": n, "edges": edges}
        files = {}
        if i % 2:
            files[f"reach2cnf{i}.cnf"] = dimacs(clauses, len(edges))
            argv += ["--cnf", b.path(f"reach2cnf{i}.cnf")]
        else:
            obj["clauses"] = clauses
        files[f"reach2cnf{i}.json"] = _dump(obj)
        b.add(f"reach2cnf{i}", argv, files, "enumerate-cnf-walks",
              {"s": s, "t": t, "a": a, "clauses": clauses})
    for i in range(3):
        n, edges = _graph_instance(rng, 2)
        clauses = small_clauses(rng, len(edges))
        size = n + len(edges) + len(clauses) + sum(len(c) for c in clauses)
        a, k = rng.randint(1, min(3, _ceil_log2(size))), rng.randint(1, 2)
        f = f"cyclecover{i}.json"
        b.add(f"cyclecover{i}", ["cyclecover2cnf", "--graph", b.path(f), "--a", str(a),
              "--k", str(k)], graph(f, {"n": n, "edges": edges, "clauses": clauses}),
              "enumerate-cnf-covers", {"a": a, "k": k, "clauses": clauses})
    for i in range(4):
        local = i >= 2
        phi = local_formula(rng)
        f, s_ = f"mc{i}-formula.json", f"mc{i}-structure.json"
        b.add(f"mc{i}-{'local' if local else 'brute'}", ["mc", "--formula", b.path(f),
              "--structure", b.path(s_), "--k", str(_formula_size(phi))]
              + (["--local"] if local else []),
              {f: _dump(phi), s_: _dump(small_structure(rng))},
              "mc-brute" if local else "mc-local")
    for i in range(4):
        oracle = i >= 2
        n = rng.randint(2, 3)
        f = f"hom{i}.json"
        b.add(f"hom{i}-{'oracle' if oracle else 'layered'}", ["hom", "--n", str(n),
              "--target", b.path(f), "--k", str(n + rng.randint(0, 1))]
              + (["--oracle"] if oracle else []),
              {f: _dump(small_path_star_target(rng, n))},
              "hom-layered" if oracle else "hom-oracle", {"n": n})
    for i in range(4):
        method, other = ("clow", "direct") if i < 2 else ("direct", "clow")
        n = rng.randint(3, 5)
        rows = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
        k = rng.randint(2, n)
        f = f"pdet{i}.json"
        b.add(f"pdet{i}-{method}", ["pdet", "--matrix", b.path(f), "--k", str(k),
              "--method", method], {f: _dump({"n": n, "rows": rows})},
              "pdet-other-method", {"k": k, "method": other})
    for i, (mode, branches) in enumerate((("acc", 2), ("acc", 2), ("fast", 1), ("fast", 1),
                                          ("y", 2), ("y", 1))):
        prog = ordered_program(rng, branches)
        x = "".join(rng.choice("01") for _ in range(prog["numX"]))
        f = f"bp{i}.json"
        argv = ["bp", "--program", b.path(f), "--x", x]
        params = {"x": [int(c) for c in x]}
        if mode == "y":
            y = "".join(rng.choice("01") for _ in range(prog["numY"]))
            argv += ["--y", y]
            params["y"] = [int(c) for c in y]
            route = "bp-y-as-x"
        else:
            argv += ["--method", mode]
            route = "bp-stagger-fast" if mode == "acc" else "bp-acc"
        b.add(f"bp{i}-{mode}", argv, {f: _dump(prog)}, route, params)
    _small_reductions(rng, b)
    _small_malformed(rng, b)
    return b.instances


def _formula_size(node: dict) -> int:
    if "op" in node:
        return 1 + sum(_formula_size(c) for c in node["args"])
    return 1


def _small_reductions(rng: random.Random, b: _Builder) -> None:
    n, edges = _graph_instance(rng, 3)
    s, t, k = rng.randrange(n), rng.randrange(n), rng.randint(2, 4)
    src = {"graph": {"n": n, "edges": edges}, "s": s, "t": t, "k": k}
    n = rng.randint(3, 6)
    s, t = rng.sample(range(n), 2)
    dag = {"graph": {"n": n, "edges": small_dag(rng, n)}, "s": s, "t": t,
           "k": rng.randint(1, n)}
    k = rng.randint(3, 4)
    colours, edges = layered_colouring(rng, k + 2, k, 2)
    colour_src = {"graph": {"n": k + 2, "edges": edges, "colours": colours},
                  "s": 0, "t": k + 1, "k": k}
    n = rng.randint(2, 3)
    hom_src = {"n": n, "k": n + 1, "target": small_path_star_target(rng, n)}
    for name, obj in (("reach-to-mc", src), ("reach-to-pdet", dag),
                      ("reachcolour-to-hom", colour_src), ("hom-to-reach", hom_src)):
        out = b.path(f"{name}.out.json")
        b.add(f"reduce-{name}", ["reduce", "--name", name, "--in", b.path(f"{name}.json"),
              "--out", out], {f"{name}.json": _dump(obj)}, f"reduce:{name}",
              {"out": out})


def _small_malformed(rng: random.Random, b: _Builder) -> None:
    n = rng.randint(3, 6)
    edges = small_digraph(rng, n, 2)

    def graph_case(name, cmd, obj, error, extra=()):
        b.add(f"bad-{name}", [cmd, "--graph", b.path(f"bad-{name}.json"), *extra],
              {f"bad-{name}.json": obj if isinstance(obj, str) else _dump(obj)},
              error=error)

    graph_case("duplicate-edge", "reach", {"n": n, "edges": edges + [edges[0]]},
               "duplicate-edge", ["--s", "0", "--t", "1", "--k", "2"])
    graph_case("degree", "logreach",
               {"n": n, "edges": [[0, v] for v in range(3)], "s": 0, "t": 1},
               "degree-bound-violated", ["--a", "1", "--k", "1", "--b", "2"])
    graph_case("colour-side", "reachcolour",
               {"n": n, "edges": edges, "colours": [2] + [1] * (n - 1), "s": 0, "t": n - 1},
               "colouring-side-condition-violated", ["--k", "2"])
    graph_case("cnf-var", "reach2cnf",
               {"n": n, "edges": edges, "clauses": [[len(edges) + rng.randint(1, 5)]]},
               "edge-variable-out-of-range", ["--s", "0", "--t", "1", "--a", "1", "--k", "1"])
    graph_case("unknown-field", "reach", {"n": n, "edges": edges, "weight": 3},
               "unknown-field", ["--s", "0", "--t", "1", "--k", "2"])
    graph_case("json", "reach", '{"n": %d, "edges": [[0, 1]' % n, "malformed-json",
               ["--s", "0", "--t", "1", "--k", "2"])
    m = rng.randint(3, 5)
    rows = [[1] * m for _ in range(m)]
    rows[rng.randrange(m)][rng.randrange(m)] = 2
    b.add("bad-entry", ["pdet", "--matrix", b.path("bad-entry.json"), "--k", "2"],
          {"bad-entry.json": _dump({"n": m, "rows": rows})}, error="bad-entry")
    b.add("bad-limit-clow", ["--limit", str(rng.randint(2, 9)), "pdet", "--matrix",
          b.path("bad-limit-clow.json"), "--k", "4", "--method", "clow"],
          {"bad-limit-clow.json": _dump({"n": 5, "rows": [[1] * 5 for _ in range(5)]})},
          error="limit-exceeded")
    empty_target = {  # 4^3 candidate maps, above any limit drawn here
        "vocabulary": {"relations": [["E", 2], ["C_1", 1], ["C_2", 1], ["C_3", 1]]},
        "universeSize": 4,
    }
    b.add("bad-limit-hom", ["--limit", str(rng.randint(2, 9)), "hom", "--n", "3",
          "--target", b.path("bad-limit-hom.json"), "--k", "3", "--oracle"],
          {"bad-limit-hom.json": _dump(empty_target)}, error="limit-exceeded")
    b.add("bad-locality", ["mc", "--formula", b.path("bad-locality.json"), "--structure",
          b.path("bad-locality-structure.json"), "--k", "7", "--local", "--r", "0"],
          {"bad-locality.json": _dump(walk_formula(5)),
           "bad-locality-structure.json": _dump(walk_structure(n, edges, 0, 1))},
          error="locality-violated")
    cyc = {"graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, "s": 0, "t": 2, "k": 2}
    b.add("bad-not-a-dag", ["reduce", "--name", "reach-to-pdet", "--in",
          b.path("bad-not-a-dag.json"), "--out", b.path("bad-not-a-dag.out.json")],
          {"bad-not-a-dag.json": _dump(cyc)}, error="not-a-dag")


def known_defects() -> list[Instance]:
    """Inputs ROADMAP item 5 says the seed mishandles, with the refusal it asks for."""
    b = _Builder("known-defects")
    b.add("float-bool-edges", ["reach", "--graph", b.path("float-edges.json"), "--s", "0",
          "--t", "2", "--k", "3"],
          {"float-edges.json": '{"n": 3, "edges": [[0.9, 1], [true, 2]]}\n'},
          error="not-an-integer")
    depth = 1500
    deep = '{"op": "not", "args": [' * depth + '{"atom": "P", "args": [{"var": "x"}]}' \
        + "]}" * depth
    b.add("deep-formula", ["mc", "--formula", b.path("deep.json"), "--structure",
          b.path("deep-structure.json"), "--k", str(depth + 1)],
          {"deep.json": deep + "\n", "deep-structure.json": _dump(
              {"vocabulary": {"relations": [["P", 1]]}, "universeSize": 2,
               "interpretation": {"P": [[0]]}})}, error="formula-too-deep")
    b.add("limit-direct", ["--limit", "1", "pdet", "--matrix", b.path("ones4.json"),
          "--k", "4", "--method", "direct"],
          {"ones4.json": _dump({"n": 4, "rows": [[1] * 4 for _ in range(4)]})},
          error="limit-exceeded")
    return b.instances


# ---------------------------------------------------------------------------
# selftest: the cross-oracle battery at acceptance scale
# ---------------------------------------------------------------------------


def selftest(seed: int) -> list[Instance]:
    rng = random.Random(f"selftest:{seed}")
    b = _Builder("selftest")
    for _ in range(SELFTEST_SEEDS):
        s = rng.randrange(1, 10**6)
        b.add(f"selftest-{s}", ["selftest", "--seed", str(s), "--scale", "full"],
              route="selftest-all-pass")
    return b.instances


WORKLOADS = {
    "walk-ladder": walk_ladder,
    "state-ladder": state_ladder,
    "small-batch": small_batch,
    "selftest": selftest,
}
