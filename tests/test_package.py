import ast
import importlib
import types
from pathlib import Path

import pytest

import paracount
from paracount import bp, cnf, fo, graphs, oracles, pdet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The package's public names; every one must stay importable from `paracount`.
EXPORTS = [
    "BranchingProgram", "ClowSequence", "CountingError", "DEFAULT_LIMIT", "DirectedGraph",
    "EdgeCNF", "LimitExceeded", "QFFormula", "ReductionRecord", "RelationalStructure",
    "VertexColouring", "Vocabulary", "ZeroOneMatrix", "bp", "bp_accepts", "bp_count_acc",
    "bp_count_fast", "check_read_once_certified", "clow_sign", "cnf",
    "count_cycle_cover2_cnf", "count_hom_oracle", "count_hom_path_star",
    "count_log_reach2_cnf", "count_log_reach_b", "count_log_walk_b", "count_mc",
    "count_mc_local", "count_reach", "count_reach_colour", "det_cross_check",
    "enumerate_cycle_covers", "enumerate_k_clow_sequences", "enumerate_walks", "errors",
    "eta", "eval_cnf", "fo", "formula_size", "graphs", "homs", "is_homomorphism",
    "locality_radius", "log_gate_passes", "make_path_star", "max_arity", "max_out_degree",
    "pdet", "pdet_clow", "pdet_direct", "reduce_hom_to_reach",
    "reduce_reach_colour_to_hom", "reduce_reach_to_mc", "reduce_reach_to_pdet",
    "reductions", "stagger", "structures", "validate_bp", "validate_graph", "verify_parsimonious",
    "walk_count_matrix", "walks",
]
SUBMODULES = {"bp", "cnf", "errors", "fo", "graphs", "homs", "pdet", "reductions", "structures",
              "walks"}


def test_all_is_pinned_and_every_name_resolves():
    assert len(EXPORTS) == 62
    assert paracount.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(paracount, name)
        assert isinstance(value, types.ModuleType) == (name in SUBMODULES), name
        if name not in SUBMODULES:  # bound where it is defined, not resolved by a hook
            home = importlib.import_module(f"paracount.{paracount._SOURCE[name]}")
            assert value is vars(home)[name], name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(EXPORTS) <= set(dir(paracount))


def test_from_imports_and_unknown_names():
    from paracount import count_reach, pdet
    from paracount.walks import count_reach as defined

    assert count_reach is defined
    assert pdet.pdet_clow is paracount.pdet_clow
    with pytest.raises(AttributeError):
        paracount.no_such_name


def test_names_moved_to_oracles_resolve_where_they_were_defined(monkeypatch):
    # `paracount._MOVED`: on its old module a moved name is the very object its
    # defining module binds, looked up there at each access.
    for old, names in paracount._MOVED.items():
        module = importlib.import_module(f"paracount.{old}")
        for name, home in names.items():
            assert name not in vars(module), (old, name)
            assert getattr(module, name) is vars(importlib.import_module(f"paracount.{home}"))[name]
    from paracount.graphs import walk_count_matrix  # as `perfbench/references.py` reads it

    assert walk_count_matrix is oracles.walk_count_matrix
    # Nothing is cached on the old module: a function rebound at home, and
    # restored, is seen on both (the benchmark's tracer rebinds by identity).
    traced = object()
    monkeypatch.setattr(oracles, "eta", traced)
    assert pdet.eta is traced
    monkeypatch.undo()
    assert pdet.eta is oracles.eta and "eta" not in vars(pdet)
    for module, name in ((graphs, "cycles_of"), (pdet, "Clow"), (bp, "ClowSequence"), (graphs, "eta"),
                         (fo, "Vocabulary"), (fo, "RelationalStructure"), (cnf, "no_such_name")):
        with pytest.raises(AttributeError):  # each module resolves only its own entries
            getattr(module, name)


def test_moved_names_are_those_the_benchmark_reads_on_a_module_that_does_not_bind_them():
    # What `perfbench` reads, module -> names: the spans' `LAYERS`, `alias.name`
    # after `from paracount import M as alias`, and `from paracount.M import name`.
    read: dict[str, set[str]] = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "paracount":
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paracount."):
                read.setdefault(node.module.split(".")[1], set()).update(
                    a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
                for _, module, name in ast.literal_eval(node.value):
                    read.setdefault(module, set()).add(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    read.setdefault(aliases[node.value.id], set()).add(node.attr)
    assert {"fo", "bp", "pdet", "graphs", "cnf", "reductions"} <= read.keys()
    unbound = {}
    for module, names in read.items():
        bound = vars(importlib.import_module(f"paracount.{module}"))
        if names - bound.keys():
            unbound[module] = names - bound.keys()
    assert unbound == {module: set(names) for module, names in paracount._MOVED.items()}
