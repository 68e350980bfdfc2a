import itertools
import random

import pytest

import paracount.fo
import paracount.structures
from paracount.errors import CountingError
from paracount.fo import (
    Atom,
    ConstRef,
    Connective,
    Eq,
    QFFormula,
    RelationalStructure,
    Var,
    Vocabulary,
    count_mc,
    count_mc_local,
    evaluate,
    formula_from_json,
    formula_node_to_json,
    formula_size,
    locality_radius,
    max_arity,
    structure_from_json,
    structure_to_json,
)
from paracount.selftest import rand_local_formula, rand_structure


def atom(rel, *names):
    return Atom(rel, tuple(Var(n) for n in names))


def conj(*nodes):
    return Connective("and", tuple(nodes))


EDGE_VOCAB = Vocabulary((("E", 2),))


def edge_structure(n, edges):
    return RelationalStructure(EDGE_VOCAB, n, {"E": set(edges)})


def test_formula_size_examples():
    assert formula_size(QFFormula(atom("E", "x1", "x2"))) == 1
    assert formula_size(QFFormula(conj(atom("E", "x1", "x2"), atom("E", "x2", "x3")))) == 3
    assert formula_size(QFFormula(Connective("not", (Eq(Var("x1"), Var("x2")),)))) == 2


def test_locality_radius_examples():
    chain = QFFormula(
        conj(atom("E", "x1", "x2"), atom("E", "x2", "x3"), atom("E", "x3", "x4"))
    )
    assert locality_radius(chain) == 1
    spread = QFFormula(
        conj(atom("E", "x1", "x2"), atom("E", "x3", "x4"), atom("E", "x1", "x4"))
    )
    # brute pairwise scan of the three atoms: x1 links atoms 1 and 3
    assert locality_radius(spread) == 2
    assert locality_radius(QFFormula(atom("E", "x1", "x2"))) == 0


def test_max_arity_examples():
    assert max_arity(QFFormula(atom("E", "x1", "x2"))) == 2
    assert max_arity(QFFormula(Eq(Var("x"), Var("y")))) == 0
    ternary = QFFormula(Atom("R", (Var("a"), Var("b"), Var("c"))))
    assert max_arity(ternary) == 3


def test_free_variables_first_occurrence_order():
    phi = QFFormula(conj(atom("E", "x2", "x1"), atom("E", "x1", "x3")))
    assert phi.free_variables == ("x2", "x1", "x3")


def test_no_atom_formula_rejected():
    with pytest.raises(CountingError) as err:
        QFFormula(Connective("and", ()))
    assert err.value.code == "no-atoms"


def test_count_mc_examples():
    structure = edge_structure(3, [(0, 1), (1, 2), (2, 0)])
    phi = QFFormula(atom("E", "x1", "x2"))
    assert count_mc(phi, structure, 1) == 3
    eq = QFFormula(Eq(Var("x1"), Var("x2")))
    four = edge_structure(4, [])
    assert count_mc(eq, four, 1) == 4
    assert count_mc(phi, structure, 2) == 0  # k != |phi| gate


def test_count_mc_missing_symbol():
    phi = QFFormula(Atom("R", (Var("x"),)))
    with pytest.raises(CountingError) as err:
        count_mc(phi, edge_structure(2, []), 1)
    assert err.value.code == "symbol-not-interpreted"
    with pytest.raises(CountingError) as err:  # the cap is charged first
        count_mc(phi, edge_structure(2, []), 1, limit=1)
    assert err.value.code == "limit-exceeded"


def _count_local(phi, structure, k):
    return count_mc_local(phi, structure, k, locality_radius(phi), max_arity(phi))


@pytest.mark.parametrize("count", [count_mc, _count_local])
@pytest.mark.parametrize("node, code", [
    (Atom("R", (Var("x"),)), "symbol-not-interpreted"),
    (Atom("E", (Var("x"),)), "bad-arity"),
    (Atom("E", (Var("x"), ConstRef("c"))), "symbol-not-interpreted"),
    (Eq(ConstRef("c"), Var("x")), "symbol-not-interpreted"),
])
def test_signature_refused_on_both_routes(count, node, code):
    phi = QFFormula(conj(atom("E", "x", "y"), atom("E", "y", "z"), node))
    structure = edge_structure(3, [(0, 1), (1, 2)])
    with pytest.raises(CountingError) as err:
        count(phi, structure, phi.size)
    assert err.value.code == code
    assert count(phi, structure, phi.size + 1) == 0  # the k gate comes first


def test_count_mc_local_validations():
    spread = QFFormula(
        conj(atom("E", "x1", "x2"), atom("E", "x3", "x4"), atom("E", "x1", "x4"))
    )
    structure = edge_structure(2, [(0, 1)])
    with pytest.raises(CountingError) as err:
        count_mc_local(spread, structure, spread.size, 1, 2)
    assert err.value.code == "locality-violated"
    ternary = QFFormula(Atom("R", (Var("a"), Var("b"), Var("c"))))
    rs = RelationalStructure(Vocabulary((("R", 3),)), 2, {"R": {(0, 0, 0)}})
    with pytest.raises(CountingError) as err:
        count_mc_local(ternary, rs, 1, 1, 2)
    assert err.value.code == "arity-violated"


def test_count_mc_local_single_atom():
    structure = edge_structure(3, [(0, 1), (1, 2)])
    phi = QFFormula(atom("E", "x1", "x2"))
    assert count_mc_local(phi, structure, 1, 0, 2) == count_mc(phi, structure, 1)


def test_count_mc_local_matches_brute_force():
    rng = random.Random(31)
    for trial in range(250):
        r = rng.randint(0, 2)
        phi = rand_local_formula(rng, r)
        structure = rand_structure(rng)
        k = phi.size
        assert count_mc_local(phi, structure, k, 2, 2) == count_mc(
            phi, structure, k
        ), f"trial {trial}"


def test_count_bounded_by_universe_power():
    rng = random.Random(32)
    for _ in range(40):
        phi = rand_local_formula(rng, 2)
        structure = rand_structure(rng)
        assert (
            count_mc(phi, structure, phi.size)
            <= structure.universe_size ** len(phi.free_variables)
        )


def test_pointwise_excluded_middle():
    rng = random.Random(33)
    for _ in range(60):
        phi = rand_local_formula(rng, 2)
        structure = rand_structure(rng)
        assignment = {
            v: rng.randrange(structure.universe_size) for v in phi.free_variables
        }
        positive = evaluate(phi.root, assignment, structure)
        negative = evaluate(Connective("not", (phi.root,)), assignment, structure)
        assert positive != negative


def test_renaming_free_variables_preserves_count():
    rng = random.Random(34)
    for _ in range(40):
        phi = rand_local_formula(rng, 2)
        structure = rand_structure(rng)

        def rename(node, table):
            if isinstance(node, Atom):
                return Atom(
                    node.relation,
                    tuple(
                        Var(table[t.name]) if isinstance(t, Var) else t
                        for t in node.args
                    ),
                )
            if isinstance(node, Eq):
                swap = lambda t: Var(table[t.name]) if isinstance(t, Var) else t
                return Eq(swap(node.left), swap(node.right))
            return Connective(node.op, tuple(rename(c, table) for c in node.children))

        table = {name: f"w{idx}" for idx, name in enumerate(phi.free_variables)}
        renamed = QFFormula(rename(phi.root, table))
        assert count_mc(renamed, structure, renamed.size) == count_mc(
            phi, structure, phi.size
        )


def test_local_sweep_on_shared_subtree_and_repeated_variable():
    structure = edge_structure(3, [(0, 1), (1, 1)])
    same_var = QFFormula(atom("E", "x", "x"))
    assert count_mc(same_var, structure, 1) == 1
    assert count_mc_local(same_var, structure, 1, 0, 2) == 1
    shared = atom("E", "a", "b")
    contradiction = QFFormula(conj(shared, Connective("not", (shared,))))
    assert count_mc(contradiction, structure, contradiction.size) == 0
    assert count_mc_local(contradiction, structure, contradiction.size, 1, 2) == 0


def test_local_sweep_under_deep_negation():
    structure = edge_structure(3, [(0, 1)])
    node = Eq(Var("u"), Var("w"))
    for _ in range(7):
        node = Connective("not", (node,))
    phi = QFFormula(node)
    assert count_mc_local(phi, structure, phi.size, 0, 2) == count_mc(
        phi, structure, phi.size
    )


def test_both_routes_count_a_chain_deeper_than_the_recursion_limit():
    structure = RelationalStructure(Vocabulary((("P", 1),)), 1, {"P": {(0,)}})
    node = atom("P", "x")
    doc = {"atom": "P", "args": [{"var": "x"}]}
    for _ in range(3000):
        node = Connective("not", (node,))
        doc = {"op": "not", "args": [doc]}
    # The file reader keeps its own stack too, so a library caller reads the chain.
    for phi in (QFFormula(node), formula_from_json(doc)):
        assert phi.size == 3001
        assert count_mc(phi, structure, phi.size) == 1
        assert count_mc_local(phi, structure, phi.size, 0, 1) == 1


def test_constants_resolution():
    vocab = Vocabulary((("E", 2),), ("s",))
    structure = RelationalStructure(vocab, 3, {"E": {(0, 1)}}, {"s": 0})
    phi = QFFormula(Atom("E", (ConstRef("s"), Var("x"))))
    assert count_mc(phi, structure, 1) == 1
    assert count_mc_local(phi, structure, 1, 0, 2) == 1


def test_walk_formula_chain_through_local_sweep():
    # The conjunction chain (x1 = s) and E(x1,x2) and ... and (xk = t) is
    # 1-local with arity 2; the sweep must agree with brute force on it.
    from paracount.graphs import validate_graph
    from paracount.reductions import reduce_reach_to_mc
    from paracount.walks import count_reach

    diamond = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for k in (2, 3, 4):
        phi, structure, kp = reduce_reach_to_mc(diamond, 0, 3, k)
        brute = count_mc(phi, structure, kp)
        assert count_mc_local(phi, structure, kp, 1, 2) == brute
        assert brute == count_reach(diamond, 0, 3, k)


def test_brute_force_agrees_with_direct_product_enumeration():
    # independent re-computation of |phi(A)| for a fixed formula
    structure = edge_structure(3, [(0, 1), (1, 2), (0, 2)])
    phi = QFFormula(conj(atom("E", "x1", "x2"), atom("E", "x2", "x3")))
    expected = 0
    for v1, v2, v3 in itertools.product(range(3), repeat=3):
        if (v1, v2) in structure.interpretation["E"] and (
            v2,
            v3,
        ) in structure.interpretation["E"]:
            expected += 1
    assert count_mc(phi, structure, 3) == expected == 1


def test_formula_and_structure_json_roundtrip():
    phi = QFFormula(
        conj(
            Connective("not", (Eq(Var("x1"), Var("x2")),)),
            atom("E", "x1", "x2"),
        )
    )
    again = formula_from_json(formula_node_to_json(phi.root))
    assert formula_node_to_json(again.root) == formula_node_to_json(phi.root)
    structure = edge_structure(3, [(0, 1)])
    assert structure_from_json(structure_to_json(structure)) == structure


def test_structure_json_rejects_unknown_fields():
    with pytest.raises(CountingError):
        structure_from_json({"universeSize": 1, "extra": True})


@pytest.mark.parametrize("name", ["Vocabulary", "RelationalStructure", "structure_from_json",
                                  "structure_to_json"])
def test_structure_names_stay_bound_in_fo(name):
    # Callers that look these up in `fo` by name (the benchmark's tracer among
    # them) must reach the very object `structures` defines.
    assert getattr(paracount.fo, name) is getattr(paracount.structures, name)
