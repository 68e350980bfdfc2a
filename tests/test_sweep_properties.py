"""Property tests: the locality sweep against the brute-force count, with at
most w*r variables live in each state, and the one-count-per-node
branching-program counter against y enumeration."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount import sweep
from paracount.bp import bp_count_acc, bp_count_fast
from paracount.fo import count_mc
from paracount.formulas import (Atom, Connective, ConstRef, Eq, QFFormula, Var, atom_variables,
                                locality_radius, max_arity)
from paracount.oracles import stagger
from paracount.programs import validate_bp
from paracount.selftest import rand_graph, rand_local_formula, rand_structure
from paracount.structures import RelationalStructure, Vocabulary
from paracount.sweep import count_mc_local
from paracount.transforms import reduce_reach_to_mc
from paracount.walks import count_reach, propagate

VOCAB = Vocabulary((("P", 1), ("E", 2)), ("c",))
TERMS = st.one_of(st.sampled_from("xyzw").map(Var), st.just(ConstRef("c")))
ATOMS = st.one_of(
    st.builds(lambda t: Atom("P", (t,)), TERMS),
    st.builds(lambda s, t: Atom("E", (s, t)), TERMS, TERMS),
    st.builds(Eq, TERMS, TERMS),
)
NODES = st.recursive(
    ATOMS,
    lambda children: st.one_of(
        st.builds(lambda c: Connective("not", (c,)), children),
        st.builds(
            Connective,
            st.sampled_from(["and", "or"]),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
    ),
    max_leaves=8,
)


@st.composite
def formula_and_structure(draw):
    n = draw(st.integers(1, 4))
    elements = st.integers(0, n - 1)
    interpretation = {
        "P": draw(st.lists(st.tuples(elements), max_size=n)),
        "E": draw(st.lists(st.tuples(elements, elements), max_size=n * n)),
    }
    structure = RelationalStructure(VOCAB, n, interpretation, {"c": draw(elements)})
    return QFFormula(draw(NODES)), structure


def sweep_with_live_bound(phi, structure, k):
    """count_mc_local at the formula's own radius, after checking that every
    state the sweep visits keeps at most w*r variables live, w the most
    distinct variables in one atom."""
    r = locality_radius(phi)
    bound = max(len(atom_variables(atom)) for atom in phi.atoms) * r
    live = []

    def spy(start, steps, step):
        def recorded(state):
            live.append(len(state[1]))
            return step(state)
        return propagate(start, steps, recorded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "propagate", spy)
        count = count_mc_local(phi, structure, k, r, max_arity(phi))
    assert live and max(live) <= bound
    return count


@settings(max_examples=300, deadline=None)
@given(formula_and_structure())
def test_locality_sweep_matches_brute_force(case):
    phi, structure = case
    local = sweep_with_live_bound(phi, structure, phi.size)
    assert local == count_mc(phi, structure, phi.size)


@st.composite
def wrapped_local_formula(draw):
    """A selftest local formula and structure, the formula wrapped in random
    not/and/or nodes whose other children are local formulas too."""
    rng = draw(st.randoms(use_true_random=False))
    node = rand_local_formula(rng, draw(st.integers(0, 3))).root
    for op in draw(st.lists(st.sampled_from(["not", "and", "or"]), max_size=4)):
        if op == "not":
            node = Connective("not", (node,))
        else:
            other = rand_local_formula(rng, draw(st.integers(0, 2))).root
            node = Connective(op, (node, other) if draw(st.booleans()) else (other, node))
    return QFFormula(node), rand_structure(rng)


@settings(max_examples=300, deadline=None)
@given(wrapped_local_formula())
def test_sweep_with_decided_states_matches_brute_force(case):
    phi, structure = case
    local = sweep_with_live_bound(phi, structure, phi.size)
    assert local == count_mc(phi, structure, phi.size)


def test_formula_decided_by_its_first_atom_counts_every_assignment():
    # x = x is always true under the or: after it every state is decided true
    # and absorbed, and each later atom multiplies by |A| per fresh variable.
    phi = QFFormula(Connective("or", (
        Eq(Var("x"), Var("x")), Atom("E", (Var("x"), Var("y"))), Atom("P", (Var("z"),)))))
    structure = RelationalStructure(VOCAB, 4, {"E": [(0, 1)], "P": []}, {"c": 0})
    stepped = []

    def spy(start, steps, step):
        def recorded(state):
            stepped.append(state)
            return step(state)
        return propagate(start, steps, recorded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "propagate", spy)
        count = count_mc_local(phi, structure, phi.size, locality_radius(phi), 2)
    assert count == count_mc(phi, structure, phi.size) == 4 ** 3
    assert stepped[1:] == [(1, (), True), (2, (), True)]


def test_walk_formula_sweep_keeps_at_most_two_variables_live():
    rng = random.Random(11)
    for _ in range(40):
        g = rand_graph(rng, 7, max_out=3)
        s, t, k = rng.randrange(g.n), rng.randrange(g.n), rng.randint(2, 8)
        phi, structure, kp = reduce_reach_to_mc(g, s, t, k)
        assert locality_radius(phi) == 1  # so w*r is 2
        assert sweep_with_live_bound(phi, structure, kp) == count_reach(g, s, t, k)


@st.composite
def ordered_program(draw):
    """A deterministic layered program whose source-sink paths read y indices
    in strictly increasing order; the y labels need not form bands.

    Each node takes its in-edges when it is placed, and a node reading y_j
    takes them only from nodes whose every source path has read below j.
    """
    num_x, num_y = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    sizes = [1] + draw(st.lists(st.integers(1, 3), max_size=4)) + [1]
    layers = [list(range(sum(sizes[:i]), sum(sizes[: i + 1]))) for i in range(len(sizes))]
    labels, free_bits, read, edges = {}, {}, {}, []
    for i, layer in enumerate(layers):
        earlier = [u for nodes in layers[:i] for u in nodes]
        preds = st.just([])
        if earlier:
            preds = st.lists(st.sampled_from(earlier), min_size=1, max_size=3, unique=True)
        for v in layer:
            kind = draw(st.sampled_from("xyp"))
            index = draw(st.integers(1, num_x if kind == "x" else num_y))
            labels[v] = ("pass",) if kind == "p" else (kind, index)
            free_bits[v] = [None] if kind == "p" else [0, 1]
            read[v] = index if kind == "y" else 0
            for u in draw(preds):
                if free_bits[u] and (kind != "y" or read[u] < index):
                    bit = draw(st.sampled_from(free_bits[u]))
                    free_bits[u].remove(bit)
                    edges.append((u, v, bit))
                    read[v] = max(read[v], read[u])
    return validate_bp(layers, labels, edges, num_x, num_y, layers[0][0], layers[-1][0])


@settings(max_examples=300, deadline=None)
@given(ordered_program())
def test_fast_count_of_staggered_program_matches_enumeration(p):
    staggered = stagger(p)
    for x in itertools.product((0, 1), repeat=p.num_x):
        assert bp_count_fast(p, x) == bp_count_fast(staggered, x) == bp_count_acc(p, x)
