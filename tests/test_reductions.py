import random

import pytest

from paracount.errors import CountingError
from paracount.fo import count_mc
from paracount.formulas import locality_radius, max_arity
from paracount.graphs import DirectedGraph, VertexColouring, validate_graph
from paracount.homs import count_hom_oracle, make_path_star
from paracount.oracles import enumerate_walks
from paracount.pdet import pdet_direct
from paracount.reductions import standard_records, verify_parsimonious
from paracount.selftest import rand_coloured_instance, rand_dag, rand_graph, rand_path_star_target
from paracount.transforms import (
    reduce_hom_to_reach,
    reduce_reach_colour_to_hom,
    reduce_reach_to_mc,
    reduce_reach_to_pdet,
)
from paracount.walks import count_reach, count_reach_colour

DIAMOND = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


# --- hom -> reach -----------------------------------------------------------


def test_hom_to_reach_smallest():
    b = make_path_star(2).structure
    graph, s, t, kp = reduce_hom_to_reach(2, b, 2)
    assert graph.n == 4  # two elements plus s and t
    assert kp == 4
    assert count_reach(graph, s, t, kp) == 1 == count_hom_oracle(b, b)


def test_hom_to_reach_empty_colour_class():
    from paracount.homs import path_star_vocabulary
    from paracount.structures import RelationalStructure

    b = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 1), (1, 0)}, "C_1": set(), "C_2": {(1,)}},
    )
    graph, s, t, kp = reduce_hom_to_reach(2, b, 2)
    assert count_reach(graph, s, t, kp) == 0
    assert count_hom_oracle(make_path_star(2).structure, b) == 0


def test_hom_to_reach_random_agreement():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(2, 4)
        b = rand_path_star_target(rng, n)
        graph, s, t, kp = reduce_hom_to_reach(n, b, n)
        assert count_reach(graph, s, t, kp) == count_hom_oracle(
            make_path_star(n).structure, b
        )


# --- reach^colour -> hom ----------------------------------------------------


def test_reach_colour_to_hom_directed_path():
    k = 4
    g = validate_graph(k, [(i, i + 1) for i in range(k - 1)])
    vc = VertexColouring(g, tuple(range(1, k + 1)))
    pattern, target, kp = reduce_reach_colour_to_hom(vc, 0, k - 1, k)
    assert kp == k
    assert count_hom_oracle(pattern.structure, target) == 1
    assert count_reach_colour(vc, 0, k - 1, k) == 1


def test_reach_colour_to_hom_no_respecting_path():
    g = validate_graph(3, [(0, 2)])  # colour-3 vertex unreachable
    vc = VertexColouring(g, (1, 3, 2))
    pattern, target, kp = reduce_reach_colour_to_hom(vc, 0, 1, 3)
    assert count_reach_colour(vc, 0, 1, 3) == 0
    assert count_hom_oracle(pattern.structure, target) == 0


def test_reach_colour_to_hom_side_conditions():
    g = validate_graph(2, [(0, 1)])
    with pytest.raises(CountingError) as err:
        reduce_reach_colour_to_hom(VertexColouring(g, (2, 1)), 0, 1, 2)
    assert err.value.code == "side-condition-violated"
    # an edge falling by one colour is left out of E^B, so no reversed twin fakes a step
    g2 = validate_graph(3, [(1, 0), (1, 2)])
    vc2 = VertexColouring(g2, (1, 2, 3))
    pattern, target, _ = reduce_reach_colour_to_hom(vc2, 0, 2, 3)
    assert count_hom_oracle(pattern.structure, target) == 0 == count_reach_colour(vc2, 0, 2, 3)
    # C_1 = {s}: a second colour-1 vertex starts no homomorphism
    g3 = validate_graph(3, [(0, 1), (2, 1)])
    vc3 = VertexColouring(g3, (1, 2, 1))
    pattern, target, _ = reduce_reach_colour_to_hom(vc3, 0, 1, 2)
    assert count_hom_oracle(pattern.structure, target) == 1 == count_reach_colour(vc3, 0, 1, 2)


def test_reach_colour_to_hom_random_agreement():
    rng = random.Random(72)
    for _ in range(60):
        vc, s, t, k = rand_coloured_instance(rng)
        pattern, target, kp = reduce_reach_colour_to_hom(vc, s, t, k)
        assert count_hom_oracle(pattern.structure, target) == count_reach_colour(
            vc, s, t, k
        )


# --- reach -> mc ------------------------------------------------------------


def test_reach_to_mc_diamond():
    phi, structure, kp = reduce_reach_to_mc(DIAMOND, 0, 3, 3)
    assert count_mc(phi, structure, kp) == 2 == count_reach(DIAMOND, 0, 3, 3)


def test_reach_to_mc_stuck_source():
    g = validate_graph(3, [(1, 2)])
    phi, structure, kp = reduce_reach_to_mc(g, 0, 2, 3)
    assert count_mc(phi, structure, kp) == 0 == count_reach(g, 0, 2, 3)


def test_reach_to_mc_formula_shape():
    for k in (2, 3, 5):
        phi, _, kp = reduce_reach_to_mc(DIAMOND, 0, 3, k)
        assert locality_radius(phi) == 1
        assert max_arity(phi) == 2
        assert kp == phi.size == k + 2
        assert kp <= 2 * k


def test_reach_to_mc_random_agreement():
    rng = random.Random(73)
    for _ in range(60):
        g = rand_graph(rng, 6)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        k = rng.randint(2, 5)
        phi, structure, kp = reduce_reach_to_mc(g, s, t, k)
        assert count_mc(phi, structure, kp) == len(
            enumerate_walks(g, s, t, k - 1)
        )


# --- reach -> pdet ----------------------------------------------------------


def test_reach_to_pdet_path():
    g = validate_graph(3, [(0, 1), (1, 2)])
    matrix, k, sign = reduce_reach_to_pdet(g, 0, 2, 3)
    assert sign == 1  # (-1)^(2n-k+1) with k = 3
    assert pdet_direct(matrix, k) == 1 == sign * count_reach(g, 0, 2, 3)


def test_reach_to_pdet_zero_walks():
    g = validate_graph(3, [(0, 1)])
    matrix, k, sign = reduce_reach_to_pdet(g, 0, 2, 3)
    assert pdet_direct(matrix, k) == 0


def test_reach_to_pdet_preconditions():
    cyclic = validate_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(CountingError) as err:
        reduce_reach_to_pdet(cyclic, 0, 1, 2)
    assert err.value.code == "not-a-dag"
    dag = validate_graph(2, [(0, 1)])
    with pytest.raises(CountingError) as err:
        reduce_reach_to_pdet(dag, 0, 0, 2)
    assert err.value.code == "s-equals-t"
    with pytest.raises(CountingError) as err:
        reduce_reach_to_pdet(dag, 0, 1, 0)
    assert err.value.code == "k-too-small"


def test_reach_to_pdet_random_identity():
    rng = random.Random(74)
    for _ in range(60):
        g = rand_dag(rng, 6)
        s, t = rng.sample(range(g.n), 2)
        k = rng.randint(1, min(5, g.n))
        matrix, k_out, sign = reduce_reach_to_pdet(g, s, t, k)
        assert pdet_direct(matrix, k_out) == sign * count_reach(g, s, t, k)


# --- verifier ---------------------------------------------------------------


def test_verifier_all_pass_and_bounds():
    rng = random.Random(75)
    records = standard_records()
    instances = []
    for _ in range(20):
        g = rand_graph(rng, 5)
        instances.append((g, rng.randrange(g.n), rng.randrange(g.n), rng.randint(2, 4)))
    replayed = []

    def source_count(inst):
        replayed.append(inst)
        return len(enumerate_walks(inst[0], inst[1], inst[2], inst[3] - 1))

    failures = verify_parsimonious(
        records["reach-to-mc"],
        instances,
        source_count,
        lambda out: count_mc(out[0], out[1], out[2]),
    )
    assert failures == []
    assert replayed == instances


def test_verifier_detects_corruption():
    from paracount.reductions import ReductionRecord
    from paracount.walks import count_reach as target_count

    broken = ReductionRecord(
        "broken",
        lambda inst: (inst[0], inst[1], inst[2], inst[3] + 1),
        lambda inst, kp: kp == inst[3],
        standard_records()["reach-to-mc"].read,
        standard_records()["reach-to-mc"].write,
    )
    probe = [(DirectedGraph(3, ((0, 1), (1, 2))), 0, 2, 3)]
    failures = verify_parsimonious(
        broken,
        probe,
        lambda inst: len(enumerate_walks(inst[0], inst[1], inst[2], inst[3] - 1)),
        lambda out: target_count(out[0], out[1], out[2], out[3]),
    )
    assert len(failures) == 1
    row = failures[0]
    assert row["instance"] == 0 and not row["counts_equal"]
    assert row["source_count"] == 1 != row["target_count"]
