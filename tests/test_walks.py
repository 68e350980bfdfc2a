import random

import pytest

from paracount.cnf import EdgeCNF, count_log_reach2_cnf
from paracount.covers import count_cycle_cover2_cnf
from paracount.errors import CountingError
from paracount.graphs import DirectedGraph, VertexColouring, validate_graph
from paracount.oracles import enumerate_walks, walk_count_matrix
from paracount.walks import (
    ceil_log2,
    count_log_reach_b,
    count_log_walk_b,
    count_reach,
    count_reach_colour,
    log_gate_passes,
    propagate,
)

DIAMOND = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
PATH3 = validate_graph(3, [(0, 1), (1, 2)])


def dense_graph(rng, n):
    """A random digraph on n vertices keeping about 3 in 4 of all n*n arcs."""
    return DirectedGraph(
        n, tuple((u, v) for u in range(n) for v in range(n) if rng.random() < 0.75)
    )


def rand_graph(rng, max_n=6, max_out=None):
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        targets = list(range(n))
        rng.shuffle(targets)
        cap = max_out if max_out is not None else n
        edges += [(u, v) for v in targets[: rng.randint(0, cap)]]
    return DirectedGraph(n, tuple(edges))


def test_gate_convention():
    assert ceil_log2(4) == 2
    assert ceil_log2(1) == 1  # size term floored at 2
    assert ceil_log2(2**53 + 1) == 54  # exact past a float's 53-bit mantissa
    assert ceil_log2(2**60 + 1) == 61
    assert log_gate_passes(54, 1, 2**53 + 1)
    assert log_gate_passes(2, 1, 4)
    assert not log_gate_passes(3, 1, 4)


def test_count_reach_examples():
    assert count_reach(DIAMOND, 0, 3, 3) == 2
    assert count_reach(DIAMOND, 1, 1, 1) == 1  # the single-vertex walk
    assert count_reach(DIAMOND, 0, 3, 0) == 0  # no walk has zero vertices


def test_count_reach_matches_enumeration():
    rng = random.Random(11)
    for _ in range(30):
        g = rand_graph(rng)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        k = rng.randint(1, 6)
        assert count_reach(g, s, t, k) == len(enumerate_walks(g, s, t, k - 1))


def test_count_reach_recurrence():
    rng = random.Random(12)
    for _ in range(20):
        g = rand_graph(rng)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        k = rng.randint(2, 5)
        into_t = {u for u, v in g.edges if v == t}
        assert count_reach(g, s, t, k) == sum(
            count_reach(g, s, u, k - 1) for u in into_t
        )


def test_walks_equal_paths_on_dags():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = DirectedGraph(n, tuple(edges))
        s, t = 0, n - 1
        k = rng.randint(1, n)
        walks = enumerate_walks(g, s, t, k - 1)
        assert all(len(set(w)) == len(w) for w in walks)  # every walk is a path
        assert count_reach(g, s, t, k) == len(walks)


def test_propagate_stops_once_the_frontier_is_empty():
    calls = []

    def step(state):
        calls.append(state)
        return []

    assert propagate({0: 1}, 10**9, step) == {} and calls == [0]
    assert propagate({}, 10**9, step) == {} and calls == [0]
    # The walk DPs end at once too: the diamond has no walk longer than two edges.
    assert count_reach(DIAMOND, 0, 3, 10**9) == 0
    assert count_log_reach_b(DIAMOND, 0, 3, 10**9, 10**9, 2) == 0
    assert count_log_walk_b(DIAMOND, 10**9, 10**9, 2) == 0


def test_count_log_reach_b_examples():
    # gate: 2 <= 1 * ceil(log2 4) = 2
    assert count_log_reach_b(DIAMOND, 0, 3, 2, 1, 2) == 2
    # "0 otherwise": a > k * ceil(log2 |V|)
    assert count_log_reach_b(DIAMOND, 0, 3, 2, 0, 2) == 0


def test_count_log_reach_b_degree_bound():
    with pytest.raises(CountingError) as err:
        count_log_reach_b(DIAMOND, 0, 3, 2, 1, 1)
    assert err.value.code == "degree-bound-violated"
    triple = validate_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(CountingError):
        count_log_reach_b(triple, 0, 3, 1, 1, 2)


def test_count_log_reach_b_matches_matrix_power():
    rng = random.Random(14)
    for _ in range(20):
        g = rand_graph(rng, max_n=8, max_out=2)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        assert count_log_reach_b(g, s, t, 5, 3, 2) == (
            walk_count_matrix(g, 5)[s][t] if log_gate_passes(5, 3, g.n) else 0
        )
    # Counts far above 2**64 pin bigint exactness against the matrix oracle.
    for a in (40, 57):
        g = dense_graph(rng, 8)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        expected = walk_count_matrix(g, a)[s][t]
        assert expected > 2**64
        assert count_log_reach_b(g, s, t, a, 20, g.n) == expected


def test_count_log_walk_b_examples():
    assert count_log_walk_b(PATH3, 1, 2, 2) == 2
    assert count_log_walk_b(PATH3, 2, 2, 2) == 1


def test_count_log_walk_b_matches_matrix_sum():
    rng = random.Random(15)
    for _ in range(20):
        g = rand_graph(rng, max_n=8, max_out=2)
        expected = (
            sum(map(sum, walk_count_matrix(g, 4)))
            if log_gate_passes(4, 2, g.n)
            else 0
        )
        assert count_log_walk_b(g, 4, 2, 2) == expected
    for a in (40, 57):
        g = dense_graph(rng, 8)
        expected = sum(map(sum, walk_count_matrix(g, a)))
        assert expected > 2**64
        assert count_log_walk_b(g, a, 20, g.n) == expected


def test_logwalk_is_sum_of_logreach():
    rng = random.Random(16)
    for _ in range(15):
        g = rand_graph(rng, max_n=6, max_out=2)
        a, k = rng.randint(0, 4), rng.randint(1, 3)
        assert count_log_walk_b(g, a, k, 2) == sum(
            count_log_reach_b(g, u, v, a, k, 2)
            for u in range(g.n)
            for v in range(g.n)
        )


def test_gate_monotone_and_count_stable():
    rng = random.Random(17)
    for _ in range(15):
        g = rand_graph(rng, max_n=6, max_out=2)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        a = rng.randint(0, 5)
        for k in range(4):
            if log_gate_passes(a, k, g.n):
                assert log_gate_passes(a, k + 1, g.n)
                assert count_log_reach_b(g, s, t, a, k, 2) == count_log_reach_b(
                    g, s, t, a, k + 1, 2
                )


def test_disjoint_union_additivity():
    rng = random.Random(18)
    g1 = rand_graph(rng, 4)
    g2 = rand_graph(rng, 4)
    union = DirectedGraph(
        g1.n + g2.n,
        g1.edges + tuple((u + g1.n, v + g1.n) for u, v in g2.edges),
    )
    for a in range(5):
        assert sum(map(sum, walk_count_matrix(union, a))) == sum(
            map(sum, walk_count_matrix(g1, a))
        ) + sum(map(sum, walk_count_matrix(g2, a)))


def test_count_reach_colour_examples():
    vc = VertexColouring(PATH3, (1, 2, 3))
    assert count_reach_colour(vc, 0, 2, 3) == 1
    assert count_reach_colour(vc, 0, 2, 2) == 0  # m != k gate


def test_count_reach_colour_side_conditions():
    vc = VertexColouring(PATH3, (2, 1, 3))
    with pytest.raises(CountingError) as err:
        count_reach_colour(vc, 0, 2, 3)
    assert err.value.code == "colouring-side-condition-violated"


def test_count_reach_colour_matches_filtered_enumeration():
    rng = random.Random(19)
    for _ in range(30):
        g = rand_graph(rng, 6)
        if g.n < 2:
            continue
        s, t = rng.sample(range(g.n), 2)
        m = rng.randint(2, 4)
        colours = [rng.randint(1, m) for _ in range(g.n)]
        colours[s], colours[t] = 1, m
        vc = VertexColouring(g, tuple(colours))
        expected = len(
            [
                w
                for w in enumerate_walks(g, s, t, m - 1)
                if all(vc.colour_of(v) == i + 1 for i, v in enumerate(w))
            ]
        )
        assert count_reach_colour(vc, s, t, m) == expected
        # colour-respecting walks are automatically paths
        for w in enumerate_walks(g, s, t, m - 1):
            if all(vc.colour_of(v) == i + 1 for i, v in enumerate(w)):
                assert len(set(w)) == len(w)


@pytest.mark.parametrize("count, message", [
    (lambda: count_reach(DIAMOND, 0, 3, -1), "k = -1"),
    (lambda: count_log_reach_b(DIAMOND, 0, 3, -1, 1, 2), "a = -1"),
    (lambda: count_log_walk_b(DIAMOND, -1, 1, 2), "a = -1"),
    (lambda: count_reach_colour(VertexColouring(DIAMOND, (1, 2, 2, 3)), 0, 3, -1), "k = -1"),
    (lambda: count_log_reach2_cnf(DIAMOND, 0, 3, EdgeCNF.empty(), -1, 1), "a = -1"),
    (lambda: count_cycle_cover2_cnf(DIAMOND, EdgeCNF.empty(), -1, 1), "a = -1, k = 1"),
    (lambda: walk_count_matrix(DIAMOND, -1), "a = -1"),
    (lambda: enumerate_walks(DIAMOND, 0, 3, -1), "a = -1"),
], ids=["reach", "logreach", "logwalk", "reachcolour", "reach2cnf", "cyclecover2cnf",
        "walk_count_matrix", "enumerate_walks"])
def test_a_negative_length_is_refused(count, message):
    with pytest.raises(CountingError) as err:
        count()
    assert (err.value.code, err.value.message) == ("negative-length", message)
