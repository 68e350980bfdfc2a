import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paracount.errors import CountingError, LimitExceeded
from paracount.graphs import (
    DirectedGraph,
    VertexColouring,
    graph_from_json,
    graph_to_json,
    validate_graph,
)
from paracount.oracles import enumerate_walks, walk_count_matrix
from paracount.walks import max_out_degree

DIAMOND = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
PATH3 = validate_graph(3, [(0, 1), (1, 2)])


def brute_walks(g, a):
    """Independent recursive enumeration of all a-edge walks."""
    succ = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
    walks = []

    def rec(prefix):
        if len(prefix) == a + 1:
            walks.append(tuple(prefix))
            return
        for v in succ[prefix[-1]]:
            rec(prefix + [v])

    for s in range(g.n):
        rec([s])
    return walks


def rand_graph(rng, max_n=6):
    n = rng.randint(1, max_n)
    edges = [
        (u, v) for u in range(n) for v in range(n) if rng.random() < 0.35
    ]
    return DirectedGraph(n, tuple(edges))


def test_validate_accepts_smallest_case():
    g = validate_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)


def test_validate_rejects_out_of_range_endpoint():
    with pytest.raises(CountingError) as err:
        validate_graph(2, [(0, 2)])
    assert err.value.code == "endpoint-out-of-range"


def test_validate_rejects_duplicate_edge():
    with pytest.raises(CountingError) as err:
        validate_graph(1, [(0, 0), (0, 0)])
    assert err.value.code == "duplicate-edge"


def test_edge_ids_follow_list_order():
    assert DIAMOND.out[0] == ((1, 0), (2, 1))
    assert DIAMOND.out[2] == ((3, 3),)
    # Listed out of target order: `out` keeps the ids, `succ` sorts the targets.
    g = validate_graph(3, [(0, 2), (0, 1), (1, 2)])
    assert g.out == (((2, 0), (1, 1)), ((2, 2),), ())
    assert g.succ == ((1, 2), (2,), ())


@st.composite
def graphs(draw):
    """A simple digraph on up to 6 vertices, its edges in a random order."""
    n = draw(st.integers(0, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    return DirectedGraph(n, tuple(draw(st.lists(pairs, unique=True))))


@given(graphs())
def test_adjacency_is_derived_from_the_edges(g):
    assert len(g.succ) == len(g.out) == g.n
    assert sum(map(len, g.out)) == len(g.edges)
    for u in range(g.n):
        assert g.succ[u] == tuple(sorted(v for x, v in g.edges if x == u))
        ids = [e for _, e in g.out[u]]
        assert ids == sorted(set(ids))
        assert all(g.edges[e] == (u, v) for v, e in g.out[u])


def test_max_out_degree():
    assert max_out_degree(PATH3) == 1
    assert max_out_degree(DIAMOND) == 2
    assert max_out_degree(validate_graph(3, [])) == 0


def test_walk_count_matrix_zero_length_is_identity():
    mat = walk_count_matrix(DIAMOND, 0)
    assert mat == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_walk_count_matrix_two_cycle():
    g = validate_graph(2, [(0, 1), (1, 0)])
    assert walk_count_matrix(g, 2)[0][0] == 1


def test_walk_count_matrix_matches_enumeration_entrywise():
    rng = random.Random(5)
    for _ in range(25):
        g = rand_graph(rng, 5)
        a = rng.randint(0, 4)
        mat = walk_count_matrix(g, a)
        walks = brute_walks(g, a)
        for u in range(g.n):
            for v in range(g.n):
                assert mat[u][v] == sum(
                    1 for w in walks if w[0] == u and w[-1] == v
                )


def test_walk_count_matrix_multiplicativity():
    rng = random.Random(6)
    for _ in range(20):
        g = rand_graph(rng, 5)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        left = walk_count_matrix(g, a + b)
        ma, mb = walk_count_matrix(g, a), walk_count_matrix(g, b)
        prod = [
            [sum(ma[i][k] * mb[k][j] for k in range(g.n)) for j in range(g.n)]
            for i in range(g.n)
        ]
        assert left == prod


def test_enumerate_walks_examples():
    assert enumerate_walks(PATH3, 0, 2, 2) == [(0, 1, 2)]
    assert enumerate_walks(PATH3, 1, 1, 0) == [(1,)]
    assert enumerate_walks(DIAMOND, 0, 3, 2) == [(0, 1, 3), (0, 2, 3)]


def test_enumerate_walks_is_lexicographic_and_matches_matrix():
    rng = random.Random(7)
    for _ in range(20):
        g = rand_graph(rng)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        a = rng.randint(0, 5)
        walks = enumerate_walks(g, s, t, a)
        assert walks == sorted(walks)
        assert len(walks) == walk_count_matrix(g, a)[s][t]


def test_enumerate_walks_limit():
    g = validate_graph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(LimitExceeded):
        enumerate_walks(g, 0, 0, 10, limit=5)
    # exactly `limit` walks pass; a cap below 1 admits none
    assert len(enumerate_walks(g, 0, 0, 3, limit=4)) == 4
    with pytest.raises(LimitExceeded):
        enumerate_walks(g, 0, 0, 3, limit=3)
    with pytest.raises(LimitExceeded):
        enumerate_walks(g, 0, 0, 0, limit=0)


def test_total_walk_count_matches_exhaustive_enumeration():
    rng = random.Random(8)
    for _ in range(15):
        g = rand_graph(rng)
        a = rng.randint(0, 6)
        assert sum(map(sum, walk_count_matrix(g, a))) == len(brute_walks(g, a))


def test_counts_are_exact_big_integers():
    n = 8
    complete = validate_graph(n, [(u, v) for u in range(n) for v in range(n)])
    mat = walk_count_matrix(complete, 40)
    assert mat[0][0] == n ** 39  # far beyond any fixed integer width


def test_colouring_validation():
    with pytest.raises(CountingError):
        VertexColouring(PATH3, (1, 2))  # missing a vertex
    with pytest.raises(CountingError):
        VertexColouring(PATH3, (0, 1, 2))  # colours start at 1
    vc = VertexColouring(PATH3, (1, 2, 2))
    assert vc.m == 2


def test_graph_json_roundtrip_and_unknown_field():
    obj = graph_to_json(DIAMOND, s=0, t=3)
    parts = graph_from_json(obj)
    assert parts["graph"] == DIAMOND and parts["s"] == 0 and parts["t"] == 3
    with pytest.raises(CountingError) as err:
        graph_from_json({"n": 1, "edges": [], "weight": 3})
    assert err.value.code == "unknown-field"
