import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.errors import CountingError
from paracount.homs import (
    build_layered_reach_graph,
    count_hom_oracle,
    count_hom_path_star,
    enumerate_homs,
    is_homomorphism,
    make_path_star,
    path_star_vocabulary,
)
from paracount.graphs import DirectedGraph, VertexColouring
from paracount.oracles import hom_walk_correspondence
from paracount.selftest import rand_path_star_target
from paracount.structures import RelationalStructure, Vocabulary
from paracount.transforms import reduce_hom_to_reach, reduce_reach_colour_to_hom
from paracount.walks import count_reach, count_reach_colour


def test_make_path_star_smallest():
    p2 = make_path_star(2)
    s = p2.structure
    assert s.universe_size == 2
    assert s.interpretation["E"] == {(0, 1), (1, 0)}
    assert s.interpretation["C_1"] == {(0,)}
    assert s.interpretation["C_2"] == {(1,)}


def test_make_path_star_edge_count():
    assert len(make_path_star(3).structure.interpretation["E"]) == 4


def test_make_path_star_too_small():
    with pytest.raises(CountingError) as err:
        make_path_star(1)
    assert err.value.code == "n-too-small"


def test_is_homomorphism_identity():
    s = make_path_star(3).structure
    assert is_homomorphism({i: i for i in range(3)}, s, s)


def test_is_homomorphism_into_empty_relations():
    a = make_path_star(2).structure
    b = RelationalStructure(path_star_vocabulary(2), 2, {})
    assert not is_homomorphism({0: 0, 1: 1}, a, b)


def test_is_homomorphism_refuses_other_vocabularies_and_partial_maps():
    a, b = make_path_star(2).structure, make_path_star(3).structure
    with pytest.raises(CountingError) as err:
        is_homomorphism({0: 0, 1: 1}, a, b)
    assert err.value.code == "vocabulary-mismatch"
    with pytest.raises(CountingError) as err:
        is_homomorphism({0: 0}, a, a)
    assert (err.value.code, err.value.message) == (
        "unassigned-variable", "map undefined on element 1")


def test_constant_map_on_edgeless_pattern():
    vocab = Vocabulary((("E", 2),))
    a = RelationalStructure(vocab, 3, {})
    b = RelationalStructure(vocab, 2, {"E": {(0, 1)}})
    assert is_homomorphism({0: 1, 1: 1, 2: 1}, a, b)


def test_hom_oracle_edgeless_pattern_counts_all_maps():
    empty_vocab = Vocabulary(())
    a = RelationalStructure(empty_vocab, 2, {})
    b = RelationalStructure(empty_vocab, 3, {})
    assert count_hom_oracle(a, b) == 9


def test_hom_oracle_identity_target():
    p = make_path_star(2).structure
    assert count_hom_oracle(p, p) == 1  # colours pin each element
    p3 = make_path_star(3).structure
    assert count_hom_oracle(p3, p3) == 1


def test_count_hom_path_star_identity_and_empty_class():
    for n in (2, 3, 4):
        assert count_hom_path_star(n, make_path_star(n).structure, n) == 1
    target = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 1), (1, 0)}, "C_1": set(), "C_2": {(1,)}},
    )
    assert count_hom_path_star(2, target, 2) == 0


def test_count_hom_path_star_gate():
    b = make_path_star(3).structure
    assert count_hom_path_star(3, b, 2) == 0  # n > k


def test_count_hom_path_star_vocabulary_mismatch():
    with pytest.raises(CountingError) as err:
        count_hom_path_star(2, make_path_star(3).structure, 5)
    assert err.value.code == "vocabulary-mismatch"


def test_layered_graph_shape():
    b = make_path_star(2).structure
    graph, s, t, elements = build_layered_reach_graph(b, 2)
    assert graph.n == 4  # one (position, element) pair per class member, plus s and t
    assert elements == [0, 1]
    assert set(graph.edges) == {(s, 0), (0, 1), (1, t)}


def test_overlapping_colour_classes_counted():
    # element 0 is in C_1 and C_2; its self-loop lets it fill both positions
    target = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 0), (0, 1), (1, 0)}, "C_1": {(0,)}, "C_2": {(0,), (1,)}},
    )
    pattern = make_path_star(2).structure
    assert count_hom_path_star(2, target, 2) == 2 == count_hom_oracle(pattern, target)
    walks, homs = hom_walk_correspondence(2, target)
    assert walks == homs == [(0, 0), (0, 1)]


def test_asymmetric_edges_counted():
    # (1, 2) lacks its reverse, so it cannot carry the symmetric pattern edge
    target = RelationalStructure(
        path_star_vocabulary(2),
        3,
        {"E": {(0, 1), (1, 0), (1, 2)}, "C_1": {(0,), (1,)}, "C_2": {(1,), (2,)}},
    )
    pattern = make_path_star(2).structure
    assert count_hom_path_star(2, target, 2) == 1 == count_hom_oracle(pattern, target)
    one_way = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 1)}, "C_1": {(0,)}, "C_2": {(1,)}},
    )
    assert count_hom_path_star(2, one_way, 2) == 0 == count_hom_oracle(pattern, one_way)


@st.composite
def path_star_targets(draw):
    """Any target over (E, C_1..C_n): classes may overlap, E may hold one-way
    pairs and self-loops."""
    n = draw(st.integers(2, 4))
    size = draw(st.integers(1, 4))
    element = st.integers(0, size - 1)
    edges = draw(st.sets(st.tuples(element, element), max_size=size * size))
    interpretation = {"E": edges}
    for i in range(1, n + 1):
        interpretation[f"C_{i}"] = {(x,) for x in draw(st.sets(element))}
    return n, RelationalStructure(path_star_vocabulary(n), size, interpretation)


@settings(max_examples=300, deadline=None)
@given(path_star_targets())
def test_every_layered_route_matches_the_oracle_on_any_target(case):
    n, b = case
    expected = count_hom_oracle(make_path_star(n).structure, b)
    assert count_hom_path_star(n, b, n) == expected
    graph, s, t, kp = reduce_hom_to_reach(n, b, n)
    assert count_reach(graph, s, t, kp) == expected
    walks, homs = hom_walk_correspondence(n, b)
    assert walks == homs and len(homs) == expected


@st.composite
def coloured_instances(draw):
    """Any colouring with colour(s) = 1 and colour(t) = k: edges may fall or
    keep their colour, and s and t may share their classes."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex), max_size=n * n))
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    colours = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    colours[s], colours[t] = 1, k
    return VertexColouring(DirectedGraph(n, tuple(sorted(edges))), tuple(colours)), s, t, k


@settings(max_examples=300, deadline=None)
@given(coloured_instances())
def test_reach_colour_to_hom_matches_the_colour_walk_count(case):
    vc, s, t, k = case
    pattern, target, _ = reduce_reach_colour_to_hom(vc, s, t, k)
    assert count_hom_oracle(pattern.structure, target) == count_reach_colour(vc, s, t, k)


def test_count_hom_path_star_matches_oracle():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(2, 4)
        b = rand_path_star_target(rng, n)
        pattern = make_path_star(n).structure
        assert count_hom_path_star(n, b, n) == count_hom_oracle(pattern, b)


def test_walk_hom_bijection_materialises():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 4)
        b = rand_path_star_target(rng, n)
        walks, homs = hom_walk_correspondence(n, b)
        assert walks == homs
        for image in homs:
            assert is_homomorphism(
                dict(enumerate(image)), make_path_star(n).structure, b
            )


def test_enumerate_homs_images_are_homs():
    rng = random.Random(43)
    b = rand_path_star_target(rng, 3)
    pattern = make_path_star(3).structure
    for image in enumerate_homs(pattern, b):
        assert is_homomorphism(dict(enumerate(image)), pattern, b)
