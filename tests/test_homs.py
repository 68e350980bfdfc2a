import random

import pytest

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
from paracount.oracles import hom_walk_correspondence
from paracount.selftest import rand_path_star_target
from paracount.structures import RelationalStructure, Vocabulary


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
    graph, s, t = build_layered_reach_graph(b, 2)
    assert graph.n == 4  # two elements plus s and t
    assert (s, 0) in graph.edges and (1, t) in graph.edges


def test_overlapping_colour_classes_refused():
    target = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 1), (1, 0)}, "C_1": {(0,)}, "C_2": {(0,)}},
    )
    with pytest.raises(CountingError) as err:
        count_hom_path_star(2, target, 2)
    assert err.value.code == "overlapping-colour-classes"


def test_asymmetric_edges_refused():
    target = RelationalStructure(
        path_star_vocabulary(2),
        2,
        {"E": {(0, 1)}, "C_1": {(0,)}, "C_2": {(1,)}},
    )
    with pytest.raises(CountingError) as err:
        count_hom_path_star(2, target, 2)
    assert err.value.code == "asymmetric-edge-relation"
    # the exhaustive oracle stays total on such targets
    assert count_hom_oracle(make_path_star(2).structure, target) == 0


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
