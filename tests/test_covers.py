"""The cycle-cover count from its nontrivial cycles, against the cover
enumerator, at a scale the enumerator cannot reach, and under the budget."""
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.cli import main
from paracount.cnf import EdgeCNF, eval_cnf
from paracount.covers import count_cycle_cover2_cnf, cyclecover_gate_passes
from paracount.errors import LimitExceeded
from paracount.graphs import DirectedGraph
from paracount.oracles import characteristic_assignment, cover_cycles, enumerate_cycle_covers


def loops_and_two_cycles(n, loops=True):
    """A self-loop on every vertex (if ``loops``) plus the 2-cycles (2i, 2i+1)."""
    edges = [(v, v) for v in range(n)] if loops else []
    edges += [e for i in range(0, n - 1, 2) for e in ((i, i + 1), (i + 1, i))]
    return DirectedGraph(n, tuple(edges))


def by_enumeration(g, phi, a, k):
    if not cyclecover_gate_passes(g, phi, a):
        return 0
    total = 0
    for cover in enumerate_cycle_covers(g):
        nontrivial = [c for c in cover_cycles(g, cover) if len(c) > 1]
        if len(nontrivial) <= k and sum(map(len, nontrivial)) == k * a:
            total += eval_cnf(phi, characteristic_assignment(g, set(cover)))
    return total


@st.composite
def loop_biased_instances(draw):
    """Out-degree <= 2 graphs on up to 8 vertices where each vertex has a
    self-loop with probability 0.8, so that cycle covers are common (plain
    random graphs almost never have one), with a random CNF, a and k."""
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(0, 8)
    edges = []
    for u in range(n):
        loop = rng.random() < 0.8
        others = [v for v in range(n) if v != u]
        targets = rng.sample(others, rng.randint(0, min(len(others), 2 - loop)))
        edges += [(u, u)] * loop + [(u, v) for v in targets]
    clauses = [[rng.choice((1, -1)) * rng.randint(1, len(edges))
                for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 3) * bool(edges))]
    phi = EdgeCNF.from_dimacs_literals(clauses)
    return DirectedGraph(n, tuple(edges)), phi, rng.randint(0, 4), rng.randint(0, 3)


@settings(max_examples=400, deadline=None)
@given(loop_biased_instances())
def test_count_matches_the_cover_enumerator(case):
    g, phi, a, k = case
    assert count_cycle_cover2_cnf(g, phi, a, k) == by_enumeration(g, phi, a, k)


def test_uncovered_self_loops_are_true_in_the_assignment():
    g = loops_and_two_cycles(4)  # DIMACS variables 1-4 are the self-loops
    # One 2-cycle is taken: its vertices drop their loops, the others keep theirs.
    for clauses, expected in (([[1]], 1), ([[-1]], 1), ([[1, 3]], 2), ([[1], [3]], 0)):
        phi = EdgeCNF.from_dimacs_literals(clauses)
        assert count_cycle_cover2_cnf(g, phi, 2, 1) == expected, clauses


def test_every_loopless_vertex_lies_on_a_chosen_cycle():
    g = DirectedGraph(4, ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (2, 3), (3, 2)))
    # Vertex 3 has no self-loop, so taking the 2-cycle (0, 1) alone leaves it uncovered.
    assert count_cycle_cover2_cnf(g, EdgeCNF.empty(), 2, 1) == 1
    assert count_cycle_cover2_cnf(g, EdgeCNF.empty(), 2, 2) == 1


def test_loop_and_two_cycle_family_at_sixty_vertices(tmp_path, capsys):
    # C(30, 2) covers take two of the 30 2-cycles; the cover enumerator would
    # pass all 2^30 covers of the graph.
    g = loops_and_two_cycles(60)
    assert count_cycle_cover2_cnf(g, EdgeCNF.empty(), 2, 2, 10**5) == math.comb(30, 2) == 435
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}))
    code = main(["--limit", str(10**5), "cyclecover2cnf", "--graph", str(graph),
                 "--a", "2", "--k", "2"])
    assert code == 0 and json.loads(capsys.readouterr().out)["count"] == "435"


def test_too_many_loopless_vertices_count_zero_without_a_search():
    # 60 loopless vertices cannot all sit on k*a = 4 cycle vertices.
    assert count_cycle_cover2_cnf(loops_and_two_cycles(60, False), EdgeCNF.empty(), 2, 2, 0) == 0
    assert count_cycle_cover2_cnf(loops_and_two_cycles(4, False), EdgeCNF.empty(), 2, 2) == 1
    with pytest.raises(LimitExceeded):  # with the self-loops there is a search to charge
        count_cycle_cover2_cnf(loops_and_two_cycles(60), EdgeCNF.empty(), 2, 2, 0)


def layers_through_zero(layers):
    """Vertex 0, then ``layers`` layers of two vertices, each layer joined to
    the next and the last back to 0: 2^layers cycles, all through vertex 0."""
    edges = [(0, 1), (0, 2)]
    edges += [(u, v) for i in range(1, layers) for u in (2 * i - 1, 2 * i)
              for v in (2 * i + 1, 2 * i + 2)]
    edges += [(2 * layers - 1, 0), (2 * layers, 0)]
    return DirectedGraph(2 * layers + 1, tuple(edges))


def looped_forks(m):
    """Vertex 3i, without a self-loop, forks to 3i + 1 and 3i + 2, which carry
    self-loops and both lead on to 3i + 3, and the last fork back to 0:
    2^m cycles through vertex 0, each holding every loopless vertex, so no
    prune cuts them."""
    n = 3 * m
    edges = [e for i in range(0, n, 3) for e in ((i, i + 1), (i, i + 2), (i + 1, i + 1),
             (i + 1, (i + 3) % n), (i + 2, i + 2), (i + 2, (i + 3) % n))]
    return DirectedGraph(n, tuple(edges))


# 0 -> 1 -> 3 -> 0 is the one cycle of k * a = 3 vertices; 0 -> 1 -> 2 -> 3 -> 0
# is one vertex too long, and 4 -> 1 -> 3 -> 0 puts 4 one edge past the reach
# of head 0's backward search.
CHORD = DirectedGraph(5, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 0),
                          (4, 4), (4, 1)))


@pytest.mark.parametrize("g, a, k, steps, count", [
    # 60 heads and the 30 vertices their backward searches reach (2i + 1 from
    # head 2i), 30 second vertices, 1 + 30 + 435 combinations, and 30 + 435
    # candidate cycles looked at.
    (loops_and_two_cycles(60), 2, 2, 1051, 435),
    # Head 0's backward search reaches all 17 vertices; either first move
    # strands the other vertex of layer 1, whose one predecessor is 0: 2
    # states.  Each of the 16 heads above 0 reaches only itself, since every
    # edge into it comes from below, and enters nothing.  Then 1 combination.
    (layers_through_zero(8), 1, 17, 36, 0),
    # Head 0's backward search reaches all 24 vertices, and its search enters
    # 2 + 2 + 4 + 4 + ... + 256 = 764 states (510 fork successors, 254 forks).
    # The 23 heads above 0 reach only themselves.  Then 1 + 256 combinations,
    # 256 cycles looked at from the start, and one step from each of 255
    # choices to pass the other cycles at the covered head 0, where looking at
    # each of them would take about 2^15 steps.
    (looped_forks(8), 1, 17, 1579, 0),
    # Head 0 reaches 0, 3, 1 and 2 (4 is at distance 3) and enters 1 and 3,
    # but not 2 from 1; heads 1 to 4 reach 2, 1, 1 and 1 vertices and enter
    # nothing.  Then 1 + 1 combinations and 1 cycle looked at.
    (CHORD, 3, 1, 14, 1),
    # 2^19 cycles run through vertex 0, but either first move strands the
    # other vertex of layer 1, and no vertex above 0 reaches back to its own
    # head: 39 + 38 backward-search vertices, 2 states and 1 combination.
    (layers_through_zero(19), 3, 13, 80, 0),
])
def test_every_search_step_is_charged(g, a, k, steps, count):
    assert count_cycle_cover2_cnf(g, EdgeCNF.empty(), a, k, steps) == count
    with pytest.raises(LimitExceeded):
        count_cycle_cover2_cnf(g, EdgeCNF.empty(), a, k, steps - 1)


def test_nineteen_layers_through_one_vertex_count_in_milliseconds():
    # None of the 2^19 cycles through vertex 0 is listed (see the charged
    # steps above), so the count is quick.
    g = layers_through_zero(19)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        assert count_cycle_cover2_cnf(g, EdgeCNF.empty(), 3, 13) == 0
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.010
