import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.cnf import (
    EdgeCNF,
    count_log_reach2_cnf,
    eval_cnf,
    parse_dimacs,
    reach2cnf_gate_passes,
)
from paracount.covers import count_cycle_cover2_cnf, cyclecover_gate_passes
from paracount.errors import CountingError
from paracount.graphs import DirectedGraph, validate_graph
from paracount.oracles import (
    characteristic_assignment,
    cover_cycles,
    enumerate_cycle_covers,
    enumerate_walks,
)
from paracount.walks import count_log_reach_b

DIAMOND = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
TWO_LOOPS = validate_graph(2, [(0, 0), (1, 1), (0, 1), (1, 0)])


def rand_degree2_graph(rng, max_n=6):
    n = rng.randint(1, max_n)
    edges = []
    for u in range(n):
        targets = list(range(n))
        rng.shuffle(targets)
        edges += [(u, v) for v in targets[: rng.randint(0, 2)]]
    return DirectedGraph(n, tuple(edges))


def rand_cnf(rng, g):
    clauses = []
    for _ in range(rng.randint(0, 3)):
        clause = []
        for _ in range(rng.randint(0, 3)):
            if g.edges:
                e = rng.randrange(len(g.edges))
                clause.append((e + 1) if rng.random() < 0.5 else -(e + 1))
        clauses.append(clause)
    return EdgeCNF.from_dimacs_literals(clauses)


def walk_edges(g, walk):
    ids = {(u, v): i for i, (u, v) in enumerate(g.edges)}
    return {ids[(walk[i], walk[i + 1])] for i in range(len(walk) - 1)}


def test_eval_cnf_examples():
    assert eval_cnf(EdgeCNF.empty(), {}) is True
    neg = EdgeCNF.from_dimacs_literals([[-1]])
    assert eval_cnf(neg, {0: 1}) is False
    phi = EdgeCNF.from_dimacs_literals([[1, 2], [-1]])
    assert eval_cnf(phi, {0: 0, 1: 1}) is True


def test_eval_cnf_unassigned_variable():
    phi = EdgeCNF.from_dimacs_literals([[1]])
    with pytest.raises(CountingError) as err:
        eval_cnf(phi, {})
    assert err.value.code == "unassigned-variable"


def test_empty_clause_is_unsatisfiable():
    phi = EdgeCNF(((),))  # one empty clause
    assert eval_cnf(phi, {}) is False


def test_dimacs_parse():
    phi = parse_dimacs("c comment\np cnf 4 2\n1 -2 0\n3 4 0\n")
    assert phi.clauses == (((0, True), (1, False)), ((2, True), (3, True)))
    assert phi.size() == 2 + 4


def test_dimacs_percent_line_ends_the_input():
    # SATLIB files end with "%" and a stray "0", which is no empty clause.
    want = EdgeCNF.from_dimacs_literals([[1, -2]])
    assert parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n") == want
    assert parse_dimacs("1 -2 0\n%\n0\n") == want
    assert parse_dimacs("c a comment\n1 -2 0\n  % trailer\n3 0\n") == want
    # The header still counts the clauses before the "%", and every other check stays.
    with pytest.raises(CountingError, match="header declares 2 clauses, found 1"):
        parse_dimacs("p cnf 2 2\n1 -2 0\n%\n3 0\n")
    with pytest.raises(CountingError, match="malformed-dimacs"):
        parse_dimacs("p cnf 2 1\n1 x 0\n%\n")


def test_dimacs_parse_reads_each_literal_once(monkeypatch):
    rng = random.Random(23)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
               for _ in range(30)]
    text = f"p cnf 9 {len(clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses)
    want = EdgeCNF.from_dimacs_literals(clauses)

    def reread(value, what):
        raise AssertionError(f"{what} {value!r} read again")

    monkeypatch.setattr("paracount.cnf.read_int", reread)
    assert parse_dimacs(text) == want


def test_reach2cnf_empty_cnf_equals_unconstrained():
    rng = random.Random(21)
    for _ in range(25):
        g = rand_degree2_graph(rng)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        a, k = rng.randint(0, 4), rng.randint(0, 3)
        assert count_log_reach2_cnf(g, s, t, EdgeCNF.empty(), a, k) == (
            count_log_reach_b(g, s, t, a, k, 2)
        )


def test_reach2cnf_diamond_negated_edge():
    # Forbid edge (0,1): of the two 2-edge walks only (0,2,3) survives.
    e = DIAMOND.edge_id(0, 1)
    phi = EdgeCNF.from_dimacs_literals([[-(e + 1)]])
    assert count_log_reach2_cnf(DIAMOND, 0, 3, phi, 2, 1) == 1


def test_reach2cnf_gate_zero():
    phi = EdgeCNF.empty()
    assert not reach2cnf_gate_passes(DIAMOND, phi, 5, 1)  # 5 > 1*ceil(log2 4)
    assert count_log_reach2_cnf(DIAMOND, 0, 3, phi, 5, 1) == 0


def test_reach2cnf_degree_bound():
    g = validate_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(CountingError) as err:
        count_log_reach2_cnf(g, 0, 3, EdgeCNF.empty(), 1, 1)
    assert err.value.code == "degree-bound-violated"


def test_reach2cnf_matches_filter_oracle():
    rng = random.Random(22)
    for _ in range(40):
        g = rand_degree2_graph(rng)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        a, k = rng.randint(0, 4), rng.randint(0, 3)
        phi = rand_cnf(rng, g)
        if reach2cnf_gate_passes(g, phi, a, k):
            expected = sum(
                1
                for w in enumerate_walks(g, s, t, a)
                if eval_cnf(phi, characteristic_assignment(g, walk_edges(g, w)))
            )
        else:
            expected = 0
        assert count_log_reach2_cnf(g, s, t, phi, a, k) == expected


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 7), st.integers(1, 4))
def test_reach2cnf_pruned_to_live_states_matches_filter_oracle(rng, a, k):
    g = rand_degree2_graph(rng, max_n=8)
    s, t, phi = rng.randrange(g.n), rng.randrange(g.n), rand_cnf(rng, g)
    expected = sum(
        1
        for w in enumerate_walks(g, s, t, a)
        if eval_cnf(phi, characteristic_assignment(g, walk_edges(g, w)))
    ) if reach2cnf_gate_passes(g, phi, a, k) else 0
    assert count_log_reach2_cnf(g, s, t, phi, a, k) == expected


def test_reach2cnf_negative_units_match_the_graph_without_their_edges():
    # On the de Bruijn graph u -> 2u, 2u + 1 (mod 1024) every vertex reaches
    # every other in 10 steps, so only the walks that can still end at t in
    # the steps left keep the frontier small.  Forbidding 100 edges by unit
    # clauses counts what the walk counter counts on the graph without them;
    # a = 20, k = 2 passes both gates (20 <= 2 * 10 and 2 * 11).
    n, a, k = 1024, 20, 2
    g = validate_graph(n, [(u, (2 * u + b) % n) for u in range(n) for b in (0, 1)])
    forbidden = set(random.Random(23).sample(range(len(g.edges)), 100))
    phi = EdgeCNF.from_dimacs_literals([[-(e + 1)] for e in sorted(forbidden)])
    rest = validate_graph(n, [edge for e, edge in enumerate(g.edges) if e not in forbidden])
    expected = count_log_reach_b(rest, 5, 700, a, k, 2)
    assert expected > 0
    assert count_log_reach2_cnf(g, 5, 700, phi, a, k) == expected


def test_enumerate_cycle_covers_examples():
    covers = enumerate_cycle_covers(TWO_LOOPS)
    ids = {e: i for i, e in enumerate(TWO_LOOPS.edges)}
    assert covers == sorted(
        [
            tuple(sorted((ids[(0, 0)], ids[(1, 1)]))),
            tuple(sorted((ids[(0, 1)], ids[(1, 0)]))),
        ]
    )
    assert len(enumerate_cycle_covers(validate_graph(1, [(0, 0)]))) == 1
    assert enumerate_cycle_covers(validate_graph(1, [])) == []


def test_cycle_cover_counter_examples():
    # Only {(0,1),(1,0)} covers two vertices non-trivially.
    assert count_cycle_cover2_cnf(TWO_LOOPS, EdgeCNF.empty(), 2, 1) == 1
    # k = 0 admits exactly the all-self-loop cover.
    assert count_cycle_cover2_cnf(TWO_LOOPS, EdgeCNF.empty(), 2, 0) == 1
    # An empty clause is unsatisfiable.
    unsat = EdgeCNF(((),))
    assert count_cycle_cover2_cnf(TWO_LOOPS, unsat, 2, 1) == 0


def test_cycle_cover_gate():
    assert cyclecover_gate_passes(TWO_LOOPS, EdgeCNF.empty(), 3)  # 3 <= ceil(log2 6)
    assert not cyclecover_gate_passes(TWO_LOOPS, EdgeCNF.empty(), 4)
    assert count_cycle_cover2_cnf(TWO_LOOPS, EdgeCNF.empty(), 4, 1) == 0


def test_cycle_cover_counter_matches_filter_oracle():
    rng = random.Random(23)
    for _ in range(40):
        g = rand_degree2_graph(rng, 5)
        phi = rand_cnf(rng, g)
        a, k = rng.randint(0, 3), rng.randint(0, 3)
        got = count_cycle_cover2_cnf(g, phi, a, k)
        if not cyclecover_gate_passes(g, phi, a):
            assert got == 0
            continue
        expected = 0
        for cover in enumerate_cycle_covers(g):
            nontrivial = [c for c in cover_cycles(g, cover) if len(c) > 1]
            if len(nontrivial) > k:
                continue
            if sum(map(len, nontrivial)) != k * a:
                continue
            if eval_cnf(phi, characteristic_assignment(g, set(cover))):
                expected += 1
        assert got == expected
        assert got <= len(enumerate_cycle_covers(g))


def test_cycle_cover_class_sums_bounded_by_total():
    # For fixed a >= 1 the k classes split covers by their number of
    # non-trivially covered vertices, so the class sums cannot exceed the
    # total number of cycle covers.
    rng = random.Random(24)
    for _ in range(25):
        g = rand_degree2_graph(rng, 5)
        total = len(enumerate_cycle_covers(g))
        for a in range(1, 4):
            class_sum = sum(
                count_cycle_cover2_cnf(g, EdgeCNF.empty(), a, k)
                for k in range(0, g.n + 1)
            )
            assert class_sum <= total


def test_cnf_variable_range_checked():
    phi = EdgeCNF.from_dimacs_literals([[9]])
    with pytest.raises(CountingError) as err:
        count_log_reach2_cnf(DIAMOND, 0, 3, phi, 1, 1)
    assert err.value.code == "edge-variable-out-of-range"
