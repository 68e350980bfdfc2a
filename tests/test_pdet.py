import itertools
import random

import pytest

from paracount.errors import DEFAULT_LIMIT, CountingError, LimitExceeded
from paracount.oracles import (
    Clow,
    ClowSequence,
    clow_sign,
    det_cross_check,
    determinant_cofactor,
    enumerate_k_clow_sequences,
    eta,
)
from paracount.pdet import (
    ZeroOneMatrix,
    clow_parity_counts,
    matrix_from_json,
    matrix_to_json,
    pdet_clow,
    pdet_direct,
)

ONES2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
TWO_CYCLE = ZeroOneMatrix.from_rows([[0, 1], [1, 0]])
TRIANGLE_BOTH = ZeroOneMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def rand_matrix(rng, max_n, unit_diagonal=False):
    n = rng.randint(1, max_n)
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    if unit_diagonal:
        for i in range(n):
            rows[i][i] = 1
    return ZeroOneMatrix.from_rows(rows)


def permutation_expansion_det(rows):
    """Independent determinant: full signed permutation sum."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        weight = 1
        for i, j in enumerate(perm):
            weight *= rows[i][j]
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        total += (-1) ** inversions * weight
    return total


def bareiss_det(rows):
    """Independent determinant: fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for i in range(n):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, n) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap], sign = m[swap], m[i], -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1] if n else 1


def test_pdet_direct_degenerate_k():
    for matrix in (ONES2, TWO_CYCLE, TRIANGLE_BOTH):
        assert pdet_direct(matrix, 0) == 1  # only the identity moves no point
        assert pdet_direct(matrix, 1) == 0  # nothing moves exactly one point


def test_pdet_direct_all_ones_2x2():
    # single transposition, sign -1, product 1
    assert pdet_direct(ONES2, 2) == -1


def test_pdet_direct_k_out_of_range():
    with pytest.raises(CountingError) as err:
        pdet_direct(ONES2, 3)
    assert err.value.code == "k-out-of-range"


def test_enumerate_two_cycle():
    seqs = enumerate_k_clow_sequences(TWO_CYCLE, 2)
    assert len(seqs) == 1
    assert seqs[0].clows == (Clow((0, 1)),)


def test_enumerate_zero_matrix_and_k1():
    zero = ZeroOneMatrix.from_rows([[0, 0], [0, 0]])
    assert enumerate_k_clow_sequences(zero, 2) == []
    assert enumerate_k_clow_sequences(zero, 3) == []
    assert enumerate_k_clow_sequences(ONES2, 1) == []  # no clow has one edge


def test_enumerate_triangle_two_cycles():
    seqs = enumerate_k_clow_sequences(TRIANGLE_BOTH, 2)
    bodies = sorted(tuple(c.body for c in w.clows) for w in seqs)
    assert bodies == [((0, 1),), ((0, 2),), ((1, 2),)]


def test_enumeration_satisfies_k_clow_invariants():
    rng = random.Random(51)
    for _ in range(40):
        a = rand_matrix(rng, 4)
        for k in range(5):
            for w in enumerate_k_clow_sequences(a, k):
                assert w.total_edges == k
                heads = [c.head for c in w.clows]
                assert heads == sorted(set(heads))
                for clow in w.clows:
                    assert clow.num_edges >= 2
                    assert all(u != v for u, v in clow.edges())
                    assert clow.head == min(clow.body)
                for u, v in w.edge_multiset():
                    assert a.rows[u][v] == 1  # weight-1 sequences only


def test_clow_sign_instances():
    assert clow_sign(ClowSequence((Clow((0, 1)),), 2)) == -1  # (-1)^(4-2+1)
    two = ClowSequence((Clow((0, 1)), Clow((2, 3))), 4)
    assert clow_sign(two) == 1  # (-1)^(8-4+2)
    assert clow_sign(ClowSequence((), 3)) == 1  # empty sequence


def test_pdet_clow_examples():
    assert pdet_clow(TWO_CYCLE, 2) == -1 == pdet_direct(TWO_CYCLE, 2)
    assert pdet_clow(ONES2, 1) == 0
    assert pdet_clow(ONES2, 0) == 1


def test_pdet_clow_equals_direct_random():
    rng = random.Random(52)
    for _ in range(120):
        a = rand_matrix(rng, 5)
        for k in range(a.n + 1):
            assert pdet_clow(a, k) == pdet_direct(a, k)


def test_pdet_clow_equals_direct_exhaustively_small():
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            a = ZeroOneMatrix.from_rows(
                [bits[i * n : (i + 1) * n] for i in range(n)]
            )
            for k in range(n + 1):
                assert pdet_clow(a, k) == pdet_direct(a, k)


def test_pdet_clow_sums_to_determinant_past_enumeration_scale():
    # Summed over k, pdet of a unit-diagonal matrix is its determinant; at
    # these sizes the k-clow sequences number far beyond any enumeration.
    rng = random.Random(56)
    for n in (20, 21, 22):
        rows = [[1 if i == j else rng.randint(0, 1) for j in range(n)] for i in range(n)]
        a = ZeroOneMatrix.from_rows(rows)
        total = sum(pdet_clow(a, k, limit=10**60) for k in range(n + 1))
        assert total == bareiss_det(rows)


def test_clow_parity_counts_refuses_exactly_past_default_limit():
    ones = ZeroOneMatrix.from_rows([[1] * 8 for _ in range(8)])
    refused = []
    for k in range(11):
        pair = clow_parity_counts(ones, k, limit=10**60)
        assert clow_parity_counts(ones, k, limit=sum(pair)) == pair
        if sum(pair):
            with pytest.raises(LimitExceeded):
                clow_parity_counts(ones, k, limit=sum(pair) - 1)
        if sum(pair) <= DEFAULT_LIMIT:
            assert clow_parity_counts(ones, k) == pair
            continue
        with pytest.raises(LimitExceeded) as err:
            clow_parity_counts(ones, k)
        assert str(err.value) == f"limit-exceeded: more than {DEFAULT_LIMIT} {k}-clow sequences"
        refused.append(k)
    assert refused == [10]  # 7631048 sequences at k = 9, 46541920 at k = 10


def test_involution_beyond_ambient_size():
    # k > n: no disjoint cover exists, so signs must cancel completely
    a = ZeroOneMatrix.from_rows([[1] * 4 for _ in range(4)])
    for k in (5, 6):
        total = 0
        for w in enumerate_k_clow_sequences(a, k):
            image = eta(w)
            assert eta(image) == w and image != w
            assert not w.is_disjoint_cycle_cover()
            total += clow_sign(w)
        assert total == 0


def test_parity_split_reproduces_difference():
    rng = random.Random(53)
    for _ in range(30):
        a = rand_matrix(rng, 4)
        for k in range(a.n + 1):
            pos, neg = clow_parity_counts(a, k)
            assert pos - neg == pdet_direct(a, k)
            assert pos + neg == len(enumerate_k_clow_sequences(a, k))


def test_eta_fixes_simple_cycle():
    w = ClowSequence((Clow((0, 1, 2)),), 3)
    assert eta(w) == w


def test_eta_splits_figure_eight_and_returns():
    # walk 0 -> 1 -> 2 -> 1 -> 0: one clow revisiting vertex 1
    w = ClowSequence((Clow((0, 1, 2, 1)),), 3)
    image = eta(w)
    assert image.clows == (Clow((0, 1)), Clow((1, 2)))
    assert eta(image) == w
    assert clow_sign(image) == -clow_sign(w)
    assert image.edge_multiset() == w.edge_multiset()


def test_eta_involution_over_enumeration():
    rng = random.Random(54)
    matrices = [
        ZeroOneMatrix.from_rows([[1] * n for _ in range(n)]) for n in range(1, 5)
    ] + [rand_matrix(rng, 4) for _ in range(30)]
    for a in matrices:
        for k in range(5):
            for w in enumerate_k_clow_sequences(a, k):
                image = eta(w)
                assert eta(image) == w
                if w.is_disjoint_cycle_cover():
                    assert image == w
                else:
                    assert image != w
                    assert clow_sign(image) == -clow_sign(w)
                    assert image.total_edges == w.total_edges
                    assert image.edge_multiset() == w.edge_multiset()


def test_eta_rejects_invalid_sequence():
    with pytest.raises(CountingError) as err:
        eta(ClowSequence((Clow((0,)),), 2))  # a self-loop clow has one edge
    assert err.value.code == "invalid-clow-sequence"


def test_clow_validation():
    with pytest.raises(CountingError):
        Clow((1, 0))  # head must be minimal
    with pytest.raises(CountingError):
        Clow((0, 1, 0, 2))  # head revisited in the interior
    with pytest.raises(CountingError):
        ClowSequence((Clow((0, 1)), Clow((0, 2))), 3)  # heads must ascend


def test_det_cross_check_examples():
    identity = ZeroOneMatrix.from_rows([[1, 0], [0, 1]])
    assert det_cross_check(identity) == 1
    assert det_cross_check(ONES2) == 0  # 1 + 0 + (-1)


def test_det_cross_check_requires_unit_diagonal():
    with pytest.raises(CountingError) as err:
        det_cross_check(TWO_CYCLE)
    assert err.value.code == "diagonal-not-unit"


def test_det_cross_check_matches_independent_determinants():
    rng = random.Random(55)
    for _ in range(80):
        a = rand_matrix(rng, 5, unit_diagonal=True)
        value = det_cross_check(a)
        rows = [list(r) for r in a.rows]
        assert value == determinant_cofactor(rows)
        assert value == permutation_expansion_det(rows)
        assert value == bareiss_det(rows)


def test_matrix_json_roundtrip():
    assert matrix_from_json(matrix_to_json(ONES2)) == ONES2
    with pytest.raises(CountingError):
        matrix_from_json({"n": 2, "rows": [[0, 2], [0, 0]]})
