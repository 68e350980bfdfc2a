"""Property tests: the clow DP against the clow enumerator and the definition,
and the per-support signed frontier against the plain permutation loop."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.errors import LimitExceeded
from paracount.oracles import clow_sign, cycles_of, enumerate_k_clow_sequences
from paracount.pdet import ZeroOneMatrix, clow_parity_counts, pdet_clow, pdet_direct


@st.composite
def matrix_and_k(draw):
    n = draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    k = draw(st.integers(0, n + 2))
    return ZeroOneMatrix.from_rows([bits[i * n : (i + 1) * n] for i in range(n)]), k


@settings(max_examples=300, deadline=None)
@given(matrix_and_k())
def test_clow_dp_matches_enumeration_and_definition(case):
    a, k = case
    signs = [clow_sign(w) for w in enumerate_k_clow_sequences(a, k)]
    assert clow_parity_counts(a, k) == (signs.count(1), signs.count(-1))
    if k <= a.n:
        assert pdet_clow(a, k) == pdet_direct(a, k)


def pdet_by_permutations(a, k):
    """The definition verbatim: every injection of each k-subset, weighted by
    its entries and signed (-1)^(k + r) by its r nontrivial cycles."""
    total = 0
    for support in itertools.combinations(range(a.n), k):
        for images in itertools.permutations(support):
            if any(i == img for i, img in zip(support, images)):
                continue
            weight = 1
            for i, img in zip(support, images):
                weight *= a.rows[i][img]
                if not weight:
                    break
            if not weight:
                continue
            r = len(cycles_of(dict(zip(support, images))))
            total += -1 if (k + r) % 2 else 1
    return total


@st.composite
def matrix_of_any_density(draw):
    n = draw(st.integers(0, 7))
    density = draw(st.floats(0, 1))
    cells = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    bits = [int(cell < density) for cell in cells]
    return ZeroOneMatrix.from_rows([bits[i * n : (i + 1) * n] for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(matrix_of_any_density())
def test_signed_frontier_matches_the_permutation_loop(a):
    for k in range(a.n + 1):
        assert pdet_direct(a, k) == pdet_by_permutations(a, k)


def test_direct_still_charges_every_candidate_permutation():
    a = ZeroOneMatrix.from_rows([[1] * 4] * 4)
    assert pdet_direct(a, 3, limit=math.perm(4, 3)) == pdet_by_permutations(a, 3) == 8
    with pytest.raises(LimitExceeded) as err:
        pdet_direct(a, 3, limit=math.perm(4, 3) - 1)
    assert str(err.value) == "limit-exceeded: more than 23 candidate permutations (4!/1!)"
