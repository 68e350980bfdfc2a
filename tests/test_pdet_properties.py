"""Property tests: the clow DP against the clow enumerator and the definition."""
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.pdet import (
    ZeroOneMatrix,
    clow_parity_counts,
    clow_sign,
    enumerate_k_clow_sequences,
    pdet_clow,
    pdet_direct,
)


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
