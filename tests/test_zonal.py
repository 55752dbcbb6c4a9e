from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassdex.zonal import (P1, P2, P11, Partition, _partitions,
                            _zonal_at_identity, constant_c, jacobi_p,
                            supported_partitions)

from _moments import (MonteCarloMoment, closed_form_c, exact_line_moment,
                      moment_oracle)


def test_partition_validation():
    assert Partition(2, 1).parts == (2, 1)
    assert Partition().degree == 0
    assert P11.length == 2 and P11.degree == 2
    with pytest.raises(ValueError):
        Partition(1, 2)
    with pytest.raises(ValueError):
        Partition(0)


def test_jacobi_normalization_at_ones():
    for m, n in [(1, 2), (1, 4), (2, 4), (2, 8), (3, 8), (4, 16), (8, 16)]:
        for mu in supported_partitions(m):
            assert jacobi_p(mu, m, n).evaluate([1] * m) == 1


def test_jacobi_p1_values():
    zp = jacobi_p(P1, 1, 4)
    assert zp.evaluate([0]) == F(-1, 3)
    assert jacobi_p(P1, 2, 8).beta == F(3, 2)  # m (1 - m/n) = 2 * 3/4


def test_jacobi_preconditions():
    with pytest.raises(ValueError):
        jacobi_p(P1, 3, 4)            # m > n/2
    with pytest.raises(ValueError):
        jacobi_p(P11, 1, 4)           # two parts need m >= 2
    with pytest.raises(ValueError):
        jacobi_p(Partition(3), 2, 8)  # degree > 2 unsupported


def test_jacobi_power_sum_evaluation_matches_direct():
    zp = jacobi_p(P2, 2, 6)
    ys = [F(1, 3), F(1, 5)]
    s1 = sum(ys)
    s2 = sum(y * y for y in ys)
    assert zp.evaluate(ys) == zp.evaluate_power_sums(s1, s2)


def test_constant_c_known_values():
    assert constant_c(1, 4, 1) == F(1, 4)
    assert constant_c(2, 4, 2) == F(10, 9)
    assert constant_c(1, 8, 3) == F(1, 64)
    assert constant_c(4, 16, 2) == F(16, 15)
    assert constant_c(1, 4, 4) == F(7, 128)  # (1*3*5*7)/(4*6*8*10)
    assert constant_c(2, 4, 0) == 1
    with pytest.raises(ValueError):
        constant_c(1, 4, -1)
    with pytest.raises(ValueError):
        constant_c(3, 4, 1)


def test_constant_c_matches_closed_forms():
    for m in range(1, 9):
        for n in range(2 * m, 40):
            for t in (1, 2, 3):
                assert constant_c(m, n, t) == closed_form_c(m, n, t), (m, n, t)


def test_zonal_values_at_identity_sum_to_trace_power():
    # sum over kappa |- t of C_kappa(X) is tr(X)^t; C_kappa(I_m) vanishes
    # for kappa with more than m parts.
    for m in range(1, 7):
        for t in range(8):
            parts = list(_partitions(t, m, t))
            assert len(set(parts)) == len(parts)
            assert all(sum(k) == t and len(k) <= m and list(k) == sorted(k)[::-1]
                       for k in parts)
            assert sum((_zonal_at_identity(k, m) for k in parts), F(0)) == m ** t


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=2, max_value=64))
def test_constant_c_degree_one_closed_form(m, n):
    if 2 * m > n:
        return
    assert constant_c(m, n, 1) == F(m * m, n)


def test_constant_c_matches_line_oracle_everywhere():
    for n in range(2, 65):
        for t in range(9):
            assert constant_c(1, n, t) == exact_line_moment(n, t)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=32),
       st.integers(min_value=1, max_value=3))
def test_constant_c_bounds(m, n, t):
    if 2 * m > n:
        return
    c = constant_c(m, n, t)
    assert 0 < c <= F(m) ** t


def test_line_moment_products():
    assert exact_line_moment(4, 1) == F(1, 4)
    assert exact_line_moment(8, 4) == F(1, 128)  # (1*3*5*7)/(8*10*12*14)
    assert exact_line_moment(6, 0) == 1


def test_moment_oracle_exact_for_lines():
    assert moment_oracle(1, 4, 1) == F(1, 4)
    assert moment_oracle(1, 8, 4) == F(1, 128)


def test_moment_oracle_monte_carlo_smoke():
    est = moment_oracle(2, 4, 2, samples=20_000, seed=11)
    assert isinstance(est, MonteCarloMoment)
    assert est.samples == 20_000 and est.seed == 11
    target = float(constant_c(2, 4, 2))
    assert abs(est.estimate - target) < 6 * est.stderr + 1e-12


def test_moment_oracle_reproducible():
    a = moment_oracle(2, 4, 1, samples=5_000, seed=3)
    b = moment_oracle(2, 4, 1, samples=5_000, seed=3)
    assert a.estimate == b.estimate


@pytest.mark.parametrize("m,n", [(2, 6), (3, 8)])
def test_degree_six_constant_against_monte_carlo(m, n):
    est = moment_oracle(m, n, 3, samples=120_000, seed=29 * m + n)
    target = float(constant_c(m, n, 3))
    assert abs(est.estimate - target) <= 4 * est.stderr


@pytest.mark.parametrize("t", [4, 5, 6])
@pytest.mark.parametrize("m,n", [(2, 6), (3, 8)])
def test_constant_c_past_the_closed_forms_against_monte_carlo(m, n, t):
    est = moment_oracle(m, n, t, samples=60_000, seed=31 * m + n + t)
    target = float(constant_c(m, n, t))
    assert abs(est.estimate - target) <= 5 * est.stderr
