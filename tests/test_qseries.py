"""Exact-arithmetic tests for the q-expansion layer.

Every nontrivial expected value is produced by an independent oracle
implemented here (Akiyama-Tanigawa, brute-force divisor sums, schoolbook
convolution, the pentagonal-number theorem) rather than by the code under
test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moditer.errors import DomainError
from moditer.qseries import (
    QSeries,
    bernoulli,
    builtin_form,
    eisenstein_series,
    eta_series,
    logderiv,
    sigma,
)


# ---------------------------------------------------------------- oracles

def bernoulli_at(k):
    """Akiyama-Tanigawa algorithm; independent of the recurrence in qseries."""
    row = [Fraction(1, j + 1) for j in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(k + 1 - i):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return row[0] if k != 1 else Fraction(-1, 2)  # AT yields B1 = +1/2


def sigma_brute(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def conv_brute(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def theta_list(order):
    t = [0] * (order + 1)
    t[0] = 1
    n = 1
    while n * n <= order:
        t[n * n] = 2
        n += 1
    return t


def eta_mantissa_pentagonal(order):
    """prod (1-q^n) = sum_k (-1)^k q^{k(3k-1)/2} over all integers k."""
    out = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for kk in ({k, -k} if k else {0}):
            e = kk * (3 * kk - 1) // 2
            if e <= order:
                out[e] += -1 if kk % 2 else 1
        k += 1
    return out


def delta_naive(order):
    """q * prod_{n>=1} (1-q^n)^24 by direct repeated multiplication."""
    acc = [1] + [0] * order
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        if n <= order:
            factor[n] = -1
        for _ in range(24):
            acc = conv_brute(acc, factor, order)
    return [0] + acc[:order]


# ------------------------------------------------------------- scalar layer

def test_bernoulli_against_akiyama_tanigawa():
    for k in range(0, 31):
        assert bernoulli(k) == bernoulli_at(k)


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(13) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli(-2)


def test_sigma_against_brute_force():
    for k in range(0, 4):
        for n in range(1, 60):
            assert sigma(k, n) == sigma_brute(k, n)


def test_sigma_examples():
    assert sigma(1, 1) == 1
    assert sigma(1, 3) == 4
    assert sigma(3, 2) == 9
    with pytest.raises(DomainError):
        sigma(1, 0)


# ------------------------------------------------------------ series algebra

def q_jet(coeffs, order=None, prefactor=0):
    if order is None:
        order = len(coeffs) - 1
    return QSeries(tuple(coeffs), order, prefactor)


def test_mul_example():
    a = q_jet([1, 1, 0])
    b = q_jet([1, -1, 0])
    assert (a * b).coeffs == (1, 0, -1)


def test_mul_truncates_to_min_order():
    a = q_jet([1, 1, 1, 1])
    b = q_jet([1, 1])
    c = a * b
    assert c.order == 1
    assert c.coeffs == (1, 2)


def test_div_example():
    a = q_jet([0, 1, 1])
    b = q_jet([0, 1, 0])
    c = a / b
    assert c.coeffs == (1, 1)
    assert c.prefactor_num == 0


def test_div_tracks_leading_power_in_prefactor():
    a = q_jet([0, 0, 3, 0])
    b = q_jet([1, 1, 0, 0])
    c = a / b
    assert c.prefactor_num == 48
    assert c.coeffs == (3, -3)[: c.order + 1]


def test_div_by_zero_series():
    with pytest.raises(DomainError):
        q_jet([1, 0]) / q_jet([0, 0])


def test_geometric_series_by_negative_power():
    g = q_jet([1, -1, 0, 0, 0]) ** -1
    assert g.coeffs == (1, 1, 1, 1, 1)


def test_pow_zero_is_one():
    a = q_jet([0, 2, 5])
    assert (a ** 0).coeffs == (1, 0, 0)
    assert (a ** 0).prefactor_num == 0


def test_add_requires_compatible_prefactor():
    a = q_jet([1, 1], prefactor=1)
    b = q_jet([1, 1], prefactor=2)
    with pytest.raises(DomainError):
        a + b


def test_add_rebases_prefactors_on_24_lattice():
    a = q_jet([1, 0, 0], prefactor=24)  # q * 1
    b = q_jet([1, 0, 0], prefactor=0)
    c = a + b
    assert c.prefactor_num == 0
    assert c.coeffs == (1, 1, 0)


small_coeffs = st.lists(st.integers(-9, 9), min_size=3, max_size=7)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_mul_div_round_trip(ca, cb):
    cb = [1] + cb[1:]  # unit lead so the quotient jet is exact
    a, b = q_jet(ca), q_jet(cb)
    c = (a * b) / b
    # division moves the valuation into the prefactor; undo before comparing
    shift, rem = divmod(c.prefactor_num, 24)
    assert rem == 0
    rebuilt = (0,) * shift + c.coeffs
    k = min(len(rebuilt), len(a.coeffs))
    assert rebuilt[:k] == a.coeffs[:k]


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_logderiv_is_additive_on_products(ca, cb):
    ca = [1] + ca[1:]
    cb = [2] + cb[1:]
    a, b = q_jet(ca), q_jet(cb)
    lhs = logderiv(a * b)
    rhs = logderiv(a) + logderiv(b)
    assert lhs.coeffs[: lhs.order + 1] == rhs.coeffs[: lhs.order + 1]


# ------------------------------------------------------------- built-in forms

def test_eisenstein_e2_coefficients():
    e2 = eisenstein_series(2, 1, 3)
    assert e2.coeffs == (1, -24, -72, -96)
    assert e2.coeffs[2] == -24 * sigma_brute(1, 2)


def test_eisenstein_e4_coefficients():
    e4 = eisenstein_series(4, 1, 2)
    assert e4.coeffs == (1, 240, 2160)
    assert e4.coeffs[2] == 240 * sigma_brute(3, 2)


def test_eisenstein_substituted_argument():
    e22 = eisenstein_series(2, 2, 4)
    assert e22.coeffs == (1, 0, -24, 0, -72)


def test_eisenstein_rejects_odd_weight():
    with pytest.raises(DomainError):
        eisenstein_series(3, 1, 5)


def test_eta_prefactor_and_mantissa():
    e = eta_series(1, 5)
    assert e.prefactor_num == 1
    assert e.coeffs == (1, -1, -1, 0, 0, 1)
    e2 = eta_series(2, 6)
    assert e2.prefactor_num == 2
    assert e2.coeffs == (1, 0, -1, 0, -1, 0, 0)


def test_eta_matches_pentagonal_number_theorem():
    e = eta_series(1, 120)
    assert list(e.coeffs) == eta_mantissa_pentagonal(120)


def test_theta4_against_brute_force_convolution():
    order = 40
    t = theta_list(order)
    expected = conv_brute(conv_brute(t, t, order), conv_brute(t, t, order), order)
    g = builtin_form("G", order)
    assert list(g.coeffs) == expected
    assert g.coeffs[:4] == (1, 8, 24, 32)


def test_theta4_alias():
    assert builtin_form("theta4", 10) == builtin_form("G", 10)


def test_F_coefficients_are_odd_divisor_sums():
    f = builtin_form("F", 9)
    assert f.coeffs == (0, 1, 0, 4, 0, 6, 0, 8, 0, 13)
    for n in range(1, 10):
        assert f.coeffs[n] == (sigma_brute(1, n) if n % 2 else 0)


def test_delta_small_coefficients():
    d = builtin_form("delta", 7)
    assert d.coeffs == (0, 1, -24, 252, -1472, 4830, -6048, -16744)


def test_delta_matches_naive_product():
    order = 24
    assert list(builtin_form("delta", order).coeffs) == delta_naive(order)


def test_delta_equals_eta_power_24():
    order = 60
    d = builtin_form("delta", order)
    e24 = eta_series(1, order) ** 24
    assert e24.prefactor_num == 24
    assert d.coeffs[1:] == e24.coeffs[: order]


def test_lambda_hauptmodul():
    lam = builtin_form("lambda", 6)
    assert lam.coeffs[0] == 0
    # G * lambda == 16 F exactly
    g = builtin_form("G", 6)
    f = builtin_form("F", 6)
    assert (g * lam).coeffs == (16 * f).coeffs


def test_unknown_builtin_name():
    with pytest.raises(DomainError):
        builtin_form("H", 5)


# --------------------------------------------------- eta quotient identities

def test_eta_quotient_identities_order_200():
    order = 200
    f = builtin_form("F", order)
    g = builtin_form("G", order)
    e1 = eta_series(1, order)
    e2 = eta_series(2, order)
    e4 = eta_series(4, order)

    lhs = e4 ** 8 / e2 ** 4
    assert lhs.prefactor_num == 24
    assert lhs.coeffs[: order] == f.coeffs[1:]  # F = q * (mantissa)

    lhs = e2 ** 20 / (e1 ** 8 * e4 ** 8)
    assert lhs.prefactor_num == 0
    assert lhs.coeffs == g.coeffs[: lhs.order + 1]

    lhs = e1 ** 8 / e2 ** 4
    assert lhs.prefactor_num == 0
    diff = g - 16 * f
    assert lhs.coeffs == diff.coeffs[: lhs.order + 1]


# ---------------------------------------------------------------- logderiv

def test_logderiv_of_eta_is_weight_two_eisenstein():
    order = 40
    for l in (1, 2, 4):
        ld = logderiv(eta_series(l, order))
        ek = eisenstein_series(2, l, ld.order) * Fraction(l, 24)
        assert ld.coeffs == ek.coeffs[: ld.order + 1]


def test_logderiv_of_lambda():
    order = 30
    lam = builtin_form("lambda", order)
    ld = logderiv(lam)
    target = builtin_form("G", order) - 16 * builtin_form("F", order)
    assert ld.coeffs == target.coeffs[: ld.order + 1]


def test_logderiv_of_one_minus_lambda():
    order = 30
    lam = builtin_form("lambda", order)
    ld = logderiv(1 - lam)
    target = -16 * builtin_form("F", order)
    assert ld.coeffs == target.coeffs[: ld.order + 1]


def test_logderiv_geometric_example():
    ld = logderiv(q_jet([1, 1, 0, 0]))
    assert ld.coeffs == (0, 1, -1, 1)


def test_logderiv_zero_series():
    with pytest.raises(DomainError):
        logderiv(q_jet([0, 0, 0]))

