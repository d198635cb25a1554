"""Exact-arithmetic tests for the q-expansion layer.

Every nontrivial expected value is produced by an independent oracle
implemented here (Akiyama-Tanigawa, brute-force divisor sums, schoolbook
convolution, the eta product, Hecke relations) rather than by the code under
test.
"""

import math
import sys
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moditer import qseries
from moditer.errors import DomainError
from moditer.qseries import (
    QSeries,
    _sigma_table,
    bernoulli,
    builtin_form,
    eisenstein_series,
    eta_series,
    logderiv,
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


def eta_mantissa_product(l, order):
    """prod_{n>=1} (1 - q^{ln}) by schoolbook multiplication, factor by factor."""
    out = [1] + [0] * order
    for n in range(1, order // l + 1):
        out = conv_brute(out, [1] + [0] * (l * n - 1) + [-1], order)
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


def bernoulli_incremental(kmax):
    """B_0..B_kmax from the recurrence sum_{j<=n} C(n+1, j) B_j = 0, filled in
    one pass the way a cache that keeps every even index would fill it."""
    table = {0: Fraction(1), 1: Fraction(-1, 2)}
    for n in range(2, kmax + 1, 2):
        table[n] = -sum(math.comb(n + 1, j) * table.get(j, 0) for j in range(n)) / (n + 1)
    return [table.get(k, Fraction(0)) for k in range(kmax + 1)]


def test_bernoulli_values_to_60():
    bernoulli.cache_clear()
    assert [bernoulli(k) for k in range(61)] == bernoulli_incremental(60)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(20) == Fraction(-174611, 330)
    assert bernoulli(30) == Fraction(8615841276005, 14322)
    assert bernoulli(60) == Fraction(-1215233140483755572040304994079820246041491, 56786730)


def test_bernoulli_cache_is_bounded():
    for k in range(100):
        bernoulli(k)
    assert bernoulli.cache_info().currsize <= 32
    # an error caches nothing
    bernoulli.cache_clear()
    with pytest.raises(DomainError):
        bernoulli(-4)
    assert bernoulli.cache_info().currsize == 0


def test_sigma_against_brute_force():
    # _sigma_table is the divisor sieve every built-in Eisenstein series reads
    for k in range(0, 4):
        assert _sigma_table(k, 59)[1:] == [sigma_brute(k, n) for n in range(1, 60)]


def test_sigma_examples():
    assert _sigma_table(1, 3) == [0, 1, 3, 4]
    assert _sigma_table(3, 2)[2] == 9


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


def same_series(a, b):
    """Equal coefficients (type for type), order and prefactor."""
    assert (a.order, a.prefactor_num) == (b.order, b.prefactor_num)
    assert [(type(c), c) for c in a.coeffs] == [(type(c), c) for c in b.coeffs]


@st.composite
def q_series(draw):
    """Fraction coefficients, some leading zeros (all of them: the zero
    series) and a prefactor on the 1/24 lattice."""
    order = draw(st.integers(0, 7))
    body = draw(st.lists(st.fractions(-9, 9, max_denominator=6),
                         min_size=order + 1, max_size=order + 1))
    zeros = draw(st.integers(0, order + 1))
    return q_jet([0] * zeros + body[zeros:], order, draw(st.sampled_from((0, 1, 5, 24, -7))))


@settings(max_examples=150, deadline=None)
@given(q_series(), st.integers(0, 6))
def test_pow_is_repeated_product(x, n):
    one = q_jet([1], x.order)
    same_series(x ** n, reduce(lambda acc, _: acc * x, range(n), one))


@settings(max_examples=150, deadline=None)
@given(q_series(), st.integers(1, 6))
def test_negative_pow_is_power_of_reciprocal(x, n):
    if x.valuation() is None:
        with pytest.raises(DomainError):
            x ** -n
        return
    inv = 1 / x
    same_series(x ** -n, inv ** n)
    same_series(x ** -n, reduce(lambda acc, _: acc * inv, range(n - 1), inv))


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


def test_eisenstein_at_the_weight_cap():
    # the multiplier -2k/B_k is a normal float at k = 260 and subnormal at
    # 262 (by the independent oracle), so 260 is the last weight kept
    assert qseries.EISENSTEIN_MAX_WEIGHT == 260
    e = eisenstein_series(260, 1, 2)
    assert e.coeffs[1] == Fraction(-2 * 260) / bernoulli_at(260)
    assert abs(float(e.coeffs[1])) >= sys.float_info.min
    assert abs(float(Fraction(-2 * 262) / bernoulli_at(262))) < sys.float_info.min


@pytest.mark.parametrize("k", range(4, 26, 2))
def test_eisenstein_coefficients_are_int_exactly_when_integral(k):
    # 1 - (2k/B_k) sigma_{k-1}(n), from the independent Bernoulli oracle
    e = eisenstein_series(k, 1, 200)
    mult = Fraction(-2 * k) / bernoulli_at(k)
    want = [Fraction(1)] + [mult * sigma_brute(k - 1, n) for n in range(1, 201)]
    assert e.coeffs == tuple(want)
    for c, w in zip(e.coeffs, want):
        assert type(c) is (int if w.denominator == 1 else Fraction)
    # E12 is the first whose multiplier is not an integer
    assert all(type(c) is int for c in e.coeffs) == (k in (4, 6, 8, 10, 14))


@pytest.mark.parametrize("k", [262, 800, 10**9])
def test_eisenstein_above_the_weight_cap_is_refused_first(monkeypatch, k):
    def no_bernoulli(n):
        raise AssertionError("Bernoulli work above the cap")

    monkeypatch.setattr(qseries, "bernoulli", no_bernoulli)
    with pytest.raises(DomainError, match=f"need k <= 260, got {k}:"):
        eisenstein_series(k, 1, 3)
    with pytest.raises(DomainError, match=f"need k <= 260, got {k}:"):
        builtin_form(f"E{k}", 3)


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


def test_eta_matches_product_definition():
    for l in (1, 2, 4):
        e = eta_series(l, 120)
        assert e.prefactor_num == l
        assert list(e.coeffs) == eta_mantissa_product(l, 120)


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


def test_F_matches_the_eisenstein_combination():
    # the level-4 construction F = -(E2(z) - 3 E2(2z) + 2 E2(4z)) / 24 is the
    # oracle, equal coefficient for coefficient and type for type
    order = 4000
    e2 = [eisenstein_series(2, l, order) for l in (1, 2, 4)]
    want = (e2[0] - 3 * e2[1] + 2 * e2[2]) * Fraction(-1, 24)
    got = builtin_form("F", order)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_delta_small_coefficients():
    d = builtin_form("delta", 7)
    assert d.coeffs == (0, 1, -24, 252, -1472, 4830, -6048, -16744)


def test_delta_matches_naive_product():
    order = 24
    assert list(builtin_form("delta", order).coeffs) == delta_naive(order)


def test_delta_hecke_relations_order_2000():
    order = 2000
    tau = builtin_form("delta", order).coeffs
    assert (len(tau), tau[0], tau[1]) == (order + 1, 0, 1)
    for m in range(2, order // 2 + 1):
        for n in range(m + 1, order // m + 1):
            if math.gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        assert tau[p * p] == tau[p] ** 2 - p ** 11, p


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


# ------------------------------------- integer division against Fraction only

def _fraction_norm(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def _fraction_div_coeffs(a, b, m):
    # one Fraction per coefficient, whatever the types: the reference the
    # integer fast path must reproduce value for value and type for type
    lead = b[0]
    out = []
    for n in range(m + 1):
        acc = a[n] if n < len(a) else 0
        for j in range(1, min(n, len(b) - 1) + 1):
            if b[j]:
                acc -= b[j] * out[n - j]
        out.append(_fraction_norm(Fraction(acc, lead)))
    return tuple(out)


def _fraction_pow_coeffs(u, k, m):
    terms = [(j, u[j]) for j in range(1, min(m, len(u) - 1) + 1) if u[j]]
    g = [u[0] ** k]
    for n in range(1, m + 1):
        acc = 0
        for j, uj in terms:
            if j > n:
                break
            acc += ((k + 1) * j - n) * uj * g[n - j]
        g.append(_fraction_norm(Fraction(acc, n * u[0])))
    return tuple(g)


def fraction_path():
    return mock.patch.multiple(qseries, _div_coeffs=_fraction_div_coeffs,
                               _pow_coeffs=_fraction_pow_coeffs)


@pytest.mark.parametrize("name", ["F", "G", "theta4", "delta", "E4", "E6", "E12"])
def test_builtin_matches_the_fraction_path_to_q4000(name):
    with fraction_path():
        want = builtin_form(name, 4000)
    same_series(builtin_form(name, 4000), want)


QUOTIENTS_AT_400 = {
    "lambda": lambda: builtin_form("lambda", 400),
    "logderiv(delta)": lambda: logderiv(builtin_form("delta", 400)),
    "eta(4z)^8/eta(2z)^4": lambda: eta_series(4, 400) ** 8 / eta_series(2, 400) ** 4,
    "eta(2z)^20/(eta(z)^8 eta(4z)^8)":
        lambda: eta_series(2, 400) ** 20 / (eta_series(1, 400) ** 8 * eta_series(4, 400) ** 8),
    "eta(z)^8/eta(2z)^4": lambda: eta_series(1, 400) ** 8 / eta_series(2, 400) ** 4,
}


@pytest.mark.parametrize("name", list(QUOTIENTS_AT_400))
def test_quotient_matches_the_fraction_path_to_q400(name):
    with fraction_path():
        want = QUOTIENTS_AT_400[name]()
    same_series(QUOTIENTS_AT_400[name](), want)


@st.composite
def int_series(draw):
    """Integer coefficients after a lead of 1, -1, 2 or 3 (so / and **-n
    meet both integral and non-integral quotients), a few leading zeros."""
    order = draw(st.integers(0, 10))
    zeros = draw(st.integers(0, 2))
    lead = draw(st.sampled_from((1, -1, 2, 3)))
    body = draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order))
    return q_jet([0] * zeros + [lead] + body, order + zeros, draw(st.sampled_from((0, 1, 24))))


@settings(max_examples=100, deadline=None)
@given(int_series(), int_series(), st.integers(1, 5))
def test_integer_path_matches_the_fraction_path(x, y, n):
    got = (x / y, x ** n, x ** -n)
    with fraction_path():
        want = (x / y, x ** n, x ** -n)
    for a, b in zip(got, want):
        same_series(a, b)


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


@pytest.mark.parametrize("coeffs,prefactor,want", [
    ((3,), 0, 0), ((0, 0, 5), 0, 2), ((Fraction(1, 2),), 8, Fraction(1, 3)), ((0, 7), -12, Fraction(1, 2)),
])
def test_logderiv_at_order_zero(coeffs, prefactor, want):
    # no term of q u'/u survives: only the constant from q^{v + prefactor/24}
    ld = logderiv(QSeries(coeffs, len(coeffs) - 1, prefactor))
    assert (ld.coeffs, ld.order, ld.prefactor_num) == ((want,), 0, 0)
    assert type(ld.coeffs[0]) is type(want)


def test_logderiv_zero_series():
    with pytest.raises(DomainError):
        logderiv(q_jet([0, 0, 0]))

