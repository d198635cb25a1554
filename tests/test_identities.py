"""Exact checks for the symbolic expansion machinery.

Everything here is rational arithmetic: coefficients, binomial transforms,
and the round trip between the two expansion directions must hold exactly,
not just numerically.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from moditer import forms, identities as idn
from moditer.errors import DomainError, PoleError

F1 = Fraction(1)


def coeff_key(t):
    c = t.coeff
    return (c.rat, c.gamma_num, c.gamma_den, c.lin_num, c.lin_den, c.a0_idx, t.target)


def test_splus_arithmetic():
    s = idn.SPlus(0)
    assert s + 3 == idn.SPlus(3)
    assert 2 + s == idn.SPlus(2)
    assert (s + 1).at(4.5) == 5.5
    assert str(s) == "s" and str(s + 2) == "s+2"
    with pytest.raises(DomainError):
        s + idn.SPlus(1)
    assert idn.exp_at(idn.SPlus(2), 1j) == 2 + 1j
    assert idn.exp_at(3, 0.0) == 3.0


def test_enumerate_chained_index_tuples():
    assert idn.enumerate_indices((2,)) == [(0,), (1,)]
    # bound on the left index is alpha + the index to its right
    assert idn.enumerate_indices((1, 2)) == [(0, 0), (0, 1), (1, 1)]
    assert idn.enumerate_indices(()) == [()]
    total = idn.enumerate_indices((2, 3))
    assert len(total) == sum(2 + j for j in range(3))


def test_expand_L_from_I_length_one():
    f = forms.builtin("E4", 8)
    tl = idn.thI_expand([f], ())
    assert len(tl) == 1
    (t,) = tl
    assert t.coeff.rat == -1 and t.coeff.gamma_num == (0,)
    assert t.target == idn.LTarget((0,), (idn.SPlus(0),))


def test_expand_L_from_I_five_terms_exact():
    f = forms.builtin("E4", 8)
    tl = idn.thI_expand([f, f], (2,))
    got = sorted(map(coeff_key, tl), key=repr)
    S = idn.SPlus
    expected = sorted(
        [
            (F1, (0,), (), (), (), (), idn.LTarget((0, 1), (S(0), 2))),
            (F1, (1,), (), (), (), (), idn.LTarget((0, 1), (S(1), 1))),
            (Fraction(-1, 2), (2,), (), (), (), (1,), idn.LTarget((0,), (S(2),))),
            (F1, (0,), (), (), (), (0,), idn.LTarget((1,), (S(2),))),
            (F1, (1,), (), (), (), (0,), idn.LTarget((1,), (S(2),))),
        ],
        key=repr,
    )
    assert got == expected


def test_expand_L_from_I_cuspidal_keeps_full_word():
    d = forms.builtin("delta", 4)
    tl = idn.thI_expand([d, d], (3,))
    assert len(tl) == 3
    for t, j in zip(tl, range(3)):
        assert t.target.indices == (0, 1)
        assert t.target.args == (idn.SPlus(j), 3 - j)
        assert t.coeff.gamma_num == (j,)
        assert t.coeff.rat == math.factorial(2 - j) * math.comb(2, j)
        assert t.coeff.a0_idx == ()


def test_expand_I_from_L_length_one():
    f = forms.builtin("E4", 8)
    tl = idn.thS_expand([f], ())
    assert len(tl) == 1
    (t,) = tl
    assert t.coeff.rat == -1 and t.coeff.gamma_den == (0,)
    assert t.coeff.lin_den == ()
    assert t.target == idn.ITarget((0,), (idn.SPlus(0),))


def test_expand_I_from_L_four_collected_terms():
    f = forms.builtin("E4", 8)
    buckets = idn.thS_expand([f, f], (2,)).collected()
    nonzero = {
        k: v for k, v in buckets.items() if not idn.ratfunc_equal(v, idn.RATFUNC_ZERO)
    }
    S = idn.SPlus
    expected = {
        (idn.ITarget((0, 1), (S(0), 2)), (), -1): ((F1,), (F1,)),
        (idn.ITarget((0, 1), (S(1), 1)), (), -1): ((Fraction(-1),), (F1,)),
        (idn.ITarget((0,), (S(2),)), (1,), -1): ((Fraction(1, 2),), (F1,)),
        # 1/s - 1/(s+1) collapses to 1/(s(s+1))
        (idn.ITarget((1,), (S(2),)), (0,), -1): ((F1,), (Fraction(0), F1, F1)),
    }
    assert set(nonzero) == set(expected)
    for k, v in expected.items():
        assert idn.ratfunc_equal(nonzero[k], v)


@pytest.mark.parametrize("alphas", [(), (2,), (3,), (2, 2), (3, 1)])
def test_round_trip_collapses_to_identity(alphas):
    # For cusp words, expanding I into L-values and each L-value back into
    # integrals must return the original integral with coefficient 1.
    d = forms.builtin("delta", 4)
    n = len(alphas) + 1
    word = [d] * n
    composed = []
    for t in idn.thI_expand(word, alphas):
        assert t.target.indices == tuple(range(n))  # cusp parts only
        head = t.target.args[0]
        sub = idn.thS_expand(word, tuple(t.target.args[1:])).shifted(head.off)
        for u in sub:
            composed.append(idn.Term(t.coeff * u.coeff, u.target))
    buckets = idn.TermList(tuple(composed)).collected()
    target = idn.ITarget(tuple(range(n)), (idn.SPlus(0),) + tuple(alphas))
    for (tgt, a0_idx, gpow), rf in buckets.items():
        if tgt == target and a0_idx == () and gpow == 0:
            assert idn.ratfunc_equal(rf, idn.RATFUNC_ONE)
        else:
            assert idn.ratfunc_equal(rf, idn.RATFUNC_ZERO)
    assert (target, (), 0) in buckets


def test_binomial_transforms_are_mutually_inverse():
    rng = random.Random(31)
    for _ in range(20):
        data = {}
        for _ in range(rng.randint(1, 5)):
            alphas = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            key = (rng.randint(0, 3), alphas)
            data[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        data = {k: v for k, v in data.items() if v}
        assert idn.binom_transform_inv(idn.binom_transform_fwd(data)) == data
        assert idn.binom_transform_fwd(idn.binom_transform_inv(data)) == data


def test_gamma_factor_identity_exact():
    # prod C(u_k + j_{k+1} - 1, j_k) * Gamma^{(s+j_2, v)} equals
    # Gamma^{(s, u)} * C(s+j_2-1, j_2) * prod C(u_{k-1} + j_k - 1, j_k)
    # with v_k = u_k - j_k + j_{k+1}; exact over the rationals.
    def gprod(vals):
        p = F1
        for v in vals:
            p *= math.factorial(v - 1)
        return p

    def rising(s, j):
        p = F1
        for i in range(j):
            p *= s + i
        return p

    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 3)
        u = tuple(rng.randint(1, 4) for _ in range(m))  # u_2 .. u_{m+1}
        J = rng.choice(idn.enumerate_indices(u))
        jn = lambda k: J[k + 1] if k + 1 < m else 0
        v = [u[k] - J[k] + jn(k) for k in range(m)]
        s = Fraction(rng.randint(1, 40), rng.randint(1, 11))
        lhs = rising(s, J[0]) * gprod(v)
        for k in range(m):
            lhs *= math.comb(u[k] + jn(k) - 1, J[k])
        rhs = gprod(u) * rising(s, J[0]) / math.factorial(J[0])
        for k in range(1, m):
            rhs *= math.comb(u[k - 1] + J[k] - 1, J[k])
        assert lhs == rhs


def test_termlist_shift_substitutes_everywhere():
    f = forms.builtin("E4", 8)
    tl = idn.thI_expand([f, f], (2,)).shifted(3)
    for t in tl:
        assert t.target.args[0].off >= 3
        assert all(g >= 3 for g in t.coeff.gamma_num)
    plain = {t.target for t in idn.thI_expand([f, f], (2,))}
    assert idn.LTarget((0, 1), (idn.SPlus(3), 2)) in {t.target for t in tl}
    assert idn.LTarget((0, 1), (idn.SPlus(0), 2)) in plain


def test_ratfunc_helpers():
    one_over_s = ((F1,), (Fraction(0), F1))
    one_over_s1 = ((F1,), (F1, F1))
    tot = idn.ratfunc_add(one_over_s, one_over_s1)
    # 1/s + 1/(s+1) = (2s+1) / (s^2+s)
    assert idn.ratfunc_equal(tot, ((F1, Fraction(2)), (Fraction(0), F1, F1)))
    assert not idn.ratfunc_equal(tot, one_over_s)
    assert idn.ratfunc_equal(idn.RATFUNC_ZERO, ((Fraction(0),), (Fraction(5),)))


def test_rgamma_matches_scipy():
    for x in np.linspace(-4.7, 40.0, 900):
        for y in (0.0, 0.3, -0.3, -1.2, 2.0, 5.0):
            z = complex(x, y)
            if y == 0 and x <= 0 and abs(x - round(x)) < 1e-3:
                continue
            want = complex(sp.gamma(z))
            assert abs(1 / idn._rgamma(z) - want) <= 1e-13 * abs(want), z


def test_coeff_gamma_poles():
    # 1/Gamma is entire: a denominator Gamma at a pole zeroes the coefficient
    assert idn.Coeff(gamma_den=(0,)).evaluate(0j) == 0
    assert idn.Coeff(rat=Fraction(3), gamma_den=(2,), lin_num=(1,)).evaluate(-4 + 0j) == 0
    with pytest.raises(PoleError, match=r"Gamma pole at s \+ 0 = 0"):
        idn.Coeff(gamma_num=(0,)).evaluate(-1 + 0j)
    # a numerator pole raises even where a denominator one could cancel it
    with pytest.raises(PoleError, match=r"Gamma pole at s \+ 2 = 0"):
        idn.Coeff(gamma_num=(2,), gamma_den=(0,)).evaluate(-2 + 0j)


def test_coeff_linear_pole():
    with pytest.raises(PoleError, match=r"pole divisor hit: s \+ 2 = 0"):
        idn.Coeff(lin_den=(2,)).evaluate(-2 + 0j)


def test_coeff_evaluate_matches_ratfunc():
    for s0 in (1.37, 1.37 + 0.6j):
        rng = random.Random(7)
        for _ in range(25):
            c = idn.Coeff(
                rat=Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                gamma_num=tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2))),
                gamma_den=tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2))),
                lin_num=tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2))),
                lin_den=tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2))),
            )
            num, den, gpow = c.as_ratfunc()
            direct = complex(c.evaluate(s0))
            horner = lambda p: sum(float(a) * s0**i for i, a in enumerate(p))
            via = sp.gamma(s0) ** gpow * horner(num) / horner(den)
            assert abs(direct - via) <= 1e-12 * abs(via), (s0, c)


def test_coeff_constant_term_positions():
    c = idn.Coeff(rat=Fraction(1), a0_idx=(0, 1, 1))
    assert c.evaluate(2.0, (2.0, 3.0)) == pytest.approx(18.0)
    shifted = idn.Coeff(rat=F1, gamma_num=(1,), lin_den=(0,)).shifted(2)
    assert shifted.gamma_num == (3,) and shifted.lin_den == (2,)
    # shifting the coefficient is substitution s -> s + c
    base = idn.Coeff(rat=Fraction(3, 2), gamma_num=(1,), lin_den=(0,))
    assert base.shifted(2).evaluate(1.3) == pytest.approx(base.evaluate(3.3))
