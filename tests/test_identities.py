"""Exact checks for the symbolic expansion machinery.

Everything here is rational arithmetic: coefficients, binomial transforms,
and the round trip between the two expansion directions must hold exactly,
not just numerically.  An identity between coefficients is checked in exact
rationals at the points POINTS; the degree bound of assert_vanishes makes
that finite check a proof.
"""

import hashlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special as sp

import moditer
from moditer import forms, identities as idn
from moditer.errors import DomainError, PoleError

F1 = Fraction(1)
POINTS = [k + Fraction(1, 3) for k in range(40)]


def coeff_key(t):
    c = t.coeff
    return (c.rat, c.gamma_num, c.gamma_den, c.lin_num, c.lin_den, c.a0_idx, t.target)


def prod(xs):
    return math.prod(xs, start=F1)


def reduced(c, shift=0):
    """c(s + shift) = Gamma(s)^gpow * r(s) by Gamma(s + g) = Gamma(s) (s)_g.
    Returns gpow, a bound on deg(numerator) + deg(denominator) of the
    rational function r, and r's exact values at POINTS."""
    up = [g + shift for g in c.gamma_num]
    down = [g + shift for g in c.gamma_den]
    assert min(up + down, default=0) >= 0
    rising = lambda s, gs: prod(s + i for g in gs for i in range(g))
    linear = lambda s, cs: prod(s + x + shift for x in cs)
    values = [
        c.rat * rising(s, up) * linear(s, c.lin_num) / (rising(s, down) * linear(s, c.lin_den))
        for s in POINTS
    ]
    return len(up) - len(down), sum(up) + sum(down) + len(c.lin_num) + len(c.lin_den), values


def assert_vanishes(products):
    """products: (target, a0_idx, factors), the coefficient being the product
    of c(s + shift) over factors = [(c, shift), ...].  Each (target, a0_idx,
    gpow) bucket sums to Gamma(s)^gpow times a rational function whose
    numerator has degree at most the summed degree of its terms, and none of
    whose denominators vanishes at POINTS; so a bucket that vanishes at more
    POINTS than that degree vanishes identically."""
    buckets = {}
    for target, a0_idx, factors in products:
        gpow, degree, values = 0, 0, [F1] * len(POINTS)
        for c, shift in factors:
            g, d, v = reduced(c, shift)
            gpow, degree, values = gpow + g, degree + d, [a * b for a, b in zip(values, v)]
        bucket = buckets.setdefault((target, a0_idx, gpow), [0, [0] * len(POINTS)])
        bucket[0] += degree
        bucket[1] = [a + b for a, b in zip(bucket[1], values)]
    for key, (degree, sums) in buckets.items():
        assert degree < len(POINTS), key
        assert not any(sums), key


def transform(data, family):
    """Binomial transform of {(zpow, alphas): Fraction} over one index family."""
    out = {}
    for (zpow, alphas), c in data.items():
        for J, w, new in family(alphas):
            key = (zpow + (J[0] if J else 0), new)
            out[key] = out.get(key, 0) + c * w
    return {k: v for k, v in out.items() if v}


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
    S, I = idn.SPlus, idn.ITarget
    expected = [  # target, a0_idx, rat, lin_den of the Gamma(s)^-1 coefficient
        (I((0, 1), (S(0), 2)), (), F1, ()),
        (I((0, 1), (S(1), 1)), (), -F1, ()),
        (I((0,), (S(2),)), (1,), Fraction(1, 2), ()),
        # 1/s - 1/(s+1) collapses to 1/(s(s+1))
        (I((1,), (S(2),)), (0,), F1, (0, 1)),
    ]
    products = [(t.target, t.coeff.a0_idx, [(t.coeff, 0)]) for t in idn.thS_expand([f, f], (2,))]
    for target, a0_idx, rat, lin_den in expected:
        minus = idn.Coeff(-rat, gamma_den=(0,), lin_den=lin_den)
        products.append((target, a0_idx, [(minus, 0)]))
    assert_vanishes(products)


@pytest.mark.parametrize("alphas", [(), (2,), (3,), (2, 2), (3, 1)])
def test_round_trip_collapses_to_identity(alphas):
    # For cusp words, expanding I into L-values and each L-value back into
    # integrals must return the original integral with coefficient 1.
    d = forms.builtin("delta", 4)
    n = len(alphas) + 1
    word = [d] * n
    target = idn.ITarget(tuple(range(n)), (idn.SPlus(0),) + tuple(alphas))
    products = [(target, (), [(idn.Coeff(-F1), 0)])]
    for t in idn.thI_expand(word, alphas):
        assert t.target.indices == tuple(range(n))  # cusp parts only
        off = t.target.args[0].off
        for u in idn.thS_expand(word, t.target.args[1:]):
            args = tuple(a + off if isinstance(a, idn.SPlus) else a for a in u.target.args)
            a0_idx = tuple(sorted(t.coeff.a0_idx + u.coeff.a0_idx))
            products.append(
                (idn.ITarget(u.target.indices, args), a0_idx, [(t.coeff, 0), (u.coeff, off)])
            )
    assert_vanishes(products)


def test_binomial_transforms_are_mutually_inverse():
    fwd, inv = idn._chained_family, idn._alternating_family
    rng = random.Random(31)
    for _ in range(20):
        data = {}
        for _ in range(rng.randint(1, 5)):
            alphas = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            key = (rng.randint(0, 3), alphas)
            data[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        data = {k: v for k, v in data.items() if v}
        assert transform(transform(data, fwd), inv) == data
        assert transform(transform(data, inv), fwd) == data


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
            direct = complex(c.evaluate(s0))
            via = (
                float(c.rat)
                * math.prod(sp.gamma(s0 + g) for g in c.gamma_num)
                / math.prod(sp.gamma(s0 + g) for g in c.gamma_den)
                * math.prod(s0 + x for x in c.lin_num)
                / math.prod(s0 + x for x in c.lin_den)
            )
            assert abs(direct - via) <= 1e-12 * abs(via), (s0, c)


def test_coeff_constant_term_positions():
    c = idn.Coeff(rat=Fraction(1), a0_idx=(0, 1, 1))
    assert c.evaluate(2.0, (2.0, 3.0)) == pytest.approx(18.0)


def test_all_names_resolve():
    # `from m import *` raises on an __all__ entry that m no longer defines
    names = ["moditer"] + [f"moditer.{m.name}" for m in pkgutil.iter_modules(moditer.__path__)]
    for name in names:
        exec(f"from {name} import *", {})


# The SHA-256 of the term lists below; a change of term order, of a
# coefficient's exact form or of a target's representation changes it even
# where the values at rational points agree.
TERM_LIST_DIGEST = "6350640df271e6a92fb7fc23def4c85af4f0764ddff1b78758efd08755c6efbd"


def test_term_lists_pinned():
    # every word of 1-3 forms with a0 in {0, 1, -3/2} and exponents 1-3;
    # expansions read only a0 off each form
    h = hashlib.sha256()
    count = 0
    for n in range(1, 4):
        for a0s in itertools.product((0, 1, Fraction(-3, 2)), repeat=n):
            word = [SimpleNamespace(a0=a) for a in a0s]
            for alphas in itertools.product((1, 2, 3), repeat=n - 1):
                for expand in (idn.thI_expand, idn.thS_expand):
                    for t in expand(word, alphas):
                        key = (t.coeff, type(t.target).__name__, t.target.indices, t.target.args)
                        h.update(repr(key).encode() + b"\n")
                        count += 1
    assert count == 9888
    assert h.hexdigest() == TERM_LIST_DIGEST
