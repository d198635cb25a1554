"""Multiple L-series: direct shell sums, tail estimates, continuation."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from moditer import forms, identities as idn, iterint, lfun
from moditer.config import NumericsConfig
from moditer.errors import DivergenceError, DomainError, PoleError, TruncationError

CFG = NumericsConfig()


def test_spec_validation():
    f = forms.builtin("E4", 8)
    with pytest.raises(DomainError):
        lfun.LSpec((f,), (2.0, 3.0))
    with pytest.raises(DomainError):
        lfun.LSpec((), ())


def test_requires_enough_coefficients():
    f = forms.builtin("E4", 50)
    with pytest.raises(TruncationError, match="coefficients"):
        lfun.L_direct(lfun.LSpec((f,), (9.0,)), CFG)


def test_convergence_thresholds():
    d = forms.builtin("delta", 8)
    e4 = forms.builtin("E4", 8)
    assert lfun.convergence_threshold(lfun.LSpec((d,), (0.0,))) == 7.0
    assert lfun.convergence_threshold(lfun.LSpec((e4,), (0.0,))) == 4.5
    assert lfun.convergence_threshold(lfun.LSpec((e4, e4), (0.0, 2.0))) == 7.0
    assert lfun.convergence_threshold(lfun.LSpec((d, d), (0.0, 2.0))) == 12.0
    # a heavy inner argument costs nothing extra
    assert lfun.convergence_threshold(lfun.LSpec((d, d), (0.0, 9.0))) == 7.0


def test_eisenstein_euler_factorization(e4_200):
    # L(E_4; s) = 240 zeta(s) zeta(s-3) up to the (-2 pi i)^{-s} prefactor
    f = forms.builtin("E4", 2100)
    got = lfun.L_direct(lfun.LSpec((f,), (6.0,)), CFG)
    want = (-2j * math.pi) ** (-6.0) * 240 * sp.zeta(6.0) * sp.zeta(3.0)
    assert abs(got.value - want) / abs(want) < 1e-6
    assert abs(got.value - want) <= got.tail_estimate


def test_divergence_guard_and_force(delta2100):
    spec = lfun.LSpec((delta2100,), (6.0,))
    with pytest.raises(DivergenceError, match="force=True"):
        lfun.L_direct(spec, CFG)
    forced = lfun.L_direct(spec, CFG, force=True)
    assert np.isfinite(forced.value.real)
    assert forced.tail_estimate > 1e-6  # honest: the sum has not settled


def test_integral_is_gamma_times_L(delta2100):
    I8 = iterint.iterint_full(iterint.make_spec([(delta2100, 8.0)]), CFG)
    L8 = lfun.L_direct(lfun.LSpec((delta2100,), (8.0,)), CFG)
    assert abs(I8 + math.gamma(8) * L8.value) / abs(I8) < 1e-7


def test_tail_estimate_honest(delta6000):
    a = lfun.L_direct(lfun.LSpec((delta6000,), (8.0,)), CFG)
    b = lfun.L_direct(lfun.LSpec((delta6000,), (8.0,)), CFG.replace(cutoff=4000))
    assert abs(a.value - b.value) <= a.tail_estimate
    assert abs(a.last_shell) < a.tail_estimate


def test_continuation_matches_direct_sum(delta2100):
    d = delta2100
    got = lfun.L_continued((d, d), 16.0, (2,), CFG)
    want = lfun.L_direct(lfun.LSpec((d, d), (16.0, 2.0)), CFG).value
    assert abs(got - want) / abs(want) < 1e-10


def test_continuation_below_threshold(delta2100):
    # At s = 2 the shell sum diverges; the continued value must agree with
    # the functional-equation image, a plainly convergent classical series.
    d = delta2100
    got = lfun.L_continued((d,), 2.0, (), CFG)
    shifted = sum(complex(d.coeffs[m]) / m**10 for m in range(1, 2100))
    want = (-2j * math.pi) ** (-2.0) * (2 * math.pi) ** (-8.0) * math.gamma(10) * shifted
    assert abs(got - want) / abs(want) < 1e-10


def test_continuation_pole_named(e4_200):
    f = forms.builtin("E4", 2100)
    with pytest.raises(PoleError, match=r"s_1 - 4"):
        lfun.L_continued((f,), 4.0, (), CFG)


def test_continuation_trivial_zeros(delta2100):
    # every thS coefficient of a cusp word carries 1/Gamma(s), which vanishes
    # at s = 0, -1, ... with nothing to cancel it
    d = delta2100
    for s in (0.0, -1.0):
        assert lfun.L_continued([d, d], s, (2,)) == 0


def test_expansion_round_trips_numeric():
    f = forms.builtin("E4", 2100)
    tl = idn.thI_expand([f, f], (2,))
    via_L = lfun.evaluate_L_terms(tl, [f, f], 8.0, CFG)
    direct_I = iterint.iterint_full(iterint.make_spec([(f, 8.0), (f, 2.0)]), CFG)
    assert abs(via_L - direct_I) / abs(direct_I) < 1e-5

    tls = idn.thS_expand([f, f], (2,))
    via_I = lfun.evaluate_I_terms(tls, [f, f], 8.0, CFG)
    direct_L = lfun.L_direct(lfun.LSpec((f, f), (8.0, 2.0)), CFG).value
    assert abs(via_I - direct_L) / abs(direct_L) < 1e-5


def test_round_trip_continues_each_subword():
    # a non-cuspidal word's thI expansion has one-form targets; each L is
    # continued on its own subword, not on the whole word
    e4, d = forms.builtin("E4", 400), forms.builtin("delta", 400)
    tl = idn.thI_expand([e4, d], (2,))
    assert any(len(t.target.indices) == 1 for t in tl)
    got = lfun._evaluate_terms(
        tl, [e4, d], 9.0,
        lambda sub, args: lfun.L_continued(sub, args[0], [int(a.real) for a in args[1:]], CFG),
    )
    want = iterint.iterint_report(iterint.make_spec([(e4, 9.0), (d, 2.0)]), CFG).value
    assert abs(got - want) <= 1e-12 * abs(want)


def _sparse_form(coeffs, label):
    from moditer.qseries import QSeries

    return forms.from_qseries(QSeries(tuple(coeffs), 2100), weight=12, level=1, label=label)


def test_zero_form_sums_to_zero():
    z = _sparse_form([0], "zero")
    got = lfun.L_direct(lfun.LSpec((z,), (9.0,)), CFG, force=True)
    assert got.value == 0 and got.tail_estimate == 0


def test_prefactor_branch():
    # (-2 pi i)^{-s} on the principal branch: |pref| = (2 pi)^{-Re s} e^{-pi Im s / 2}
    z = _sparse_form([0, 1], "q")
    s = 8.0 + 0.5j
    got = lfun.L_direct(lfun.LSpec((z,), (s,)), CFG, force=True)
    want = cmath.exp(-s * cmath.log(-2j * cmath.pi))
    assert abs(got.value - want) / abs(want) < 1e-14
