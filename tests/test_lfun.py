"""Multiple L-series: direct shell sums, tail estimates, continuation."""

import cmath
import math
import random

import numpy as np
import pytest
import scipy.special as sp

from moditer import forms, identities as idn, iterint, lfun, mzv
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
    # the last summed term, |(-2 pi i)^-8 shell[cutoff]|, lies inside the estimate
    last = abs(iterint._shells((delta6000,), (8.0,), CFG.cutoff)[-1]) / (2 * math.pi) ** 8
    assert last < a.tail_estimate


def test_continuation_matches_direct_sum(delta2100):
    d = delta2100
    got = lfun.L_continued((d, d), 16.0, (2,), CFG)
    want = lfun.L_direct(lfun.LSpec((d, d), (16.0, 2.0)), CFG).value
    assert abs(got - want) / abs(want) < 1e-10


def test_continuation_internal_constant_slot(delta2100, e4_2000):
    # the E4 slot in the middle leaves an internal constant slot in the
    # expansion, whose two by-parts merges carry opposite signs
    word = [delta2100, e4_2000, delta2100]
    got = lfun.L_continued(word, 17.0, (1, 2), CFG)
    want = lfun.L_direct(lfun.LSpec(tuple(word), (17.0, 1.0, 2.0)), CFG).value
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


def test_terms_share_targets_across_slots_holding_one_form(monkeypatch):
    # thI of (E6, E6) asks for L(E6; s+2) from slot 0 and from slot 1: one sum
    e6 = forms.builtin("E6", 2000)
    tl = idn.thI_expand([e6, e6], (2,))
    s0 = 16.3
    a0s = [complex(e6.a0)] * 2
    want = 0j
    for t in tl:  # one L_direct per term, summed in the same order
        args = tuple(idn.exp_at(a, s0) for a in t.target.args)
        sub = tuple(e6 for _ in t.target.indices)
        want += t.coeff.evaluate(s0, a0s) * lfun.L_direct(lfun.LSpec(sub, args), CFG).value
    calls = []
    real = lfun.L_direct
    monkeypatch.setattr(lfun, "L_direct", lambda spec, config: calls.append(spec) or real(spec, config))
    got = lfun.evaluate_L_terms(tl, [e6, e6], s0, CFG)
    assert got == want  # bit for bit
    by_slots = {(t.target.indices, tuple(idn.exp_at(a, s0) for a in t.target.args)) for t in tl}
    assert len(calls) == 3 < len(by_slots) == 4


def _cut_words(n_cases, cutoffs, seed):
    """Seeded words of depth 1-3 over the built-ins, their companions and
    mzv's G-16F, with exponents that let _shell_cut stop early."""
    order = max(cutoffs)
    pool = [forms.builtin(n, order) for n in ("delta", "E2", "E4", "E6", "E12", "F", "G")]
    pool += [pool[5].fricke, pool[6].fricke]
    gm = mzv._level4_pair()[1]  # built at a lower order: rebuilt here with its bound
    F, G = pool[5], pool[6]
    pool.append(forms.ModularForm(4, 2, "G-16F", tuple(b - 16 * a for a, b in zip(F.coeffs, G.coeffs)),
                                  growth=gm.growth))
    rng = random.Random(seed)
    cases = []
    while len(cases) < n_cases:
        word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        exps = tuple(complex(round(rng.uniform(1, 40), 3), rng.choice((0.0, round(rng.uniform(-3, 3), 3))))
                     for _ in word)
        cutoff = rng.choice(cutoffs)
        cut = iterint._shell_cut(word, exps, cutoff)
        if cut is not None:
            cases.append((word, exps, cutoff, cut[0]))
    return cases


def test_cut_drops_only_shells_below_rounding():
    # Over 200 seeded words where the cut applies: the cut cascade's shells
    # below T0 are the full cascade's, bit for bit; the shells dropped past
    # T0 sum to at most 2^-53 |S_n| and lie within tail_estimate; and the
    # value is the full cascade's sum up to them.  A sum that lands within
    # that much of a rounding boundary may round the other way, so the
    # value's distance to the full sum may also hold one unit in the last
    # place.
    depths = set()
    for word, exps, cutoff, T0 in _cut_words(200, (300, 600, 1000), seed=31):
        depths.add(len(word))
        got = lfun.L_direct(lfun.LSpec(word, exps), CFG.replace(cutoff=cutoff), force=True)
        full = iterint._shells(word, exps, cutoff)
        assert np.array_equal(iterint._shells(word, exps, T0)[:T0], full[:T0])
        sum_s = sum(exps)
        pref = iterint._closed_power(-2j * cmath.pi, -sum_s, lambda: "prefactor")
        unit = 2.0**-53 * abs(pref * full[len(word)])
        dropped = abs(pref) * np.abs(full[T0 + 1 :]).sum()
        assert dropped <= unit and dropped <= got.tail_estimate
        ref = pref * complex(full.sum())
        ulp = np.spacing(abs(ref.real)) + np.spacing(abs(ref.imag))
        gap = abs(got.value - ref)
        assert gap <= unit + ulp and gap <= got.tail_estimate + ulp
    assert depths == {1, 2, 3}


def test_uncut_sums_keep_the_full_cascade():
    # no growth bound, or a majorant exponent r >= -1: every shell is summed
    z = _sparse_form([0, 1, 1], "q+q2")
    assert iterint._shell_cut((z,), (30.0,), 2000) is None
    d = forms.builtin("delta", 100)
    assert iterint._shell_cut((d,), (7.0,), 100) is None  # r = 6 - 7 = -1
    # a_1 = 0: S_n = 0 leaves nothing to measure the tail against
    z2 = forms.ModularForm(1, 12, "q2", (0, 0, 1), growth=(1, 0))
    assert iterint._shell_cut((z2,), (30.0,), 2) is None
