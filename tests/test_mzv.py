"""Multiple zeta values: the three evaluation routes and their agreement."""

import itertools
import math

import pytest

from moditer import forms, iterint, mzv, qseries, quad
from moditer.config import NumericsConfig
from moditer.errors import DivergenceError, DomainError

CFG = NumericsConfig()
ZETA3 = 1.2020569031595942854
ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90


def test_index_validation():
    idx = mzv.MzvIndex((2, 1))
    assert idx.weight == 3 and idx.depth == 2
    assert idx.ascending == (1, 2)
    with pytest.raises(DomainError, match="outer exponent"):
        mzv.MzvIndex((1, 2))
    with pytest.raises(DomainError):
        mzv.MzvIndex(())
    with pytest.raises(DomainError):
        mzv.MzvIndex((2, 0))


def test_series_classical_values():
    assert mzv.mzv_series(mzv.MzvIndex((2,))) == pytest.approx(ZETA2, abs=1e-12)
    assert mzv.mzv_series(mzv.MzvIndex((3,))) == pytest.approx(ZETA3, abs=1e-12)
    assert mzv.mzv_series(mzv.MzvIndex((4,))) == pytest.approx(ZETA4, abs=1e-12)


def test_series_euler_identity():
    # zeta(2,1) = zeta(3); the evaluator knows nothing of the identity
    got = mzv.mzv_series(mzv.MzvIndex((2, 1)))
    assert abs(got - mzv.mzv_series(mzv.MzvIndex((3,)))) < 1e-8
    assert abs(got - ZETA3) < 1e-10


def test_series_shuffle_stuffle_checks():
    z = lambda *ks: mzv.mzv_series(mzv.MzvIndex(ks))
    # stuffle: zeta(2) zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5)
    assert z(2, 3) + z(3, 2) + z(5) == pytest.approx(ZETA2 * ZETA3, abs=1e-10)
    assert z(2, 2) == pytest.approx((ZETA2**2 - ZETA4) / 2, abs=1e-10)
    assert z(3, 1) == pytest.approx(ZETA4 / 4, abs=1e-10)
    assert z(2, 1, 1) == pytest.approx(ZETA4, abs=1e-10)


def test_series_cutoff_tail_replacement():
    # the Euler-Maclaurin tail makes small cutoffs already accurate
    assert mzv.mzv_series(mzv.MzvIndex((2,)), cutoff=100) == pytest.approx(
        ZETA2, abs=1e-11
    )
    with pytest.raises(DomainError):
        mzv.mzv_series(mzv.MzvIndex((2,)), cutoff=8)


def _admissible(max_weight):
    """Every index of weight <= max_weight whose first entry is >= 2."""
    for w in range(2, max_weight + 1):
        for depth in range(1, w):
            for cuts in itertools.combinations(range(1, w), depth - 1):
                ks = tuple(b - a for a, b in zip((0,) + cuts, cuts + (w,)))
                if ks[0] >= 2:
                    yield ks


def test_p1_against_series():
    # the series at cutoff 20000 is within 2.2e-16 of itself at 40000 here
    indices = list(_admissible(7))
    assert len(indices) == 63 and len(set(indices)) == 63
    for ks in indices:
        idx = mzv.MzvIndex(ks)
        value, err = mzv.p1_word_integral(mzv._word_flags(idx))
        assert value == mzv.mzv_p1_integral(idx)
        gap = abs(value - mzv.mzv_series(idx, cutoff=20000))
        assert gap <= err and gap <= 1e-14, ks


def test_p1_word_guards():
    assert mzv.p1_word_integral([]) == (1.0, 0.0)
    with pytest.raises(DivergenceError, match="divergent at 0"):
        mzv.p1_word_integral([0, 1])
    with pytest.raises(DivergenceError, match="divergent at 1"):
        mzv.p1_word_integral([1, 0, 1])


def test_modular_unit_integral_is_log2():
    # one F-layer from i-infinity to the reflection fixed point is the
    # half-interval integral of dt/(1-t), i.e. log 2
    f = forms.builtin("F", 256)
    got = 32j * math.pi * iterint.nested_quadrature(
        iterint.make_spec([(f, 1.0)]), iterint.IINF, 0.5j, CFG
    )
    assert abs(got - math.log(2)) < 1e-12


def lambda_modular(z):
    """Hauptmodul 16 F / G, from the order-256 forms the pullback route uses:
    it maps the upper imaginary axis to (0, 1), with 0 at i-infinity."""
    f, g = forms.builtin("F", 256), forms.builtin("G", 256)
    return 16 * forms.evaluate_at(f, z) / forms.evaluate_at(g, z)


def test_lambda_on_imaginary_axis():
    assert lambda_modular(0.5j) == pytest.approx(0.5, abs=1e-12)
    for y in (0.3, 0.5, 1.0, 2.0, 5.0):
        val = lambda_modular(1j * y)
        assert 0.0 < val.real < 1.0
        assert abs(val.imag) < 1e-12


def test_lambda_reflection_identity():
    for z in (0.4 + 0.7j, 1j, -0.2 + 1.3j):
        lhs = lambda_modular(-1 / (4 * z))
        assert abs(lhs - (1 - lambda_modular(z))) < 1e-12


@pytest.mark.parametrize(
    "ks,want,tol",
    [
        ((2,), ZETA2, 1e-6),
        ((3,), ZETA3, 1e-6),
        ((2, 1), ZETA3, 1e-5),
    ],
)
def test_modular_route(ks, want, tol):
    assert abs(mzv.mzv_modular_integral(mzv.MzvIndex(ks), CFG) - want) < tol


def test_modular_prefactor_restatement():
    idx = mzv.MzvIndex((2, 1))
    raw = mzv.modular_raw_integral(idx, CFG).value
    pref = (2j * math.pi) ** idx.weight * 16**idx.depth
    assert mzv.mzv_modular_integral(idx, CFG) == pytest.approx((pref * raw).real)
    # the raw integral really is zeta over the prefactor
    assert abs(pref * raw - mzv.mzv_series(idx)) < 1e-10


def test_three_way_agreement():
    for ks in [(2,), (3,), (4,), (2, 1)]:
        idx = mzv.MzvIndex(ks)
        a = mzv.mzv_series(idx)
        b = mzv.mzv_p1_integral(idx)
        c = mzv.mzv_modular_integral(idx, CFG)
        assert abs(a - b) <= 1e-13
        assert abs(a - c) < 1e-6
        assert abs(b - c) < 1e-6


SEVEN = [(2,), (3,), (4,), (2, 1), (3, 1), (2, 2), (2, 1, 1)]


@pytest.mark.parametrize("ks", SEVEN)
def test_modular_route_to_near_machine_precision(ks):
    idx = mzv.MzvIndex(ks)
    assert abs(mzv.mzv_modular_integral(idx, CFG) - mzv.mzv_series(idx)) <= 1e-13


def test_modular_route_is_one_iterint_report(monkeypatch):
    # one report per MZV; its 2w quadratures share one innermost cusp slot
    # on each side of the split, so they are the levels of two adaptive
    # sweeps, each a coarse and a fine sweep
    sweeps = []
    reports = []
    sweep, report = quad.iterated_integral, iterint.iterint_report
    monkeypatch.setattr(quad, "iterated_integral", lambda *a: sweeps.append(1) or sweep(*a))
    monkeypatch.setattr(iterint, "iterint_report", lambda *a: reports.append(1) or report(*a))
    for ks, want in [((3,), 4), ((2, 1), 4), ((4,), 4), ((3, 1), 4), ((2, 2), 4), ((2, 1, 1), 4)]:
        sweeps.clear()
        reports.clear()
        mzv.mzv_modular_integral(mzv.MzvIndex(ks), CFG)
        assert (len(reports), len(sweeps)) == (1, want), ks


def test_level4_companions_wired_both_ways():
    f, gm = mzv._level4_pair()
    assert forms.fricke_companion(forms.fricke_companion(gm)) is gm
    assert forms.fricke_companion(gm).coeffs == tuple(-16 * c for c in f.coeffs)
    # F|w4 = -(G-16F)/16
    assert forms.fricke_companion(f).coeffs == tuple(-c / 16 for c in gm.coeffs)
    for z in (0.3 + 0.8j, -0.1 + 0.6j):
        assert forms.fricke_evaluate(gm, z) == pytest.approx(
            forms.evaluate_at(forms.fricke_companion(gm), z), abs=1e-10
        )


def test_level4_pair_builds_each_series_once(monkeypatch):
    built = []
    build = qseries.builtin_form
    monkeypatch.setattr(qseries, "builtin_form", lambda *a: built.append(a[0]) or build(*a))
    # an empty builtin memo too, so every series the pair needs is built here
    forms.builtin.cache_clear()
    mzv._level4_pair.cache_clear()
    pair = mzv._level4_pair()
    assert sorted(built) == ["F", "G"]
    # cached: a second call builds nothing and returns the same forms
    assert mzv._level4_pair() is pair
    assert sorted(built) == ["F", "G"]
