"""Iterated integrals: quadrature engine, closed forms, the split at
i/sqrt(N), and the Fourier evaluator for the shifted integrals."""

import cmath
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moditer import forms, iterint, mzv
from moditer.config import NumericsConfig
from moditer.errors import AccuracyError, DivergenceError, DomainError, PoleError
from moditer.iterint import IINF, make_spec, nested_quadrature, ones_closed_form

CFG = NumericsConfig()


def qmode(m, label="mode"):
    """Single Fourier mode e^{2 pi i m z} packaged as a level-1 form."""
    return forms.ModularForm(level=1, weight=12, label=f"{label}{m}", coeffs=(0,) * m + (1,))


# --- direct quadrature ----------------------------------------------------

def test_single_mode_example():
    # int_{i inf}^{i} e^{2 pi i z} dz = e^{-2 pi} / (2 pi i)
    spec = make_spec([(qmode(1), 1)])
    val = nested_quadrature(spec, IINF, 1j, CFG)
    assert abs(val - cmath.exp(-2 * math.pi) / (2j * math.pi)) < 1e-14


def test_pure_power_example():
    # int_{i inf}^{i} z^{-3} dz = 1/2
    spec = make_spec([(1, -2)], level=1)
    assert abs(nested_quadrature(spec, IINF, 1j, CFG) - 0.5) < 1e-10


def test_divergence_guard():
    spec = make_spec([(1, 0.5)], level=1)
    with pytest.raises(DivergenceError):
        nested_quadrature(spec, IINF, 1j, CFG)


def test_word_order_against_hand_rolled():
    # I(1, q-mode; -2, 1): the mode is innermost, so the outer integrand is
    # t^{-3} e^{2 pi i t} / (2 pi i); integrate by brute panels
    spec = make_spec([(1, -2), (qmode(1), 1)], level=1)
    mine = nested_quadrature(spec, IINF, 1j, CFG)
    xs, ws = np.polynomial.legendre.leggauss(60)
    hand = 0j
    for k in range(60):
        lo, hi = 1j * (1 + k), 1j * (2 + k)
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        t = mid + h * xs
        hand += h * np.sum(ws * np.exp(2j * np.pi * t) / (2j * np.pi) * t ** (-3.0))
    hand = -hand  # path runs downward
    assert abs(mine - hand) < 1e-12


# --- all-ones closed form ---------------------------------------------------

def test_ones_examples():
    assert abs(ones_closed_form(1j, (-1, -1)) - (-0.5)) < 1e-14
    assert abs(ones_closed_form(0.5j, (-2,)) - 2.0) < 1e-14


def test_ones_pole_names_divisor():
    # the full message: a substring match would let "s_1 + s_2" pass for "s_2"
    for s, label in [((1, -1), "s_1 + s_2"), ((-1, 0), "s_2"), ((2, -1, -1), "s_1 + s_2 + s_3"),
                     ((1, -1, 0), "s_3"), ((0, 1, -1), "s_2 + s_3"), ((-2, 1, 1), "s_1 + s_2 + s_3")]:
        with pytest.raises(PoleError) as hit:
            ones_closed_form(1j, s)
        assert str(hit.value) == f"pole divisor hit: {label} = 0"


def test_ones_overflow_is_named():
    # |b^s| = 2^(1e308) is past the float range; so is the piece of G's report
    with pytest.raises(DomainError, match="leaves the float range"):
        ones_closed_form(0.5j, (-1e308,))
    with pytest.raises(DomainError, match="leaves the float range"):
        iterint.iterint_report(make_spec([(forms.builtin("G", 64), -1e308)]))


def test_completed_Z_overflow_is_named():
    # 64^1050 is past the float range: the scale N^(s/2) of Z ends in a named error
    with pytest.raises(DomainError, match="leaves the float range$"):
        iterint.completed_Z(make_spec([(forms.builtin("G", 64), 2100.0)]))


def test_ones_continuation_matches_quadrature():
    rng = random.Random(7)
    for _ in range(5):
        s2 = complex(rng.uniform(-3, -0.5), rng.uniform(-1, 1))
        tot = complex(rng.uniform(-3, -0.5), rng.uniform(-1, 1))
        s1 = tot - s2
        closed = ones_closed_form(1j, (s1, s2))
        spec = make_spec([(1, s1), (1, s2)], level=1)
        assert abs(closed - nested_quadrature(spec, IINF, 1j, CFG)) < 1e-8


# --- path calculus: composition, reversal, shuffle --------------------------

def test_composition_split():
    w = [(qmode(1), 1.3), (qmode(2), 0.8)]
    whole = nested_quadrature(make_spec(w), IINF, 0.7j, CFG)
    mid = 2j
    # outer block rides the final segment, inner block the initial one
    parts = (
        nested_quadrature(make_spec(w), IINF, mid, CFG)
        + nested_quadrature(make_spec([w[0]]), mid, 0.7j, CFG)
        * nested_quadrature(make_spec([w[1]]), IINF, mid, CFG)
        + nested_quadrature(make_spec(w), mid, 0.7j, CFG)
    )
    assert abs(whole - parts) < 1e-10 * max(1.0, abs(whole))


def test_reversal():
    w = [(qmode(1), 2.0), (qmode(1), -1.0)]
    fwd = nested_quadrature(make_spec(w), 2j, 0.8j, CFG)
    rev = nested_quadrature(make_spec(list(reversed(w))), 0.8j, 2j, CFG)
    assert abs(fwd - rev) < 1e-12  # (-1)^2 = +1


def test_shuffle_identity():
    a, b = 2j, 0.9j
    first = [(qmode(1), 1.0)]
    second = [(qmode(2), 0.5), (qmode(1), 1.5)]
    # path-order kernel lists; spec notation is the reverse
    combined = list(reversed(first)) + list(reversed(second))
    lhs = nested_quadrature(make_spec(first), a, b, CFG) * nested_quadrature(
        make_spec(second), a, b, CFG
    )
    rhs = 0j
    for word in iterint.shuffles(1, 2):
        path_word = [combined[i] for i in word]
        rhs += nested_quadrature(make_spec(list(reversed(path_word))), a, b, CFG)
    assert abs(lhs - rhs) < 1e-10


@given(st.integers(1, 4), st.integers(1, 4))
def test_shuffles_combinatorics(k, l):
    words = iterint.shuffles(k, l)
    assert len(words) == math.comb(k + l, k)
    for w in words:
        assert sorted(w) == list(range(k + l))
        first = [i for i in w if i < k]
        second = [i for i in w if i >= k]
        assert first == sorted(first) and second == sorted(second)
    assert len(set(words)) == len(words)


# --- full integrals to the cusp 0 -------------------------------------------

def test_mellin_transform_oracle(delta2100):
    # I(Delta; 8) = -i^8 (2 pi)^{-8} Gamma(8) sum tau(m) m^{-8}
    I1 = iterint.iterint_full(make_spec([(delta2100, 8.0)]), CFG)
    L1 = sum(complex(delta2100.coeffs[m]) / m ** 8 for m in range(1, 2100))
    ref = -((2 * math.pi) ** (-8)) * math.gamma(8.0) * L1
    assert abs(I1 - ref) / abs(ref) < 5e-8  # oracle truncation dominates


def test_functional_equation_delta(delta2100):
    Z = lambda s: iterint.completed_Z(make_spec([(delta2100, s)]), CFG)
    for s in (5.0, 5.5):
        lhs, rhs = Z(s), cmath.exp(1j * cmath.pi * s) * Z(12 - s)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_functional_equation_level4():
    F = forms.builtin("F", 300)
    Z = lambda f, s: iterint.completed_Z(make_spec([(f, s)]), CFG)
    s = 0.7
    lhs = Z(F, s)
    rhs = cmath.exp(1j * cmath.pi * s) * Z(forms.fricke_companion(F), 2 - s)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_pair_functional_equation(delta2100):
    spec = make_spec([(delta2100, 16.0), (delta2100, 2.0)])
    refl = make_spec([(delta2100, 10.0), (delta2100, -4.0)])
    lhs = iterint.completed_Z(spec, CFG)
    rhs = cmath.exp(18j * cmath.pi) * iterint.completed_Z(refl, CFG)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_depth2_shell_sum_oracle(delta2100):
    # I(Delta,Delta; s,alpha) = sum_j C(alpha-1,j) Gamma(s+j)Gamma(alpha-j)
    #                                 L(s+j, alpha-j)   for cusp forms
    tau = np.array([0.0] + [float(delta2100.coeffs[m]) for m in range(1, 2001)])

    def S(a, b):
        tot = 0.0
        for T in range(2, 2001):
            m2 = np.arange(1, T)
            tot += np.sum(tau[T - m2] * tau[m2] / m2 ** float(b)) / T ** float(a)
        return tot

    pref = (-2j * math.pi) ** (-18)
    oracle = pref * (
        math.gamma(16) * math.gamma(2) * S(16, 2)
        + math.gamma(17) * math.gamma(1) * S(17, 1)
    )
    got = iterint.iterint_full(make_spec([(delta2100, 16.0), (delta2100, 2.0)]), CFG)
    assert abs(got - oracle) / abs(oracle) < 1e-9


def test_poles_on_divisors(e4_200):
    with pytest.raises(PoleError, match="s_1 - 4"):
        iterint.iterint_full(make_spec([(e4_200, 4.0)]), CFG)
    with pytest.raises(PoleError, match="s_1"):
        iterint.iterint_full(make_spec([(e4_200, 0.0)]), CFG)


def test_report_divisors(delta2100, e4_200):
    rep = iterint.iterint_report(make_spec([(delta2100, 6.0)]), CFG)
    assert rep.divisors == ()
    assert rep.err_estimate < 1e-10
    rep4 = iterint.iterint_report(make_spec([(e4_200, 7.3)]), CFG)
    assert set(rep4.divisors) == {"s_1", "s_1 - 4"}


def test_multilinear_fold_one_quadrature_per_cusp_slot(monkeypatch, e4_200):
    # every slot of E4^5 has a nonzero constant term, so each of the 12
    # pieces of the split needs one quadrature per slot, 30 in all; the
    # pieces sharing an innermost cusp slot are levels of one adaptive sweep,
    # one per slot on each side of the split
    calls = []
    adaptive = iterint.quad.adaptive_iterated

    def counting(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(iterint.quad, "adaptive_iterated", counting)
    s = (1.5, 2.5, 1.7, 2.2, 3.1 + 0.2j)
    iterint.iterint_report(make_spec([(e4_200, x) for x in s]), CFG)
    assert len(calls) == 10
    assert sorted(len(args[0]) for args in calls) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


# Bits of value, err and the divisors as one adaptive quadrature per piece and
# cusp slot computed them; the shared sweeps must reproduce every bit.
PINNED_CFG = NumericsConfig(order=64, height=12.0, panels=64, tol=1e-8, cutoff=2000)
E4_5 = [("E4", 200, s) for s in (1.5, 2.5, 1.7, 2.2, 3.1 + 0.2j)]
PINNED_REPORTS = [
    pytest.param([("delta", 64, 8.0)],
                 ("-0x1.fa39dfa553d16p-10", "0x1.5d0fc080e4482p-60"), "0x1.0000000000004p-63",
                 (), id="delta"),
    pytest.param([("delta", 2100, 9.0), ("delta", 2100, 2.0)],
                 ("-0x1.a68d3693be316p-70", "-0x1.f7f1bdfe3620ap-22"), "0x1.5147422eadb59p-74",
                 (), id="delta-delta"),
    pytest.param(E4_5,
                 ("-0x1.a40ad28da9e93p-14", "-0x1.01d0e23fee55fp-10"), "0x1.f69bfcc8fd69ap-58",
                 ("s_5", "s_4 + s_5", "s_3 + s_4 + s_5", "s_2 + s_3 + s_4 + s_5",
                  "s_1 + s_2 + s_3 + s_4 + s_5", "s_1 - 4", "s_2 - 4 + s_1 - 4",
                  "s_3 - 4 + s_2 - 4 + s_1 - 4", "s_4 - 4 + s_3 - 4 + s_2 - 4 + s_1 - 4",
                  "s_5 - 4 + s_4 - 4 + s_3 - 4 + s_2 - 4 + s_1 - 4"), id="E4x5"),
    pytest.param([("G", 64, 0.5 + 0.3j), ("F", 64, 1.7), ("G", 64, 2.1)],
                 ("0x1.c723a05a42a5ap-12", "0x1.71d52834425dbp-12"), "0x1.6013974becc5cp-64",
                 ("s_3", "s_1 - 2", "s_2 - 2 + s_1 - 2", "s_3 - 2 + s_2 - 2 + s_1 - 2"),
                 id="G-F-G"),
    pytest.param([("E4", 64, 2.2), ("delta", 64, 7.1), ("E6", 64, 3.3)],
                 ("0x1.24ff524958a03p-12", "0x1.9346b89b6b962p-12"), "0x1.7744d2a38973ep-61",
                 ("s_3", "s_1 - 4"), id="E4-delta-E6"),
]


def _bits(z):
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("word, value, err, divisors", PINNED_REPORTS)
def test_report_bits_pinned(word, value, err, divisors):
    spec = make_spec([(forms.builtin(name, order), x) for name, order, x in word])
    rep = iterint.iterint_report(spec, PINNED_CFG)
    assert (_bits(rep.value), rep.err_estimate.hex(), rep.divisors) == (value, err, divisors)


def test_library_ignores_moditer_env(monkeypatch):
    # only the CLI reads MODITER_*: a library value depends on its arguments
    spec = make_spec([(forms.builtin("delta", 64), 8.0)])
    want = iterint.iterint_report(spec)
    monkeypatch.setenv("MODITER_PANELS", "4")
    monkeypatch.setenv("MODITER_TOL", "junk")
    literal = NumericsConfig(order=64, height=12.0, panels=6, tol=1e-8, cutoff=2000)
    assert NumericsConfig() == literal
    got = iterint.iterint_report(spec)
    assert _bits(got.value) == _bits(want.value)
    assert got.err_estimate.hex() == want.err_estimate.hex()


def test_mzv_pullback_and_shuffle_word_bits_pinned():
    rep = mzv.modular_raw_integral(mzv.MzvIndex((2, 1, 1)), PINNED_CFG)
    assert (_bits(rep.value), rep.err_estimate.hex(), rep.divisors) == (
        ("0x1.6c16c16c16c16p-23", "-0x1.452b008fc9ff8p-74"), "0x1.64ad6682c0083p-75", ())
    d = forms.builtin("delta", 300)
    word = make_spec([(d, 1.3 + 0.2j), (d, 2.1 - 0.4j), (d, 1.7)])
    assert _bits(nested_quadrature(word, 1.5j, 0.35j, PINNED_CFG)) == (
        "0x1.db7054bfd1df0p-29", "-0x1.2979fa8534ad5p-26")


GRID_POOLS = {1: ("delta", "E4", "E6", "E8", 1), 4: ("F", "G", 1)}


def _grid_case(rng):
    """A random report: depth 1-4 over one level's built-ins, cusp forms and
    forms with a constant term, the constant 1 too; real and complex
    exponents 0.5 clear of every pole divisor (trailing sums s_j + .. + s_n
    on the plain side, (s_1 - k_1) + .. + (s_j - k_j) on the reflected one)."""
    level = rng.choice((1, 4))
    depth = rng.randint(1, 4)
    while True:
        names = [rng.choice(GRID_POOLS[level]) for _ in range(depth)]
        word = [(n if n == 1 else forms.builtin(n, 64)) for n in names]
        s = [complex(rng.uniform(-1, 8), rng.uniform(-1, 1) if rng.random() < 0.5 else 0)
             for _ in names]
        k = [0 if f == 1 else f.weight for f in word]
        divisors = [sum(s[j:]) for j in range(depth)]
        divisors += [sum(x - w for x, w in zip(s[: j + 1], k[: j + 1])) for j in range(depth)]
        if any(f != 1 for f in word) and min(map(abs, divisors)) >= 0.5:
            return make_spec(list(zip(word, s)), level), rng.choice((12.0, 20.0, 30.0))


def test_default_grid_agrees_with_64_panels():
    # Each report on the default grid lies within both reports' err (plus
    # rounding, which err does not yet cover) of the one on 64 panels.
    rng = random.Random(20)
    eps = np.finfo(float).eps
    bad = []
    for case in range(200):
        spec, height = _grid_case(rng)
        got = iterint.iterint_report(spec, NumericsConfig(height=height))
        r64 = iterint.iterint_report(spec, NumericsConfig(panels=64, height=height))
        bound = got.err_estimate + r64.err_estimate + 64 * eps * abs(r64.value)
        if not abs(got.value - r64.value) <= bound:
            bad.append((case, spec, height, abs(got.value - r64.value), bound))
    assert bad == []


def test_report_keeps_no_form_alive():
    # the kernel memo and the sweeps live for one call; a cusp part is kept
    # on its form and freed with it.  The forms are built outside the
    # builtin memo, so only a reference held by iterint could keep them.
    e4, d, g, f = (forms.builtin.__wrapped__(n, 64) for n in ("E4", "delta", "G", "F"))
    iterint.iterint_report(make_spec([(e4, 2.2), (d, 7.1), (e4, 3.3)]), CFG)
    iterint.iterint_report(make_spec([(g, 0.5 + 0.3j), (f, 1.7), (g, 2.1)]), CFG)
    nested_quadrature(make_spec([(d, 1.3), (e4, 2.0)]), 1.5j, 0.35j, CFG)
    assert forms.cusp_part(e4) is forms.cusp_part(e4)
    used = [h for form in (e4, d, g, f) for h in (form, form.fricke)]
    refs = [weakref.ref(h) for h in used + [forms.cusp_part(h) for h in used]]
    del e4, d, g, f, used
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


NON_CUSPIDAL_DEPTH3 = (
    (("E4", "delta", "E6"), (2.2, 7.1, 3.3)),
    (("G", "F", "G"), (0.5 + 0.3j, 1.7, 2.1)),
)


def test_report_divisors_non_cuspidal_depth3():
    got = []
    for names, s in NON_CUSPIDAL_DEPTH3:
        word = [(forms.builtin(n, 64), x) for n, x in zip(names, s)]
        got.append(iterint.iterint_report(make_spec(word), CFG).divisors)
    assert got == [
        ("s_3", "s_1 - 4"),
        ("s_3", "s_1 - 2", "s_2 - 2 + s_1 - 2", "s_3 - 2 + s_2 - 2 + s_1 - 2"),
    ]


@pytest.mark.parametrize("names,s", NON_CUSPIDAL_DEPTH3)
def test_functional_equation_non_cuspidal_depth3(names, s):
    # Z(f_1..f_n; s) = e^{i pi sum s} Z(f~_n..f~_1; k_n - s_n, .., k_1 - s_1)
    word = [(forms.builtin(n, 64), x) for n, x in zip(names, s)]
    refl = [(forms.fricke_companion(f), f.weight - x) for f, x in reversed(word)]
    lhs = iterint.completed_Z(make_spec(word), CFG)
    rhs = cmath.exp(1j * cmath.pi * sum(s)) * iterint.completed_Z(make_spec(refl), CFG)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_zero_form_piece_consults_no_divisor(e4_200):
    zero = forms.ModularForm(1, 4, "zero", (0,) * 201)
    forms._set_fricke(zero, zero)
    divisors = []
    kernels = make_spec([(e4_200, 2.5), (zero, 1.5)]).kernels
    side = iterint._Side(list(reversed(kernels)), ["s_2", "s_1"], 1j, None)
    assert side.piece(2, divisors) == (0, 0.0)
    assert divisors == []
    # only the plain piece (E4; s_2) is nonzero and consults a divisor
    rep = iterint.iterint_report(make_spec([(zero, 1.5), (e4_200, 2.5)]), CFG)
    assert rep.value == 0 and rep.divisors == ("s_2",)


def _zero_form(level, weight):
    zero = forms.ModularForm(level, weight, f"zero{level}", (0,) * 65)
    forms._set_fricke(zero, zero)
    return zero


ZERO_FORMS = {"Z": (1, 4), "Z4": (4, 2)}

# The full divisors tuple, or the full PoleError message, of reports with
# constant slots, zero forms and partial sums exactly on 0, computed where
# each term rebuilt its own fold: the lazy folds must keep that first-seen
# order and that first pole.  A substring match would let "s_1 + s_2" pass
# for "s_1".
POLE_WORDS = [
    (((1, 2.0), ("E4", 2.0)), "pole divisor hit: s_2 - 4 + s_1 = 0"),
    ((("E4", 1.5), (1, -1.5)), "pole divisor hit: s_1 + s_2 = 0"),
    (((1, 1.0), (1, -1.0), ("delta", 3.0)), "pole divisor hit: s_2 + s_1 = 0"),
    ((("Z", 1.5), (1, -2.0)), ("s_2",)),
    ((("E4", 2.5), ("Z", 1.5), (1, -2.0)), ("s_1 - 4", "s_3")),
    ((("E4", 4.0),), "pole divisor hit: s_1 - 4 = 0"),
    ((("E4", 2.0), ("E6", -2.0)), "pole divisor hit: s_1 + s_2 = 0"),
    ((("delta", 12.0),), ()),
    (((1, 1.0), ("delta", -1.0)), ("s_1",)),
    ((("E4", 4.0), (1, 1.0), ("E6", 2.0)), "pole divisor hit: s_1 - 4 = 0"),
    ((("E6", 3.0), ("E4", 3.0), (1, -3.0)), "pole divisor hit: s_2 + s_3 = 0"),
    ((("E4", 2.0), ("Z", 2.0), ("E6", 3.0)), ("s_1 - 4", "s_3")),
    (((1, 0.5), ("E4", 2.5), (1, 1.0), ("delta", 6.0)),
     "pole divisor hit: s_3 + s_2 - 4 + s_1 = 0"),
    ((("G", 1.0), (1, 1.0), ("F", 2.0)), "pole divisor hit: s_2 + s_1 - 2 = 0"),
    ((("G", 2.0), (1, -1.0)), "pole divisor hit: s_1 - 2 = 0"),
    ((("F", 1.0), ("Z4", 1.0), ("G", 0.5)), ("s_1 - 2", "s_3")),
    (((1, -1.0), ("G", 3.0), (1, 1.0)), "pole divisor hit: s_2 - 2 + s_1 = 0"),
    (((1, 0.5), ("E4", 2.5), (1, 1.5), ("delta", 6.0)),
     ("s_1", "s_2 - 4 + s_1", "s_3 + s_2 - 4 + s_1")),
    ((("E4", 2.2), (1, 0.7), ("E6", 3.3), (1, -0.4)),
     ("s_4", "s_3 + s_4", "s_2 + s_3 + s_4", "s_1 + s_2 + s_3 + s_4", "s_1 - 4",
      "s_2 + s_1 - 4", "s_3 - 6 + s_2 + s_1 - 4", "s_4 + s_3 - 6 + s_2 + s_1 - 4")),
    ((("G", 0.5 + 0.3j), (1, 1.2), ("F", 1.7)),
     ("s_1 - 2", "s_2 + s_1 - 2", "s_3 - 2 + s_2 + s_1 - 2")),
    (((1, 1.5), (1, -0.5), ("E4", 1.0), ("Z", 2.0)), ("s_1", "s_2 + s_1", "s_3 - 4 + s_2 + s_1")),
]


@pytest.mark.parametrize("word, want", POLE_WORDS)
def test_report_divisors_and_poles_pinned(word, want):
    zeros = {name: _zero_form(*lw) for name, lw in ZERO_FORMS.items()}
    entries = [(1 if n == 1 else zeros[n] if n in zeros else forms.builtin(n, 64), s) for n, s in word]
    spec = make_spec(entries, 4 if {"F", "G", "Z4"} & {n for n, _ in word} else 1)
    if isinstance(want, str):
        with pytest.raises(PoleError) as hit:
            iterint.iterint_report(spec, CFG)
        assert str(hit.value) == want
    else:
        assert iterint.iterint_report(spec, CFG).divisors == want


def test_sweep_table_serves_a_stored_prefix(monkeypatch, e4_200, delta2100):
    calls = []
    adaptive = iterint.quad.adaptive_iterated
    monkeypatch.setattr(iterint.quad, "adaptive_iterated", lambda *a: calls.append(a) or adaptive(*a))
    builder = lambda n: iterint.quad.vertical_panels(1j, CFG.height, n, tail=False)
    KS = iterint.KernelSpec
    word = [KS(forms.cusp_part(e4_200), 2.5 + 0j), KS(e4_200, 1.5 + 0j), KS(None, -0.5 + 0j)]
    sweeps = iterint._Sweeps(builder, CFG)
    levels = [sweeps.level(word, j) for j in (2, 1, 0)][::-1]
    # a prefix asked on its own, in new KernelSpecs, is read from the table
    again = [sweeps.level([KS(ks.form, ks.s) for ks in word[: j + 1]], j) for j in range(3)]
    assert len(calls) == 1 and len(calls[0][0]) == 3
    fresh = [iterint._Sweeps(builder, CFG).level(word[: j + 1], j) for j in range(3)]
    bits = lambda got: [(_bits(v), e.hex()) for v, e in got]
    assert bits(levels) == bits(again) == bits(fresh)
    # a word that leaves the stored prefix sweeps anew
    before = len(calls)
    sweeps.level([word[0], KS(delta2100, 1.5 + 0j)], 1)
    assert len(calls) == before + 1


def test_sweep_table_keeps_its_bits_when_the_grid_cache_is_cleared(e4_200, delta2100):
    # The table keys kernel values by the quad.Chain object.  With quad's
    # grid cache cleared before every attempt, each chain is rebuilt as a new
    # object; the table holds every chain it keyed, so no stale entry is read.
    KS = iterint.KernelSpec
    word = [KS(forms.cusp_part(e4_200), 2.5 + 0j), KS(delta2100, 1.5 + 0j), KS(None, -0.5 + 0j)]
    words = (word, [word[0], KS(e4_200, 3.5 + 0j)])
    # tight enough that the panels double up to 48: the first word resolves
    # there, the second stalls there at its rounding floor
    cfg = CFG.replace(tol=1.3e-21)
    attempts = []

    def builder(n):
        attempts.append(n)
        return iterint.quad.vertical_panels(1j, cfg.height, n, tail=False)

    def clearing(n):
        iterint.quad._grid.cache_clear()
        return builder(n)

    def outcome(table, w):
        try:
            v, e = table.level(w, len(w) - 1)
        except AccuracyError as exc:
            return str(exc)
        return _bits(v), e.hex()

    fresh = [outcome(iterint._Sweeps(builder, cfg), w) for w in words]
    attempts.clear()
    table = iterint._Sweeps(clearing, cfg)
    got = [outcome(table, w) for w in words]
    assert got == fresh
    assert isinstance(got[0], tuple) and "stalled at 48 panels" in got[1]
    assert attempts == [6, 12, 24, 48] * 2
    # one chain per attempt, holding the nodes of both rules
    assert len(table._grids) == len(attempts)
    assert all(isinstance(chain, iterint.quad.Chain) for chain in table._grids)


def test_default_report_sweeps_six_panels(monkeypatch):
    # 16 uniform panels, the previous default, cost this report 6400
    # kernel-node evaluations (levels x panels x nodes of both rules)
    work = []
    sweep = iterint.quad.iterated_integral

    def counting(kernels, panels, g):
        work.append((len(kernels), len(panels), 2 * g + 8))
        return sweep(kernels, panels, g)

    monkeypatch.setattr(iterint.quad, "iterated_integral", counting)
    names = ("E4", "delta", "E6")
    spec = make_spec([(forms.builtin(n, 64), s) for n, s in zip(names, (2.2, 7.1, 3.3))])
    iterint.iterint_report(spec)
    assert work and {panels for _, panels, _ in work} == {6}
    assert sum(k * p * g for k, p, g in work) <= 6400 * 6 // 16


def test_height_guard(delta2100):
    cfg = CFG.replace(height=0.5)
    with pytest.raises(DomainError):
        iterint.iterint_full(make_spec([(delta2100, 6.0)]), cfg)


def test_spec_validation(delta2100):
    with pytest.raises(DomainError):
        make_spec([(delta2100, 2.0), (forms.builtin("F", 40), 1.0)])
    with pytest.raises(DomainError):
        make_spec([(delta2100, 2.0)], level=4)
    with pytest.raises(DomainError):
        iterint.IterSpec((), 1)


# --- shifted integrals via Fourier series -----------------------------------

def _brute_shells_check(word, exps, cutoff):
    """_shells against the term-by-term sum over m_1+..+m_n = T, each shell
    within 1e-13 of the sum of its terms' magnitudes."""
    got = iterint._shells(word, exps, cutoff)
    assert got.shape == (cutoff + 1,) and got[0] == 0

    def a(f, m):
        return complex(f.coeffs[m]) if m <= f.order else 0.0

    n = len(word)
    for T in range(1, cutoff + 1):
        want, scale = 0j, 0.0
        for cuts in itertools.combinations(range(1, T), n - 1):
            ms = [hi - lo for lo, hi in zip((0,) + cuts, cuts + (T,))]
            term = 1 + 0j
            for i, (f, e) in enumerate(zip(word, exps)):
                term *= a(f, ms[i]) / sum(ms[i:]) ** e
            want += term
            scale += abs(term)
        assert abs(got[T] - want) <= 1e-13 * scale, T


def test_shells_brute_force():
    # depth 3, a complex exponent, and a middle form shorter than the cutoff
    word = [forms.builtin("delta", 60), forms.builtin("E4", 15), forms.builtin("E6", 60)]
    _brute_shells_check(word, (2.5 + 0.7j, 1, 3), 40)


def _twisted(f, theta, label):
    """f(z + theta / 2 pi): coefficients a_m e^{i m theta}, complex for generic theta."""
    return forms.ModularForm(level=f.level, weight=f.weight, label=label,
                             coeffs=tuple(complex(c) * cmath.exp(1j * m * theta)
                                          for m, c in enumerate(f.coeffs)))


@pytest.mark.parametrize("case", ["complex inner exponent", "complex innermost and outer form",
                                  "complex outer form", "complex innermost form",
                                  "imaginary form"])
def test_shells_brute_force_complex_parts(case):
    # complex parts on either side send a step to the complex convolve
    d, e4, e6 = forms.builtin("delta", 50), forms.builtin("E4", 50), forms.builtin("E6", 50)
    cd, ce4 = _twisted(d, 0.7, "delta~0.7"), _twisted(e4, -1.3, "E4~-1.3")
    imag = forms.ModularForm(level=1, weight=6, label="iE6",
                             coeffs=tuple(1j * c for c in e6.coeffs))
    word, exps = {
        "complex inner exponent": ([d, e4, e6], (3, 1.5 - 0.4j, 2 + 0.3j)),
        "complex innermost and outer form": ([cd, e4, ce4], (3, 1, 2)),
        "complex outer form": ([cd, d], (3, 2.5)),
        "complex innermost form": ([e6, ce4], (2, 1.5)),
        "imaginary form": ([imag, cd, imag], (2.5, 1, 2 - 0.5j)),
    }[case]
    _brute_shells_check(word, exps, 30)


def test_shells_real_word_convolves_real_arrays(monkeypatch):
    # a real word with real inner exponents stays in real arithmetic: the
    # cascade's whole gain over a complex convolution
    dtypes = []

    def recording(a, b):
        dtypes.append((a.dtype, b.dtype))
        return np.convolve(a, b)

    monkeypatch.setattr(iterint, "conv_complex", recording)
    word = [forms.builtin("delta", 100), forms.builtin("E4", 100), forms.builtin("E6", 100)]
    got = iterint._shells(word, (9.5 + 0.5j, 2, 3.0), 100)
    assert np.all(np.isfinite(got))
    assert dtypes == [(np.dtype(float), np.dtype(float))] * 2


def _parent_cascade(word, exps, cutoff, magnitudes=False):
    """Reference cascade, complex arithmetic throughout: np.convolve on complex
    arrays, cut to cutoff+1.  With magnitudes, the same cascade over |a_m| and
    |T^-e| gives the sum of |term| per shell."""
    log_t = np.log(np.arange(1, cutoff + 1, dtype=float))
    acc = None
    for f, e in zip(reversed(word), reversed(exps)):
        coeffs = np.zeros(cutoff + 1, dtype=complex)
        upto = min(cutoff, len(f.coeffs) - 1)
        coeffs[1 : upto + 1] = f._np_coeffs[1 : upto + 1]
        e = complex(e)
        if magnitudes:
            coeffs, e = np.abs(coeffs).astype(complex), complex(e.real)
        acc = coeffs if acc is None else np.convolve(coeffs, acc)[: cutoff + 1]
        acc[1:] *= np.exp(-e * log_t)
    return acc


@pytest.mark.parametrize("names, exps", [
    (("delta", "delta"), (14.0, 3.0)),
    (("E4", "delta", "E6"), (16.5 + 0.5j, 2.0, 4.0)),
    (("G", "F"), (3.5, 1.5)),
])
def test_shells_match_parent_cascade(names, exps):
    cutoff = 2000
    word = [forms.builtin(n, cutoff) for n in names]
    got = iterint._shells(word, exps, cutoff)
    want = _parent_cascade(word, exps, cutoff)
    scale = _parent_cascade(word, exps, cutoff, magnitudes=True).real
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * eps * scale)


def test_tilde_fourier_depth1_analytic(delta2100):
    z = 0.8j
    got = iterint.tilde_I_fourier(make_spec([(delta2100, 2)]), z, CFG)
    q = cmath.exp(2j * cmath.pi * z)
    ref = sum(
        complex(delta2100.coeffs[m]) / (4 * math.pi ** 2 * m * m) * q ** m
        for m in range(1, 200)
    )
    assert abs(got - ref) < 1e-14


def test_tilde_fourier_depth1_quadrature(delta2100):
    # int_{i inf}^{z} Delta(w) (w - z)^{alpha-1} dw == -i^alpha
    #   int_0^inf Delta(z + iy) y^{alpha-1} dy
    z, alpha = 0.3 + 0.9j, 3
    got = iterint.tilde_I_fourier(make_spec([(delta2100, alpha)]), z, CFG)
    xs, ws = np.polynomial.legendre.leggauss(40)
    hand = 0j
    for k in range(40):
        lo, hi = k * 1.0, k + 1.0
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        y = mid + h * xs
        vals = forms.evaluate_many(delta2100, z + 1j * y) * y ** (alpha - 1)
        hand += h * np.sum(ws * vals)
    hand *= -(1j ** alpha)
    assert abs(got - hand) < 1e-12 * max(1.0, abs(hand))


def test_tilde_fourier_depth2_quadrature(delta2100):
    # each layer shifts by its parent variable; brute-force the double integral
    z = 1j
    a1, a2 = 1, 2
    got = iterint.tilde_I_fourier(make_spec([(delta2100, a1), (delta2100, a2)]), z, CFG)
    xs, ws = np.polynomial.legendre.leggauss(32)
    panels = [(k * 1.0, k + 1.0) for k in range(24)]

    def inner(w1):
        tot = 0j
        for lo, hi in panels:
            mid, h = (lo + hi) / 2, (hi - lo) / 2
            y2 = mid + h * xs
            tot += h * np.sum(ws * forms.evaluate_many(delta2100, w1 + 1j * y2) * y2 ** (a2 - 1))
        return -(1j ** a2) * tot

    hand = 0j
    for lo, hi in panels:
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        y1 = mid + h * xs
        vals = np.array(
            [forms.evaluate_at(delta2100, z + 1j * y, CFG) * inner(z + 1j * y) for y in y1]
        )
        hand += h * np.sum(ws * vals * y1 ** (a1 - 1))
    hand *= -(1j ** a1)
    assert abs(got - hand) < 1e-10 * max(1.0, abs(hand))


def test_tilde_fourier_periodicity(delta2100):
    z = 0.2 + 1.1j
    a = iterint.tilde_I_fourier(make_spec([(delta2100, 2)]), z, CFG)
    b = iterint.tilde_I_fourier(make_spec([(delta2100, 2)]), z + 1, CFG)
    assert abs(a - b) < 1e-13 * max(1.0, abs(a))


def test_tilde_fourier_gamma_past_the_float_range_in_logs():
    # 199! is past the float range, the value (near 4e211) is not: the factor
    # Gamma (-2 pi i)^-200 = -199! (2 pi)^-200 is taken in logs.  The series
    # is q + sum_{t>=2} tau(t) t^-200 q^t, whose t >= 2 terms add below 1e-50.
    z = 0.1 + 0.5j
    got = iterint.tilde_I_fourier(make_spec([(forms.builtin("delta", 300), 200)]), z)
    q = cmath.exp(2j * cmath.pi * z)
    want = -math.exp(math.lgamma(200) - 200 * math.log(2 * math.pi)) * q
    assert abs(got - want) <= 1e-12 * abs(want)
    # the same from the exact 199!, rounded once to a float
    exact = float(Fraction(math.factorial(199)) / Fraction((2 * math.pi) ** 200))
    assert abs(got + exact * q) <= 1e-12 * abs(want)


def test_tilde_fourier_value_past_the_float_range_is_named():
    # 399! (2 pi)^-400 |q| is near 10^545: the value itself is refused by name
    spec = make_spec([(forms.builtin("delta", 300), 400)])
    with pytest.raises(DomainError, match="I-tilde value .* leaves the float range"):
        iterint.tilde_I_fourier(spec, 0.1 + 0.5j)


@pytest.mark.parametrize("names, alphas, exps, z, order", [
    (("delta",), (2,), (2,), 0.8j, 2000),
    (("delta", "delta"), (2, 1), (2, 1), 0.05 + 1.0j, 1000),
    ((None, "delta"), (1, 2), (3,), 0.3 + 0.7j, 500),
    (("F", "F"), (2, 1), (2, 1), -0.2 + 0.6j, 1000),
    (("F",), (3,), (3,), 0.45 + 1.3j, 200),
])
def test_tilde_fourier_cut_agrees_with_the_full_order(names, alphas, exps, z, order):
    # the cascade stops at T0 < order; the full-order series lies within the
    # cut's bound on the terms past T0, plus the rounding of the two sums
    built = [None if n is None else forms.builtin(n, order) for n in names]
    word = [f for f in built if f is not None]
    cut = iterint._shell_cut(word, exps, order, -2 * math.pi * z.imag)
    assert cut is not None and cut[0] < order
    got = iterint.tilde_I_fourier(make_spec([(1 if f is None else f, a) for f, a in zip(built, alphas)]),
                                  z, CFG.replace(order=order))
    acc = iterint._shells(word, exps, order)
    factor = (-1) ** len(names) * math.prod(math.factorial(a - 1) for a in alphas) \
        * (-2j * cmath.pi) ** (-sum(alphas))
    want = factor * complex(iterint.evaluate_series(acc, [z])[0])
    mag = abs(factor) * float(np.sum(np.abs(acc) * math.exp(-2 * math.pi * z.imag) ** np.arange(order + 1)))
    assert abs(got - want) <= abs(factor) * math.exp(cut[1]) + 8 * np.finfo(float).eps * mag


def test_tilde_fourier_rejects(e4_200, delta2100):
    with pytest.raises(DomainError, match="cuspidal"):
        iterint.tilde_I_fourier(make_spec([(e4_200, 2)]), 1j, CFG)
    with pytest.raises(DomainError):
        iterint.tilde_I_fourier(make_spec([(delta2100, 2), (1, 1)]), 1j, CFG)
    with pytest.raises(DomainError):
        iterint.tilde_I_fourier(make_spec([(delta2100, 2.5)]), 1j, CFG)
