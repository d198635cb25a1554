"""Modular iterated integrals I_a^b, their continuation I_{i-inf}^0 via the
split at i/sqrt(N) with Fricke reflection, the closed form for all-ones
words, the completed function Z, and the Fourier-series evaluator for the
shifted integrals I-tilde.

Notation: a word I(f_1..f_n; s_1..s_n) nests with f_1 outermost (its
variable runs over the whole path) and f_n innermost, integrated nearest
the starting endpoint.  Kernel slots may hold the constant 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy import convolve as conv_complex

from . import quad
from .config import NumericsConfig
from .errors import DivergenceError, DomainError, PoleError
from .forms import ModularForm, cusp_part, evaluate_many, evaluate_series, fricke_companion

__all__ = [
    "IINF",
    "POLE_EPS",
    "KernelSpec",
    "IterSpec",
    "IterReport",
    "make_spec",
    "nested_quadrature",
    "ones_closed_form",
    "iterint_full",
    "iterint_report",
    "completed_Z",
    "tilde_I_fourier",
    "shuffles",
]

IINF = None  # endpoint sentinel for the cusp at i-infinity
POLE_EPS = 1e-10  # a partial sum this close to 0 counts as on the divisor


@dataclass(frozen=True)
class KernelSpec:
    """One integration layer: integrand f(z) (or the constant 1 when form is
    None) against z^{s} dz/z."""

    form: ModularForm | None
    s: complex


@dataclass(frozen=True)
class IterSpec:
    """Ordered word of kernels, outermost first, plus the ambient level."""

    kernels: tuple
    level: int

    def __post_init__(self):
        if not self.kernels:
            raise DomainError("iterated-integral word must be nonempty")
        for ks in self.kernels:
            if ks.form is not None and ks.form.level != self.level:
                raise DomainError(
                    f"form {ks.form.label!r} has level {ks.form.level}, spec has {self.level}"
                )

    @property
    def exponents(self):
        return tuple(ks.s for ks in self.kernels)


def make_spec(entries, level: int | None = None) -> IterSpec:
    """entries: iterable of (form-or-None-or-1, s).  The level is inherited
    from the forms; all-constant words need it passed explicitly (default 1).
    """
    kernels = []
    for integrand, s in entries:
        if integrand == 1:
            integrand = None
        kernels.append(KernelSpec(integrand, complex(s)))
    levels = {ks.form.level for ks in kernels if ks.form is not None}
    if len(levels) > 1:
        raise DomainError(f"forms of mixed level {sorted(levels)} in one word")
    if levels:
        inferred = levels.pop()
        if level is not None and level != inferred:
            raise DomainError("explicit level disagrees with the forms")
        level = inferred
    return IterSpec(tuple(kernels), 1 if level is None else level)


def _a0(ks: KernelSpec):
    return 1 if ks.form is None else ks.form.coeffs[0]


def _decays(ks: KernelSpec) -> bool:
    # exponential decay toward i-infinity iff the integrand is cuspidal
    return ks.form is not None and not ks.form.coeffs[0]


def _kernel_callable(ks: KernelSpec):
    s = complex(ks.s)
    form = ks.form
    if form is None:
        return lambda z: np.exp((s - 1) * np.log(z))
    return lambda z: evaluate_many(form, z) * np.exp((s - 1) * np.log(z))


def _sum_label(names) -> str:
    return " + ".join(names) if len(names) > 1 else names[0]


def _trailing_fold(s, names, m, divisors) -> complex:
    """1 / (s_p (s_p + s_{p-1}) ... (s_p + .. + s_{p-m+1})): the factor that
    folds m trailing constant slots away.  Records each partial sum's label in
    divisors and raises PoleError on the first that vanishes."""
    p = len(s)
    acc = 0j
    fold = 1.0 + 0j
    for idx in range(p - 1, p - 1 - m, -1):
        acc += s[idx]
        label = _sum_label(names[idx:p])
        divisors.append(label)
        if abs(acc) < POLE_EPS:
            raise PoleError(f"pole divisor hit: {label} = 0")
        fold /= acc
    return fold


def ones_closed_form(b: complex, s_vec) -> complex:
    """I_{i-inf}^b(1..1; s_1..s_n) = b^(s_1+..+s_n) / (s_n (s_n+s_{n-1}) ...),
    meromorphically continued; poles exactly at vanishing trailing sums."""
    if b == 0:
        raise DomainError("closed form needs b != 0")
    s = [complex(v) for v in s_vec]
    if not s:
        raise DomainError("empty exponent list")
    names = [f"s_{i + 1}" for i in range(len(s))]
    return cmath.exp(sum(reversed(s)) * cmath.log(b)) * _trailing_fold(s, names, len(s), [])


def _quadrature_value(word, a, b, config):
    """Raw nested quadrature; word outermost-first (I-notation)."""
    path_order = [_kernel_callable(ks) for ks in reversed(word)]
    if a is IINF:
        # count innermost layers with no exponential decay; they need the
        # power-law tail stack and a convergence guard
        t = 0
        acc = 0j
        for ks in reversed(word):
            if _decays(ks):
                break
            t += 1
            acc += ks.s
            if acc.real >= 0:
                raise DivergenceError(
                    f"integral to i-infinity diverges: trailing exponent sum "
                    f"{acc:.4g} has nonnegative real part"
                )
        builder = lambda n: quad.vertical_panels(b, config.height, n, tail=t > 0)
    else:
        builder = lambda n: quad.segment_panels(a, b, n)
    return quad.adaptive_iterated(path_order, builder, config)


def nested_quadrature(spec: IterSpec, a, b: complex, config: NumericsConfig | None = None) -> complex:
    """Direct numerical evaluation of I_a^b(spec); a may be IINF."""
    cfg = config if config is not None else NumericsConfig()
    value, _ = _quadrature_value(spec.kernels, a, b, cfg)
    return value


def _eval_piece(kernels, names, b, config, divisors):
    """I_{i-inf}^b for one word via the constant-term decomposition.

    Each slot splits as f = f0 + a0.  Expanding the word by multilinearity
    gives one term per subset D of cusp-part slots, plus the all-constant
    term, which is the closed form.  Group the subsets by their innermost
    slot `last`: slots after it hold constants, which fold into the factor
    prod_{i>last} a0(i) / (s_p (s_p + s_{p-1}) ...) and merge their
    exponents into s_last; slots before it range over both f0 and a0, and by
    multilinearity that sum is the one word with the full forms f there.
    This word converges toward i-infinity although its outer forms do not
    decay, because its innermost layer f0_last decays exponentially.  So the
    piece costs one quadrature per cusp slot with a nonzero trailing product.

    Returns (value, error estimate).  Pole guards fire only on terms whose
    constant-term product is nonzero; a piece holding an identically zero
    form is 0 and consults no divisor.
    """
    if any(ks.form is not None and not any(ks.form.coeffs) for ks in kernels):
        return 0j, 0.0
    p = len(kernels)
    s = [complex(ks.s) for ks in kernels]
    a0 = [_a0(ks) for ks in kernels]
    total = 0j
    err = 0.0
    A = math.prod(a0)
    if A != 0:
        closed = cmath.exp(sum(reversed(s)) * cmath.log(b))
        total += complex(A) * closed * _trailing_fold(s, names, p, divisors)
    for last in range(p):
        trailing = math.prod(a0[last + 1 :])
        if not ks_has_cusp(kernels[last]) or trailing == 0:
            continue
        coeff = complex(trailing) * _trailing_fold(s, names, p - 1 - last, divisors)
        word = list(kernels[:last]) + [KernelSpec(cusp_part(kernels[last].form), sum(s[last:]))]
        value, qerr = _quadrature_value(word, IINF, b, config)
        total += coeff * value
        err += abs(coeff) * qerr
    return total, err


def ks_has_cusp(ks: KernelSpec) -> bool:
    """True when the slot's cuspidal part is not identically zero."""
    return ks.form is not None and any(ks.form.coeffs[1:])


@dataclass(frozen=True)
class IterReport:
    value: complex
    err_estimate: float
    divisors: tuple


def iterint_report(spec: IterSpec, config: NumericsConfig | None = None) -> IterReport:
    """I_{i-inf}^0(spec) with error estimate and the pole divisors consulted.

    The path splits at b = i/sqrt(N).  The inner block f_{m+1}..f_n runs to
    i-infinity as is; the outer block f_1..f_m lives on the segment toward 0
    and is reflected back through z -> -1/(Nz), which replaces each form by
    its Fricke companion, reverses the block, and sends s_r to k_r - s_r,
    with the prefactor
    e^{i pi (s_1+..+s_m)} N^{-(s_1+..+s_m) + (k_1+..+k_m)/2}.
    """
    cfg = config if config is not None else NumericsConfig()
    N = spec.level
    if cfg.height <= 1.0 / math.sqrt(N):
        raise DomainError("quadrature height must exceed 1/sqrt(level)")
    b = 1j / math.sqrt(N)
    kernels = spec.kernels
    n = len(kernels)
    names = [f"s_{i + 1}" for i in range(n)]

    reflected = []
    reflected_names = []
    for ks in kernels:
        if ks.form is None:
            reflected.append(KernelSpec(None, -ks.s))
        else:
            reflected.append(KernelSpec(fricke_companion(ks.form), ks.form.weight - ks.s))
    for i, ks in enumerate(kernels):
        k = 0 if ks.form is None else ks.form.weight
        reflected_names.append(f"s_{i + 1} - {k}" if k else f"s_{i + 1}")

    divisors: list = []
    total = 0j
    err = 0.0
    for m in range(n + 1):
        if m == n:
            plain, plain_err = 1.0 + 0j, 0.0
        else:
            plain, plain_err = _eval_piece(kernels[m:], names[m:], b, cfg, divisors)
        if m == 0:
            refl, refl_err = 1.0 + 0j, 0.0
        else:
            word = list(reversed(reflected[:m]))
            word_names = list(reversed(reflected_names[:m]))
            sum_s = sum(ks.s for ks in kernels[:m])
            sum_k = sum(0 if ks.form is None else ks.form.weight for ks in kernels[:m])
            pref = cmath.exp(1j * cmath.pi * sum_s) * cmath.exp(
                (-sum_s + sum_k / 2.0) * math.log(N)
            )
            inner, inner_err = _eval_piece(word, word_names, b, cfg, divisors)
            refl, refl_err = pref * inner, abs(pref) * inner_err
        total += plain * refl
        err += abs(plain) * refl_err + abs(refl) * plain_err
    seen = []
    for d in divisors:
        if d not in seen:
            seen.append(d)
    return IterReport(complex(total), err, tuple(seen))


def iterint_full(spec: IterSpec, config: NumericsConfig | None = None) -> complex:
    return iterint_report(spec, config).value


def completed_Z(spec: IterSpec, config: NumericsConfig | None = None) -> complex:
    """Z = N^{(s_1+..+s_n)/2} I_{i-inf}^0."""
    sum_s = sum(ks.s for ks in spec.kernels)
    scale = cmath.exp(sum_s / 2.0 * math.log(spec.level))
    return scale * iterint_full(spec, config)


def tilde_I_fourier(spec: IterSpec, z: complex, config: NumericsConfig | None = None) -> complex:
    """Fourier-series value of the shifted integral I-tilde at z.

    The word must consist of constant-1 slots and cuspidal forms with
    positive integer exponents, ending in a form.  Coefficient of q^t is
    built by a convolution cascade: at each form slot (scanning outward) the
    running total m_r + ... + m_l divides by t^(interval exponent).
    """
    cfg = config if config is not None else NumericsConfig()
    kernels = spec.kernels
    alphas = []
    for ks in kernels:
        a = ks.s
        if a != int(a.real) or int(a.real) < 1:
            raise DomainError("I-tilde Fourier series needs positive integer exponents")
        alphas.append(int(a.real))
        if ks.form is not None and ks.form.coeffs[0]:
            raise DomainError(
                f"layer {ks.form.label!r} is not cuspidal; split off its constant term first"
            )
    if kernels[-1].form is None:
        raise DomainError("word must end in a cuspidal form (trailing 1-blocks fold away)")

    form_slots = [i for i in range(len(kernels)) if kernels[i].form is not None]
    m_cut = cfg.order
    ts = np.arange(m_cut + 1, dtype=float)
    ts[0] = 1.0  # never consulted: index 0 stays zero through the cascade
    acc = None
    for pos in range(len(form_slots) - 1, -1, -1):
        slot = form_slots[pos]
        prev_form = form_slots[pos - 1] if pos else -1
        # block exponent: the 1-slots before this form plus the form itself
        interval = sum(alphas[prev_form + 1 : slot + 1])
        coeffs = np.zeros(m_cut + 1, dtype=complex)
        fc = kernels[slot].form.coeffs
        upto = min(m_cut, len(fc) - 1)
        coeffs[1 : upto + 1] = [complex(c) for c in fc[1 : upto + 1]]
        acc = coeffs if acc is None else conv_complex(coeffs, acc)[: m_cut + 1]
        acc = acc / ts ** interval
    gamma_factor = (-1) ** len(kernels)
    for a in alphas:
        gamma_factor *= math.factorial(a - 1)
    total_alpha = sum(alphas)
    series = complex(evaluate_series(acc, [z])[0])  # sum_{t>=1} acc[t] q^t; acc[0] = 0
    return gamma_factor * (-2j * cmath.pi) ** (-total_alpha) * series


def shuffles(k: int, l: int):
    """All (k,l)-shuffle words as index tuples into the concatenated word
    0..k-1 (first factor) and k..k+l-1 (second factor)."""
    out = []
    for first_positions in combinations(range(k + l), k):
        word = [None] * (k + l)
        fi = iter(range(k))
        si = iter(range(k, k + l))
        pos_set = set(first_positions)
        for p in range(k + l):
            word[p] = next(fi) if p in pos_set else next(si)
        out.append(tuple(word))
    return out
