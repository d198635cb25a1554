"""Multiple modular L-series.

L(f_1..f_n; s_1..s_n) = (-2 pi i)^{-(s_1+..+s_n)} *
    sum over m_1..m_n >= 1 of
    prod a^(i)_{m_i} / ((m_1+..+m_n)^{s_1} (m_2+..+m_n)^{s_2} .. m_n^{s_n})

L_direct sums the series by shells of constant total index T = m_1+..+m_n,
ascending in T.  The shells come from iterint._shells, whose T = t shell is
also the q^t coefficient of the shifted integral I-tilde; its convolution
cascade convolves real parts only where both operands are real, so a word of
real forms with real inner exponents convolves in real arithmetic only.
L_continued evaluates the same function anywhere by expanding it into
iterated integrals of the forms themselves; evaluate_L_terms and
evaluate_I_terms sum the Terms of an expansion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy import convolve as conv_complex  # unused here; modbench/spans.py wraps this name

from . import identities, iterint
from .config import NumericsConfig
from .errors import DivergenceError, DomainError, TruncationError
from .forms import ModularForm

__all__ = [
    "LSpec",
    "LValue",
    "L_direct",
    "L_continued",
    "evaluate_L_terms",
    "evaluate_I_terms",
]


@dataclass(frozen=True)
class LSpec:
    forms: tuple
    s: tuple

    def __post_init__(self):
        if not self.forms or len(self.forms) != len(self.s):
            raise DomainError("need one exponent per form")


@dataclass(frozen=True)
class LValue:
    value: complex
    tail_estimate: float


def _growth_exponent(f: ModularForm) -> float:
    # coefficient growth |a_m| <~ m^g, with 1/2 slack for the divisor factor
    return (f.weight - 1) / 2 + 0.5 if f.is_cuspidal else f.weight - 1 + 0.5


def convergence_threshold(spec: LSpec) -> float:
    """Sufficient lower bound on Re(s_1) for absolute shell convergence."""
    gs = [_growth_exponent(f) for f in spec.forms]
    need = gs[0] + 1.0
    for g, s in zip(gs[1:], spec.s[1:]):
        need += max(0.0, g - complex(s).real + 1.0)
    return need


def L_direct(spec: LSpec, config: NumericsConfig = NumericsConfig(), force: bool = False) -> LValue:
    C = config.cutoff
    for f in spec.forms:
        if f.order < C:
            raise TruncationError(
                f"form {f.label!r} has {f.order} coefficients, cutoff {C} needs at least that many"
            )
    need = convergence_threshold(spec)
    s1 = complex(spec.s[0]).real
    if s1 <= need and not force:
        raise DivergenceError(
            f"shell sum not provably convergent: Re(s_1) = {s1:g} <= {need:g}; "
            "pass force=True to sum anyway or use L_continued"
        )

    # the prefactor first: an exponent past the float range stops here, named,
    # before the cascade warns of overflow
    sum_s = sum(complex(v) for v in spec.s)
    pref = iterint._closed_power(-2j * cmath.pi, -sum_s, lambda: f"prefactor (-2 pi i)^-({sum_s:.4g})")
    shells = iterint._shells(spec.forms, spec.s, C)
    value = pref * complex(shells.sum())

    mags = np.abs(shells)
    hi = mags[int(0.8 * C) :].mean()
    lo = mags[int(0.4 * C) : int(0.5 * C) + 1].mean()
    last = complex(shells[C])
    base = max(abs(last), hi)
    if base == 0.0:
        tail = 0.0
    elif lo <= 0.0 or hi <= 0.0:
        tail = math.inf
    else:
        decay = math.log(lo / hi) / math.log(2.0)  # window centers differ by x2
        tail = math.inf if decay <= 0 else 2.0 * base * C / max(1.0, decay - 1.0)
    return LValue(value, abs(pref) * tail if tail != math.inf else tail)


def _evaluate_terms(tl, word_forms, s0: complex, value) -> complex:
    """Sum of coefficient * target over Terms at s = s0.  value(subword, args)
    gives a target's number; it runs once per distinct (indices, args)."""
    a0s = [complex(f.a0) for f in word_forms]
    cache = {}
    total = 0j
    for t in tl:
        args = tuple(identities.exp_at(a, s0) for a in t.target.args)
        key = (t.target.indices, args)
        if key not in cache:
            cache[key] = value([word_forms[i] for i in t.target.indices], args)
        total += t.coeff.evaluate(s0, a0s) * cache[key]
    return total


def evaluate_L_terms(tl, word_forms, s0: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    """Numeric value of Terms whose targets are multiple L-values."""
    return _evaluate_terms(
        tl, word_forms, s0,
        lambda sub, args: L_direct(LSpec(tuple(sub), args), config).value,
    )


def evaluate_I_terms(tl, word_forms, s0: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    """Numeric value of Terms whose targets are iterated integrals."""
    return _evaluate_terms(
        tl, word_forms, s0,
        lambda sub, args: iterint.iterint_full(iterint.make_spec(list(zip(sub, args))), config),
    )


def L_continued(forms, s: complex, alphas, config: NumericsConfig = NumericsConfig()) -> complex:
    """Meromorphic continuation of L(f_1..f_n; s, a_2..a_n) to any s off the
    pole divisors, via the iterated-integral expansion."""
    tl = identities.thS_expand(list(forms), tuple(alphas))
    return evaluate_I_terms(tl, list(forms), complex(s), config)
