"""Multiple zeta values three ways.

The same number is computed as a nested Dirichlet sum, as an iterated
integral of dt/t and dt/(1-t) over the unit interval, and as a pullback
iterated integral of weight-2 level-4 forms along the vertical geodesic
from i-infinity to 0.  Agreement of the three routes is the point, so they
share no numerics with each other beyond the generic quadrature layer.  The
third route is an ordinary word for iterint_report, whose split at i/2 and
Fricke reflection it shares with the iterint layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import forms, iterint
from .config import NumericsConfig
from .errors import AccuracyError, DivergenceError, DomainError
from .forms import ModularForm
from .quad import GL_ORDER, geometric_breaks, iterated_integral

__all__ = [
    "MzvIndex",
    "mzv_series",
    "mzv_p1_integral",
    "p1_word_integral",
    "mzv_modular_integral",
    "modular_raw_integral",
]


@dataclass(frozen=True)
class MzvIndex:
    """zeta(k_1, ..., k_d) = sum over n_1 > n_2 > ... > n_d >= 1 of
    prod n_i^(-k_i), exponents listed largest-variable first.

    Admissibility (k_1 >= 2) keeps the outer sum finite.  The reversed view
    ``ascending`` lists the exponent of the smallest variable first; that is
    the order in which the integral words below are spelled."""

    ks: tuple

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if not ks or any(k < 1 for k in ks):
            raise DomainError("index entries must be positive integers")
        if ks[0] < 2:
            raise DomainError(
                f"inadmissible index {ks}: the outer exponent must be >= 2"
            )
        object.__setattr__(self, "ks", ks)

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def ascending(self) -> tuple:
        return tuple(reversed(self.ks))


# --- route 1: nested series with Euler-Maclaurin tails ------------------------

# Asymptotic expansions live in the power-log family
#     f(x) = sum c[(a, b)] x^(-a) log(x)^b,
# which is closed under differentiation and antidifferentiation, so the
# Euler-Maclaurin correction of every partial sum stays in the family.

def _pl_add(f, g, scale=1.0):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0.0) + scale * c
    return {k: v for k, v in out.items() if v}


def _pl_deriv(f):
    out = {}
    for (a, b), c in f.items():
        out[(a + 1, b)] = out.get((a + 1, b), 0.0) - a * c
        if b:
            out[(a + 1, b - 1)] = out.get((a + 1, b - 1), 0.0) + b * c
    return out


def _pl_antideriv(f):
    out = {}
    for (a, b), c in f.items():
        if a < 1:
            raise DomainError("antiderivative would leave the decaying family")
        if a == 1:
            out[(0, b + 1)] = out.get((0, b + 1), 0.0) + c / (b + 1)
            continue
        while True:  # integrate x^-a log^b by parts down to b = 0
            out[(a - 1, b)] = out.get((a - 1, b), 0.0) + c / (1 - a)
            if b == 0:
                break
            c *= -b / (1 - a)
            b -= 1
    return out


def _pl_eval(f, x: float) -> float:
    lx = math.log(x)
    return math.fsum(c * x ** (-a) * lx**b for (a, b), c in f.items())


def _em_pieces(f):
    d1 = _pl_deriv(f)
    d3 = _pl_deriv(_pl_deriv(d1))
    return d1, d3


def _em_cumsum_series(f):
    """Asymptotics of sum_{j < m} f(j) up to an additive constant."""
    d1, d3 = _em_pieces(f)
    out = _pl_antideriv(f)
    out = _pl_add(out, f, -0.5)
    out = _pl_add(out, d1, 1.0 / 12.0)
    return _pl_add(out, d3, -1.0 / 720.0)


def _em_tail_value(f, m: float) -> float:
    """sum_{j >= m} f(j) for a series whose terms all have a > 1."""
    if any(a <= 1 for a, _ in f):
        raise DivergenceError("tail of a non-decaying series")
    d1, d3 = _em_pieces(f)
    return (
        -_pl_eval(_pl_antideriv(f), m)
        + 0.5 * _pl_eval(f, m)
        - _pl_eval(d1, m) / 12.0
        + _pl_eval(d3, m) / 720.0
    )


def mzv_series(idx: MzvIndex, cutoff: int = 10_000) -> float:
    """Truncated nested sum; the tail of every partial sum is replaced by
    its integral-comparison (Euler-Maclaurin) value, so cutoff errors decay
    like cutoff^-6 rather than cutoff^(1-k)."""
    C = int(cutoff)
    if C < 16:
        raise DomainError("cutoff must be at least 16")
    ms = np.arange(C + 1, dtype=float)
    ms[0] = 1.0  # index 0 carries no mass
    qn = np.ones(C + 1)
    qn[0] = 0.0
    series, const = {}, 1.0
    for pos, k in enumerate(idx.ascending):
        P = {(a + k, b): c for (a, b), c in series.items()}
        P[(k, 0)] = P.get((k, 0), 0.0) + const
        pn = ms ** (-float(k)) * qn
        if pos == idx.depth - 1:
            return math.fsum(pn[1:]) + _em_tail_value(P, C + 1.0)
        series = _em_cumsum_series(P)
        full = math.fsum(pn[1:])
        const = full - _pl_eval(series, C + 1.0)
        qn = np.empty(C + 1)
        qn[0] = qn[1] = 0.0
        qn[2:] = np.cumsum(pn[1:-1])
    raise AssertionError("unreachable")


# --- route 2: iterated integral over the unit interval ------------------------

def _word_flags(idx: MzvIndex):
    """One flag per 1-form, first entry integrated nearest 0:
    1 for dt/(1-t), 0 for dt/t."""
    flags = []
    for k in idx.ascending:
        flags.append(1)
        flags.extend([0] * (k - 1))
    return flags


# Route 2's chain: 32 geometric panels from 1e-30 to 1/2, neighbouring breakpoints
# about 8.5 apart; both node counts reach the rounding floor up to weight 7.
_P1_PANELS = tuple(itertools.pairwise(complex(y) for y in geometric_breaks(1e-30, 0.5, 32)))
_P1_KERNELS = (lambda c: 1.0 / c.nodes, lambda c: 1.0 / (1.0 - c.nodes))


def p1_word_integral(flags) -> tuple:
    """(value, err) of the iterated integral of the word over the unit
    interval, flags as in ``_word_flags``.

    Chen's composition at 1/2 and the duality t -> 1 - t give
    I(0->1; w) = sum_i I(0->1/2; w[:i]) I(0->1/2; w*[:n-i]), w* the word
    reversed with dt/t and dt/(1-t) swapped: every factor is a level of one
    sweep of w or of w*.  Both start with dt/(1-t), so each prefix integral
    from 0 to e is O(e); by the same composition at e = 1e-30, starting the
    chain there leaves out O(e) times integrals from e of size O(log^k e).
    Each sweep is one pass at GL_ORDER and GL_ORDER + 8 nodes; err is each
    level's gap between the two, carried through the sum as
    |a| err_b + |b| err_a, plus 2 eps sum |a||b| for rounding."""
    flags = list(flags)
    if not flags:
        return 1.0, 0.0
    if flags[0] == 0:
        raise DivergenceError("word starts with dt/t: divergent at 0")
    if flags[-1] == 1:
        raise DivergenceError("word ends with dt/(1-t): divergent at 1")

    def levels(word):  # (value, err) of every prefix of the word, the empty one first
        pairs = iterated_integral([_P1_KERNELS[f] for f in word], _P1_PANELS, GL_ORDER)
        return [(1.0, 0.0)] + [(b.real, abs(b - a)) for a, b in pairs]

    pairs = list(zip(levels(flags), reversed(levels([1 - f for f in reversed(flags)]))))
    # Rounding, u = 2^-53: each factor leaves its sweep through a last
    # rounded sum (u|x|, u|y|), each product rounds once (u|xy|) and the fsum
    # once more (u|sum| <= u sum |xy|): 4u = 2 eps of sum |x||y|.  The
    # roundings inside a sweep differ between the two node counts and show in
    # their gap, but where both counts round alike (zeta(2)'s levels agree to
    # the bit) the gap is 0 and this term is all of err.
    return (math.fsum(x * y for (x, _), (y, _) in pairs),
            sum(abs(x) * ey + abs(y) * ex + 4 * 2.0**-53 * abs(x * y) for (x, ex), (y, ey) in pairs))


def mzv_p1_integral(idx: MzvIndex) -> float:
    return p1_word_integral(_word_flags(idx))[0]


# --- route 3: pullback integral on the modular curve ---------------------------

_KERNEL_ORDER = 256


@functools.lru_cache(maxsize=1)
def _level4_pair():
    """F for dt/(1-t) slots and G-16F for dt/t slots, each with its Fricke
    companion: F|w4 = F - G/16 = -(G-16F)/16 is built in, so G-16F is read
    off it, and (G-16F)|w4 = -G - 16(F - G/16) = -16F is wired here.  Built
    once: every pullback uses the same pair at the same order."""
    f = forms.builtin("F", _KERNEL_ORDER)
    gm = ModularForm(4, 2, "G-16F", tuple(-16 * c for c in f.fricke.coeffs),
                     growth=forms._sum_growth((16, f.fricke.growth)))
    forms._set_fricke(gm, ModularForm(4, 2, "G-16F|w4", tuple(-16 * b for b in f.coeffs),
                                      growth=forms._sum_growth((16, f.growth))))
    return f, gm


def modular_raw_integral(idx: MzvIndex,
                         config: NumericsConfig = NumericsConfig()) -> iterint.IterReport:
    """The pullback integral along the vertical geodesic before the
    (2 pi i)^w 16^d normalization, as an iterint report.

    The word uses F for dt/(1-t) slots and G-16F for dt/t slots, all with
    exponent 1.  iterint_report splits the path at i/2 and reflects the
    lower half through z -> -1/(4z): the companions swap the two kernels up
    to the factors -1/16 and -16, and the prefactor
    e^{i pi m} 4^{-m + m} = (-1)^m cancels the signs."""
    f4, gm = _level4_pair()
    entries = [(f4 if flag else gm, 1.0) for flag in reversed(_word_flags(idx))]
    return iterint.iterint_report(iterint.make_spec(entries), config)


def _zeta_from_report(idx: MzvIndex, report: iterint.IterReport):
    """(zeta value, err): the report scaled by (2 pi i)^w 16^d; err adds the
    imaginary residue, which the true value lacks, to the quadrature error."""
    pref = (2j * math.pi) ** idx.weight * 16**idx.depth
    value = pref * report.value
    if abs(value.imag) > 1e-6 * max(1.0, abs(value.real)):
        raise AccuracyError(
            f"pullback integral has imaginary residue {value.imag:.3e}"
        )
    return value.real, abs(pref) * report.err_estimate + abs(value.imag)


def mzv_modular_integral(idx: MzvIndex, config: NumericsConfig = NumericsConfig()) -> float:
    return _zeta_from_report(idx, modular_raw_integral(idx, config))[0]
