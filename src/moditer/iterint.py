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
from .errors import POLE_EPS, AccuracyError, DivergenceError, DomainError, PoleError
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


class _KernelMemo:
    """Kernel values for one report or one nested_quadrature call, dropped
    when it returns.  Per grid it takes log z once, evaluate_many once per
    form and f z^{s-1} once per (form, s), each with the expression of a lone
    kernel evaluation, so every array is bit-identical to one."""

    def __init__(self):
        self._grids = {}  # node bytes -> {"log": log z, id(form): f(z), (id(form), s): kernel}
        self._forms = {}  # id -> form: keeps every id-keyed form alive while the memo is

    def kernel(self, ks: KernelSpec):
        form, s = ks.form, complex(ks.s)
        self._forms[id(form)] = form
        return lambda z: self._value(form, s, z)

    def _value(self, form, s, z):
        grid = self._grids.setdefault(z.tobytes(), {})
        key = (id(form), s)
        if key not in grid:
            if "log" not in grid:
                grid["log"] = np.log(z)
            power = np.exp((s - 1) * grid["log"])
            if form is not None and id(form) not in grid:
                grid[id(form)] = evaluate_many(form, z)
            grid[key] = power if form is None else grid[id(form)] * power
        return grid[key]


def _level(result):
    """A level of quad.adaptive_iterated: (value, err), or raise its stall."""
    if isinstance(result, AccuracyError):
        raise result
    return result


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


def nested_quadrature(spec: IterSpec, a, b: complex, config: NumericsConfig | None = None) -> complex:
    """Direct numerical evaluation of I_a^b(spec); a may be IINF."""
    cfg = config if config is not None else NumericsConfig()
    word = spec.kernels
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
        builder = lambda n: quad.vertical_panels(b, cfg.height, n, tail=t > 0)
    else:
        builder = lambda n: quad.segment_panels(a, b, n)
    memo = _KernelMemo()
    levels = quad.adaptive_iterated([memo.kernel(ks) for ks in reversed(word)], builder, cfg)
    return _level(levels[-1])[0]


class _Side:
    """One side of the split at b: its slots in path order, innermost first.

    Every piece of the constant-term decomposition on this side is a word
    seq[:p] (read outermost first), and its quadrature with innermost cusp
    slot i is the word seq[i+1:p] around cusp(seq[i]).  For a fixed i these
    are the levels of one sweep [cusp(seq[i]), seq[i+1], ...], so each slot's
    sweep runs once, when a piece first asks for it.  It stops before the
    first identically zero slot: the pieces that hold one are 0 and ask
    nothing."""

    def __init__(self, seq, names, b, config, memo):
        self.seq = seq
        self.names = names
        self.b = b
        self.config = config
        self.memo = memo
        self.builder = lambda n: quad.vertical_panels(b, config.height, n, tail=False)
        self.stop = next((i for i, ks in enumerate(seq) if _is_zero(ks)), len(seq))
        self._sweeps = {}

    def quadrature(self, i: int, depth: int):
        """(value, err) of the piece seq[:i+depth+1] at innermost cusp slot i."""
        if i not in self._sweeps:
            seq = self.seq
            # the trailing constant slots' exponents merge into the cusp slot,
            # summed outermost first as the piece's own list would be
            cusp = KernelSpec(cusp_part(seq[i].form), sum(complex(ks.s) for ks in seq[i::-1]))
            path = [cusp] + seq[i + 1 : self.stop]
            kernels = [self.memo.kernel(ks) for ks in path]
            self._sweeps[i] = quad.adaptive_iterated(kernels, self.builder, self.config)
        return _level(self._sweeps[i][depth])


def _is_zero(ks: KernelSpec) -> bool:
    return ks.form is not None and not any(ks.form.coeffs)


def _has_cusp(ks: KernelSpec) -> bool:
    """True when the slot's cuspidal part is not identically zero."""
    return ks.form is not None and any(ks.form.coeffs[1:])


def _eval_piece(side: _Side, p: int, divisors):
    """I_{i-inf}^b for the piece side.seq[:p] via the constant-term
    decomposition.

    Each slot splits as f = f0 + a0.  Expanding the word by multilinearity
    gives one term per subset D of cusp-part slots, plus the all-constant
    term, which is the closed form.  Group the subsets by their innermost
    slot `last`: slots after it hold constants, which fold into the factor
    prod_{i>last} a0(i) / (s_p (s_p + s_{p-1}) ...) and merge their
    exponents into s_last; slots before it range over both f0 and a0, and by
    multilinearity that sum is the one word with the full forms f there.
    This word converges toward i-infinity although its outer forms do not
    decay, because its innermost layer f0_last decays exponentially.  Each
    such word is one level of its slot's sweep (see _Side), so a report runs
    one adaptive sweep per cusp slot with a nonzero trailing product on each
    side of the split, whatever the number of pieces.

    Returns (value, error estimate).  Pole guards fire only on terms whose
    constant-term product is nonzero; a piece holding an identically zero
    form is 0 and consults no divisor.
    """
    kernels = side.seq[p - 1 :: -1]
    names = side.names[p - 1 :: -1]
    if any(_is_zero(ks) for ks in kernels):
        return 0j, 0.0
    s = [complex(ks.s) for ks in kernels]
    a0 = [_a0(ks) for ks in kernels]
    total = 0j
    err = 0.0
    A = math.prod(a0)
    if A != 0:
        closed = cmath.exp(sum(reversed(s)) * cmath.log(side.b))
        total += complex(A) * closed * _trailing_fold(s, names, p, divisors)
    for last in range(p):
        trailing = math.prod(a0[last + 1 :])
        if not _has_cusp(kernels[last]) or trailing == 0:
            continue
        coeff = complex(trailing) * _trailing_fold(s, names, p - 1 - last, divisors)
        value, qerr = side.quadrature(p - 1 - last, last)
        total += coeff * value
        err += abs(coeff) * qerr
    return total, err


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
    # the plain pieces f_{m+1}..f_n are prefixes of the word read from the
    # inside, the reflected ones f~_m..f~_1 prefixes of the reflected word
    memo = _KernelMemo()
    plain = _Side(list(reversed(kernels)), list(reversed(names)), b, cfg, memo)
    mirror = _Side(reflected, reflected_names, b, cfg, memo)

    divisors: list = []
    total = 0j
    err = 0.0
    for m in range(n + 1):
        if m == n:
            plain_v, plain_err = 1.0 + 0j, 0.0
        else:
            plain_v, plain_err = _eval_piece(plain, n - m, divisors)
        if m == 0:
            refl, refl_err = 1.0 + 0j, 0.0
        else:
            sum_s = sum(ks.s for ks in kernels[:m])
            sum_k = sum(0 if ks.form is None else ks.form.weight for ks in kernels[:m])
            pref = cmath.exp(1j * cmath.pi * sum_s) * cmath.exp(
                (-sum_s + sum_k / 2.0) * math.log(N)
            )
            inner, inner_err = _eval_piece(mirror, m, divisors)
            refl, refl_err = pref * inner, abs(pref) * inner_err
        total += plain_v * refl
        err += abs(plain_v) * refl_err + abs(refl) * plain_err
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


def _shells(word, exps, cutoff: int) -> np.ndarray:
    """Shells of L(word; exps): acc[T] = sum over m_1+..+m_n = T of prod a^(i)_{m_i}
    / prod_i (m_i+..+m_n)^{e_i} for T = 0..cutoff, acc[0] = 0; a form of order
    below cutoff counts as zero past it.  A convolution cascade, innermost first."""
    log_t = np.log(np.arange(1, cutoff + 1, dtype=float))
    acc = None
    for f, e in zip(reversed(word), reversed(exps)):
        coeffs = np.zeros(cutoff + 1, dtype=complex)
        upto = min(cutoff, len(f.coeffs) - 1)
        coeffs[1 : upto + 1] = f._np_coeffs[1 : upto + 1]
        acc = coeffs if acc is None else conv_complex(coeffs, acc)[: cutoff + 1]
        acc[1:] *= np.exp(-complex(e) * log_t)
    return acc


def tilde_I_fourier(spec: IterSpec, z: complex, config: NumericsConfig | None = None) -> complex:
    """Fourier-series value of the shifted integral I-tilde at z.

    The word must consist of constant-1 slots and cuspidal forms with
    positive integer exponents, ending in a form.  The coefficient of q^t is
    the T = t shell of L(forms; block exponents), where a form's block
    exponent sums its own exponent and those of the 1-slots just before it;
    the shells come from _shells, the cascade L_direct sums.
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

    form_slots = [i for i, ks in enumerate(kernels) if ks.form is not None]
    starts = [0] + [i + 1 for i in form_slots[:-1]]
    exps = [sum(alphas[a : b + 1]) for a, b in zip(starts, form_slots)]
    acc = _shells([kernels[i].form for i in form_slots], exps, cfg.order)
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
