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
from itertools import accumulate, combinations

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


class _Sweeps:
    """Every adaptive sweep of one report or one nested_quadrature call along
    one panel chain, dropped when the call returns.

    A sweep stores each level of its word under that level's prefix, keyed
    ((id(form), s), ...) innermost first.  Level j is bit for bit a sweep of
    word[:j+1] alone (see quad), so a word whose prefix is stored runs no new
    sweep.  Per quad.Chain the table runs evaluate_many once per form and
    f z^{s-1} once per (form, s), from the chain's own log z, each with the
    expression of a lone kernel evaluation, so every array is bit-identical
    to one.  Kernel values are keyed by the Chain object itself, which the
    table holds, so a chain that quad's cache drops and rebuilds is a new
    key."""

    def __init__(self, builder, config: NumericsConfig):
        self.builder = builder
        self.config = config
        self._levels = {}  # prefix key -> (value, err), or the AccuracyError it stalled at
        self._grids = {}  # Chain -> {id(form): f(z), (id(form), s): kernel}
        self._forms = {}  # id -> form: keeps every id-keyed form alive while the table is

    def level(self, word, depth: int):
        """(value, err) of word[:depth+1], read innermost first, or raise its
        stall.  A prefix not yet stored sweeps the whole word."""
        keys = [(id(ks.form), complex(ks.s)) for ks in word]
        key = tuple(keys[: depth + 1])
        if key not in self._levels:
            kernels = [self._kernel(ks.form, s) for ks, (_, s) in zip(word, keys)]
            for j, result in enumerate(quad.adaptive_iterated(kernels, self.builder, self.config)):
                self._levels[tuple(keys[: j + 1])] = result
        result = self._levels[key]
        if isinstance(result, AccuracyError):
            raise result
        return result

    def _kernel(self, form, s: complex):
        self._forms[id(form)] = form
        return lambda chain: self._value(form, s, chain)

    def _value(self, form, s, chain):
        grid = self._grids.setdefault(chain, {})
        key = (id(form), s)
        if key not in grid:
            power = np.exp((s - 1) * chain.log)
            if form is not None and id(form) not in grid:
                grid[id(form)] = evaluate_many(form, chain)
            grid[key] = power if form is None else grid[id(form)] * power
        return grid[key]


def _closed_power(b: complex, exponent: complex) -> complex:
    """b^exponent; DomainError past the float range."""
    try:
        return cmath.exp(exponent * cmath.log(b))
    except OverflowError:
        raise DomainError(f"closed form ({b:.4g})^({exponent:.4g}) leaves the float range") from None


def ones_closed_form(b: complex, s_vec) -> complex:
    """I_{i-inf}^b(1..1; s_1..s_n) = b^(s_1+..+s_n) / (s_n (s_n+s_{n-1}) ...),
    meromorphically continued; poles exactly at vanishing trailing sums."""
    if b == 0:
        raise DomainError("closed form needs b != 0")
    seq = [KernelSpec(None, complex(v)) for v in s_vec][::-1]
    if not seq:
        raise DomainError("empty exponent list")
    names = [f"s_{i}" for i in range(len(seq), 0, -1)]
    return _Side(seq, names, b, None).piece(len(seq), [])[0]


def nested_quadrature(spec: IterSpec, a, b: complex,
                      config: NumericsConfig = NumericsConfig()) -> complex:
    """Direct numerical evaluation of I_a^b(spec); a may be IINF."""
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
        builder = lambda n: quad.vertical_panels(b, config.height, n, tail=t > 0)
    else:
        builder = lambda n: quad.segment_panels(a, b, n)
    return _Sweeps(builder, config).level(word[::-1], len(word) - 1)[0]


def _is_zero(ks: KernelSpec) -> bool:
    return ks.form is not None and not any(ks.form.coeffs)


class _Side:
    """One side of the split at b: its slots in path order, innermost first,
    and the pieces I_{i-inf}^b(seq[:p]) of the constant-term decomposition.

    Each slot splits as f = f0 + a0.  With the prefix quantities
        S_i = s(seq[0]) + .. + s(seq[i-1]),
        T_i = a0(seq[0]) .. a0(seq[i-1]),
        F_i = 1 / (S_1 S_2 .. S_i),
    multilinearity gives
        I(seq[:p]) = T_p b^{S_p} F_p + sum_{i<p} T_i F_i Q_i[p-1-i].
    The first term is the all-constant closed form.  Term i groups the
    subsets of cusp-part slots whose innermost slot is i: the constants
    inside it fold into T_i F_i and merge their exponents into s(seq[i]);
    the slots outside it range over both f0 and a0, which by multilinearity
    is the one word with the full forms there.  That word converges toward
    i-infinity although its outer forms need not decay, because its
    innermost layer f0 does.  Q_i is the sweep [cusp(seq[i]) at exponent
    S_{i+1}, seq[i+1], ...] up to the first identically zero slot, whose
    level p-1-i is that word; so each side runs one adaptive sweep per cusp
    slot with T_i != 0, whatever the number of pieces.

    A piece holding an identically zero slot is 0 and consults no divisor.
    The folds F_i extend as first asked by a term with T != 0: each new
    partial sum's label goes to divisors, and a vanishing one raises
    PoleError."""

    def __init__(self, seq, names, b: complex, sweeps: _Sweeps | None):
        self.names = names
        self.b = b
        self.sweeps = sweeps
        self.stop = next((i for i, ks in enumerate(seq) if _is_zero(ks)), len(seq))
        a0 = [_a0(ks) for ks in seq]
        # each product runs outermost first, as the piece's own list would:
        # a loaded form's a0 may be a float
        self.T = [math.prod(reversed(a0[:i])) for i in range(len(seq) + 1)]
        self.S = list(accumulate((complex(ks.s) for ks in seq), initial=0j))
        self.folds = [1.0 + 0j]
        self.words = {}  # Q_i for each slot i with a nonzero cusp part and T_i != 0
        for i, ks in enumerate(seq[: self.stop]):
            if ks.form is not None and any(ks.form.coeffs[1:]) and self.T[i] != 0:
                # the merged exponent is summed outermost first too
                cusp = KernelSpec(cusp_part(ks.form), sum(complex(k.s) for k in seq[i::-1]))
                self.words[i] = [cusp] + seq[i + 1 : self.stop]

    def _fold(self, i: int, divisors) -> complex:
        while len(self.folds) <= i:
            j = len(self.folds)
            label = " + ".join(reversed(self.names[:j]))
            divisors.append(label)
            if abs(self.S[j]) < POLE_EPS:
                raise PoleError(f"pole divisor hit: {label} = 0")
            self.folds.append(self.folds[-1] / self.S[j])
        return self.folds[i]

    def piece(self, p: int, divisors):
        """(value, error estimate) of I_{i-inf}^b(seq[:p]); the empty piece is
        exactly (1, 0), with no divisor."""
        if p > self.stop:
            return 0j, 0.0
        total = 0j
        err = 0.0
        if self.T[p] != 0:
            total += complex(self.T[p]) * _closed_power(self.b, self.S[p]) * self._fold(p, divisors)
        for i in range(p - 1, -1, -1):
            if i in self.words:
                coeff = complex(self.T[i]) * self._fold(i, divisors)
                value, qerr = self.sweeps.level(self.words[i], p - 1 - i)
                total += coeff * value
                err += abs(coeff) * qerr
        return total, err


@dataclass(frozen=True)
class IterReport:
    value: complex
    err_estimate: float
    divisors: tuple


def iterint_report(spec: IterSpec, config: NumericsConfig = NumericsConfig()) -> IterReport:
    """I_{i-inf}^0(spec) with error estimate and the pole divisors consulted.

    The path splits at b = i/sqrt(N).  The inner block f_{m+1}..f_n runs to
    i-infinity as is; the outer block f_1..f_m lives on the segment toward 0
    and is reflected back through z -> -1/(Nz), which replaces each form by
    its Fricke companion, reverses the block, and sends s_r to k_r - s_r,
    with the prefactor
    e^{i pi (s_1+..+s_m)} N^{-(s_1+..+s_m) + (k_1+..+k_m)/2}.
    """
    N = spec.level
    if config.height <= 1.0 / math.sqrt(N):
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
    sweeps = _Sweeps(lambda n: quad.vertical_panels(b, config.height, n, tail=False), config)
    plain = _Side(list(reversed(kernels)), list(reversed(names)), b, sweeps)
    mirror = _Side(reflected, reflected_names, b, sweeps)

    divisors: list = []
    total = 0j
    err = 0.0
    for m in range(n + 1):
        plain_v, plain_err = plain.piece(n - m, divisors)
        sum_s = sum(ks.s for ks in kernels[:m])
        sum_k = sum(0 if ks.form is None else ks.form.weight for ks in kernels[:m])
        try:
            pref = cmath.exp(1j * cmath.pi * sum_s) * cmath.exp(
                (-sum_s + sum_k / 2.0) * math.log(N)
            )
        except (OverflowError, ValueError):  # pi * sum_s past the float range ends in a NaN
            raise DomainError(
                f"Fricke prefactor at exponent sum {sum_s:.4g} leaves the float range"
            ) from None
        inner, inner_err = mirror.piece(m, divisors)
        refl, refl_err = pref * inner, abs(pref) * inner_err
        total += plain_v * refl
        err += abs(plain_v) * refl_err + abs(refl) * plain_err
    return IterReport(complex(total), err, tuple(dict.fromkeys(divisors)))  # first-seen order


def iterint_full(spec: IterSpec, config: NumericsConfig = NumericsConfig()) -> complex:
    return iterint_report(spec, config).value


def completed_Z(spec: IterSpec, config: NumericsConfig = NumericsConfig()) -> complex:
    """Z = N^{(s_1+..+s_n)/2} I_{i-inf}^0."""
    sum_s = sum(ks.s for ks in spec.kernels)
    scale = cmath.exp(sum_s / 2.0 * math.log(spec.level))
    return scale * iterint_full(spec, config)


def _conv_parts(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of the product of two complex series: one real
    convolve when both are real, else one complex convolve."""
    if a.imag.any() or b.imag.any():
        return conv_complex(a, b)[:n]
    return conv_complex(a.real, b.real)[:n].astype(complex)


def _shells(word, exps, cutoff: int) -> np.ndarray:
    """Shells of L(word; exps): acc[T] = sum over m_1+..+m_n = T of prod a^(i)_{m_i}
    / prod_i (m_i+..+m_n)^{e_i} for T = 0..cutoff, acc[0] = 0; a form of order
    below cutoff counts as zero past it.

    A convolution cascade, innermost first, in real arithmetic where it can
    be: a step whose form coefficients and running shells are both real
    convolves their real parts only (_conv_parts), so a word of real forms
    with real inner exponents costs one real convolve per step, under a third
    of a complex one.  Half of each convolve feeds shells past
    the cutoff; cutting it blockwise to the lower triangle saves only
    0.72 -> 0.62 ms at cutoff 2000 on Δ (2-CPU x86 host), too little to pay
    for its code.
    """
    n = cutoff + 1
    log_t = np.log(np.arange(1, n, dtype=float))
    acc = None
    for f, e in zip(reversed(word), reversed(exps)):
        coeffs = np.zeros(n, dtype=complex)
        upto = min(cutoff, len(f.coeffs) - 1)
        coeffs[1 : upto + 1] = f._np_coeffs[1 : upto + 1]
        acc = coeffs if acc is None else _conv_parts(coeffs, acc, n)
        acc[1:] *= np.exp(-complex(e) * log_t)
    return acc


def tilde_I_fourier(spec: IterSpec, z: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    """Fourier-series value of the shifted integral I-tilde at z.

    The word must consist of constant-1 slots and cuspidal forms with
    positive integer exponents, ending in a form.  The coefficient of q^t is
    the T = t shell of L(forms; block exponents), where a form's block
    exponent sums its own exponent and those of the 1-slots just before it;
    the shells come from _shells, the cascade L_direct sums.
    """
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
    acc = _shells([kernels[i].form for i in form_slots], exps, config.order)
    gamma_factor = (-1) ** len(kernels) * math.prod(math.factorial(a - 1) for a in alphas)
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
