"""Modular iterated integrals I_a^b, their continuation I_{i-inf}^0 via the
split at i/sqrt(N) with Fricke reflection, the closed form for all-ones
words, the completed function Z, and the Fourier-series evaluator for the
shifted integrals I-tilde.

Notation: a word I(f_1..f_n; s_1..s_n) nests with f_1 outermost (its
variable runs over the whole path) and f_n innermost, integrated nearest
the starting endpoint.  Kernel slots may hold the constant 1.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import partial
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

    A sweep stores each level of its word under that level's prefix: the
    tuple of its KernelSpecs, innermost first, which compare by form
    identity and exponent.  Level j is bit for bit a sweep of word[:j+1]
    alone (see quad), so a word whose prefix is stored runs no new sweep.
    Per quad.Chain the table runs evaluate_many once per form and f z^{s-1}
    once per KernelSpec, from the chain's own log z, each with the
    expression of a lone kernel evaluation, so every array is bit-identical
    to one.  Kernel values are keyed by the Chain object itself, and then
    by the form and by the KernelSpec; the table holds each key, so a chain
    that quad's cache drops and rebuilds is a new key."""

    def __init__(self, builder, config: NumericsConfig):
        self.builder = builder
        self.config = config
        self._levels = {}  # prefix -> (value, err), or the AccuracyError it stalled at
        self._grids = {}  # Chain -> {form: f(z), KernelSpec: kernel}

    def level(self, word, depth: int):
        """(value, err) of word[:depth+1], read innermost first, or raise its
        stall.  A prefix not yet stored sweeps the whole word."""
        word = tuple(word)
        if word[: depth + 1] not in self._levels:
            kernels = [partial(self._value, ks) for ks in word]
            for j, result in enumerate(quad.adaptive_iterated(kernels, self.builder, self.config)):
                self._levels[word[: j + 1]] = result
        result = self._levels[word[: depth + 1]]
        if isinstance(result, AccuracyError):
            raise result
        return result

    def _value(self, ks: KernelSpec, chain):
        grid = self._grids.setdefault(chain, {})
        if ks not in grid:
            power = np.exp((complex(ks.s) - 1) * chain.log)
            if ks.form is not None and ks.form not in grid:
                grid[ks.form] = evaluate_many(ks.form, chain)
            grid[ks] = power if ks.form is None else grid[ks.form] * power
        return grid[ks]


def _closed_power(b: complex, exponent: complex, what) -> complex:
    """b^exponent as exp(exponent log b); past the float range a DomainError
    names what(), the caller's quantity, built only then."""
    try:
        return cmath.exp(exponent * cmath.log(b))
    except (OverflowError, ValueError):  # an inf times 0 in the exponent ends in a NaN
        raise DomainError(f"{what()} leaves the float range") from None


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
            power = _closed_power(self.b, self.S[p],
                                  lambda: f"closed form ({self.b:.4g})^({self.S[p]:.4g})")
            total += complex(self.T[p]) * power * self._fold(p, divisors)
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
        what = lambda: f"Fricke prefactor at exponent sum {sum_s:.4g}"
        pref = _closed_power(-1, sum_s, what) * _closed_power(N, -sum_s + sum_k / 2.0, what)
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
    N = spec.level
    scale = _closed_power(N, sum_s / 2.0, lambda: f"scale {N}^({sum_s / 2.0:.4g}) of Z")
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

    Shells T < cutoff are bit for bit those of a cascade to any larger
    cutoff; shell T = cutoff may round differently, as np.convolve forms its
    full-overlap output apart.  So a caller that stops early (_shell_cut)
    gets the full cascade's first shells.

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
        with np.errstate(over="ignore"):  # an exponent past the float range: exp(-inf) is the exact 0
            scaled = -complex(e) * log_t
        acc[1:] *= np.exp(scaled)
    return acc


# log 2^-53, the unit roundoff: a cascade stops where the proven bound on the
# shells past it is at most this share of its first shell
_LOG_ROUNDOFF = -53 * math.log(2.0)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x else 0.0


def _conv_bound(g: float, p: float, log_ref: float) -> tuple:
    """(log c, h) with sum_{u=1}^{t-1} (t-u)^g u^p <= c t^(g+h) for every
    t >= 1, where g >= 0.

    p >= 0: x -> (t-x)^g x^p is unimodal on [0, t].  Summed over integers, a
    unimodal function is at most its integral plus its peak: a point off
    the peak lies below the integral over the unit interval on its far side
    from the peak, and the two points around the peak sum to at most the
    peak plus their minimum, which lies below the integral between them.
    The integral is B(g+1, p+1) t^(g+p+1); the peak, at x = pt/(g+p), is
    m t^(g+p) with m = g^g p^p / (g+p)^(g+p) <= 1.  The sum is empty at
    t = 1, so t^(g+p) <= t^(g+p+1)/2 folds both into c = B + m/2, h = p + 1.

    p < 0: (t-u)^g <= t^g, and u^p <= u^q for any q >= p.  For -1 < q <= 0,
    u^q is at most the integral of x^q over [u-1, u], so the sum is at most
    t^(g+q+1)/(q+1); q + 1 = 1/log_ref makes that least at t = e^log_ref.
    For p < -1 the sum of u^p is also at most zeta(-p) <= 1 + 1/(-p-1)
    (integral comparison from u = 1), with h = 0.  Of the valid bounds this
    takes the smaller at t = e^log_ref."""
    if p >= 0:
        log_b = math.lgamma(g + 1) + math.lgamma(p + 1) - math.lgamma(g + p + 2)
        log_m = _xlogx(g) + _xlogx(p) - _xlogx(g + p) - math.log(2.0)
        hi, lo = max(log_b, log_m), min(log_b, log_m)
        return hi + math.log1p(math.exp(lo - hi)), p + 1
    h = min(1.0, max(p + 1, 1 / log_ref))
    bounds = [(-math.log(h), h)]
    if p < -1:
        bounds.append((math.log(-p) - math.log(-p - 1), 0.0))
    return min(bounds, key=lambda b: b[0] + b[1] * log_ref)


def _shell_majorant(word, exps, log_ref: float):
    """(log K, r) with |S_T| <= K T^r for every T >= 1, S_T the shells of
    _shells(word, exps, .); None where a form carries no growth bound.

    Built innermost first, as the cascade runs: the innermost step's shells
    are a_m m^-e, so K = C and r = g - Re e for the form's growth (C, g).  A
    later step convolves its a_m, |a_m| <= C m^g, with the inner shells,
    at most K' u^r', and scales by T^-e: by _conv_bound, K = C K' c and
    r = g + h - Re e.  log_ref is where _conv_bound picks among its bounds."""
    log_k = r = None
    for f, e in zip(reversed(word), reversed(exps)):
        if f.growth is None:
            return None
        C, g = f.growth
        if log_k is None:
            log_k, r = math.log(C), g
        else:
            log_c, h = _conv_bound(g, r, log_ref)
            log_k, r = log_k + math.log(C) + log_c, g + h
        r -= complex(e).real
    return log_k, r


def _shell_cut(word, exps, cutoff: int, log_q: float | None = None):
    """(T0, log B) for the least T0 < cutoff whose proven tail bound B is at
    most 2^-53 |S_n|, or None where no T0 < cutoff qualifies: a form without
    growth, S_n = 0, a majorant exponent r >= -1, or too slow a decay.

    S_n, n = len(word), is the first shell that can be nonzero.  It has the
    one composition m_1 = .. = m_n = 1, so it is known in closed form:
    |S_n| = prod_i |a^(i)_1| (n-i+1)^-Re e_i, taken here in logs.  With
    (K, r) from _shell_majorant:
    - for L_direct (log_q None), B bounds sum_{T > T0} |S_T|: K T^r
      decreases for r < -1 and lies below the integral of K x^r over
      [T-1, T], so B = K T0^(r+1) / (-r-1);
    - for a q-series (log_q = log|q| < 0), B bounds
      sum_{T > T0} |S_T| |q|^T, and the target is 2^-53 |S_n| |q|^n: the
      ratio of consecutive terms K T^r |q|^T is at most
      rho = |q| ((T0+2)/(T0+1))^max(r, 0) from T0 + 1 on, so
      B = K (T0+1)^r |q|^(T0+1) / (1 - rho) where rho < 1.
    Both bounds fall as T0 grows, so a bisection finds T0.  Everything
    runs in math logs, so exponents near the float range neither warn nor
    overflow."""
    n = len(word)
    if cutoff <= n:
        return None
    try:
        majorant = _shell_majorant(word, exps, math.log(cutoff))
    except (OverflowError, ValueError):  # lgamma past the float range
        return None
    a1 = [abs(complex(f.coeffs[1])) if len(f.coeffs) > 1 else 0.0 for f in word]
    if majorant is None or not all(a1):
        return None
    log_k, r = majorant
    log_first = sum(math.log(a) - complex(e).real * math.log(n - i) for i, (a, e) in enumerate(zip(a1, exps)))
    if log_q is None:
        if not r < -1:
            return None
        target = log_first + _LOG_ROUNDOFF

        def log_tail(T):
            return log_k + (r + 1) * math.log(T) - math.log(-r - 1)
    else:
        target = log_first + n * log_q + _LOG_ROUNDOFF

        def log_tail(T):
            log_rho = log_q + max(r, 0.0) * math.log1p(1 / (T + 1))
            if not log_rho < 0:
                return math.inf
            return log_k + r * math.log(T + 1) + (T + 1) * log_q - math.log1p(-math.exp(log_rho))

    if not log_tail(cutoff - 1) <= target:  # no cut, the common case: one look
        return None
    # bisect_left returns an index whose key it has seen true; a NaN
    # compares false, so it never ends a cut
    T0 = n + bisect.bisect_left(range(n, cutoff), True, key=lambda T: log_tail(T) <= target)
    return T0, log_tail(T0)


def tilde_I_fourier(spec: IterSpec, z: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    """Fourier-series value of the shifted integral I-tilde at z.

    The word must consist of constant-1 slots and cuspidal forms with
    positive integer exponents, ending in a form.  The coefficient of q^t is
    the T = t shell of L(forms; block exponents), where a form's block
    exponent sums its own exponent and those of the 1-slots just before it;
    the shells come from _shells, the cascade L_direct sums.  The cascade
    runs to config.order, or to the least T0 where _shell_cut proves the
    terms past it below 2^-53 of the first.

    The factor Gamma (-2 pi i)^-alpha, Gamma = (-1)^n prod (alpha_i - 1)!, is
    taken in floats where the exact product is in the float range, and in
    logs by math.lgamma where it is not; a value itself past the float range
    is refused by name.
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
    word = [kernels[i].form for i in form_slots]
    cut = _shell_cut(word, exps, config.order, -2 * math.pi * complex(z).imag)
    acc = _shells(word, exps, config.order if cut is None else cut[0])
    total_alpha = sum(alphas)
    series = complex(evaluate_series(acc, [z])[0])  # sum_{t>=1} acc[t] q^t; acc[0] = 0
    sign = (-1) ** len(kernels)
    try:
        gamma_factor = float(sign * math.prod(math.factorial(a - 1) for a in alphas))
    except OverflowError:
        if series == 0:
            return 0j
        # |(-2 pi i)^-A| = (2 pi)^-A, and its phase (-i)^-A = i^A
        log_mag = sum(math.lgamma(a) for a in alphas) - total_alpha * math.log(2 * math.pi)
        try:
            mag = math.exp(log_mag + math.log(abs(series)))
        except OverflowError:
            raise DomainError("I-tilde value Gamma (-2 pi i)^-alpha * series leaves the float range") from None
        return sign * (1, 1j, -1, -1j)[total_alpha % 4] * mag * (series / abs(series))
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
