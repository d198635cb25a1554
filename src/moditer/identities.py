"""Exact expansions connecting iterated integrals and multiple L-series.

Two directions, mirror images of each other:

  * thI_expand writes I(f_1..f_n; s, a_2..a_n) as a finite sum of
    Gamma-weighted multiple L-values of subwords (integer shifts in s).
  * thS_expand inverts: it writes L(f_1..f_n; s, a_2..a_n) as a sum of
    iterated integrals with rational-in-s coefficients, which is what gives
    the L-series its meromorphic continuation.

Coefficients stay exact (Fractions, Gamma shifts, linear factors s + c)
until a numeric evaluation is requested.  Both theorems run on a pair of
binomial families, _chained_family and _alternating_family, whose transforms
are mutually inverse: the structural reason a round trip thS o thI collapses.

Exponent convention: the first slot carries the symbolic variable s (as
SPlus(offset) = s + offset); every other slot is a positive integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import POLE_EPS, DomainError, PoleError

__all__ = [
    "SPlus",
    "Coeff",
    "LTarget",
    "ITarget",
    "Term",
    "enumerate_indices",
    "thI_expand",
    "thS_expand",
]


@dataclass(frozen=True)
class SPlus:
    """The symbolic exponent s + off."""

    off: int

    def __add__(self, c):
        if isinstance(c, SPlus):
            raise DomainError("cannot add two symbolic exponents")
        return SPlus(self.off + int(c))

    __radd__ = __add__

    def at(self, s0: complex) -> complex:
        return s0 + self.off

    def __str__(self):
        return f"s+{self.off}" if self.off else "s"


def exp_at(e, s0: complex) -> complex:
    return e.at(s0) if isinstance(e, SPlus) else complex(e)


# --- exact coefficients ------------------------------------------------------

_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028, 771.32342877765313,
            -176.61502916214059, 12.507343278686905, -0.13857109526572012,
            9.9843695780195716e-6, 1.5056327351493116e-7)


def _rgamma(z: complex) -> complex:
    """1/Gamma(z), entire, to about 1e-14 relative: Lanczos (g = 7, n = 9), and
    for Re z < 1/2 reflection with sin(pi z) taken at z minus its nearest
    integer, so the zeros 0, -1, -2, ... are exact and their neighbours accurate."""
    if z.real < 0.5:
        n = round(z.real)
        return (-1) ** n * cmath.sin(cmath.pi * (z - n)) / (cmath.pi * _rgamma(1 - z))
    z -= 1
    t = z + 7.5
    x = _LANCZOS[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS[1:], 1))
    return cmath.exp(t) / (math.sqrt(2 * math.pi) * t ** (z + 0.5) * x)


@dataclass(frozen=True)
class Coeff:
    """rat * prod Gamma(s+g)[gamma_num] / prod Gamma(s+g)[gamma_den]
           * prod (s+c)[lin_num] / prod (s+c)[lin_den] * prod a0[a0_idx].

    a0_idx holds 0-based word positions whose constant Fourier term
    multiplies the coefficient (repeats allowed).  evaluate raises PoleError
    when s0 lies on a linear pole, s0 + c = 0 for c in lin_den.  It takes
    1/Gamma from _rgamma: at a pole s0 + g in {0, -1, ...} a denominator Gamma
    gives 0 and a numerator one raises PoleError."""

    rat: Fraction = Fraction(1)
    gamma_num: tuple = ()
    gamma_den: tuple = ()
    lin_num: tuple = ()
    lin_den: tuple = ()
    a0_idx: tuple = ()

    def scaled(self, r) -> "Coeff":
        return Coeff(
            self.rat * r,
            self.gamma_num, self.gamma_den, self.lin_num, self.lin_den, self.a0_idx,
        )

    def evaluate(self, s0: complex, a0_values=()) -> complex:
        for c in self.lin_den:
            if abs(s0 + complex(c)) < POLE_EPS:
                raise PoleError(f"pole divisor hit: s + {c} = 0")
        val = complex(self.rat)
        for g in self.gamma_num:
            r = _rgamma(s0 + g)
            if not r:
                raise PoleError(f"Gamma pole at s + {g} = 0")
            val /= r
        for g in self.gamma_den:
            val *= _rgamma(s0 + g)
        for c in self.lin_num:
            val *= s0 + complex(c)
        for c in self.lin_den:
            val /= s0 + complex(c)
        for i in self.a0_idx:
            val *= complex(a0_values[i])
        return val


# --- targets and terms -------------------------------------------------------

@dataclass(frozen=True)
class LTarget:
    """Multiple L-value of the subword at `indices` (0-based positions in the
    original word), argument vector `args`."""

    indices: tuple
    args: tuple


@dataclass(frozen=True)
class ITarget:
    """Iterated integral I_{i-inf}^0 of the subword at `indices`."""

    indices: tuple
    args: tuple


@dataclass(frozen=True)
class Term:
    coeff: Coeff
    target: object


# --- shared enumeration helpers ----------------------------------------------

def enumerate_indices(alphas):
    """All index tuples (j_2..j_m) with the chained bounds
    0 <= j_k < u_k + j_{k+1} for alphas = (u_2..u_m), sorted by the
    rightmost index first."""
    alphas = tuple(int(a) for a in alphas)
    out = []

    def rec(pos, j_next, acc):
        # pos walks the alphas right to left, so the outermost loop is the
        # rightmost index and tuples come out sorted by it; acc collects reversed
        if pos < 0:
            out.append(tuple(reversed(acc)))
            return
        for j in range(alphas[pos] + j_next):
            rec(pos - 1, j, acc + [j])

    rec(len(alphas) - 1, 0, [])
    return out


def _shifted(alphas, J):
    # the new exponents a_k - j_k + j_{k+1} that both families produce
    return tuple(a - j + j_next for a, j, j_next in zip(alphas, J, J[1:] + (0,)))


def _chained_family(alphas):
    """Forward family: (J, prod C(a_k + j_{k+1} - 1, j_k), new exponents)
    over the chained bounds of enumerate_indices."""
    for J in enumerate_indices(alphas):
        weight = math.prod(
            math.comb(a + j_next - 1, j) for a, j, j_next in zip(alphas, J, J[1:] + (0,))
        )
        yield J, weight, _shifted(alphas, J)


def _alternating_family(alphas):
    """Inverse family: (J, prod (-1)^{j_k} C(a_k - 1, j_k), new exponents)
    over the independent bounds 0 <= j_k < a_k."""
    for J in product(*[range(a) for a in alphas]):
        weight = math.prod((-1) ** j * math.comb(a - 1, j) for a, j in zip(alphas, J))
        yield J, weight, _shifted(alphas, J)


def _cusp_subsets(exps, a0s):
    """The constant-term decomposition of a word with exponents exps: each
    slot splits as f = f0 + a0, and every nonempty subset D of slots that keep
    f0 yields (D, a0_idx, B, folded) unless its constant-term product
    prod a0[a0_idx] vanishes.  The constants after D's last slot fold away at
    the cost of B = 1/(e_n (e_n + e_{n-1}) ...); folded is the word up to
    that slot with their exponents merged into it."""
    n = len(exps)
    for r in range(1, n + 1):
        for D in combinations(range(n), r):
            a0_idx = tuple(i for i in range(n) if i not in D)
            if any(a0s[i] == 0 for i in a0_idx):
                continue
            last = D[-1]
            B = Fraction(1)
            acc = 0
            for e in exps[: last : -1]:
                acc += e
                B /= acc
            folded = list(exps[: last + 1])
            folded[last] = folded[last] + sum(exps[last + 1 :])
            yield D, a0_idx, B, folded


def _word_exponents(n: int, alphas) -> list:
    if len(alphas) != n - 1:
        raise DomainError(f"need {n - 1} integer exponents for a word of {n} forms")
    for a in alphas:
        if int(a) != a or a < 1:
            raise DomainError("integer exponents must be >= 1")
    return [SPlus(0)] + [int(a) for a in alphas]


# --- the L-from-I expansion ----------------------------------------------------

def thI_expand(forms, alphas) -> tuple:
    """I(f_1..f_n; s, a_2..a_n) as a tuple of Terms with LTargets.

    Each nonempty subset D of slots keeps its cuspidal part; the rest
    contribute their constant terms (terms with A = 0 are dropped).  Trailing
    constants fold into a rational B-factor, leading and internal ones are
    absorbed by the index sums below.
    """
    n = len(forms)
    exps = _word_exponents(n, alphas)
    a0s = [f.a0 for f in forms]
    terms = []
    for D, a0_idx, B, u in _cusp_subsets(exps, a0s):
        # u: the folded word, slots 0..D[-1]; u[0] = s + off, where off is
        # nonzero only for D = (0,), whose one slot took every exponent
        sign = Fraction(-1) ** len(u)
        pos = [p + 1 for p in D]  # 1-based positions in folded word
        for J, binom, new in _chained_family(u[1:]):
            v = (None, None) + new  # v[k] for k = 2..len(u)
            g = u[0].off + (J[0] if J else 0)  # the Gamma shift
            rat = sign * B * binom * math.prod(math.factorial(vk - 1) for vk in new)  # Gamma(v_k)
            # argument vector: v-sums between consecutive kept slots
            args = [SPlus(g + sum(v[k] for k in range(2, pos[0] + 1)))]
            for a, b in zip(pos, pos[1:]):
                args.append(sum(v[k] for k in range(a + 1, b + 1)))
            terms.append(
                Term(
                    Coeff(rat=rat, gamma_num=(g,), a0_idx=a0_idx),
                    LTarget(D, tuple(args)),
                )
            )
    return tuple(terms)


# --- the I-from-L expansion (continuation) -------------------------------------

def _by_parts(word, coeff, out):
    """Eliminate constant slots of an i-infinity-to-0 word, appending one
    Term with an ITarget to out per word left.

    word: list of (orig_index or None, exponent).  A leading constant slot
    merges its exponent into the next slot at the cost of -1/(s + c); an
    internal one splits into merges with both neighbours, +1/m and -1/m.
    Boundary contributions vanish at the cusps.
    """
    for p, (idx, e) in enumerate(word):
        if idx is None:
            break
    else:
        out.append(Term(coeff, ITarget(tuple(i for i, _ in word), tuple(e for _, e in word))))
        return
    e = word[p][1]
    if p == 0:
        nxt_idx, nxt_e = word[1]
        rest = [(nxt_idx, e + nxt_e)] + word[2:]
        c = Coeff(-coeff.rat, coeff.gamma_num, coeff.gamma_den, coeff.lin_num,
                  coeff.lin_den + (e.off,), coeff.a0_idx)
        _by_parts(rest, c, out)
        return
    left_idx, left_e = word[p - 1]
    left = word[: p - 1] + [(left_idx, left_e + e)] + word[p + 1 :]
    _by_parts(left, coeff.scaled(Fraction(1, e)), out)
    right_idx, right_e = word[p + 1]
    right = word[:p] + [(right_idx, right_e + e)] + word[p + 2 :]
    _by_parts(right, coeff.scaled(Fraction(-1, e)), out)


def thS_expand(forms, alphas) -> tuple:
    """L(f_1..f_n; s, a_2..a_n) as a tuple of Terms with ITargets and
    coefficients rational in s: the meromorphic continuation of the multiple
    L-series.

    The index sums here use the independent bounds 0 <= j_k < a_k with
    alternating binomials; constant-term subsets and by-parts elimination of
    the remaining constant slots reduce everything to honest iterated
    integrals of the input forms.
    """
    n = len(forms)
    exps = _word_exponents(n, alphas)
    a0s = [f.a0 for f in forms]
    al = tuple(int(a) for a in alphas)  # a_2..a_n
    # every seed divides by Gamma^{(s, a.)} = (-1)^n Gamma(s) prod Gamma(a_k);
    # the rational factors are exact, so dividing first changes no term
    scale = Fraction(-1) ** n * math.prod(math.factorial(a - 1) for a in al)
    terms = []
    for J, rat, new in _alternating_family(al):
        w = [SPlus(J[0] if J else 0), *new]
        # cusp parts f0 = f - a0: keep a subset T of full forms
        for T, a0_idx, B, folded in _cusp_subsets(w, a0s):
            sgn = Fraction(-1) ** len(a0_idx)
            word = [(i if i in T else None, e) for i, e in enumerate(folded)]
            seed = Coeff(rat=rat * sgn * B / scale, gamma_den=(0,), a0_idx=a0_idx)
            _by_parts(word, seed, terms)
    return tuple(terms)
