"""Exact truncated q-expansions and the built-in modular objects.

A QSeries holds rational coefficients for q^0..q^order together with a
fractional prefactor q^(prefactor_num/24); the 1/24 lattice is exactly
what eta quotients need.  All arithmetic is exact; identities between
built-ins (eta quotients, log-derivatives) are therefore testable as
equalities, not float comparisons.  eta is Euler's pentagonal series, and
every power -- delta = q eta^24, theta^4, the eta quotients -- goes through
one routine, Miller's recurrence.  Division and powers divide each
coefficient exactly: in Python integers wherever the quotient is integral,
as it is for eta, theta, delta, F and G (integer coefficients, unit lead),
and as a Fraction otherwise.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "QSeries",
    "bernoulli",
    "eisenstein_series",
    "eta_series",
    "builtin_form",
    "logderiv",
]


def _norm(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _exact_div(acc, d):
    # acc / d: an int when both are ints and d divides acc, else via Fraction
    if type(acc) is int and type(d) is int and not acc % d:
        return acc // d
    return _norm(Fraction(acc, d))


def _valuation(coeffs):
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None


@dataclass(frozen=True)
class QSeries:
    """q^(prefactor_num/24) * (coeffs[0] + coeffs[1] q + ... + coeffs[order] q^order + O(q^(order+1)))."""

    coeffs: tuple
    order: int
    prefactor_num: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise DomainError("order must be >= 0")
        cs = tuple(_norm(c) for c in self.coeffs[: self.order + 1])
        if len(cs) < self.order + 1:
            cs = cs + (0,) * (self.order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _of(cls, coeffs: tuple, order: int, prefactor_num: int = 0) -> "QSeries":
        """A series from exactly order + 1 coefficients that are normalised
        already (ints, and Fractions that are not integral), as division,
        powers, negation, rebasing and the integer tables of eta, F and theta
        make them: no Fraction with denominator 1 can reach it, so
        __post_init__'s pass over them is skipped."""
        if order < 0:
            raise DomainError("order must be >= 0")
        qs = object.__new__(cls)
        object.__setattr__(qs, "coeffs", coeffs)
        object.__setattr__(qs, "order", order)
        object.__setattr__(qs, "prefactor_num", prefactor_num)
        return qs

    # -- basic accessors -------------------------------------------------

    def valuation(self):
        """Index of the lowest nonzero stored coefficient, or None for the zero jet."""
        return _valuation(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _rebased(self, prefactor_num: int) -> "QSeries":
        # Rewrite with a smaller prefactor by shifting coefficients up;
        # only whole q-powers (24 units) can move between the two.
        d, r = divmod(self.prefactor_num - prefactor_num, 24)
        if r or d < 0:
            raise DomainError(
                f"prefactors {self.prefactor_num}/24 and {prefactor_num}/24 "
                "differ by a non-integral q-power"
            )
        if d == 0:
            return self
        return QSeries._of((0,) * d + self.coeffs, self.order + d, prefactor_num)

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries((other,) + (0,) * self.order, self.order, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = min(self.prefactor_num, other.prefactor_num)
        a, b = self._rebased(p), other._rebased(p)
        m = min(a.order, b.order)
        return QSeries(
            tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), m, p
        )

    __radd__ = __add__

    def __neg__(self):
        return QSeries._of(tuple(-c for c in self.coeffs), self.order, self.prefactor_num)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(
                tuple(c * other for c in self.coeffs), self.order, self.prefactor_num
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return QSeries(
            _mul_coeffs(self.coeffs, other.coeffs, m),
            m,
            self.prefactor_num + other.prefactor_num,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vb = other.valuation()
        if vb is None:
            raise DomainError("division by the zero series")
        va = self.valuation()
        if va is None:
            va = 0  # zero / anything: shift is irrelevant
        a = self.coeffs[va:]
        b = other.coeffs[vb:]
        m = min(self.order - va, other.order - vb)
        return QSeries._of(
            _div_coeffs(a, b, m),
            m,
            self.prefactor_num - other.prefactor_num + 24 * (va - vb),
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError("series powers must be integers")
        if n < 0:
            return (1 / self) ** (-n)
        v = self.valuation()
        if v is None:
            return QSeries((1,) if n == 0 else (), self.order, n * self.prefactor_num)
        g = _pow_coeffs(self.coeffs[v:], n, self.order - n * v)
        return QSeries._of(((0,) * (n * v) + g)[: self.order + 1], self.order, n * self.prefactor_num)


def _mul_coeffs(a, b, m):
    # Iterate over the sparser factor; eta/theta mantissas are very sparse.
    if sum(1 for c in a if c) < sum(1 for c in b if c):
        a, b = b, a
    out = [0] * (m + 1)
    for j, cb in enumerate(b[: m + 1]):
        if cb:
            for i in range(min(len(a), m + 1 - j)):
                if a[i]:
                    out[i + j] += a[i] * cb
    return tuple(out)


def _div_coeffs(a, b, m):
    # acc stays in the coefficients' own type; one exact division per term
    terms = [(j, b[j]) for j in range(1, min(m, len(b) - 1) + 1) if b[j]]
    lead = b[0]
    out = []
    for n in range(m + 1):
        acc = a[n] if n < len(a) else 0
        for j, bj in terms:
            if j > n:
                break
            acc -= bj * out[n - j]
        out.append(_exact_div(acc, lead))
    return tuple(out)


def _pow_coeffs(u, k, m):
    """u^k to q^m for u[0] != 0, by J.C.P. Miller's recurrence
    n u_0 g_n = sum_j ((k+1) j - n) u_j g_{n-j}: one exact division per term."""
    terms = [(j, u[j]) for j in range(1, min(m, len(u) - 1) + 1) if u[j]]
    g = [_norm(u[0] ** k)]  # a Fraction to the 0th power is Fraction(1)
    for n in range(1, m + 1):
        acc = 0
        for j, uj in terms:
            if j > n:
                break
            acc += ((k + 1) * j - n) * uj * g[n - j]
        g.append(_exact_div(acc, n * u[0]))
    return tuple(g)


# -- number-theoretic scalars ---------------------------------------------

@functools.lru_cache(maxsize=32)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number (B1 = -1/2 convention); exact.  A miss runs the
    recurrence up from B_0, so the memo holds only the 32 most recent k."""
    if k < 0:
        raise DomainError("Bernoulli numbers need k >= 0")
    table = {0: Fraction(1), 1: Fraction(-1, 2)}
    if k > 1 and k % 2:
        return Fraction(0)
    for n in range(2, k + 1, 2):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0
        acc = Fraction(0)
        for j in range(n):
            bj = table.get(j, Fraction(0))
            if bj:
                acc += math.comb(n + 1, j) * bj
        table[n] = -acc / (n + 1)
    return table[k]


def _sigma_table(k: int, m: int):
    """sigma_k(1..m) by divisor sieve."""
    table = [0] * (m + 1)
    for d in range(1, m + 1):
        dk = d ** k
        for n in range(d, m + 1, d):
            table[n] += dk
    return table


# -- built-in q-expansions --------------------------------------------------

# The last weight whose multiplier -2k/B_k is a normal float: 2.28e-307 at
# k = 260, subnormal from k = 262 on (|B_k| grows like k! / (2 pi)^k).  Past
# it every coefficient a_n with n small prints as 0.0, and B_k alone costs
# O(k^2) Fraction steps (B_1600 takes seconds).
EISENSTEIN_MAX_WEIGHT = 260


def eisenstein_series(k: int, l: int, order: int) -> QSeries:
    """E_k(lz) to the given order: 1 - (2k/B_k) sum sigma_{k-1}(n) q^{ln}."""
    if k < 2 or k % 2:
        raise DomainError("Eisenstein series need even k >= 2")
    if k > EISENSTEIN_MAX_WEIGHT:
        raise DomainError(
            f"Eisenstein series need k <= {EISENSTEIN_MAX_WEIGHT}, got {k}: past it the "
            "multiplier -2k/B_k is below the normal float range"
        )
    if l < 1:
        raise DomainError("eisenstein_series needs l >= 1")
    c = _norm(Fraction(-2 * k) / bernoulli(k))  # an int when 2k/B_k is integral
    base = order // l
    table = _sigma_table(k - 1, base)
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for n in range(1, base + 1):
        coeffs[l * n] = c * table[n]
    return QSeries(tuple(coeffs), order)


def eta_series(l: int, order: int) -> QSeries:
    """eta(lz): prefactor q^{l/24} times prod_{n>=1} (1 - q^{ln}), summed as
    Euler's pentagonal series sum_k (-1)^k q^{l k(3k-1)/2} over all integers k."""
    if l < 1:
        raise DomainError("eta_series needs l >= 1")
    coeffs = [1] + [0] * order
    k = 1
    while l * k * (3 * k - 1) // 2 <= order:
        for e in (l * k * (3 * k - 1) // 2, l * k * (3 * k + 1) // 2):
            if e <= order:
                coeffs[e] = -1 if k % 2 else 1
        k += 1
    return QSeries._of(tuple(coeffs), order, l)


def builtin_form(name: str, order: int) -> QSeries:
    """Named q-expansion: F, G, theta4, delta, lambda, or E<k> (level 1)."""
    if name == "F":
        # -(E2(z) - 3 E2(2z) + 2 E2(4z)) / 24 = sum over odd n of sigma(n) q^n:
        # the q^n coefficient sigma(n) - 3 sigma(n/2) + 2 sigma(n/4) vanishes
        # for even n, since sigma(2^a r) = (2^(a+1) - 1) sigma(r) for odd r
        table = _sigma_table(1, order)
        return QSeries._of(tuple(table[n] if n % 2 else 0 for n in range(order + 1)), order)
    if name in ("G", "theta4"):
        theta = [1] + [0] * order
        for n in range(1, math.isqrt(order) + 1):
            theta[n * n] = 2
        return QSeries._of(tuple(theta), order) ** 4
    if name == "delta":
        # delta = q * (eta mantissa)^24
        return QSeries((0,) + (eta_series(1, order) ** 24).coeffs, order)
    if name == "lambda":
        # the quotient carries its q-valuation in the prefactor; lambda is a
        # weight-0 function, so fold it back into a plain jet
        lam = (16 * builtin_form("F", order)) / builtin_form("G", order)
        return lam._rebased(0)
    m = re.fullmatch(r"E(\d+)", name)
    if m:
        return eisenstein_series(int(m.group(1)), 1, order)
    raise DomainError(f"unknown built-in form {name!r}")


def logderiv(s: QSeries) -> QSeries:
    """(1/2 pi i) d/dz log s = prefactor_num/24 + q d/dq log(mantissa), exact."""
    v = s.valuation()
    if v is None:
        raise DomainError("logderiv of the zero series")
    u = s.coeffs[v:]
    m = s.order - v
    # q * u'/u, then the constant from q^{v + prefactor/24}
    du = tuple((j + 1) * u[j + 1] for j in range(len(u) - 1))
    coeffs = [v + Fraction(s.prefactor_num, 24)] + list(_div_coeffs(du, u, m - 1))
    return QSeries(tuple(coeffs), m)
