"""Exact truncated q-expansions and the built-in modular objects.

A QSeries holds rational coefficients for q^0..q^order together with a
fractional prefactor q^(prefactor_num/24); the 1/24 lattice is exactly
what eta quotients need.  All arithmetic is exact; identities between
built-ins (eta quotients, log-derivatives) are therefore testable as
equalities, not float comparisons.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "QSeries",
    "bernoulli",
    "sigma",
    "eisenstein_series",
    "eta_series",
    "builtin_form",
    "logderiv",
]


def _norm(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


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
        return QSeries((0,) * d + self.coeffs, self.order + d, prefactor_num)

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
        return QSeries(tuple(-c for c in self.coeffs), self.order, self.prefactor_num)

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
        return QSeries(
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
        result = QSeries((1,) + (0,) * self.order, self.order, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*q^{n}" if n else f"{c}")
        body = " + ".join(parts) if parts else "0"
        head = f"q^({self.prefactor_num}/24) * " if self.prefactor_num else ""
        return f"{head}{body} + O(q^{self.order + 1})"


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
    lead = Fraction(b[0])
    out = []
    for n in range(m + 1):
        acc = Fraction(a[n]) if n < len(a) else Fraction(0)
        for j in range(1, min(n, len(b) - 1) + 1):
            if b[j]:
                acc -= b[j] * out[n - j]
        out.append(acc / lead)
    return tuple(out)


# -- number-theoretic scalars ---------------------------------------------

_BERNOULLI_CACHE = {0: Fraction(1), 1: Fraction(-1, 2)}


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number (B1 = -1/2 convention); exact."""
    if k < 0:
        raise DomainError("Bernoulli numbers need k >= 0")
    if k in _BERNOULLI_CACHE:
        return _BERNOULLI_CACHE[k]
    if k % 2 == 1:
        return Fraction(0)
    top = max(j for j in _BERNOULLI_CACHE if j % 2 == 0)
    for n in range(top + 2, k + 1, 2):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0
        acc = Fraction(0)
        for j in range(n):
            bj = _BERNOULLI_CACHE.get(j, Fraction(0))
            if bj:
                acc += math.comb(n + 1, j) * bj
        _BERNOULLI_CACHE[n] = -acc / (n + 1)
    return _BERNOULLI_CACHE[k]


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^k over d | n."""
    if n <= 0:
        raise DomainError("sigma needs n >= 1")
    if k < 0:
        raise DomainError("sigma needs k >= 0")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def _sigma_table(k: int, m: int):
    """sigma_k(1..m) by divisor sieve."""
    table = [0] * (m + 1)
    for d in range(1, m + 1):
        dk = d ** k
        for n in range(d, m + 1, d):
            table[n] += dk
    return table


# -- built-in q-expansions --------------------------------------------------

def eisenstein_series(k: int, l: int, order: int) -> QSeries:
    """E_k(lz) to the given order: 1 - (2k/B_k) sum sigma_{k-1}(n) q^{ln}."""
    if k < 2 or k % 2:
        raise DomainError("Eisenstein series need even k >= 2")
    if l < 1:
        raise DomainError("eisenstein_series needs l >= 1")
    c = Fraction(-2 * k) / bernoulli(k)
    base = order // l
    table = _sigma_table(k - 1, base)
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for n in range(1, base + 1):
        coeffs[l * n] = _norm(c * table[n])
    return QSeries(tuple(coeffs), order)


def eta_series(l: int, order: int) -> QSeries:
    """eta(lz): prefactor q^{l/24} times prod_{n>=1} (1 - q^{ln})."""
    if l < 1:
        raise DomainError("eta_series needs l >= 1")
    coeffs = [1] + [0] * order
    for n in range(1, order // l + 1):
        # multiply by (1 - q^{ln}) in place, top down
        step = l * n
        for i in range(order, step - 1, -1):
            coeffs[i] -= coeffs[i - step]
    return QSeries(tuple(coeffs), order, prefactor_num=l)


def _jacobi_cube_mantissa(order: int):
    """prod (1-q^n)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}, as a dense list."""
    coeffs = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        coeffs[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n % 2 else 1)
        n += 1
    return coeffs


def _delta_coeffs(order: int):
    # (eta mantissa)^24 as ((..)^3)^8, multiplying by the sparse cube each
    # time; far cheaper than the direct 24-fold product at large order.
    cube = _jacobi_cube_mantissa(order)
    acc = list(cube)
    for _ in range(7):
        acc = list(_mul_coeffs(acc, cube, order))
    # shift by one q-power: delta = q * mantissa^24
    return tuple([0] + acc[:order])


def builtin_form(name: str, order: int) -> QSeries:
    """Named q-expansion: F, G, theta4, delta, lambda, or E<k> (level 1)."""
    if name == "F":
        e1 = eisenstein_series(2, 1, order)
        e2 = eisenstein_series(2, 2, order)
        e4 = eisenstein_series(2, 4, order)
        return (e1 - 3 * e2 + 2 * e4) * Fraction(-1, 24)
    if name in ("G", "theta4"):
        theta = [0] * (order + 1)
        theta[0] = 1
        n = 1
        while n * n <= order:
            theta[n * n] = 2
            n += 1
        t = QSeries(tuple(theta), order)
        sq = t * t
        return sq * sq
    if name == "delta":
        return QSeries(_delta_coeffs(order), order)
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
    if m >= 1:
        quot = _div_coeffs(du, u, m - 1)
        coeffs = [Fraction(0)] + list(quot)
    else:
        coeffs = [Fraction(0)]
    coeffs[0] += v + Fraction(s.prefactor_num, 24)
    return QSeries(tuple(coeffs), m)
