"""Reference values for the benchmark's checks, computed without moditer.

Nothing here imports the package under test.  Coefficients are exact
integers from closed constructions (an integer eta product, divisor sums,
Jacobi's theta function), and every numeric reference takes a different
route from the program:

  * depth-1 iterated integrals: the Mellin transform split at 1/sqrt(N),
    each q-power integrated exactly with mpmath's incomplete gamma;
  * words with integer inner exponents: term-by-term integration of the
    q-expansions (exponential polynomials), ending in a Dirichlet sum;
  * multiple L-values: nested Dirichlet sums by numpy convolution;
  * multiple zeta values: mpmath.zeta and classical closed forms.

``self_test`` checks the references against known values before a run.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

mpmath.mp.dps = 20

# name -> (level, weight); the Fricke companions carry a trailing "~"
FORMS = {
    "delta": (1, 12),
    "E4": (1, 4),
    "E6": (1, 6),
    "F": (4, 2),
    "G": (4, 2),
}

# Largest q-power the oracles ever need: twice the default Dirichlet cutoff.
MAX_ORDER = 4000

# --- exact coefficients -------------------------------------------------------

def _sparse_power(f: list, k: int, n: int) -> list:
    """f^k to q^n for an integer series with f[0] = 1, by J. C. P. Miller's
    recurrence m g_m = sum_j ((k + 1) j - m) f_j g_(m-j); the division is exact."""
    nz = [(j, c) for j, c in enumerate(f[: n + 1]) if j and c]
    g = [1] + [0] * n
    for m in range(1, n + 1):
        acc = 0
        for j, c in nz:
            if j > m:
                break
            acc += ((k + 1) * j - m) * c * g[m - j]
        g[m] = acc // m
    return g


def _dense_mul(a: list, b: list, n: int) -> list:
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def euler_product(n: int) -> list:
    """prod_{m>=1} (1 - q^m) to q^n by Euler's pentagonal number theorem."""
    out = [0] * (n + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 else 1
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if e <= n:
                out[e] = sign
        k += 1
    return out


def sigma_table(k: int, n: int) -> list:
    """sigma_k(m) for m = 0..n (entry 0 unused) by a divisor sieve."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for m in range(d, n + 1, d):
            table[m] += dk
    return table


def _delta(n: int) -> list:
    # Delta = q * prod (1 - q^m)^24
    return [0] + _sparse_power(euler_product(n - 1), 24, n - 1)


def _eisenstein(k: int, n: int) -> list:
    c = {4: 240, 6: -504}[k]
    sig = sigma_table(k - 1, n)
    return [1] + [c * sig[m] for m in range(1, n + 1)]


def _level4_F(n: int) -> list:
    # F = eta(4z)^8 / eta(2z)^4 = sum over odd m of sigma(m) q^m
    sig = sigma_table(1, n)
    return [sig[m] if m % 2 else 0 for m in range(n + 1)]


def _theta4(n: int) -> list:
    # G = theta(z)^4 with theta = sum over all integers j of q^(j^2)
    theta = [0] * (n + 1)
    j = 0
    while j * j <= n:
        theta[j * j] += 1 if j == 0 else 2
        j += 1
    return _sparse_power(theta, 4, n)


class Coefficients:
    """Exact integer q-expansion coefficients up to MAX_ORDER, built once."""

    def __init__(self, order: int = MAX_ORDER):
        self.order = order
        self.exact = {
            "delta": _delta(order),
            "E4": _eisenstein(4, order),
            "E6": _eisenstein(6, order),
            "F": _level4_F(order),
            "G": _theta4(order),
        }
        self._arrays = {}

    def ints(self, name: str, order: int) -> list:
        return self.exact[name][: order + 1]

    def array(self, name: str) -> np.ndarray:
        """Complex coefficients of a form or of its Fricke companion (name~)."""
        if name not in self._arrays:
            base = name.rstrip("~")
            a = np.array([float(c) for c in self.exact[base]], dtype=complex)
            if name.endswith("~"):
                a = companion(base, a, self.array("G") if base == "F" else None)
            self._arrays[name] = a
        return self._arrays[name]


def companion(name: str, coeffs: np.ndarray, g_coeffs=None) -> np.ndarray:
    """g with g(z) = N^(-k/2) z^(-k) f(-1/(Nz)).  Level-1 forms of even weight
    are their own companions; theta(-1/(4z)) = sqrt(-2iz) theta(z) gives
    G -> -G and F -> F - G/16.  self_test confirms all of them numerically."""
    if name in ("delta", "E4", "E6"):
        return coeffs
    if name == "G":
        return -coeffs
    return coeffs - g_coeffs / 16.0


# --- evaluation of q-series ---------------------------------------------------

def eval_series(coeffs: np.ndarray, z: complex):
    """sum a_n q^n at z and the sum of |a_n q^n|."""
    n = np.arange(len(coeffs))
    terms = coeffs * np.exp(2j * math.pi * z * n)
    return complex(terms[::-1].sum()), float(np.abs(terms).sum())


# --- depth-1 iterated integrals by the split Mellin transform -----------------

def _upper_mellin(coeffs: np.ndarray, s, y0: float):
    """int_{y0}^{inf} f(iu) u^(s-1) du, continued in s; (value, |parts|)."""
    total = -mpmath.mpf(coeffs[0].real) * mpmath.power(y0, s) / s if coeffs[0] else 0
    mag = abs(total)
    for m in range(1, len(coeffs)):
        c = coeffs[m].real
        if not c:
            continue
        term = c * mpmath.power(2 * mpmath.pi * m, -s) * mpmath.gammainc(s, 2 * mpmath.pi * m * y0)
        total += term
        mag += abs(term)
        # e^(-2 pi m y0) makes the rest negligible long before the end
        if abs(term) < 1e-24 * mag:
            break
    return total, mag


def _companion_name(name: str) -> str:
    return name[:-1] if name.endswith("~") else name + "~"


def iterint_depth1(coeffs_db: Coefficients, name: str, s: complex, order: int):
    """I_{i inf}^0(f; s) = int f(z) z^(s-1) dz along the imaginary axis,
    regularised at both cusps.  Returns (value, |parts|, truncation tail),
    the tail being the size of the q-expansion beyond ``order`` at the
    lowest point i/sqrt(N) of the split path.

    With z = it: I = -i^s [U(f, s) + N^(k/2 - s) i^k U(g, k - s)], where
    U(f, s) = int_{y0}^inf f(iu) u^(s-1) du, g is the Fricke companion and
    y0 = 1/sqrt(N) the fixed point of z -> -1/(Nz).
    """
    level, weight = FORMS[name.rstrip("~")]
    y0 = 1.0 / math.sqrt(level)
    f = coeffs_db.array(name)
    g = coeffs_db.array(_companion_name(name))
    s = mpmath.mpc(s)
    up, up_mag = _upper_mellin(f[:80], s, y0)
    lo, lo_mag = _upper_mellin(g[:80], weight - s, y0)
    pref = mpmath.power(level, mpmath.mpf(weight) / 2 - s) * mpmath.power(1j, weight)
    outer = -mpmath.exp(1j * mpmath.pi * s / 2)
    value = outer * (up + pref * lo)
    mag = abs(outer) * (up_mag + abs(pref) * lo_mag)
    m = np.arange(order + 1, min(order + 200, len(f)))
    tail = float(((np.abs(f[m]) + np.abs(g[m])) * np.exp(-2 * math.pi * m * y0)).sum())
    return complex(value), float(mag), tail


# --- words with integer inner exponents, term by term --------------------------

def iterint_fourier(coeffs_db: Coefficients, names, s: complex, alphas, cutoff: int):
    """I_{i inf}^0(f_1..f_n; s, a_2..a_n) with integer a_k >= 1, f_1 outermost.

    The running inner integral is kept as sum_T e^(2 pi i T z) P_T(z) with
    polynomials P_T; integrating e^(2 pi i T w) w^d from i*infinity is an
    exponential polynomial again, and w^d alone (T = 0) integrates to
    z^(d+1)/(d+1).  The outermost layer gives
    int_{i inf}^0 e^(2 pi i T z) z^(sigma-1) dz = -i^sigma Gamma(sigma) (2 pi T)^-sigma,
    and 0 for T = 0 (the regularised value).  Returns (value, |parts|).
    """
    C = cutoff
    deg = sum(alphas) + 1
    P = np.zeros((C + 1, deg + 1), dtype=complex)
    P[0, 0] = 1.0
    T = np.arange(C + 1, dtype=float)
    lam = 2j * math.pi * T[1:]
    for name, a in zip(reversed(names[1:]), reversed(list(alphas))):
        c = coeffs_db.array(name)[: C + 1]
        Q = np.zeros_like(P)
        for p in range(deg + 1 - (a - 1)):
            if P[:, p].any():
                Q[:, p + a - 1] = np.convolve(c, P[:, p])[: C + 1]
        P = np.zeros_like(Q)
        for d in range(deg + 1):
            col = Q[:, d]
            if not col.any():
                continue
            if col[0]:
                P[0, d + 1] += col[0] / (d + 1)
            for j in range(d + 1):
                P[1:, d - j] += col[1:] * ((-1) ** j * math.perm(d, j)) / lam ** (j + 1)
    c = coeffs_db.array(names[0])[: C + 1]
    total = 0j
    mag = 0.0
    logs = np.log(2 * math.pi * T[1:])
    for p in range(deg + 1):
        if not P[:, p].any():
            continue
        col = np.convolve(c, P[:, p])[1 : C + 1]
        sigma = p + complex(s)
        factor = -cmath.exp(0.5j * math.pi * sigma) * complex(mpmath.gamma(sigma))
        terms = col * np.exp(-sigma * logs)
        total += factor * terms.sum()
        mag += abs(factor) * float(np.abs(terms).sum())
    return total, mag


def tilde_fourier(coeffs_db: Coefficients, names, alphas, z: complex, cutoff: int):
    """Shifted integral I~ at z: each layer integrates (w_r - w_{r-1})^(a_r - 1)
    from i*infinity to its parent's variable.  With g_T the running Fourier
    coefficients, a layer multiplies by its cuspidal form (if any) and then
    maps g_T -> g_T * (-i^a (a-1)! / (2 pi T)^a).  Slots named None are 1.
    Returns (value, |parts|)."""
    C = cutoff
    T = np.arange(1, C + 1, dtype=float)
    g = None
    for name, a in zip(reversed(list(names)), reversed(list(alphas))):
        if name is not None:
            c = coeffs_db.array(name)[: C + 1].copy()
            c[0] = 0.0
            g = c if g is None else np.convolve(c, g)[: C + 1]
        kernel = -(1j**a) * math.factorial(a - 1) * np.exp(-a * np.log(2 * math.pi * T))
        g = np.concatenate(([0j], g[1:] * kernel))
    return eval_series(g, z)


# --- multiple L-values -----------------------------------------------------------

def nested_L(coeffs_db: Coefficients, names, s_list, cutoff: int):
    """(-2 pi i)^(-sum s) sum over m_1..m_n >= 1, m_1+..+m_n <= cutoff of
    prod a_(m_i) / ((m_1+..+m_n)^s_1 (m_2+..+m_n)^s_2 .. m_n^s_n).
    Returns (value, |parts|)."""
    C = cutoff
    logs = np.log(np.arange(1, C + 1, dtype=float))
    acc = None
    for name, s in zip(reversed(list(names)), reversed(list(s_list))):
        c = coeffs_db.array(name)[: C + 1].copy()
        c[0] = 0.0
        acc = c if acc is None else np.convolve(c, acc)[: C + 1]
        acc = np.concatenate(([0j], acc[1:] * np.exp(-complex(s) * logs)))
    pref = cmath.exp(-sum(complex(v) for v in s_list) * cmath.log(-2j * math.pi))
    return pref * acc.sum(), abs(pref) * float(np.abs(acc).sum())


def lvalue_depth1(coeffs_db: Coefficients, name: str, s: complex):
    """L(f; s) = (-2 pi i)^-s sum a_m m^-s, summed to infinity through the
    Mellin transform: the integral above is -i^s (2 pi)^-s Gamma(s) times
    the Dirichlet series.  Returns (value, |parts|)."""
    value, mag, _ = iterint_depth1(coeffs_db, name, s, coeffs_db.order)
    s = mpmath.mpc(s)
    factor = complex(
        mpmath.exp(-s * mpmath.log(-2j * mpmath.pi)) * mpmath.power(2 * mpmath.pi, s)
        / (-mpmath.exp(1j * mpmath.pi * s / 2) * mpmath.gamma(s))
    )
    return factor * value, abs(factor) * mag


# --- multiple zeta values ----------------------------------------------------------

def mzv(ks) -> float:
    """zeta(k_1, .., k_d), outer exponent first, for the indices the
    workloads draw: depth 1 by mpmath.zeta, depth 2 and 3 by closed forms."""
    ks = tuple(ks)
    z = mpmath.zeta
    if len(ks) == 1:
        return float(z(ks[0]))
    if len(ks) == 2 and ks[1] == 1:
        # Euler: zeta(n,1) = (n/2) zeta(n+1) - 1/2 sum_{k=1}^{n-2} zeta(n-k) zeta(k+1)
        n = ks[0]
        acc = mpmath.mpf(n) / 2 * z(n + 1)
        for k in range(1, n - 1):
            acc -= z(n - k) * z(k + 1) / 2
        return float(acc)
    if ks == (2, 2):
        return float((z(2) ** 2 - z(4)) / 2)
    if ks == (2, 1, 1):
        return float(z(4))  # duality
    raise ValueError(f"no reference for zeta{ks}")


# --- self-test -----------------------------------------------------------------------

def self_test(db: Coefficients) -> list:
    """Known values and identities; returns the list of failures (empty when
    every reference is right)."""
    bad = []

    def expect(name, got, want, rel=0.0):
        ok = got == want if rel == 0.0 else abs(got - want) <= rel * max(abs(want), 1e-300)
        if not ok:
            bad.append(f"{name}: got {got}, want {want}")

    tau = db.exact["delta"]
    expect("tau(1)", tau[1], 1)
    expect("tau(2)", tau[2], -24)
    expect("tau(3)", tau[3], 252)
    expect("tau(11)", tau[11], 534612)
    # Ramanujan: tau(mn) = tau(m) tau(n) for coprime m, n, far out in the table
    expect("tau(3993) = tau(3) tau(1331)", tau[3993], tau[3] * tau[1331])
    sig = sigma_table(1, 400)
    g = db.exact["G"]
    for n in range(1, 400):
        want = 8 * sig[n] - (32 * sig[n // 4] if n % 4 == 0 else 0)
        if g[n] != want:
            bad.append(f"r4({n}) = {g[n]}, Jacobi gives {want}")
            break
    # Delta = (E4^3 - E6^2) / 1728 ties the eta product to the divisor sums
    n = 300
    e4, e6 = db.exact["E4"], db.exact["E6"]
    cube = _dense_mul(_dense_mul(e4, e4, n), e4, n)
    lhs = [a - b for a, b in zip(cube, _dense_mul(e6, e6, n))]
    if [c // 1728 for c in lhs] != tau[: n + 1] or any(c % 1728 for c in lhs):
        bad.append("Delta != (E4^3 - E6^2)/1728")
    # modularity of each form and its companion at a point off the axis
    z = 0.13 + 0.71j
    for name, (level, weight) in FORMS.items():
        f = db.array(name)[:400]
        gcomp = db.array(name + "~")[:400]
        lhs = eval_series(f, -1.0 / (level * z))[0]
        rhs = level ** (weight / 2.0) * z**weight * eval_series(gcomp, z)[0]
        expect(f"{name}(-1/({level}z)) companion", lhs, rhs, 1e-11)
    # Mellin references against Dirichlet series in closed form
    for name, s, closed in (
        ("E4", 6.5, lambda s: 240 * mpmath.zeta(s) * mpmath.zeta(s - 3)),
        ("E6", 8.25, lambda s: -504 * mpmath.zeta(s) * mpmath.zeta(s - 5)),
        ("F", 3.5, lambda s: (1 - 2**-s) * (1 - 2 ** (1 - s)) * mpmath.zeta(s) * mpmath.zeta(s - 1)),
        ("G", 3.25, lambda s: 8 * (1 - 4 ** (1 - s)) * mpmath.zeta(s) * mpmath.zeta(s - 1)),
    ):
        got, _, _ = iterint_depth1(db, name, s, MAX_ORDER)
        want = -cmath.exp(0.5j * math.pi * s) * float(
            mpmath.gamma(s) * (2 * mpmath.pi) ** -s * closed(s)
        )
        expect(f"I({name}; {s}) vs zeta product", got, want, 1e-12)
    # Delta: Mellin against its (fast) Dirichlet series at s = 14
    got, _, _ = iterint_depth1(db, "delta", 14.0, MAX_ORDER)
    dser = math.fsum(tau[m] * m**-14.0 for m in range(1, 4001))
    want = -cmath.exp(7j * math.pi) * float(mpmath.gamma(14) * (2 * mpmath.pi) ** -14) * dser
    expect("I(delta; 14) vs sum tau(n) n^-14", got, want, 1e-12)
    # the termwise route agrees with the Mellin route at depth 1
    got, _ = iterint_fourier(db, ["delta"], 14.0, (), 2000)
    expect("termwise I(delta; 14)", got, want, 1e-12)
    # zeta(2,1) = zeta(3), with zeta(2,1) from its integral over the unit
    # interval, int_0^1 log(1-t)^2 / (2t) dt
    z21 = mpmath.quad(lambda t: mpmath.log(1 - t) ** 2 / (2 * t), [0, 1])
    expect("zeta(2,1) = zeta(3)", float(z21), mzv((2, 1)), 1e-12)
    expect("zeta(2) = pi^2/6", mzv((2,)), math.pi**2 / 6, 1e-15)
    return bad
