"""Modular forms as finite q-expansions: evaluation on the upper half-plane,
cuspidal decomposition f = f0 + a0, Fricke reflection, and JSON ingestion.

Coefficients are trusted metadata; no modularity is verified.  Built-ins
carry their Fricke companion series so integrals can be reflected without
evaluating q-expansions at small Im z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import qseries, quad
from .config import NumericsConfig
from .errors import DomainError, TruncationError

__all__ = [
    "ModularForm",
    "builtin",
    "cusp_part",
    "evaluate_at",
    "evaluate_at_with_tail",
    "evaluate_many",
    "evaluate_series",
    "fricke_evaluate",
    "fricke_companion",
    "load_form",
    "save_form",
]


@dataclass(frozen=True, eq=False)
class ModularForm:
    """A finite q-expansion on Gamma_0(level).  Forms compare and hash by
    identity: two forms with equal fields are two forms."""

    level: int
    weight: int
    label: str
    coeffs: tuple  # a_0 .. a_M, int | Fraction | float | complex
    chi: str = "trivial"
    # companion series g with g(z) = N^{-k/2} z^{-k} f(-1/(Nz)); wired for
    # built-ins, settable on ingested forms
    fricke: "ModularForm | None" = field(default=None, repr=False)
    # (C, g) with |a_n| <= C n^g for every n >= 1, proven for the built-ins
    # (see builtin); None where no bound is known, as for loaded forms
    growth: "tuple | None" = None

    def __post_init__(self):
        if self.level < 1:
            raise DomainError("level must be a positive integer")
        if not self.coeffs:
            raise DomainError("coefficient list must be nonempty")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def a0(self):
        return self.coeffs[0]

    @property
    def is_cuspidal(self) -> bool:
        return not self.coeffs[0]

    @cached_property
    def _np_coeffs(self) -> np.ndarray:
        # lives in the instance __dict__, so it is freed with the form
        try:
            values = [complex(c) for c in self.coeffs]
        except OverflowError:  # convert again, naming the first one out of range
            values = [_coeff_as(self, n, complex) for n in range(len(self.coeffs))]
        arr = np.array(values, dtype=complex)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _logs(self) -> np.ndarray:
        # log|a_j|, -inf at a zero coefficient; freed with the form too
        with np.errstate(divide="ignore"):
            arr = np.log(np.abs(self._np_coeffs))
        arr.setflags(write=False)
        return arr

    @cached_property
    def _cuts(self) -> dict:
        # log max|q| -> the cut J there (evaluate_many), at most _CUTS entries
        return {}

    @cached_property
    def _cusp_part(self) -> "ModularForm":
        # built once and kept beside _np_coeffs: one cusp part per live form
        return ModularForm(self.level, self.weight, self.label + "^0",
                           (0,) + self.coeffs[1:], self.chi, growth=self.growth)


def _coeff_as(f: ModularForm, n: int, kind):
    """kind(a_n) for kind float or complex; DomainError where a_n leaves the float range."""
    try:
        return kind(f.coeffs[n])
    except OverflowError:
        raise DomainError(f"form {f.label!r}: coefficient a_{n} leaves the float range") from None


def _set_fricke(f: ModularForm, g: ModularForm):
    """Wire f and g as each other's Fricke companion (an involution in even weight)."""
    object.__setattr__(f, "fricke", g)
    object.__setattr__(g, "fricke", f)


def from_qseries(qs: qseries.QSeries, level: int, weight: int, label: str,
                 growth: tuple | None = None) -> ModularForm:
    if qs.prefactor_num % 24:
        raise DomainError("series with fractional q-powers is not a form on Gamma_0(N)")
    shift = qs.prefactor_num // 24
    coeffs = (0,) * shift + qs.coeffs
    return ModularForm(level, weight, label, tuple(coeffs), growth=growth)


# sigma(n) = n sum_{d | n} 1/d <= n (1 + ln n), and (1 + ln n) / n^(1/4) peaks
# at n = e^3, where it is 4 e^(-3/4) = 1.8895..: so sigma(n) <= 1.89 n^(5/4).
_SIGMA = (1.89, 1.25)


def _zeta_upper(x: float) -> float:
    """An upper bound on zeta(x), x > 1: the terms m <= 64 summed, and the rest
    below the integral of t^-x from 64, since t^-x decreases; raised by 1e-12
    of itself, far above the rounding of these 65 float terms."""
    return (sum(m ** -x for m in range(1, 65)) + 64.0 ** (1 - x) / (x - 1)) * (1 + 1e-12)


def _eisenstein_growth(k: int) -> tuple:
    # a_n = (-2k/B_k) sigma_{k-1}(n), and sigma_{k-1}(n) = n^{k-1} sum_{d | n}
    # d^{1-k} <= zeta(k-1) n^{k-1}; E2 (k = 2) has a_n = -24 sigma(n)
    if k == 2:
        return (24 * _SIGMA[0], _SIGMA[1])
    return (abs(float(Fraction(2 * k) / qseries.bernoulli(k))) * _zeta_upper(k - 1), k - 1)


def _sum_growth(*parts) -> tuple:
    """(C, g) of sum_i c_i f_i with (|c_i|, f_i's (C_i, g)) in parts, all of one
    g: |sum_i c_i a_n(f_i)| <= (sum_i |c_i| C_i) n^g by the triangle inequality."""
    return (sum(c * C for c, (C, _) in parts), parts[0][1][1])


@lru_cache(maxsize=32)
def builtin(name: str, order: int) -> ModularForm:
    """Built-in form with its Fricke companion attached.

    Level 4: F, G (= theta4); level 1: delta and E<k>.  Companions follow
    from theta(-1/(4z)) = sqrt(-2iz) theta(z): G-tilde = -G and
    F-tilde = F - G/16; level-1 forms are self-companion (weight even),
    except E2, which is only quasimodular and gets none.

    Each form and companion carries its proven coefficient bound `growth`:
    Delta (2, 6), since |tau(n)| <= d(n) n^(11/2) (Deligne) and d(n) <= 2 sqrt(n)
    (a divisor d <= sqrt(n) pairs with n/d); E<k> (|2k/B_k| zeta(k-1), k-1);
    F (1.89, 5/4) and E2 (24 * 1.89, 5/4) from sigma(n) <= 1.89 n^(5/4); G
    (8 * 1.89, 5/4), since r_4(n) = 8 sum_{d | n, 4 does not divide d} d <=
    8 sigma(n); the companions by the triangle inequality.

    Built once per (name, order) and shared: the form is frozen and its
    companion is wired here.  The memo keeps the 32 most recently used
    keys, a fixed bound with room for several orders of every form (the
    README's CLI commands use 9 keys).  An unknown name raises on every
    call, since errors are not cached.
    """
    if name in ("G", "theta4"):
        growth = (8 * _SIGMA[0], _SIGMA[1])
        g = from_qseries(qseries.builtin_form("G", order), 4, 2, "G", growth)
        _set_fricke(g, ModularForm(4, 2, "G|w4", tuple(-b for b in g.coeffs), growth=growth))
        return g
    if name == "F":
        f = from_qseries(qseries.builtin_form("F", order), 4, 2, "F", _SIGMA)
        g = builtin("G", order)
        _set_fricke(f, ModularForm(4, 2, "F|w4", tuple(
            Fraction(16 * a - b, 16) for a, b in zip(f.coeffs, g.coeffs)
        ), growth=_sum_growth((1, f.growth), (1 / 16, g.growth))))
        return f
    if name == "delta" or (name.startswith("E") and name[1:].isdigit()):
        qs = qseries.builtin_form(name, order)
        weight = 12 if name == "delta" else int(name[1:])
        f = from_qseries(qs, 1, weight, name, (2, 6) if name == "delta" else _eisenstein_growth(weight))
        if weight != 2:
            _set_fricke(f, f)  # level 1, even weight: f|w1 = f
        return f
    raise DomainError(f"unknown built-in form {name!r}")


def cusp_part(f: ModularForm) -> ModularForm:
    """f0 = f - a0: the same form with its constant term zeroed, built once
    per form and freed with it."""
    return f if f.is_cuspidal else f._cusp_part


def _tail_bound(f: ModularForm, y: float) -> float:
    # last nonzero coefficient; the literal a_M would understate sparse tails
    for j in range(f.order, -1, -1):
        if f.coeffs[j]:
            return abs(complex(f.coeffs[j])) * float(np.exp(-2 * np.pi * j * y))
    return 0.0


def evaluate_at_with_tail(f: ModularForm, z: complex, config: NumericsConfig = NumericsConfig()):
    """(value, heuristic tail bound |a_j| e^{-2 pi j Im z} at the last nonzero
    stored term); raises TruncationError when it exceeds the tolerance."""
    if z.imag <= 0:
        raise DomainError("evaluation requires Im z > 0")
    value = complex(evaluate_many(f, [z])[0])
    tail = _tail_bound(f, z.imag)
    if tail > config.tol:
        raise TruncationError(
            f"tail bound {tail:.3e} at Im z = {z.imag:.4g} exceeds tolerance "
            f"{config.tol:.1e}; raise the order or reflect toward i*infinity"
        )
    return value, tail


def evaluate_at(f: ModularForm, z: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    return evaluate_at_with_tail(f, z, config)[0]


# The sum stops where the terms fall below e^-46 (about 1e-20, under a tenth
# of a unit roundoff) of the largest: see _significant_cut.
_CUT_LOG = 46.0

# Chain heights whose cut a form remembers; the oldest is dropped first.
_CUTS = 16


def _significant_cut(logs: np.ndarray, log_r: float) -> int:
    """Last index J with log|a_J| + J log r >= max_j(log|a_j| + j log r) - 46,
    for logs = log|a_j| and r = max|q| over the points.

    Why stopping the sum at J changes no value beyond rounding: let i* be
    the index of the largest term at r, so J >= i*.  For any j > J and any
    point q (|q| <= r, j > i*),
        |a_j q^j| / |a_i* q^i*| <= |a_j r^j| / |a_i* r^i*| < e^-46,
    so the dropped terms sum to less than M e^-46 (about M 1e-20) times the
    point's own largest term.  The rounding error of the power sum itself
    can reach about (J + 1) eps sum_j |a_j q^j| (Higham, ch. 3 and 5),
    eps = 1.1e-16, far above that.

    A zero coefficient has log -inf, and so does j log r where it
    overflows; j = 0 adds nothing, even at log r = -inf.  Where every term
    is -inf (an all-zero array, or q = 0 with a_0 = 0) the sum is 0 and J is
    0.  A NaN point or coefficient keeps every index."""
    terms = logs.copy()
    with np.errstate(over="ignore"):
        terms[1:] += log_r * np.arange(1, len(logs))
    top = terms.max()
    if np.isnan(top):
        return len(logs) - 1
    if top == -np.inf:
        return 0
    return int(np.flatnonzero(terms >= top - _CUT_LOG)[-1])


def horner_many(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] table[j]: with table row j = q^j at every point
    (quad.Chain.powers), a q-expansion's values at the points, as one
    matrix-vector product.

    The one evaluation kernel of the package.  It replaced a Horner loop and
    keeps its name, under which modbench's tracer times it (kernels.horner).
    Its callers hand it coeffs[:J+1] with J from _significant_cut, so the
    cost follows the height of the points rather than the stored order M."""
    return coeffs @ table


def _as_chain(zs) -> quad.Chain:
    # a copy: the Chain makes its points read-only
    return zs if isinstance(zs, quad.Chain) else quad.Chain(np.array(zs, dtype=complex))


def evaluate_series(coeffs, zs) -> np.ndarray:
    """sum_n coeffs[n] q^n at q = e^{2 pi i z} for every z: zs is a
    quad.Chain, whose power table serves the call, or an array of one-off
    points, which get a table of their own.  The sum stops at the points'
    last significant term (_significant_cut)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    chain = _as_chain(zs)
    with np.errstate(divide="ignore"):
        cut = _significant_cut(np.log(np.abs(coeffs)), chain.log_r)
    return horner_many(coeffs[: cut + 1], chain.powers(cut))


def evaluate_many(f: ModularForm, zs) -> np.ndarray:
    """Vectorized q-expansion evaluation on a quad.Chain or at an array of
    points, as evaluate_series, with log|a_j| and the cut of each chain
    height kept on the form.  The stored coefficients are trusted: the tail
    beyond the order is not bounded here (quadrature paths stay at
    Im z >= 1/sqrt(N); evaluate_at_with_tail reports a tail bound)."""
    chain = _as_chain(zs)
    cut = f._cuts.get(chain.log_r)
    if cut is None:
        if len(f._cuts) >= _CUTS:
            del f._cuts[next(iter(f._cuts))]
        cut = f._cuts[chain.log_r] = _significant_cut(f._logs, chain.log_r)
    return horner_many(f._np_coeffs[: cut + 1], chain.powers(cut))


def fricke_evaluate(f: ModularForm, z: complex, config: NumericsConfig = NumericsConfig()) -> complex:
    """f|omega_N at z: N^{-k/2} z^{-k} f(-1/(Nz))."""
    if f.chi != "trivial":
        raise DomainError("Fricke reflection implemented for trivial character only")
    if z.imag <= 0:
        raise DomainError("Fricke evaluation requires Im z > 0")
    w = -1.0 / (f.level * z)
    inner = evaluate_at(f, w, config)
    return f.level ** (-f.weight / 2.0) * z ** (-f.weight) * inner


def fricke_companion(f: ModularForm) -> ModularForm:
    if f.fricke is None:
        raise DomainError(
            f"form {f.label!r} has no Fricke companion series attached; "
            "needed to reflect integrals through i/sqrt(N)"
        )
    return f.fricke


# ------------------------------------------------------------ serialization

def _decode_coeff(c, path, n):
    # exact types: JSON true/false parse as bools, which isinstance counts as ints
    if type(c) in (int, float):
        return c
    if isinstance(c, list) and len(c) == 2 and all(type(t) in (int, float) for t in c):
        return complex(c[0], c[1])
    raise DomainError(f"form file {path}: coeffs[{n}] = {c!r} is not a number or [re, im]")


def _int_field(data, key, path) -> int:
    try:
        return int(data[key])
    except (TypeError, ValueError):
        raise DomainError(f"form file {path}: field {key!r} is not an integer") from None


def _encode_coeff(c):
    if isinstance(c, complex):
        return [c.real, c.imag]
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else float(c)
    return c


def load_form(path) -> ModularForm:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read form file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"cannot parse form file {path}: {exc}") from exc
    for key in ("level", "weight", "coeffs"):
        if not isinstance(data, dict) or key not in data:
            raise DomainError(f"form file {path} missing field {key!r}")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise DomainError(f"form file {path} has an empty coefficient list")
    level = _int_field(data, "level", path)
    if level < 1:
        raise DomainError(f"form file {path}: field 'level' must be a positive integer")
    return ModularForm(
        level,
        _int_field(data, "weight", path),
        str(data.get("label", "ingested")),
        tuple(_decode_coeff(c, path, n) for n, c in enumerate(coeffs)),
        str(data.get("chi", "trivial")),
    )


def save_form(f: ModularForm, path) -> None:
    data = {
        "level": f.level,
        "weight": f.weight,
        "label": f.label,
        "chi": f.chi,
        "coeffs": [_encode_coeff(c) for c in f.coeffs],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
