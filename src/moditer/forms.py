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

from . import qseries
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


@dataclass(frozen=True)
class ModularForm:
    level: int
    weight: int
    label: str
    coeffs: tuple  # a_0 .. a_M, int | Fraction | float | complex
    chi: str = "trivial"
    # companion series g with g(z) = N^{-k/2} z^{-k} f(-1/(Nz)); wired for
    # built-ins, settable on ingested forms; excluded from equality/hash to
    # keep the mutual references finite.
    fricke: "ModularForm | None" = field(default=None, compare=False, repr=False)

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
        arr = np.array([complex(c) for c in self.coeffs], dtype=complex)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _cusp_part(self) -> "ModularForm":
        # built once and kept beside _np_coeffs: one cusp part per live form
        return ModularForm(self.level, self.weight, self.label + "^0",
                           (0,) + self.coeffs[1:], self.chi)


def _set_fricke(f: ModularForm, g: ModularForm):
    """Wire f and g as each other's Fricke companion (an involution in even weight)."""
    object.__setattr__(f, "fricke", g)
    object.__setattr__(g, "fricke", f)


def from_qseries(qs: qseries.QSeries, level: int, weight: int, label: str) -> ModularForm:
    if qs.prefactor_num % 24:
        raise DomainError("series with fractional q-powers is not a form on Gamma_0(N)")
    shift = qs.prefactor_num // 24
    coeffs = (0,) * shift + qs.coeffs
    return ModularForm(level, weight, label, tuple(coeffs))


@lru_cache(maxsize=32)
def builtin(name: str, order: int) -> ModularForm:
    """Built-in form with its Fricke companion attached.

    Level 4: F, G (= theta4); level 1: delta and E<k>.  Companions follow
    from theta(-1/(4z)) = sqrt(-2iz) theta(z): G-tilde = -G and
    F-tilde = F - G/16; level-1 forms are self-companion (weight even),
    except E2, which is only quasimodular and gets none.

    Built once per (name, order) and shared: the form is frozen and its
    companion is wired here.  The memo keeps the 32 most recently used
    keys, a fixed bound with room for several orders of every form (the
    README's CLI commands use 7 keys).  An unknown name raises on every
    call, since errors are not cached.
    """
    if name in ("G", "theta4"):
        g = from_qseries(qseries.builtin_form("G", order), 4, 2, "G")
        _set_fricke(g, ModularForm(4, 2, "G|w4", tuple(-b for b in g.coeffs)))
        return g
    if name == "F":
        f = from_qseries(qseries.builtin_form("F", order), 4, 2, "F")
        g = from_qseries(qseries.builtin_form("G", order), 4, 2, "G")
        _set_fricke(f, ModularForm(4, 2, "F|w4", tuple(
            Fraction(a) - Fraction(b, 16) for a, b in zip(f.coeffs, g.coeffs)
        )))
        return f
    if name == "delta" or (name.startswith("E") and name[1:].isdigit()):
        qs = qseries.builtin_form(name, order)
        weight = 12 if name == "delta" else int(name[1:])
        f = from_qseries(qs, 1, weight, name)
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


def evaluate_at_with_tail(f: ModularForm, z: complex, config: NumericsConfig | None = None):
    """(value, heuristic tail bound |a_j| e^{-2 pi j Im z} at the last nonzero
    stored term); raises TruncationError when it exceeds the tolerance."""
    if z.imag <= 0:
        raise DomainError("evaluation requires Im z > 0")
    cfg = config if config is not None else NumericsConfig()
    value = complex(evaluate_many(f, [z])[0])
    tail = _tail_bound(f, z.imag)
    if tail > cfg.tol:
        raise TruncationError(
            f"tail bound {tail:.3e} at Im z = {z.imag:.4g} exceeds tolerance "
            f"{cfg.tol:.1e}; raise the order or reflect toward i*infinity"
        )
    return value, tail


def evaluate_at(f: ModularForm, z: complex, config: NumericsConfig | None = None) -> complex:
    return evaluate_at_with_tail(f, z, config)[0]


# Horner stops where the terms fall below e^-46 (about 1e-20, under a tenth
# of a unit roundoff) of the batch's largest: see horner_many.
_CUT_LOG = 46.0


def _significant_cut(coeffs: np.ndarray, log_r: float) -> int:
    """Last index J with log|a_J| + J log r >= max_j(log|a_j| + j log r) - 46.

    Runs under evaluate_series's errstate: a zero coefficient gets -inf, and
    so does j log r where it overflows.  j = 0 adds nothing, even at
    log r = -inf.  An all-zero array keeps every index (top = -inf), which
    is harmless."""
    logs = np.log(np.abs(coeffs))
    logs[1:] += log_r * np.arange(1, len(coeffs))
    top = logs.max()
    if np.isnan(top):  # a NaN point or coefficient: leave it to Horner
        return len(coeffs) - 1
    return int(np.flatnonzero(logs >= top - _CUT_LOG)[-1])


def horner_many(coeffs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] * ws**n at every point of ws (coeffs in ascending powers).

    The one Horner loop of the package.  Its callers hand it coeffs[:J+1]
    with J = _significant_cut at r = max|w| over the batch, so the cost
    follows the height of the points rather than the stored order M.  Why
    the cut changes no value beyond rounding: let i* be the index of the
    largest term at r, so J >= i*.  For any j > J and any batch point w
    (|w| <= r, j > i*),
        |a_j w^j| / |a_i* w^i*| <= |a_j r^j| / |a_i* r^i*| < e^-46,
    so the dropped terms sum to less than M e^-46 (about M 1e-20) times the
    point's own largest term.  Horner's rounding error on the full sum can
    reach about 2 M eps sum_j |a_j w^j|, eps = 1.1e-16, far above that.
    """
    acc = np.zeros(len(ws), dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * ws + c
    return acc


def evaluate_series(coeffs, zs) -> np.ndarray:
    """sum_n coeffs[n] q^n at q = e^{2 pi i z} for every z, Horner stopped at
    the batch's last significant term."""
    coeffs = np.asarray(coeffs, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    # log r = log max|q|.  Where 2 pi Im z overflows, log r is -inf and q is
    # 0, the exact limit; log|0| = -inf marks a zero coefficient.
    with np.errstate(divide="ignore", over="ignore"):
        log_r = -2 * np.pi * zs.imag.min() if zs.size else 0.0
        cut = _significant_cut(coeffs, log_r)
        qs = np.exp(2j * np.pi * zs)
    return horner_many(coeffs[: cut + 1], qs)


def evaluate_many(f: ModularForm, zs: np.ndarray) -> np.ndarray:
    """Vectorized q-expansion evaluation.  The stored coefficients are
    trusted: the tail beyond the order is not bounded here (quadrature paths
    stay at Im z >= 1/sqrt(N); evaluate_at_with_tail reports a tail bound)."""
    return evaluate_series(f._np_coeffs, zs)


def fricke_evaluate(f: ModularForm, z: complex, config: NumericsConfig | None = None) -> complex:
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

def _decode_coeff(c):
    if isinstance(c, (int, float)):
        return c
    if isinstance(c, list) and len(c) == 2 and all(isinstance(t, (int, float)) for t in c):
        return complex(c[0], c[1])
    raise DomainError(f"bad coefficient entry {c!r}: expected number or [re, im]")


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
        if key not in data:
            raise DomainError(f"form file {path} missing field {key!r}")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise DomainError(f"form file {path} has an empty coefficient list")
    return ModularForm(
        int(data["level"]),
        int(data["weight"]),
        str(data.get("label", "ingested")),
        tuple(_decode_coeff(c) for c in coeffs),
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
