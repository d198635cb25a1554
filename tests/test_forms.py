"""Modular form container, evaluation policy, and the Fricke involution."""

import cmath
import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from moditer import forms, qseries
from moditer.config import NumericsConfig
from moditer.errors import DomainError, TruncationError


# --- independent oracles -------------------------------------------------

def theta_brute(z, K=60):
    """Jacobi theta sum over integers, no q-series machinery."""
    return sum(cmath.exp(2j * cmath.pi * z * n * n) for n in range(-K, K + 1))


CFG = NumericsConfig()


def test_builtin_fields():
    F = forms.builtin("F", 50)
    G = forms.builtin("G", 50)
    d = forms.builtin("delta", 50)
    assert (F.level, F.weight) == (4, 2)
    assert (G.level, G.weight) == (4, 2)
    assert (d.level, d.weight) == (1, 12)
    assert F.coeffs[:6] == (0, 1, 0, 4, 0, 6)
    assert G.coeffs[:4] == (1, 8, 24, 32)
    assert F.is_cuspidal and d.is_cuspidal and not G.is_cuspidal
    assert F.chi == "trivial"


def test_builtin_memo_returns_the_same_form():
    for name in ("delta", "E4", "F", "G"):
        f = forms.builtin(name, 40)
        assert forms.builtin(name, 40) is f
        assert forms.builtin(name, 40).fricke is f.fricke


def test_forms_compare_by_identity():
    # a form is an object: equal fields make two forms, each its own key
    a = forms.ModularForm(1, 12, "f", (0, 1, -24))
    b = forms.ModularForm(1, 12, "f", (0, 1, -24))
    assert a != b and a == a
    assert len({a, b}) == 2


def test_builtin_memo_is_bounded():
    maxsize = forms.builtin.cache_info().maxsize
    first = weakref.ref(forms.builtin("E6", 3))
    for order in range(4, 5 + maxsize):
        forms.builtin("E6", order)
    assert forms.builtin.cache_info().currsize <= maxsize
    gc.collect()  # E6 is its own companion: a reference cycle
    assert first() is None


def test_builtin_unknown_name_raises_every_call():
    before = forms.builtin.cache_info().currsize
    for _ in range(3):
        with pytest.raises(DomainError, match="unknown built-in"):
            forms.builtin("H", 10)
    assert forms.builtin.cache_info().currsize == before


def test_theta_transformation_oracle():
    # theta(-1/(4z)) = sqrt(-2iz) theta(z); the square root is principal
    for z in (1j, 0.3 + 0.8j, -0.2 + 1.1j):
        lhs = theta_brute(-1 / (4 * z))
        rhs = cmath.sqrt(-2j * z) * theta_brute(z)
        assert abs(lhs - rhs) < 1e-12


def test_G_fricke_companion_is_minus_G():
    G = forms.builtin("G", 200)
    Gt = forms.fricke_companion(G)
    for z in (1j, 1 + 1j, 1.5j):
        direct = forms.fricke_evaluate(G, z, CFG)
        assert abs(direct - forms.evaluate_at(Gt, z, CFG)) < 1e-12
        assert abs(direct + forms.evaluate_at(G, z, CFG)) < 1e-12


def test_F_fricke_companion():
    F = forms.builtin("F", 200)
    G = forms.builtin("G", 200)
    for z in (1j, 0.25 + 0.9j):
        direct = forms.fricke_evaluate(F, z, CFG)
        want = forms.evaluate_at(F, z, CFG) - forms.evaluate_at(G, z, CFG) / 16
        assert abs(direct - want) < 1e-12


def test_fixed_point_invariant():
    # at z0 = i/sqrt(N) the involution is a fixed point of the upper half plane
    for name in ("F", "G", "delta", "E4"):
        f = forms.builtin(name, 200)
        z0 = 1j / math.sqrt(f.level)
        lhs = forms.evaluate_at(forms.fricke_companion(f), z0, CFG)
        rhs = f.level ** (-f.weight / 2) * z0 ** (-f.weight) * forms.evaluate_at(f, z0, CFG)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_level_one_builtins_self_companion():
    for name, z in (("delta", 2j), ("E4", 2j), ("E6", 1j + 0.3)):
        f = forms.builtin(name, 200)
        got = forms.fricke_evaluate(f, z, CFG)
        want = forms.evaluate_at(f, z, CFG)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_double_reflection_sign():
    # applying the involution twice multiplies by (-1)^k
    F = forms.builtin("F", 200)
    z = 0.4 + 1.2j
    twice = forms.fricke_evaluate(forms.fricke_companion(F), z, CFG)
    assert abs(twice - forms.evaluate_at(F, z, CFG)) < 1e-12


def test_periodicity():
    d = forms.builtin("delta", 200)
    z = 0.37 + 0.9j
    assert abs(forms.evaluate_at(d, z, CFG) - forms.evaluate_at(d, z + 1, CFG)) < 1e-12


def test_truncation_self_consistency():
    lo = forms.builtin("F", 200)
    hi = forms.builtin("F", 400)
    z = 0.3j
    assert abs(forms.evaluate_at(lo, z, CFG) - forms.evaluate_at(hi, z, CFG)) < 1e-12


def test_truncation_error_near_real_axis():
    d = forms.builtin("delta", 60)
    with pytest.raises(TruncationError, match="reflect"):
        forms.evaluate_at(d, 0.004j, CFG)
    # the tail bound is advisory, not a crash: raising order fixes it
    forms.evaluate_at(forms.builtin("delta", 2000), 0.05j, CFG)


def test_evaluate_many_matches_scalar():
    G = forms.builtin("G", 200)
    zs = np.array([1j, 0.5 + 0.8j, 2j, -1 + 1.5j])
    vec = forms.evaluate_many(G, zs)
    for i, z in enumerate(zs):
        assert abs(vec[i] - forms.evaluate_at(G, complex(z), CFG)) < 1e-13


def test_evaluate_rejects_lower_half_plane():
    G = forms.builtin("G", 50)
    with pytest.raises(DomainError):
        forms.evaluate_at(G, 1 - 1j, CFG)


def test_cusp_part():
    G = forms.builtin("G", 50)
    G0 = forms.cusp_part(G)
    assert G0.coeffs[0] == 0
    assert G0.coeffs[1:] == G.coeffs[1:]
    assert G0.label.endswith("^0")
    d = forms.builtin("delta", 50)
    assert forms.cusp_part(d) is d


def test_from_qseries_matches_builtin_delta():
    eta = qseries.eta_series(1, 80)
    d = forms.from_qseries(eta ** 24, level=1, weight=12, label="eta24")
    ref = forms.builtin("delta", 56)
    assert d.coeffs[:50] == ref.coeffs[:50]


def test_from_qseries_rejects_fractional_prefactor():
    eta = qseries.eta_series(1, 40)
    with pytest.raises(DomainError):
        forms.from_qseries(eta, level=1, weight=Fraction(1, 2), label="eta")


def test_save_load_round_trip(tmp_path):
    f = forms.builtin("F", 40)
    path = tmp_path / "F.json"
    forms.save_form(f, path)
    g = forms.load_form(path)
    assert g.coeffs == f.coeffs
    assert (g.level, g.weight, g.label, g.chi) == (f.level, f.weight, f.label, f.chi)
    # a second save of the loaded object is byte-identical
    path2 = tmp_path / "F2.json"
    forms.save_form(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_errors(tmp_path):
    with pytest.raises(DomainError, match="read"):
        forms.load_form(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError, match="parse"):
        forms.load_form(bad)
    nofield = tmp_path / "nofield.json"
    nofield.write_text(json.dumps({"level": 1, "coeffs": [0, 1]}))
    with pytest.raises(DomainError, match="weight"):
        forms.load_form(nofield)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"level": 1, "weight": 2, "coeffs": []}))
    with pytest.raises(DomainError):
        forms.load_form(empty)


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"level": 1, "weight": "x", "coeffs": [0, 1]}, "'weight'"),
        ({"level": [4], "weight": 2, "coeffs": [0, 1]}, "'level'"),
        (5, "'level'"),
        ({"level": 1, "weight": 12, "coeffs": [0, True]}, "coeffs[1]"),
        ({"level": 1, "weight": 12, "coeffs": [0, [1, False]]}, "coeffs[1]"),
        ({"level": 0, "weight": 12, "coeffs": [0, 1]}, "'level'"),
    ],
)
def test_load_names_malformed_field(tmp_path, payload, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError) as info:
        forms.load_form(path)
    assert str(path) in str(info.value) and field in str(info.value)


def test_coefficient_outside_float_range_is_named():
    f = forms.ModularForm(1, 12, "huge", (0, 1, 10**400))
    with pytest.raises(DomainError, match="'huge': coefficient a_2 leaves the float range"):
        forms.evaluate_many(f, np.array([1j]))


def test_fricke_rejects_nontrivial_character():
    f = forms.ModularForm(level=4, weight=2, label="twisted", coeffs=(0, 1), chi="odd")
    with pytest.raises(DomainError, match="character"):
        forms.fricke_evaluate(f, 1j, CFG)


def test_fricke_companion_unset():
    f = forms.ModularForm(level=4, weight=2, label="anon", coeffs=(0, 1))
    with pytest.raises(DomainError):
        forms.fricke_companion(f)
