"""The two numerical kernels: batched Horner evaluation of q-expansions
(forms.horner_many, stopped at the batch's last significant term) and the
coefficient convolution of the Dirichlet cascades (np.convolve, imported as
conv_complex by lfun and iterint).  The cascade in iterint._shells hands it
the real parts of its operands as real arrays when both are real, and the
complex arrays otherwise.
"""

import gc
import importlib.util
import math
import pathlib
import warnings
import weakref

import numpy as np
import pytest

from moditer import forms, iterint, lfun, qseries, quad
from moditer.config import NumericsConfig
from moditer.errors import AccuracyError

EPS = np.finfo(float).eps


def _random_batch(rng, n, m, scale=1.0):
    mk = lambda k: (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * scale
    return mk(n), mk(m)


def test_horner_matches_polyval():
    rng = np.random.default_rng(3)
    coeffs, ws = _random_batch(rng, 30, 50)
    got = forms.horner_many(coeffs, ws)
    want = np.polyval(coeffs[::-1], ws)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_conv_exact_on_integer_coefficients():
    order = 200
    g = qseries.builtin_form("G", order)
    for a in (g, qseries.builtin_form("F", order)):
        # every product and partial sum stays below 2^53, so the complex
        # convolution is exact and must reproduce the exact q-series product
        bound = (order + 1) * max(map(abs, a.coeffs)) * max(map(abs, g.coeffs))
        assert bound < 2**53
        got = lfun.conv_complex(np.array(a.coeffs, dtype=complex),
                                np.array(g.coeffs, dtype=complex))[: order + 1]
        assert got.tolist() == [complex(c) for c in (a * g).coeffs]

    # delta x delta outgrows float64; in integer arithmetic it is exact too
    d = qseries.builtin_form("delta", order)
    dd = np.array(d.coeffs, dtype=object)
    assert iterint.conv_complex(dd, dd)[: order + 1].tolist() == list((d * d).coeffs)


def test_conv_commutes_bitwise():
    # np.convolve always slides the shorter factor, so argument order cannot
    # change the accumulation order
    rng = np.random.default_rng(5)
    a, b = _random_batch(rng, 90, 13)
    assert np.array_equal(lfun.conv_complex(a, b), lfun.conv_complex(b, a))


def test_edge_lengths():
    one = np.array([2.0 + 1.0j])
    assert np.array_equal(lfun.conv_complex(one, one), np.array([3.0 + 4.0j]))
    empty_poly = forms.horner_many(np.zeros(1, complex), np.array([5.0 + 0j]))
    assert empty_poly[0] == 0


def test_cusp_part_form_freed_after_evaluate_many():
    # the coefficient array is cached on the form itself, so a throwaway
    # cusp part does not outlive its last reference (the form is built
    # outside the builtin memo, which would hold it and its cusp part)
    f0 = forms.cusp_part(forms.builtin.__wrapped__("E4", 50))
    vals = forms.evaluate_many(f0, np.array([0.1 + 1.0j, 0.3 + 0.5j]))
    assert np.all(np.isfinite(vals))
    ref = weakref.ref(f0)
    del f0
    gc.collect()
    assert ref() is None


def _path_nodes(level):
    # the nodes of one quadrature sweep down the vertical path to i/sqrt(N)
    panels = quad.vertical_panels(1j / math.sqrt(level), 12.0, 64, tail=True)
    x, _ = quad.gauss_legendre(16)
    a = np.array([p[0] for p in panels])
    b = np.array([p[1] for p in panels])
    return ((a + b)[:, None] / 2 + (b - a)[:, None] / 2 * x[None, :]).ravel()


def _forms_and_companions(order):
    for name in ("delta", "E4", "E6", "F", "G"):
        f = forms.builtin(name, order)
        yield f
        if f.fricke is not f:
            yield f.fricke


@pytest.mark.parametrize("order", [64, 2000])
def test_height_cut_changes_no_value_beyond_rounding(order):
    for f in _forms_and_companions(order):
        zs = _path_nodes(f.level)
        q = np.exp(2j * np.pi * zs)
        full = forms.horner_many(f._np_coeffs, q)
        scale = forms.horner_many(np.abs(f._np_coeffs), np.abs(q)).real
        got = forms.evaluate_many(f, zs)
        assert np.all(np.abs(got - full) <= 8 * EPS * scale), f.label


def test_height_cut_hands_over_few_terms(monkeypatch):
    seen = []
    horner = forms.horner_many
    monkeypatch.setattr(forms, "horner_many", lambda c, ws: seen.append(len(c)) or horner(c, ws))
    forms.evaluate_many(forms.builtin("delta", 2000), _path_nodes(1))
    assert seen and max(seen) <= 40


def test_height_cut_edge_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # q underflows to 0 at Im z = 200: the value is a_0, with no log(0) warning
        assert forms.evaluate_many(forms.builtin("E4", 64), [200j])[0] == 1
        assert forms.evaluate_many(forms.builtin("delta", 64), [200j])[0] == 0
        assert forms.evaluate_series(np.zeros(50), [0.1 + 0.5j])[0] == 0
        # |q| > 1: the largest terms are the last ones, nothing is cut
        coeffs = np.ones(30, dtype=complex)
        zs = np.array([-0.03j, 0.2 - 0.01j])
        assert np.array_equal(forms.evaluate_series(coeffs, zs),
                              forms.horner_many(coeffs, np.exp(2j * np.pi * zs)))


def _power_kernels():
    # f z^{s-1} for a mixed word, innermost first, as iterint builds them
    d, e4 = forms.builtin("delta", 64), forms.builtin("E4", 64)
    return [lambda z, f=f, s=s: forms.evaluate_many(f, z) * np.exp((s - 1) * np.log(z))
            for f, s in ((d, 3.0), (e4, 1.5 + 0.5j), (d, 2.0), (e4, 0.7))]


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def test_every_level_is_its_prefix_bit_for_bit():
    kernels = _power_kernels()
    for panels in (quad.vertical_panels(1j, 12.0, 16, tail=False),
                   quad.segment_panels(1.5j, 0.2 + 0.35j, 8)):
        for g in (quad.GL_ORDER, quad.GL_ORDER + 8):
            levels = quad.iterated_integral(kernels, panels, g)
            assert len(levels) == len(kernels)
            for j, value in enumerate(levels):
                alone = quad.iterated_integral(kernels[: j + 1], panels, g)
                assert _bits(value) == _bits(alone[-1])


def test_quadrature_caches_are_bounded():
    panels = quad.segment_panels(0j, 1j, 4)
    for g in range(2, 8):
        quad.iterated_integral([np.ones_like], panels, g)
    assert quad.gauss_legendre.cache_info().currsize <= 4
    assert quad._cumulative_operator.cache_info().currsize <= 4


@pytest.mark.parametrize("tol", [1e-17, 1e-19])
def test_adaptive_serves_each_level_as_its_own_call(tol):
    # at 4 panels the levels resolve after different numbers of doublings,
    # and at 1e-19 the innermost one stalls while the others resolve
    kernels = _power_kernels()
    cfg = NumericsConfig(panels=4, tol=tol)
    builder = lambda n: quad.vertical_panels(1j, 12.0, n, tail=False)
    shared = quad.adaptive_iterated(kernels, builder, cfg)
    for j, got in enumerate(shared):
        alone = quad.adaptive_iterated(kernels[: j + 1], builder, cfg)[-1]
        if isinstance(alone, Exception):
            assert (type(got), str(got)) == (type(alone), str(alone))
        else:
            assert (_bits(got[0]), got[1].hex()) == (_bits(alone[0]), alone[1].hex())
    if tol == 1e-19:
        assert [isinstance(r, Exception) for r in shared] == [True, False, False, False]


@pytest.mark.parametrize("fine", [complex(1.5e308, 1.5e308), complex("nan"), complex("inf")])
def test_adaptive_counts_a_non_finite_gap_as_infinite(monkeypatch, fine):
    # a gap whose modulus overflows (abs raises), is NaN or is infinite
    # never passes: the level stalls with the named error at gap inf
    def sweep(kernels, panels, g):
        return [fine if g > quad.GL_ORDER else 0j]

    monkeypatch.setattr(quad, "iterated_integral", sweep)
    cfg = NumericsConfig(panels=4, tol=1e-8)
    (got,) = quad.adaptive_iterated([np.ones_like], lambda n: [], cfg)
    assert isinstance(got, AccuracyError)
    assert str(got) == ("quadrature stalled at 32 panels with error estimate inf "
                        "(tolerance 1.0e-08)")


def test_traced_names_all_present():
    # modbench/spans.py wraps names by their current spelling; a renamed one
    # would silently read 0 in the benchmark's per-layer figures
    path = pathlib.Path(__file__).resolve().parents[1] / "modbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("modbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer(2000).absent == []
