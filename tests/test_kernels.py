"""The two numerical kernels: batched Horner evaluation of q-expansions
(forms.horner_many) and the coefficient convolution of the Dirichlet
cascades (np.convolve, imported as conv_complex by lfun and iterint).
"""

import gc
import weakref

import numpy as np

from moditer import forms, iterint, lfun, qseries


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
    # cusp part does not outlive its last reference
    f0 = forms.cusp_part(forms.builtin("E4", 50))
    vals = forms.evaluate_many(f0, np.array([0.1 + 1.0j, 0.3 + 0.5j]))
    assert np.all(np.isfinite(vals))
    ref = weakref.ref(f0)
    del f0
    gc.collect()
    assert ref() is None
