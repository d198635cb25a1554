"""The two numerical kernels: q-expansion evaluation as one product of the
coefficients with a table of powers of q (forms.horner_many, stopped at the
points' last significant term; the table is kept with each quad.Chain) and the
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
from fractions import Fraction

import numpy as np
import pytest

from moditer import forms, iterint, lfun, mzv, qseries, quad
from moditer.config import NumericsConfig
from moditer.errors import AccuracyError, DomainError

EPS = np.finfo(float).eps


def _random_batch(rng, n, m, scale=1.0):
    mk = lambda k: (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * scale
    return mk(n), mk(m)


def test_horner_matches_polyval():
    # points whose q = e^{2 pi i z} are the random ws, moduli above 1 included
    rng = np.random.default_rng(3)
    coeffs, ws = _random_batch(rng, 30, 50)
    chain = quad.Chain(np.log(ws) / (2j * np.pi))
    got = forms.horner_many(coeffs, chain.powers(29))
    want = np.polyval(coeffs[::-1], chain.q)
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
    empty_poly = forms.horner_many(np.zeros(1, complex), np.array([[1.0 + 0j]]))
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


PI = 4 * np.arctan(np.longdouble(1))


def _longdouble(coeffs):
    # exact coefficients to long double precision, past 2^64 too
    his = [float(c) for c in coeffs]
    los = [float(Fraction(c) - Fraction(hi)) for c, hi in zip(coeffs, his)]
    return np.array(his, dtype=np.longdouble) + np.array(los, dtype=np.longdouble)


def _reference(a, zs):
    """sum_j a_j q^j and sum_j |a_j q^j| over the long double coefficients a,
    in long double, q = e^{2 pi i z} with pi in long double."""
    q = np.exp(2j * PI * np.asarray(zs).astype(np.clongdouble))
    powers = np.empty((len(a), q.size), dtype=np.clongdouble)
    powers[0] = 1
    np.cumprod(np.broadcast_to(q, (len(a) - 1, q.size)), axis=0, out=powers[1:])
    terms = a[:, None] * powers
    return terms.sum(0).astype(complex), np.abs(terms).sum(0).astype(float)


@pytest.mark.parametrize("order", [64, 2000])
def test_height_cut_changes_no_value_beyond_rounding(order):
    # the cut sum on a chain's power table against the whole series in long
    # double: within 8 (J + 1) eps sum_j |a_j q^j|, J the cut (Higham, ch. 3
    # and 5; the rounding of 2 pi z in double is in this too)
    points = 1j * np.geomspace(0.005, 0.3, 12) + np.linspace(-0.5, 0.5, 12)
    for f in _forms_and_companions(order):
        a = _longdouble(f.coeffs)
        panels = tuple(quad.vertical_panels(1j / math.sqrt(f.level), 12.0, 6, tail=False))
        chains = [quad._grid(panels, quad.GL_ORDER)]
        for chain in chains + [quad.Chain(np.array([z])) for z in points]:
            got = forms.evaluate_many(f, chain)
            want, scale = _reference(a, chain.nodes)
            cut = forms._significant_cut(f._logs, chain.log_r)
            assert np.all(np.abs(got - want) <= 8 * (cut + 1) * EPS * scale), f.label


def test_height_cut_hands_over_few_terms(monkeypatch):
    seen = []
    product = forms.horner_many
    monkeypatch.setattr(forms, "horner_many",
                        lambda c, table: seen.append((len(c), len(table))) or product(c, table))
    forms.evaluate_many(forms.builtin("delta", 2000), _path_nodes(1))
    assert seen and all(rows == terms <= 40 for terms, rows in seen)


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
                              coeffs @ quad.Chain(zs.copy()).powers(29))


def _power_kernels():
    # f z^{s-1} for a mixed word, innermost first, as iterint builds them
    d, e4 = forms.builtin("delta", 64), forms.builtin("E4", 64)
    return [lambda c, f=f, s=s: forms.evaluate_many(f, c) * np.exp((s - 1) * c.log)
            for f, s in ((d, 3.0), (e4, 1.5 + 0.5j), (d, 2.0), (e4, 0.7))]


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def test_every_level_is_its_prefix_bit_for_bit():
    # under both rules of the one pass
    kernels = _power_kernels()
    for panels in (quad.vertical_panels(1j, 12.0, 16, tail=False),
                   quad.segment_panels(1.5j, 0.2 + 0.35j, 8)):
        levels = quad.iterated_integral(kernels, panels, quad.GL_ORDER)
        assert len(levels) == len(kernels)
        for j, pair in enumerate(levels):
            alone = quad.iterated_integral(kernels[: j + 1], panels, quad.GL_ORDER)
            assert len(pair) == 2
            assert [_bits(v) for v in pair] == [_bits(v) for v in alone[-1]]


def test_quadrature_caches_are_bounded():
    ones = lambda c: np.ones_like(c.nodes)
    panels = quad.segment_panels(0j, 1j, 4)
    for g in range(2, 8):
        quad.iterated_integral([ones], panels, g)
    for k in range(100):
        quad.iterated_integral([ones], quad.segment_panels(0j, (1 + k) * 1j, 4), 16)
    for n in range(1, 101):
        quad.vertical_panels(1j, 12.0, n, tail=n % 2 == 0)
    assert quad._pair_rule.cache_info().currsize <= 4
    assert quad._grid.cache_info().currsize <= 32
    assert quad._vertical_panels.cache_info().currsize <= 64
    # 100 chains at distinct heights close to the real axis, where order-2000
    # forms keep up to all their terms: a chain keeps only a table within
    # TABLE_BYTES, and a form remembers at most _CUTS cuts
    d, e4 = forms.builtin("delta", 2000), forms.builtin("E4", 2000)
    chains = []
    kernels = [lambda c: chains.append(c) or forms.evaluate_many(d, c),
               lambda c: forms.evaluate_many(e4, c)]
    for k, y in enumerate(np.geomspace(0.005, 2.0, 100)):
        x = k / 100 - 0.5
        quad.iterated_integral(kernels, quad.segment_panels(complex(x, y), complex(x + 0.5, y), 4), 16)
    assert quad._grid.cache_info().currsize <= 32
    assert all(c._table.nbytes <= quad.TABLE_BYTES for c in chains)
    assert any(len(c._table) == 1 for c in chains) and any(len(c._table) > 1 for c in chains)
    assert all(len(f._cuts) == forms._CUTS for f in (d, e4))
    # a default chain down to i/2, 6 panels of 16 + 24 nodes, keeps the
    # table that the order-2000 forms ask for
    chain = quad._grid(quad.vertical_panels(0.5j, 12.0, 6, tail=False), quad.GL_ORDER)
    cuts = []
    for name in ("delta", "E4", "F", "G"):
        f = forms.builtin(name, 2000)
        forms.evaluate_many(f, chain)
        cuts.append(forms._significant_cut(f._logs, chain.log_r))
    assert chain.size == 6 * (2 * quad.GL_ORDER + 8)
    assert len(chain._table) > max(cuts) and chain._table.nbytes <= quad.TABLE_BYTES


def test_cached_chains_keep_no_form_alive():
    # a chain keeps q and its powers, never a form; the cut memo lives on the
    # form and goes with it.  Built outside the builtin memo, which holds its
    # forms.
    d, e4 = forms.builtin.__wrapped__("delta", 2000), forms.builtin.__wrapped__("E4", 200)
    panels = quad.vertical_panels(1j, 12.0, 6, tail=False)
    quad.iterated_integral([lambda c: forms.evaluate_many(d, c)], panels, 16)
    report = iterint.iterint_report(iterint.make_spec([(e4, 2.5), (d, 9.0)]))
    assert report.err_estimate < 1e-8 and quad._grid.cache_info().currsize > 0
    refs = [weakref.ref(f) for f in (d, e4, forms.cusp_part(e4))]
    del d, e4
    gc.collect()
    assert [r() for r in refs] == [None] * 3


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("b, height, n", [(1j, 12.0, 6), (0.5j, 30.0, 4), (0.3 + 0.35j, 1e300, 48)])
def test_vertical_panels_are_a_geometric_chain(b, height, n, tail):
    panels = quad.vertical_panels(b, height, n, tail)
    assert all(p[1] == q[0] for p, q in zip(panels, panels[1:]))
    assert _bits(panels[-1][1]) == _bits(b)
    assert all(z.real == b.real for p in panels for z in p)
    # the tail above height as it was built before the main section changed
    levels = max(1, math.ceil(math.log2(1e20 / height))) if tail else 0
    x = b.real
    old_tail = [(complex(x, height * 2.0 ** j), complex(x, height * 2.0 ** (j - 1)))
                for j in range(levels, 0, -1)]
    bits = lambda chain: [(_bits(top), _bits(low)) for top, low in chain]
    assert bits(panels[:levels]) == bits(old_tail)
    main = panels[levels:]
    assert len(main) == n and main[0][0] == complex(x, height)
    ratios = [(top.imag - low.imag) / low.imag for top, low in main]
    assert max(ratios) - min(ratios) <= 1e-12 * min(ratios)
    assert math.isclose(min(ratios), (height / b.imag) ** (1 / n) - 1, rel_tol=1e-12)


def _parent_vertical_panels(b, height, n, tail):
    """The descent chain as it was written before its breakpoints came from
    quad.geometric_breaks."""
    x = b.real
    panels = []
    if tail:
        levels = max(1, math.ceil(math.log2(1e20 / height)))
        for j in range(levels, 0, -1):
            panels.append((complex(x, height * 2.0 ** j), complex(x, height * 2.0 ** (j - 1))))
    step = (math.log(height) - math.log(b.imag)) / n
    pts = [complex(x, height)]
    pts += [complex(x, b.imag * math.exp(j * step)) for j in range(n - 1, 0, -1)]
    pts.append(b)
    panels.extend(zip(pts[:-1], pts[1:]))
    return panels


def test_vertical_panels_match_the_parent_formula_bit_for_bit():
    rng = np.random.default_rng(2024)
    cases = [(complex(-0.0, 0.5), 1e300, 6, True), (complex(-0.0, 0.5), 1e300, 6, False),
             (0.3 + 0.35j, 1e300, 48, True)]
    for _ in range(2000):
        x = rng.choice([-0.0, 0.0, rng.uniform(-1.0, 1.0)])
        b = complex(x, 10 ** rng.uniform(-3.0, 1.0))
        height = 1e300 if rng.random() < 0.1 else 10 ** rng.uniform(0.0, 300.0)
        cases.append((b, height, int(rng.integers(1, 65)), bool(rng.random() < 0.5)))
    bits = lambda chain: [(_bits(top), _bits(low)) for top, low in chain]
    for b, height, n, tail in cases:
        want = _parent_vertical_panels(b, height, n, tail)
        assert bits(quad.vertical_panels(b, height, n, tail)) == bits(want), (b, height, n, tail)


def test_geometric_breaks_have_exact_ends():
    for lo, hi, n in ((1e-10, 0.5, 16), (0.5, 1e300, 7), (2.0, 2.0, 3), (0.3, 12.0, 1)):
        ys = quad.geometric_breaks(lo, hi, n)
        assert len(ys) == n + 1 and ys[0] == lo and ys[-1] == hi
        assert all(a <= b for a, b in zip(ys, ys[1:]))


def test_vertical_panels_need_a_point_above_the_axis():
    for b in (0j, 0.5 + 0j, 0.5 - 1j):
        with pytest.raises(DomainError, match="Im b > 0"):
            quad.vertical_panels(b, 12.0, 6, tail=False)


def test_grid_is_shared_and_read_only():
    # a chain asked for again, in a new list, is served the same nodes
    seen = []
    chain = quad.vertical_panels(1j, 12.0, 6, tail=False)
    for panels in (chain, list(chain)):
        quad.iterated_integral([lambda c: seen.append(c) or np.ones_like(c.nodes)], panels, 16)
    assert seen[0] is seen[1]
    assert not any(a.flags.writeable for a in (seen[0].nodes, seen[0].halves, seen[0].log,
                                               seen[0].q, seen[0].powers(20)))


@pytest.mark.parametrize("tol", [1e-17, 1e-19, 1e-21])
def test_adaptive_serves_each_level_as_its_own_call(tol):
    # at 4 panels the levels resolve after different numbers of doublings,
    # and at 1e-21 the second one stalls while the others resolve
    kernels = _power_kernels()
    cfg = NumericsConfig(panels=4, tol=tol)
    builder = lambda n: quad.segment_panels(12j, 1j, n)
    shared = quad.adaptive_iterated(kernels, builder, cfg)
    for j, got in enumerate(shared):
        alone = quad.adaptive_iterated(kernels[: j + 1], builder, cfg)[-1]
        if isinstance(alone, Exception):
            assert (type(got), str(got)) == (type(alone), str(alone))
        else:
            assert (_bits(got[0]), got[1].hex()) == (_bits(alone[0]), alone[1].hex())
    if tol == 1e-21:
        assert [isinstance(r, Exception) for r in shared] == [False, True, False, False]


@pytest.mark.parametrize("fine", [complex(1.5e308, 1.5e308), complex("nan"), complex("inf")])
def test_adaptive_counts_a_non_finite_gap_as_infinite(monkeypatch, fine):
    # a gap whose modulus overflows (abs raises), is NaN or is infinite
    # never passes: the level stalls with the named error at gap inf
    def sweep(kernels, panels, g):
        return [(0j, fine)]

    monkeypatch.setattr(quad, "iterated_integral", sweep)
    cfg = NumericsConfig(panels=4, tol=1e-8)
    (got,) = quad.adaptive_iterated([np.ones_like], lambda n: [], cfg)
    assert isinstance(got, AccuracyError)
    assert str(got) == ("quadrature stalled at 32 panels with error estimate inf "
                        "(tolerance 1.0e-08)")


def _spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "modbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("modbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_all_present():
    # modbench/spans.py wraps names by their current spelling; a renamed one
    # would silently read 0 in the benchmark's per-layer figures
    assert _spans().Tracer(2000).absent == []


def test_traced_runs_count_one_sweep_per_attempt(monkeypatch):
    # modbench/spans.py reads iterated_integral's panels and g as args[1] and
    # args[2]; a changed signature would fail here, not in traced requests
    attempts = []
    build = quad.vertical_panels
    monkeypatch.setattr(quad, "vertical_panels", lambda *a, **k: attempts.append(a) or build(*a, **k))
    tracer = _spans().Tracer(2000)
    tracer.install()
    try:
        d, e4 = forms.builtin("delta", 64), forms.builtin("E4", 64)
        # at this tol one sweep doubles twice
        iterint.iterint_report(iterint.make_spec([(e4, 2.5), (d, 8.0)]), NumericsConfig(tol=1e-17))
        swept = tracer.count["quad.sweeps"]
        zeta3 = mzv.mzv_p1_integral(mzv.MzvIndex((2, 1)))
    finally:
        tracer.uninstall()
    assert len(attempts) == 5 and swept == len(attempts)
    assert tracer.count["quad.sweeps"] == swept + 2  # the word and its dual
    assert tracer.count["iterint.reports"] == 1
    assert abs(zeta3 - 1.2020569031595942) < 1e-14
