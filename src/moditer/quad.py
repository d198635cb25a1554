"""Panel-based Gauss-Legendre machinery for nested path integrals.

A path is a list of directed straight panels (z_start, z_end): uniform along
a finite segment, and geometric toward a singularity.  One rule,
``geometric_breaks``, meshes both singular paths: the vertical descent from
i-infinity, whose panels keep a fixed ratio of length to height, and the
trimmed unit interval of the MZV integral, toward each end.  Each panel
carries a fixed Gauss-Legendre grid, built once per (panel chain, node
count) and shared read-only; nested integrals are built by one
cumulative-antiderivative sweep per integration level, so inner values are
available exactly at the outer level's nodes (no re-evaluation).  A sweep
returns the value of every level: level j is the integral of the word
kernels[:j+1], bit for bit what a sweep of that prefix alone returns, so one
sweep serves a whole family of words that share their inner layers.

Kernels are callables acting on flat complex arrays and are listed in path
order: kernels[0] is the innermost layer, integrated nearest the path start.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "GL_ORDER",
    "gauss_legendre",
    "segment_panels",
    "geometric_breaks",
    "vertical_panels",
    "iterated_integral",
    "adaptive_iterated",
]

GL_ORDER = 16  # Gauss-Legendre nodes per panel; adaptive_iterated checks at GL_ORDER + 8


@functools.lru_cache(maxsize=4)
def gauss_legendre(g: int):
    """Nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(g)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=4)
def _cumulative_operator(g: int):
    """Matrix U with (U h)[i] = integral from -1 to x_i of the degree<g
    interpolant of the node values h, via the Legendre antiderivative
    relation (P_{k+1} - P_{k-1})' = (2k+1) P_k."""
    x, w = gauss_legendre(g)
    pv = np.polynomial.legendre.legvander(x, g)  # P_0..P_g at the nodes
    # discrete projection onto P_0..P_{g-1}
    proj = ((2 * np.arange(g) + 1) / 2)[:, None] * (w[None, :] * pv[:, :g].T)
    anti = np.empty((g, g))
    anti[:, 0] = x + 1.0
    for k in range(1, g):
        anti[:, k] = (pv[:, k + 1] - pv[:, k - 1]) / (2 * k + 1)
    u = anti @ proj
    u.setflags(write=False)
    return u


def segment_panels(a: complex, b: complex, n_panels: int):
    """Uniform directed panels along the straight segment a -> b."""
    pts = [a + (b - a) * (t / n_panels) for t in range(n_panels + 1)]
    return list(zip(pts[:-1], pts[1:]))


def geometric_breaks(lo: float, hi: float, n: int) -> list:
    """The n + 1 breakpoints lo (hi / lo)^(j / n), j = 0..n, of a geometric
    chain from lo to hi (both positive), with exact ends.  The step is taken
    in logs, so that hi / lo cannot overflow."""
    step = (math.log(hi) - math.log(lo)) / n
    return [lo] + [lo * math.exp(j * step) for j in range(1, n)] + [hi]


def vertical_panels(b: complex, height: float, n_panels: int, tail: bool):
    """Descent path from i-infinity to b along Re z = Re b.

    The main section runs from height down to b in n_panels pieces with
    breakpoints y_j = Im b (height / Im b)^(j / n_panels): a geometric chain,
    each panel as long as the same multiple of its lower end's height.  The
    nearest singularity of a kernel f(z) z^(s-1) is the branch point at 0,
    at distance y from iy, so every panel sits in the same Bernstein ellipse
    and converges at the same rate (Trefethen, ATAP, ch. 8); uniform panels
    would spend their nodes at the top, where the integrand is smoothest.
    When ``tail`` is set (needed for power-law decay), doubling panels
    extend the top to ~1e20 where even Re(s) = -1/2 layers are resolved
    below 1e-9.
    """
    if not b.imag > 0:
        raise DomainError("the vertical path needs Im b > 0")
    x = b.real
    panels = []
    if tail:
        levels = max(1, math.ceil(math.log2(1e20 / height)))
        for j in range(levels, 0, -1):
            panels.append((complex(x, height * 2.0 ** j), complex(x, height * 2.0 ** (j - 1))))
    pts = [complex(x, y) for y in reversed(geometric_breaks(b.imag, height, n_panels))]
    panels.extend(zip(pts[:-1], pts[1:]))
    return panels


@functools.lru_cache(maxsize=32)
def _grid(panels: tuple, g: int):
    """(nodes, halves) of the chain with g Gauss-Legendre nodes per panel:
    the flat node array, panel by panel, and half of each panel's directed
    length, both read-only.  Built once per (panels, g) and shared, so a
    kernel sees the same node array on every sweep of a chain while it stays
    among the 32 most recently used."""
    x, _ = gauss_legendre(g)
    starts = np.array([p[0] for p in panels], dtype=complex)
    ends = np.array([p[1] for p in panels], dtype=complex)
    halves = (ends - starts) / 2.0
    mids = (ends + starts) / 2.0
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    nodes.setflags(write=False)
    halves.setflags(write=False)
    return nodes, halves


def iterated_integral(kernels, panels, g: int) -> list:
    """Nested integrals of the word over the directed panel chain, one per
    level.

    kernels[0] is innermost (nearest panels[0][0], the path start); entry j
    of the returned list is the full integral of kernels[j] times the
    accumulated inner layers kernels[:j].  Every kernel is called on the
    chain's cached node array, so a caller may key kernel values by it.
    """
    _, w = gauss_legendre(g)
    u = _cumulative_operator(g)
    nodes, halves = _grid(tuple(panels), g)

    values = []
    inner = None
    for level, kern in enumerate(kernels):
        k = np.asarray(kern(nodes), dtype=complex).reshape(len(halves), g)
        h = k if inner is None else k * inner
        hw = h @ w
        values.append(complex(hw @ halves))
        if level == len(kernels) - 1:
            return values
        per_panel = hw * halves
        offsets = np.concatenate(([0.0], np.cumsum(per_panel)[:-1]))
        inner = (h @ u.T) * halves[:, None] + offsets[:, None]
    raise ValueError("empty kernel word")


def adaptive_iterated(kernels, panel_builder, config) -> list:
    """Every level of the word, each checked on its own.

    Level j is served exactly as a call on kernels[:j+1] alone would be:
    evaluate with the configured panel count and again at higher node
    order, and double the panels until that level's two values agree within
    tolerance.  Each attempt sweeps only up to the deepest level still open.

    panel_builder(n_panels) must return the panel chain.  Returns one entry
    per level: (value, error_estimate), or the AccuracyError at which that
    level stalled; deterministic for a fixed config.
    """
    n = config.panels
    out = [None] * len(kernels)
    gaps = [math.inf] * len(kernels)
    # A kernel may overflow to inf or NaN on a high path (z^(s-1) at
    # Im z = 1e300); the gap check below turns that into the named stall, so
    # numpy need not warn.  One errstate per call keeps it off the kernels.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            open_levels = [j for j, r in enumerate(out) if r is None]
            if not open_levels:
                return out
            word = kernels[: open_levels[-1] + 1]
            panels = panel_builder(n)
            coarse = iterated_integral(word, panels, GL_ORDER)
            fine = iterated_integral(word, panels, GL_ORDER + 8)
            for j in open_levels:
                try:
                    gaps[j] = abs(fine[j] - coarse[j])
                except OverflowError:  # |gap| beyond the float range
                    gaps[j] = math.inf
                if gaps[j] <= config.tol:  # a NaN gap fails this too
                    out[j] = (fine[j], gaps[j])
            n *= 2
    for j, r in enumerate(out):
        if r is None:
            gap = gaps[j] if gaps[j] <= math.inf else math.inf  # NaN counts as infinite
            out[j] = AccuracyError(
                f"quadrature stalled at {n // 2} panels with error estimate {gap:.3e} "
                f"(tolerance {config.tol:.1e})"
            )
    return out
