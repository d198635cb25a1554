"""Panel-based Gauss-Legendre machinery for nested path integrals.

A path is a list of directed straight panels (z_start, z_end): uniform along
a finite segment, and geometric toward a singularity.  One rule,
``geometric_breaks``, meshes both singular paths: the vertical descent from
i-infinity, whose panels keep a fixed ratio of length to height, and the
MZV integral's chain from 1e-30 to 1/2, which serves the whole unit interval
by path composition and the duality t -> 1 - t.  Each panel carries two
fixed Gauss-Legendre grids, g and then g + 8 nodes; the grid of a panel
chain is a ``Chain``, built once per (panel chain, g) and shared read-only.
Nested integrals are built by one cumulative-antiderivative sweep per
integration level, so inner values are available exactly at the outer
level's nodes (no re-evaluation).  A sweep calls each kernel once and
integrates both grids side by side; the gap between their values is the
error check.  It returns the value of every level under both grids: level j
is the integral of the word kernels[:j+1], bit for bit what a sweep of that
prefix alone returns, so one sweep serves a whole family of words that share
their inner layers.

A Chain also holds what a q-expansion needs on its nodes: log z,
q = e^{2 pi i z}, log max|q| and the powers q^0..q^J, so a form's values on
a chain are one product with its power table (forms.evaluate_many).

Kernels are callables that take the Chain and return one complex value per
node (they read ``chain.nodes``, or ``chain.log`` and the power table); they
are listed in path order: kernels[0] is the innermost layer, integrated
nearest the path start.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "GL_ORDER",
    "TABLE_BYTES",
    "Chain",
    "gauss_legendre",
    "segment_panels",
    "geometric_breaks",
    "vertical_panels",
    "iterated_integral",
    "adaptive_iterated",
]

GL_ORDER = 16  # Gauss-Legendre nodes per panel; every sweep also carries GL_ORDER + 8

# A chain keeps its power table while the table holds at most TABLE_BYTES;
# a wider one is built for the call that asks and then dropped.  With the 32
# chains _grid keeps, kept tables hold at most 8 MiB.  A panel chain holds
# 2 GL_ORDER + 8 = 40 points per panel, so a 6-panel chain keeps up to 64
# rows of powers.
TABLE_BYTES = 1 << 18


class Chain:
    """Points z with what a q-expansion needs there.

    ``nodes`` are the points, made read-only (for a panel chain, the flat
    Gauss-Legendre node array, panel by panel, each panel's g nodes followed
    by its g + 8 nodes), and ``halves`` half of each panel's directed length
    (None for one-off points).  ``log`` is log z, ``q`` is
    e^{2 pi i z} and ``log_r`` = log max|q| = -2 pi min Im z; where 2 pi Im z
    overflows, q is 0 and log_r is -inf, the exact limits.  Every array is
    read-only.  ``powers(J)`` hands out the table of q^0..q^J."""

    __slots__ = ("nodes", "halves", "log", "q", "log_r", "_table")

    def __init__(self, nodes: np.ndarray, halves: np.ndarray | None = None):
        self.nodes = nodes
        self.halves = halves
        with np.errstate(divide="ignore", over="ignore"):
            self.log = np.log(nodes)
            self.q = np.exp(2j * np.pi * nodes)
            self.log_r = -2 * np.pi * nodes.imag.min() if nodes.size else 0.0
        self._table = np.ones((1, nodes.size), dtype=complex)
        for arr in (nodes, self.log, self.q, self._table):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        """The number of points."""
        return self.nodes.size

    def powers(self, J: int) -> np.ndarray:
        """Rows 0..J of the power table, row j = q^j at every point; read-only.

        Row j is the running product q^(j-1) q, j roundings, so its bits do
        not depend on how far the table has grown.  The table grows in
        whole blocks of 16 rows, and the chain keeps it while it holds at
        most TABLE_BYTES."""
        table = self._table
        if len(table) <= J:
            rows = -(-(J + 1) // 16) * 16
            table = np.empty((rows, self.size), dtype=complex)
            table[0] = 1
            np.cumprod(np.broadcast_to(self.q, (rows - 1, self.size)), axis=0, out=table[1:])
            table.setflags(write=False)
            if table.nbytes <= TABLE_BYTES:
                self._table = table
        return table[: J + 1]


@functools.lru_cache(maxsize=4)
def gauss_legendre(g: int):
    """Nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(g)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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
    return anti @ proj


@functools.lru_cache(maxsize=4)
def _pair_rule(g: int):
    """The g- and (g + 8)-node rules on [-1, 1] side by side, all read-only:
    the 2g + 8 nodes (the g nodes first), the block weights W of shape
    (2g + 8, 2), so that h @ W is each rule's integral of the node values h,
    the transposed block-diagonal cumulative operator, and each node's rule
    (0 or 1)."""
    rules = [gauss_legendre(n) for n in (g, g + 8)]
    x = np.concatenate([r[0] for r in rules])
    weights = np.zeros((x.size, 2))
    ut = np.zeros((x.size, x.size))
    rule = np.repeat([0, 1], (g, g + 8))
    for r, (lo, hi) in enumerate(((0, g), (g, x.size))):
        weights[lo:hi, r] = rules[r][1]
        ut[lo:hi, lo:hi] = _cumulative_operator(hi - lo).T
    for arr in (x, weights, ut, rule):
        arr.setflags(write=False)
    return x, weights, ut, rule


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


def vertical_panels(b: complex, height: float, n_panels: int, tail: bool) -> tuple:
    """Descent path from i-infinity to b along Re z = Re b, as a tuple of
    panels.

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

    Every attempt of every report asks for the same few chains, so the last
    64 are kept.
    """
    if not b.imag > 0:
        raise DomainError("the vertical path needs Im b > 0")
    # 0.0 and -0.0 are one key to the memo but give panels of different bits
    return _vertical_panels(b, math.copysign(1.0, b.real), height, n_panels, tail)


@functools.lru_cache(maxsize=64)
def _vertical_panels(b: complex, sign: float, height: float, n_panels: int, tail: bool) -> tuple:
    x = b.real
    panels = []
    if tail:
        levels = max(1, math.ceil(math.log2(1e20 / height)))
        for j in range(levels, 0, -1):
            panels.append((complex(x, height * 2.0 ** j), complex(x, height * 2.0 ** (j - 1))))
    pts = [complex(x, y) for y in reversed(geometric_breaks(b.imag, height, n_panels))]
    panels.extend(zip(pts[:-1], pts[1:]))
    return tuple(panels)


@functools.lru_cache(maxsize=32)
def _grid(panels: tuple, g: int) -> Chain:
    """The Chain of the panel chain with g and then g + 8 Gauss-Legendre
    nodes per panel (_pair_rule).

    Built once per (panels, g) and shared while it stays among the 32 most
    recently used, so a kernel sees the same Chain object on every sweep of
    a chain and may key its values by it.  The Chain carries log z, q and
    the power table q^0..q^J its forms have asked for, each kept table at
    most TABLE_BYTES: all of it is freed when the cache drops the chain."""
    x = _pair_rule(g)[0]
    starts = np.array([p[0] for p in panels], dtype=complex)
    ends = np.array([p[1] for p in panels], dtype=complex)
    halves = (ends - starts) / 2.0
    mids = (ends + starts) / 2.0
    nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    halves.setflags(write=False)
    return Chain(nodes, halves)


def iterated_integral(kernels, panels, g: int) -> list:
    """Nested integrals of the word over the directed panel chain, one
    (g-node value, (g + 8)-node value) pair per level.

    kernels[0] is innermost (nearest panels[0][0], the path start); entry j
    of the returned list is the full integral of kernels[j] times the
    accumulated inner layers kernels[:j], under either rule.  Every kernel is
    called once, on the chain's cached Chain, which holds both rules' nodes,
    so a caller may key kernel values by it.  The rules meet only through
    the zero blocks of _pair_rule's weights and operator, so a finite value
    at one rule's nodes adds exactly 0 to the other rule.
    """
    _, weights, ut, rule = _pair_rule(g)
    chain = _grid(tuple(panels), g)
    halves = chain.halves

    values = []
    inner = None
    for level, kern in enumerate(kernels):
        k = np.asarray(kern(chain), dtype=complex).reshape(len(halves), -1)
        h = k if inner is None else k * inner
        hw = h @ weights
        pair = halves @ hw
        values.append((complex(pair[0]), complex(pair[1])))
        if level == len(kernels) - 1:
            return values
        per_panel = hw * halves[:, None]
        offsets = np.zeros(per_panel.shape, dtype=complex)
        np.cumsum(per_panel[:-1], axis=0, out=offsets[1:])
        inner = (h @ ut) * halves[:, None] + offsets[:, rule]
    raise ValueError("empty kernel word")


def adaptive_iterated(kernels, panel_builder, config) -> list:
    """Every level of the word, each checked on its own.

    Level j is served exactly as a call on kernels[:j+1] alone would be:
    evaluate with the configured panel count at GL_ORDER and at GL_ORDER + 8
    nodes in one sweep, and double the panels until that level's two values
    agree within tolerance.  Each attempt sweeps only up to the deepest
    level still open.

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
            levels = iterated_integral(kernels[: open_levels[-1] + 1], panel_builder(n), GL_ORDER)
            for j in open_levels:
                coarse, fine = levels[j]
                try:
                    gaps[j] = abs(fine - coarse)
                except OverflowError:  # |gap| beyond the float range
                    gaps[j] = math.inf
                if gaps[j] <= config.tol:  # a NaN gap fails this too
                    out[j] = (fine, gaps[j])
            n *= 2
    for j, r in enumerate(out):
        if r is None:
            gap = gaps[j] if gaps[j] <= math.inf else math.inf  # NaN counts as infinite
            out[j] = AccuracyError(
                f"quadrature stalled at {n // 2} panels with error estimate {gap:.3e} "
                f"(tolerance {config.tol:.1e})"
            )
    return out
