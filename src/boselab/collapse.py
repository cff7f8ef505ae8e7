"""Quantitative checks of the time-localized 1D collapsing estimate.

The estimate controls the collision contraction of a freely evolved
two-particle kernel,

    || theta(tau) R_eps^(1) U^(1)(-tau) B_{1,2} U^(2)(tau) phi^(2) ||_{L^2_tau L^2}
        <= C ||R_eps^(2) phi^(2)||,

with U the full-Laplacian free flow e^{i tau d^2} on each slot, B the
commutator-with-delta trace contraction, R_eps the product of <d>^eps
weights, and theta a fixed bump window.  It holds for every eps > 0 and
finite window, and fails if either the window is removed (T = infinite)
or eps = 0.

Two independent routes are implemented:

  * the dual-side frequency integrals: the reduction to
    I(eta, xi1) = int <xi1>^{2e}/<xi1-u>^{2e} H(eta, xi1, u) du with the
    inner kernel H of (theta-hat against two bracket weights), the
    uniform one-variable bound F(e), and cutoff scans of the divergent
    u-integrals for both failure modes;

  * direct operator evaluation on rank-structured grid kernels: the
    contraction of a separable or pair-profile kernel is a rank-two
    kernel whose weighted norms reduce to 2x2 Grams of one-dimensional
    FFTs, so left/right norm ratios are computed exactly (up to grid
    resolution): the windowed space-time norm of separable members is
    scanned over the modulation and counter-rotating families, and the
    static trace bound over the dilation family of pair profiles.

All quadratures are built from explicit panel decompositions (graded at
the singular/feature points) so that a refined probe (doubled rule
orders, finer grading) gives an honest node-doubling stability gate.
Each Gauss-Legendre order, and the spline of the window transform, is
built once per process and shared read-only.  That spline and the
Simpson rule of the tau integral are numpy forms of scipy's CubicSpline
and simpson in the same arithmetic, so their values are the same bit for
bit and the module imports no scipy.  The hot loops are
batched: kernel_H integrates the smooth panels on blocks of _U_CHUNK = 32
u values per numpy pass, then re-integrates the graded windows of up to
_WINDOW_ROWS = 64 small-|u| rows per pass (one padded breakpoint table
each), and direct_operator_test evaluates separable members over blocks
of tau samples.  The block sizes are fixed and bound the peak memory.

No quadrature value is computed twice, and each shortcut keeps the bits
of the value it replaces.  H(eta, xi1, -u) = H(eta, -xi1, u) bit for bit
(u sigma = eta - 2 xi1 u is the same, and the brackets see u only through
squares), and the u < 0 nodes are the u > 0 nodes negated in reverse, so
at xi1 = 0 integral_I and the control scan take one H for both signs.  The smooth panels' nodes are stored
node-major and summed per panel by one array add per node in numpy's
pairwise order (_node_sum), which equals np.sum of each panel's nodes.
direct_operator_test makes one free phase per tau block and evolves each
distinct factor array once in it.

Threading: kernel_H splits its u-blocks into lanes on the package's one
thread pool (grid._in_blocks), every pool-size-th block to one lane, so
the window-heavy small-|u| blocks at one end of each sign's nodes are
shared out.  A lane runs the smooth pass on its blocks, then the window
passes on the rows they left, and writes only its blocks' slices of the
output.  Each row's value does not depend on its lane or on the rows it
shares a pass with, so H, I and the scans are bit-identical for every
pool size.  The numpy passes release the GIL, which lets the (eta, xi1)
scan, the node-doubling probe and the control scan use every core.  A
pooled lane calls only the private _smooth_chunk and _window_sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import grid as _grid
from .grid import (Grid1D, GridError, _in_blocks, bracket_squared,
                   gaussian_packet)

__all__ = [
    "CollapseProbe", "make_probe", "bump",
    "kernel_H", "integral_I", "lemma_F", "lemma_F_reference",
    "optimality_scan", "linear_fit",
    "SeparableKernelMember", "PairProfileMember",
    "direct_operator_test", "trace_lemma_check",
    "make_baseline_member", "make_modulation_family",
    "make_counter_rotating_family", "make_dilation_family",
]


# ----------------------------------------------------------------------
# time window and its transform


def bump(t) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - t^2)) on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti ** 2))
    return out


def _tridiagonal_solve(dl, d, du, b) -> np.ndarray:
    """Solve the tridiagonal system (sub dl, diagonal d, super du) for b.

    LAPACK dgtsv's elimination and back substitution for one right-hand
    side, on Python floats in its order of operations.  dgtsv swaps rows
    i and i + 1 when |d_i| < |dl_i|; a system that needs that swap (or
    meets a zero pivot) raises GridError instead.
    """
    dk, bk = d[0], b[0]
    ds, bs = [dk], [bk]
    for lo, up, dn, bn in zip(dl, du, d[1:], b[1:]):
        if not abs(dk) >= abs(lo) or dk == 0.0:
            raise GridError("spline system needs a row interchange")
        fact = lo / dk
        dk = dn - fact * up
        bk = bn - fact * bk
        ds.append(dk)
        bs.append(bk)
    if dk == 0.0:
        raise GridError("spline system is singular")
    x = bk / dk
    xs = [x]
    for up, dk, bk in zip(reversed(du), reversed(ds[:-1]), reversed(bs[:-1])):
        x = (bk - up * x) / dk
        xs.append(x)
    return np.array(xs[::-1])


# values per evaluation pass of _NotAKnotSpline; bounds its temporaries
_SPLINE_BLOCK = 4096


class _NotAKnotSpline:
    """The not-a-knot cubic spline through (x, y) on a uniform grid.

    Bit for bit the spline of scipy.interpolate.CubicSpline(x, y): the
    same right-hand side and not-a-knot end rows, the same elimination
    (_tridiagonal_solve), the same four coefficient formulas, stored as
    c[k, i] for the power 3 - k on [x_i, x_i+1].  A value v is evaluated
    on the interval x_i <= v < x_i+1, clipped to the table, as the power
    sum ((c3 + c2 s) + c1 s^2) + c0 (s^2 s) with s = v - x_i.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        # the interval of v is floor((v - x_0) / step) off by at most one,
        # which one comparison on each side corrects, if every knot lands
        # on its own index or the one below
        self._x0 = float(x[0])
        self._step = float((x[-1] - x[0]) / (n - 1))
        lag = np.arange(n) - np.floor((x - self._x0) / self._step)
        if not np.all((lag == 0) | (lag == 1)):
            raise GridError("spline knots are not uniformly spaced")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.empty(n)
        rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d0
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        s = _tridiagonal_solve(
            np.append(dx[1:], d1).tolist(), diag.tolist(),
            np.insert(dx[:-1], 0, d0).tolist(), rhs.tolist())
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        out = np.empty(flat.size)
        x, (c0, c1, c2, c3) = self.x, self.c
        top = x.size - 2
        for start in range(0, flat.size, _SPLINE_BLOCK):
            s = flat[start:start + _SPLINE_BLOCK]
            i = np.clip((s - self._x0) / self._step, 0, top).astype(np.intp)
            i -= s < x[i]
            i += s >= x[i + 1]
            np.clip(i, 0, top, out=i)
            ds = s - x[i]
            ds2 = ds * ds
            val = c2[i] * ds
            val += c3[i]
            val += c1[i] * ds2
            ds2 *= ds
            ds2 *= c0[i]
            val += ds2
            out[start:start + _SPLINE_BLOCK] = val
        return out.reshape(v.shape)


@lru_cache(maxsize=1)
def _theta_hat_table():
    """Fine table of theta-hat by one long FFT, built once per process.

    Returns (xi, values, spline): the cubic spline through the table is
    shared read-only by every probe.
    """
    m = 1 << 17
    dxi = 0.02
    period = 2.0 * math.pi / dxi
    dt = period / m
    tau = (np.arange(m) - m // 2) * dt
    samples = bump(tau)
    spectrum = dt * ((-1.0) ** np.arange(m)) * np.fft.fft(samples)
    xi = 2.0 * math.pi * np.fft.fftfreq(m, d=dt)
    order = np.argsort(xi)
    xi = xi[order]
    vals = spectrum[order]
    if np.max(np.abs(vals.imag)) > 1e-12:
        raise GridError("window transform unexpectedly complex")
    keep = np.abs(xi) <= 1100.0
    xi, vals = xi[keep], np.ascontiguousarray(vals.real[keep])
    return xi, vals, _NotAKnotSpline(xi, vals)


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], built once per order.

    Every caller shares the cached arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_nodes(lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on the panels [lo, hi], one row each."""
    nodes, weights = _gauss_legendre(order)
    lo = lo[:, None]
    hi = hi[:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * nodes[None, :], half * weights[None, :]


def _gl_panels(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on each consecutive pair of edges."""
    return _gl_nodes(edges[:-1], edges[1:], order)


def _ladder(start: float, stop: float, refine: int) -> list[float]:
    """The grading rule of every panel set: start, then start * r^k for
    k = 1, 2, ... by repeated multiplication, r = 2^(1/refine), while the
    previous point is below stop; the last point is clamped to stop."""
    if not 0.0 < start < math.inf:
        raise GridError(f"ladder needs a finite start > 0, got {start!r}")
    ratio = 2.0 ** (1.0 / refine)
    pts = [start]
    s = start
    while s < stop:
        s *= ratio
        pts.append(min(s, stop))
    return pts


def _graded_about(center: float, inner: float, outer: float,
                  refine: int) -> list[float]:
    """center -/+ every ladder step from inner that lies below outer."""
    pts = []
    for step in _ladder(inner, outer, refine)[:-1]:
        pts += [center - step, center + step]
    return pts


# relative gap below which two breakpoints merge: a panel narrower than
# this adds nodes but no accuracy
_DEDUPE_RTOL = 1e-12


def _keep_mask(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The dedupe rule on ascending runs laid end to end.

    starts marks the first value of each run (values[0] included).  A
    value is kept when it exceeds the last kept value of its run by more
    than _DEDUPE_RTOL * max(1, |value|).
    """
    thr = _DEDUPE_RTOL * np.maximum(1.0, np.abs(values))
    keep = starts.copy()
    keep[1:] |= values[1:] - values[:-1] > thr[1:]
    # a value dropped against its neighbour can still clear the last kept
    # value; walk the (rare) runs of close values one depth at a time
    first = np.flatnonzero(keep)
    chain = np.cumsum(keep) - 1
    depth = np.arange(values.size) - first[chain]
    last = values[first]
    for d in range(2, int(depth.max(initial=0)) + 1):
        at = np.flatnonzero(depth == d)
        ok = values[at] - last[chain[at]] > thr[at]
        keep[at] = ok
        last[chain[at[ok]]] = values[at[ok]]
    return keep


def _dedupe(values: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    starts = np.zeros(values.size, dtype=bool)
    starts[0] = True
    return values[_keep_mask(values, starts)]


# outer radius of the u-integral of integral_I (its tail is estimated)
_U_TAIL = 4096.0
# |u| up to which kernel_H re-integrates the bracket features on windows
_WINDOW_REACH = 4.0


@dataclass
class CollapseProbe:
    """Bump window, cached transform, and quadrature controls, every
    field set by make_probe.

    refine = 1 is the production rule set; refine = 2 doubles every
    Gauss-Legendre order and halves every grading ratio, providing the
    node-doubling stability gate required of all reported numbers.
    """

    epsilon: float
    refine: int
    spline: _NotAKnotSpline = field(repr=False)
    panel_edges: np.ndarray = field(repr=False)
    # the smooth panels' Gauss-Legendre nodes and their weights times
    # |theta-hat| there, node-major: row j holds node j of every panel
    s_nodes: np.ndarray = field(repr=False)
    theta_weights: np.ndarray = field(repr=False)
    gl_order: int
    window_order: int
    xi_eff: float
    u_min: float

    def refined(self) -> "CollapseProbe":
        return make_probe(self.epsilon, refine=self.refine * 2)

    def theta_hat(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) <= self.xi_eff
        out[inside] = self.spline(s[inside])
        return out


def make_probe(epsilon: float, refine: int = 1) -> CollapseProbe:
    """Build a probe for one eps: transform table, panels, invariants."""
    if not 0.0 <= epsilon < math.inf:
        raise GridError(f"epsilon must be finite and nonnegative, "
                        f"got {epsilon!r}")
    if (isinstance(refine, bool) or not isinstance(refine, (int, np.integer))
            or refine < 1):
        raise GridError(f"refine must be a positive integer, got {refine!r}")
    xi, vals, spline = _theta_hat_table()
    peak = float(np.max(np.abs(vals)))
    if peak <= 0:
        raise GridError("window transform vanished")
    # invariants of the window: positivity, support, mass, fast decay
    sample = np.linspace(-2.0, 2.0, 4001)
    th = bump(sample)
    if np.any(th < 0) or np.any(th[np.abs(sample) >= 1.0] != 0.0):
        raise GridError("window must be a nonnegative bump on (-1, 1)")
    mass = float(np.trapezoid(th, sample))
    if mass <= 0:
        raise GridError("window must have positive mass")
    edge_level = float(np.max(np.abs(vals[np.abs(xi) > 1000.0])))
    if edge_level > 1e-12 * peak:
        raise GridError("window transform does not decay on the table")

    # effective support: beyond xi_eff the transform is below 1e-13 peak
    big = np.abs(vals) >= 1e-13 * peak
    xi_eff = float(np.max(np.abs(xi[big])))

    # panel edges at the sign changes of theta-hat, so |theta-hat| is
    # smooth inside every panel and Gauss-Legendre converges spectrally
    inside = np.abs(xi) <= xi_eff
    xs, vs = xi[inside], vals[inside]
    flips = np.where(vs[:-1] * vs[1:] < 0)[0]
    zeros = xs[flips] - vs[flips] * (xs[flips + 1] - xs[flips]) / (
        vs[flips + 1] - vs[flips])
    edges = _dedupe(np.concatenate(([-xi_eff], zeros, [xi_eff])))

    gl_order = 8 * refine
    nodes, weights = (np.ascontiguousarray(a.T)
                      for a in _gl_panels(edges, gl_order))

    return CollapseProbe(
        epsilon=float(epsilon), refine=refine, spline=spline,
        panel_edges=edges, s_nodes=nodes,
        theta_weights=weights * np.abs(spline(nodes)), gl_order=gl_order,
        window_order=6 * refine, xi_eff=xi_eff,
        u_min=1e-6 if epsilon >= 0.2 else 1e-10)


# ----------------------------------------------------------------------
# inner kernel H and the dual integral I


def _check_point(eta: float, xi1: float) -> None:
    if not (math.isfinite(eta) and math.isfinite(xi1)):
        raise GridError(f"(eta, xi1) must be finite, got ({eta!r}, {xi1!r})")


def _bracket_pair(s, u, us, epsilon):
    """<(s - us)/u>^{-2e} <(s - us - 2u^2)/u>^{-2e} (vectorized).

    Two full-size buffers, every later step in place; the operations and
    their order are those of ((1 + t1^2)(1 + t2^2))^(-e), so the values
    are the same bit for bit.
    """
    t1 = s - us
    t2 = t1 - 2.0 * u * u
    t1 /= u
    t2 /= u
    t1 *= t1
    t1 += 1.0
    t2 *= t2
    t2 += 1.0
    t1 *= t2
    return np.power(t1, -epsilon, out=t1)


# u values per smooth pass of kernel_H; its two bracket buffers of
# _U_CHUNK x (panel nodes) values set each lane's memory
_U_CHUNK = 32
# window rows per _window_sums pass of a kernel_H lane; a pass has a
# fixed cost (its breakpoint table, sort and dedupe) on top of its rows
_WINDOW_ROWS = 64


def _window_sums(probe: CollapseProbe, u: np.ndarray, us: np.ndarray,
                 il: np.ndarray, ih: np.ndarray) -> np.ndarray:
    """Window integrals over [edges[il], edges[ih]], one per u, in one pass.

    Each window keeps its base-panel edges (sign changes of theta-hat),
    so |theta-hat| stays smooth inside every sub-panel, and adds graded
    breakpoints u/2 * ratio^k about both bracket centres us and
    us + 2u^2 that lie inside it.  The breakpoints of all windows sit in
    one padded array, sorted and deduped row by row; the sub-panel
    nodes of every row are evaluated together and summed per u.
    """
    edges = probe.panel_edges
    au = np.abs(u)
    lo, hi = edges[il], edges[ih]
    span = hi - lo

    width = int(np.max(ih - il)) + 1
    idx = il[:, None] + np.arange(width)
    cols = [np.where(idx <= ih[:, None],
                     edges[np.minimum(idx, edges.size - 1)], np.inf)]

    # steps 0.5|u| * ratio^k while below the span: the running product
    # equals repeated `step *= ratio` bit for bit
    ratio = 2.0 ** (1.0 / probe.refine)
    n_steps = int(max(np.max(np.log(span / (0.5 * au))) / math.log(ratio),
                      0.0)) + 3
    table = np.full((u.size, n_steps), ratio)
    table[:, 0] = 0.5 * au
    steps = np.cumprod(table, axis=1)
    below = steps < span[:, None]
    for center in (us, us + 2.0 * u * u):
        inside = ((lo < center) & (center < hi))[:, None]
        c = center[:, None]
        pts = np.concatenate([c, c - steps, c + steps], axis=1)
        ok = (inside & np.concatenate([inside, below, below], axis=1)
              & (lo[:, None] < pts) & (pts < hi[:, None]))
        cols.append(np.where(ok, pts, np.inf))
    pts = np.sort(np.concatenate(cols, axis=1), axis=1)

    valid = np.isfinite(pts)
    counts = valid.sum(axis=1)
    flat = pts[valid]
    starts = np.zeros(flat.size, dtype=bool)
    starts[np.cumsum(counts) - counts] = True
    keep = _keep_mask(flat, starts)
    bp = flat[keep]
    row = np.repeat(np.arange(u.size), counts)[keep]

    same = row[:-1] == row[1:]
    prow = row[:-1][same]
    wn, ww = _gl_nodes(bp[:-1][same], bp[1:][same], probe.window_order)
    btw = _bracket_pair(wn, u[prow][:, None], us[prow][:, None],
                        probe.epsilon)
    btw *= ww * np.abs(probe.theta_hat(wn))
    panel = np.sum(btw, axis=1)
    return np.bincount(prow, weights=panel, minlength=u.size)


# values up to which numpy's pairwise sum keeps 8 running sums
_PAIRWISE_BLOCK = 128


def _node_sum(terms: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Sum of terms[:, lo:lo + n] over axis 1, left in terms[:, lo];
    returns that view.

    Bit for bit np.sum of each run terms[i, lo:lo + n, j] laid out
    contiguously: numpy's pairwise sum adds fewer than 8 values in order;
    up to _PAIRWISE_BLOCK values it keeps 8 running sums r0..r7 over the
    multiple-of-8 part, adds them as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the rest in order; a longer run is
    summed as two halves split at a multiple of 8.  Here each add is one
    array operation over every (i, j) at once.  (numpy starts from +0.0,
    so only a run of -0.0 alone differs, in the sign of its zero.)
    """
    acc = terms[:, lo]
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - (n // 2) % 8
        _node_sum(terms, lo, half)
        acc += _node_sum(terms, lo + half, n - half)
    elif n < 8:
        for k in range(lo + 1, lo + n):
            acc += terms[:, k]
    else:
        run = terms[:, lo:lo + 8]
        top = lo + n - n % 8
        for k in range(lo + 8, top, 8):
            run += terms[:, k:k + 8]
        run[:, 0::2] += run[:, 1::2]
        run[:, 0::4] += run[:, 2::4]
        acc += run[:, 4]
        for k in range(top, lo + n):
            acc += terms[:, k]
    return acc


def _smooth_chunk(probe: CollapseProbe, u: np.ndarray, us: np.ndarray):
    """|u| H on one block of u from the smooth panels alone.

    Rows with |u| <= _WINDOW_REACH lose the panels [il, ih) that their
    window re-integrates; returns the values with those rows and ranges.
    """
    edges = probe.panel_edges
    n_panels = edges.size - 1
    btil = _bracket_pair(probe.s_nodes[None, :, :], u[:, None, None],
                         us[:, None, None], probe.epsilon)
    btil *= probe.theta_weights
    panel_sums = _node_sum(btil, 0, probe.gl_order)
    val = np.sum(panel_sums, axis=1)
    cums = np.concatenate(
        [np.zeros((u.size, 1)), np.cumsum(panel_sums, axis=1)], axis=1)

    au = np.abs(u)
    reach = 4.0 + 4.0 * au + 2.0 * u * u
    w_lo, w_hi = us - reach, us + 2.0 * u * u + reach
    il = np.maximum(np.searchsorted(edges, w_lo, side="right") - 1, 0)
    ih = np.minimum(np.searchsorted(edges, w_hi, side="left"), n_panels)
    rows = np.flatnonzero((au <= _WINDOW_REACH) & (ih > il))
    il, ih = il[rows], ih[rows]
    val[rows] -= cums[rows, ih] - cums[rows, il]
    return val, rows, il, ih


def kernel_H(probe: CollapseProbe, eta: float, xi1: float, u):
    """The inner w-integral H(eta, xi1, u) at each u of a 1-D array.

    Evaluated in the scaled variable s = u w, where |theta-hat(s)| has
    fixed support: smooth panels between the transform's sign changes
    carry precomputed nodes, and for |u| <= _WINDOW_REACH the
    width-|u| bracket features around s = u*sigma are re-integrated on
    graded sub-panels.  Both passes run on blocks of u at once, no loop
    over single u: _U_CHUNK values per smooth pass, then up to
    _WINDOW_ROWS of a lane's window rows per window pass (one padded
    breakpoint table each).  u = 0 is rejected (the change of variables
    degenerates there), and so are a u that is not finite or not 1-D and
    a non-finite (eta, xi1).
    """
    _check_point(eta, xi1)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or not np.isfinite(u).all():
        raise GridError(f"kernel_H needs finite u in a 1-D array (shape "
                        f"{u.shape})")
    if np.any(u == 0.0):
        raise GridError("kernel_H is undefined at u = 0")
    us_all = eta - 2.0 * xi1 * u  # u * sigma, computed without cancellation
    out = np.empty_like(u)
    starts = range(0, u.size, _U_CHUNK)
    # lane j takes every lanes-th chunk from chunk j: the chunks with
    # |u| <= _WINDOW_REACH, which add the window sums, sit at one end of
    # each sign's nodes, and contiguous runs would give them to one thread
    lanes = min(_grid._POOL_SIZE, len(starts))

    def lane_sums(lo, hi):
        for lane in range(lo, hi):
            found = []
            for start in starts[lane::lanes]:
                sl = slice(start, start + _U_CHUNK)
                out[sl], rows, il, ih = _smooth_chunk(probe, u[sl],
                                                      us_all[sl])
                found.append((rows + start, il, ih))
            rows, il, ih = (np.concatenate(part) for part in zip(*found))
            for w in range(0, rows.size, _WINDOW_ROWS):
                at = slice(w, w + _WINDOW_ROWS)
                r = rows[at]
                out[r] += _window_sums(probe, u[r], us_all[r], il[at],
                                       ih[at])

    _in_blocks(lane_sums, lanes)
    out /= np.abs(u)
    return out


def _feature_points(eta: float, xi1: float):
    """Roots of u^2 + xi1 u - eta/2 plus the sigma = 0 crossing."""
    pts = []
    disc = 0.25 * xi1 * xi1 + 0.5 * eta
    if disc >= 0:
        r = math.sqrt(disc)
        pts.extend([-0.5 * xi1 + r, -0.5 * xi1 - r])
    else:
        pts.append(-0.5 * xi1)
    if abs(xi1) > 1e-9:
        pts.append(eta / (2.0 * xi1))
    pts.append(xi1)
    return pts


def _u_edges(probe: CollapseProbe) -> np.ndarray:
    """Panel breakpoints for the outer u-integral on one sign region."""
    return np.array(_ladder(probe.u_min, 1.0, probe.refine)
                    + _ladder(1.0, _U_TAIL, probe.refine)[1:])


def integral_I(probe: CollapseProbe, eta: float, xi1: float) -> dict:
    """The dual integral I(eta, xi1), split into |u| < 1 and |u| > 1.

    Panels: dyadic grading into u = 0 from probe.u_min, geometric tails
    to _U_TAIL, with extra graded breakpoints at the quadratic-root
    features where the large-u envelope of H peaks.  At xi1 = 0 the
    u < 0 side reads H off the u > 0 side in reverse, with no second
    kernel_H call; each side is still summed in its own node order.
    Returns the value, the split parts, and an analytic tail estimate
    (flagging truncation).
    """
    _check_point(eta, xi1)
    eps = probe.epsilon
    base = _u_edges(probe)
    extra = []
    for f in _feature_points(eta, xi1):
        af = abs(f)
        if af <= probe.u_min or af >= _U_TAIL:
            continue
        scale = max(1.0, af)
        extra += _graded_about(af, 1e-3 * scale, 4.0 * scale, probe.refine)
        extra.append(af)
    mags = _dedupe(np.concatenate([base, np.array(extra)])) if extra else base
    mags = mags[(mags >= probe.u_min) & (mags <= _U_TAIL)]
    mags = _dedupe(np.concatenate([mags, [probe.u_min, 1.0, _U_TAIL]]))

    i1 = i2 = 0.0
    tail = 0.0
    n_nodes = 0
    hvals = None
    for sign in (1.0, -1.0):
        edges = sign * mags if sign > 0 else -mags[::-1]
        nodes, weights = _gl_panels(edges, probe.gl_order)
        un = nodes.ravel()
        wn = weights.ravel()
        n_nodes += un.size
        if hvals is not None and xi1 == 0.0:
            # the u < 0 nodes are the u > 0 nodes negated in reverse, and
            # H(eta, 0, -u) = H(eta, 0, u) bit for bit
            hvals = hvals[::-1]
        else:
            hvals = kernel_H(probe, eta, xi1, un)
        outer = (1.0 + xi1 * xi1) ** eps / (1.0 + (xi1 - un) ** 2) ** eps
        contrib = wn * outer * hvals
        inner = np.abs(un) <= 1.0
        i1 += float(np.sum(contrib[inner]))
        i2 += float(np.sum(contrib[~inner]))
        edge_val = float(outer[-1 if sign > 0 else 0] *
                         hvals[-1 if sign > 0 else 0])
        if eps > 0:
            tail += abs(edge_val) * _U_TAIL / (4.0 * eps)
    return {"value": i1 + i2, "I1": i1, "I2": i2,
            "tail_estimate": tail, "n_u_nodes": n_nodes}


# ----------------------------------------------------------------------
# the uniform one-variable bound F(e)


def _punctured_line(probe: CollapseProbe, pts: list, centers, r0: float,
                    reach: float, big: float, integrand) -> tuple:
    """Gauss-Legendre sum of integrand over [-big, big] outside the discs
    |u - c| < r0, and the closed-form tails 2 big^(-4e)/(4e) of the
    |u|^(-1-4e) decay beyond +-big.

    pts are the breakpoints graded about the singular points; the panels
    grow geometrically from +-reach out to +-big.
    """
    ladder = _ladder(reach, big, probe.refine)[1:]
    pts = [*pts, -big, big, *ladder, *(-s for s in ladder)]
    edges = _dedupe(np.array([p for p in pts if -big <= p <= big]))
    nodes, weights = _gl_panels(edges, probe.gl_order)
    un, wn = nodes.ravel(), weights.ravel()
    keep = np.all([np.abs(un - c) >= r0 for c in centers], axis=0)
    un, wn = un[keep], wn[keep]
    eps = probe.epsilon
    return (float(np.sum(wn * integrand(un))),
            2.0 * big ** (-4.0 * eps) / (4.0 * eps))


def lemma_F(probe: CollapseProbe, e: float) -> float:
    """F(e) = int du / (|u - e|^{8e} <u>^{1-4e}) for 0 < eps < 1/8.

    The |u - e| singularity is handled by an analytic inner disc (the
    smooth factor frozen at u = e) plus graded panels; the slowly
    decaying tails |u|^{-1-4e} beyond the truncation radius are added
    in closed form.
    """
    eps = probe.epsilon
    if not 0.0 < eps < 0.125:
        raise GridError("lemma_F needs 0 < epsilon < 1/8")
    if not math.isfinite(e):
        raise GridError(f"lemma_F needs a finite e, got {e!r}")
    scale = max(1.0, abs(e))
    r0 = 1e-3 * scale / probe.refine
    big = max(4e6, 100.0 * abs(e))

    inner = (1.0 + e * e) ** (-0.5 * (1.0 - 4.0 * eps)) \
        * 2.0 * r0 ** (1.0 - 8.0 * eps) / (1.0 - 8.0 * eps)

    pts = _graded_about(e, r0, 8.0 * scale, probe.refine)
    if abs(e) > 1e-9:
        pts += _graded_about(0.0, 1e-3, 8.0, probe.refine)
        pts.append(0.0)
    outer, tail = _punctured_line(
        probe, pts, [e], r0, 8.0 * scale, big,
        lambda u: np.abs(u - e) ** (-8.0 * eps)
        * (1.0 + u * u) ** (-0.5 * (1.0 - 4.0 * eps)))
    return inner + outer + tail


def lemma_F_reference(probe: CollapseProbe) -> float:
    """The scaling-limit integral int dx / (|x-1|^{8e} |x|^{1-4e})."""
    eps = probe.epsilon
    if not 0.0 < eps < 0.125:
        raise GridError("reference integral needs 0 < epsilon < 1/8")
    r0 = 1e-6 / probe.refine
    big = 4e6
    inner_zero = 2.0 * r0 ** (4.0 * eps) / (4.0 * eps)
    inner_one = 2.0 * r0 ** (1.0 - 8.0 * eps) / (1.0 - 8.0 * eps)

    pts = [0.0, 1.0]
    pts += _graded_about(0.0, r0, 8.0, probe.refine)
    pts += _graded_about(1.0, r0, 8.0, probe.refine)
    outer, tail = _punctured_line(
        probe, pts, [0.0, 1.0], r0, 8.0, big,
        lambda x: np.abs(x - 1.0) ** (-8.0 * eps)
        * np.abs(x) ** (4.0 * eps - 1.0))
    return inner_zero + inner_one + outer + tail


# ----------------------------------------------------------------------
# optimality: cutoff scans of the divergent u-integrals


def linear_fit(x, y) -> dict:
    """Least-squares line with R^2 (guarded for constant data)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sstot = float(np.sum((y - np.mean(y)) ** 2))
    ssres = float(np.sum(resid ** 2))
    r2 = 1.0 - ssres / sstot if sstot > 1e-300 else 0.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r2}


def _shell_quadrature(delta: float, order: int, refine: int):
    nodes, weights = _gl_panels(np.array(_ladder(delta, 1.0, refine)), order)
    return nodes.ravel(), weights.ravel()


def optimality_scan(probe: CollapseProbe, mode: str, deltas) -> dict:
    """Cutoff scan of the u-integral for one failure mode, at the origin
    (eta, xi1) = (0, 0) of the dual variables.

    mode 'T_infinite': the global-in-time reduction
        1 / (<u>^{2e} <u-q>^{2e} <u+q>^{2e} |u|),  q = u^2/u
        (the form of (eta + (xi1-u)^2)/u at the origin, u up to
        rounding: the 1/(<u>^{2e} <2u>^{2e} |u|) divergence);
    mode 'epsilon_zero': the windowed no-derivative reduction 1/|u|;
    mode 'control': the actual windowed integrand <u>^{-2e} H(0, 0, u)
        at the probe's eps (converges; its slope is the negative control).

    Integrates over delta <= |u| <= 1 for each cutoff and fits the
    value against ln(1/delta).  The control mode evaluates H once per
    cutoff and uses it for both signs of u.
    """
    if mode not in ("T_infinite", "epsilon_zero", "control"):
        raise GridError(f"unknown optimality mode {mode!r}")
    deltas = sorted(float(d) for d in deltas)
    eps = probe.epsilon
    values = []
    for delta in deltas:
        un, wn = _shell_quadrature(delta, 16 * probe.refine, probe.refine)
        # H(0, 0, -u) = H(0, 0, u) bit for bit: one H serves both signs
        hvals = kernel_H(probe, 0.0, 0.0, un) if mode == "control" else None
        total = 0.0
        for sign in (1.0, -1.0):
            u = sign * un
            if mode == "epsilon_zero":
                g = 1.0 / np.abs(u)
            elif mode == "T_infinite":
                q = u ** 2 / u
                g = 1.0 / ((1.0 + u ** 2) ** eps
                           * (1.0 + (u - q) ** 2) ** eps
                           * (1.0 + (u + q) ** 2) ** eps
                           * np.abs(u))
            else:
                g = 1.0 / (1.0 + u ** 2) ** eps * hvals
            total += float(np.sum(wn * g))
        values.append(total)
    fit = linear_fit(np.log(1.0 / np.array(deltas)), np.array(values))
    fit.update({"mode": mode, "deltas": deltas, "values": values})
    return fit


# ----------------------------------------------------------------------
# direct operator tests on rank-structured kernels


def _free_phase(grid: Grid1D, tau: float) -> np.ndarray:
    return np.exp(-1j * tau * grid.k ** 2)


def _evolve(phase: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.fft.ifft(phase * np.fft.fft(f))


class _FreeFlow:
    """The free flow at tau (a scalar or a column of tau samples): each
    distinct factor array is evolved once, however many members share it.
    """

    def __init__(self, grid: Grid1D, tau):
        self.phase = _free_phase(grid, tau)
        # id -> (array, its evolution); holding the array keeps its id
        self._evolved = {}

    def __call__(self, f: np.ndarray) -> np.ndarray:
        key = id(f)
        if key not in self._evolved:
            self._evolved[key] = (f, _evolve(self.phase, f))
        return self._evolved[key][1]


def _weight_sq(grid: Grid1D, eps: float) -> np.ndarray:
    return bracket_squared(grid) ** eps


def _gram_hat(grid: Grid1D, wxa: np.ndarray, xb: np.ndarray):
    """<R fa, R fb> from wxa = w2 conj(xa) and the transforms xa, xb,
    along the last axis."""
    return grid.h / grid.n * np.sum(wxa * xb, axis=-1)


def _gram(grid: Grid1D, eps: float, fa: np.ndarray, fb: np.ndarray) -> complex:
    """<R fa, R fb> with the grid quadrature weight."""
    wxa = _weight_sq(grid, eps) * np.conj(np.fft.fft(fa))
    return complex(_gram_hat(grid, wxa, np.fft.fft(fb)))


def _rank2_norm_sq(grid: Grid1D, eps: float, a1, b1, a2, b2):
    """||R (a1 x b1 - a2 x b2)||^2 from 2x2 Grams, along the last axis."""
    x1, y1, x2, y2 = (np.fft.fft(v, axis=-1) for v in (a1, b1, a2, b2))
    w2 = _weight_sq(grid, eps)
    wx1, wy1 = w2 * np.conj(x1), w2 * np.conj(y1)
    ga11 = _gram_hat(grid, wx1, x1).real
    ga22 = _gram_hat(grid, w2 * np.conj(x2), x2).real
    ga12 = _gram_hat(grid, wx1, x2)
    gb11 = _gram_hat(grid, wy1, y1).real
    gb22 = _gram_hat(grid, w2 * np.conj(y2), y2).real
    gb12 = _gram_hat(grid, wy1, y2)
    val = ga11 * gb11 + ga22 * gb22 - 2.0 * (ga12 * gb12).real
    return np.maximum(val, 0.0)


# tau samples per batched pass of direct_operator_test; bounds its memory
_TAU_BLOCK = 128


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule over an odd number of samples y(x).

    The unequal-spacing panel formula of scipy.integrate.simpson, term
    for term, so the sum is the same bit for bit.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:-1:2] * (hsum * (hsum / hprod))
                        + y[2::2] * (2.0 - h0divh1))
    return float(np.sum(tmp))


@dataclass
class SeparableKernelMember:
    """phi^(2) = f(y1) g(y2) conj(p(y1')) conj(q(y2'))."""

    f: np.ndarray
    g: np.ndarray
    p: np.ndarray
    q: np.ndarray
    label: str

    def contraction_pieces(self, grid: Grid1D, flow: _FreeFlow):
        ft, gt, pt, qt = (flow(v) for v in (self.f, self.g, self.p, self.q))
        a1 = ft * gt * np.conj(qt)
        b1 = np.conj(pt)
        a2 = ft
        b2 = gt * np.conj(pt) * np.conj(qt)
        return a1, b1, a2, b2

    def weighted_input_norm(self, grid: Grid1D, eps: float) -> float:
        out = 1.0
        for part in (self.f, self.g, self.p, self.q):
            out *= math.sqrt(_gram(grid, eps, part, part).real)
        return out


@dataclass
class PairProfileMember:
    """phi^(2) = f(y1) K(y2, y2') conj(p(y1')) with a rank-one profile K.

    K has the coefficients khat(k, k') = g(k) g(k') / lam in the product
    basis e^{ik(y+L)} conj(e^{ik'(y'+L)}) / n^2, so the kernel evolves by
    the phases e^{-i tau k^2} e^{+i tau k'^2} and its diagonal is the
    product of two length-n transforms.
    """

    f: np.ndarray
    g: np.ndarray
    lam: float
    p: np.ndarray
    label: str

    def _diag(self, grid: Grid1D, phase: np.ndarray) -> np.ndarray:
        left = np.fft.ifft(phase * self.g)
        right = np.fft.fft(self.g * np.conj(phase))
        return left * right / (self.lam * grid.n)

    def contraction_pieces(self, grid: Grid1D, flow: _FreeFlow):
        ft = flow(self.f)
        pt = flow(self.p)
        d = self._diag(grid, flow.phase)
        return ft * d, np.conj(pt), ft, d * np.conj(pt)

    def weighted_input_norm(self, grid: Grid1D, eps: float) -> float:
        w2 = _weight_sq(grid, eps)
        kern = (grid.h / grid.n) ** 2 * (
            np.sum(w2 * np.abs(self.g) ** 2) / self.lam) ** 2
        out = math.sqrt(_gram(grid, eps, self.f, self.f).real)
        out *= math.sqrt(_gram(grid, eps, self.p, self.p).real)
        return out * math.sqrt(kern)


def direct_operator_test(grid: Grid1D, members, epsilon: float,
                         t_window: float, n_tau: int) -> list[dict]:
    """Windowed space-time norm of the contraction vs the weighted input.

    For each member: lhs^2 = int theta(tau/T)^2 ||R_eps^(1) B_tau||^2 dtau
    by Simpson on n_tau points over [-T, T] (T = t_window; n_tau odd and
    at least 3, so the rule has whole panels), with the rank-two Gram
    shortcut for the weighted kernel norm; rhs = ||R_eps^(2) phi||.
    Members must be SeparableKernelMember.  The tau series run in blocks
    of tau samples: one free phase per block, one evolution per distinct
    factor array (members that share f, p and q share their evolutions),
    then four transforms and six Grams as row sums per member.
    """
    members = list(members)
    for member in members:
        if not isinstance(member, SeparableKernelMember):
            raise GridError(f"direct_operator_test needs separable members, "
                            f"got {type(member).__name__}")
    if not math.isfinite(epsilon):
        raise GridError(f"epsilon must be finite, got {epsilon!r}")
    if not 0.0 < t_window < math.inf:
        raise GridError(f"t_window must be finite and positive, "
                        f"got {t_window!r}")
    if n_tau < 3:
        raise GridError(f"n_tau must be at least 3, got {n_tau!r}")
    if n_tau % 2 == 0:
        raise GridError(f"n_tau must be odd, got {n_tau!r}")
    rhs = [member.weighted_input_norm(grid, epsilon) for member in members]
    for member, r in zip(members, rhs):
        if r <= 0:
            raise GridError(f"member {member.label!r} is not normalizable")
    taus = np.linspace(-t_window, t_window, n_tau)
    win2 = bump(taus / t_window) ** 2
    # ||R_eps^(1) B_tau||^2, one row per member
    series = np.empty((len(members), n_tau))
    for start in range(0, n_tau, _TAU_BLOCK):
        at = slice(start, start + _TAU_BLOCK)
        flow = _FreeFlow(grid, taus[at, None])
        for member, row in zip(members, series):
            row[at] = _rank2_norm_sq(grid, epsilon,
                                     *member.contraction_pieces(grid, flow))
    out = []
    for member, r, row in zip(members, rhs, series):
        lhs = math.sqrt(max(_simpson(win2 * row, taus), 0.0))
        out.append({"label": member.label, "lhs": lhs, "rhs": r,
                    "ratio": lhs / r, "epsilon": epsilon})
    return out


def trace_lemma_check(grid: Grid1D, members, alpha: float) -> list[dict]:
    """Static contraction bound ||R_a^(1) B phi|| <= C ||R_a^(2) phi||."""
    out = []
    for member in members:
        rhs = member.weighted_input_norm(grid, alpha)
        if rhs <= 0:
            raise GridError(f"member {member.label!r} is not normalizable")
        a1, b1, a2, b2 = member.contraction_pieces(grid,
                                                   _FreeFlow(grid, 0.0))
        lhs = math.sqrt(_rank2_norm_sq(grid, alpha, a1, b1, a2, b2))
        out.append({"label": member.label, "lhs": lhs, "rhs": rhs,
                    "ratio": lhs / rhs, "alpha": alpha})
    return out


# ----------------------------------------------------------------------
# test families


def make_baseline_member(grid: Grid1D) -> SeparableKernelMember:
    return SeparableKernelMember(
        f=gaussian_packet(grid, 1.2), g=gaussian_packet(grid, 1.6),
        p=gaussian_packet(grid, 1.4), q=gaussian_packet(grid, 1.8),
        label="baseline")


def make_modulation_family(grid: Grid1D, lambdas) -> list[SeparableKernelMember]:
    """Modulate the unprimed second slot: g -> e^{i lambda y} g.

    Probes the balance of the <xi>^eps weights between the contraction
    side and the input side under a pure frequency translation.
    """
    members = []
    base = make_baseline_member(grid)
    for lam in lambdas:
        g_mod = base.g * np.exp(1j * float(lam) * grid.x)
        members.append(SeparableKernelMember(
            f=base.f, g=g_mod, p=base.p, q=base.q,
            label=f"modulation lambda={lam:g}"))
    return members


def make_counter_rotating_family(grid: Grid1D, freqs) \
        -> list[SeparableKernelMember]:
    """Frequency-concentrating members: pair content at (+V, -V).

    Both second-slot factors are modulated the same way, so after the
    conjugation of the primed slot the pair carries frequencies (V, -V)
    whose transfer sum is zero: the contraction output stays at low
    frequency while the input norm pays <V>^{2 eps}.  Ratios scale like
    <V>^{-2 eps}: bounded (decaying) for eps > 0, flat at eps = 0, and
    at fixed V they grow as eps decreases -- the sharpness of the
    regularity weight.
    """
    members = []
    base = make_baseline_member(grid)
    for v in freqs:
        phase = np.exp(1j * float(v) * grid.x)
        members.append(SeparableKernelMember(
            f=base.f, g=base.g * phase, p=base.p, q=base.q * phase,
            label=f"counter-rotating V={v:g}"))
    return members


def make_dilation_family(grid: Grid1D, lams) -> list[PairProfileMember]:
    """Concentrating pair profiles K_L(y, y') = L G(L y, L y').

    The diagonal restriction gains L^{1/2} in norm while the weighted
    input side gains L^{2 alpha}, so static contraction ratios scale
    like L^{1/2 - alpha}: bounded for alpha > 1/2, growing below.
    """
    k = grid.k
    members = []
    f = gaussian_packet(grid, 1.0)
    p = gaussian_packet(grid, 1.2)
    for lam in lams:
        lam = float(lam)
        g = np.exp(-(k / lam) ** 2 / 2.0).astype(np.complex128)
        members.append(PairProfileMember(
            f=f, g=g, lam=lam, p=p, label=f"dilation Lambda={lam:g}"))
    return members
