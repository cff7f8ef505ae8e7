"""Singular-window kernel: probe quadrature, envelopes, operator families."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from boselab.grid import Grid1D, GridError
from boselab import collapse as C
from oracles import theta_hat_quadrature


def _theta_l1(probe):
    """int |theta-hat| by the probe's own panel rule: at epsilon = 0,
    |u| H(eta, xi1, u)."""
    return float(np.sum(probe.theta_weights))


class TestProbe:
    def test_theta_constants(self):
        probe = C.make_probe(0.25)
        assert _theta_l1(probe) == pytest.approx(7.719684800738541,
                                                 rel=1e-12)
        # the trapezoid mass that make_probe requires to be positive
        sample = np.linspace(-2.0, 2.0, 4001)
        mass = float(np.trapezoid(C.bump(sample), sample))
        assert mass == pytest.approx(1.206900322437876, rel=1e-12)
        # mass oracle: the window transform at zero frequency is the
        # plain integral of the bump
        oracle = 2.0 * quad(lambda t: math.exp(1.0 - 1.0 / (1.0 - t * t)),
                            0.0, 1.0, limit=200)[0]
        assert mass == pytest.approx(oracle, rel=1e-12)

    def test_window_transform_table_vs_quadrature(self):
        probe = C.make_probe(0.25)
        xi = np.array([0.0, 0.5, 1.7, 5.0, 20.0, 100.0])
        diff = np.abs(probe.theta_hat(xi) - theta_hat_quadrature(xi, order=400))
        assert np.max(diff) < 1e-12

    def test_refined_doubles_quadrature_orders(self):
        probe = C.make_probe(0.1)
        fine = probe.refined()
        assert fine.epsilon == probe.epsilon
        assert fine.gl_order == 2 * probe.gl_order
        assert fine.window_order == 2 * probe.window_order

    def test_validation(self):
        with pytest.raises(GridError, match="nonnegative"):
            C.make_probe(-0.1)
        with pytest.raises(GridError, match="positive integer"):
            C.make_probe(0.1, refine=0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        # nan used to give I = nan and inf I = 0
        with pytest.raises(GridError, match="finite and nonnegative"):
            C.make_probe(eps)

    def test_rejects_fractional_refine(self):
        # refine = 1.5 used to fail inside numpy with a TypeError
        with pytest.raises(GridError, match="positive integer"):
            C.make_probe(0.25, refine=1.5)

    def test_rejects_bool_refine(self):
        # refine = True passed the int check and ran as refine 1
        with pytest.raises(GridError, match="positive integer"):
            C.make_probe(0.25, refine=True)

    def test_spline_is_built_once_per_process(self):
        assert C.make_probe(0.25).spline is C.make_probe(0.1).spline


class TestScipyFreeRules:
    """The window spline and the tau Simpson rule against scipy's, bit
    for bit; scipy is the oracle here and is not imported by the package."""

    def test_spline_coefficients_match_scipy(self):
        from scipy.interpolate import CubicSpline

        xi, vals, spline = C._theta_hat_table()
        assert xi.size == 110_001
        assert np.array_equal(spline.c, CubicSpline(xi, vals).c)

    @pytest.mark.parametrize("refine", [1, 2])
    def test_spline_values_at_probe_nodes(self, refine):
        from scipy.interpolate import CubicSpline

        xi, vals, spline = C._theta_hat_table()
        nodes = C.make_probe(0.1, refine=refine).s_nodes
        assert np.array_equal(spline(nodes), CubicSpline(xi, vals)(nodes))

    def test_spline_values_at_knots_and_table_ends(self):
        from scipy.interpolate import CubicSpline

        xi, vals, spline = C._theta_hat_table()
        pts = np.concatenate([xi, np.nextafter(xi, -np.inf),
                              np.nextafter(xi, np.inf),
                              [xi[0] - 50.0, xi[-1] + 50.0]])
        assert np.array_equal(spline(pts), CubicSpline(xi, vals)(pts))
        # every knot but the last starts its own interval
        assert np.array_equal(spline(xi[:-1]), vals[:-1])

    @pytest.mark.parametrize("n_tau", [3, 17, 257, 1025, 3847])
    def test_simpson_matches_scipy(self, n_tau):
        from scipy.integrate import simpson

        taus = np.linspace(-0.5, 0.5, n_tau)
        y = C.bump(taus / 0.5) ** 2 * np.cos(7.0 * taus) + taus ** 3
        assert C._simpson(y, taus) == float(simpson(y, x=taus))

    def test_solver_refuses_a_row_interchange(self):
        # after the first elimination the pivot is 1 against a subdiagonal
        # 3, where dgtsv would swap the rows
        with pytest.raises(GridError, match="row interchange"):
            C._tridiagonal_solve([1.0, 3.0], [2.0, 1.5, 1.0], [1.0, 1.0],
                                 [1.0, 1.0, 1.0])

    def test_solver_matches_a_dense_solve(self):
        a = np.diag([4.0, 5.0, 6.0, 5.0]) + np.diag([1.0, 2.0, 1.0], 1) \
            + np.diag([2.0, 1.0, 3.0], -1)
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x = C._tridiagonal_solve(np.diag(a, -1).tolist(), np.diag(a).tolist(),
                                 np.diag(a, 1).tolist(), b.tolist())
        assert np.allclose(a @ x, b, rtol=0, atol=1e-14)

    def test_spline_needs_uniform_knots(self):
        # the interval lookup corrects the arithmetic guess by one place
        x = np.array([0.0, 0.5, 0.6, 0.7, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(GridError, match="uniformly spaced"):
            C._NotAKnotSpline(x, np.sin(x))


class TestKernelH:
    def test_eps_zero_reduces_to_pure_singularity(self):
        # at epsilon = 0 both brackets collapse and H = |u|^{-1} int|theta^|
        p0 = C.make_probe(0.0)
        vals = [C.kernel_H(p0, e, x, np.array([1.0]))[0]
                for (e, x) in [(0.0, 0.0), (11.0, -3.0), (-5.0, 40.0)]]
        assert max(vals) - min(vals) < 1e-8
        assert vals[0] == pytest.approx(_theta_l1(p0), rel=1e-8)
        assert C.kernel_H(p0, 2.0, 1.0, np.array([-3.0]))[0] * 3.0 == (
            pytest.approx(_theta_l1(p0), rel=1e-8))

    def test_rejects_u_zero(self):
        with pytest.raises(GridError, match="undefined at u = 0"):
            C.kernel_H(C.make_probe(0.1), 0.0, 0.0, np.array([0.0]))

    def test_rejects_u_that_is_not_1d(self):
        probe = C.make_probe(0.1)
        for u in (1.0, np.ones((2, 2))):
            with pytest.raises(GridError, match="1-D array"):
                C.kernel_H(probe, 0.0, 0.0, u)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_u(self, bad):
        # a NaN row used to come back, with a RuntimeWarning at inf
        with pytest.raises(GridError, match="finite u"):
            C.kernel_H(C.make_probe(0.25), 0.0, 0.0, [bad, 1.0])

    @pytest.mark.parametrize("eta,xi1", [(math.inf, 1.0), (0.0, math.nan),
                                         (-math.inf, 0.0)])
    def test_rejects_non_finite_point(self, eta, xi1):
        # integral_I(probe, inf, 1.0) used to return 0.0
        probe = C.make_probe(0.25)
        for call in (lambda: C.kernel_H(probe, eta, xi1, np.array([1.0])),
                     lambda: C.integral_I(probe, eta, xi1)):
            with pytest.raises(GridError, match="must be finite"):
                call()

    @pytest.mark.parametrize("eps,expected", [
        (0.05, -0.8000261833064866),
        (0.10, -0.6003410545107978),
        (0.15, -0.4030238056484697),
    ])
    def test_small_u_exponent(self, eps, expected):
        # H ~ |u|^{4 eps - 1} near u = 0
        probe = C.make_probe(eps)
        us = np.array([1e-4, 1e-5])
        hv = C.kernel_H(probe, 0.0, 0.0, us)
        slope = np.log(hv[1] / hv[0]) / np.log(us[1] / us[0])
        assert slope == pytest.approx(expected, rel=1e-8)
        assert abs(slope - (4.0 * eps - 1.0)) < 0.005

    def test_envelope_is_order_one(self):
        # |u| <sigma>^{2e} <sigma+2u>^{2e} H stays bounded over random
        # feature positions
        probe = C.make_probe(0.25)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(60):
            eta = rng.uniform(-30, 30)
            xi1 = rng.uniform(-20, 20)
            u = rng.uniform(-8, 8)
            if abs(u) < 1e-3:
                continue
            sig = eta / u - 2.0 * xi1
            env = (C.kernel_H(probe, eta, xi1, np.array([u]))[0] * abs(u)
                   * (1.0 + sig ** 2) ** 0.25
                   * (1.0 + (sig + 2.0 * u) ** 2) ** 0.25)
            worst = max(worst, env)
        assert worst == pytest.approx(10.195146198280877, rel=1e-8)
        assert worst < 20.0

    def test_monotone_in_epsilon(self):
        for (eta, xi1, u) in [(0.0, 0.0, 0.3), (7.0, -2.0, 1.7)]:
            hs = [C.kernel_H(C.make_probe(e), eta, xi1, np.array([u]))[0]
                  for e in (0.0, 0.05, 0.15, 0.25)]
            assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))


def _dedupe_loop(values, rel=1e-12):
    values = np.sort(np.asarray(values, dtype=float))
    keep = [values[0]]
    for v in values[1:]:
        if v - keep[-1] > rel * max(1.0, abs(v)):
            keep.append(v)
    return np.array(keep)


def _gl_loop(edges, order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1][:, None], edges[1:][:, None]
    return (0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes[None, :],
            0.5 * (hi - lo) * weights[None, :])


def _kernel_H_loop(probe, eta, xi1, u):
    """Oracle: H one u at a time, window breakpoints grown point by point."""
    edges = probe.panel_edges
    n_panels = edges.size - 1
    eps = probe.epsilon
    ratio = 2.0 ** (1.0 / probe.refine)
    out = []
    for uj in np.atleast_1d(np.asarray(u, dtype=float)):
        usj = eta - 2.0 * xi1 * uj
        # the probe's node rows hold node j of every panel
        sums = np.sum(probe.theta_weights * C._bracket_pair(
            probe.s_nodes, uj, usj, eps), axis=0)
        val = np.sum(sums)
        cums = np.concatenate([[0.0], np.cumsum(sums)])
        if abs(uj) <= C._WINDOW_REACH:
            reach = 4.0 + 4.0 * abs(uj) + 2.0 * uj * uj
            w_lo, w_hi = usj - reach, usj + 2.0 * uj * uj + reach
            il = max(np.searchsorted(edges, w_lo, side="right") - 1, 0)
            ih = min(np.searchsorted(edges, w_hi, side="left"), n_panels)
            if ih > il:
                val -= cums[ih] - cums[il]
                lo, hi = edges[il], edges[ih]
                pts = [lo, hi] + list(edges[il + 1:ih])
                for center in (usj, usj + 2.0 * uj * uj):
                    if not lo < center < hi:
                        continue
                    pts.append(center)
                    step = 0.5 * abs(uj)
                    while step < hi - lo:
                        pts.extend(p for p in (center - step, center + step)
                                   if lo < p < hi)
                        step *= ratio
                wn, ww = _gl_loop(_dedupe_loop(pts), probe.window_order)
                val += float(np.sum(ww * np.abs(probe.theta_hat(wn))
                                    * C._bracket_pair(wn, uj, usj, eps)))
        out.append(val / abs(uj))
    return np.array(out)


_ORACLE_U = np.array([s * m for m in (1e-10, 1e-6, 1e-3, 0.5, 3.9, 4.5)
                      for s in (1.0, -1.0)])


class TestBatchedKernelH:
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
    def test_matches_per_u_loop(self, eps, refine):
        probe = C.make_probe(eps, refine=refine)
        for eta, xi1 in [(0.0, 0.0), (7.0, 3.0), (12.5, 0.0), (-45.0, 45.0)]:
            got = C.kernel_H(probe, eta, xi1, _ORACLE_U)
            want = _kernel_H_loop(probe, eta, xi1, _ORACLE_U)
            assert got == pytest.approx(want, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(eta=st.floats(-60.0, 60.0), xi1=st.floats(-60.0, 60.0),
           mag=st.floats(1e-8, 6.0), sign=st.sampled_from([1.0, -1.0]))
    def test_matches_per_u_loop_property(self, eta, xi1, mag, sign):
        probe = C.make_probe(0.25)
        u = np.array([sign * mag])
        assert C.kernel_H(probe, eta, xi1, u) == pytest.approx(
            _kernel_H_loop(probe, eta, xi1, u), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(base=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
           jitter=st.lists(st.integers(0, 6), min_size=1, max_size=12))
    def test_dedupe_matches_sequential_rule(self, base, jitter):
        # clusters of values a fraction of the tolerance apart, so runs of
        # close values are longer than two
        vals = [b + j * 0.4e-12 * max(1.0, abs(b)) for b in base
                for j in jitter]
        assert np.array_equal(C._dedupe(np.array(vals)), _dedupe_loop(vals))

    def test_gauss_legendre_rule_is_cached_read_only(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(order):
            calls.append(order)
            return real(order)

        C._gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        probe = C.make_probe(0.25)
        C.integral_I(probe, 7.0, 3.0)
        C.integral_I(probe, 0.0, 0.0)
        xi = np.array([0.0, 0.5, 1.7, 5.0, 20.0, 100.0])
        theta_hat_quadrature(xi, order=400)
        theta_hat_quadrature(xi, order=400)
        assert sorted(calls) == sorted(set(calls)) == [6, 8, 400]

        nodes, weights = C._gauss_legendre(8)
        assert C._gauss_legendre(8)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        diff = np.abs(probe.theta_hat(xi) - theta_hat_quadrature(xi, 400))
        assert np.max(diff) < 1e-12


class TestSharedSums:
    """The two identities the quadrature's shortcuts rest on, bit for bit."""

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.25])
    def test_kernel_H_mirror(self, eps, refine):
        # H(eta, xi1, -u) = H(eta, -xi1, u): the nodes of u < 0 are those of
        # u > 0 negated, and H sees u only through us and squares
        probe = C.make_probe(eps, refine=refine)
        nodes, _ = C._gl_panels(C._u_edges(probe), probe.gl_order)
        u = nodes.ravel()[::7]
        for xi1 in (0.0, -0.0, 15.0):
            for eta in (-45.0, -15.0, -0.0, 0.0, 15.0, 45.0):
                assert np.array_equal(C.kernel_H(probe, eta, xi1, -u),
                                      C.kernel_H(probe, eta, -xi1, u))

    def test_u_nodes_of_the_two_signs_mirror(self):
        probe = C.make_probe(0.25, refine=2)
        mags = C._u_edges(probe)
        pos = C._gl_panels(mags, probe.gl_order)
        neg = C._gl_panels(-mags[::-1], probe.gl_order)
        assert np.array_equal(neg[0].ravel(), -pos[0].ravel()[::-1])
        assert np.array_equal(neg[1].ravel(), pos[1].ravel()[::-1])

    @pytest.mark.parametrize("n", [6, 8, 12, 16, 136])
    def test_node_sum_matches_numpy_sum(self, n):
        # the smooth pass sums nodes in numpy's private pairwise order;
        # 136 nodes take the split into two halves
        rng = np.random.default_rng(n)
        terms = rng.uniform(0.0, 1.0, (5, n, 9)) * 10.0 ** rng.uniform(
            -8.0, 8.0, (5, n, 9))
        want = np.sum(np.ascontiguousarray(terms.transpose(0, 2, 1)), axis=2)
        assert np.array_equal(C._node_sum(terms.copy(), 0, n), want)

    @pytest.mark.parametrize("refine", [1, 2])
    def test_smooth_pass_matches_panel_major_sums(self, refine):
        # oracle: the panel-major layout summed per panel by np.sum, at u
        # beyond the window reach, where the smooth pass is all of |u| H
        probe = C.make_probe(0.25, refine=refine)
        u = np.array([4.5, -5.0, 6.0, 40.0])
        us = 7.0 - 2.0 * 3.0 * u
        nodes, weights = (np.ascontiguousarray(a.T) for a in
                          (probe.s_nodes, probe.theta_weights))
        terms = C._bracket_pair(nodes[None], u[:, None, None],
                                us[:, None, None], probe.epsilon)
        terms *= weights
        want = np.sum(np.sum(terms, axis=2), axis=1)
        assert np.array_equal(C._smooth_chunk(probe, u, us)[0], want)


def _bracket_oracle(s, u, us, epsilon):
    """The bracket pair as first written, one temporary per operation."""
    t1 = (s - us) / u
    t2 = (s - us - 2.0 * u * u) / u
    return ((1.0 + t1 * t1) * (1.0 + t2 * t2)) ** (-epsilon)


# _pooled_outputs() as recorded with one _window_sums pass per 32-u
# chunk; every block split must give these bits.  The control scan was
# recorded at the origin, where optimality_scan runs.  The two xi1 = 0
# points were recorded with one kernel_H call per sign of u
_POOLED_HEX = [
    "0x1.b7206d8a9f35cp+2", "0x1.45463a1342d54p+1", "0x1.147d5080fdcb2p+2",
    "0x1.f8f5e7bc25b91p-10", "0x1.c00d1b1ee8b3fp+2", "0x1.2468b893ca2f9p-1",
    "0x1.9b80040c6f6e0p+2", "0x1.fbb854c57dee3p-10", "0x1.a96e5f4099db6p+3",
    "0x1.7d0445d6c9508p+3", "0x1.734d8e415fb44p+3",
    # I(15, 0) at refine 1 and I(0, 0) at refine 2
    "0x1.22c468a17f59ep+2", "0x1.1e11bdb3e3ee8p+0", "0x1.b67ff2690cbc9p+1",
    "0x1.6464891101551p-9", "0x1.48e0114c1d52bp+4", "0x1.7e7d1b333e829p+3",
    "0x1.13430764fc22dp+3", "0x1.5e70a22e551ebp-9",
]


def _parts(res):
    return [res["value"], res["I1"], res["I2"], res["tail_estimate"]]


def _pooled_outputs():
    """float.hex of I at two scan points, of the refined I at one, of the
    control scan and of I at two xi1 = 0 points: every kernel_H caller of
    the collapse suite."""
    probe = C.make_probe(0.25)
    values = []
    for eta, xi1 in [(-15.0, 10.0), (30.0, -5.0)]:
        values += _parts(C.integral_I(probe, eta, xi1))
    values.append(C.integral_I(probe.refined(), 7.0, 3.0)["value"])
    values += C.optimality_scan(probe, "control", [1e-2, 1e-3])["values"]
    values += _parts(C.integral_I(probe, 15.0, 0.0))
    values += _parts(C.integral_I(probe.refined(), 0.0, 0.0))
    return [float(v).hex() for v in values]


class TestPooledKernelH:
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.25])
    def test_in_place_bracket_matches_old_expression(self, eps, refine):
        probe = C.make_probe(eps, refine=refine)
        rng = np.random.default_rng(11)
        # negative and positive u over ten decades, |us| up to 1e6
        u = rng.choice([-1.0, 1.0], C._U_CHUNK) * 10.0 ** rng.uniform(
            -10.0, 0.7, C._U_CHUNK)
        us = rng.choice([-1.0, 1.0], C._U_CHUNK) * 10.0 ** rng.uniform(
            -3.0, 6.0, C._U_CHUNK)
        shapes = [
            # the smooth pass: every panel node against a block of u
            (probe.s_nodes[None, :, :], u[:, None, None], us[:, None, None]),
            # the window pass: one row of sub-panel nodes per u
            (C._gl_nodes(us - 4.0, us + 4.0, probe.window_order)[0],
             u[:, None], us[:, None]),
        ]
        for s, uu, uss in shapes:
            got = C._bracket_pair(s, uu, uss, eps)
            want = _bracket_oracle(s, uu, uss, eps)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_outputs_do_not_depend_on_the_pool(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from boselab import grid

        as_is = _pooled_outputs()
        monkeypatch.setattr(grid, "_POOL_SIZE", 1)
        single = _pooled_outputs()
        # more threads than cores with a short switch interval, where a
        # lost or misplaced block write would show
        monkeypatch.setattr(grid, "_POOL_SIZE", 7)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(max_workers=7) as stress_pool:
            monkeypatch.setattr(grid, "_POOL", stress_pool)
            sys.setswitchinterval(1e-6)
            try:
                stressed = _pooled_outputs()
            finally:
                sys.setswitchinterval(interval)
        assert as_is == single == stressed == _POOLED_HEX

    def test_outputs_do_not_depend_on_the_block_sizes(self, monkeypatch):
        # small odd blocks: partial last chunks, and window passes that
        # split one chunk's rows and join rows of different chunks
        monkeypatch.setattr(C, "_U_CHUNK", 5)
        monkeypatch.setattr(C, "_WINDOW_ROWS", 7)
        assert _pooled_outputs() == _POOLED_HEX

    def test_integral_I_peak_memory(self, monkeypatch):
        import tracemalloc

        from boselab import grid

        # one lane: the peak of each further lane adds to it
        monkeypatch.setattr(grid, "_POOL_SIZE", 1)
        probe = C.make_probe(0.25)
        C.integral_I(probe, 0.0, 0.0)
        tracemalloc.start()
        try:
            C.integral_I(probe, 0.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2,113,287 bytes with one _window_sums pass per 32-u chunk and
        # the window spline evaluated in _SPLINE_BLOCK values per pass;
        # the bound leaves an 18 % margin over that
        assert peak < 2_500_000

    def test_pooled_block_runs_kernel_H_inline(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from boselab import grid

        probe = C.make_probe(0.25)
        u = np.linspace(-3.0, 5.0, 4 * C._U_CHUNK)
        want = C.kernel_H(probe, 7.0, 3.0, u)
        # one worker behind a pool size of two: a pooled block that waited
        # on the pool would wait on itself
        monkeypatch.setattr(grid, "_POOL_SIZE", 2)
        single = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(grid, "_POOL", single)
        got = {}

        def block(lo, hi):
            got[lo] = C.kernel_H(probe, 7.0, 3.0, u)

        caller = threading.Thread(target=grid._in_blocks, args=(block, 2),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60.0)
        # cancelling the queued blocks frees a worker that waits on them
        single.shutdown(wait=not caller.is_alive(), cancel_futures=True)
        assert not caller.is_alive()
        assert sorted(got) == [0, 1]
        for values in got.values():
            assert np.array_equal(values, want)


class TestIntegralI:
    def test_reference_value_and_parts(self):
        probe = C.make_probe(0.25)
        res = C.integral_I(probe, 0.0, 0.0)
        assert sorted(res) == ["I1", "I2", "n_u_nodes", "tail_estimate",
                               "value"]
        assert res["value"] == pytest.approx(20.55468845200618, rel=1e-10)
        assert res["value"] == pytest.approx(res["I1"] + res["I2"],
                                             rel=1e-14)
        assert 0.0 < res["tail_estimate"] < 0.01 * res["value"]

    def test_node_doubling_stable(self):
        probe = C.make_probe(0.25)
        coarse = C.integral_I(probe, 0.0, 0.0)["value"]
        fine = C.integral_I(probe.refined(), 0.0, 0.0)["value"]
        assert abs(fine - coarse) / coarse < 1e-3

    def test_even_in_xi1(self):
        probe = C.make_probe(0.25)
        a = C.integral_I(probe, 7.0, 3.0)["value"]
        b = C.integral_I(probe, 7.0, -3.0)["value"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_grows_as_epsilon_shrinks(self):
        v25 = C.integral_I(C.make_probe(0.25), 0.0, 0.0)["value"]
        v10 = C.integral_I(C.make_probe(0.1), 0.0, 0.0)["value"]
        assert v10 == pytest.approx(64.30081491881703, rel=1e-10)
        assert v10 > 2.0 * v25


class TestLemmaF:
    TABLE = {0.0: 14.599371490353404, 1.0: 13.046887994358096,
             10.0: 6.569658764187402, 1000.0: 1.1146538109591875}

    def test_reference_table_and_symmetry(self):
        probe = C.make_probe(0.1)
        ref = C.lemma_F_reference(probe)
        assert ref == pytest.approx(17.902340004081555, rel=1e-10)
        for e, expected in self.TABLE.items():
            v = C.lemma_F(probe, e)
            assert v == pytest.approx(expected, rel=1e-10)
            assert C.lemma_F(probe, -e) == pytest.approx(v, rel=1e-13)
            assert v <= ref

    def test_decay_rate(self):
        # F(e) ~ |e|^{-4 eps} for large |e|
        slope = (math.log(self.TABLE[10.0] / self.TABLE[1000.0])
                 / math.log(10.0 / 1000.0))
        assert abs(slope + 0.4) < 0.05
        comp = [v * max(1.0, abs(e)) ** 0.4 for e, v in self.TABLE.items()]
        assert max(comp) / min(comp) == pytest.approx(1.354044916844532,
                                                      rel=1e-8)
        assert max(comp) / min(comp) < 5.0

    def test_against_adaptive_quadrature(self):
        probe = C.make_probe(0.1)

        def f_int(u, e, eps):
            return (abs(u - e) ** (-8 * eps)
                    * (1 + u * u) ** (-0.5 * (1 - 4 * eps)))

        pieces = [(-4e6, -10.0), (-10.0, 0.0), (0.0, 10.0 - 1e-9),
                  (10.0 + 1e-9, 30.0), (30.0, 4e6)]
        oracle = sum(quad(f_int, a, b, args=(10.0, 0.1), limit=400)[0]
                     for a, b in pieces)
        oracle += 2.0 * (4e6) ** (-0.4) / 0.4  # analytic tail beyond 4e6
        assert C.lemma_F(probe, 10.0) == pytest.approx(oracle, rel=1e-6)

    def test_node_doubling_stable(self):
        probe = C.make_probe(0.1)
        coarse = C.lemma_F(probe, 10.0)
        fine = C.lemma_F(probe.refined(), 10.0)
        assert abs(fine - coarse) / coarse < 1e-6

    def test_rejects_non_finite_e(self):
        # lemma_F(probe, nan) used to return nan
        with pytest.raises(GridError, match="finite e"):
            C.lemma_F(C.make_probe(0.1), math.nan)

    def test_domain_restriction(self):
        for eps in (0.0, 0.125, 0.25):
            with pytest.raises(GridError, match="1/8"):
                C.lemma_F(C.make_probe(eps), 1.0)


class TestOptimalityScan:
    DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]

    def test_linear_fit_recovers_exact_line(self):
        fit = C.linear_fit(np.array([0.0, 1.0, 2.0, 3.0]),
                           np.array([1.0, 4.0, 7.0, 10.0]))
        assert fit["slope"] == pytest.approx(3.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(1.0, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_zero_mode_is_exactly_logarithmic(self):
        res = C.optimality_scan(C.make_probe(0.0), "epsilon_zero",
                                self.DELTAS)
        assert res["slope"] == pytest.approx(2.0, abs=1e-9)
        assert res["r_squared"] == pytest.approx(1.0, abs=1e-12)
        # int_{d<|u|<1} du/|u| = 2 ln(1/d)
        expected = sorted((2.0 * math.log(1.0 / d) for d in self.DELTAS),
                          reverse=True)
        assert res["values"] == pytest.approx(expected, rel=1e-12)

    def test_infinite_window_mode_diverges_logarithmically(self):
        res = C.optimality_scan(C.make_probe(0.25), "T_infinite",
                                self.DELTAS)
        assert res["slope"] == pytest.approx(1.999983662122224, rel=1e-8)
        assert res["slope"] > 0.0
        assert res["r_squared"] > 0.9999

    def test_control_mode_stays_bounded(self):
        res = C.optimality_scan(C.make_probe(0.25), "control", self.DELTAS)
        assert abs(res["slope"]) < 0.1
        assert res["slope"] == pytest.approx(0.04721703959321842, rel=1e-8)

    def test_unknown_mode(self):
        with pytest.raises(GridError, match="unknown optimality mode"):
            C.optimality_scan(C.make_probe(0.25), "bogus", self.DELTAS)

    @pytest.mark.parametrize("start", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_cutoff_without_a_ladder(self, start):
        # a start of 0 used to grow the ladder until MemoryError
        with pytest.raises(GridError, match="finite start > 0"):
            C.optimality_scan(C.make_probe(0.0), "epsilon_zero",
                              [start, 1e-2])
        with pytest.raises(GridError, match="finite start > 0"):
            C._ladder(start, 1.0, 1)


class TestFrozenQuadratureRules:
    """Every graded quadrature rule, pinned to values of the rules as they
    were first written (one loop per rule), so that sharing one grading
    ladder changes no node.  The control scan is left out: it alone takes
    seconds, and the CLI outputs cover it."""

    REL = 1e-14

    # size, sum, sum of logs, and the 2nd, middle and next-to-last edge
    U_EDGES = {
        1: [33, 8192.048575, -90.54676676922014, 2e-06, 0.065536, 2048.0],
        2: [65, 13984.736021903991, -178.32094481620047,
            1.4142135623730952e-06, 0.06553600000000002, 2896.3093757400993],
    }
    # size, sum and sum of logs of the nodes; sum of the weights; first moment
    SHELL = {
        1: [160, 24.36, -546.0108985243237, 0.999, 0.4999995],
        2: [640, 95.01569517784571, -2198.4293444865543, 0.999,
            0.49999949999999993],
    }
    # value, I1, I2, tail_estimate, n_u_nodes at eps = 0.25
    INTEGRAL_I = {
        (1, 0.0, 0.0): [20.554688452006182, 11.952771757751387,
                        8.601916694254797, 0.0027190705620048733, 512],
        (1, -15.0, 10.0): [6.86135424172684, 2.541205653576677,
                           4.320148588150163, 0.0019262716951169193, 1984],
        (2, 0.0, 0.0): [20.554703996012147, 11.952771759115494,
                        8.601932236896653, 0.0026736448263966392, 2048],
        (2, -15.0, 10.0): [6.861353915924241, 2.541205698813423,
                           4.320148217110818, 0.0018940905271801565, 7808],
    }
    # (refine, e) -> F(e) at eps = 0.1; e = None is the reference integral
    LEMMA_F = {
        (1, 0.0): 14.599371490353407, (1, 10.0): 6.569658764187403,
        (1, -1000.0): 1.114653810959188, (1, None): 17.90234000408156,
        (2, 10.0): 6.569658941810377, (2, None): 17.90234002904592,
    }
    SCANS = {
        ("epsilon_zero", 0.0): (2.0000000000000004, [
            23.025850929940454, 18.42068074395236, 13.815510557964274,
            9.210340371976182]),
        ("T_infinite", 0.25): (1.999983662122224, [
            22.33817983424791, 17.733009660634814, 13.127840712145275,
            8.522794261630183]),
    }

    @pytest.mark.parametrize("refine", [1, 2])
    def test_u_edges_and_shell_edges(self, refine):
        edges = C._u_edges(C.make_probe(0.25, refine=refine))
        size, *rest = self.U_EDGES[refine]
        assert edges.size == size
        got = [edges.sum(), np.log(edges).sum(), edges[1],
               edges[size // 2], edges[-2]]
        assert got == pytest.approx(rest, rel=self.REL)
        assert edges[0] == 1e-6 and edges[-1] == 4096.0

        un, wn = C._shell_quadrature(1e-3, 16 * refine, refine)
        size, *rest = self.SHELL[refine]
        assert un.size == size
        got = [un.sum(), np.log(un).sum(), wn.sum(), (wn * un).sum()]
        assert got == pytest.approx(rest, rel=self.REL)

    @pytest.mark.parametrize("refine", [1, 2])
    def test_integral_I(self, refine):
        probe = C.make_probe(0.25, refine=refine)
        for (r, eta, xi1), frozen in self.INTEGRAL_I.items():
            if r != refine:
                continue
            res = C.integral_I(probe, eta, xi1)
            got = [res["value"], res["I1"], res["I2"], res["tail_estimate"]]
            assert got == pytest.approx(frozen[:4], rel=self.REL)
            assert res["n_u_nodes"] == frozen[4]

    def test_lemma_F(self):
        probes = {r: C.make_probe(0.1, refine=r) for r in (1, 2)}
        for (refine, e), frozen in self.LEMMA_F.items():
            probe = probes[refine]
            got = (C.lemma_F_reference(probe) if e is None
                   else C.lemma_F(probe, e))
            assert got == pytest.approx(frozen, rel=self.REL)

    def test_failure_mode_scans(self):
        for (mode, eps), (slope, values) in self.SCANS.items():
            res = C.optimality_scan(C.make_probe(eps), mode,
                                    TestOptimalityScan.DELTAS)
            assert res["slope"] == pytest.approx(slope, rel=self.REL)
            assert res["values"] == pytest.approx(values, rel=self.REL)


def _band_limited(grid, rng):
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    vk = np.fft.fft(v)
    vk[np.abs(grid.k) > 0.6 * np.max(np.abs(grid.k))] = 0.0
    return np.fft.ifft(vk)


class TestWeightedKernelNorm:
    def test_rank_two_gram_matches_dense_operator(self):
        # independent route: conjugate the kernel by the dense fractional
        # weight and take the Frobenius norm
        g = Grid1D(32, 4.0)
        rng = np.random.default_rng(7)
        a1, b1, a2, b2 = (_band_limited(g, rng) for _ in range(4))
        eye = np.eye(g.n)
        fmat = np.fft.fft(eye, axis=0)
        kernel = np.outer(a1, b1) - np.outer(a2, b2)
        for eps in (0.0, 0.1, 0.25):
            got = C._rank2_norm_sq(g, eps, a1, b1, a2, b2)
            w = np.fft.ifft((1.0 + g.k ** 2)[:, None] ** (eps / 2.0) * fmat,
                            axis=0)
            dense = np.linalg.norm(w @ kernel @ w.T, "fro") ** 2 * g.h ** 2
            assert got == pytest.approx(dense, rel=1e-12)

    def test_pair_profile_input_norm_matches_dense(self):
        g = Grid1D(32, 4.0)
        rng = np.random.default_rng(7)
        f, p = _band_limited(g, rng), _band_limited(g, rng)
        prof = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        khat = np.outer(prof, prof) / 3.0
        member = C.PairProfileMember(f=f, g=prof, lam=3.0, p=p, label="probe")
        got = member.weighted_input_norm(g, 0.25)
        w2 = (1.0 + g.k ** 2) ** 0.25
        kern = (g.h / g.n) ** 2 * np.sum(
            w2[:, None] * w2[None, :] * np.abs(khat) ** 2)

        def hnorm(v):
            return np.sqrt(g.h / g.n * np.sum(
                (1.0 + g.k ** 2) ** 0.25 * np.abs(np.fft.fft(v)) ** 2))

        assert got == pytest.approx(hnorm(f) * hnorm(p) * np.sqrt(kern),
                                    rel=1e-12)

    @pytest.mark.parametrize("n", [64, 512])
    def test_rank_one_diagonal_matches_dense_profile(self, n):
        # oracle: the diagonal of the dense n x n profile after evolution,
        # from one 2-D transform
        g = Grid1D(n, 4.0)
        member = C.make_dilation_family(g, [16.0])[0]
        khat = np.outer(member.g, member.g) / member.lam
        for tau in (0.0, 0.3):
            phase = np.exp(-1j * tau * g.k ** 2)
            full = np.fft.fft(np.fft.ifft(
                phase[:, None] * khat * np.conj(phase)[None, :], axis=0),
                axis=1)
            dense = np.diagonal(full) / g.n
            got = member._diag(g, phase)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestOperatorFamilies:
    def test_baseline_and_modulation_ratios(self):
        g = Grid1D(256, 8.0)
        members = [C.make_baseline_member(g)]
        members += C.make_modulation_family(g, [4.0, 16.0, 64.0])
        res = C.direct_operator_test(g, members, epsilon=0.25,
                                     t_window=2.0, n_tau=257)
        assert [r["label"] for r in res] == [
            "baseline", "modulation lambda=4", "modulation lambda=16",
            "modulation lambda=64"]
        assert res[0]["ratio"] == pytest.approx(0.15765139504689055,
                                                rel=1e-8)
        mods = [r["ratio"] for r in res[1:]]
        assert mods == pytest.approx([0.24015947215938224,
                                      0.22455212139888822,
                                      0.22460348204179673], rel=1e-8)
        # modulation leaves the ratio flat: no growth in lambda
        assert max(mods) / min(mods) < 2.0
        for r in res:
            assert r["epsilon"] == 0.25
            assert r["lhs"] <= r["rhs"] * r["ratio"] * (1 + 1e-12)

    def test_baseline_ratio_survives_grid_refinement(self):
        coarse = C.direct_operator_test(
            Grid1D(256, 8.0), [C.make_baseline_member(Grid1D(256, 8.0))],
            epsilon=0.25, t_window=2.0, n_tau=257)[0]["ratio"]
        fine = C.direct_operator_test(
            Grid1D(512, 8.0), [C.make_baseline_member(Grid1D(512, 8.0))],
            epsilon=0.25, t_window=2.0, n_tau=257)[0]["ratio"]
        assert abs(fine - coarse) / coarse < 1e-8

    def test_counter_rotating_family_feels_epsilon(self):
        g = Grid1D(256, 8.0)
        family = C.make_counter_rotating_family(g, [4.0, 16.0, 64.0])
        r25 = [x["ratio"] for x in C.direct_operator_test(
            g, family, epsilon=0.25, t_window=0.1, n_tau=257)]
        assert r25 == pytest.approx([0.018629019735445174,
                                     0.010902251631644466,
                                     0.006140856129470737], rel=1e-8)
        assert r25[0] > r25[1] > r25[2]
        r05 = C.direct_operator_test(g, family, epsilon=0.05,
                                     t_window=0.1, n_tau=257)
        growth = r05[1]["ratio"] / r25[1]
        assert growth == pytest.approx(2.829465589106397, rel=1e-8)
        assert growth > 2.0

    def test_dilation_family_crosses_alpha_half(self):
        # trace ratios scale like Lambda^{1/2 - alpha}
        g = Grid1D(512, 4.0)
        family = C.make_dilation_family(g, [4.0, 16.0, 64.0])
        strong = C.trace_lemma_check(g, family, alpha=0.75)
        weak = C.trace_lemma_check(g, family, alpha=0.25)
        assert sorted(strong[0]) == ["alpha", "label", "lhs", "ratio", "rhs"]
        decay = strong[-1]["ratio"] / strong[0]["ratio"]
        growth = weak[-1]["ratio"] / weak[0]["ratio"]
        assert decay == pytest.approx(0.46077163306939856, rel=1e-8)
        assert decay < 0.7
        assert growth == pytest.approx(1.6549022129913726, rel=1e-8)
        assert growth > 1.3

    @pytest.mark.parametrize("n_tau", [257, 1025])
    @pytest.mark.parametrize("family,t_window", [
        ("modulation", 2.0), ("counter_rotating", 0.1)])
    def test_tau_batches_match_per_tau_series(self, family, t_window, n_tau):
        # oracle: each factor evolved and the rank-two Gram norm taken one
        # tau at a time, for each member on its own; 1025 samples leave a
        # partial last block, and the members share f, p and q
        g = Grid1D(256, 8.0)
        members = getattr(C, f"make_{family}_family")(g, [4.0, 64.0])
        taus = np.linspace(-t_window, t_window, n_tau)
        win2 = C.bump(taus / t_window) ** 2
        for eps in (0.05, 0.25):
            got = C.direct_operator_test(g, members, epsilon=eps,
                                         t_window=t_window, n_tau=n_tau)
            for member, res in zip(members, got):
                series = []
                for t in taus:
                    phase = np.exp(-1j * t * g.k ** 2)
                    ft, gt, pt, qt = (np.fft.ifft(phase * np.fft.fft(v))
                                      for v in (member.f, member.g,
                                                member.p, member.q))
                    series.append(C._rank2_norm_sq(
                        g, eps, ft * gt * np.conj(qt), np.conj(pt), ft,
                        gt * np.conj(pt) * np.conj(qt)))
                lhs = math.sqrt(C._simpson(win2 * np.array(series), taus))
                assert res["lhs"] == pytest.approx(lhs, rel=1e-12)

    def test_rejects_pair_profile_members(self):
        # a pair profile used to fail with an AttributeError in the tau loop
        g = Grid1D(32, 4.0)
        members = [C.make_baseline_member(g),
                   *C.make_dilation_family(g, [4.0])]
        with pytest.raises(GridError, match="PairProfileMember"):
            C.direct_operator_test(g, members, epsilon=0.25,
                                   t_window=0.5, n_tau=17)

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"n_tau": 1}, "n_tau must be at least 3"),
        ({"n_tau": 2}, "n_tau must be at least 3"),
        ({"t_window": 0.0}, "t_window must be finite and positive"),
        ({"t_window": -1.0}, "t_window must be finite and positive"),
        ({"t_window": math.inf}, "t_window must be finite and positive"),
        ({"epsilon": math.nan}, "epsilon must be finite"),
        ({"n_tau": 16}, "odd"),
    ])
    def test_rejects_degenerate_tau_rule(self, kwargs, fragment):
        # n_tau = 1 used to give lhs = ratio = 0, t_window = 0 a nan, and
        # an even n_tau was run as n_tau + 1 samples
        g = Grid1D(32, 4.0)
        args = {"epsilon": 0.25, "t_window": 0.5, "n_tau": 17, **kwargs}
        with pytest.raises(GridError, match=fragment):
            C.direct_operator_test(g, [C.make_baseline_member(g)], **args)

    def test_rejects_zero_member(self):
        g = Grid1D(32, 4.0)
        zero = np.zeros(g.n, complex)
        member = C.SeparableKernelMember(f=zero, g=zero, p=zero, q=zero,
                                         label="zero")
        with pytest.raises(GridError, match="not normalizable"):
            C.direct_operator_test(g, [member], epsilon=0.1,
                                   t_window=0.5, n_tau=17)
