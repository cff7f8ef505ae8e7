"""Grid, transform, state, and weight behavior."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boselab import grid as grid_module
from boselab.grid import (
    BosonicState,
    ConvergenceError,
    Grid1D,
    GridError,
    apply_matrix,
    apply_symbol,
    apply_weight_squared,
    dense_operator,
    dense_weight_squared,
    lanczos_min,
    random_state,
    sector_tables,
    sorted_tuples,
    symmetrize,
    weighted_norm_squared,
)

from oracles import symmetry_residual


def test_grid_geometry():
    g = Grid1D(64, 8.0)
    assert g.h == pytest.approx(0.25)
    assert g.x[0] == pytest.approx(-8.0)
    assert g.x[-1] == pytest.approx(8.0 - g.h)
    assert np.allclose(np.diff(g.x), g.h)


@pytest.mark.parametrize("n", [0, -4, 3, 33, 100])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(GridError):
        Grid1D(n, 8.0)


def test_grid_rejects_bad_length():
    with pytest.raises(GridError):
        Grid1D(64, 0.0)
    with pytest.raises(GridError):
        Grid1D(64, -1.0)


def _non_finite_builders():
    from boselab.lens import LensMap
    from boselab.nbody import NBodySystem
    from boselab.nls import NLSProblem
    from boselab.potentials import PotentialError, PotentialSpec

    g = Grid1D(16, 4.0)
    return {
        "grid_length": (lambda x: Grid1D(16, x), GridError),
        "nbody_omega": (lambda x: NBodySystem(g, 2, omega=x), GridError),
        "potential_a": (lambda x: PotentialSpec("gaussian_well", a=x, s=1.0),
                        PotentialError),
        "potential_s": (lambda x: PotentialSpec("gaussian_well", a=1.0, s=x),
                        PotentialError),
        "potential_r": (lambda x: PotentialSpec("mixed_sign", a=1.0, s=1.0,
                                                r=x), PotentialError),
        "lens_omega": (lambda x: LensMap(x), GridError),
        "nls_b0": (lambda x: NLSProblem(g, b0=x), GridError),
        "nls_omega": (lambda x: NLSProblem(g, 1.0, omega=x), GridError),
        "weight_omega": (lambda x: grid_module._weight_parts(g, "S", x),
                         GridError),
        "state_values": (lambda x: BosonicState(
            g, 2, np.full(136, x, dtype=complex)).normalized(), GridError),
        "random_state_k_filter": (
            lambda x: random_state(g, 2, seed=0, k_filter=x), GridError),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", list(_non_finite_builders()))
def test_constructors_reject_non_finite_values(name, bad):
    # a comparison with NaN is False, so a bare `x < 0` guard lets NaN in
    build, error = _non_finite_builders()[name]
    with pytest.raises(error, match="finite"):
        build(bad)


def test_apply_symbol_on_plane_wave():
    g = Grid1D(64, 8.0)
    k0 = g.k[5]
    wave = np.exp(1j * k0 * g.x)
    out = apply_symbol(wave, g.k ** 2, 0)
    assert np.max(np.abs(out - k0 ** 2 * wave)) < 1e-12


def test_bosonic_state_norm_of_a_constant_tensor():
    g = Grid1D(32, 4.0)
    amp = np.full((32, 32), 1.0 / (2 * g.length), dtype=np.complex128)
    # |amp|^2 summed with h^2 weight: (2L)^{-2} * n^2 * h^2 = 1
    state = BosonicState(g, 2, symmetrize(g, amp).values)
    assert state.n_particles == 2
    assert state.norm() == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(state.amplitudes, amp, rtol=1e-12, atol=0.0)
    half = BosonicState(g, 2, 0.5 * state.values)
    assert half.norm() == pytest.approx(0.5, rel=1e-12)
    assert half.normalized().norm() == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ndim=st.integers(1, 4), n=st.sampled_from([2, 4, 8]),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_matrix_matches_tensordot(ndim, n, data, seed):
    axis = data.draw(st.integers(0, ndim - 1), label="axis")
    rng = np.random.default_rng(seed)
    shape = (n,) * ndim
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ref = np.moveaxis(np.tensordot(mat, a, axes=(1, axis)), 0, axis)
    out = apply_matrix(a, mat, axis)
    assert out.shape == a.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sobolev_weight_symbols():
    g = Grid1D(64, 8.0)
    # S^2 = symbol 1 + k^2/2 plus multiplier omega^2 x^2/2; L^2 = 1 + k^2
    s2 = dense_operator(g, 1.0 + 0.5 * g.k ** 2, 0.5 * 4.0 * g.x ** 2)
    l2 = dense_operator(g, 1.0 + g.k ** 2, np.zeros(g.n))
    assert np.allclose(dense_weight_squared(g, "S", 2.0), s2)
    assert np.allclose(dense_weight_squared(g, "L", 0.0), l2)
    with pytest.raises(GridError):
        dense_weight_squared(g, "Q", 0.0)
    with pytest.raises(GridError):
        dense_weight_squared(g, "S", -1.0)


def test_weighted_norm_on_plane_wave():
    g = Grid1D(64, 8.0)
    k0 = g.k[3]
    amp = np.exp(1j * k0 * g.x) / math.sqrt(2 * g.length)
    assert weighted_norm_squared(g, amp, [0], "L", 0.0) == pytest.approx(
        1.0 + k0 ** 2, rel=1e-12)
    assert weighted_norm_squared(g, amp, [0], "S", 0.0) == pytest.approx(
        1.0 + 0.5 * k0 ** 2, rel=1e-12)
    x2_mean = float(g.h * np.sum(g.x ** 2 * np.abs(amp) ** 2))
    assert weighted_norm_squared(g, amp, [0], "S", 1.0) == pytest.approx(
        1.0 + 0.5 * k0 ** 2 + 0.5 * x2_mean, rel=1e-12)


def test_weighted_norm_multi_axis_is_product_on_product_state():
    # <phi x phi, W1^2 W2^2 (phi x phi)> = <phi, W^2 phi>^2
    g = Grid1D(32, 6.0)
    phi = np.exp(-g.x ** 2).astype(np.complex128)
    phi /= math.sqrt(g.h * np.sum(np.abs(phi) ** 2))
    pair = np.multiply.outer(phi, phi)
    single = weighted_norm_squared(g, phi, [0], "S", 1.0)
    both = weighted_norm_squared(g, pair, [0, 1], "S", 1.0)
    assert both == pytest.approx(single ** 2, rel=1e-12)


def test_apply_weight_squared_matches_dense_operator():
    g = Grid1D(32, 4.0)
    phi = random_state(g, 1, seed=4).amplitudes
    for kind, omega in (("S", 1.5), ("L", 0.0)):
        dense = dense_weight_squared(g, kind, omega)
        fast = apply_weight_squared(g, phi, [0], kind, omega)
        ref = dense @ phi
        assert np.max(np.abs(fast - ref)) < 1e-12


def test_weight_axis_validation():
    g = Grid1D(16, 4.0)
    psi = random_state(g, 2, seed=0).amplitudes
    with pytest.raises(GridError):
        apply_weight_squared(g, psi, [2], "S", 0.0)
    with pytest.raises(GridError):
        apply_weight_squared(g, psi, [0, 0], "S", 0.0)
    # a tensor off the grid is rejected, not broadcast
    with pytest.raises(GridError, match="do not match grid size"):
        weighted_norm_squared(g, np.ones((16, 8)), [0], "S", 0.0)


def test_symmetrize_product_pair():
    g = Grid1D(32, 6.0)
    f = np.exp(-(g.x - 1.0) ** 2).astype(np.complex128)
    h = np.exp(-(g.x + 1.0) ** 2).astype(np.complex128)
    sym = symmetrize(g, np.multiply.outer(f, h))
    assert symmetry_residual(sym.amplitudes) < 1e-14
    assert sym.norm() == pytest.approx(1.0, rel=1e-13)
    # projection direction: (f x h + h x f) up to scale
    manual = np.multiply.outer(f, h) + np.multiply.outer(h, f)
    manual = manual / math.sqrt(g.h ** 2 * np.sum(np.abs(manual) ** 2))
    overlap = abs(g.h ** 2 * np.sum(np.conj(manual) * sym.amplitudes))
    assert overlap == pytest.approx(1.0, rel=1e-12)


def test_symmetrize_rejects_antisymmetric_input():
    g = Grid1D(32, 6.0)
    f = np.exp(-(g.x - 1.0) ** 2).astype(np.complex128)
    h = np.exp(-(g.x + 1.0) ** 2).astype(np.complex128)
    anti = np.multiply.outer(f, h) - np.multiply.outer(h, f)
    with pytest.raises(GridError, match="annihilated"):
        symmetrize(g, anti)
    # one NaN used to come back as NaN sector values
    product = np.multiply.outer(f, h)
    product[2, 5] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        symmetrize(g, product)
    # one inf used to warn of inf - inf in the projection first, which
    # the suite's error::RuntimeWarning filter raises in place of the
    # GridError
    infinite = np.ones((8, 8), dtype=np.complex128)
    infinite[3, 6] = np.inf
    with pytest.raises(GridError, match="non-finite"):
        symmetrize(Grid1D(8, 4.0), infinite)


def _permutation_average(amplitudes):
    """The former symmetrizer, kept as the oracle: the average of a
    tensor over the N! permutations of its axes."""
    perms = itertools.permutations(range(amplitudes.ndim))
    next(perms)  # the identity
    acc = amplitudes.copy()
    for perm in perms:
        acc += np.transpose(amplitudes, perm)
    acc /= math.factorial(amplitudes.ndim)
    return acc


def _permutation_sign(perm):
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


@settings(max_examples=40, deadline=None)
@given(nn=st.integers(1, 4), n=st.sampled_from([2, 4, 8]),
       seed=st.integers(0, 2 ** 16))
def test_symmetrize_is_the_permutation_average(nn, n, seed):
    g = Grid1D(n, 4.0)
    rng = np.random.default_rng(seed)
    shape = (n,) * nn
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = symmetrize(g, raw)
    assert isinstance(sym, BosonicState) and sym.n_particles == nn
    assert sym.norm() == pytest.approx(1.0, rel=1e-14)
    ref = _permutation_average(raw)
    ref /= math.sqrt(g.h ** nn * float(np.sum(np.abs(ref) ** 2)))
    # each route rounds a mean, of the N! permuted entries or of up to N!
    # deviations from the sorted tuple's value (symmetrize's bincount),
    # and one normalization.  The roundings of a sum of m random terms
    # add up like a random walk, to about u sqrt(m) relative to their
    # mean (u = 2^-53), and each normalization rounds a norm and a
    # division, a few u whatever N.  Over 20,000 draws for each N and n
    # here the defect was at most 4.5 u at N = 1, where only the
    # normalizations differ, and 1.8 u sqrt(N!) at N = 4 (the former
    # bound, 1e-15 = 9.0 u, against 8.8 u).  The bound allows 8 u for the
    # normalizations and 4 u sqrt(N!) for the means.
    u = 2.0 ** -53
    bound = u * (8.0 + 4.0 * math.sqrt(math.factorial(nn)))
    assert (np.linalg.norm(sym.amplitudes - ref)
            <= bound * np.linalg.norm(ref))
    # a symmetric tensor's values come back bit for bit
    again = symmetrize(g, sym.amplitudes)
    assert np.array_equal(again.values, sym.normalized().values)
    # an antisymmetric tensor has no bosonic part (and is zero unless the
    # N particles can sit on distinct sites)
    if 2 <= nn <= n:
        anti = sum(_permutation_sign(p) * np.transpose(raw, p)
                   for p in itertools.permutations(range(nn)))
        with pytest.raises(GridError, match="annihilated"):
            symmetrize(g, anti)


def test_random_state_seeding_and_symmetry():
    g = Grid1D(16, 4.0)
    a = random_state(g, 3, seed=7, k_filter=2.0)
    b = random_state(g, 3, seed=7, k_filter=2.0)
    c = random_state(g, 3, seed=8, k_filter=2.0)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert a.norm() == pytest.approx(1.0, rel=1e-12)
    assert symmetry_residual(a.amplitudes) == 0.0
    # a draw is a BosonicState at every N, one particle included
    for nn in (1, 2, 3):
        assert isinstance(random_state(g, nn, seed=1), BosonicState)
    # k_filter = 0 used to return an all-NaN state
    with pytest.raises(GridError, match="k_filter"):
        random_state(g, 2, seed=0, k_filter=0.0)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 1), (3, 4), (5, 2), (8, 3),
                                  (16, 4)])
def test_sorted_tuples_enumerate_rank_and_count_the_sector(n, k):
    tuples, ranks, multiplicity = sorted_tuples(n, k)
    ref = list(itertools.combinations_with_replacement(range(n), k))
    assert tuples.tolist() == [list(t) for t in ref]
    assert len(ref) == math.comb(n + k - 1, k)
    assert multiplicity.tolist() == [
        math.factorial(k) / math.prod(map(math.factorial,
                                          Counter(t).values()))
        for t in ref]
    assert multiplicity.sum() == n ** k
    # ranks adds one index to a (k-1)-tuple; chained from the empty tuple
    # it ranks every index tuple, in any order, as its sorted form
    rank = {t: r for r, t in enumerate(ref)}
    prev = list(itertools.combinations_with_replacement(range(n), k - 1))
    assert ranks.shape == (len(prev), n)
    for r, b in enumerate(prev):
        for j in range(n):
            assert ranks[r, j] == rank[tuple(sorted(b + (j,)))]
    chained = np.zeros((), dtype=np.intp)
    for m in range(1, k + 1):
        chained = sorted_tuples(n, m)[1][chained]
    assert chained.shape == (n,) * k
    for t in itertools.product(range(min(n, 3)), repeat=k):
        assert chained[t] == rank[tuple(sorted(t))]


def test_sorted_tuples_reject_empty_widths():
    with pytest.raises(GridError):
        sorted_tuples(4, 0)


@pytest.mark.parametrize("n, nn", [(8, 1), (8, 2), (4, 3), (4, 4)])
def test_bosonic_state_expands_its_values_to_every_ordering(n, nn):
    g = Grid1D(n, 4.0)
    tuples = sector_tables(n, nn)[0][-1][0]
    rng = np.random.default_rng(nn)
    given_values = rng.standard_normal(len(tuples)) + 1j * rng.standard_normal(
        len(tuples))
    state = BosonicState(g, nn, given_values)
    given_values[0] = 7.0  # the state keeps its own read-only copy
    assert state.values[0] != 7.0 and not state.values.flags.writeable
    full = state.amplitudes
    assert full.shape == (n,) * nn and not full.flags.writeable
    rank = {tuple(t): r for r, t in enumerate(tuples.tolist())}
    for index in itertools.product(range(n), repeat=nn):
        assert full[index] == state.values[rank[tuple(sorted(index))]]
    # formed again on every read, and not kept
    assert np.array_equal(state.amplitudes, full)
    # the multiplicity-weighted norm is the tensor's
    tensor_norm = math.sqrt(g.h ** nn * float(np.sum(np.abs(
        state.amplitudes) ** 2)))
    assert state.norm() == pytest.approx(tensor_norm, rel=1e-14)
    unit = state.normalized()
    assert isinstance(unit, BosonicState)
    assert unit.norm() == pytest.approx(1.0, rel=1e-14)


def test_bosonic_state_validation():
    g = Grid1D(8, 4.0)
    with pytest.raises(GridError, match="sorted 2-tuples"):
        BosonicState(g, 2, np.ones(64))
    with pytest.raises(GridError):
        BosonicState(g, 0, np.ones(1))
    with pytest.raises(GridError, match="zero state"):
        BosonicState(g, 2, np.zeros(36)).normalized()
    # a tensor off the grid is rejected before it is symmetrized
    with pytest.raises(GridError, match="do not match grid size"):
        symmetrize(g, np.ones((8, 4)))


def _psd_minus_rank_one(shape, side, width, seed):
    """(apply, v, dense D) for D = w A A^dagger - v v^dagger with unit Tr of
    w A A^dagger and unit v, the form of a chaos-distance operator: A is
    side x width, or v itself for the product state (D = 0)."""
    rng = np.random.default_rng(seed)

    def draw(*size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    v = draw(side)
    v /= np.linalg.norm(v)
    a = v[:, None].copy() if shape == "product" else draw(side, width)
    w = 1.0 / np.linalg.norm(a) ** 2

    def apply(x):
        return w * (a @ (a.conj().T @ x)) - v * np.vdot(v, x)

    return apply, v, w * (a @ a.conj().T) - np.outer(v, v.conj())


# (shape, side, columns): a tall factor has more rows than columns + 1
LANCZOS_CASES = st.one_of(
    st.tuples(st.just("product"), st.integers(1, 40), st.just(1)),
    st.tuples(st.just("rank_one"), st.integers(2, 40), st.just(1)),
    st.integers(4, 40).flatmap(lambda m: st.tuples(
        st.just("tall"), st.just(m), st.integers(1, m - 2))),
    st.integers(2, 30).flatmap(lambda m: st.tuples(
        st.just("wide"), st.just(m), st.integers(m, 2 * m))),
)


@settings(max_examples=60, deadline=None)
@given(case=LANCZOS_CASES, seed=st.integers(0, 2 ** 16))
def test_lanczos_min_matches_eigvalsh_on_psd_minus_rank_one(case, seed):
    apply, v, dense = _psd_minus_rank_one(*case, seed)
    ref = np.linalg.eigvalsh(dense)[0]
    # Tr (w A A^dagger) + |v|^2 = 2 bounds the operator norm
    assert lanczos_min(apply, v, 2.0) == pytest.approx(ref, abs=1e-13)


def test_lanczos_min_stops_at_breakdown_without_warnings():
    # D = 0 breaks down in the first step, a rank-one gamma in the second,
    # and neither may divide by a vanishing beta
    for shape in ("product", "rank_one"):
        apply, v, dense = _psd_minus_rank_one(shape, 12, 1, seed=3)
        calls = []

        def counted(x):
            calls.append(1)
            return apply(x)

        assert lanczos_min(counted, v, 2.0) == pytest.approx(
            np.linalg.eigvalsh(dense)[0], abs=1e-14)
        assert len(calls) == (1 if shape == "product" else 2)


def _counted_diagonal(values):
    calls = []

    def apply(x):
        calls.append(1)
        return values * x

    return apply, calls


@settings(max_examples=30, deadline=None)
@given(size=st.integers(100, 300), seed=st.integers(0, 2 ** 16))
def test_lanczos_min_on_a_wide_spectrum(size, seed):
    # distinct values on [-1, 1] spaced 1/size or more, shuffled: the
    # smallest needs many more steps than the first _RITZ_EVERY
    rng = np.random.default_rng(seed)
    spacing = 2.0 / size
    values = rng.permutation(np.linspace(-1.0, 1.0, size)
                             + rng.uniform(-0.25, 0.25, size) * spacing)
    apply, calls = _counted_diagonal(values)
    start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    ref = np.linalg.eigvalsh(np.diag(values))[0]
    assert lanczos_min(apply, start, 1.5) == pytest.approx(ref, abs=1e-13)
    assert len(calls) > 2 * grid_module._RITZ_EVERY


def test_lanczos_min_tests_the_last_allowed_step(monkeypatch):
    # an isolated bottom value converges at step 21 (tested every step);
    # caps of 20 and 21 are off the every-_RITZ_EVERY schedule, so only
    # the last-step test makes the cap of 20 raise and that of 21 return
    values = np.concatenate(([-1.0], np.linspace(0.0, 1.0, 100)))
    monkeypatch.setattr(grid_module, "LANCZOS_MAX_ITER", 20)
    apply, calls = _counted_diagonal(values)
    with pytest.raises(ConvergenceError, match="in 20 steps"):
        lanczos_min(apply, np.ones(101), 2.0)
    assert len(calls) == 20
    monkeypatch.setattr(grid_module, "LANCZOS_MAX_ITER", 21)
    apply, calls = _counted_diagonal(values)
    assert lanczos_min(apply, np.ones(101), 2.0) == pytest.approx(-1.0,
                                                                  abs=1e-14)
    assert len(calls) == 21


def test_lanczos_min_stops_at_an_unscheduled_breakdown():
    # 20 Chebyshev nodes: the Krylov space of the all-ones start is the
    # whole space, so beta vanishes at step 20, between two scheduled
    # Ritz tests, and the loop must stop there, not divide by it
    values = np.cos(np.pi * (np.arange(20) + 0.5) / 20)
    apply, calls = _counted_diagonal(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = lanczos_min(apply, np.ones(20), 1.0)
    assert lam == pytest.approx(values.min(), abs=1e-14)
    assert len(calls) == 20


def test_lanczos_min_overshoots_a_ghost_by_at_most_its_schedule():
    # tested every step, the isolated -1 converges at step 21; without
    # reorthogonalization a ghost copy of it makes the scheduled tests at
    # 32 miss (two Ritz values at -1, residuals 2e-10 and 2e-6), and the
    # loop stops at the next one, 48
    values = np.concatenate(([-1.0], np.linspace(0.0, 1.0, 100)))
    apply, calls = _counted_diagonal(values)
    assert lanczos_min(apply, np.ones(101), 2.0) == pytest.approx(-1.0,
                                                                  abs=1e-14)
    assert len(calls) <= 48


def test_lanczos_min_raises_instead_of_returning_unconverged(monkeypatch):
    apply, v, _ = _psd_minus_rank_one("tall", 30, 10, seed=5)
    monkeypatch.setattr(grid_module, "LANCZOS_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="2 steps"):
        lanczos_min(apply, v, 2.0)
    with pytest.raises(ConvergenceError, match="nan"):
        lanczos_min(lambda x: np.full_like(x, np.nan), v, 2.0)
