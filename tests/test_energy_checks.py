"""Operator inequalities: decomposition, positivity, moments, smoothing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boselab.cli import DEFAULTS
from boselab import energy_checks
from boselab.grid import Grid1D, GridError, random_state, weighted_norm_squared
from boselab.nbody import NBodySystem
from boselab.potentials import PotentialSpec, gaussian_well, mixed_sign
from boselab.energy_checks import (
    check_K_inequality,
    check_decomposition_identity,
    check_energy_estimate,
    check_pair_positivity,
    check_sobolev_operator_bound,
)
from oracles import dense_pair_block, dense_sobolev_sigma, energy_moment

GAUSSIAN = gaussian_well(1.0, 1.0)
MIXED = mixed_sign(1.0, 1.0, r=0.25)


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("spec", [GAUSSIAN, MIXED], ids=["gaussian", "mixed"])
def test_decomposition_identity(n_particles, spec):
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, n_particles, potential=spec, omega=1.0)
    state = random_state(g, n_particles, seed=0, k_filter=3.0)
    assert check_decomposition_identity(system, state) < 1e-10


@settings(max_examples=40, deadline=None)
@given(nn=st.sampled_from([2, 3]), n=st.sampled_from([8, 16]),
       omega=st.floats(0.0, 1.5),
       key=st.sampled_from(["potential", "control_potential"]),
       seed=st.integers(0, 2 ** 16))
def test_decomposition_identity_property(nn, n, omega, key, seed):
    # the energy suite's two default pair potentials, any trap in range
    g = Grid1D(n, 8.0)
    spec = PotentialSpec(**DEFAULTS["energy_suite"][key])
    system = NBodySystem(g, nn, potential=spec, omega=omega)
    state = random_state(g, nn, seed=seed)
    assert check_decomposition_identity(system, state) <= 1e-10


def test_decomposition_identity_validation():
    g = Grid1D(16, 8.0)
    with pytest.raises(GridError, match="two particles"):
        check_decomposition_identity(NBodySystem(g, 1, potential=GAUSSIAN),
                                     random_state(g, 1, seed=0))


def test_decomposition_identity_rejects_a_foreign_state():
    # the L = 4 state used to give a defect of 2.57 with no error
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, 2, potential=GAUSSIAN)
    assert check_decomposition_identity(
        system, random_state(g, 2, seed=0)) < 1e-12
    for state, match in ((random_state(Grid1D(16, 4.0), 2, seed=0), "grid"),
                         (random_state(g, 3, seed=0),
                          "particle number")):
        with pytest.raises(GridError, match=match):
            check_decomposition_identity(system, state)


def test_pair_positivity_reference_values():
    g = Grid1D(32, 8.0)
    res = check_pair_positivity(GAUSSIAN, 2, 0.0, g)
    assert res["passes"]
    assert res["min_eigenvalue"] == pytest.approx(7.077748045998678,
                                                  rel=1e-10)
    res_m = check_pair_positivity(MIXED, 2, 1.0, g)
    assert res_m["passes"]
    assert res_m["min_eigenvalue"] == pytest.approx(2.606776689509477,
                                                    rel=1e-10)


def test_pair_positivity_at_the_largest_admitted_grid():
    # n = 256 is the energy envelope's largest pair side; at length 4 and
    # omega = 0 its Lanczos takes 1072 steps, within LANCZOS_MAX_ITER.
    # The reference is ARPACK's (eigsh, tol=0) on the same operator.
    res = check_pair_positivity(GAUSSIAN, 2, 0.0, Grid1D(256, 4.0))
    assert res["min_eigenvalue"] == pytest.approx(7.078314465147352,
                                                  rel=1e-12)


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("alpha_scale", [1.0, 0.0])
def test_pair_positivity_matches_dense_oracle(omega, alpha_scale):
    # a deep well, so that without alpha the pair binds below zero; the
    # shift 2 alpha scales the identity, so the block at alpha_scale * alpha
    # has the reported minimum less 2 alpha (1 - alpha_scale)
    g = Grid1D(32, 8.0)
    deep = gaussian_well(4.0, 1.0)
    res = check_pair_positivity(deep, 2, omega, g)
    assert set(res) == {"min_eigenvalue", "alpha", "passes"}
    assert res["alpha"] == deep.alpha()
    lam = res["min_eigenvalue"] - 2.0 * res["alpha"] * (1.0 - alpha_scale)
    ref = np.linalg.eigvalsh(dense_pair_block(deep, 2, omega, g,
                                              alpha_scale=alpha_scale))[0]
    assert lam == pytest.approx(ref, rel=1e-10)
    assert res["passes"]
    assert (lam >= -1e-6) == (alpha_scale == 1.0)
    again = check_pair_positivity(deep, 2, omega, g)
    assert again["min_eigenvalue"] == res["min_eigenvalue"]


def test_pair_block_matches_brute_force():
    # reassemble the block from elementary kron pieces as a cross-check
    g = Grid1D(8, 4.0)
    from boselab.grid import dense_weight_squared
    from boselab.potentials import scaled_potential

    n, spec, omega = g.n, GAUSSIAN, 1.0
    s2 = dense_weight_squared(g, "S", omega)
    eye = np.eye(n)
    diff = g.x[:, None] - g.x[None, :]
    vpair = scaled_potential(spec, 2, diff)
    ref = (0.5 * (np.kron(s2, eye) + np.kron(eye, s2))
           + np.diag((0.5 * vpair).ravel())
           + 2.0 * spec.alpha() * np.eye(n * n))
    got = dense_pair_block(spec, 2, omega, g)
    assert np.max(np.abs(got - ref.real)) < 1e-12


def test_K_inequality_and_negative_control():
    g = Grid1D(64, 8.0)
    deep = gaussian_well(6.0, 1.0)
    res = check_K_inequality(deep, 2, g)
    assert res["passes"]
    assert res["min_eigenvalue"] == pytest.approx(223.63606539897128,
                                                  rel=1e-10)
    # substituting the constant of a much weaker potential lets the deep
    # well bind below zero: the constant is not slack.  2 alpha scales
    # the identity, so the swap shifts the minimum by 2 (weak - alpha)
    weak_alpha = gaussian_well(0.3, 1.0).alpha()
    ctrl = res["min_eigenvalue"] - 2.0 * res["alpha"] + 2.0 * weak_alpha
    assert ctrl < -1e-6
    assert ctrl == pytest.approx(-1.9931189818478061, rel=1e-8)


@pytest.mark.parametrize("n_particles", [2, 3])
def test_energy_estimate_first_moment(n_particles):
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, n_particles, potential=GAUSSIAN, omega=1.0)
    states = [random_state(g, n_particles, seed=seed, k_filter=3.0)
              for seed in range(10)]
    for res in check_energy_estimate(system, states, 1):
        assert res["margin"] >= -1e-8
        assert res["lhs"] >= res["rhs"] - 1e-8


def test_energy_estimate_second_moment_reported():
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, 3, potential=GAUSSIAN, omega=1.0)
    state = random_state(g, 3, seed=0, k_filter=3.0)
    [res] = check_energy_estimate(system, [state], 2)
    assert sorted(res) == ["lhs", "margin", "rhs"]
    assert math.isfinite(res["margin"])
    assert res["lhs"] == pytest.approx(2726.8496021873807, rel=1e-8)


@pytest.mark.parametrize("n_particles,k", [(2, 1), (3, 1), (3, 2)])
def test_energy_estimate_lhs_is_the_shifted_moment(n_particles, k):
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, n_particles, potential=GAUSSIAN, omega=1.0)
    state = random_state(g, n_particles, seed=4, k_filter=3.0)
    shift = n_particles * (1.0 + GAUSSIAN.alpha())
    [res] = check_energy_estimate(system, [state], k)
    lhs = res["lhs"]
    assert lhs == energy_moment(system, state, k, shift=shift)
    # <(H + s)^k> = sum_j C(k, j) s^(k-j) <H^j>, with <H^0> = ||psi||^2
    moments = [state.norm() ** 2] + [energy_moment(system, state, j)
                                     for j in range(1, k + 1)]
    expansion = sum(math.comb(k, j) * shift ** (k - j) * moments[j]
                    for j in range(k + 1))
    assert lhs == pytest.approx(expansion, rel=1e-12)


_WEIGHTED_NORM_RUN = """
from boselab.cli import DEFAULTS
from boselab.energy_checks import check_energy_estimate
from boselab.grid import Grid1D, random_state
from boselab.nbody import NBodySystem
from boselab.potentials import PotentialSpec
cfg = DEFAULTS["energy_suite"]
g = Grid1D(16, cfg["length"])
system = NBodySystem(g, 4, potential=PotentialSpec(**cfg["potential"]),
                     omega=1.0)
state = random_state(g, 4, seed=5, k_filter=4.0)
print(check_energy_estimate(system, [state], 1)[0]["rhs"].hex())
"""


def test_energy_estimate_rhs_is_bit_identical_across_blas_threads():
    # the weighted norm was a BLAS dot over the 16^4 tensor, and this
    # draw's rhs read 0x1.a59e9f749bbb3p+4 at one OpenBLAS thread and
    # 0x1.a59e9f749bbb7p+4 at two; the power sum on the sector reads
    # 0x1.a59e9f749bba4p+4 at both
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    values = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _WEIGHTED_NORM_RUN],
                             env=env, capture_output=True, text=True,
                             check=True)
        values.append(out.stdout.strip())
    assert values[0].startswith("0x1.a59e9f749bba")
    assert values[0] == values[1]


def test_energy_estimate_validation():
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, 2, potential=GAUSSIAN)
    state = random_state(g, 2, seed=0)
    with pytest.raises(GridError):
        check_energy_estimate(system, [state], 3)
    with pytest.raises(GridError, match="k < N"):
        check_energy_estimate(system, [state], 2)
    # every state passes the guard of the N-body routes
    for foreign, match in ((random_state(Grid1D(16, 4.0), 2, seed=0), "grid"),
                           (state.amplitudes, "BosonicState")):
        with pytest.raises(GridError, match=match):
            check_energy_estimate(system, [state, foreign], 1)


@pytest.mark.parametrize("n_particles,k", [(2, 1), (3, 1), (3, 2), (4, 1),
                                           (4, 2)])
def test_energy_estimate_rhs_is_the_tensor_weighted_norm(n_particles, k):
    # the power sums on the sector against ||S_1..S_k psi||^2 by FFTs on
    # the n^N tensor (grid.weighted_norm_squared), the former right side
    cfg = DEFAULTS["energy_suite"]
    g = Grid1D(16, cfg["length"])
    system = NBodySystem(g, n_particles,
                         potential=PotentialSpec(**cfg["potential"]),
                         omega=1.0)
    states = [random_state(g, n_particles, seed=seed, k_filter=4.0)
              for seed in range(4)]
    for state, res in zip(states, check_energy_estimate(system, states, k),
                          strict=True):
        want = n_particles ** k * weighted_norm_squared(
            g, state.amplitudes, list(range(k)), "S", 1.0) / 2.0 ** k
        assert res["rhs"] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k,sums", [(1, 1), (2, 2)])
def test_energy_estimate_builds_its_operators_once(monkeypatch, k, sums):
    # one H_N and one power sum per order, whatever the number of states;
    # each state's result is the one it gets alone
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, 3, potential=GAUSSIAN, omega=1.0)
    states = [random_state(g, 3, seed=seed, k_filter=3.0)
              for seed in range(5)]
    alone = [check_energy_estimate(system, [s], k)[0] for s in states]
    builds = []

    def counted(name, build):
        def run(*args):
            builds.append(name)
            return build(*args)
        return run

    for name in ("hamiltonian", "one_body_sum"):
        monkeypatch.setattr(energy_checks, name,
                            counted(name, getattr(energy_checks, name)))
    results = check_energy_estimate(system, states, k)
    assert sorted(builds) == ["hamiltonian"] + ["one_body_sum"] * sums
    assert results == alone


def test_sobolev_operator_bound_dual_route():
    g = Grid1D(32, 8.0)
    expected = {"gaussian_well": 0.3548859708603252,
                "mixed_sign": 0.06588138092660197}
    for spec in (GAUSSIAN, MIXED):
        # the matrix-free FFT route against the dense Kronecker matrix
        it = check_sobolev_operator_bound(spec, g)
        assert it["passes"]
        assert it["sigma_max"] == pytest.approx(dense_sobolev_sigma(spec, g),
                                                abs=1e-10)
        assert it["sigma_max"] == pytest.approx(expected[spec.shape],
                                                rel=1e-8)
        assert it["sigma_max"] <= it["bound"] + 1e-4


def test_sobolev_operator_bound_reruns_bit_identical():
    g = Grid1D(32, 8.0)
    first = check_sobolev_operator_bound(GAUSSIAN, g)
    second = check_sobolev_operator_bound(GAUSSIAN, g)
    assert first["sigma_max"] == second["sigma_max"]
