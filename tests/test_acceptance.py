"""End-to-end acceptance checks.

One test per headline guarantee, each with a wall-clock budget.  Run with
``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line per
criterion.

Every criterion but 06 calls the CLI check functions behind its
statement (``boselab.cli``) on the default config of its experiment, so
its inputs and thresholds are defined once, in the CLI.  Criterion 06
has no CLI counterpart yet and carries its own tolerances, on its own
trapped N = 3 run of the exact flow.
"""

import contextlib
import math
import time

from boselab import cli
from boselab.grid import Grid1D, random_state
from boselab.nbody import NBodySystem, propagate
from boselab.potentials import gaussian_well
from oracles import energy_drift, symmetry_residual


@contextlib.contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds {seconds}s"


def run_checks(tmp_path, experiment, seconds, *functions):
    """Run CLI check functions on the experiment's default config.

    Only the functions are timed.  Every asserted check must pass and
    every reported value must be finite; returns the check dicts.
    """
    cfg = cli.validate_config({"experiment": experiment})
    report_hash = cli.config_hash(cfg)
    with budget(seconds):
        checks = [check for run in functions
                  for check in run(cfg, tmp_path, report_hash)]
    assert checks
    for check in checks:
        if check["passed"] is None:
            values = check.get("values", [check.get("value")])
            assert all(math.isfinite(v) for v in values), check
        else:
            assert check["passed"], check
    return checks


def test_criterion_01_decomposition_identity(tmp_path):
    # matrix-free two-body decomposition defect for both potentials and
    # N in {2, 3, 4}
    run_checks(tmp_path, "energy_suite", 10.0, cli.energy_decomposition)


def test_criterion_02_pair_operator_positivity(tmp_path):
    # two-particle block stays nonnegative with and without a trap
    run_checks(tmp_path, "energy_suite", 30.0, cli.energy_pair_positivity)


def test_criterion_03_energy_moment_bounds(tmp_path):
    # first-moment margin nonnegative on random symmetric draws;
    # second-moment margin reported without assertion
    checks = run_checks(tmp_path, "energy_suite", 120.0, cli.energy_estimate)
    assert "energy_estimate_k2_margin" in [c["name"] for c in checks]


def test_criterion_04_pair_smoothing_bound(tmp_path):
    # weighted pair interaction is operator-bounded by the L1 norm
    run_checks(tmp_path, "energy_suite", 30.0, cli.energy_smoothing)


def test_criterion_05_lens_transform_suite(tmp_path):
    # identity at zero frequency, unitarity, trace norm and round trip of
    # the kernel map, and the intertwining defect under the adopted
    # half-kinetic convention with the wrong convention as a control
    run_checks(tmp_path, "lens_suite", 60.0, cli.run_lens)


def test_criterion_06_solver_invariants():
    # norm, exchange symmetry, and energy of the exact flow to t = 1,
    # stored every 0.1
    with budget(120.0):
        grid = Grid1D(32, 8.0)
        system = NBodySystem(grid, 3, potential=gaussian_well(1.0, 1.0),
                             omega=1.0)
        psi0 = random_state(grid, 3, seed=2, k_filter=2.0)
        traj = propagate(system, psi0, [0.1 * i for i in range(11)])
        assert traj.norm_drift <= 1e-10
        assert energy_drift(traj) <= 1e-6
        assert all(symmetry_residual(s.amplitudes) <= 1e-9
                   for s in traj.states)


def test_criterion_07_bbgky_second_order_residual(tmp_path):
    # hierarchy residual for the one-particle kernel decays at order two
    run_checks(tmp_path, "bbgky_residual", 180.0, cli.run_bbgky)


def test_criterion_08_mean_field_convergence_trend(tmp_path):
    # trace distance to the factorized mean-field evolution shrinks with N
    run_checks(tmp_path, "convergence", 900.0, cli.convergence_mean_field)


def test_criterion_09_collapsing_estimate_positive_side(tmp_path):
    # the dual integral has a finite sup, stable under node doubling, and
    # the modulation family's operator ratios stay flat across lambda
    run_checks(tmp_path, "collapse_suite", 300.0, cli.collapse_sup_I,
               cli.collapse_modulation)


def test_criterion_10_collapsing_estimate_optimality(tmp_path):
    # removing the window or the weight exponent brings back a logarithmic
    # divergence; keeping both leaves the cutoff scan flat.  The static
    # trace bound, by contrast, needs more than half a derivative.
    run_checks(tmp_path, "collapse_suite", 120.0, cli.collapse_optimality,
               cli.collapse_trace_lemma)


def test_criterion_11_shifted_weight_uniformity(tmp_path):
    # the shift integral stays finite and uniform once the |e|^{-4 eps}
    # scaling step is divided out
    run_checks(tmp_path, "collapse_suite", 60.0, cli.collapse_lemma_F)


def test_criterion_12_spectral_cutoff_moments(tmp_path):
    # cutoff states satisfy the moment bound exactly; the cutoff error
    # shrinks at least like kappa^0.4
    run_checks(tmp_path, "energy_suite", 60.0, cli.energy_spectral_cutoff)


def test_criterion_13_mollifier_exponent(tmp_path):
    # pair observables mollified at width alpha converge to the contact
    # value at rate better than alpha^0.4
    run_checks(tmp_path, "bbgky_residual", 60.0, cli.bbgky_mollifier_delta)
