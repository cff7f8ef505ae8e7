"""Experiment runner: configuration, suites, and machine-readable output.

Subcommands map one-to-one onto the experiment kinds:

    convergence    mean-field convergence of reduced densities (headline)
    energy         operator-inequality suite (decomposition, positivity,
                   energy estimate, smoothing bound)
    collapse       collapsing-estimate suite (dual integrals, operator
                   families, optimality scans, uniform F bound)
    lens           harmonic lens transform suite
    bbgky          hierarchy residual order check
    nls-validate   one-particle solver validation

Configs are JSON validated against CONFIG_SCHEMA; every output file
embeds the config hash, the sign/direction conventions, and the package
version, and identical config + seed gives byte-identical outputs.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 config
error, 3 numerical abort during propagation.

Flags may also come from environment variables with the BOSELAB_ prefix
(BOSELAB_CONFIG, BOSELAB_OUT, BOSELAB_SEED, BOSELAB_THREADS); explicit
flags win.  --threads pins the BLAS/OpenMP pool sizes and must be set
before heavy imports, which is why the numerical modules are imported
lazily inside the runners.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

__all__ = [
    "CONFIG_SCHEMA", "ConfigError", "EXPERIMENTS", "DEFAULTS",
    "config_hash", "validate_config", "merge_defaults",
    "run_experiment", "main",
    "EXIT_PASS", "EXIT_CHECK_FAILURE", "EXIT_CONFIG_ERROR",
    "EXIT_NUMERICAL_ABORT",
]

from . import __version__ as PACKAGE_VERSION

ENV_PREFIX = "BOSELAB_"

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3

EXPERIMENTS = ("convergence", "energy_suite", "collapse_suite",
               "lens_suite", "bbgky_residual", "nls_validate")

_POTENTIAL_SCHEMA = {
    "type": "object",
    "required": ["shape", "a", "s"],
    "additionalProperties": False,
    "properties": {
        "shape": {"enum": ["gaussian_well", "mixed_sign"]},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "s": {"type": "number", "exclusiveMinimum": 0},
        "r": {"type": "number"},
        "beta": {"type": "number", "exclusiveMinimum": 0,
                 "exclusiveMaximum": 1},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "experiment configuration",
    "type": "object",
    "required": ["experiment"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "n": {"type": "integer", "minimum": 2},
        "length": {"type": "number", "exclusiveMinimum": 0},
        "n_particles": {"type": "array", "minItems": 1,
                        "items": {"type": "integer", "minimum": 1}},
        "omega": {"type": "number", "minimum": 0},
        "omegas": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "minimum": 0}},
        "potential": _POTENTIAL_SCHEMA,
        "control_potential": _POTENTIAL_SCHEMA,
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "t_run": {"type": "number", "exclusiveMinimum": 0},
        "times": {"type": "array", "minItems": 1,
                  "items": {"type": "number", "minimum": 0}},
        "epsilon": {"type": "number", "minimum": 0, "maximum": 0.25},
        "epsilons": {"type": "array", "minItems": 1,
                     "items": {"type": "number", "minimum": 0,
                               "maximum": 0.25}},
        "alphas": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "kappas": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "deltas": {"type": "array", "minItems": 2,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "lambdas": {"type": "array", "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0}},
        "grid_step": {"type": "number", "exclusiveMinimum": 0},
        "grid_extent": {"type": "number", "exclusiveMinimum": 0},
        "draws": {"type": "integer", "minimum": 1},
        "store_every": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
    },
}

_GAUSSIAN = {"shape": "gaussian_well", "a": 1.0, "s": 1.0, "r": 0.0}
_MIXED_NEUTRAL = {"shape": "mixed_sign", "a": 1.0, "s": 1.0, "r": 0.5}

DEFAULTS = {
    "convergence": {
        "n": 32, "length": 8.0, "n_particles": [2, 3, 4], "omega": 0.0,
        "potential": dict(_GAUSSIAN, beta=0.3),
        "control_potential": dict(_MIXED_NEUTRAL, beta=0.3),
        "dt": 2e-3, "times": [0.0, 0.25, 0.5], "seed": 0,
    },
    "energy_suite": {
        "n": 64, "length": 8.0, "n_particles": [2, 3], "omegas": [0.0, 1.0],
        "potential": dict(_GAUSSIAN, beta=0.5),
        "control_potential": dict(_MIXED_NEUTRAL, beta=0.5),
        "draws": 100, "seed": 0,
    },
    "collapse_suite": {
        "epsilon": 0.25, "epsilons": [0.25, 0.1, 0.05],
        "deltas": [1e-2, 1e-3, 1e-4, 1e-5],
        "lambdas": [4.0, 16.0, 64.0],
        "grid_step": 5.0, "grid_extent": 50.0, "seed": 0,
    },
    "lens_suite": {
        "n": 256, "length": 12.0, "omega": 1.0, "t_run": 0.4,
        "dt": 2e-4, "seed": 0,
    },
    "bbgky_residual": {
        "n": 16, "length": 8.0, "n_particles": [3], "omega": 0.0,
        "potential": dict(_GAUSSIAN, beta=0.5),
        "dt": 2e-3, "t_run": 0.2, "store_every": 5, "seed": 0,
    },
    "nls_validate": {
        "n": 256, "length": 16.0, "omega": 1.0, "dt": 1e-3,
        "t_run": 0.5, "seed": 0,
    },
}


class ConfigError(ValueError):
    """Configuration failed schema or module-precondition validation."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def merge_defaults(cfg: dict) -> dict:
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown kind {kind!r}")
    merged = dict(DEFAULTS[kind])
    merged.update(cfg)
    return merged


def validate_config(cfg: dict) -> dict:
    """Schema validation plus the module preconditions; returns merged."""
    import jsonschema

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {err.message}") from None
    merged = merge_defaults(cfg)
    n = merged.get("n")
    if n is not None and (n & (n - 1)) != 0:
        raise ConfigError(f"n: {n} is not a power of two")
    for key in ("potential", "control_potential"):
        pot = merged.get(key)
        if pot is None:
            continue
        if pot["shape"] == "mixed_sign" and pot.get("r", 0.0) > 0.5:
            raise ConfigError(f"{key}/r: mixed_sign needs r <= 1/2 "
                              "(nonpositive integral)")
    if merged["experiment"] in ("convergence", "bbgky_residual"):
        for nn in merged["n_particles"]:
            if not (nn <= 5 and n <= 16) and not (nn <= 4 and n <= 32):
                raise ConfigError(
                    f"n_particles: N={nn} with n={n} exceeds the desk-scale "
                    "envelope (N <= 5 with n <= 16, or N <= 4 with n <= 32)")
    dt = merged.get("dt")
    if dt is not None:
        from .potentials import PotentialError, PotentialSpec

        n_max = max(merged.get("n_particles", [1]))
        for key in ("potential", "control_potential"):
            spec = merged.get(key)
            if spec is None:
                continue
            try:
                budget = PotentialSpec(**spec).phase_rate(n_max) * dt
            except PotentialError as err:
                raise ConfigError(f"{key}: {err}") from None
            if budget > 0.1:
                raise ConfigError(
                    f"{key}: dt {dt} violates the splitting stability budget "
                    f"N^beta * |V|_inf * dt <= 0.1 (got {budget:.3g})")
    return merged


# ----------------------------------------------------------------------
# deterministic output helpers


def _fmt(x) -> str:
    if isinstance(x, (bool, int, str)):
        return str(x)
    return f"{float(x):.16e}"


def _meta_lines(report_hash: str) -> list[str]:
    from .containers import CONVENTIONS

    lines = [f"# config_hash={report_hash}",
             f"# version={PACKAGE_VERSION}"]
    for key, val in sorted(CONVENTIONS.items()):
        lines.append(f"# {key}={val}")
    return lines


def write_csv(path: Path, columns: list[str], rows, report_hash: str) -> None:
    lines = _meta_lines(report_hash)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _product_state(grid, phi, n_particles):
    from functools import reduce

    import numpy as np

    from .grid import TensorState

    amps = reduce(np.multiply.outer, [phi] * n_particles)
    return TensorState(grid, amps).normalized()


def _gaussian_orbital(grid):
    import numpy as np

    phi = np.exp(-grid.x ** 2 / 2).astype(np.complex128)
    return phi / math.sqrt(grid.h * float(np.sum(np.abs(phi) ** 2)))


# ----------------------------------------------------------------------
# runners


def run_convergence(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Mean-field convergence of the k-particle reduced densities.

    Factorized initial data evolves under the N-body flow; the reference
    orbital evolves under the focusing cubic equation with the matched
    coupling b0.  The trace distance to the k-fold product is tabulated
    over time and particle number for k = 1, 2, for the attractive well
    and for the zero-mean control (where the mean field vanishes).
    """
    import numpy as np

    from .grid import Grid1D
    from .marginals import chaos_distance
    from .nbody import NBodySystem, evolve
    from .nls import NLSProblem, evolve_nls
    from .potentials import PotentialSpec

    grid = Grid1D(cfg["n"], cfg["length"])
    phi0 = _gaussian_orbital(grid)
    times = cfg["times"]
    dt = cfg["dt"]
    if len(times) < 2 or abs(times[0]) > 1e-15:
        raise ConfigError("times: need t = 0 plus at least one output time")
    spacing = times[1] - times[0]
    stride = int(round(spacing / dt))
    uniform = all(abs(times[i + 1] - times[i] - spacing) < 1e-12
                  for i in range(len(times) - 1))
    if not uniform or stride < 1 or abs(stride * dt - spacing) > 1e-12:
        raise ConfigError("times: must be uniformly spaced multiples of dt "
                          "starting at 0")
    n_steps = stride * (len(times) - 1)

    checks = []
    for tag, key in (("mean_field", "potential"), ("control",
                                                   "control_potential")):
        spec = cfg.get(key)
        if spec is None:
            continue
        pot = PotentialSpec(**spec)
        problem = NLSProblem(grid, b0=pot.b0(), omega=cfg["omega"])
        nls = evolve_nls(problem, phi0, dt, n_steps, store_every=stride)
        tables = {k: [] for k in (1, 2)}
        for nn in cfg["n_particles"]:
            system = NBodySystem(grid, nn, potential=pot, omega=cfg["omega"])
            traj = evolve(system, _product_state(grid, phi0, nn), dt,
                          n_steps, store_every=stride)
            for k in (1, 2):
                col = [chaos_distance(traj.states[i], k, nls.fields[i])
                       for i in range(len(times))]
                tables[k].append(col)
        for k in (1, 2):
            cols = ["t"] + [f"N={nn}" for nn in cfg["n_particles"]]
            rows = [[times[i]] + [tables[k][j][i]
                                  for j in range(len(cfg["n_particles"]))]
                    for i in range(len(times))]
            write_csv(out / f"chaos_distance_{tag}_k{k}.csv", cols, rows,
                      report_hash)
        t0_max = max(tables[k][j][0] for k in (1, 2)
                     for j in range(len(cfg["n_particles"])))
        final_k1 = [tables[1][j][-1] for j in range(len(cfg["n_particles"]))]
        final_k2 = [tables[2][j][-1] for j in range(len(cfg["n_particles"]))]
        checks.append({"name": f"{tag}_t0_factorized", "value": t0_max,
                       "passed": bool(t0_max <= 1e-12)})
        if tag == "mean_field":
            decreasing = all(final_k1[i + 1] < final_k1[i]
                             for i in range(len(final_k1) - 1))
            checks.append({"name": "mean_field_k1_decreasing_in_N",
                           "values": final_k1, "passed": bool(decreasing)})
            checks.append({"name": "mean_field_k2_final",
                           "values": final_k2, "passed": None})
        else:
            spread = max(final_k1) / max(min(final_k1), 1e-300)
            checks.append({"name": "control_small_and_stable",
                           "values": final_k1,
                           "passed": bool(max(final_k1) <= 0.1
                                          and spread <= 2.0)})
    return checks


def run_energy(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Operator-inequality suite at desk scale."""
    import numpy as np

    from .energy_checks import (check_K_inequality, check_decomposition_identity,
                                check_energy_estimate, check_pair_positivity,
                                check_sobolev_operator_bound)
    from .grid import Grid1D, random_state
    from .nbody import NBodySystem
    from .potentials import PotentialSpec

    pot = PotentialSpec(**cfg["potential"])
    control = PotentialSpec(**cfg["control_potential"])
    seed = cfg["seed"]
    checks = []

    small = Grid1D(16, cfg["length"])
    worst = 0.0
    for nn in (2, 3, 4):
        system = NBodySystem(small, nn, potential=pot, omega=1.0)
        state = random_state(small, nn, omega=1.0, seed=seed + nn,
                             symmetric=True)
        worst = max(worst, check_decomposition_identity(system, state))
    checks.append({"name": "decomposition_identity_defect", "value": worst,
                   "passed": bool(worst <= 1e-10)})

    pair_grid = Grid1D(cfg["n"], cfg["length"])
    rows = []
    pair_ok = True
    for omega in cfg["omegas"]:
        res = check_pair_positivity(pot, 2, omega, pair_grid)
        rows.append([omega, res["min_eigenvalue"], res["alpha"]])
        pair_ok = pair_ok and res["passes"]
    write_csv(out / "pair_positivity.csv",
              ["omega", "min_eigenvalue", "alpha"], rows, report_hash)
    checks.append({"name": "pair_positivity_min_eigenvalue",
                   "values": [r[1] for r in rows], "passed": bool(pair_ok)})

    kres = check_K_inequality(pot, 8, pair_grid)
    checks.append({"name": "K_inequality_min_eigenvalue",
                   "value": kres["min_eigenvalue"],
                   "passed": bool(kres["min_eigenvalue"] >= -1e-6)})

    est_grid = Grid1D(16, cfg["length"])
    margins = {1: [], 2: []}
    for nn in cfg["n_particles"]:
        system = NBodySystem(est_grid, nn, potential=pot, omega=1.0)
        for d in range(cfg["draws"]):
            state = random_state(est_grid, nn, omega=1.0,
                                 seed=seed + 1000 * nn + d, symmetric=True,
                                 k_filter=4.0)
            for k in (1, 2):
                if k < nn:
                    res = check_energy_estimate(system, state, k)
                    margins[k].append(res["margin"])
    write_csv(out / "energy_estimate_margins.csv",
              ["k", "min_margin", "n_draws"],
              [[k, min(v), len(v)] for k, v in margins.items() if v],
              report_hash)
    worst1 = min(margins[1])
    checks.append({"name": "energy_estimate_k1_margin", "value": worst1,
                   "passed": bool(worst1 >= -1e-8)})
    if margins[2]:
        checks.append({"name": "energy_estimate_k2_margin",
                       "value": min(margins[2]), "passed": None})

    sig_rows = []
    sig_ok = True
    for spec in (pot, control):
        res = check_sobolev_operator_bound(spec, Grid1D(32, cfg["length"]))
        sig_rows.append([spec.shape, res["sigma_max"], res["bound"]])
        sig_ok = sig_ok and res["passes"]
    write_csv(out / "smoothing_bound.csv", ["shape", "sigma_max", "l1_bound"],
              sig_rows, report_hash)
    checks.append({"name": "smoothing_bound", "passed": bool(sig_ok),
                   "values": [r[1] for r in sig_rows]})
    return checks


def run_collapse(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Collapsing-estimate suite: dual integrals, families, optimality."""
    import numpy as np

    from . import collapse as clp
    from .grid import Grid1D
    from .nbody import NumericalAbort

    def finite_I(p, eta, x1):
        val = clp.integral_I(p, eta, x1)["value"]
        if not math.isfinite(val):
            raise NumericalAbort(f"integral_I is {val} at (eta, xi1) = "
                                 f"({eta:g}, {x1:g}), refine {p.refine}")
        return val

    checks = []
    probe = clp.make_probe(cfg["epsilon"])
    step, extent = cfg["grid_step"], cfg["grid_extent"]
    etas = np.arange(-extent, extent + step / 2, step)
    xi1s = np.arange(0.0, extent + step / 2, step)
    sup, arg = -1.0, (0.0, 0.0)
    rows = []
    for eta in etas:
        for x1 in xi1s:
            val = finite_I(probe, float(eta), float(x1))
            rows.append([eta, x1, val])
            if val > sup:
                sup, arg = val, (float(eta), float(x1))
    write_csv(out / "integral_I.csv", ["eta", "xi1", "I"], rows, report_hash)
    refined = finite_I(probe.refined(), arg[0], arg[1])
    stability = abs(refined - sup) / abs(sup)
    checks.append({"name": "sup_integral_I", "value": sup,
                   "passed": bool(np.isfinite(sup))})
    checks.append({"name": "sup_I_node_doubling", "value": stability,
                   "passed": bool(stability <= 1e-3)})

    grid_m = Grid1D(512, 8.0)
    members = clp.make_modulation_family(grid_m, cfg["lambdas"])
    res = clp.direct_operator_test(grid_m, members, epsilon=cfg["epsilon"],
                                   t_window=2.0, n_tau=1025)
    ratios = [r["ratio"] for r in res]
    write_csv(out / "modulation_ratios.csv", ["label", "lhs", "rhs", "ratio"],
              [[r["label"], r["lhs"], r["rhs"], r["ratio"]] for r in res],
              report_hash)
    variation = max(ratios) / min(ratios)
    checks.append({"name": "modulation_ratio_variation", "value": variation,
                   "passed": bool(variation <= 2.0)})

    cr = clp.make_counter_rotating_family(grid_m, [64.0])
    stair = []
    for eps in cfg["epsilons"]:
        r = clp.direct_operator_test(grid_m, cr, epsilon=eps,
                                     t_window=0.1, n_tau=257)
        stair.append([eps, r[0]["ratio"]])
    write_csv(out / "concentration_staircase.csv", ["epsilon", "ratio"],
              stair, report_hash)
    grows = all(stair[i + 1][1] > stair[i][1] for i in range(len(stair) - 1))
    checks.append({"name": "concentration_ratio_grows_as_eps_drops",
                   "values": [s[1] for s in stair], "passed": bool(grows)})

    scan_rows = []
    for mode, eps in (("epsilon_zero", 0.0), ("T_infinite", cfg["epsilon"]),
                      ("control", cfg["epsilon"])):
        fit = clp.optimality_scan(clp.make_probe(eps), mode, cfg["deltas"])
        scan_rows.append([mode, eps, fit["slope"], fit["r_squared"]])
    write_csv(out / "optimality_scans.csv",
              ["mode", "epsilon", "slope", "r_squared"], scan_rows,
              report_hash)
    ok = (scan_rows[0][2] > 0 and scan_rows[0][3] >= 0.99
          and scan_rows[1][2] > 0 and scan_rows[1][3] >= 0.99
          and abs(scan_rows[2][2]) <= 0.1)
    checks.append({"name": "optimality_slopes",
                   "values": [r[2] for r in scan_rows], "passed": bool(ok)})

    fp = clp.make_probe(0.1)
    ref = clp.lemma_F_reference(fp)
    frows = []
    for e in (0.0, 1.0, -1.0, 10.0, -10.0, 1000.0, -1000.0):
        val = clp.lemma_F(fp, e)
        frows.append([e, val, val * max(1.0, abs(e)) ** 0.4])
    write_csv(out / "lemma_F.csv", ["e", "F", "F_compensated"], frows,
              report_hash)
    comp = [r[2] for r in frows]
    scaling_ok = all(r[1] <= abs(r[0]) ** (-0.4) * ref * 1.0001
                     for r in frows if abs(r[0]) >= 1.0)
    checks.append({"name": "lemma_F_uniformity",
                   "value": max(comp) / min(comp),
                   "passed": bool(max(comp) / min(comp) <= 5.0
                                  and scaling_ok)})
    return checks


def run_lens(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Lens-transform suite: identity, unitarity, intertwining."""
    import numpy as np

    from .grid import Grid1D, TensorState
    from .lens import (LensMap, intertwine_linear_check, lens_function,
                       lens_kernel, lens_kernel_inverse)
    from .marginals import MarginalDensity, trace_norm
    from .nls import trap_ground_state

    grid = Grid1D(cfg["n"], cfg["length"])
    phi0 = _gaussian_orbital(grid)
    checks = []

    flat, _ = lens_function(LensMap(0.0), TensorState(grid, phi0), 0.3)
    identity_err = float(np.max(np.abs(flat.amplitudes - phi0)))
    checks.append({"name": "omega_zero_identity", "value": identity_err,
                   "passed": bool(identity_err <= 1e-14)})

    lmap = LensMap(cfg["omega"])
    tau = cfg["t_run"]
    state = TensorState(grid, phi0, omega=cfg["omega"])
    image, t_img = lens_function(lmap, state, tau)
    unit_err = abs(image.norm() - state.norm())
    checks.append({"name": "unitarity", "value": unit_err,
                   "passed": bool(unit_err <= 1e-7)})

    kern = np.outer(phi0, np.conj(phi0))
    marg = MarginalDensity(grid, 1, kern, omega=cfg["omega"])
    lensed, t_k = lens_kernel(lmap, marg, tau)
    back, _ = lens_kernel_inverse(lmap, lensed, t_k)
    tn_err = abs(trace_norm(lensed) - trace_norm(marg))
    round_err = float(np.max(np.abs(back.kernel - kern)))
    checks.append({"name": "kernel_trace_norm_preserved", "value": tn_err,
                   "passed": bool(tn_err <= 1e-7)})
    checks.append({"name": "kernel_roundtrip", "value": round_err,
                   "passed": bool(round_err <= 1e-7)})

    gs, _ = trap_ground_state(grid, cfg["omega"])
    res = intertwine_linear_check(lmap, grid, gs, tau, dt=cfg["dt"])
    checks.append({"name": "intertwine_defect", "value": res["defect"],
                   "passed": bool(res["defect"] <= 1e-5)})
    checks.append({"name": "wrong_convention_control",
                   "value": res["defect_wrong_convention"],
                   "passed": bool(res["defect_wrong_convention"] >= 1e-1)})
    write_csv(out / "lens_checks.csv", ["check", "value"],
              [[c["name"], c["value"]] for c in checks], report_hash)
    return checks


def run_bbgky(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Hierarchy residual second-order decay under dt halving."""
    from .grid import Grid1D
    from .nbody import NBodySystem, bbgky_residual, evolve
    from .potentials import PotentialSpec

    grid = Grid1D(cfg["n"], cfg["length"])
    pot = PotentialSpec(**cfg["potential"])
    phi0 = _gaussian_orbital(grid)
    rows = []
    residuals = []
    for nn in cfg["n_particles"]:
        system = NBodySystem(grid, nn, potential=pot, omega=cfg["omega"])
        state = _product_state(grid, phi0, nn)
        per_n = []
        for dt in (cfg["dt"], cfg["dt"] / 2):
            n_steps = int(round(cfg["t_run"] / dt))
            traj = evolve(system, state, dt, n_steps,
                          store_every=cfg["store_every"])
            res = bbgky_residual(traj, k=1)
            per_n.append(res["hs_norm"])
            rows.append([nn, dt, res["hs_norm"], res["max_abs"]])
        residuals.append(per_n[0] / per_n[1])
    write_csv(out / "bbgky_residuals.csv",
              ["N", "dt", "hs_norm", "max_abs"], rows, report_hash)
    ok = all(3.5 <= r <= 4.5 for r in residuals)
    return [{"name": "bbgky_dt_halving_ratio", "values": residuals,
             "passed": bool(ok)}]


def run_nls_validate(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """One-particle solver validation: invariants and exact solutions."""
    import numpy as np

    from .grid import Grid1D
    from .nls import (NLSProblem, evolve_nls, nls_residual, soliton,
                      trap_ground_state)

    grid = Grid1D(cfg["n"], cfg["length"])
    checks = []

    b0 = 2.0
    prob = NLSProblem(grid, b0=b0, omega=0.0)
    psi0 = soliton(grid, b0, 0.0)
    n_steps = int(round(cfg["t_run"] / cfg["dt"]))
    traj = evolve_nls(prob, psi0, cfg["dt"], n_steps, store_every=n_steps)
    exact = soliton(grid, b0, traj.times[-1])
    sol_err = float(np.max(np.abs(traj.fields[-1] - exact)))
    checks.append({"name": "soliton_profile_error", "value": sol_err,
                   "passed": bool(sol_err <= 1e-6)})
    checks.append({"name": "mass_drift", "value": traj.max_mass_drift(),
                   "passed": bool(traj.max_mass_drift() <= 1e-12)})
    checks.append({"name": "energy_drift", "value": traj.max_energy_drift(),
                   "passed": bool(traj.max_energy_drift() <= 1e-8)})

    trap = NLSProblem(grid, b0=0.0, omega=cfg["omega"])
    gs, _ = trap_ground_state(grid, cfg["omega"])
    traj_gs = evolve_nls(trap, gs, cfg["dt"], n_steps, store_every=n_steps)
    dens_err = float(np.max(np.abs(np.abs(traj_gs.fields[-1]) ** 2
                                   - np.abs(gs) ** 2)))
    checks.append({"name": "ground_state_density_drift", "value": dens_err,
                   "passed": bool(dens_err <= 1e-7)})

    fine = evolve_nls(prob, psi0, cfg["dt"], n_steps, store_every=4)
    resid = nls_residual(fine)
    checks.append({"name": "pde_residual", "value": resid, "passed": None})
    write_csv(out / "nls_checks.csv", ["check", "value"],
              [[c["name"], c["value"]] for c in checks], report_hash)
    return checks


_RUNNERS = {
    "convergence": run_convergence,
    "energy_suite": run_energy,
    "collapse_suite": run_collapse,
    "lens_suite": run_lens,
    "bbgky_residual": run_bbgky,
    "nls_validate": run_nls_validate,
}


def run_experiment(cfg: dict, out_dir) -> tuple[int, dict]:
    """Validate, run, and write summary.json; returns (exit_code, report)."""
    from .containers import CONVENTIONS

    merged = validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rhash = config_hash(merged)
    try:
        checks = _RUNNERS[merged["experiment"]](merged, out, rhash)
        code = EXIT_PASS
    except ConfigError:
        raise
    except Exception as err:  # propagation / numerical failures -> abort code
        from .nbody import NumericalAbort
        from .nls import BlowupDetected

        if isinstance(err, (NumericalAbort, BlowupDetected, FloatingPointError)):
            checks = [{"name": "numerical_abort", "value": str(err),
                       "passed": False}]
            code = EXIT_NUMERICAL_ABORT
        else:
            raise
    asserted = [c for c in checks if c["passed"] is not None]
    all_pass = all(c["passed"] for c in asserted)
    if code == EXIT_PASS and not all_pass:
        code = EXIT_CHECK_FAILURE
    report = {
        "experiment": merged["experiment"],
        "config": merged,
        "config_hash": rhash,
        "conventions": CONVENTIONS,
        "version": PACKAGE_VERSION,
        "checks": checks,
        "passed": bool(all_pass and code == EXIT_PASS),
    }
    (out / "summary.json").write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n")
    return code, report


_SUBCOMMANDS = {
    "convergence": "convergence",
    "energy": "energy_suite",
    "collapse": "collapse_suite",
    "lens": "lens_suite",
    "bbgky": "bbgky_residual",
    "nls-validate": "nls_validate",
}


def _env_default(name: str):
    return os.environ.get(ENV_PREFIX + name.upper())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boselab",
        description="Numerical laboratory for attractive many-boson "
                    "dynamics and its focusing mean-field limit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=_env_default("config"),
                       help="JSON config path (defaults are built in)")
        p.add_argument("--out", default=_env_default("out"),
                       help="output directory (default runs/<experiment>)")
        p.add_argument("--seed", type=int,
                       default=None if _env_default("seed") is None
                       else int(_env_default("seed")))
        p.add_argument("--threads", type=int,
                       default=None if _env_default("threads") is None
                       else int(_env_default("threads")))
    args = parser.parse_args(argv)

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    kind = _SUBCOMMANDS[args.command]
    try:
        if args.config is not None:
            cfg = json.loads(Path(args.config).read_text())
            if "experiment" not in cfg:
                cfg["experiment"] = kind
            elif cfg["experiment"] != kind:
                raise ConfigError(
                    f"experiment: config says {cfg['experiment']!r} but the "
                    f"subcommand asked for {kind!r}")
        else:
            cfg = {"experiment": kind}
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = args.out or cfg.get("output_dir") or f"runs/{kind}"
        code, report = run_experiment(cfg, out_dir)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for check in report["checks"]:
        verdict = ("PASS" if check["passed"]
                   else "FAIL" if check["passed"] is not None else "REPORT")
        detail = check.get("value", check.get("values"))
        print(f"{verdict} {check['name']}: {detail}")
    print(f"summary: {out_dir}/summary.json (config {report['config_hash'][:12]})")
    return code


if __name__ == "__main__":
    sys.exit(main())
