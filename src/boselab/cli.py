"""Experiment runner: configuration, suites, and machine-readable output.

Subcommands map one-to-one onto the experiment kinds:

    convergence    mean-field convergence of reduced densities (headline)
    energy         operator-inequality suite (decomposition, positivity,
                   energy estimate, smoothing bound, spectral cutoff)
    collapse       collapsing-estimate suite (dual integrals, operator
                   families, optimality scans, uniform F bound, static
                   trace bound)
    lens           harmonic lens transform suite
    bbgky          hierarchy residual order check, mollified pair
                   interaction against the delta
    nls-validate   one-particle solver validation

Each experiment runs an ordered tuple of check functions (``_RUNNERS``),
each behind one or more paper statements, e.g. ``energy_estimate`` or
``collapse_modulation``.  Every check function has the signature
``(cfg, out, report_hash) -> list[dict]`` and writes its own CSVs;
``run_experiment`` concatenates their check dicts into ``summary.json``.
The acceptance tests call the same functions, so each threshold and each
input is defined once, here.

Configs are JSON validated against CONFIG_SCHEMA, whose numbers must be
finite and whose integers must be ints, and then against what the
runners need: only the keys of the experiment's DEFAULTS plus
output_dir, at least two particles, strictly increasing particle numbers
for convergence, and each suite's size envelope.  A suite's run plan
(``_plan``) lists its evolutions with their dt, step counts and strides
and rejects run lengths the runners cannot use (a lens t_run at which
the wrong-convention control cannot reach its floor among them); the
runners evolve exactly those runs, and the validator sums the plan for
the run-length envelope.  An orbital run takes Strang steps of dt; an
N-body run is the exact flow (nbody.propagate) to the times it stores:
the config times in convergence, and in bbgky the three around the
middle of its store_every steps of dt.  The convergence suite keeps its
N-body states as sector values (grid.BosonicState) from the product
state on: propagate evolves them and chaos_distance reads its Sym^k
factors off them, so the suite forms no n^N tensor.  Every output file
embeds the config hash, the sign/direction conventions, and the package
version, and identical config + seed gives byte-identical outputs.  Exit
codes: 0 all checks pass, 1 at least one check failed, 2 config error (a
config that cannot run), 3 numerical abort (a non-finite value during
propagation or in a check, a resolution guard, a float overflow).

Flags may also come from environment variables with the BOSELAB_ prefix
(BOSELAB_CONFIG, BOSELAB_OUT, BOSELAB_SEED, BOSELAB_THREADS); explicit
flags win.  --seed must be an integer >= 0 and --threads an integer
>= 1, else exit code 2.  main runs BLAS and LAPACK on one thread, and
--threads sizes the package's one thread pool (through OMP_NUM_THREADS),
which runs the collapse kernel's u-blocks; every output is the same at
any --threads.  Both must be set before heavy imports, which is why the
numerical modules are imported lazily inside the check functions.
"""

from __future__ import annotations

import argparse
import collections
import functools
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
                        "items": {"type": "integer", "minimum": 2}},
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
        "deltas": {"type": "array", "minItems": 2,
                   "items": {"type": "number", "exclusiveMinimum": 0,
                             "exclusiveMaximum": 1}},
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
        "dt": 1e-3, "seed": 0,
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
    return {**DEFAULTS[kind], **cfg}


def _is_finite_number(checker, value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_int(checker, value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.lru_cache(maxsize=1)
def _schema_validator():
    """CONFIG_SCHEMA's validator, with finite numbers and int integers.

    JSON's Infinity and NaN parse to floats that the standard "number"
    type admits (NaN passes every bound), and it counts 16.0 as an
    "integer"; neither can drive a run.
    """
    import jsonschema

    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many(
        {"number": _is_finite_number, "integer": _is_int})
    return jsonschema.validators.extend(base, type_checker=checker)(
        CONFIG_SCHEMA)


def _n_steps(key: str, span: float, dt: float) -> int:
    """round(span / dt); a ConfigError when it is not finite."""
    steps = span / dt if dt > 0 else math.inf
    if not math.isfinite(steps):
        raise ConfigError(
            f"{key}: {span} is not a finite number of steps of dt = {dt}")
    return int(round(steps))


_Run = collections.namedtuple("_Run", "label particles dt steps store_every")


def _stored_times(run: _Run) -> list[float]:
    """The three times at which a bbgky run stores a state: the middle of
    the grid of store_every steps of dt from 0 to the last stored step,
    the state bbgky_residual reads, and one stride on each side of it."""
    every = run.dt * run.store_every
    middle = (run.steps // run.store_every + 1) // 2
    return [i * every for i in (middle - 1, middle, middle + 1)]


def _plan(merged: dict) -> list[_Run]:
    """Every evolution of the suite, in the order its runners take them:
    the one place a step count or a stride (store_every) is worked out.
    particles = 1 is an NLS orbital, evolved in steps of dt; an N-body run
    is the exact flow to the times it stores (bbgky's _stored_times;
    convergence's are its config times).  Run lengths the runners cannot
    use raise ConfigError."""
    kind, dt, t_run = (merged["experiment"], merged.get("dt"),
                       merged.get("t_run"))
    if kind == "convergence":
        times = merged["times"]
        if len(times) < 2 or abs(times[0]) > 1e-15:
            raise ConfigError(
                "times: need t = 0 plus at least one output time")
        spacing = times[1] - times[0]
        stride = _n_steps("times", spacing, dt)
        uniform = all(abs(b - a - spacing) < 1e-12
                      for a, b in zip(times, times[1:]))
        if not uniform or stride < 1 or abs(stride * dt - spacing) > 1e-12:
            raise ConfigError("times: must be uniformly spaced multiples "
                              "of dt starting at 0")
        # per potential: the NLS orbital, then one N-body state per N
        return [_Run(tag, nn, dt, stride * (len(times) - 1), stride)
                for tag in ("mean_field", "control")
                for nn in [1, *merged["n_particles"]]]
    if kind == "nls_validate":
        steps = _n_steps("t_run", t_run, dt)
        if steps < 8:
            raise ConfigError(
                f"t_run: {t_run} is {steps} steps of dt = {dt}; the PDE "
                "residual needs at least 8")
        # the residual run stores every 4th step and needs three fields
        return [_Run("soliton", 1, dt, steps, steps),
                _Run("ground_state", 1, dt, steps, steps),
                _Run("pde_residual", 1, dt, steps, 4)]
    if kind == "bbgky_residual":
        # the central difference needs three stored snapshots at dt, and
        # dt/2 takes at least as many steps
        every = merged["store_every"]
        steps = _n_steps("t_run", t_run, dt)
        if steps < 2 * every:
            raise ConfigError(
                f"t_run: {t_run} is {steps} steps of dt = {dt}; three "
                f"snapshots every {every} steps need at least {2 * every}")
        pair = ((dt, steps), (dt / 2, _n_steps("t_run", t_run, dt / 2)))
        return [_Run("bbgky", nn, step, count, every)
                for nn in merged["n_particles"] for step, count in pair]
    if kind == "lens_suite":
        from .lens import LensMap, LensWindowError

        # the trapped flow to t_run, then the free flow to tau(t_run) and,
        # as the full-Laplacian control, to 2 tau(t_run) in as many steps;
        # each in at least two steps
        steps = max(2, _n_steps("t_run", t_run, dt))
        try:
            tau = LensMap(merged["omega"]).tau_of_t(t_run)
        except LensWindowError as err:
            raise ConfigError(f"t_run: {err}") from None
        free = max(2, _n_steps("t_run", tau, dt))
        x = merged["omega"] * tau  # tan(omega t_run)
        reach = math.sqrt(2.0 * (1.0 - ((1.0 - 0.5j * x) ** -0.5).real))
        if not reach >= _LENS_CONTROL_FLOOR:
            raise ConfigError(
                f"t_run: the wrong-convention control reaches {reach:.3g} "
                f"at omega = {merged['omega']}, t_run = {t_run}, below its "
                f"floor of {_LENS_CONTROL_FLOOR} (omega t_run >= 0.228)")
        return [_Run("trapped", 1, t_run / steps, steps, steps),
                _Run("free", 1, tau / free, free, free),
                _Run("free", 1, 2.0 * tau / free, free, free)]
    return []


# run_lens asserts wrong_convention_control >= _LENS_CONTROL_FLOOR.  The
# control is the distance between the lensed free flows with the half and
# the full Laplacian, ||(exp(i tau k^2/2) - 1) phi_0|| for the Gaussian
# trap ground state phi_0: sqrt(2 (1 - Re (1 - i x/2)^(-1/2))) with
# x = omega tau = tan(omega t_run), (sqrt(3)/4) x for small x.  Measured
# on n = 64-256, L = 6-12, omega = 0.5-2, omega t_run = 0.0005-0.8 (40
# runs): control / x = 0.43301 at x <= 0.01, and every value within 8e-7
# relative of the formula.  It reaches the floor at omega t_run = 0.228;
# omega = 0 never does.
_LENS_CONTROL_FLOOR = 0.1


# The size envelope of every suite: no tensor of more than 2^20 amplitudes
# (32^4 = 16^5), no dense eigensolve of side above grid.DENSE_SIDE_CAP
# (4096), and no collapse scan of more than 4096 dual integrals.
_MAX_AMPLITUDES = 2 ** 20
_MAX_SCAN_POINTS = 4096


def _check_envelope(merged: dict) -> None:
    """Configs whose arrays or work exceed the size envelope fail here,
    before anything is built."""
    kind, n = merged["experiment"], merged.get("n")
    if kind in ("convergence", "bbgky_residual"):
        for nn in merged["n_particles"]:
            if not (nn <= 5 and n <= 16) and not (nn <= 4 and n <= 32):
                raise ConfigError(
                    f"n_particles: N={nn} with n={n} exceeds the desk-scale "
                    "envelope (N <= 5 with n <= 16, or N <= 4 with n <= 32)")
    elif kind == "energy_suite":
        # the energy estimate draws 16^N states; pair positivity's Lanczos
        # on the n x n pair slice takes about 4n steps
        worst = max(merged["n_particles"])
        if worst > 5:
            raise ConfigError(
                f"n_particles: N={worst} draws 16^N amplitudes, beyond the "
                f"envelope of {_MAX_AMPLITUDES} (N <= 5)")
        if n > 256:
            raise ConfigError(
                f"n: the {n} x {n} pair slice exceeds the envelope of "
                "n <= 256")
    elif kind in ("nls_validate", "lens_suite"):
        from .grid import DENSE_SIDE_CAP

        # the trap ground state is a dense eigensolve of side n
        if n > DENSE_SIDE_CAP:
            raise ConfigError(
                f"n: {n} exceeds the dense eigensolve side {DENSE_SIDE_CAP}")
    elif kind == "collapse_suite":
        # an upper bound on the (eta, xi1) points of collapse_sup_I's scan
        ratio = merged["grid_extent"] / merged["grid_step"]
        points = (2.0 * ratio + 1.5) * (ratio + 1.5)
        if not points <= _MAX_SCAN_POINTS:
            raise ConfigError(
                f"grid_step: the scan would evaluate about {points:.3g} dual "
                f"integrals, beyond the envelope of {_MAX_SCAN_POINTS}")


# The run-length envelope: no suite takes more than 2^22 orbital steps
# and H_N applications in all, nor more than 2^33 value updates (an
# orbital step updates its n values, an H_N application the C(n+N-1, N)
# sector values).  The default convergence suite takes about 1,020 (two
# orbitals of 250 steps, and about 520 applications by _flow_terms) and
# 1.1e7.
_MAX_STEPS = 2 ** 22
_MAX_WORK = 2 ** 33


def _flow_terms(x: float) -> float:
    """An upper bound on the Chebyshev terms of one segment of the exact
    flow, radius times span x (nbody._bessel_j's count, which is at most
    13 above x for x <= 1 and about 10 x^(1/3) above it at large x)."""
    return x + 11.0 * x ** (1.0 / 3.0) + 14.0


def _radius_bound(merged: dict, spec, nn: int) -> float:
    """Half the width of nbody.propagate's spectral interval, from above:
    half of N max(k^2/2) for the kinetic part, N omega^2 L^2 / 2 for the
    trap and (N - 1) ||V_N||_inf (PotentialSpec.phase_rate) for the pair
    part."""
    import numpy as np

    k_max = math.pi * merged["n"] / (2.0 * merged["length"])
    trap = merged["omega"] * merged["length"]
    # extreme shapes sample to NaN, which fails the envelope
    with np.errstate(all="ignore"):
        pair = spec.phase_rate(nn)
    return 0.25 * nn * (k_max * k_max + trap * trap) + 0.5 * (nn - 1) * pair


def _run_length(merged: dict, specs: dict) -> tuple[float, float]:
    """(orbital steps plus H_N applications, value updates) of the run
    plan; floats, so that a count beyond the float range reads inf."""
    count = work = 0.0
    for run in _plan(merged):
        if run.particles == 1:
            count += run.steps
            work += float(run.steps) * merged["n"]
            continue
        key = "control_potential" if run.label == "control" else "potential"
        radius = _radius_bound(merged, specs[key], run.particles)
        if not math.isfinite(radius):
            raise ConfigError(f"{key}: the bound on H_N's spectral radius "
                              f"is {radius}, not finite")
        terms = (run.steps // run.store_every) * _flow_terms(
            radius * run.dt * run.store_every)
        count += terms
        work += terms * math.comb(merged["n"] + run.particles - 1,
                                  run.particles)
    return count, work


def validate_config(cfg: dict) -> dict:
    """Schema validation plus the module preconditions; returns merged."""
    import jsonschema

    err = jsonschema.exceptions.best_match(
        _schema_validator().iter_errors(cfg))
    if err is not None:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {err.message}")
    kind = cfg["experiment"]
    for key in sorted(cfg):
        if key not in DEFAULTS[kind] and key not in ("experiment",
                                                     "output_dir"):
            raise ConfigError(f"{key}: {kind} does not read this key")
    merged = merge_defaults(cfg)
    if kind == "convergence":
        nns = merged["n_particles"]
        if any(b <= a for a, b in zip(nns, nns[1:])):
            raise ConfigError(
                f"n_particles: {nns} must be strictly increasing, the order "
                "in which mean_field_k1_decreasing_in_N compares them")
    n = merged.get("n")
    if n is not None and (n & (n - 1)) != 0:
        raise ConfigError(f"n: {n} is not a power of two")
    from .potentials import PotentialError, PotentialSpec

    # the potentials module's admissibility rules, mixed_sign's r <= 1/2
    # among them, apply to every potential key of every suite
    specs = {}
    for key in [k for k in ("potential", "control_potential")
                if k in merged]:
        try:
            specs[key] = PotentialSpec(**merged[key])
        except PotentialError as err:
            raise ConfigError(f"{key}: {err}") from None
    _check_envelope(merged)
    total, work = _run_length(merged, specs)
    if not (total <= _MAX_STEPS and work <= _MAX_WORK):  # NaN fails too
        key = "times" if kind == "convergence" else "t_run"
        raise ConfigError(
            f"{key}: the suite would take {total:.3g} steps and H_N "
            f"applications and {work:.3g} value updates, beyond the "
            f"run-length envelope of {_MAX_STEPS} and {_MAX_WORK}")
    return merged


# ----------------------------------------------------------------------
# deterministic output helpers


def _fmt(x) -> str:
    if isinstance(x, (bool, int, str)):
        return str(x)
    return f"{float(x):.16e}"


def write_csv(path: Path, columns: list[str], rows, report_hash: str) -> None:
    from .containers import CONVENTIONS

    lines = [f"# config_hash={report_hash}", f"# version={PACKAGE_VERSION}",
             *(f"# {key}={val}" for key, val in sorted(CONVENTIONS.items())),
             ",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _product_state(grid, phi, n_particles):
    """phi^(tensor N) as normalized sector values (grid.sector_product),
    normalized with multiplicity weights."""
    from .grid import BosonicState, sector_product

    return BosonicState(grid, n_particles,
                        sector_product(phi, n_particles)).normalized()


def _finite(name: str, values: list) -> list:
    """The values of a list-valued check, unchanged if all are finite.

    ``max`` and ``min`` skip a NaN that is not the first element, so a
    check built on them would pass on it; a non-finite element aborts
    the run instead (exit code 3).
    """
    if not all(math.isfinite(v) for v in values):
        from .nbody import NumericalAbort

        raise NumericalAbort(f"{name}: non-finite element in {values}")
    return values


# ----------------------------------------------------------------------
# check functions (see the module docstring)


def _convergence_block(cfg: dict, out: Path, report_hash: str, tag: str,
                       key: str):
    """Chaos distances of one pair potential against the cubic NLS.

    Factorized initial data (sector values, _product_state) evolves
    under the exact N-body flow to the config's times; the reference
    orbital evolves under the focusing cubic equation with the matched
    coupling b0.  Writes the k = 1, 2 tables over time and particle
    number; returns the t = 0 check and the final k = 1, 2 distances.
    """
    from .grid import Grid1D, gaussian_packet
    from .marginals import chaos_distance
    from .nbody import NBodySystem, propagate
    from .nls import NLSProblem, evolve_nls
    from .potentials import PotentialSpec

    grid = Grid1D(cfg["n"], cfg["length"])
    phi0 = gaussian_packet(grid, 1.0)
    times = cfg["times"]
    orbital, *bodies = [run for run in _plan(cfg) if run.label == tag]
    pot = PotentialSpec(**cfg[key])
    problem = NLSProblem(grid, b0=pot.b0(), omega=cfg["omega"])
    nls = evolve_nls(problem, phi0, orbital.dt, orbital.steps,
                     store_every=orbital.store_every)
    tables = {k: [] for k in (1, 2)}
    for run in bodies:
        nn = run.particles
        system = NBodySystem(grid, nn, potential=pot, omega=cfg["omega"])
        traj = propagate(system, _product_state(grid, phi0, nn), times)
        for k in (1, 2):
            col = [chaos_distance(traj.states[i], k, nls.fields[i])
                   for i in range(len(times))]
            tables[k].append(_finite(f"chaos_distance_{tag}_k{k}", col))
    for k in (1, 2):
        cols = ["t"] + [f"N={nn}" for nn in cfg["n_particles"]]
        rows = [[t] + [col[i] for col in tables[k]]
                for i, t in enumerate(times)]
        write_csv(out / f"chaos_distance_{tag}_k{k}.csv", cols, rows,
                  report_hash)
    t0_max = max(col[0] for k in (1, 2) for col in tables[k])
    t0 = {"name": f"{tag}_t0_factorized", "value": t0_max,
          "passed": bool(t0_max <= 1e-12)}
    return t0, [col[-1] for col in tables[1]], [col[-1] for col in tables[2]]


def convergence_mean_field(cfg: dict, out: Path,
                           report_hash: str) -> list[dict]:
    """Attractive well: the k = 1 distance at the last time falls with N."""
    t0, final_k1, final_k2 = _convergence_block(cfg, out, report_hash,
                                                "mean_field", "potential")
    decreasing = all(b < a for a, b in zip(final_k1, final_k1[1:]))
    return [t0,
            {"name": "mean_field_k1_decreasing_in_N", "values": final_k1,
             "passed": bool(decreasing)},
            {"name": "mean_field_k2_final", "values": final_k2,
             "passed": None}]


def convergence_control(cfg: dict, out: Path,
                        report_hash: str) -> list[dict]:
    """Zero-mean control, where the mean field vanishes: distances stay
    small and flat in N."""
    t0, final_k1, _ = _convergence_block(cfg, out, report_hash, "control",
                                         "control_potential")
    spread = max(final_k1) / max(min(final_k1), 1e-300)
    return [t0,
            {"name": "control_small_and_stable", "values": final_k1,
             "passed": bool(max(final_k1) <= 0.1 and spread <= 2.0)}]


def energy_decomposition(cfg: dict, out: Path,
                         report_hash: str) -> list[dict]:
    """Matrix-free two-body decomposition of H_N, both potentials, N = 2..4."""
    from .energy_checks import check_decomposition_identity
    from .grid import Grid1D, random_state
    from .nbody import NBodySystem
    from .potentials import PotentialSpec

    small = Grid1D(16, cfg["length"])
    defects = []
    for key in ("potential", "control_potential"):
        pot = PotentialSpec(**cfg[key])
        for nn in (2, 3, 4):
            system = NBodySystem(small, nn, potential=pot, omega=1.0)
            state = random_state(small, nn, seed=cfg["seed"] + nn)
            defects.append(check_decomposition_identity(system, state))
    worst = max(_finite("decomposition_identity_defect", defects))
    return [{"name": "decomposition_identity_defect", "value": worst,
             "passed": bool(worst <= 1e-10)}]


def energy_pair_positivity(cfg: dict, out: Path,
                           report_hash: str) -> list[dict]:
    """The two-particle block stays nonnegative at every trap frequency."""
    from .energy_checks import check_pair_positivity
    from .grid import Grid1D
    from .potentials import PotentialSpec

    pot = PotentialSpec(**cfg["potential"])
    pair_grid = Grid1D(cfg["n"], cfg["length"])
    rows = []
    pair_ok = True
    for omega in cfg["omegas"]:
        res = check_pair_positivity(pot, 2, omega, pair_grid)
        rows.append([omega, res["min_eigenvalue"], res["alpha"]])
        pair_ok = pair_ok and res["passes"]
    write_csv(out / "pair_positivity.csv",
              ["omega", "min_eigenvalue", "alpha"], rows, report_hash)
    return [{"name": "pair_positivity_min_eigenvalue",
             "values": [r[1] for r in rows], "passed": bool(pair_ok)}]


def energy_K_inequality(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """One-particle K operator bounded below at N = 8."""
    from .energy_checks import check_K_inequality
    from .grid import Grid1D
    from .potentials import PotentialSpec

    kres = check_K_inequality(PotentialSpec(**cfg["potential"]), 8,
                              Grid1D(cfg["n"], cfg["length"]))
    return [{"name": "K_inequality_min_eigenvalue",
             "value": kres["min_eigenvalue"],
             "passed": bool(kres["passes"])}]


def energy_estimate(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Energy estimate on random low-pass bosonic draws: the k = 1 margin
    is asserted nonnegative, the k = 2 margin reported."""
    from .energy_checks import check_energy_estimate
    from .grid import Grid1D, random_state
    from .nbody import NBodySystem
    from .potentials import PotentialSpec

    pot = PotentialSpec(**cfg["potential"])
    est_grid = Grid1D(16, cfg["length"])
    margins = {1: [], 2: []}
    for nn in cfg["n_particles"]:
        system = NBodySystem(est_grid, nn, potential=pot, omega=1.0)
        states = [random_state(est_grid, nn, k_filter=4.0,
                               seed=cfg["seed"] + 1000 * nn + d)
                  for d in range(cfg["draws"])]
        for k in range(1, min(nn, 3)):
            margins[k] += [res["margin"] for res in
                           check_energy_estimate(system, states, k)]
    for k, v in margins.items():
        _finite(f"energy_estimate_k{k}_margin", v)
    write_csv(out / "energy_estimate_margins.csv",
              ["k", "min_margin", "n_draws"],
              [[k, min(v), len(v)] for k, v in margins.items() if v],
              report_hash)
    worst1 = min(margins[1])
    checks = [{"name": "energy_estimate_k1_margin", "value": worst1,
               "passed": bool(worst1 >= -1e-8)}]
    if margins[2]:
        checks.append({"name": "energy_estimate_k2_margin",
                       "value": min(margins[2]), "passed": None})
    return checks


def energy_smoothing(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """The weighted pair interaction is bounded by its L1 norm, both
    potentials, on 64 points."""
    from .energy_checks import check_sobolev_operator_bound
    from .grid import Grid1D
    from .potentials import PotentialSpec

    grid = Grid1D(64, cfg["length"])
    sig_rows = []
    sig_ok = True
    for key in ("potential", "control_potential"):
        spec = PotentialSpec(**cfg[key])
        res = check_sobolev_operator_bound(spec, grid)
        sig_rows.append([spec.shape, res["sigma_max"], res["bound"]])
        sig_ok = sig_ok and res["passes"]
    write_csv(out / "smoothing_bound.csv", ["shape", "sigma_max", "l1_bound"],
              sig_rows, report_hash)
    return [{"name": "smoothing_bound", "passed": bool(sig_ok),
             "values": [r[1] for r in sig_rows]}]


def energy_spectral_cutoff(cfg: dict, out: Path,
                           report_hash: str) -> list[dict]:
    """Spectral cutoff chi(kappa H_N / N) of a random N = 2 state on 16
    sites: every moment <H^k> (k = 1, 2) stays within (2N/kappa)^k, and
    the cutoff error ||chi psi - psi|| shrinks at least like kappa^0.4."""
    from .collapse import linear_fit
    from .grid import BosonicState, Grid1D, random_state
    from .nbody import NBodySystem, _moment, hamiltonian, spectral_cutoff
    from .potentials import PotentialSpec

    grid = Grid1D(16, cfg["length"])
    nn = 2
    system = NBodySystem(grid, nn, potential=PotentialSpec(**cfg["potential"]),
                         omega=1.0)
    state = random_state(grid, nn, seed=cfg["seed"] + 11)
    kappas = (0.4, 0.2, 0.1, 0.05)
    ham = hamiltonian(system)
    rows = [[kappa, _moment(system, ham, cut, 1), _moment(system, ham, cut, 2),
             BosonicState(grid, nn, cut.values - state.values).norm()]
            for kappa, cut in zip(kappas,
                                  spectral_cutoff(system, state, kappas))]
    moments = _finite("spectral_cutoff_moments",
                      [row[k] for row in rows for k in (1, 2)])
    bounds = [(2 * nn / row[0]) ** k for row in rows for k in (1, 2)]
    dists = _finite("spectral_cutoff_kappa_slope", [row[3] for row in rows])
    write_csv(out / "spectral_cutoff.csv",
              ["kappa", "moment_k1", "moment_k2", "distance"], rows,
              report_hash)
    slope = linear_fit([math.log(row[0]) for row in rows],
                       [math.log(d) for d in dists])["slope"]
    return [{"name": "spectral_cutoff_moments",
             "values": [m / b for m, b in zip(moments, bounds)],
             "passed": all(m <= b * (1 + 1e-12)
                           for m, b in zip(moments, bounds))},
            {"name": "spectral_cutoff_kappa_slope", "value": slope,
             "passed": bool(slope >= 0.4)}]


def collapse_sup_I(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Sup of the dual integral I(eta, xi1) over the scan grid, stable
    under node doubling at its argmax."""
    import numpy as np

    from . import collapse as clp
    from .nbody import NumericalAbort

    def finite_I(p, eta, x1):
        val = clp.integral_I(p, eta, x1)["value"]
        if not math.isfinite(val):
            raise NumericalAbort(f"integral_I is {val} at (eta, xi1) = "
                                 f"({eta:g}, {x1:g}), refine {p.refine}")
        return val

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
    return [{"name": "sup_integral_I", "value": sup,
             "passed": bool(np.isfinite(sup))},
            {"name": "sup_I_node_doubling", "value": stability,
             "passed": bool(stability <= 1e-3)}]


def collapse_modulation(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Modulation family: the operator ratios stay flat across lambda."""
    from . import collapse as clp
    from .grid import Grid1D

    grid_m = Grid1D(512, 8.0)
    members = clp.make_modulation_family(grid_m, cfg["lambdas"])
    res = clp.direct_operator_test(grid_m, members, epsilon=cfg["epsilon"],
                                   t_window=2.0, n_tau=1025)
    ratios = _finite("modulation_ratio_variation", [r["ratio"] for r in res])
    write_csv(out / "modulation_ratios.csv", ["label", "lhs", "rhs", "ratio"],
              [[r["label"], r["lhs"], r["rhs"], r["ratio"]] for r in res],
              report_hash)
    variation = max(ratios) / min(ratios)
    return [{"name": "modulation_ratio_variation", "value": variation,
             "passed": bool(variation <= 2.0)}]


def collapse_staircase(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Counter-rotating pair: the ratio grows as epsilon drops."""
    from . import collapse as clp
    from .grid import Grid1D

    grid_m = Grid1D(512, 8.0)
    cr = clp.make_counter_rotating_family(grid_m, [64.0])
    stair = []
    for eps in cfg["epsilons"]:
        r = clp.direct_operator_test(grid_m, cr, epsilon=eps,
                                     t_window=0.1, n_tau=257)
        stair.append([eps, r[0]["ratio"]])
    write_csv(out / "concentration_staircase.csv", ["epsilon", "ratio"],
              stair, report_hash)
    grows = all(stair[i + 1][1] > stair[i][1] for i in range(len(stair) - 1))
    return [{"name": "concentration_ratio_grows_as_eps_drops",
             "values": [s[1] for s in stair], "passed": bool(grows)}]


def collapse_optimality(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Removing the window or the weight exponent brings back a
    logarithmic divergence; keeping both leaves the cutoff scan flat."""
    from . import collapse as clp

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
          and abs(scan_rows[2][2]) < 0.1)
    return [{"name": "optimality_slopes",
             "values": [r[2] for r in scan_rows], "passed": bool(ok)}]


def collapse_lemma_F(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """The shift integral F(e) stays finite, positive and uniform once
    the |e|^(-4 eps) scaling is divided out."""
    from . import collapse as clp

    fp = clp.make_probe(0.1)
    decay = 4.0 * fp.epsilon
    ref = clp.lemma_F_reference(fp)
    frows = []
    for e in (0.0, 1.0, -1.0, 10.0, -10.0, 1000.0, -1000.0):
        val = clp.lemma_F(fp, e)
        frows.append([e, val, val * max(1.0, abs(e)) ** decay])
    write_csv(out / "lemma_F.csv", ["e", "F", "F_compensated"], frows,
              report_hash)
    values = {r[0]: r[1] for r in frows}
    comp = [r[2] for r in frows]
    positive = all(math.isfinite(v) and v > 0 for v in values.values())
    slope = (math.log(values[10.0] / values[1000.0]) / math.log(10.0 / 1000.0)
             if positive else math.nan)
    scaling_ok = all(r[1] <= abs(r[0]) ** (-decay) * ref * 1.0001
                     for r in frows if abs(r[0]) >= 1.0)
    uniformity = max(comp) / min(comp)
    return [{"name": "lemma_F_uniformity", "value": uniformity,
             "passed": bool(positive and uniformity <= 5.0 and scaling_ok
                            and abs(slope + decay) <= 0.05)}]


def collapse_trace_lemma(cfg: dict, out: Path,
                         report_hash: str) -> list[dict]:
    """Static trace bound on the dilation family: the ratio falls with
    Lambda at alpha = 3/4 and grows at alpha = 1/4, so the static route
    needs more than half a derivative, where the windowed estimate needs
    only epsilon > 0."""
    from . import collapse as clp
    from .grid import Grid1D

    grid = Grid1D(512, 4.0)
    ratios = {0.75: [], 0.25: []}
    rows = []
    for member in clp.make_dilation_family(grid, (4.0, 16.0, 64.0)):
        for alpha, series in ratios.items():
            r = clp.trace_lemma_check(grid, [member], alpha)[0]
            rows.append([alpha, r["label"], r["lhs"], r["rhs"], r["ratio"]])
            series.append(r["ratio"])
    growth = _finite("trace_lemma_needs_half_derivative",
                     [series[-1] / series[0] for series in ratios.values()])
    write_csv(out / "trace_lemma_ratios.csv",
              ["alpha", "label", "lhs", "rhs", "ratio"], rows, report_hash)
    return [{"name": "trace_lemma_needs_half_derivative", "values": growth,
             "passed": bool(growth[0] < 0.7 and growth[1] > 1.3)}]


def run_lens(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Lens-transform suite: identity, unitarity, intertwining."""
    import numpy as np

    from .grid import Grid1D, gaussian_packet
    from .lens import (LensMap, intertwine_linear_check, lens_function,
                       lens_kernel)
    from .marginals import MarginalDensity, trace_norm
    from .nls import mass, trap_ground_state

    grid = Grid1D(cfg["n"], cfg["length"])
    phi0 = gaussian_packet(grid, 1.0)
    checks = []

    flat, _ = lens_function(LensMap(0.0), grid, phi0, 0.3)
    identity_err = float(np.max(np.abs(flat - phi0)))
    checks.append({"name": "omega_zero_identity", "value": identity_err,
                   "passed": bool(identity_err <= 1e-14)})

    lmap = LensMap(cfg["omega"])
    tau = cfg["t_run"]
    image, _ = lens_function(lmap, grid, phi0, tau)
    unit_err = abs(math.sqrt(mass(grid, image)) - math.sqrt(mass(grid, phi0)))
    checks.append({"name": "unitarity", "value": unit_err,
                   "passed": bool(unit_err <= 1e-7)})

    kern = np.outer(phi0, np.conj(phi0))
    marg = MarginalDensity(grid, 1, kern)
    lensed, t_k = lens_kernel(lmap, marg, tau)
    back, _ = lens_kernel(lmap, lensed, t_k, inverse=True)
    tn_err = abs(trace_norm(lensed) - trace_norm(marg))
    round_err = float(np.max(np.abs(back.kernel - kern)))
    checks.append({"name": "kernel_trace_norm_preserved", "value": tn_err,
                   "passed": bool(tn_err <= 1e-7)})
    checks.append({"name": "kernel_roundtrip", "value": round_err,
                   "passed": bool(round_err <= 1e-7)})

    gs, _ = trap_ground_state(grid, cfg["omega"])
    trapped, free, _ = _plan(cfg)
    res = intertwine_linear_check(lmap, grid, gs, tau, trapped.steps,
                                  free.steps)
    checks.append({"name": "intertwine_defect", "value": res["defect"],
                   "passed": bool(res["defect"] <= 1e-5)})
    checks.append({"name": "wrong_convention_control",
                   "value": res["defect_wrong_convention"],
                   "passed": bool(res["defect_wrong_convention"]
                                  >= _LENS_CONTROL_FLOOR)})
    write_csv(out / "lens_checks.csv", ["check", "value"],
              [[c["name"], c["value"]] for c in checks], report_hash)
    return checks


def run_bbgky(cfg: dict, out: Path, report_hash: str) -> list[dict]:
    """Hierarchy residual second-order decay under dt halving: the exact
    flow stores the middle state and one stride of store_every steps of
    dt on each side (_stored_times), so the residual's O(dt^2) is its
    central difference's."""
    from .grid import Grid1D, gaussian_packet
    from .nbody import NBodySystem, bbgky_residual, propagate
    from .potentials import PotentialSpec

    grid = Grid1D(cfg["n"], cfg["length"])
    pot = PotentialSpec(**cfg["potential"])
    phi0 = gaussian_packet(grid, 1.0)
    rows = []
    residuals = []
    runs = _plan(cfg)
    # a run at dt, then one at dt/2, per particle number
    for pair in zip(runs[::2], runs[1::2]):
        nn = pair[0].particles
        system = NBodySystem(grid, nn, potential=pot, omega=cfg["omega"])
        state = _product_state(grid, phi0, nn)
        per_n = []
        for run in pair:
            traj = propagate(system, state, _stored_times(run))
            res = bbgky_residual(traj, k=1)
            per_n.append(res["hs_norm"])
            rows.append([nn, run.dt, res["hs_norm"], res["max_abs"]])
        residuals.append(per_n[0] / per_n[1])
    write_csv(out / "bbgky_residuals.csv",
              ["N", "dt", "hs_norm", "max_abs"], rows, report_hash)
    ok = all(3.5 <= r <= 4.5 for r in residuals)
    return [{"name": "bbgky_dt_halving_ratio", "values": residuals,
             "passed": bool(ok)}]


def bbgky_mollifier_delta(cfg: dict, out: Path,
                          report_hash: str) -> list[dict]:
    """Mollified pair interaction against the delta of the limit
    hierarchy: for the N = 2 product of the unit Gaussian, the identity
    observable paired with rho_alpha(x1 - x2) - delta(x1 - x2) over
    gamma^(2) vanishes at least like alpha^0.4.  The box is fixed: at
    n = 64, L = 8 is the only one where all three widths pass both
    window guards of mollifier_delta_test."""
    import numpy as np

    from .grid import Grid1D, gaussian_packet
    from .marginals import mollifier_delta_test

    grid = Grid1D(64, 8.0)
    state = _product_state(grid, gaussian_packet(grid, 1.0), 2)

    def rho(t):
        return np.exp(-(t ** 2) / 2) / math.sqrt(2 * math.pi)

    res = mollifier_delta_test(state, np.ones(grid.n), rho, [0.5, 1.0, 2.0])
    write_csv(out / "mollifier_delta.csv", ["alpha", "value"],
              zip(res["alphas"], res["values"]), report_hash)
    slope = res["slope"]
    return [{"name": "mollifier_delta_exponent", "value": slope,
             "passed": bool(slope >= 0.4)}]


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
    sol, ground, residual = _plan(cfg)
    traj = evolve_nls(prob, psi0, sol.dt, sol.steps,
                      store_every=sol.store_every)
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
    traj_gs = evolve_nls(trap, gs, ground.dt, ground.steps,
                         store_every=ground.store_every)
    dens_err = float(np.max(np.abs(np.abs(traj_gs.fields[-1]) ** 2
                                   - np.abs(gs) ** 2)))
    checks.append({"name": "ground_state_density_drift", "value": dens_err,
                   "passed": bool(dens_err <= 1e-7)})

    fine = evolve_nls(prob, psi0, residual.dt, residual.steps,
                      store_every=residual.store_every)
    resid = nls_residual(fine)
    checks.append({"name": "pde_residual", "value": resid, "passed": None})
    write_csv(out / "nls_checks.csv", ["check", "value"],
              [[c["name"], c["value"]] for c in checks], report_hash)
    return checks


_RUNNERS = {
    "convergence": (convergence_mean_field, convergence_control),
    "energy_suite": (energy_decomposition, energy_pair_positivity,
                     energy_K_inequality, energy_estimate, energy_smoothing,
                     energy_spectral_cutoff),
    "collapse_suite": (collapse_sup_I, collapse_modulation,
                       collapse_staircase, collapse_optimality,
                       collapse_lemma_F, collapse_trace_lemma),
    "lens_suite": (run_lens,),
    "bbgky_residual": (run_bbgky, bbgky_mollifier_delta),
    "nls_validate": (run_nls_validate,),
}


def run_experiment(cfg: dict, out_dir) -> tuple[int, dict]:
    """Validate, run, and write summary.json; returns (exit_code, report)."""
    from .containers import CONVENTIONS

    merged = validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rhash = config_hash(merged)
    try:
        checks = [check for run in _RUNNERS[merged["experiment"]]
                  for check in run(merged, out, rhash)]
        code = EXIT_PASS
    except Exception as err:  # propagation / numerical failures -> abort code
        from .grid import ConvergenceError
        from .lens import LensResolutionError
        from .nbody import NumericalAbort
        from .nls import BlowupDetected

        # a resolution guard (blow-up, lens boundary mass), a solver that
        # did not converge or a float overflow stops a run the validator
        # could not foresee
        if isinstance(err, (NumericalAbort, BlowupDetected, FloatingPointError,
                            LensResolutionError, OverflowError,
                            ConvergenceError)):
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


def _int_flag(name: str, raw: str | None, minimum: int) -> int | None:
    """The integer value of a flag or its environment default."""
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise ConfigError(f"{name}: {raw!r} is not an integer >= {minimum}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boselab",
        description="Numerical laboratory for attractive many-boson "
                    "dynamics and its focusing mean-field limit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        for flag, text in (
                ("config", "JSON config path (defaults are built in)"),
                ("out", "output directory (default runs/<experiment>)"),
                ("seed", "random seed, an integer >= 0"),
                ("threads", "thread-pool size, an integer >= 1")):
            p.add_argument(f"--{flag}", help=text,
                           default=os.environ.get(ENV_PREFIX + flag.upper()))
    args = parser.parse_args(argv)

    try:
        seed = _int_flag("seed", args.seed, 0)
        threads = _int_flag("threads", args.threads, 1)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    # LAPACK and BLAS sum in a thread-dependent order, so they get one
    # thread and the package pool is the only thread layer
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"
    if threads is not None:
        os.environ["OMP_NUM_THREADS"] = str(threads)

    kind = _SUBCOMMANDS[args.command]
    try:
        if args.config is not None:
            cfg = json.loads(Path(args.config).read_text())
            if not isinstance(cfg, dict):
                raise ConfigError("<root>: the config must be a JSON object")
            if "experiment" not in cfg:
                cfg["experiment"] = kind
            elif cfg["experiment"] != kind:
                raise ConfigError(
                    f"experiment: config says {cfg['experiment']!r} but the "
                    f"subcommand asked for {kind!r}")
        else:
            cfg = {"experiment": kind}
        if seed is not None:
            cfg["seed"] = seed
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
