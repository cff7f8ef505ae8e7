"""Checks of one suite invocation's outputs, made apart from the program.

Each ``check_<experiment>`` gets the output directory, the parsed
``summary.json`` and the worker's result, and returns a list of failure
messages (empty when the invocation is correct).  The package is not
imported here: the pair operator, the trace distances and the soliton are
rebuilt from their formulas with numpy and scipy.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

# The runner evaluates lemma_F on a probe with this epsilon.
LEMMA_F_EPSILON = 0.1


def read_table(path: Path):
    """(config_hash, column names, rows) of a CSV written by the runner."""
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    config = meta[0].split("=", 1)[1] if meta else None
    return config, body[0], body[1:]


# Outputs that differ between reruns of one config, left out of the digest.
# check_sobolev_operator_bound calls eigsh without a start vector, so its
# sigma_max changes in the last digits from one process to the next.
UNSTABLE = {"energy_suite": ("smoothing_bound.csv", "smoothing_bound")}


def output_digest(out: Path, experiment: str) -> str:
    """SHA-256 over the names and bytes of the CSVs and summary.json.

    For an experiment in ``UNSTABLE`` the named CSV is skipped and the named
    check's values are blanked in summary.json before hashing.
    """
    skip_file, skip_check = UNSTABLE.get(experiment, (None, None))
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")) + [out / "summary.json"]:
        if path.name == skip_file:
            continue
        data = path.read_bytes()
        if skip_check and path.name == "summary.json":
            summary = json.loads(data)
            for check in summary["checks"]:
                if check["name"] == skip_check:
                    check["values"] = None
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def check_common(out: Path, summary: dict, result: dict) -> list[str]:
    fails = []
    if result.get("exit_code") != 0:
        fails.append(f"exit code {result.get('exit_code')}")
    if summary.get("passed") is not True:
        failed = [c["name"] for c in summary.get("checks", [])
                  if c.get("passed") is False]
        fails.append(f"summary passed={summary.get('passed')} ({failed})")
    for path in sorted(out.glob("*.csv")):
        config, _, _ = read_table(path)
        if config != summary.get("config_hash"):
            fails.append(f"{path.name}: config hash {config} differs from "
                         "summary.json")
    return fails


def check_convergence(out: Path, summary: dict, result: dict) -> list[str]:
    fails = []
    chaos = result.get("chaos")
    recomputed = {}
    for nn, k, value, ref in chaos or []:
        recomputed.setdefault((nn, k, value), []).append(ref)
    tabulated = 0
    for tag in ("mean_field", "control"):
        for k in (1, 2):
            path = out / f"chaos_distance_{tag}_k{k}.csv"
            if not path.is_file():
                if tag == "mean_field":
                    fails.append(f"{path.name} missing")
                continue
            _, cols, rows = read_table(path)
            table = [[float(v) for v in row] for row in rows]
            for row in table:
                for nn_col, value in zip(cols[1:], row[1:]):
                    tabulated += 1
                    nn = int(nn_col.split("=")[1])
                    if not 0.0 <= value <= 2.0:
                        fails.append(f"{path.name} N={nn} t={row[0]}: "
                                     f"{value} outside [0, 2]")
                    if chaos is None:
                        continue
                    refs = recomputed.get((nn, k, value))
                    if not refs:
                        fails.append(f"{path.name} N={nn} t={row[0]}: no "
                                     "recomputation for the tabulated value")
                    elif abs(refs.pop() - value) > 1e-10:
                        fails.append(f"{path.name} N={nn} t={row[0]}: eigvalsh "
                                     f"recomputation differs from {value}")
            if table[0][0] != 0.0 or max(table[0][1:]) > 1e-12:
                fails.append(f"{path.name}: t=0 row {table[0]} not <= 1e-12")
            if tag == "mean_field" and k == 1:
                final = table[-1][1:]
                if not all(b < a for a, b in zip(final, final[1:])):
                    fails.append(f"k=1 finals {final} do not decrease in N")
    if chaos is not None and tabulated != len(chaos):
        fails.append(f"{len(chaos)} chaos distances computed, "
                     f"{tabulated} tabulated")
    return fails


def check_collapse(out: Path, summary: dict, result: dict) -> list[str]:
    fails = []
    mirror = result.get("mirror")
    if mirror is None:
        fails.append("no mirrored integral_I evaluation")
    elif abs(mirror["value"] - mirror["mirror"]) > 1e-12 * abs(mirror["value"]):
        fails.append(f"I({mirror['eta']}, +-{mirror['xi1']}) = "
                     f"{mirror['value']} vs {mirror['mirror']}")
    doubling = [c for c in summary["checks"]
                if c["name"] == "sup_I_node_doubling"]
    if not doubling or not doubling[0]["value"] <= 1e-3:
        fails.append(f"node-doubling change {doubling} not <= 1e-3")
    _, _, rows = read_table(out / "optimality_scans.csv")
    fits = {row[0]: (float(row[2]), float(row[3])) for row in rows}
    for mode in ("epsilon_zero", "T_infinite"):
        slope, r2 = fits.get(mode, (math.nan, math.nan))
        if not (slope > 0 and r2 >= 0.99):
            fails.append(f"{mode} scan slope {slope}, R^2 {r2}")
    _, _, rows = read_table(out / "lemma_F.csv")
    values = {float(row[0]): float(row[1]) for row in rows}
    slope = ((math.log(values[1000.0]) - math.log(values[10.0]))
             / (math.log(1000.0) - math.log(10.0)))
    if abs(slope + 4.0 * LEMMA_F_EPSILON) > 0.05:
        fails.append(f"lemma_F decay slope {slope} vs {-4 * LEMMA_F_EPSILON}")
    return fails


def _potential(spec: dict, x: np.ndarray) -> np.ndarray:
    y = (x / spec["s"]) ** 2
    if spec["shape"] == "gaussian_well":
        return -spec["a"] * np.exp(-y)
    return spec["a"] * (spec.get("r", 0.0) - y) * np.exp(-y)


def pair_min_eigenvalue(n: int, length: float, spec: dict, omega: float,
                        n_particles: int = 2) -> float:
    """Lowest eigenvalue of (S_1^2+S_2^2)/2 + (1-1/N) V_N(x1-x2) + 2 alpha.

    Matrix-free Lanczos on the pair grid; S^2 = 1 - d^2/2 + omega^2 x^2/2
    with the kinetic part applied by 2D FFT, V_N(y) = N^b V(N^b y), and
    alpha = (int |V|)^2 by a fine uniform sum.
    """
    h = 2.0 * length / n
    x = -length + h * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kinetic = 0.5 * ((1.0 + 0.5 * k ** 2)[:, None] + (1.0 + 0.5 * k ** 2)[None, :])
    trap = 0.25 * omega ** 2 * (x[:, None] ** 2 + x[None, :] ** 2)
    scale = float(n_particles) ** spec.get("beta", 0.5)
    vpair = scale * _potential(spec, scale * (x[:, None] - x[None, :]))
    radius = 30.0 * max(spec["s"], 1.0)
    fine = np.linspace(-radius, radius, 2 ** 16, endpoint=False)
    alpha = (np.sum(np.abs(_potential(spec, fine))) * 2.0 * radius / fine.size) ** 2
    diagonal = trap + (1.0 - 1.0 / n_particles) * vpair + 2.0 * alpha

    def apply(vec):
        a = vec.reshape(n, n)
        return (np.fft.ifft2(kinetic * np.fft.fft2(a)).real
                + diagonal * a).ravel()

    op = LinearOperator((n * n, n * n), matvec=apply, dtype=np.float64)
    vals = eigsh(op, k=1, which="SA", v0=np.ones(n * n), tol=0,
                 return_eigenvectors=False)
    return float(vals[0])


def check_energy_suite(out: Path, summary: dict, result: dict) -> list[str]:
    fails = []
    cfg = summary["config"]
    _, _, rows = read_table(out / "pair_positivity.csv")
    if len(rows) != len(cfg["omegas"]):
        fails.append(f"{len(rows)} pair-positivity rows for "
                     f"{len(cfg['omegas'])} trap frequencies")
    for row in rows:
        omega, lam = float(row[0]), float(row[1])
        ref = pair_min_eigenvalue(cfg["n"], cfg["length"], cfg["potential"],
                                  omega)
        if abs(lam - ref) > 1e-8:
            fails.append(f"pair positivity omega={omega}: {lam} vs Lanczos {ref}")
    return fails


def check_nls_validate(out: Path, summary: dict, result: dict) -> list[str]:
    fails = []
    sol = result.get("soliton")
    if sol is None:
        return fails
    if not sol["error"] <= 1e-6:
        fails.append(f"soliton error {sol['error']} against the closed form")
    _, _, rows = read_table(out / "nls_checks.csv")
    reported = {row[0]: float(row[1]) for row in rows}
    if abs(reported.get("soliton_profile_error", math.nan) - sol["error"]) > 1e-12:
        fails.append(f"tabulated soliton error {reported.get('soliton_profile_error')}"
                     f" vs closed form {sol['error']}")
    return fails


def check_bbgky_residual(out: Path, summary: dict, result: dict) -> list[str]:
    _, _, rows = read_table(out / "bbgky_residuals.csv")
    norms = {}
    for nn, dt, hs, _ in rows:
        norms.setdefault(int(nn), []).append((float(dt), float(hs)))
    fails = []
    for nn, pairs in norms.items():
        (dt_a, hs_a), (dt_b, hs_b) = sorted(pairs, reverse=True)
        ratio = hs_a / hs_b
        if abs(dt_a / dt_b - 2.0) > 1e-12 or not 3.5 <= ratio <= 4.5:
            fails.append(f"N={nn}: dt {dt_a}->{dt_b} residual ratio {ratio}")
    return fails


CHECKS = {
    "convergence": check_convergence,
    "collapse_suite": check_collapse,
    "energy_suite": check_energy_suite,
    "bbgky_residual": check_bbgky_residual,
    "nls_validate": check_nls_validate,
}


# Evidence the worker records inside the run, in untraced rounds only.
EVIDENCE = {"convergence": "chaos", "nls_validate": "soliton"}


def check_invocation(experiment: str, out: Path, result: dict,
                     traced: bool) -> list[str]:
    """All checks of one invocation.  A traced round records no in-run
    evidence, so its recomputations against that evidence are skipped."""
    summary_path = out / "summary.json"
    if not summary_path.is_file():
        return ["summary.json missing"]
    summary = json.loads(summary_path.read_text())
    fails = check_common(out, summary, result)
    key = EVIDENCE.get(experiment)
    if key and not traced and result.get(key) is None:
        fails.append(f"worker recorded no {key} evidence")
    if experiment in CHECKS:
        fails += CHECKS[experiment](out, summary, result)
    return fails
