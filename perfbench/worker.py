"""One suite invocation in a fresh interpreter: set-up, run, evidence.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the package source directory, the suite config, the output
directory, the BLAS/OpenMP pool size, the mode (``run``, ``probe`` or
``trace``) and the file to write the result to.  The worker

1. pins the pool size the way ``boselab --threads`` does, before any
   numerical import;
2. imports every module of the package and validates the config (set-up);
3. calls ``cli.run_experiment`` (the timed suite run), with the spans of
   ``tracer.Tracer`` recorded in ``trace`` mode;
4. gathers the evidence the benchmark checks that needs the process's own
   data: every chaos distance recomputed from the state it was computed
   from, the soliton field at the final time, and I(eta, -xi1) at one scan
   point of the collapse table.

Time spent on that evidence inside the run is measured and subtracted
from ``wall_s``.  ``probe`` mode stops after set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

PACKAGE_MODULES = ("cli", "grid", "potentials", "marginals", "nbody", "nls",
                   "lens", "energy_checks", "collapse", "containers")


class Evidence:
    """Hooks around package functions that record what the checks need."""

    def __init__(self):
        self.excluded_s = 0.0
        self.chaos: list[list] | None = None
        self.soliton: dict | None = None

    def hook_chaos_distance(self, marginals):
        import numpy as np

        original = marginals.chaos_distance
        self.chaos = []

        def recorded(state, k, phi):
            value = original(state, k, phi)
            start = time.perf_counter()
            self.chaos.append([state.n_particles, k, value,
                               _trace_distance_eigh(np, state, k, phi)])
            self.excluded_s += time.perf_counter() - start
            return value

        marginals.chaos_distance = recorded

    def hook_soliton(self, nls):
        import numpy as np

        original = nls.evolve_nls

        def recorded(problem, phi0, dt, n_steps, *args, **kwargs):
            traj = original(problem, phi0, dt, n_steps, *args, **kwargs)
            if self.soliton is None:
                start = time.perf_counter()
                exact = _closed_form_soliton(np, problem.grid.x, problem.b0,
                                             float(traj.times[-1]))
                self.soliton = {
                    "error": float(np.max(np.abs(traj.fields[-1] - exact)))}
                self.excluded_s += time.perf_counter() - start
            return traj

        nls.evolve_nls = recorded


def _trace_distance_eigh(np, state, k, phi) -> float:
    """Tr|gamma^(k) - |phi><phi|^k| from the eigenvalues of the difference.

    The marginal is the contraction of the last N - k axes with weight
    h^(N-k); both operators are taken as weighted matrices (weight h^k),
    whose trace norm is the continuum one.
    """
    amps = state.amplitudes
    n, nn, h = state.grid.n, state.n_particles, state.grid.h
    flat = amps.reshape(n ** k, n ** (nn - k))
    diff = (flat @ flat.conj().T) * h ** nn
    vec = phi
    for _ in range(k - 1):
        vec = np.multiply.outer(vec, phi)
    vec = vec.reshape(-1)
    diff -= np.multiply.outer(vec, vec.conj()) * h ** k
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _closed_form_soliton(np, x, b0, t):
    """Unit-mass sech soliton of i phi_t = -phi''/2 - b0 |phi|^2 phi."""
    amp = (b0 ** 0.5) / 2.0
    width = (b0 ** 0.5) * amp
    return amp / np.cosh(width * x) * np.exp(0.5j * b0 * amp * amp * t)


def _collapse_mirror(clp, out: Path, cfg: dict, pick: int) -> dict:
    """I(eta, -xi1) at one tabulated point with xi1 != 0."""
    from checks import read_table

    _, _, table = read_table(out / "integral_I.csv")
    rows = [[float(v) for v in row] for row in table if float(row[1]) != 0.0]
    eta, xi1, val = rows[pick % len(rows)]
    mirror = clp.integral_I(clp.make_probe(cfg["epsilon"]), eta, -xi1)
    return {"eta": eta, "xi1": xi1, "value": val, "mirror": mirror["value"]}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(spec["threads"])
    sys.path.insert(0, spec["src"])

    import importlib

    start = time.perf_counter()
    import jsonschema  # noqa: F401  (imported by validate_config)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    mods = {m: importlib.import_module(f"boselab.{m}") for m in PACKAGE_MODULES}
    imported = time.perf_counter()
    cli = mods["cli"]
    if not Path(cli.__file__).resolve().is_relative_to(
            Path(spec["src"]).resolve()):
        raise RuntimeError(f"boselab imported from {cli.__file__}, "
                           f"not from {spec['src']}")
    cfg = spec["config"]
    merged = cli.validate_config(cfg)
    validated = time.perf_counter()
    result = {"import_s": imported - start, "validate_s": validated - imported,
              "setup_s": validated - start}

    if spec["mode"] != "probe":
        evidence = Evidence()
        tracer = None
        if spec["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            hooks = spec.get("hooks", [])
            if "chaos" in hooks:
                evidence.hook_chaos_distance(mods["marginals"])
            if "soliton" in hooks:
                evidence.hook_soliton(mods["nls"])
        out = Path(spec["out"])
        run_start = time.perf_counter()
        code, report = cli.run_experiment(cfg, out)
        result["wall_s"] = time.perf_counter() - run_start - evidence.excluded_s
        result["exit_code"] = code
        result["passed"] = report["passed"]
        result["chaos"] = evidence.chaos
        result["soliton"] = evidence.soliton
        if tracer is not None:
            Path(spec["spans"]).write_text(json.dumps(tracer.spans))
        if "mirror" in spec.get("hooks", []):
            result["mirror"] = _collapse_mirror(mods["collapse"], out, merged,
                                                spec["pick"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
